"""The benchmark's contract with the program.

``perfbench/layertrace.py`` wraps names the program's modules look up
(``experiments.cho_factor``, ``cli.agent_efim``, ...). When one of them
disappears, a traced run still exits 0, but its result line silently lacks
that layer's metrics. These tests fail instead: every wrapped name must
resolve, and a short traced run of each workload must end in a correct
result line holding exactly the per-layer metrics ``BENCHMARK.json``
declares. The runs write only under the ignored ``perfbench/.work/``.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_wrapped_name_resolves():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import layertrace
    finally:
        sys.path.remove(str(BENCH_DIR))
    missing = layertrace.Tracer().missing
    assert missing == [], f"names the benchmark tracer wraps are gone: {missing}"


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_declared_metrics(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    declared = sorted(m["name"] for m in SPEC["per_layer"])
    assert sorted(result["metrics"]) == declared, proc.stdout[-2000:]
