"""Quick smoke run of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced, and checks that
each run exits 0 with a correct result whose metric names and units are
exactly those BENCHMARK.json declares. Then copies only BENCHMARK.json and
the benchmark directory into a scratch tree (no ``src/``) and checks that
the benchmark refuses to run there: non-zero exit, no result line.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return subprocess.run(
        spec["command"] + args, cwd=root, capture_output=True, text=True, timeout=180
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            proc = run(ROOT, ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace)])
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['attempted']} attempted, "
                                f"{result['failed']} failed, correct={result['correct']}")
            if units != expected[trace]:
                problems.append(f"{label}: metrics {units} != BENCHMARK.json {expected[trace]}")
            print(f"{label}: {result['attempted']} ops, correct={result['correct']}")

    with tempfile.TemporaryDirectory(dir=BENCH_DIR / ".work") as bare:
        bare_root = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare_root)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare_root / path,
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(bare_root, ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"])
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("benchmark ran without the program's source tree")
        print(f"without src/: exit {proc.returncode}")

    for problem in problems:
        print("FAIL " + problem)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
