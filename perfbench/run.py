"""locbounds benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload mc_dense --seed 1 --seconds 30 --trace 0

Each op is one in-process ``locbounds.cli.main(argv)`` call on inputs made
from ``--seed`` (see workloads.py). Ops run back to back for ``--seconds``,
every output is checked, and a fixed-seed canary op is compared against
the values in canary.json before timing starts.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops (see layertrace.py) and reports the per-layer
metrics per traced op, plus the tracing overhead. Every metric is printed
by name with its unit. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, the latter
holding the metrics BENCHMARK.json declares for the mode; the full record,
stamped with the machine, goes to perfbench/.work/results/.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2.

``--record-canary`` reruns every workload's canary op and rewrites
canary.json; use it only when the program's outputs change on purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One client on one core. With the default of one BLAS thread per core, the
# small reductions here mostly wait on each other and on the machine's other
# load, which made op latency twice as slow and far less steady. Set before
# numpy (and scipy's OpenBLAS) is loaded; the thread count is recorded.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
CANARY_FILE = BENCH_DIR / "canary.json"

SETUP_REPEATS = 4
SETUP_SCHEMAS = ("config", "speb_output", "bounds_output", "experiment_summary")
TAIL_SAMPLES = 10

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import locbounds, locbounds.cli
from locbounds.config import load_schema
for name in {schemas!r}:
    load_schema(name)
elapsed = time.perf_counter() - t0
print(locbounds.__file__)
print(repr(elapsed))
"""


def measure_setup_s() -> float:
    """Time to import locbounds and its CLI and load the schemas, in a fresh
    interpreter."""
    code = SETUP_CODE.format(src=str(SRC), schemas=SETUP_SCHEMAS)
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", code],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    module_file, elapsed = proc.stdout.split()
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up imported locbounds from {module_file}, not {SRC}")
    return float(elapsed)


def import_program():
    """Import locbounds from the checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import locbounds.cli
    import locbounds.config
    import locbounds.ranging

    if not Path(locbounds.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported locbounds from {locbounds.__file__}, not {SRC}")
    return locbounds


# ----------------------------------------------------------------------------
# Machine record


def _blas_threads():
    """OpenBLAS thread count from numpy's bundled library, or "unknown"."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs_dir / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version", "unknown") if "openblas" in blas.get("name", "") else "none",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ----------------------------------------------------------------------------
# Ops


class OpResult:
    __slots__ = ("latency_s", "ok", "traced", "outputs")

    def __init__(self, latency_s, ok, traced, outputs):
        self.latency_s = latency_s
        self.ok = ok
        self.traced = traced
        self.outputs = outputs


def run_op(cli, workload, op_seed: int, index: int, tracer=None) -> OpResult:
    """One timed op (its ``cli.main`` calls) followed by its untimed checks."""
    calls = workload.calls(op_seed)
    done = []  # (command, argv, exit code, stdout)
    gc.collect()  # start every op from the same collector state
    if tracer is not None:
        tracer.op_id = index
        tracer.install()
    start = time.perf_counter()
    try:
        for command, argv in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            done.append((command, argv, code, buf.getvalue()))
            if code != 0:
                break
    except (Exception, SystemExit):
        print(f"op {index} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    finally:
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    outputs = {}
    for command, argv, code, stdout in done:
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += len(stdout.encode())
        if code != 0:
            print(f"op {index} ({' '.join(argv)}) exited {code}", file=sys.stderr)
            continue
        try:
            outputs[command] = workload.check(op_seed, command, stdout)
        except (workloads.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
            print(f"op {index} ({' '.join(argv)}) failed its check: {exc!r}", file=sys.stderr)
    ok = len(outputs) == len(calls)
    return OpResult(latency, ok, tracer is not None, outputs)


def make_workload(name: str, seed: int, work_dir: str, program):
    if name == "cli_batch":
        return workloads.CliBatchWorkload(work_dir, seed, program.ranging, program.config)
    return workloads.McWorkload(name, work_dir)


def same(a, b) -> bool:
    """Structural equality, numbers (and numeric strings) within RTOL."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, str) and isinstance(b, str):
        try:
            return workloads.close(float(a), float(b)) or a == b
        except ValueError:
            return a == b
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    return workloads.close(float(a), float(b))


def canary(program, name: str, work_dir: str):
    """Run the fixed-seed canary ops; returns their checked outputs or None."""
    canary_dir = os.path.join(work_dir, "canary")
    os.makedirs(canary_dir)
    workload = make_workload(name, workloads.CANARY_SEED, canary_dir, program)
    res = run_op(program.cli, workload, workloads.CANARY_SEED, -1)
    return res.outputs if res.ok else None


# ----------------------------------------------------------------------------
# Metrics


def tail(latencies_s: list[float]) -> tuple[float, float, int]:
    """(latency ms, percentile, samples beyond) at the highest percentile
    with TAIL_SAMPLES samples beyond it; the maximum when there are fewer."""
    ordered = sorted(latencies_s)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return 1000.0 * ordered[-1], 100.0, 0
    return 1000.0 * ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n, TAIL_SAMPLES


def end_to_end(results: list[OpResult], setup_times: list[float], workload) -> tuple[dict, dict]:
    good = [r for r in results if r.ok]
    lat = [r.latency_s for r in good]
    busy = math.fsum(lat)
    tail_ms, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "draws_per_s": (len(good) * workload.draws_per_op / busy, "1/s"),
        "agents_per_s": (len(good) * workload.agents_per_op / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = {
        "op_tail_ms": f"p{tail_pct:.1f}, {beyond} samples beyond, n={len(lat)}",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
    }
    return metrics, notes


def per_layer(results: list[OpResult], tracer) -> tuple[dict, dict]:
    traced = [r for r in results if r.traced and r.ok]
    untraced = [r for r in results if not r.traced and r.ok]
    units = {m: u for m, u, _, _, _ in layertrace.LAYER_METRICS}
    metrics = {m: (v, units[m]) for m, v in tracer.layer_metrics(len(traced)).items()}
    p50_traced = statistics.median(r.latency_s for r in traced)
    p50_untraced = statistics.median(r.latency_s for r in untraced)
    metrics["trace_overhead_frac"] = (p50_traced / p50_untraced - 1.0, "fraction")
    op_ms = 1000.0 * math.fsum(r.latency_s for r in traced) / len(traced)
    shares = {m: v / op_ms for m, (v, unit) in metrics.items() if unit == "ms"}
    notes = {
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "traced_op_p50_ms": 1000.0 * p50_traced,
        "untraced_op_p50_ms": 1000.0 * p50_untraced,
        "traced_op_mean_ms": op_ms,
        "self_time_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "missing_wrapped_names": tracer.missing,
    }
    return metrics, notes


# ----------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-canary", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_canary:
        parser.error("--workload is required")
    return args


def record_canary(program, work_dir: str) -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        outputs = canary(program, name, os.path.join(work_dir, name))
        if outputs is None:
            print(f"canary op of {name} failed; nothing recorded", file=sys.stderr)
            return 1
        reference[name] = {"seed": workloads.CANARY_SEED, "outputs": outputs}
    CANARY_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CANARY_FILE}")
    return 0


def run(args, program, work_dir: str) -> int:
    name = args.workload
    machine = machine_record(args.seed)

    reference = json.loads(CANARY_FILE.read_text())[name]["outputs"]
    canary_outputs = canary(program, name, work_dir)
    canary_ok = canary_outputs is not None and same(canary_outputs, reference)
    if not canary_ok:
        print(f"canary of {name} does not match {CANARY_FILE.name}", file=sys.stderr)

    workload = make_workload(name, args.seed, work_dir, program)
    tracer = layertrace.Tracer() if args.trace else None
    seeds = workloads.op_seeds(args.seed)
    results: list[OpResult] = []
    # Set-up samples are spread evenly over the run rather than taken in a
    # burst, so their median sees the same mix of machine states as the ops.
    # Time spent on them does not count towards --seconds.
    setup_times: list[float] = []
    setup_due = 0 if args.trace else SETUP_REPEATS
    paused = 0.0
    start = time.perf_counter()
    # a traced run alternates untraced and traced ops and needs one of each
    while len(results) < 1 + args.trace or time.perf_counter() - start - paused < args.seconds:
        if len(setup_times) < setup_due and (
            time.perf_counter() - start - paused >= len(setup_times) * args.seconds / setup_due
        ):
            before = time.perf_counter()
            setup_times.append(measure_setup_s())
            paused += time.perf_counter() - before
            continue
        index = len(results)
        traced = tracer if args.trace and index % 2 == 1 else None
        result = run_op(program.cli, workload, next(seeds), index, traced)
        result.outputs = None  # checked already; holding them would grow the heap
        results.append(result)

    while len(setup_times) < setup_due:
        setup_times.append(measure_setup_s())
    attempted = len(results)
    failed = sum(not r.ok for r in results)
    correct = canary_ok and failed == 0
    metrics, notes = {}, {}
    if all(any(r.ok and r.traced == t for r in results) for t in {False, bool(args.trace)}):
        if args.trace:
            metrics, notes = per_layer(results, tracer)
            tracer.write_spans(str(WORK_DIR / f"spans_{name}.jsonl"))
        else:
            metrics, notes = end_to_end(results, setup_times, workload)
    else:
        print("no successful op to measure", file=sys.stderr)
    notes["failed_ops_frac"] = failed / attempted

    print(f"workload {name}, seed {args.seed}, trace {args.trace}: {attempted} ops, "
          f"{failed} failed, canary {'ok' if canary_ok else 'MISMATCH'}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for metric, (value, unit) in metrics.items():
        note = notes.get(metric)
        print(f"  {metric:32s} {value:14.6g} {unit}" + (f"   ({note})" if note else ""))
    print(f"  {'failed_ops_frac':32s} {failed / attempted:14.6g} fraction")
    for key in ("missing_wrapped_names", "self_time_shares"):
        if key in notes:
            print(f"{key}: {json.dumps(notes[key])}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items() if m in declared},
    }
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        "machine": machine, "notes": notes, "setup_times_s": setup_times,
        "latencies_ms": [[1000.0 * r.latency_s, r.traced, r.ok] for r in results],
    }
    results_dir = WORK_DIR / "results"
    os.makedirs(results_dir, exist_ok=True)
    (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "locbounds" / "__init__.py").is_file():
        print(f"error: no locbounds source tree under {SRC}", file=sys.stderr)
        return 2
    program = import_program()
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        if args.record_canary:
            return record_canary(program, work_dir)
        return run(args, program, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
