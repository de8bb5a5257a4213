"""Summarize benchmark results into one point of the BENCH trajectory.

    python3 perfbench/summarize.py [--out perfbench/trajectory/NN-label.json]

Reads every record run.py left in perfbench/.work/results/ and reports, per
workload and metric, the median, the quartiles and the spread (quartile
distance over the median, as ``statistics.quantiles(values, n=4)`` gives
them) across runs, plus the median self-time share of each layer from the
traced runs. Prints the summary; ``--out`` also writes it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / ".work" / "results"


def describe(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"runs": len(values), "median": med, "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, dict] = defaultdict(lambda: {"end_to_end": {}, "per_layer": {}})
    grouped: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for rec in records:
        grouped[(rec["workload"], rec["trace"])].append(rec)
    for (workload, trace), recs in sorted(grouped.items()):
        entry = by_workload[workload]
        section = entry["per_layer" if trace else "end_to_end"]
        for metric in recs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in recs if metric in r["metrics"]]
            section[metric] = describe(values) | {"unit": recs[0]["metrics"][metric]["unit"]}
        entry["seeds" if not trace else "traced_seeds"] = sorted(r["seed"] for r in recs)
        entry["seconds"] = recs[0]["seconds"]
        entry["ops_attempted"] = entry.get("ops_attempted", 0) + sum(r["attempted"] for r in recs)
        entry["ops_failed"] = entry.get("ops_failed", 0) + sum(r["failed"] for r in recs)
        if trace:
            shares: dict[str, list[float]] = defaultdict(list)
            for r in recs:
                for layer, share in r["notes"]["self_time_shares"].items():
                    shares[layer].append(share)
            entry["self_time_shares"] = dict(
                sorted(((k, statistics.median(v)) for k, v in shares.items()), key=lambda kv: -kv[1])
            )
            entry["missing_wrapped_names"] = sorted(
                {m for r in recs for m in r["notes"]["missing_wrapped_names"]}
            )
    machines = {json.dumps({k: v for k, v in r["machine"].items() if k != "seed"}, sort_keys=True)
                for r in records}
    return {"machines": [json.loads(m) for m in sorted(machines)], "workloads": dict(by_workload)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    records = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"))]
    if not records:
        print(f"no results under {RESULTS}")
        return 1
    summary = summarize(records)
    for workload, entry in summary["workloads"].items():
        print(f"{workload}: {entry['ops_attempted']} ops, {entry['ops_failed']} failed")
        for section in ("end_to_end", "per_layer"):
            for metric, d in entry[section].items():
                spread = d.get("spread")
                print(f"  {metric:32s} median {d['median']:12.6g} {d['unit']:9s}"
                      f" spread {spread if spread is not None else float('nan'):.4f}"
                      f"  ({d['runs']} runs)")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
