"""Workload inputs and output checks for the locbounds benchmark.

Every op is one in-process ``locbounds.cli.main(argv)`` call, or two for
``cli_batch``. A workload turns the benchmark seed into per-op argv lists (and, for ``cli_batch``,
one config document plus pulse file written at set-up), and checks each
op's output with the benchmark's own numpy code.

Workloads:

- ``mc_dense``: ``experiment dense_scaling --trials 1`` (Na in 4..64,
  set-I anchors, cooperative). Dominated by the closed-form bounds and
  EFIM assembly; touches the exact reduction and Philox only lightly.
- ``mc_extended``: ``experiment extended_scaling --trials 1`` (N in
  64..4096, anchors only). Dominated by the topology draw (Node and
  RangingLink construction, Philox substreams); never calls the bounds.
- ``cli_batch``: ``speb --format json --dpeb-deg 45`` then
  ``bounds --format json`` on one 40-agent, 4-anchor config; the pair is
  one op. Anchor links
  are waveform + 3-path channel, agent pairs are path loss with b = 1.
  Exercises config parsing, schema validation and 40 per-agent
  pseudo-inverse reductions.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

WORKLOADS = ("mc_dense", "mc_extended", "cli_batch")

# The canary op runs on this fixed seed whatever the benchmark seed is, and
# its output is compared against values recorded in canary.json.
CANARY_SEED = 20100604

RTOL = 1e-9

DENSE_SWEEP = (4, 8, 16, 32, 64)
EXTENDED_SWEEP = (64, 256, 1024, 4096)

# cli_batch geometry: set-I anchors on a 20 m square, agents uniform inside
# with a minimum spacing that keeps the 1/d^2 pair intensities bounded.
# 40 agents, not 64: a 64-agent op takes 1.4-2.3 s on a 2-core machine,
# leaving under 25 ops per run, too few for a tail percentile.
N_AGENTS = 40
HALF_SIDE = 10.0
MIN_SPACING_M = 0.5
ANCHORS = ((10.0, 10.0), (10.0, -10.0), (-10.0, 10.0), (-10.0, -10.0))
SPEED_OF_LIGHT = 299_792_458.0
PULSE_WIDTH_S = 1e-9
DPEB_EXTRA_DEG = 45.0


class CheckError(Exception):
    """An op's output failed its check."""


def op_seeds(seed: int):
    """Endless per-op seeds derived from the benchmark seed."""
    rng = np.random.default_rng([seed, 1])
    while True:
        yield int(rng.integers(0, 2**31 - 1))


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ----------------------------------------------------------------------------
# Monte Carlo studies


class McWorkload:
    """``experiment <kind> --trials 1`` ops; outputs go to ``work_dir``."""

    def __init__(self, name: str, work_dir: str):
        self.name = name
        self.kind = "dense_scaling" if name == "mc_dense" else "extended_scaling"
        self.sweep = DENSE_SWEEP if name == "mc_dense" else EXTENDED_SWEEP
        self.work_dir = work_dir

    @property
    def draws_per_op(self) -> int:
        return len(self.sweep)

    @property
    def agents_per_op(self) -> int:
        # dense draws report every agent; extended draws the reference agent
        return sum(self.sweep) if self.name == "mc_dense" else len(self.sweep)

    def calls(self, op_seed: int) -> list[tuple[str, list[str]]]:
        return [(self.kind, [
            "experiment", self.kind, "--trials", "1", "--seed", str(op_seed),
            "--out", self.work_dir,
        ])]

    def outputs(self, op_seed: int) -> tuple[list[dict], dict]:
        """Read and delete one op's CSV rows and JSON summary."""
        stem = os.path.join(self.work_dir, f"{self.kind}_{op_seed}")
        with open(stem + ".csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(stem + ".json") as fh:
            summary = json.load(fh)
        os.unlink(stem + ".csv")
        os.unlink(stem + ".json")
        return rows, summary

    def check(self, op_seed: int, command: str, stdout: str) -> dict:
        rows, summary = self.outputs(op_seed)
        if summary.get("sweep") != list(self.sweep):
            raise CheckError(f"summary sweep {summary.get('sweep')} != {list(self.sweep)}")
        size_key = "na" if self.name == "mc_dense" else "n_anchors"
        per_size: dict[int, dict[str, float]] = {}
        for row in rows:
            values = {k: float(v) for k, v in row.items() if k not in ("cooperative",)}
            if not all(math.isfinite(v) for v in values.values()):
                raise CheckError(f"non-finite row {row}")
            if not values["q10_m2"] <= values["q50_m2"] <= values["q90_m2"]:
                raise CheckError(f"quantiles out of order in {row}")
            label = row.get("cooperative", "anchors")
            per_size.setdefault(int(values[size_key]), {})[label] = values["mean_speb_m2"]
        expected_labels = {"True", "False"} if self.name == "mc_dense" else {"anchors"}
        if sorted(per_size) != sorted(self.sweep) or any(
            set(v) != expected_labels for v in per_size.values()
        ):
            raise CheckError(f"sweep rows missing: {sorted(per_size)}")
        if self.name == "mc_dense":
            for size, means in per_size.items():
                if means["True"] > means["False"]:
                    raise CheckError(f"na={size}: cooperative mean above non-cooperative")
        return {"rows": rows, "summary": summary}


# ----------------------------------------------------------------------------
# Batch CLI on one generated config


def _monocycle(width: float) -> tuple[np.ndarray, float]:
    """Gaussian monocycle sampled at 64 samples per ``width``, over 4 widths."""
    dt = width / 64.0
    t = np.arange(-128, 129) * dt
    x = t / (0.25 * width)
    return -x * np.exp(-0.5 * x * x), dt


def _agent_positions(rng: np.random.Generator) -> np.ndarray:
    points: list[np.ndarray] = []
    while len(points) < N_AGENTS:
        p = rng.uniform(-HALF_SIDE, HALF_SIDE, size=2)
        if all(np.hypot(*(p - q)) >= MIN_SPACING_M for q in points):
            points.append(p)
    return np.array(points)


class CliBatchWorkload:
    """``speb`` + ``bounds`` ops on one seeded config.

    The two commands are timed as one op: timed apart, their latencies form
    two clusters and the median falls in the gap between them.

    The check recomputes every agent's SPEB from the benchmark's own numpy
    assembly and inverse of the generated network. Waveform-link
    intensities come from the ranging layer once at set-up (they are pinned
    end to end by the canary).
    """

    # one op evaluates the network twice (speb, then bounds), one row per agent each
    draws_per_op = 2
    agents_per_op = 2 * N_AGENTS

    def __init__(self, work_dir: str, seed: int, ranging, config):
        rng = np.random.default_rng([seed, 2])
        samples, dt = _monocycle(PULSE_WIDTH_S)
        pulse_path = os.path.join(work_dir, "pulse.txt")
        with open(pulse_path, "w") as fh:
            fh.write("time_s amplitude\n")
            for i, s in enumerate(samples):
                fh.write(f"{i * dt!r} {float(s)!r}\n")
        # amplitude scale giving a lone first path lambda = 1/d^2
        ds = np.gradient(samples, dt)
        scale = SPEED_OF_LIGHT / math.sqrt(float(np.trapezoid(ds * ds, dx=dt)))

        agents = _agent_positions(rng)
        anchors = np.array(ANCHORS)
        nodes = [
            {"id": f"a{k}", "kind": "agent", "position": [float(x), float(y)]}
            for k, (x, y) in enumerate(agents)
        ] + [
            {"id": f"b{i}", "kind": "anchor", "position": [float(x), float(y)]}
            for i, (x, y) in enumerate(anchors)
        ]
        support = 4.0 * PULSE_WIDTH_S
        links, channels = [], []
        for k, p in enumerate(agents):
            for i, b in enumerate(anchors):
                d = float(np.hypot(*(p - b)))
                tau = d / SPEED_OF_LIGHT
                delays = [tau, tau + rng.uniform(0.3, 0.8) * PULSE_WIDTH_S, tau + 3.0 * support]
                a1 = scale / d
                amps = [a1, a1 * rng.uniform(-0.7, 0.7), a1 * rng.uniform(0.1, 0.5)]
                channel = {"delays_s": delays, "amplitudes": amps}
                channels.append(((k, i), channel))
                links.append(
                    {"from": f"a{k}", "to": f"b{i}", "waveform": "monocycle", "channel": channel}
                )
        for k in range(N_AGENTS):
            for m in range(k + 1, N_AGENTS):
                links.append({"from": f"a{k}", "to": f"a{m}", "pathloss": {"b": 1.0}})
        doc = {
            "version": 1,
            "network": {"reciprocal": True, "nodes": nodes, "links": links},
            "waveforms": {"monocycle": {"pulse_file": "pulse.txt", "n0_half": 1.0}},
        }
        self.config_path = os.path.join(work_dir, "network.json")
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh)

        waveform = config.load_pulse_file(pulse_path)
        anchor_rii = {
            key: ranging.rii_no_prior(
                waveform, ranging.MultipathChannel(ch["delays_s"], ch["amplitudes"])
            )
            for key, ch in channels
        }
        self.reference = _reference_inverse(agents, anchors, anchor_rii)

    def calls(self, op_seed: int) -> list[tuple[str, list[str]]]:
        return [
            ("speb", ["speb", self.config_path, "--format", "json",
                      "--dpeb-deg", str(DPEB_EXTRA_DEG)]),
            ("bounds", ["bounds", self.config_path, "--format", "json"]),
        ]

    def check(self, op_seed: int, command: str, stdout: str) -> dict:
        payload = json.loads(stdout)
        records = payload["agents"]
        if [r["id"] for r in records] != [f"a{k}" for k in range(N_AGENTS)]:
            raise CheckError("agent rows missing or out of order")
        angles = (0.0, math.pi / 2.0, math.radians(DPEB_EXTRA_DEG))
        for k, rec in enumerate(records):
            block = self.reference[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
            ref = float(block[0, 0] + block[1, 1])
            speb = rec["speb_m2"]
            if speb is None or not close(speb, ref):
                raise CheckError(f"{rec['id']}: speb_m2 {speb} != reference {ref}")
            if command == "speb":
                dpebs = [d["value_m2"] for d in rec["dpeb"]]
                if len(dpebs) != len(angles) or not close(dpebs[0] + dpebs[1], speb):
                    raise CheckError(f"{rec['id']}: DPEB(0) + DPEB(pi/2) != SPEB")
                u = np.array([math.cos(angles[2]), math.sin(angles[2])])
                if not close(dpebs[2], float(u @ block @ u)):
                    raise CheckError(f"{rec['id']}: DPEB at {DPEB_EXTRA_DEG} deg off reference")
            else:
                lower, upper, ratio = rec["speb_lower_m2"], rec["speb_upper_m2"], rec["ratio"]
                if not lower <= speb * (1.0 + RTOL) or not speb <= upper * (1.0 + RTOL):
                    raise CheckError(f"{rec['id']}: sandwich {lower} <= {speb} <= {upper} fails")
                if not 0.0 < ratio <= 1.0:
                    raise CheckError(f"{rec['id']}: ratio {ratio} outside (0, 1]")
        return payload


def _reference_inverse(agents: np.ndarray, anchors: np.ndarray, anchor_rii: dict) -> np.ndarray:
    """Inverse of the network information, assembled directly in numpy."""
    n = len(agents)
    j = np.zeros((2 * n, 2 * n))

    def outer(a, b):
        q = (b - a) / np.hypot(*(b - a))
        return np.outer(q, q)

    for (k, i), lam in anchor_rii.items():
        j[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] += lam * outer(agents[k], anchors[i])
    for k in range(n):
        for m in range(k + 1, n):
            d2 = float(np.sum((agents[k] - agents[m]) ** 2))
            c = (2.0 / d2) * outer(agents[k], agents[m])  # reciprocal pair, b = 1
            j[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] += c
            j[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] += c
            j[2 * k : 2 * k + 2, 2 * m : 2 * m + 2] -= c
            j[2 * m : 2 * m + 2, 2 * k : 2 * k + 2] -= c
    return np.linalg.inv(j)
