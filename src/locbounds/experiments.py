"""Random-topology generation and seeded Monte Carlo studies.

Reproduces, at desk scale, the standard numerical studies of cooperative
localization bounds:

- ``run_fig6``: mean bound versus number of agents for fixed anchor layouts,
  cooperative and not;
- ``run_fig7``: mean ratio of the closed-form lower/upper bound
  approximations versus number of agents;
- ``run_fig8``: mean bound versus the anchor-placement scale D;
- ``run_scaling``: log-log scaling fits in dense networks (bound ~ 1/N) and
  bounded-ratio checks in extended networks (bound ~ 1/log N for amplitude
  loss exponent 1, constant for exponents above 1), reported in the
  result's summary;
- ``lemma1_check`` / ``lemma2_check``: empirical probabilities behind the
  scaling proofs (pairwise angle spread and ranging-intensity order
  statistics).

Reproducibility: every random draw comes from a Philox counter-based
generator keyed as key = (seed, trial * 2^32 + role * 2^28 + index), one
substream per (trial, node). Nodes draw in index order within their
substream, so topologies are bit-identical across runs and nested across
sweep sizes (agent i keeps its position as more agents are added), which
makes sweep comparisons common-random-number smooth. Trials are independent
and may run in parallel; aggregation indexes results by trial and sums with
``math.fsum``, so the output is order-independent.

A node's position takes its substream's first two doubles, so the draws
compute every node's position from one vectorized evaluation of the
substreams' first Philox4x64-10 blocks (``_philox_first_block``, Salmon et
al., SC'11): the same keys and the same bits as one ``substream`` generator
per node. Link distances and intensities are arrays too; the extended
draw's intensities come from ``rii_pathloss_batch``, bit for bit the
values of ``rii_pathloss``. Repeat runs are byte-identical.

The Monte Carlo studies (fig6, fig7, fig8, dense and extended scaling)
run one loop: at every sweep point and trial it draws a network with
``gen_dense`` or ``gen_extended``, which hand their arrays to
``Topology.from_arrays`` (no ``Node`` or ``RangingLink`` is built),
assembles it with ``build_efim``, the path of the CLI and the demos, and
takes the per-agent measures the kind needs (exact cooperative or
anchors-only SPEB, or the SPEBs of the closed-form bounds from
``bound_spebs``, as arrays with no per-agent objects); each measure is
aggregated into one output row per sweep point, and the summary, fits
included, is computed from those aggregates. The log-log fits are
``scipy.stats.linregress``'s formulas written with numpy
(``_fit_loglog``), so no study imports ``scipy.stats``. ``_COLUMNS``
lists the output columns of every kind.

Per-agent exact bounds are the SPEBs of ``NetworkEfim.agent_info``: every
agent's equivalent information from a recursive-halving Schur reduction
of its cooperation component alone (with per-agent pseudo-inverse
reductions only in a component whose halving fails), so one degenerate
agent or cluster does not make the whole draw unlocalizable; anchors-only
bounds are those of ``NetworkEfim.own_info``.
Every SPEB is ``infogeo.speb_blocks``, under the one singularity rule.

Outputs are CSV rows plus a JSON summary named ``<kind>_<seed>.csv/json``,
written atomically (temp file + rename); the JSON holds null where a
summary value is not finite. Mean bounds skip unlocalizable draws and
report them as an outage fraction. The intensity scale constant
``k_const`` is arbitrary (absolute bound values are not comparable across
conventions; shapes and slopes are what these studies assert).
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .bounds import bound_spebs, effective_rii
# unused here; perfbench/layertrace.py traces this name as the bounds layer
from .bounds import efim_bounds_all  # noqa: F401
from .infogeo import EllipseForm, speb_blocks
from .network import NetworkEfim, Topology, build_efim
from .ranging import rii_pathloss_batch
# unused here; perfbench/layertrace.py traces this name as the ranging layer
from .ranging import rii_pathloss  # noqa: F401


def __getattr__(name: str):
    # only so perfbench/layertrace.py finds the exact layer's names; ROADMAP item 2 deletes it
    if name in ("cho_factor", "cho_solve"):
        import scipy.linalg

        return getattr(scipy.linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "Lemma2Result",
    "default_spec",
    "substream",
    "gen_dense",
    "gen_extended",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_scaling",
    "lemma1_check",
    "lemma2_check",
    "angle_pair_spread",
    "run_experiment",
    "EXPERIMENT_KINDS",
]

EXPERIMENT_KINDS = (
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "dense_scaling",
    "extended_scaling",
    "lemma1",
    "lemma2",
)

_ANCHOR_LAYOUTS = ("setI", "setII", "both", "random")

# substream roles
_ROLE_AGENT = 1
_ROLE_ANCHOR = 2
_ROLE_FADING = 3
_ROLE_COUNT = 4
_ROLE_DRAW = 5


def _stream_keys(trial: int, role: int, index) -> np.ndarray:
    """key[1] of the substreams (trial, role, index), for an integer or an
    array of integers ``index``."""
    index = np.asarray(index)
    if role <= 0 or role >= 16 or np.any(index < 0) or np.any(index >= 1 << 28):
        raise ValueError("role in [1, 15] and index below 2^28 required")
    return np.uint64(((trial % (1 << 32)) << 32) + (role << 28)) + index.astype(np.uint64)


def substream(seed: int, trial: int, role: int, index: int = 0) -> np.random.Generator:
    """Philox substream keyed by (seed, trial, role, index).

    key[0] = seed, key[1] = trial * 2^32 + role * 2^28 + index, so distinct
    (trial, role, index) triples never collide for trial < 2^32, role < 16,
    index < 2^28.
    """
    key = np.array([seed % (1 << 64), _stream_keys(trial, role, index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11) as ``np.random.Philox`` runs it: round multipliers and key bumps.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(const: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of the 128-bit products const * x, from 32-bit
    limbs (every partial sum fits in 64 bits)."""
    c_lo, c_hi = np.uint64(const & 0xFFFFFFFF), np.uint64(const >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo = c_lo * x_lo
    mid = c_hi * x_lo + (lo_lo >> _SHIFT32)
    mid2 = (mid & _LOW32) + c_lo * x_hi
    hi = c_hi * x_hi + (mid >> _SHIFT32) + (mid2 >> _SHIFT32)
    return hi, (mid2 << _SHIFT32) | (lo_lo & _LOW32)


def _philox_first_block(seed: int, keys: np.ndarray) -> np.ndarray:
    """The first output block, shape (4, n), of ``np.random.Philox`` keyed
    by (seed, keys[i]) for every i at once: Philox4x64-10 at counter
    (1, 0, 0, 0), the counter a fresh generator draws its first four words
    from."""
    x0 = np.ones(keys.shape, np.uint64)
    x1, x2, x3 = np.zeros((3, *keys.shape), np.uint64)
    k0, k1 = seed % (1 << 64), keys.astype(np.uint64)
    for r in range(10):
        if r:  # key schedule: k0 in Python integers, k1 wrapping in uint64
            k0, k1 = (k0 + _PHILOX_W[0]) % (1 << 64), k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack([x0, x1, x2, x3])


def _first_doubles(seed: int, trial: int, streams: Sequence[tuple[int, int]]) -> np.ndarray:
    """``substream(seed, trial, role, i).random(2)`` for every (role, count)
    in ``streams`` and i below count, in that order, as rows of one array:
    one vectorized Philox pass, bit for bit the generators' draws."""
    keys = np.concatenate(
        [_stream_keys(trial, role, np.arange(count)) for role, count in streams]
    )
    words = _philox_first_block(seed, keys)[:2].T
    return (words >> np.uint64(11)) * 2.0**-53


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one Monte Carlo study; defaults follow the 20 m square
    geometry with anchors at scale D and free-space intensity k_const/d^2."""

    kind: str
    trials: int = 100
    seed: int = 0
    # dense geometry
    side: float = 20.0
    d_anchor: float = 10.0
    k_const: float = 1.0
    na: int = 15
    nb: int = 4
    na_sweep: tuple[int, ...] = ()
    d_sweep: tuple[float, ...] = ()
    layouts: tuple[str, ...] = ("setI", "setII", "both")
    cooperative: bool = True
    # extended geometry
    rho_b: float = 1.0
    rho_a: float = 0.0
    r0: float = 0.5
    rmax: Optional[float] = None
    path_exponent: float = 1.0
    n_sweep: tuple[int, ...] = ()
    poisson_counts: bool = False
    fading_sigma_db: float = 0.0
    # lemma checks
    n_angles: int = 64
    n_order: int = 32
    lambda0: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        for name in ("side", "d_anchor", "k_const", "rho_b", "r0", "path_exponent"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.rmax is not None and self.rmax <= 0.0:
            raise ValueError("rmax must be positive")
        for name in ("rho_a", "fading_sigma_db"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        for layout in self.layouts:
            if layout not in _ANCHOR_LAYOUTS:
                raise ValueError(f"unknown anchor layout {layout!r}")
        if not all(math.isfinite(d) and d > 0.0 for d in self.d_sweep):
            raise ValueError("d_sweep entries must be finite and positive")
        for name in ("na_sweep", "n_sweep"):
            if not all(n >= 1 for n in getattr(self, name)):
                raise ValueError(f"{name} entries must be >= 1")


_FLOAT_FIELDS = (
    "side",
    "d_anchor",
    "k_const",
    "rho_b",
    "r0",
    "path_exponent",
    "rmax",
    "rho_a",
    "fading_sigma_db",
    "lambda0",
)

_SPEC_DEFAULTS: dict[str, dict] = {
    "fig4": dict(trials=1),
    "fig6": dict(trials=200, na_sweep=(1, 2, 3, 5, 8, 11, 15), d_anchor=10.0),
    "fig7": dict(trials=200, na_sweep=(2, 3, 5, 8, 15), d_anchor=10.0),
    "fig8": dict(
        trials=100,
        na=15,
        d_sweep=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0),
    ),
    "dense_scaling": dict(trials=200, nb=4, na_sweep=(4, 8, 16, 32, 64), layouts=("setI",)),
    "extended_scaling": dict(trials=200, n_sweep=(64, 256, 1024, 4096), cooperative=False),
    "lemma1": dict(trials=10_000, n_angles=64),
    "lemma2": dict(trials=10_000, n_order=32, lambda0=0.25),
}


def default_spec(kind: str, seed: int = 0, trials: Optional[int] = None, **overrides) -> ExperimentSpec:
    """Spec with per-kind defaults; keyword overrides win."""
    params = dict(_SPEC_DEFAULTS.get(kind, {}))
    params.update(overrides)
    if trials is not None:
        params["trials"] = trials
    return ExperimentSpec(kind=kind, seed=seed, **params)


def _anchor_positions(layout: str, d: float) -> list[tuple[float, float]]:
    set_i = [(d, d), (d, -d), (-d, d), (-d, -d)]
    set_ii = [(d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d)]
    if layout == "setI":
        return set_i
    if layout == "setII":
        return set_ii
    if layout == "both":
        return set_i + set_ii
    raise ValueError(f"layout {layout!r} has no fixed positions")


def _fading_draws(spec_sigma_db: float, seed: int, trial: int, count: int) -> np.ndarray:
    if spec_sigma_db <= 0.0:
        return np.ones(count)
    rng = substream(seed, trial, _ROLE_FADING)
    return 10.0 ** (spec_sigma_db * rng.standard_normal(count) / 10.0)


def _full_mesh(positions: np.ndarray, n_agents: int, rii_of) -> Topology:
    """The topology of agents at ``positions[:n_agents]`` and anchors after
    them, named by default (a0, a1, ..., then b0, b1, ...), in which every
    agent i receives one link from every other node j, in (i, j) order, of
    intensity ``rii_of(distances)``."""
    src, dst = np.nonzero(~np.eye(n_agents, len(positions), dtype=bool))
    diff = positions[src] - positions[dst]
    rii = rii_of(np.hypot(diff[:, 0], diff[:, 1]))
    return Topology.from_arrays(np.arange(len(positions)) < n_agents, positions, src, dst, rii)


def gen_dense(
    seed: int,
    na: int,
    *,
    nb: Optional[int] = None,
    side: float = 20.0,
    anchor_layout: str = "both",
    d: float = 10.0,
    k_const: float = 1.0,
    fading_sigma_db: float = 0.0,
    trial: int = 0,
) -> Topology:
    """Dense-network draw: ``na`` agents uniform in a ``side`` x ``side``
    square, anchors on the fixed layout at scale ``d`` (corners for set I,
    edge midpoints for set II, or ``nb`` uniform draws for ``random``), and
    every pairwise link populated with free-space intensity k_const/d^2.

    Identical (seed, trial) reproduce the topology exactly, and agent i's
    position does not depend on ``na``.
    """
    if na < 0 or (nb is not None and nb < 0):
        raise ValueError("node counts must be nonnegative")
    half = side / 2.0
    if anchor_layout == "random":
        if nb is None:
            raise ValueError("random anchor layout requires nb")
        streams = ((_ROLE_AGENT, na), (_ROLE_ANCHOR, nb))
        fixed = np.empty((0, 2))
    else:
        streams = ((_ROLE_AGENT, na),)
        fixed = np.array(_anchor_positions(anchor_layout, d), dtype=float)
    # Generator.uniform(low, high) is low + (high - low) * random()
    drawn = -half + (half - -half) * _first_doubles(seed, trial, streams)
    positions = np.concatenate([drawn, fixed])

    def rii_of(dist: np.ndarray) -> np.ndarray:
        fading = _fading_draws(fading_sigma_db, seed, trial, dist.size)
        with np.errstate(divide="ignore", over="ignore"):
            return k_const * fading / dist**2

    return _full_mesh(positions, na, rii_of)


def gen_extended(
    seed: int,
    *,
    rho_b: float,
    rho_a: float = 0.0,
    radius: float,
    r0: float,
    rmax: Optional[float] = None,
    b: float = 1.0,
    k_const: float = 1.0,
    poisson_counts: bool = False,
    fading_sigma_db: float = 0.0,
    trial: int = 0,
) -> Topology:
    """Extended-network draw around a reference agent at the origin.

    Anchors (and optional extra agents) are uniform in the disk of ``radius``
    with densities rho_b / rho_a per unit area; counts are fixed at
    round(rho * pi * R^2) or Poisson with that mean. Link intensities follow
    the truncated path-loss model z / r^(2b) for r >= r0.
    """
    if radius <= r0:
        raise ValueError("radius must exceed the minimum node separation r0")
    area = math.pi * radius**2
    if poisson_counts:
        counts_rng = substream(seed, trial, _ROLE_COUNT)
        nb = int(counts_rng.poisson(rho_b * area))
        na_extra = int(counts_rng.poisson(rho_a * area)) if rho_a > 0.0 else 0
    else:
        nb = int(round(rho_b * area))
        na_extra = int(round(rho_a * area)) if rho_a > 0.0 else 0

    # a uniform point in the disk from each node's first two draws (u, v)
    u, v = _first_doubles(seed, trial, ((_ROLE_AGENT, na_extra), (_ROLE_ANCHOR, nb))).T
    r = radius * np.sqrt(u)
    ang = 2.0 * math.pi * v
    positions = np.concatenate([np.zeros((1, 2)), np.stack([r * np.cos(ang), r * np.sin(ang)], 1)])

    def rii_of(dist: np.ndarray) -> np.ndarray:
        z = k_const * _fading_draws(fading_sigma_db, seed, trial, dist.size)
        links = np.flatnonzero(dist > 0.0)
        rii = np.zeros(dist.size)
        rii[links] = rii_pathloss_batch(dist[links], b, z=z[links], r0=r0, rmax=rmax)
        return rii

    return _full_mesh(positions, 1 + na_extra, rii_of)


def _per_agent_spebs(net: NetworkEfim) -> np.ndarray:
    """Exact (cooperative) SPEB per agent."""
    return speb_blocks(net.agent_info)


def _noncoop_spebs(net: NetworkEfim) -> np.ndarray:
    """Anchor-only (plus prior) SPEB per agent."""
    return speb_blocks(net.own_info)


class _Aggregate(NamedTuple):
    mean: float
    q10: float
    q50: float
    q90: float
    outage: float
    count: int


def _aggregate(values: Sequence[float]) -> _Aggregate:
    arr = np.asarray(values, dtype=float)
    finite = arr[np.isfinite(arr)]
    outage = 1.0 - finite.size / arr.size if arr.size else 0.0
    if finite.size == 0:
        return _Aggregate(math.inf, math.inf, math.inf, math.inf, outage, 0)
    mean = math.fsum(finite.tolist()) / finite.size
    q10, q50, q90 = np.quantile(finite, [0.1, 0.5, 0.9])
    return _Aggregate(mean, float(q10), float(q50), float(q90), outage, int(finite.size))


@dataclass(frozen=True)
class ExperimentResult:
    """Rows plus summary of one study; knows how to write itself to disk."""

    kind: str
    seed: int
    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    summary: dict

    def write(self, out_dir: str) -> tuple[str, str]:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, f"{self.kind}_{self.seed}.csv")
        json_path = os.path.join(out_dir, f"{self.kind}_{self.seed}.json")
        _atomic_write(csv_path, self._csv_text())
        summary = _finite_or_null(self.summary)
        _atomic_write(
            json_path, json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
        return csv_path, json_path

    def _csv_text(self) -> str:
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_csv_cell(row[c]) for c in self.columns])
        return buf.getvalue()


def _finite_or_null(value):
    """``value`` with every non-finite float, at any depth, replaced by None:
    JSON has no NaN or infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain shortest round-trip, no numpy repr
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _spec_echo(spec: ExperimentSpec) -> dict:
    return {
        "kind": spec.kind,
        "seed": spec.seed,
        "trials": spec.trials,
        "k_const_m2": spec.k_const,
    }


# Output columns per kind. In the Monte Carlo kinds the last five columns
# hold the aggregate of one measure over a sweep point (see ``_row``).
_SPEB_STATS = ("mean_speb_m2", "q10_m2", "q50_m2", "q90_m2", "outage")
_COLUMNS: dict[str, tuple[str, ...]] = {
    "fig4": ("phi", "nu", "xi", "effective_rii"),
    "fig6": ("layout", "cooperative", "na", "trials", *_SPEB_STATS),
    "fig7": ("layout", "na", "trials", "mean_ratio", "q10", "q50", "q90", "outage"),
    "fig8": ("layout", "d_m", "na", "trials", *_SPEB_STATS),
    "dense_scaling": ("cooperative", "na", "nb", "n_total", "trials", *_SPEB_STATS),
    "extended_scaling": ("n_anchors", "radius_m", "trials", *_SPEB_STATS),
    "lemma1": ("n", "trials", "violation_fraction"),
    "lemma2": ("n", "trials", "lambda0", "eps", "empirical", "bound"),
}

# The Monte Carlo kinds: the spec field each one sweeps, and the fewest
# sweep points its summary can be computed from.
_SWEEP_FIELDS = {
    "fig6": "na_sweep",
    "fig7": "na_sweep",
    "fig8": "d_sweep",
    "dense_scaling": "na_sweep",
    "extended_scaling": "n_sweep",
}
_MIN_POINTS = {"dense_scaling": 4, "extended_scaling": 2}


def run_fig6(spec: ExperimentSpec) -> ExperimentResult:
    """Mean bound versus number of agents, per anchor layout, cooperative
    and anchors-only."""
    return _run_study(spec, "fig6")


def run_fig7(spec: ExperimentSpec) -> ExperimentResult:
    """Mean ratio of the lower to the upper bound approximation versus the
    number of agents: exactly 1 for two agents, in (0, 1] always."""
    return _run_study(spec, "fig7")


def run_fig8(spec: ExperimentSpec) -> ExperimentResult:
    """Mean bound versus the anchor-placement scale D: large when anchors
    cluster at the center (rank-starved geometry), rising again once
    path loss dominates; the interior minimum and the set I / set II
    crossing are reported."""
    return _run_study(spec, "fig8")


def run_scaling(spec: ExperimentSpec) -> ExperimentResult:
    """Scaling-law study; ``spec.kind`` picks the regime and the summary
    holds the fits.

    dense_scaling: geometric Na sweep at fixed anchors; fits the slope of
    log(mean bound) against log(Nb + Na) (cooperative) and against log(Na)
    (anchors only, which should be flat).

    extended_scaling: node-count sweep at fixed densities; for amplitude
    loss exponent 1 reports the spread of mean bound x log N across the
    sweep (bounded when the bound scales as 1/log N), for exponents above 1
    the terminal ratio (the bound converges to a constant).
    """
    if spec.kind not in ("dense_scaling", "extended_scaling"):
        raise ValueError(f"not a scaling kind: {spec.kind!r}")
    return _run_study(spec, spec.kind)


def _run_study(spec: ExperimentSpec, kind: str) -> ExperimentResult:
    """The Monte Carlo study ``kind``: at every sweep point, draw
    ``spec.trials`` networks, measure every agent of each (only the
    reference agent a0 in extended networks) and aggregate each measure
    into a row."""
    field = _SWEEP_FIELDS[kind]
    sweep = tuple(getattr(spec, field) or _SPEC_DEFAULTS[kind][field])
    if len(sweep) < _MIN_POINTS.get(kind, 0):
        raise ValueError(f"scaling sweep needs at least {_MIN_POINTS[kind]} points")
    if kind != "extended_scaling" and not spec.layouts:
        raise ValueError(f"{kind} needs at least one anchor layout")
    if kind == "dense_scaling" and len(spec.layouts) > 1:
        raise ValueError(f"dense_scaling takes one anchor layout, got {list(spec.layouts)}")
    if kind == "extended_scaling":
        points = [dict(n_anchors=n, radius_m=math.sqrt(n / (math.pi * spec.rho_b))) for n in sweep]
    elif kind == "dense_scaling":
        layout = spec.layouts[0]
        nb = spec.nb if layout == "random" else len(_anchor_positions(layout, spec.d_anchor))
        points = [dict(layout=layout, na=na, nb=nb, n_total=na + nb) for na in sweep]
    elif kind == "fig8":
        points = [dict(layout=lay, d_m=float(d), na=spec.na) for lay in spec.layouts for d in sweep]
    else:
        points = [dict(layout=lay, na=na) for lay in spec.layouts for na in sweep]

    # (measure, row keys) for each row of a sweep point
    if kind in ("fig6", "dense_scaling"):
        row_measures = (("coop", {"cooperative": True}), ("noncoop", {"cooperative": False}))
    elif kind == "fig7":
        row_measures = (("ratio", {}),)
    else:
        row_measures = (("coop" if spec.cooperative else "noncoop", {}),)
    names = {name for name, _ in row_measures}
    if kind == "dense_scaling":
        names |= {"upper", "lower"}

    columns = _COLUMNS[kind]
    rows: list[dict] = []
    means: dict[str, list[float]] = {name: [] for name in names}
    for point in points:
        values: dict[str, list[float]] = {name: [] for name in names}
        for trial in range(spec.trials):
            net = _draw(spec, kind, point, trial)
            measured = _draw_measures(net, names)
            agents = [net.index("a0")] if kind == "extended_scaling" else slice(None)
            for name in names:
                values[name].extend(measured[name][agents].tolist())
        aggs = {name: _aggregate(vals) for name, vals in values.items()}
        for name, agg in aggs.items():
            means[name].append(agg.mean)
        keys = point | {"trials": spec.trials}
        rows += [_row(columns, keys | extra, aggs[name]) for name, extra in row_measures]
    summary = _study_summary(spec, kind, sweep, points, rows, means)
    return ExperimentResult(spec.kind, spec.seed, columns, tuple(rows), summary)


def _draw(spec: ExperimentSpec, kind: str, point: dict, trial: int) -> NetworkEfim:
    """The network of one trial at one sweep point."""
    if kind == "extended_scaling":
        topo = gen_extended(
            spec.seed,
            rho_b=spec.rho_b,
            rho_a=spec.rho_a if spec.cooperative else 0.0,
            radius=point["radius_m"],
            r0=spec.r0,
            rmax=spec.rmax,
            b=spec.path_exponent,
            k_const=spec.k_const,
            poisson_counts=spec.poisson_counts,
            fading_sigma_db=spec.fading_sigma_db,
            trial=trial,
        )
    else:
        layout = point["layout"]
        topo = gen_dense(
            spec.seed,
            point["na"],
            nb=spec.nb if layout == "random" else None,
            side=spec.side,
            anchor_layout=layout,
            d=point.get("d_m", spec.d_anchor),
            k_const=spec.k_const,
            fading_sigma_db=spec.fading_sigma_db,
            trial=trial,
        )
    return build_efim(topo)


def _draw_measures(net: NetworkEfim, names: set[str]) -> dict[str, np.ndarray]:
    """Per-agent values of the named measures on one network.

    "coop" and "noncoop" are the cooperative and anchors-only SPEB. From
    the closed-form bounds, "upper" is the SPEB of J_L (the loose bound),
    "lower" that of J_U (the tight one) and "ratio" is lower / upper, inf
    where either is.
    """
    out: dict[str, np.ndarray] = {}
    if "coop" in names:
        out["coop"] = _per_agent_spebs(net)
    if "noncoop" in names:
        out["noncoop"] = _noncoop_spebs(net)
    if not names.isdisjoint(("upper", "lower", "ratio")):
        upper, lower = bound_spebs(net)
        out["upper"], out["lower"] = upper, lower
        with np.errstate(divide="ignore", invalid="ignore"):
            out["ratio"] = np.where(np.isinf(upper) | np.isinf(lower), math.inf, lower / upper)
    return out


def _row(columns: tuple[str, ...], keys: dict, agg: _Aggregate) -> dict:
    """One output row: the sweep point's ``keys``, then mean, quantiles and
    outage of ``agg`` in the last five columns."""
    values = keys | dict(zip(columns[-5:], agg[:5]))
    return {c: values[c] for c in columns}


def _study_summary(
    spec: ExperimentSpec,
    kind: str,
    sweep: tuple,
    points: list[dict],
    rows: list[dict],
    means: dict[str, list[float]],
) -> dict:
    """JSON summary of a Monte Carlo study; ``means`` holds each measure's
    mean at every one of ``points``."""
    scaling = {"kind": spec.kind, "seed": spec.seed, "sweep": list(sweep)}
    if kind == "dense_scaling":
        n_total = [p["n_total"] for p in points]
        # The closed-form approximations are the objects the asymptotic
        # argument manipulates; their fits are reported next to the exact one
        # so the transition regime is visible.
        return scaling | {
            "cooperative_fit_vs_log_n_total": _fit_loglog(n_total, means["coop"]),
            "upper_approx_fit_vs_log_n_total": _fit_loglog(n_total, means["upper"]),
            "lower_approx_fit_vs_log_n_total": _fit_loglog(n_total, means["lower"]),
            "noncooperative_fit_vs_log_na": _fit_loglog(list(sweep), means["noncoop"]),
            "layout": points[0]["layout"],
        }
    if kind == "extended_scaling":
        mean = [r["mean_speb_m2"] for r in rows]
        products = [m * math.log(n) for m, n in zip(mean, sweep)]
        return scaling | {
            "path_exponent": spec.path_exponent,
            "mean_times_log_n": products,
            "mean_times_log_n_spread": max(products) / min(products),
            "terminal_ratio": mean[-1] / mean[-2],
        }

    summary = _spec_echo(spec)
    if kind == "fig8":
        summary |= {"d_sweep": list(map(float, sweep)), "layouts": list(spec.layouts)}
        return summary | _fig8_minima(rows)
    if kind == "fig6":
        label = lambda r: f"{r['layout']}/{'coop' if r['cooperative'] else 'noncoop'}/na={r['na']}"
    else:
        label = lambda r: f"{r['layout']}/na={r['na']}"
    stat = _COLUMNS[kind][-5]
    return summary | {
        "layouts": list(spec.layouts),
        "na_sweep": list(sweep),
        stat: {label(r): r[stat] for r in rows},
    }


def _fig8_minima(rows: list[dict]) -> dict:
    """Per layout, the D of the least mean bound; and where set I and set II
    cross, if both were run."""
    by_layout: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        by_layout.setdefault(r["layout"], []).append((r["d_m"], r["mean_speb_m2"]))
    minima = {}
    for layout, pts in by_layout.items():
        pts.sort()
        means = [m for _, m in pts]
        k = int(np.argmin(means))
        minima[layout] = {
            "d_m": pts[k][0],
            "mean_speb_m2": means[k],
            "interior": 0 < k < len(pts) - 1,
        }
    out: dict = {"minima": minima}
    if "setI" in by_layout and "setII" in by_layout:
        out["setI_minus_setII_sign_change_d_m"] = _sign_change(
            by_layout["setI"], by_layout["setII"]
        )
    return out


def _sign_change(
    pts_a: list[tuple[float, float]], pts_b: list[tuple[float, float]]
) -> Optional[float]:
    """First sweep value where the sign of (setI - setII) flips, if any."""
    diffs = [(d, ma - mb) for (d, ma), (_, mb) in zip(sorted(pts_a), sorted(pts_b))]
    for (d0, v0), (d1, v1) in zip(diffs, diffs[1:]):
        if v0 == 0.0 or (v0 < 0.0) != (v1 < 0.0):
            return d1 if v0 != 0.0 else d0
    return None


def _fit_loglog(x: Sequence[float], y: Sequence[float]) -> dict:
    """Slope of log y against log x with a 95% confidence half-width.

    The least-squares fit of ``scipy.stats.linregress`` (scipy 1.17) in its
    own formulas, bit for bit: every field NaN when fewer than two points
    are given or any logarithm is NaN, and r NaN where the spread of x or
    y is zero and x and y do not covary.
    """
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    n = x.size
    if n < 2 or np.isnan(x).any() or np.isnan(y).any():
        return dict.fromkeys(("slope", "ci95", "intercept", "r_value"), math.nan)
    if np.amax(x) == np.amin(x):
        raise ValueError(
            "Cannot calculate a linear regression if all x values are identical"
        )
    xmean, ymean = np.mean(x), np.mean(y)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    stderr = 0.0 if n == 2 else np.sqrt((1 - r**2) * ssym / ssxm / (n - 2))
    return {
        "slope": float(slope),
        "ci95": float(1.96 * stderr),
        "intercept": float(ymean - slope * xmean),
        "r_value": float(r),
    }


def angle_pair_spread(phis: np.ndarray):
    """Double angular spread sum_{k,j} sin^2(phi_k - phi_j) of the angles on
    the last axis, by the identity (N^2 - |sum_k exp(2i phi_k)|^2) / 2."""
    phis = np.asarray(phis, dtype=float)
    n = phis.shape[-1]
    z = np.exp(2j * phis).sum(axis=-1)
    return 0.5 * (n * n - np.abs(z) ** 2)


def lemma1_check(n: int, trials: int, seed: int) -> float:
    """Fraction of angle draws whose pairwise spread falls below N^2 / 32.

    Uniform bearings almost never violate the floor; the fraction decreases
    (exponentially) with N.
    """
    if n < 2 or trials < 1:
        raise ValueError("need n >= 2 and trials >= 1")
    rng = substream(seed, 0, _ROLE_DRAW)
    phis = rng.random((trials, n)) * 2.0 * math.pi
    return float(np.mean(angle_pair_spread(phis) < n * n / 32.0))


class Lemma2Result(NamedTuple):
    empirical: float
    bound: float
    eps: float


def lemma2_check(n: int, lambda0: float, trials: int, seed: int) -> Lemma2Result:
    """Empirical tail of the (N/2+1)-th intensity order statistic vs the
    closed bound (4 eps (1 - eps))^(N/2), eps = P{lambda <= lambda0}.

    The intensities are drawn uniform on [0, 1], so eps = lambda0.
    Requires eps < 1/2 and even n.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    eps = float(lambda0)
    if not 0.0 < eps < 0.5:
        raise ValueError("the bound requires 0 < eps < 1/2")
    rng = substream(seed, 0, _ROLE_DRAW)
    draws = rng.random((trials, n))
    order_stat = np.sort(draws, axis=1)[:, n // 2]  # the (N/2 + 1)-th smallest
    empirical = float(np.mean(order_stat <= lambda0))
    bound = (4.0 * eps * (1.0 - eps)) ** (n / 2.0)
    return Lemma2Result(empirical=empirical, bound=bound, eps=eps)


def _run_fig4(spec: ExperimentSpec) -> ExperimentResult:
    """Effective cooperation intensity versus raw intensity for a fixed peer;
    deterministic (no Monte Carlo), included for completeness of the kinds."""
    peer = EllipseForm(2.0, 1.0, 0.0)
    nus = [10.0 ** (k / 4.0) for k in range(-8, 25)]
    angles = {"0": 0.0, "pi/4": math.pi / 4.0, "pi/2": math.pi / 2.0}
    rows = []
    for label, phi in angles.items():
        for nu in nus:
            res = effective_rii(peer, nu, phi)
            rows.append(dict(phi=label, nu=nu, xi=res.xi, effective_rii=res.eff))
    limits = {
        label: 1.0 / (math.cos(phi) ** 2 / 2.0 + math.sin(phi) ** 2 / 1.0)
        for label, phi in angles.items()
    }
    summary = _spec_echo(spec) | {"asymptotic_limits": limits}
    return ExperimentResult(spec.kind, spec.seed, _COLUMNS["fig4"], tuple(rows), summary)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Dispatch a spec to its runner and return uniform result rows."""
    if spec.kind in _SWEEP_FIELDS:
        return _run_study(spec, spec.kind)
    if spec.kind == "fig4":
        return _run_fig4(spec)
    columns = _COLUMNS[spec.kind]
    if spec.kind == "lemma1":
        fraction = lemma1_check(spec.n_angles, spec.trials, spec.seed)
        rows = (dict(n=spec.n_angles, trials=spec.trials, violation_fraction=fraction),)
        summary = _spec_echo(spec) | {"n": spec.n_angles, "violation_fraction": fraction}
        return ExperimentResult(spec.kind, spec.seed, columns, rows, summary)
    if spec.kind == "lemma2":
        res = lemma2_check(spec.n_order, spec.lambda0, spec.trials, spec.seed)
        rows = (
            dict(
                n=spec.n_order,
                trials=spec.trials,
                lambda0=spec.lambda0,
                eps=res.eps,
                empirical=res.empirical,
                bound=res.bound,
            ),
        )
        summary = _spec_echo(spec) | dict(res._asdict())
        return ExperimentResult(spec.kind, spec.seed, columns, rows, summary)
    raise ValueError(f"unknown experiment kind {spec.kind!r}")
