"""Batch command-line front end.

Four subcommands for scripts and batch studies (no interactive UI):

- ``speb``: per-agent error bounds, directional bounds and ellipse
  parameters from a network config;
- ``bounds``: per-agent lower/upper closed-form approximations and their
  ratio, read as arrays from ``bounds.bound_spebs`` next to the exact
  SPEBs of ``NetworkEfim.agent_info``;
- ``experiment``: run a seeded Monte Carlo study and emit CSV + JSON files;
- ``rii``: ranging-intensity report (beta, first-path SNR, overlap
  coefficient, lambda) from a pulse file plus channel, or from a path-loss
  model.

Exit codes: 0 success, 1 input error (with line/column or JSON-path
location), 2 domain signal (unlocalizable agent under ``--strict``).
Units are spelled out in every output; all randomness is seeded through
flags or the config document, never the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from functools import cache
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bounds import bound_spebs
# unused here; perfbench/layertrace.py traces this name as the bounds layer
from .bounds import efim_bounds_all  # noqa: F401
from .config import ConfigError, json_int, load_config, load_pulse_file, validate_output
from .experiments import EXPERIMENT_KINDS, default_spec, run_experiment
from .infogeo import UNLOCALIZABLE, dpeb, speb, speb_blocks, to_ellipse
from .network import NetworkEfim, agent_efim, build_efim
from .ranging import (
    SPEED_OF_LIGHT,
    MultipathChannel,
    effective_bandwidth,
    first_contiguous_cluster,
    first_path_snr,
    path_overlap_chi,
    psi_matrix,
    rii_no_prior,
    rii_pathloss,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DOMAIN = 2


class _InputError(Exception):
    pass


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call; parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="locbounds",
        description="Localization error bounds for cooperative wideband networks.",
    )
    parser.add_argument("--version", action="version", version=f"locbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_speb = sub.add_parser("speb", help="per-agent squared position error bounds")
    p_speb.add_argument("config", help="JSON configuration document")
    group = p_speb.add_mutually_exclusive_group()
    group.add_argument("--agent", help="report a single agent id")
    group.add_argument("--all", action="store_true", help="report every agent (default)")
    p_speb.add_argument(
        "--dpeb-deg",
        type=float,
        action="append",
        default=None,
        metavar="DEG",
        help="extra directional bound angle in degrees (repeatable); x and y axes always print",
    )
    p_speb.add_argument("--format", choices=("csv", "json"), default="csv")
    p_speb.add_argument(
        "--strict", action="store_true", help="exit 2 when any reported agent is unlocalizable"
    )

    p_bounds = sub.add_parser("bounds", help="closed-form lower/upper bound approximations")
    p_bounds.add_argument("config")
    p_bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bounds.add_argument("--strict", action="store_true")

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo study, write CSV + JSON")
    p_exp.add_argument("kind", choices=EXPERIMENT_KINDS)
    p_exp.add_argument("--seed", type=int, default=None, help="default: the config's, else 0")
    p_exp.add_argument("--trials", type=int, default=None)
    p_exp.add_argument("--out", default=".", help="output directory")
    p_exp.add_argument(
        "--config", default=None, help="config document whose experiment section seeds the spec"
    )

    p_rii = sub.add_parser("rii", help="ranging-intensity report")
    p_rii.add_argument("--pulse", help="two-column pulse file (time_s amplitude)")
    p_rii.add_argument(
        "--channel",
        help="channel JSON: {\"delays_s\": [...], \"amplitudes\": [...], \"los\": true}"
        " or @file.json",
    )
    p_rii.add_argument(
        "--pathloss",
        metavar="D,B[,Z[,R0[,RMAX]]]",
        help="evaluate z/d^(2b) with optional annulus cutoffs instead of a waveform",
    )
    p_rii.add_argument("--n0-half", type=float, default=1.0, help="two-sided noise PSD level")
    p_rii.add_argument("--c", type=float, default=SPEED_OF_LIGHT, help="propagation speed (m/s)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "speb":
            return _cmd_speb(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "rii":
            return _cmd_rii(args)
        raise AssertionError(args.command)
    except (ConfigError, _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _load_network(path: str) -> NetworkEfim:
    doc = load_config(path)
    if doc.topology is None:
        raise _InputError("config has no network section")
    if not doc.topology.is_agent.any():
        raise _InputError("config network has no agents")
    return build_efim(doc.topology)


def _cmd_speb(args) -> int:
    net = _load_network(args.config)
    if args.agent is not None:
        if args.agent not in net.agent_ids:
            raise _InputError(f"unknown agent {args.agent!r}")
        agent_ids = [args.agent]
    else:
        agent_ids = list(net.agent_ids)

    angles = [0.0, math.pi / 2.0]
    for deg in args.dpeb_deg or ():
        if not math.isfinite(deg):
            raise _InputError(f"--dpeb-deg must be finite, got {deg!r}")
        angles.append(math.radians(deg))

    records = []
    for agent_id in agent_ids:
        j = agent_efim(net, agent_id)
        value = speb(j)
        localizable = value is not UNLOCALIZABLE
        ell = to_ellipse(j)
        dpebs = (dpeb(j, (math.cos(ang), math.sin(ang))) for ang in angles)
        records.append(
            {
                "id": agent_id,
                "localizable": localizable,
                "speb_m2": float(value) if localizable else None,
                "ellipse": {"mu_inv_m2": ell.mu, "eta_inv_m2": ell.eta, "theta_rad": ell.theta},
                "dpeb": [
                    {"angle_rad": ang, "value_m2": None if val is UNLOCALIZABLE else float(val)}
                    for ang, val in zip(angles, dpebs)
                ],
            }
        )
    units = {
        "speb_m2": "m^2",
        "dpeb.value_m2": "m^2",
        "ellipse.mu_inv_m2": "1/m^2",
        "ellipse.eta_inv_m2": "1/m^2",
        "ellipse.theta_rad": "rad",
    }
    columns = ["speb_m2", "mu_inv_m2", "eta_inv_m2", "theta_rad"]
    columns += [f"dpeb_m2@{ang:.6g}rad" for ang in angles]

    def cells(rec):
        ell = rec["ellipse"]
        values = [rec["speb_m2"], ell["mu_inv_m2"], ell["eta_inv_m2"], ell["theta_rad"]]
        return [_cell(v) for v in values + [d["value_m2"] for d in rec["dpeb"]]]

    return _report(args, records, units, columns, cells)


def _cmd_bounds(args) -> int:
    net = _load_network(args.config)
    # the loose information J_L bounds the error from above, J_U from below
    try:
        uppers, lowers = bound_spebs(net)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    exacts = speb_blocks(net.agent_info)
    records = []
    for agent_id, exact, lower, upper in zip(
        net.agent_ids, exacts.tolist(), lowers.tolist(), uppers.tolist()
    ):
        localizable = not math.isinf(upper)
        records.append(
            {
                "id": agent_id,
                "localizable": localizable,
                "speb_m2": None if math.isinf(exact) else exact,
                "speb_lower_m2": None if math.isinf(lower) else lower,
                "speb_upper_m2": upper if localizable else None,
                "ratio": lower / upper if localizable and not math.isinf(lower) else None,
            }
        )
    units = {
        "speb_m2": "m^2",
        "speb_lower_m2": "m^2",
        "speb_upper_m2": "m^2",
        "ratio": "dimensionless",
    }

    def cells(rec):
        ratio = rec["ratio"]
        spebs = [_cell(rec[key]) for key in ("speb_m2", "speb_lower_m2", "speb_upper_m2")]
        return spebs + [f"{ratio:.6f}" if ratio is not None else "unlocalizable"]

    columns = ["speb_m2", "speb_lower_m2", "speb_upper_m2", "ratio"]
    return _report(args, records, units, columns, cells)


def _report(args, records: list[dict], units: dict, columns: list[str], cells) -> int:
    """Print a per-agent command's records: as JSON, checked against the
    command's output schema, or as CSV, one row per agent of its id, its
    ``localizable`` flag and ``cells(record)`` under ``columns``. Exit 2
    under ``--strict`` if any agent is unlocalizable."""
    if args.format == "json":
        payload = {"version": 1, "command": args.command, "units": units, "agents": records}
        validate_output(payload, f"{args.command}_output")
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(",".join(["id", "localizable", *columns]))
        for rec in records:
            print(",".join([rec["id"], str(rec["localizable"]).lower(), *cells(rec)]))
    if args.strict and not all(rec["localizable"] for rec in records):
        return EXIT_DOMAIN
    return EXIT_OK


def _cell(value) -> str:
    if value is None:
        return "unlocalizable"
    return repr(float(value))


def _cmd_experiment(args) -> int:
    spec = None
    if args.config is not None:
        spec = load_config(args.config).experiment
        if spec is not None and spec.kind != args.kind:
            raise _InputError(
                f"config experiment kind {spec.kind!r} does not match {args.kind!r}"
            )
    # flags win over the config's values, which win over the kind's defaults
    flags = {"seed": args.seed, "trials": args.trials}
    try:
        if spec is None:
            spec = default_spec(args.kind)
        spec = replace(spec, **{k: v for k, v in flags.items() if v is not None})
        result = run_experiment(spec)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    validate_output(result.summary, "experiment_summary")
    try:
        csv_path, json_path = result.write(args.out)
    except OSError as exc:
        raise _InputError(f"cannot write outputs to {args.out!r}: {exc}") from exc
    print(f"{args.kind} seed={spec.seed} trials={spec.trials}: wrote {csv_path} {json_path}")
    print(f"summary: {_summary_line(result)}")
    return EXIT_OK


def _summary_line(result) -> str:
    summary = result.summary
    if result.kind == "lemma1":
        return f"violation fraction {summary['violation_fraction']:.6g} (n={summary['n']})"
    if result.kind == "lemma2":
        return (
            f"empirical {summary['empirical']:.6g} <= bound {summary['bound']:.6g}"
            f" (eps={summary['eps']:.4g})"
        )
    if result.kind == "dense_scaling":
        fit = summary["cooperative_fit_vs_log_n_total"]
        return f"cooperative slope {fit['slope']:.4f} +- {fit['ci95']:.4f} (95% CI)"
    if result.kind == "extended_scaling":
        return (
            f"mean_speb x log(n) spread {summary['mean_times_log_n_spread']:.4f},"
            f" terminal ratio {summary['terminal_ratio']:.4f}"
        )
    if result.kind == "fig7":
        first = result.rows[0]
        return f"mean ratio at na={first['na']}: {first['mean_ratio']:.6f}"
    return f"{len(result.rows)} rows"


def _cmd_rii(args) -> int:
    if args.pathloss is not None:
        if args.pulse or args.channel:
            raise _InputError("--pathloss excludes --pulse/--channel")
        parts = args.pathloss.split(",")
        if len(parts) < 2 or len(parts) > 5:
            raise _InputError("--pathloss expects d,b[,z[,r0[,rmax]]]")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise _InputError(f"unparseable --pathloss value {args.pathloss!r}") from None
        if not all(map(math.isfinite, values[:4])):
            raise _InputError(f"--pathloss d, b, z and r0 must be finite, got {args.pathloss!r}")
        d, b = values[0], values[1]
        z = values[2] if len(values) > 2 else 1.0
        r0 = values[3] if len(values) > 3 else 0.0
        rmax = values[4] if len(values) > 4 else None
        # the config schema's rules for a path-loss link
        if r0 < 0.0:
            raise _InputError(f"--pathloss r0 must be nonnegative, got {r0!r}")
        if rmax is not None and not rmax > 0.0:
            raise _InputError(f"--pathloss rmax must be positive, got {rmax!r}")
        try:
            lam = rii_pathloss(d, b, z=z, r0=r0, rmax=rmax)
        except ValueError as exc:
            raise _InputError(str(exc)) from exc
        if math.isinf(lam):
            quotient = f"{z!r}/{d!r}^{2.0 * b!r}"
            raise _InputError(f"path-loss intensity z/d^(2b) = {quotient} is out of float range")
        print(f"model: pathloss z/d^(2b), d = {d:g} m, b = {b:g}, z = {z:g}")
        print(f"lambda = {lam:.6e} 1/m^2")
        return EXIT_OK

    if not args.pulse or not args.channel:
        raise _InputError("waveform mode needs both --pulse and --channel (or use --pathloss)")
    waveform = load_pulse_file(args.pulse, n0_half=args.n0_half, c=args.c)
    channel_text = args.channel
    if channel_text.startswith("@"):
        try:
            with open(channel_text[1:]) as fh:
                channel_text = fh.read()
        except OSError as exc:
            raise _InputError(str(exc)) from exc
    try:
        channel_raw = json.loads(channel_text, parse_int=json_int)
        delays = np.array(channel_raw["delays_s"], dtype=float)
        amplitudes = np.array(channel_raw["amplitudes"], dtype=float)
        los = channel_raw.get("los", True)
        if not isinstance(los, bool):  # the config schema's rule
            raise ValueError(f"los must be true or false, got {json.dumps(los)}")
        channel = MultipathChannel(delays=delays, amplitudes=amplitudes, los=los)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"bad --channel specification: {exc}") from exc

    beta = effective_bandwidth(waveform)
    snr1 = first_path_snr(waveform, channel)
    print(f"beta = {beta:.6e} Hz")
    print(f"snr1 = {snr1:.6e} (dimensionless)")
    if channel.los:
        cluster = first_contiguous_cluster(waveform, channel)
        chi = path_overlap_chi(psi_matrix(waveform, cluster))
        lam = rii_no_prior(waveform, channel)
        print(f"chi = {chi:.6e} (dimensionless, first contiguous cluster of {cluster.n_paths})")
        print(f"lambda = {lam:.6e} 1/m^2")
    else:
        print("chi = n/a (NLOS)")
        print("lambda = 0.000000e+00 1/m^2 (NLOS, no channel prior)")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
