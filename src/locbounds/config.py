"""Configuration documents: schema validation and topology resolution.

Experiments must be archivable and diffable, so everything a run needs
lives in one JSON document with an explicit schema version (no environment
variables). Unknown keys are rejected with their JSON path; syntax errors
surface with line and column. Links may carry an explicit intensity, a
(waveform, channel) pair resolved through the ranging module, or a
path-loss model evaluated at the link distance.

Pulse files are two-column numeric text (time_s, amplitude), one optional
header line, uniform sample spacing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Optional

import jsonschema
import numpy as np

from .experiments import ExperimentSpec
from .network import Node, Topology
from .ranging import (
    SPEED_OF_LIGHT,
    MultipathChannel,
    RangingLink,
    WaveformModel,
    rii_no_prior,
    rii_pathloss,
)

__all__ = [
    "ConfigError",
    "ConfigDoc",
    "load_config",
    "load_pulse_file",
    "load_schema",
    "validate_output",
]


class ConfigError(ValueError):
    """Configuration rejected; ``location`` carries line/column or JSON path."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


def load_schema(name: str) -> dict:
    """Load one of the published JSON schemas shipped with the package."""
    text = resources.files("locbounds.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


@cache
def _output_validator(schema_name: str):
    """One validator per published schema, built (and the schema itself
    checked) on first use."""
    schema = load_schema(schema_name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_output(document: dict, schema_name: str) -> None:
    """Validate a produced JSON document against its published schema;
    raises the error ``jsonschema.validate`` would."""
    error = jsonschema.exceptions.best_match(_output_validator(schema_name).iter_errors(document))
    if error is not None:
        raise error


@dataclass(frozen=True)
class ConfigDoc:
    """Parsed configuration: resolved topology plus optional experiment spec."""

    version: int
    topology: Optional[Topology]
    experiment: Optional[ExperimentSpec]
    raw: dict


def load_config(path: str) -> ConfigDoc:
    """Parse, schema-validate and resolve a configuration document."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(exc.msg, location=f"line {exc.lineno}, column {exc.colno}") from exc

    validator = jsonschema.Draft202012Validator(load_schema("config"))
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        pointer = "/".join(str(p) for p in err.absolute_path) or "(document root)"
        raise ConfigError(err.message, location=pointer)

    base_dir = os.path.dirname(os.path.abspath(path))
    topology = None
    if "network" in raw:
        topology = _resolve_network(raw, base_dir)
    experiment = None
    if "experiment" in raw:
        exp = dict(raw["experiment"])
        for key in ("na_sweep", "d_sweep", "n_sweep", "layouts"):
            if key in exp:
                exp[key] = tuple(exp[key])
        experiment = ExperimentSpec(**exp)
    return ConfigDoc(version=raw["version"], topology=topology, experiment=experiment, raw=raw)


def _resolve_network(raw: dict, base_dir: str) -> Topology:
    network = raw["network"]
    nodes = []
    positions: dict[str, np.ndarray] = {}
    for entry in network["nodes"]:
        prior = entry.get("prior")
        node = Node(
            node_id=entry["id"],
            kind=entry["kind"],
            position=np.array(entry["position"], dtype=float),
            prior_info=np.array(prior["info"], dtype=float) if prior else None,
            prior_mean=np.array(prior["mean"], dtype=float) if prior and "mean" in prior else None,
        )
        nodes.append(node)
        positions[node.node_id] = node.eval_position()

    waveforms: dict[str, WaveformModel] = {}
    for name, wf in raw.get("waveforms", {}).items():
        pulse_path = wf["pulse_file"]
        if not os.path.isabs(pulse_path):
            pulse_path = os.path.join(base_dir, pulse_path)
        waveforms[name] = load_pulse_file(
            pulse_path, n0_half=wf.get("n0_half", 1.0), c=wf.get("c", SPEED_OF_LIGHT)
        )

    links = []
    for i, entry in enumerate(network.get("links", [])):
        loc = f"network/links/{i}"
        src, dst = entry["from"], entry["to"]
        if src not in positions or dst not in positions:
            missing = src if src not in positions else dst
            raise ConfigError(f"unknown node id {missing!r}", location=loc)
        distance = entry.get("distance_m")
        if distance is None:
            distance = float(np.hypot(*(positions[src] - positions[dst])))
        if "rii" in entry:
            rii = float(entry["rii"])
        elif "waveform" in entry:
            name = entry["waveform"]
            if name not in waveforms:
                raise ConfigError(f"unknown waveform {name!r}", location=loc)
            channel_raw = entry["channel"]
            channel = MultipathChannel(
                delays=np.array(channel_raw["delays_s"], dtype=float),
                amplitudes=np.array(channel_raw["amplitudes"], dtype=float),
                los=channel_raw.get("los", True),
            )
            rii = rii_no_prior(waveforms[name], channel)
        else:
            pl = entry["pathloss"]
            if distance <= 0.0:
                raise ConfigError("path-loss link needs a positive distance", location=loc)
            rii = rii_pathloss(
                distance,
                pl["b"],
                z=pl.get("z", 1.0),
                r0=pl.get("r0", 0.0),
                rmax=pl.get("rmax"),
            )
        links.append(
            RangingLink(
                from_id=src,
                to_id=dst,
                rii=rii,
                phi=entry.get("phi_rad"),
                distance=entry.get("distance_m"),
            )
        )
    try:
        return Topology(
            nodes=tuple(nodes), links=tuple(links), reciprocal=network.get("reciprocal", False)
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc), location="network") from exc


def load_pulse_file(path: str, n0_half: float = 1.0, c: float = SPEED_OF_LIGHT) -> WaveformModel:
    """Read a two-column (time_s, amplitude) pulse file.

    Blank lines and '#' comments are skipped; one non-numeric header line is
    tolerated. Sample times must be uniformly spaced.
    """
    times: list[float] = []
    amps: list[float] = []
    header_seen = False
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                parts = text.replace(",", " ").split()
                try:
                    values = [float(p) for p in parts]
                except ValueError:
                    if not header_seen and not times:
                        header_seen = True
                        continue
                    raise ConfigError(
                        f"unparseable pulse sample {text!r}", location=f"{path}:{lineno}"
                    ) from None
                if len(values) != 2:
                    raise ConfigError(
                        f"expected two columns, got {len(values)}", location=f"{path}:{lineno}"
                    )
                times.append(values[0])
                amps.append(values[1])
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    if len(times) < 8:
        raise ConfigError(f"pulse file {path!r} has fewer than 8 samples")
    t = np.asarray(times)
    steps = np.diff(t)
    dt = float(np.median(steps))
    if dt <= 0.0 or np.max(np.abs(steps - dt)) > 1e-6 * dt:
        raise ConfigError(f"pulse file {path!r} is not uniformly sampled")
    try:
        return WaveformModel(samples=np.asarray(amps), dt=dt, n0_half=n0_half, c=c, t0=float(t[0]))
    except ValueError as exc:
        raise ConfigError(f"invalid pulse: {exc}") from exc
