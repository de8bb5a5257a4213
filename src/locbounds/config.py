"""Configuration documents: schema validation and topology resolution.

Experiments must be archivable and diffable, so everything a run needs
lives in one JSON document with an explicit schema version (no environment
variables). Unknown keys are rejected with their JSON path; syntax errors
surface with line and column. Links may carry an explicit intensity, a
(waveform, channel) pair resolved through the ranging module, or a
path-loss model evaluated at the link distance, read by the schema branch
they match. Intensities are resolved as arrays, with no per-link object:
a waveform link's channel stays raw JSON until each pulse's channels are
flattened into arrays, checked and resolved in one batched pass, and the
path-loss links take one more; the links go to ``Topology.from_arrays``
as arrays. ``json_int`` reads an integer beyond float range as the
infinity its float twin (``1e400``) parses to: the same checks reject it.

Config documents and produced outputs are checked against the published
schemas by a checker compiled once per schema (``_compile``), which
decides acceptance; a link's ``oneOf`` is decided from which of its
branches' required keys the link has. Only a rejected document goes
through ``jsonschema``, which explains the rejection: its first error by
path for a config, its ``best_match`` for an output, exactly as a
jsonschema-only check reports.

Pulse files are two-column numeric text (time_s, amplitude), one optional
header line, uniform sample spacing.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain
from importlib import resources
from typing import Callable, Optional

import numpy as np

from .experiments import ExperimentSpec, default_spec
from .network import Topology, first_link_fault, first_node_fault
from .ranging import (
    SPEED_OF_LIGHT,
    MultipathChannel,
    WaveformModel,
    first_channel_fault,
    rii_no_prior,
    rii_no_prior_flat,
    rii_pathloss,
    rii_pathloss_batch,
)

__all__ = [
    "ConfigError",
    "ConfigDoc",
    "json_int",
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


def json_int(text: str):
    """``parse_int`` for JSON documents: an integer beyond float range reads
    as the infinity its float twin (``1e400``) parses to, others as ints."""
    # 10^309 is beyond float range, and int() refuses over 4300 digits
    if len(text.lstrip("-")) <= 309:
        value = int(text)
        try:
            float(value)
            return value
        except OverflowError:
            pass
    return -math.inf if text.startswith("-") else math.inf


def load_schema(name: str) -> dict:
    """Load one of the published JSON schemas shipped with the package."""
    text = resources.files("locbounds.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


Check = Callable[[object], bool]

_DRAFT = "https://json-schema.org/draft/2020-12/schema"
_ANNOTATIONS = frozenset({"$schema", "$id", "title", "$defs"})
_KEYWORDS = frozenset(
    {"$ref", "type", "const", "enum", "oneOf", "required", "properties", "additionalProperties",
     "items", "minItems", "maxItems", "minLength", "minimum", "exclusiveMinimum"}
)


def _is_number(x) -> bool:
    t = type(x)
    return t is float or t is int or (isinstance(x, numbers.Number) and t is not bool)


_TYPES: dict[str, Check] = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": _is_number,
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}


def _equals(value) -> Check:
    """Equality as jsonschema compares scalars: ``True`` is not ``1``, ``1.0`` is."""
    if isinstance(value, str):
        return lambda x: x == value
    if isinstance(value, bool) or value is None:
        return lambda x: x is value
    if _is_number(value):
        return lambda x: x is not True and x is not False and x == value
    raise ValueError(f"unsupported const/enum value {value!r}")


def _all(checks: list[Check]) -> Check:
    if len(checks) == 1:
        return checks[0]

    def check(x) -> bool:
        for c in checks:
            if not c(x):
                return False
        return True

    return check


def _one_of_required(required: list[frozenset]) -> Check:
    """``oneOf`` over branches that only require keys, decided from which of
    their keys an object has (one verdict per key subset, kept once seen);
    any other instance satisfies every branch."""
    names = frozenset().union(*required)
    verdicts: dict[frozenset, bool] = {}
    lone = len(required) == 1

    def check(x) -> bool:
        if not isinstance(x, dict):
            return lone
        present = names.intersection(x)
        verdict = verdicts.get(present)
        if verdict is None:
            verdict = verdicts[present] = sum(r <= present for r in required) == 1
        return verdict

    return check


def _compile(schema, root=None, defs=None) -> Check:
    """Compile a JSON Schema (2020-12) built from the keywords the published
    schemas use into one accept/reject predicate with jsonschema's semantics;
    any other keyword, or a ``oneOf`` branch that does more than require
    keys, raises ``ValueError``. As in jsonschema, each keyword
    but ``type``, ``const``, ``enum`` and ``oneOf`` ignores instances of
    other types.
    """
    if isinstance(schema, bool):
        return lambda x: schema
    if root is None:
        root, defs = schema, {}
        if schema.get("$schema", _DRAFT) != _DRAFT:
            raise ValueError(f"unsupported schema dialect {schema['$schema']!r}")
    unknown = schema.keys() - _KEYWORDS - _ANNOTATIONS
    if unknown:
        raise ValueError(f"unsupported schema keyword(s) {sorted(unknown)}")
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if not set(types) <= _TYPES.keys():
        raise ValueError(f"unsupported type {types!r}")
    sub = lambda s: _compile(s, root, defs)  # noqa: E731
    checks: list[Check] = []
    if types:
        kinds = tuple(_TYPES[t] for t in types)
        checks.append(kinds[0] if len(kinds) == 1 else lambda x: any(k(x) for k in kinds))
    if "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#/$defs/"):
            raise ValueError(f"unsupported $ref {ref!r}")
        name = ref[len("#/$defs/"):]
        if name not in defs:
            defs[name] = sub(root["$defs"][name])
        checks.append(defs[name])
    if "const" in schema:
        checks.append(_equals(schema["const"]))
    if "enum" in schema:
        options = tuple(_equals(v) for v in schema["enum"])
        checks.append(lambda x: any(eq(x) for eq in options))
    if schema.keys() & {"properties", "additionalProperties"}:
        required = frozenset(schema.get("required", ()))
        props = {k: sub(v) for k, v in schema.get("properties", {}).items()}
        extra = sub(schema["additionalProperties"]) if "additionalProperties" in schema else None

        def check_object(x) -> bool:
            if not isinstance(x, dict):
                return True
            if not required <= x.keys():
                return False
            for key, value in x.items():
                c = props.get(key, extra)
                if c is not None and not c(value):
                    return False
            return True

        checks.append(check_object)
    elif "required" in schema:
        required = frozenset(schema["required"])
        checks.append(lambda x: not isinstance(x, dict) or required <= x.keys())
    if schema.keys() & {"items", "minItems", "maxItems"}:
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", float("inf"))
        item = sub(schema["items"]) if "items" in schema else None
        checks.append(
            lambda x: not isinstance(x, list)
            or (lo <= len(x) <= hi and (item is None or all(map(item, x))))
        )
    if "minLength" in schema:
        n = schema["minLength"]
        checks.append(lambda x: not isinstance(x, str) or len(x) >= n)
    if schema.keys() & {"minimum", "exclusiveMinimum"}:
        low, xlow = schema.get("minimum"), schema.get("exclusiveMinimum")
        # jsonschema's rejection tests, negated, so NaN passes both bounds as it does there
        checks.append(
            lambda x: not _is_number(x)
            or not ((low is not None and x < low) or (xlow is not None and x <= xlow))
        )
    if "oneOf" in schema:
        options = schema["oneOf"]
        if not all(isinstance(s, dict) and s.keys() - _ANNOTATIONS == {"required"} for s in options):
            raise ValueError("unsupported oneOf: a branch does more than require keys")
        checks.append(_one_of_required([frozenset(s["required"]) for s in options]))
    return _all(checks) if checks else (lambda x: True)


@cache
def _compiled(schema_name: str) -> Check:
    return _compile(load_schema(schema_name))


@cache
def _output_validator(schema_name: str):
    """One jsonschema validator per published schema, built (and the schema
    itself checked) on the first rejection."""
    import jsonschema

    schema = load_schema(schema_name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_output(document: dict, schema_name: str) -> None:
    """Validate a produced JSON document against its published schema;
    raises the error ``jsonschema.validate`` would."""
    if _compiled(schema_name)(document):
        return
    import jsonschema

    error = jsonschema.exceptions.best_match(_output_validator(schema_name).iter_errors(document))
    if error is not None:
        raise error


@dataclass(frozen=True)
class ConfigDoc:
    """Parsed configuration: resolved topology plus optional experiment spec
    (the kind's defaults with the document's values on top)."""

    version: int
    topology: Optional[Topology]
    experiment: Optional[ExperimentSpec]
    raw: dict


def load_config(path: str) -> ConfigDoc:
    """Parse, schema-validate and resolve a configuration document."""
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_int=json_int)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(exc.msg, location=f"line {exc.lineno}, column {exc.colno}") from exc

    if not _compiled("config")(raw):
        import jsonschema

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
        try:
            experiment = default_spec(exp.pop("kind"), seed=exp.pop("seed", 0), **exp)
        except ValueError as exc:
            raise ConfigError(str(exc), location="experiment") from exc
    return ConfigDoc(version=raw["version"], topology=topology, experiment=experiment, raw=raw)


def _resolve_network(raw: dict, base_dir: str) -> Topology:
    network = raw["network"]
    entries = network["nodes"]
    ids = [entry["id"] for entry in entries]
    is_agent = np.array([entry["kind"] == "agent" for entry in entries], dtype=bool)
    positions = np.array([entry["position"] for entry in entries], dtype=float)
    priors = [entry.get("prior", {}) for entry in entries]
    none = [math.nan, math.nan]
    info = np.array([p.get("info", [none, none]) for p in priors], dtype=float)
    mean = np.array([p.get("mean", none) for p in priors], dtype=float)
    # NaN is no prior, so a given prior of NaNs keeps only its first NaN: it
    # still fails ``Node``'s checks, with their message
    for key, values in (("info", info), ("mean", mean)):
        flat = values.reshape(len(priors), -1)
        flat[[key in p for p in priors] & np.isnan(flat).all(axis=1), 1:] = 0.0
    fault = first_node_fault(is_agent, positions, info, mean)
    if fault is not None:
        raise ConfigError(fault[1], location=f"network/nodes/{fault[0]}")
    # a repeated id resolves to its last node here; Topology then rejects it
    index = {node_id: k for k, node_id in enumerate(ids)}
    # each node's evaluation position: its prior mean, if it has one
    evaluated = np.where(np.isnan(mean), positions, mean)

    waveforms: dict[str, WaveformModel] = {}
    for name, wf in raw.get("waveforms", {}).items():
        pulse_path = wf["pulse_file"]
        if not os.path.isabs(pulse_path):
            pulse_path = os.path.join(base_dir, pulse_path)
        waveforms[name] = load_pulse_file(
            pulse_path,
            n0_half=wf.get("n0_half", 1.0),
            c=wf.get("c", SPEED_OF_LIGHT),
        )

    links = _resolve_links(network.get("links", []), index, evaluated, waveforms)
    try:
        return Topology.from_arrays(
            is_agent, positions, *links, prior_info=info, prior_mean=mean, ids=ids,
            reciprocal=network.get("reciprocal", False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), location="network") from exc


def _resolve_links(
    entries: list,
    index: dict[str, int],
    positions: np.ndarray,
    waveforms: dict[str, WaveformModel],
) -> tuple[np.ndarray, ...]:
    """Link entries as the arrays ``Topology.from_arrays`` takes, with
    their intensities resolved as arrays. A waveform link's channel stays a
    raw dict until each pulse's channels are flattened into arrays
    (``_channel_arrays``), checked with ``MultipathChannel``'s messages
    (``first_channel_fault``) and resolved by one ``rii_no_prior_flat``;
    the path-loss links go through one ``rii_pathloss_batch``. A link the
    batches leave unresolved (all path-loss links when that batch raises)
    goes through its scalar reference, in link order, so a rejected document
    reports the first faulty link's ``network/links/<i>`` with its own
    message; a link's entry (node ids, waveform name, channel) is checked
    first, then its intensity, then ``RangingLink``'s checks
    (``first_link_fault``).
    """
    ends: list[tuple[int, int]] = []
    given: list[int] = []
    pulses: dict[str, tuple[list[int], list[dict]]] = {}
    pathloss: list[int] = []
    fault = None
    for i, entry in enumerate(entries):
        try:
            for node_id in (entry["from"], entry["to"]):
                if node_id not in index:
                    raise ValueError(f"unknown node id {node_id!r}")
            # the schema's branches: rii, else waveform with channel, else path loss
            if "rii" in entry:
                given.append(i)
            elif "waveform" in entry and "channel" in entry:
                name = entry["waveform"]
                if name not in waveforms:
                    raise ValueError(f"unknown waveform {name!r}")
                at, channels = pulses.setdefault(name, ([], []))
                at.append(i)
                channels.append(entry["channel"])
            else:
                pathloss.append(i)
        except ValueError as exc:
            fault = ConfigError(str(exc), location=f"network/links/{i}")
            break
        ends.append((index[entry["from"]], index[entry["to"]]))
    n = len(ends)  # the links before the first entry fault
    flat = {}
    for name, (at, channels) in pulses.items():
        flat[name] = arrays = _channel_arrays(channels)
        bad = first_channel_fault(*arrays[:4])
        if bad is not None and at[bad[0]] < n:
            n = at[bad[0]]
            fault = ConfigError(bad[1], location=f"network/links/{n}")
    src, dst = np.array(ends[:n], dtype=np.intp).reshape(-1, 2).T
    rii = np.zeros(n)
    given = given[: bisect_left(given, n)]
    rii[given] = np.array([entries[i]["rii"] for i in given], dtype=float)

    scalar: dict[int, Callable[[], float]] = {}  # links left to the scalar references
    for name, (at, _) in pulses.items():
        delays, amps, sizes, _, los = flat[name]
        m = bisect_left(at, n)
        stops = np.cumsum(sizes[:m])
        paths = int(sizes[:m].sum())
        w = waveforms[name]
        values = rii_no_prior_flat(w, delays[:paths], amps[:paths], sizes[:m], los[:m])
        rii[at[:m]] = values
        for j in np.flatnonzero(np.isnan(values)).tolist():
            own = slice(stops[j] - sizes[j], stops[j])
            scalar[at[j]] = partial(rii_no_prior, w, MultipathChannel(delays[own], amps[own]))
    pathloss = pathloss[: bisect_left(pathloss, n)]
    if pathloss:
        distance = np.full(n, np.nan)  # of the path-loss links, as given or from positions
        d = positions[src[pathloss]] - positions[dst[pathloss]]
        distance[pathloss] = np.hypot(d[:, 0], d[:, 1])
        measured = [i for i in pathloss if "distance_m" in entries[i]]
        distance[measured] = np.array([entries[i]["distance_m"] for i in measured], dtype=float)
        distance = distance[pathloss]
        models = [entries[i]["pathloss"] for i in pathloss]
        params = [
            np.array(v, dtype=float)
            for v in (
                [m["b"] for m in models],
                [m.get("z", 1.0) for m in models],
                [m.get("r0", 0.0) for m in models],
                [math.inf if m.get("rmax") is None else m["rmax"] for m in models],
            )
        ]
        try:
            rii[pathloss] = rii_pathloss_batch(distance, *params)
        except ValueError:
            args = zip(distance.tolist(), *(p.tolist() for p in params))
            scalar.update((i, partial(_pathloss_rii, *a)) for i, a in zip(pathloss, args))
    checked = n  # the links before the first intensity fault too
    for i in sorted(scalar):
        try:
            rii[i] = scalar[i]()
        except ValueError as exc:
            fault = ConfigError(str(exc), location=f"network/links/{i}")
            checked = i
            break

    # an override is NaN where none is given, so a given NaN, not finite either, is held as inf
    overrides = (
        [math.inf if v != v else v for v in (entry.get(key) for entry in entries[:n])]
        for key in ("phi_rad", "distance_m")
    )
    links = (src, dst, rii, *(np.array(v, dtype=float) for v in overrides))
    first = first_link_fault(*(a[:checked] for a in links))
    if first is not None:
        raise ConfigError(first[1], location=f"network/links/{first[0]}")
    if fault is not None:
        raise fault
    return links


def _channel_arrays(channels: list[dict]) -> tuple[np.ndarray, ...]:
    """One pulse's channel dicts as flat arrays: all delays, all amplitudes,
    each channel's count of either, and the LOS flags."""
    delays = [ch["delays_s"] for ch in channels]
    amps = [ch["amplitudes"] for ch in channels]
    return (
        np.array(list(chain.from_iterable(delays)), dtype=float),
        np.array(list(chain.from_iterable(amps)), dtype=float),
        np.fromiter(map(len, delays), dtype=np.intp, count=len(delays)),
        np.fromiter(map(len, amps), dtype=np.intp, count=len(amps)),
        np.array([ch.get("los", True) for ch in channels], dtype=bool),
    )


def _pathloss_rii(d: float, b: float, z: float, r0: float, rmax: float) -> float:
    """``rii_pathloss`` of one path-loss link; raises that link's own error."""
    if d <= 0.0:
        raise ValueError("path-loss link needs a positive distance")
    return rii_pathloss(d, b, z=z, r0=r0, rmax=rmax)


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
