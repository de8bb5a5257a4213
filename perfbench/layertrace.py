"""Outside-in layer tracing for the locbounds benchmark.

The tracer wraps the public names each layer's caller looks up, in the
caller's own module namespace (``cli.build_efim``, not
``network.build_efim``), so nothing in the package is edited. While
installed, every wrapped call records a span (id, name, start, end, parent
id, op id) in memory and adds its self time -- its duration minus the time
of the spans nested in it -- to its layer. ``uninstall`` puts the original
objects back, so untraced ops run the unmodified program.

A wrapped name that no longer exists is listed in ``missing``; the metrics
that depend on it are then omitted rather than reported as zero.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (span name, module under locbounds, attribute path looked up by the caller)
SPAN_TARGETS = (
    ("cli", "cli", "main"),
    ("config.load", "cli", "load_config"),
    ("config.validate_output", "cli", "validate_output"),
    ("experiments", "cli", "run_experiment"),
    ("experiments.write", "experiments", "ExperimentResult.write"),
    ("experiments.draw", "experiments", "gen_dense"),
    ("experiments.draw", "experiments", "gen_extended"),
    ("experiments.substream", "experiments", "substream"),
    ("experiments.exact", "experiments", "cho_factor"),
    ("experiments.exact", "experiments", "cho_solve"),
    ("network.assemble", "experiments", "build_efim"),
    ("network.assemble", "cli", "build_efim"),
    ("network.agent_efim", "cli", "agent_efim"),
    ("infogeo.schur_reduce", "network", "schur_reduce"),
    ("bounds.efim_bounds", "experiments", "efim_bounds_all"),
    ("bounds.efim_bounds", "cli", "efim_bounds_all"),
    ("ranging.rii_no_prior", "config", "rii_no_prior"),
    ("ranging.rii_pathloss", "config", "rii_pathloss"),
    ("ranging.rii_pathloss", "experiments", "rii_pathloss"),
)

# Counted without a span: tens of thousands of calls per op.
COUNT_TARGETS = (("infogeo.info2", "infogeo", "InfoMatrix2.__post_init__"),)


def _observe_exact(counts, fn_name, args, kwargs, result, exc):
    if fn_name == "cho_factor" and exc is not None:
        counts["experiments.singular_totals"] += 1


def _observe_assemble(counts, fn_name, args, kwargs, result, exc):
    topo = args[0] if args else kwargs["topo"]
    counts["network.links"] += len(topo.links)


def _observe_schur(counts, fn_name, args, kwargs, result, exc):
    if kwargs.get("use_pinv", args[2] if len(args) > 2 else False):
        counts["infogeo.pinv_reductions"] += 1


def _observe_bounds(counts, fn_name, args, kwargs, result, exc):
    if result is None:
        return
    for _, _, coeffs in result.values():
        counts["bounds.peer_terms"] += len(coeffs.peer_ids)
        counts["bounds.singular_peers"] += sum(coeffs.singular_peers)


OBSERVERS = {
    "experiments.exact": _observe_exact,
    "network.assemble": _observe_assemble,
    "infogeo.schur_reduce": _observe_schur,
    "bounds.efim_bounds": _observe_bounds,
}

# Per-layer metrics, each reported per traced op:
# (metric, unit, better, kind, source); kind "self_ms" is the span's self
# time, "calls" its call count, "count" a counter, "frac" singular peers over
# peer terms. ``source`` is the span whose wrapped names the metric needs.
LAYER_METRICS = (
    ("experiments.draw_ms", "ms", "lower", "self_ms", "experiments.draw"),
    ("experiments.draw_calls", "count", "lower", "calls", "experiments.draw"),
    ("experiments.substream_ms", "ms", "lower", "self_ms", "experiments.substream"),
    ("experiments.substream_calls", "count", "lower", "calls", "experiments.substream"),
    ("experiments.exact_ms", "ms", "lower", "self_ms", "experiments.exact"),
    ("experiments.exact_calls", "count", "lower", "calls", "experiments.exact"),
    ("experiments.singular_totals", "count", "lower", "count", "experiments.exact"),
    ("experiments.self_ms", "ms", "lower", "self_ms", "experiments"),
    ("experiments.write_ms", "ms", "lower", "self_ms", "experiments.write"),
    ("network.assemble_ms", "ms", "lower", "self_ms", "network.assemble"),
    ("network.assemble_calls", "count", "lower", "calls", "network.assemble"),
    ("network.links", "count", "lower", "count", "network.assemble"),
    ("network.agent_efim_ms", "ms", "lower", "self_ms", "network.agent_efim"),
    ("network.agent_efim_calls", "count", "lower", "calls", "network.agent_efim"),
    ("infogeo.schur_reduce_ms", "ms", "lower", "self_ms", "infogeo.schur_reduce"),
    ("infogeo.pinv_reductions", "count", "lower", "count", "infogeo.schur_reduce"),
    ("infogeo.info2_objects", "count", "lower", "calls", "infogeo.info2"),
    ("bounds.efim_bounds_ms", "ms", "lower", "self_ms", "bounds.efim_bounds"),
    ("bounds.efim_bounds_calls", "count", "lower", "calls", "bounds.efim_bounds"),
    ("bounds.peer_terms", "count", "lower", "count", "bounds.efim_bounds"),
    ("bounds.singular_peers", "count", "lower", "count", "bounds.efim_bounds"),
    ("bounds.singular_peer_frac", "fraction", "lower", "frac", "bounds.efim_bounds"),
    ("ranging.rii_no_prior_ms", "ms", "lower", "self_ms", "ranging.rii_no_prior"),
    ("ranging.rii_no_prior_calls", "count", "lower", "calls", "ranging.rii_no_prior"),
    ("ranging.rii_pathloss_ms", "ms", "lower", "self_ms", "ranging.rii_pathloss"),
    ("ranging.rii_pathloss_calls", "count", "lower", "calls", "ranging.rii_pathloss"),
    ("config.load_self_ms", "ms", "lower", "self_ms", "config.load"),
    ("config.validate_output_ms", "ms", "lower", "self_ms", "config.validate_output"),
    ("config.validate_output_calls", "count", "lower", "calls", "config.validate_output"),
    ("cli.self_ms", "ms", "lower", "self_ms", "cli"),
    ("cli.output_bytes", "bytes", "lower", "count", "cli"),
)


def _resolve(module, path: str):
    """(owner, attribute, original) for a dotted attribute path, or None."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else getattr(
        owner, parts[-1], None
    )
    if original is None:
        return None
    return owner, parts[-1], original


class Tracer:
    """Installs span and counter wrappers; keeps spans and totals in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self.missing: list[str] = []
        self.missing_layers: set[str] = set()
        self._stack: list[list] = []  # [span id, child seconds]
        self._patches: list[tuple] = []
        modules = {
            mod: importlib.import_module(f"locbounds.{mod}")
            for _, mod, _ in SPAN_TARGETS + COUNT_TARGETS
        }
        for name, mod, path in SPAN_TARGETS:
            self._plan(name, modules[mod], f"{mod}.{path}", path, self._span_wrapper)
        for name, mod, path in COUNT_TARGETS:
            self._plan(name, modules[mod], f"{mod}.{path}", path, self._count_wrapper)

    def _plan(self, name, module, label, path, make):
        found = _resolve(module, path)
        if found is None:
            self.missing.append(label)
            self.missing_layers.add(name)
            return
        owner, attr, original = found
        self._patches.append((owner, attr, original, make(name, attr, original)))

    def _span_wrapper(self, name, fn_name, fn):
        tracer = self
        observe = OBSERVERS.get(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id in call order
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            result = exc = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                tracer.self_s[name] += dur - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                tracer.spans[sid] = (sid, name, start, end, parent, tracer.op_id)
                if observe is not None:
                    observe(tracer.counts, fn_name, args, kwargs, result, exc)

        return wrapper

    def _count_wrapper(self, name, fn_name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op layer metrics; layers with a missing wrapped name are left out."""
        out: dict[str, float] = {}
        for metric, _, _, kind, source in LAYER_METRICS:
            if source in self.missing_layers:
                continue
            if kind == "self_ms":
                out[metric] = 1000.0 * self.self_s[source] / n_ops
            elif kind == "calls":
                out[metric] = self.calls[source] / n_ops
            elif kind == "count":
                out[metric] = self.counts[metric] / n_ops
            else:
                peers = self.counts["bounds.peer_terms"]
                out[metric] = self.counts["bounds.singular_peers"] / peers if peers else 0.0
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines: a header with field names, then rows."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start_s", "end_s", "parent", "op"]) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
