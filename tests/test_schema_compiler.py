"""The compiled schema checks against jsonschema.

``config`` compiles each published schema into a predicate that decides
acceptance; jsonschema runs only to explain a rejection. These tests hold
the two to the same answer on generated and mutated documents for all four
schemas, and check that a rejection still reports jsonschema's own error.
"""

import copy
import json
import math

import jsonschema
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from locbounds.config import (  # noqa: E402
    ConfigError,
    _compile,
    _compiled,
    load_config,
    load_schema,
    validate_output,
)

SCHEMAS = ("config", "speb_output", "bounds_output", "experiment_summary")
KINDS = ["fig4", "fig6", "fig7", "fig8", "dense_scaling", "extended_scaling", "lemma1", "lemma2"]

# Values a mutation writes: the type and number corners the schemas care about.
CORNERS = [
    True, False, None, 0, 1, 1.0, -1, 2, 0.5, -0.0, 1e-300,
    math.nan, math.inf, -math.inf, "", "u", "agent", "anchor", "speb", "bounds", "fig7", "setI",
]
# Keys a mutation adds: every property the schemas name, plus unknown ones.
KEYS = sorted(
    {
        "version", "network", "waveforms", "experiment", "reciprocal", "nodes", "links", "id",
        "kind", "position", "prior", "info", "mean", "from", "to", "rii", "waveform", "channel",
        "delays_s", "amplitudes", "los", "pathloss", "b", "z", "r0", "rmax", "phi_rad",
        "distance_m", "pulse_file", "n0_half", "c", "trials", "seed", "d_sweep", "na_sweep",
        "command", "units", "agents", "localizable", "speb_m2", "ellipse", "dpeb", "value_m2",
        "speb_lower_m2", "speb_upper_m2", "ratio", "sweep", "extra", "",
    }
)

finite = st.floats(-1e3, 1e3, allow_nan=False)
positive = st.floats(1e-3, 1e3)
any_float = st.floats(allow_nan=True, allow_infinity=True)
vec2 = st.lists(finite, min_size=2, max_size=2)
ids = st.sampled_from(["u", "v", "A", "B"])

node = st.fixed_dictionaries(
    {"id": ids, "kind": st.sampled_from(["agent", "anchor"]), "position": vec2},
    optional={
        "prior": st.fixed_dictionaries(
            {"info": st.lists(vec2, min_size=2, max_size=2)}, optional={"mean": vec2}
        )
    },
)
channel = st.fixed_dictionaries(
    {
        "delays_s": st.lists(finite, min_size=1, max_size=3),
        "amplitudes": st.lists(finite, min_size=1, max_size=3),
    },
    optional={"los": st.booleans()},
)
pathloss = st.fixed_dictionaries(
    {"b": positive},
    optional={"z": positive, "r0": positive, "rmax": st.none() | positive},
)
# (rii), (waveform, channel) and (pathloss) are the link oneOf's branches;
# the other choices match none of them or two.
BRANCHES = [
    ("rii",), ("waveform", "channel"), ("pathloss",),
    (), ("waveform",), ("rii", "pathloss"), ("rii", "waveform", "channel"),
]


@st.composite
def link(draw):
    entry = {"from": draw(ids), "to": draw(ids)}
    for key in draw(st.sampled_from(BRANCHES)):
        entry[key] = draw(
            {"rii": positive, "waveform": st.just("w"), "channel": channel, "pathloss": pathloss}[
                key
            ]
        )
    entry.update(
        draw(
            st.fixed_dictionaries(
                {},
                optional={"phi_rad": finite, "distance_m": positive, "los": st.booleans()},
            )
        )
    )
    return entry


config_doc = st.fixed_dictionaries(
    {"version": st.just(1)},
    optional={
        "network": st.fixed_dictionaries(
            {"nodes": st.lists(node, min_size=1, max_size=3)},
            optional={"reciprocal": st.booleans(), "links": st.lists(link(), max_size=3)},
        ),
        "waveforms": st.dictionaries(
            st.sampled_from(["w", "v"]),
            st.fixed_dictionaries(
                {"pulse_file": st.sampled_from(["p.txt", ""])},
                optional={"n0_half": positive, "c": positive},
            ),
            max_size=2,
        ),
        "experiment": st.fixed_dictionaries(
            {"kind": st.sampled_from(KINDS)},
            optional={
                "trials": st.integers(1, 5),
                "seed": st.integers(0, 9),
                "d_sweep": st.lists(positive, max_size=2),
                "na_sweep": st.lists(st.integers(1, 9), max_size=2),
                "layouts": st.lists(
                    st.sampled_from(["setI", "setII", "both", "random"]), max_size=2
                ),
                "rmax": st.none() | positive,
                "cooperative": st.booleans(),
                "n_angles": st.integers(2, 9),
            },
        ),
    },
)

maybe_number = any_float | st.none()
speb_doc = st.fixed_dictionaries(
    {
        "version": st.just(1),
        "command": st.just("speb"),
        "units": st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
        "agents": st.lists(
            st.fixed_dictionaries(
                {
                    "id": st.text(max_size=3),
                    "localizable": st.booleans(),
                    "speb_m2": maybe_number,
                    "ellipse": st.none()
                    | st.fixed_dictionaries(
                        {"mu_inv_m2": any_float, "eta_inv_m2": any_float, "theta_rad": any_float}
                    ),
                },
                optional={
                    "dpeb": st.lists(
                        st.fixed_dictionaries({"angle_rad": any_float, "value_m2": maybe_number}),
                        max_size=2,
                    )
                },
            ),
            max_size=3,
        ),
    }
)
bounds_doc = st.fixed_dictionaries(
    {
        "version": st.just(1),
        "command": st.just("bounds"),
        "units": st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
        "agents": st.lists(
            st.fixed_dictionaries(
                {
                    "id": st.text(max_size=3),
                    "localizable": st.booleans(),
                    "speb_m2": maybe_number,
                    "speb_lower_m2": maybe_number,
                    "speb_upper_m2": maybe_number,
                    "ratio": maybe_number,
                }
            ),
            max_size=3,
        ),
    }
)
summary_doc = st.fixed_dictionaries(
    {"kind": st.sampled_from(KINDS), "seed": st.integers(0, 9)},
    optional={
        "trials": st.integers(1, 9),
        "sweep": st.lists(any_float, max_size=3),
        "fits": st.dictionaries(st.text(max_size=3), maybe_number, max_size=2),
    },
)
DOCUMENTS = {
    "config": config_doc,
    "speb_output": speb_doc,
    "bounds_output": bounds_doc,
    "experiment_summary": summary_doc,
}


def mutate(data, doc) -> None:
    """Set, delete or add one entry somewhere in ``doc``, in place."""
    target = doc
    while True:
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        inner = [k for k in keys if isinstance(target[k], (dict, list))]
        if not inner or data.draw(st.booleans()):
            break
        target = target[data.draw(st.sampled_from(inner))]
    value = copy.deepcopy(
        data.draw(st.sampled_from(CORNERS) | st.sampled_from([[], {}, [1.0, 2.0], {"x": 1}]))
    )
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    op = data.draw(st.sampled_from(["set", "delete", "add"]))
    if keys and op == "set":
        target[data.draw(st.sampled_from(keys))] = value
    elif keys and op == "delete":
        del target[data.draw(st.sampled_from(keys))]
    elif isinstance(target, dict):
        target[data.draw(st.sampled_from(KEYS))] = value
    else:
        target.append(value)


def reference(name):
    return jsonschema.Draft202012Validator(load_schema(name))


def assert_same_rejection(name, doc, path):
    """A rejected document raises exactly what the jsonschema-only check raises."""
    validator = reference(name)
    if name == "config":
        errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
        expected = errors[0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as got:
            load_config(str(path))
        pointer = "/".join(str(p) for p in expected.absolute_path) or "(document root)"
        assert got.value.location == pointer
        assert str(got.value) == f"{pointer}: {expected.message}"
    else:
        expected = jsonschema.exceptions.best_match(validator.iter_errors(doc))
        with pytest.raises(jsonschema.ValidationError) as got:
            validate_output(doc, name)
        assert got.value.message == expected.message
        assert list(got.value.absolute_path) == list(expected.absolute_path)
        assert list(got.value.schema_path) == list(expected.schema_path)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("schema_compiler") / "config.json"


@pytest.mark.parametrize("name", SCHEMAS)
@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_compiled_check_agrees_with_jsonschema(doc_path, name, data):
    doc = copy.deepcopy(data.draw(DOCUMENTS[name]))
    for _ in range(data.draw(st.integers(0, 3))):
        mutate(data, doc)
    valid = reference(name).is_valid(doc)
    assert _compiled(name)(doc) is valid
    if not valid:
        assert_same_rejection(name, doc, doc_path)


NODES = [
    {"id": "u", "kind": "agent", "position": [0, 0]},
    {"id": "A", "kind": "anchor", "position": [1, 0]},
]


def _one_node(**fields):
    node = {"id": "u", "kind": "agent", "position": [0, 0], **fields}
    return {"version": 1, "network": {"nodes": [node]}}


def _config_with(link=None, **top):
    doc = {"version": 1, "network": {"nodes": copy.deepcopy(NODES)}}
    if link is not None:
        doc["network"]["links"] = [{"from": "u", "to": "A", **link}]
    doc.update(top)
    return doc


CORNER_DOCS = [
    # bool is not a number, 1.0 equals const 1 and is an integer
    ("config", {"version": True}),
    ("config", {"version": 1.0}),
    ("config", _config_with(experiment={"kind": "fig4", "trials": 1.0})),
    ("config", _config_with(experiment={"kind": "fig4", "trials": True})),
    ("config", _config_with(experiment={"kind": "fig4", "trials": 1.5})),
    ("config", _config_with({"rii": False})),
    # NaN passes minimum and exclusiveMinimum, as in jsonschema; inf passes too
    ("config", _config_with({"rii": math.nan})),
    ("config", _config_with({"rii": math.inf})),
    ("config", _config_with({"rii": -math.inf})),
    ("config", _config_with({"rii": 1.0, "distance_m": math.nan})),
    ("config", _config_with({"rii": 1.0, "distance_m": 0.0})),
    ("config", _config_with(experiment={"kind": "fig8", "d_sweep": [math.inf, 1.0]})),
    # empty strings and extra keys
    ("config", _one_node(id="")),
    ("config", _config_with({"rii": 1.0, "extra": 1})),
    ("config", _config_with(extra={})),
    # links matching 0, 1 or 2 oneOf branches
    ("config", _config_with({})),
    ("config", _config_with({"waveform": "w"})),
    ("config", _config_with({"pathloss": {"b": 1.0}})),
    ("config", _config_with({"rii": 1.0, "pathloss": {"b": 1.0}})),
    ("config", _config_with({"waveform": "w", "channel": {"delays_s": [0], "amplitudes": [1]}})),
    # a null rmax
    ("config", _config_with({"pathloss": {"b": 1.0, "rmax": None}})),
    ("config", _config_with({"pathloss": {"b": 1.0, "rmax": 0}})),
    ("config", _config_with(experiment={"kind": "extended_scaling", "rmax": None})),
    # minItems and maxItems, directly and through $ref
    ("config", _config_with({"rii": 1.0}, network={"nodes": []})),
    ("config", _one_node(position=[0])),
    ("config", _one_node(position=[0, 0, 0])),
    ("config", _one_node(prior={"info": [[1, 0], [0, 1], [0, 0]]})),
    ("config", _config_with({"waveform": "w", "channel": {"delays_s": [], "amplitudes": [1]}})),
    ("speb_output", {"version": 1, "command": "speb", "units": {}, "agents": [
        {"id": "", "localizable": False, "speb_m2": None, "ellipse": None}]}),
    ("speb_output", {"version": 1, "command": "speb", "units": {}, "agents": [
        {"id": "u", "localizable": 1, "speb_m2": 1.0, "ellipse": None}]}),
    ("speb_output", {"version": 1.0, "command": "speb", "units": {"x": 1}, "agents": []}),
    ("bounds_output", {"version": 1, "command": "bounds", "units": {}, "agents": [
        {"id": "u", "localizable": True, "speb_m2": True, "speb_lower_m2": 1,
         "speb_upper_m2": math.inf, "ratio": math.nan}]}),
    ("experiment_summary", {"kind": "fig7", "seed": 1.0, "sweep": (1, 2)}),
    ("experiment_summary", {"kind": "fig7", "seed": True}),
    ("experiment_summary", {"kind": "fig7", "seed": 0, "anything": [math.nan]}),
    # links matching 1, 2 or 3 oneOf branches, the second match of
    # waveform-channel with pathloss only in the last branch
    ("config", _config_with({"channel": {"delays_s": [0], "amplitudes": [1]}})),
    ("config", _config_with({"rii": 1.0, "waveform": "w",
                             "channel": {"delays_s": [0], "amplitudes": [1]}})),
    ("config", _config_with({"waveform": "w", "channel": {"delays_s": [0], "amplitudes": [1]},
                             "pathloss": {"b": 1.0}})),
    ("config", _config_with({"rii": 1.0, "waveform": "w", "pathloss": {"b": 1.0},
                             "channel": {"delays_s": [0], "amplitudes": [1]}})),
    ("config", _config_with({"rii": 1.0, "waveform": "w", "pathloss": {"b": 0.0}})),
    # a link that is no object fails on its type before its oneOf
    ("config", {"version": 1, "network": {"nodes": copy.deepcopy(NODES), "links": [1]}}),
    ("config", {"version": 1, "network": {"nodes": copy.deepcopy(NODES), "links": [["rii"]]}}),
]


@pytest.mark.parametrize("name, doc", CORNER_DOCS)
def test_corner_documents(doc_path, name, doc):
    valid = reference(name).is_valid(doc)
    assert _compiled(name)(doc) is valid
    if not valid:
        assert_same_rejection(name, doc, doc_path)


_ONE_REQUIRED = {"oneOf": [{"required": ["a"]}]}
_REQUIRED_ONLY = {
    "oneOf": [{"required": ["a"]}, {"title": "b, c", "required": ["b", "c"]}, {"required": ["d"]}]
}
_EMPTY_REQUIRED = {"oneOf": [{"required": []}, {"required": ["a"]}]}
# a oneOf beside other keywords, as a link's oneOf sits beside its type and properties
_LINK_LIKE = {
    "type": "object",
    "properties": {"a": {"type": "number"}},
    "oneOf": [{"required": ["a"]}, {"required": ["b", "c"]}],
}
_LONE_WITH_MINIMUM = {"minimum": 0, "oneOf": [{"required": ["a"]}]}
# a branch that does more than require keys: no published schema has one
_MIXED = {"oneOf": [{"required": ["a"]}, {"type": "object", "required": ["b"]}]}
_GENERAL = {"oneOf": [{"type": "number"}, {"type": "string"}, {"minimum": 0}]}
NON_OBJECTS = [None, True, 0, 1.5, "a", [], ["a"], [{"a": 1}]]
OBJECTS = [{}, {"a": 1}, {"b": 1}, {"b": 1, "c": 1}, {"a": 1, "d": 1}, {"d": None, "e": 1},
           {"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 1, "c": 1, "d": 1}, {"c": 1, "x": 1}]


@pytest.mark.parametrize(
    "schema, instance",
    [({"required": ["a"]}, x) for x in NON_OBJECTS + OBJECTS]
    + [(_ONE_REQUIRED, x) for x in NON_OBJECTS + OBJECTS]
    + [(_REQUIRED_ONLY, x) for x in NON_OBJECTS + OBJECTS]
    + [(_EMPTY_REQUIRED, x) for x in NON_OBJECTS + OBJECTS]
    + [(_LINK_LIKE, x) for x in NON_OBJECTS + OBJECTS]
    + [(_LONE_WITH_MINIMUM, x) for x in [5, -1, "a", None, {}, [], True]],
)
def test_one_of_and_required_corners(schema, instance):
    """``oneOf`` over branches that only require keys is decided from the
    instance's keys, alone or beside other keywords: jsonschema's verdict,
    on objects and on every other type."""
    check = _compile(schema)
    valid = jsonschema.Draft202012Validator(schema).is_valid(instance)
    assert check(instance) is valid
    assert check(copy.deepcopy(instance)) is valid  # a key set's verdict is kept once seen


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "pattern": "^a"},
        {"properties": {"x": {"maximum": 1}}},
        {"items": {"$ref": "https://example.com/other.json"}},
        {"type": "any"},
        {"$schema": "http://json-schema.org/draft-07/schema#", "type": "object"},
        _MIXED,
        _GENERAL,
    ],
)
def test_unsupported_schema_raises(schema):
    with pytest.raises(ValueError, match="unsupported"):
        _compile(schema)
