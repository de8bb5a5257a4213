"""End-to-end tests of the command-line interface."""

import copy
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from locbounds.cli import main
from locbounds.config import (
    ConfigError,
    load_config,
    load_pulse_file,
    load_schema,
    validate_output,
)
from locbounds import ranging
from locbounds.experiments import EXPERIMENT_KINDS
from locbounds.ranging import (
    MultipathChannel,
    WaveformModel,
    _observation_grid,
    first_contiguous_cluster,
    gaussian_pulse,
    rii_no_prior,
)


TOY_CONFIG = {
    "version": 1,
    "network": {
        "nodes": [
            {"id": "u1", "kind": "agent", "position": [0.0, 0.0]},
            {"id": "A", "kind": "anchor", "position": [5.0, 0.0]},
            {"id": "B", "kind": "anchor", "position": [0.0, 5.0]},
        ],
        "links": [
            {"from": "u1", "to": "A", "rii": 1.0},
            {"from": "u1", "to": "B", "rii": 1.0},
        ],
    },
}

TWO_AGENT_CONFIG = {
    "version": 1,
    "network": {
        "nodes": [
            {"id": "u1", "kind": "agent", "position": [0.0, 0.0]},
            {"id": "u2", "kind": "agent", "position": [1.0, 0.0]},
            {"id": "A", "kind": "anchor", "position": [-3.0, 0.0]},
            {"id": "B", "kind": "anchor", "position": [0.0, -3.0]},
            {"id": "C", "kind": "anchor", "position": [4.0, 0.0]},
            {"id": "D", "kind": "anchor", "position": [1.0, 3.0]},
        ],
        "links": [
            {"from": "u1", "to": "A", "rii": 1.0},
            {"from": "u1", "to": "B", "rii": 1.0},
            {"from": "u2", "to": "C", "rii": 1.0},
            {"from": "u2", "to": "D", "rii": 1.0},
            {"from": "u1", "to": "u2", "rii": 1.0},
        ],
    },
}


# TWO_AGENT_CONFIG with the pair's two directions at different bearings:
# their cooperation block is not rank one, so the closed-form bounds do not
# apply, while the exact reduction does
TWO_BEARING_CONFIG = json.loads(json.dumps(TWO_AGENT_CONFIG))
TWO_BEARING_CONFIG["network"]["links"][4]["phi_rad"] = 0.0
TWO_BEARING_CONFIG["network"]["links"].append(
    {"from": "u2", "to": "u1", "rii": 1.0, "phi_rad": 1.0}
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


# One call of a function that imports scipy.linalg on first call, by case
# name (argv[1]), in a fresh interpreter; with argv[2] == "warm" scipy.linalg
# is imported first. Prints whether it was loaded, then the result with every
# float in hex, or the type of the exception raised.
_FIRST_CALL = """
import sys
if sys.argv[2] == "warm":
    import scipy.linalg
import numpy as np
from locbounds.infogeo import schur_reduce
from locbounds.network import Node, Topology, anchor_equivalence_check
from locbounds.ranging import (
    ChannelPriorBlocks, MultipathChannel, RangingLink, gaussian_pulse, psi_matrix,
    rii_with_channel_prior,
)

def spd(n):
    a = np.random.default_rng(7).standard_normal((n, n))
    return a @ a.T + n * np.eye(n)

def prior_call(amplitudes):
    w = gaussian_pulse(1e-9, dt=1e-9 / 32, span=8.0)
    psi = psi_matrix(w, MultipathChannel([0.0, 0.8e-9], amplitudes))
    prior = ChannelPriorBlocks(xi_dd=0.0, xi_dk=np.zeros(4), xi_kk=np.zeros((4, 4)))
    return rii_with_channel_prior(psi, prior)

def singular():
    m = np.zeros((4, 4))
    m[:2, :2] = np.eye(2)
    return schur_reduce(m, keep=[0])

def anchor_equivalence():
    nodes = [Node("u1", "agent", [0.0, 0.0]), Node("u2", "agent", [1.0, 0.0]),
             Node("A", "anchor", [-3.0, 0.0]), Node("B", "anchor", [0.0, 3.0])]
    links = [RangingLink("u1", "A", 1.0), RangingLink("u1", "B", 1.0),
             RangingLink("u1", "u2", 1.0), RangingLink("u2", "u1", 1.0)]
    topo = Topology(nodes, links)
    # t2 = 0 fails the Cholesky path and falls back to the pseudo-inverse
    return [anchor_equivalence_check(topo, "u2", t2) for t2 in (0.0, 1e6)]

CASES = {
    "schur_cholesky": lambda: schur_reduce(spd(8), keep=[0, 2]).array,
    "schur_pinv": lambda: schur_reduce(spd(8), keep=[1], use_pinv=True).array,
    "schur_singular": singular,
    "anchor_equivalence": anchor_equivalence,
    "rii_prior": lambda: prior_call([1.0, 0.6]),
    "rii_degenerate": lambda: prior_call([0.0, 0.6]),
}
print("scipy.linalg loaded:", "scipy.linalg" in sys.modules)
try:
    result = CASES[sys.argv[1]]()
except ValueError as exc:
    print(type(exc).__name__)
else:
    print([float(x).hex() for x in np.ravel(result)])
"""


def run_python(*args):
    """A fresh interpreter on the package's sources, ``python3 *args``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def write_pulse(tmp_path, header=True):
    w = gaussian_pulse(1e-9, dt=1e-9 / 32, span=8.0)
    lines = ["time_s amplitude"] if header else []
    lines += [f"{float(t)!r} {float(s)!r}" for t, s in zip(w.times, w.samples)]
    path = tmp_path / "pulse.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestSpebCommand:
    def test_orthogonal_toy_value(self, tmp_path, capsys):
        code = main(["speb", write_config(tmp_path, TOY_CONFIG)])
        out = capsys.readouterr().out
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "u1"
        assert abs(float(row[2]) - 2.0) < 1e-9

    def test_json_round_trips_schema(self, tmp_path, capsys):
        code = main(["speb", write_config(tmp_path, TOY_CONFIG), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        validate_output(payload, "speb_output")
        assert payload["agents"][0]["speb_m2"] == pytest.approx(2.0)

    def test_unknown_agent_exit_one(self, tmp_path, capsys):
        code = main(["speb", write_config(tmp_path, TOY_CONFIG), "--agent", "nope"])
        assert code == 1
        assert "unknown agent" in capsys.readouterr().err

    def test_strict_unlocalizable_exit_two(self, tmp_path, capsys):
        broken = {
            "version": 1,
            "network": {
                "nodes": [
                    {"id": "u1", "kind": "agent", "position": [0.0, 0.0]},
                    {"id": "A", "kind": "anchor", "position": [5.0, 0.0]},
                ],
                "links": [{"from": "u1", "to": "A", "rii": 1.0}],
            },
        }
        path = write_config(tmp_path, broken)
        assert main(["speb", path]) == 0  # reported, not fatal
        out = main(["speb", path, "--strict"])
        assert out == 2

    def test_extra_dpeb_angles(self, tmp_path, capsys):
        code = main(
            ["speb", write_config(tmp_path, TOY_CONFIG), "--dpeb-deg", "45"]
        )
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.count("dpeb_m2@") == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
    def test_non_finite_dpeb_angle_exit_one(self, tmp_path, capsys, fmt, angle):
        path = write_config(tmp_path, TOY_CONFIG)
        assert main(["speb", path, f"--dpeb-deg={angle}", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --dpeb-deg must be finite, got {float(angle)!r}\n"

    def test_calls_share_no_parsed_state(self, tmp_path, capsys):
        """The parser is built once per process; the ``--dpeb-deg`` list of
        one call does not reach the next."""
        path = write_config(tmp_path, TOY_CONFIG)
        for extra, columns in ((["--dpeb-deg", "45", "--dpeb-deg", "30"], 4), ([], 2), ([], 2)):
            assert main(["speb", path, *extra]) == 0
            assert capsys.readouterr().out.splitlines()[0].count("dpeb_m2@") == columns
        assert main(["bounds", path]) == 0
        assert capsys.readouterr().out.startswith("id,localizable,speb_m2,speb_lower_m2")

    @pytest.mark.parametrize("command", ["speb", "bounds"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_network_without_agents_exit_one(self, tmp_path, capsys, command, fmt):
        doc = {
            "version": 1,
            "network": {"nodes": [{"id": "A", "kind": "anchor", "position": [0, 0]}]},
        }
        assert main([command, write_config(tmp_path, doc), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config network has no agents\n"

    def test_parse_error_reports_line_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1,\n  "network": }\n')
        assert main(["speb", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_unknown_keys_rejected_with_path(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TOY_CONFIG))
        doc["network"]["nodes"][0]["colour"] = "red"
        assert main(["speb", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert "network/nodes/0" in err


# Schema-valid documents that the network constructors reject, each with the
# JSON path of the offending entry.
_NODES = (
    '[{"id": "u", "kind": "agent", "position": [0, 0]},'
    ' {"id": "A", "kind": "anchor", "position": [1, 0]}]'
)
_REJECTED_NETWORKS = {
    "self_link": (
        '{"nodes": %s, "links": [{"from": "u", "to": "u", "rii": 1.0}]}' % _NODES,
        "network/links/0: a node cannot range against itself",
    ),
    "anchor_prior": (
        '{"nodes": [{"id": "u", "kind": "agent", "position": [0, 0]}, {"id": "A",'
        ' "kind": "anchor", "position": [1, 0], "prior": {"info": [[1, 0], [0, 1]]}}]}',
        "network/nodes/1: anchors carry no position prior",
    ),
    "non_psd_prior": (
        '{"nodes": [{"id": "u", "kind": "agent", "position": [0, 0],'
        ' "prior": {"info": [[1, 0], [0, -1]]}}]}',
        "network/nodes/0: InfoMatrix2 is not PSD within tolerance",
    ),
    # a given prior of NaNs is no absent prior
    "nan_prior_info": (
        '{"nodes": [{"id": "u", "kind": "agent", "position": [0, 0],'
        ' "prior": {"info": [[NaN, NaN], [NaN, NaN]]}}]}',
        "network/nodes/0: InfoMatrix2.a11 must be finite, got nan",
    ),
    "nan_prior_mean": (
        '{"nodes": [{"id": "u", "kind": "agent", "position": [0, 0],'
        ' "prior": {"info": [[1, 0], [0, 1]], "mean": [NaN, NaN]}}]}',
        "network/nodes/0: prior mean must be a finite 2-vector",
    ),
    "nan_anchor_prior": (
        '{"nodes": [{"id": "u", "kind": "agent", "position": [0, 0]}, {"id": "A",'
        ' "kind": "anchor", "position": [1, 0], "prior": {"info": [[NaN, NaN], [NaN, NaN]]}}]}',
        "network/nodes/1: anchors carry no position prior",
    ),
    "rii_overflow": (
        '{"nodes": %s, "links": [{"from": "u", "to": "A", "rii": 1e400}]}' % _NODES,
        "network/links/0: rii must be finite and nonnegative",
    ),
    "nan_position": (
        '{"nodes": [{"id": "u", "kind": "agent", "position": [NaN, 0]}]}',
        "network/nodes/0: position must be a finite 2-vector",
    ),
    # both pass the schema's exclusiveMinimum 0, as they do in jsonschema
    "distance_overflow": (
        '{"nodes": %s, "links": [{"from": "u", "to": "A", "rii": 1.0, "distance_m": 1e400}]}'
        % _NODES,
        "network/links/0: distance override must be finite and positive",
    ),
    "nan_distance": (
        '{"nodes": %s, "links": [{"from": "u", "to": "A", "rii": 1.0, "distance_m": NaN}]}'
        % _NODES,
        "network/links/0: distance override must be finite and positive",
    ),
}


# Documents holding a number beyond float range (NUMBER), each with the error
# it gives; a 401-digit integer there reads as its float twin 1e400 does.
_PULSE_W = '"waveforms": {"w": {"pulse_file": "pulse.txt"}}'
_BAD_CONSTANTS = "dt, n0_half and c must be finite and positive"
_BEYOND_FLOAT_RANGE = {
    "rii": (
        '{"nodes": %s, "links": [{"from": "u", "to": "A", "rii": NUMBER}]}' % _NODES,
        "network/links/0: rii must be finite and nonnegative",
    ),
    "delay": (
        '{"nodes": %s, "links": [{"from": "u", "to": "A", "waveform": "w",'
        ' "channel": {"delays_s": [1e-8, NUMBER], "amplitudes": [1, 1]}}]}, %s'
        % (_NODES, _PULSE_W),
        "network/links/0: delays and amplitudes must be finite",
    ),
    "position": (
        '{"nodes": [{"id": "u", "kind": "agent", "position": [-NUMBER, 0]}]}',
        "network/nodes/0: position must be a finite 2-vector",
    ),
    "distance": (
        '{"nodes": %s, "links": [{"from": "u", "to": "A", "rii": 1.0, "distance_m": NUMBER}]}'
        % _NODES,
        "network/links/0: distance override must be finite and positive",
    ),
    "n0_half": (
        '{"nodes": %s, "links": [{"from": "u", "to": "A", "waveform": "w",'
        ' "channel": {"delays_s": [1e-8], "amplitudes": [1]}}]},'
        ' "waveforms": {"w": {"pulse_file": "pulse.txt", "n0_half": NUMBER}}' % _NODES,
        f"invalid pulse: {_BAD_CONSTANTS}",
    ),
}


# Link faults the batched resolution must report at their own link, each
# with its message: (link entry, message at the start of the error).
_LINK_FAULTS = {
    "degenerate_channel": (
        {"from": "u", "to": "A", "waveform": "w",
         "channel": {"delays_s": [1e-8, 1e-8], "amplitudes": [1.0, 0.5]}},
        "channel Fisher information is singular (coincident or indistinguishable paths)",
    ),
    "unknown_node": ({"from": "u", "to": "Z", "rii": 1.0}, "unknown node id 'Z'"),
    "unknown_waveform": (
        {"from": "u", "to": "A", "waveform": "nope",
         "channel": {"delays_s": [1e-8], "amplitudes": [1.0]}},
        "unknown waveform 'nope'",
    ),
    "nonmonotone_delays": (
        {"from": "u", "to": "A", "waveform": "w",
         "channel": {"delays_s": [2e-8, 1e-8], "amplitudes": [1.0, 0.5]}},
        "delays must be nondecreasing",
    ),
    "zero_distance": (
        {"from": "u", "to": "C", "pathloss": {"b": 1.0}},
        "path-loss link needs a positive distance",
    ),
    "long_window": (
        {"from": "u", "to": "A", "waveform": "w",
         "channel": {"delays_s": [1e-8, 1.7e-8, 2.4e-8, 3.1e-8], "amplitudes": [1, 0.5, 0.4, 0.3]}},
        "delay spread places arrivals outside a tractable observation window (",
    ),
    "self_link": ({"from": "u", "to": "u", "rii": 1.0}, "a node cannot range against itself"),
    "rii_overflow": ({"from": "u", "to": "A", "rii": 1e400}, "rii must be finite and nonnegative"),
    "nan_phi": (
        {"from": "u", "to": "A", "rii": 1.0, "phi_rad": float("nan")},
        "phi override must be finite",
    ),
    "nan_distance": (
        {"from": "u", "to": "A", "rii": 1.0, "distance_m": float("nan")},
        "distance override must be finite and positive",
    ),
    # a NaN path-loss distance gives a NaN intensity, reported as such
    "nan_pathloss_distance": (
        {"from": "u", "to": "A", "pathloss": {"b": 1.0}, "distance_m": float("nan")},
        "rii must be finite and nonnegative",
    ),
    "pathloss_overflow": (
        {"from": "u", "to": "A", "pathloss": {"b": 2.0}, "distance_m": 1e200},
        "path-loss power d^(2b) = 1e+200^4.0 is out of float range",
    ),
    "pathloss_underflow": (
        {"from": "u", "to": "A", "pathloss": {"b": 2.0}, "distance_m": 1e-200},
        "path-loss power d^(2b) = 1e-200^4.0 is out of float range",
    ),
    # MultipathChannel's checks, run on each pulse's flat channel arrays
    "mismatched_channel": (
        {"from": "u", "to": "A", "waveform": "w",
         "channel": {"delays_s": [1e-8, 1.5e-8], "amplitudes": [1.0]}},
        "need L >= 1 delays with matching amplitudes",
    ),
    "nan_amplitude": (
        {"from": "u", "to": "A", "waveform": "w",
         "channel": {"delays_s": [1e-8, 1.5e-8], "amplitudes": [1.0, float("nan")]}},
        "delays and amplitudes must be finite",
    ),
    "infinite_delay": (
        {"from": "u", "to": "A", "waveform": "w",
         "channel": {"delays_s": [1e-8, float("inf")], "amplitudes": [1.0, 0.5]}},
        "delays and amplitudes must be finite",
    ),
}
_LONG_CHANNEL = _LINK_FAULTS["long_window"][0]["channel"]


def _fault_document(faults):
    """Two agents, two anchors (C on top of agent u) and ordinary waveform
    and path-loss links, with ``faults`` at links 2, 4, ..."""
    ordinary = [
        {"from": "u", "to": "A", "waveform": "w",
         "channel": {"delays_s": [1e-8, 1.5e-8, 5e-8], "amplitudes": [1.0, 0.5, 0.3]}},
        {"from": "v", "to": "A", "pathloss": {"b": 1.0, "r0": 0.5}},
        {"from": "v", "to": "B", "waveform": "w",
         "channel": {"delays_s": [2e-8], "amplitudes": [0.7]}},
        {"from": "u", "to": "v", "pathloss": {"b": 1.5, "z": 2.0}},
    ]
    links = ordinary[:2]
    for k, fault in enumerate(faults):
        links += [fault, ordinary[2 + k % 2]]
    return {
        "version": 1,
        "network": {
            "nodes": [
                {"id": "u", "kind": "agent", "position": [0.0, 0.0]},
                {"id": "v", "kind": "agent", "position": [3.0, 1.0]},
                {"id": "A", "kind": "anchor", "position": [5.0, 0.0]},
                {"id": "B", "kind": "anchor", "position": [0.0, 5.0]},
                {"id": "C", "kind": "anchor", "position": [0.0, 0.0]},
            ],
            "links": links,
        },
        "waveforms": {"w": {"pulse_file": "pulse.txt"}},
    }


class TestBoundsCommand:
    def test_two_agent_ratio_exactly_one(self, tmp_path, capsys):
        code = main(["bounds", write_config(tmp_path, TWO_AGENT_CONFIG)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            assert line.endswith("1.000000")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pair_at_two_bearings_exit_one(self, tmp_path, capsys, fmt):
        path = write_config(tmp_path, TWO_BEARING_CONFIG)
        assert main(["bounds", path, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: cooperation block between agents 'u1' and 'u2' is not rank one"
        )
        assert captured.err.count("\n") == 1
        assert main(["speb", path, "--format", fmt]) == 0

    def test_no_cooperation_bounds_equal_exact(self, tmp_path, capsys):
        code = main(
            ["bounds", write_config(tmp_path, TOY_CONFIG), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        validate_output(payload, "bounds_output")
        agent = payload["agents"][0]
        assert agent["speb_lower_m2"] == pytest.approx(agent["speb_m2"])
        assert agent["speb_upper_m2"] == pytest.approx(agent["speb_m2"])

    def test_sandwich_on_config(self, tmp_path, capsys):
        code = main(
            ["bounds", write_config(tmp_path, TWO_AGENT_CONFIG), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for agent in payload["agents"]:
            assert agent["speb_lower_m2"] <= agent["speb_m2"] <= agent["speb_upper_m2"]

    def test_peer_anchored_on_the_bearing_keeps_the_sandwich(self, tmp_path, capsys):
        """v's one anchor A lies on its bearing to u, so v is singular across
        that bearing only up to rounding in the angles (about 1e-16 rad):
        the u-v link still counts in both bounds, and u's exact SPEB stays
        between them (it read 0.868 against lower = upper = 1.5)."""
        doc = {
            "version": 1,
            "network": {
                "nodes": [
                    {"id": "u", "kind": "agent", "position": [0.0, 0.0]},
                    {"id": "v", "kind": "agent", "position": [1.0, 0.0]},
                    {"id": "w", "kind": "agent", "position": [5.0, 5.0]},
                    {"id": "A", "kind": "anchor", "position": [2.0, 0.0]},
                    {"id": "B", "kind": "anchor", "position": [0.0, 3.0]},
                ],
                "links": [
                    {"from": "u", "to": "A", "rii": 1.0},
                    {"from": "u", "to": "B", "rii": 2.0},
                    {"from": "v", "to": "A", "rii": 3.0},
                    {"from": "u", "to": "v", "rii": 4.0},
                ],
            },
        }
        code = main(["bounds", write_config(tmp_path, doc), "--format", "json"])
        assert code == 0
        u = json.loads(capsys.readouterr().out)["agents"][0]
        # u and v form a two-agent network, where the bounds are exact
        assert u["speb_lower_m2"] == u["speb_upper_m2"]
        assert u["speb_lower_m2"] == pytest.approx(u["speb_m2"], rel=1e-12)
        assert u["speb_m2"] == pytest.approx(33.0 / 38.0, rel=1e-12)

    def test_weak_direction_beside_a_strong_link(self, tmp_path, capsys):
        """u1's y information is 1e-4 next to a 1e6 link along y to u2, whose
        only anchor is along x: both keep SPEB 10001 m^2 (not inf), inside
        the closed-form bounds."""
        doc = {
            "version": 1,
            "network": {
                "nodes": [
                    {"id": "u1", "kind": "agent", "position": [0.0, 0.0]},
                    {"id": "u2", "kind": "agent", "position": [0.0, 1.0]},
                    {"id": "X", "kind": "anchor", "position": [5.0, 0.0]},
                    {"id": "Y", "kind": "anchor", "position": [0.0, -5.0]},
                    {"id": "X2", "kind": "anchor", "position": [5.0, 1.0]},
                ],
                "links": [
                    {"from": "u1", "to": "X", "rii": 1.0},
                    {"from": "u1", "to": "Y", "rii": 1e-4},
                    {"from": "u1", "to": "u2", "rii": 1e6},
                    {"from": "u2", "to": "X2", "rii": 1.0},
                ],
            },
        }
        code = main(["bounds", write_config(tmp_path, doc), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # the reduction cancels 1e6 against 1e-4: rounding of 1e6 eps / 1e-4
        rel = 1e-5
        for agent in payload["agents"]:
            assert agent["localizable"]
            assert agent["speb_m2"] == pytest.approx(10001.0, rel=rel)
            lower, upper = agent["speb_lower_m2"], agent["speb_upper_m2"]
            assert lower * (1 - rel) <= agent["speb_m2"] <= upper * (1 + rel)


class TestExperimentCommand:
    def test_fig7_files_and_first_row(self, tmp_path, capsys):
        code = main(
            [
                "experiment",
                "fig7",
                "--trials",
                "10",
                "--seed",
                "7",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        csv_path = tmp_path / "fig7_7.csv"
        assert csv_path.exists() and (tmp_path / "fig7_7.json").exists()
        rows = csv_path.read_text().strip().splitlines()
        first = rows[1].split(",")
        assert first[1] == "2" and float(first[3]) == 1.0

    def test_dense_scaling_leaves_scipy_stats_unloaded(self, tmp_path):
        """The slope fits are closed-form: no study imports ``scipy.stats``."""
        code = (
            "import sys; from locbounds.cli import main; "
            f"code = main(['experiment', 'dense_scaling', '--trials', '1', '--out', {str(tmp_path)!r}]); "
            "print(code, 'scipy.stats' in sys.modules)"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"
        assert (tmp_path / "dense_scaling_0.json").exists()

    def test_same_seed_identical_files(self, tmp_path):
        args = ["experiment", "lemma2", "--trials", "500", "--seed", "3", "--out", str(tmp_path)]
        assert main(args) == 0
        blob = (tmp_path / "lemma2_3.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "lemma2_3.csv").read_bytes() == blob

    def test_lemma1_summary_line(self, tmp_path, capsys):
        code = main(
            ["experiment", "lemma1", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "violation fraction" in out
        fraction = float(out.split("violation fraction")[1].split()[0])
        assert fraction < 0.01

    def test_config_experiment_section(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "experiment": {
                "kind": "fig7",
                "trials": 5,
                "na_sweep": [2],
                "layouts": ["setI"],
            },
        }
        code = main(
            [
                "experiment",
                "fig7",
                "--seed",
                "2",
                "--config",
                write_config(tmp_path, doc),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = (tmp_path / "fig7_2.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header plus the single sweep point

    def test_config_seed_used_unless_flag_given(self, tmp_path, capsys):
        """Seed precedence: --seed, then the config's seed, then 0."""
        doc = {
            "version": 1,
            "experiment": {"kind": "fig7", "trials": 2, "seed": 7, "na_sweep": [2]},
        }
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["experiment", "fig7", "--config", config, "--out", str(out)]) == 0
        assert "fig7 seed=7 trials=2" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["fig7_7.csv", "fig7_7.json"]
        args = ["experiment", "fig7", "--config", config, "--seed", "2", "--trials", "3"]
        assert main(args + ["--out", str(out)]) == 0
        assert "fig7 seed=2 trials=3" in capsys.readouterr().out
        assert (out / "fig7_2.csv").exists()

    def test_non_finite_experiment_section_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"version": 1, "experiment": {"kind": "fig7", "side": Infinity}}')
        out = tmp_path / "out"
        code = main(["experiment", "fig7", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: experiment: side must be finite\n"
        assert not out.exists()

    def test_one_point_extended_sweep_exit_one(self, tmp_path, capsys):
        """The terminal ratio needs two sweep points; one is an input error."""
        doc = {
            "version": 1,
            "experiment": {"kind": "extended_scaling", "trials": 2, "n_sweep": [64]},
        }
        code = main(
            [
                "experiment",
                "extended_scaling",
                "--config",
                write_config(tmp_path, doc),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("extended_scaling_*"))

    @pytest.mark.parametrize("kind", ["fig6", "fig7", "fig8", "dense_scaling"])
    def test_empty_layouts_exit_one(self, tmp_path, kind, capsys):
        doc = {"version": 1, "experiment": {"kind": kind, "trials": 2, "layouts": []}}
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["experiment", kind, "--config", config, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_unwritable_out_dir(self, tmp_path, capsys):
        target = tmp_path / "file"
        target.write_text("x")
        code = main(
            ["experiment", "lemma1", "--trials", "10", "--out", str(target)]
        )
        assert code == 1


class TestRiiCommand:
    def test_single_path_los(self, tmp_path, capsys):
        pulse = write_pulse(tmp_path)
        code = main(
            [
                "rii",
                "--pulse",
                pulse,
                "--channel",
                '{"delays_s": [0.0], "amplitudes": [1.0], "los": true}',
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "beta" in out and "Hz" in out
        chi_line = next(l for l in out.splitlines() if l.startswith("chi"))
        assert float(chi_line.split("=")[1].split()[0]) < 1e-9

    def test_nlos_reports_zero_with_reason(self, tmp_path, capsys):
        pulse = write_pulse(tmp_path, header=False)
        code = main(
            [
                "rii",
                "--pulse",
                pulse,
                "--channel",
                '{"delays_s": [0.0], "amplitudes": [1.0], "los": false}',
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda = 0.000000e+00 1/m^2 (NLOS, no channel prior)" in out

    def test_pathloss_value(self, capsys):
        assert main(["rii", "--pathloss", "2,1"]) == 0
        assert "2.500000e-01 1/m^2" in capsys.readouterr().out

    @pytest.mark.parametrize("d", ["1e200", "1e-200"])
    def test_pathloss_power_out_of_range_exit_one(self, capsys, d):
        assert main(["rii", "--pathloss", f"{d},2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: path-loss power d^(2b) = ")

    @pytest.mark.parametrize("model", ["nan,1", "2,1,inf", "2,nan", "inf,1", "2,1,1,-inf"])
    def test_non_finite_pathloss_exit_one(self, capsys, model):
        assert main(["rii", "--pathloss", model]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --pathloss d, b, z and r0 must be finite, got {model!r}\n"

    @pytest.mark.parametrize(
        "model, error",
        [
            ("1e-155,1", "path-loss intensity z/d^(2b) = 1.0/1e-155^2.0 is out of float range"),
            ("2,1,1,0,-1", "--pathloss rmax must be positive, got -1.0"),
            ("2,1,1,0,0", "--pathloss rmax must be positive, got 0.0"),
            ("2,1,1,-1", "--pathloss r0 must be nonnegative, got -1.0"),
        ],
    )
    def test_pathloss_takes_the_config_rules(self, capsys, model, error):
        """A model the config schema rejects, or an intensity out of float
        range, is an input error, not a reported lambda."""
        assert main(["rii", "--pathloss", model]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    @pytest.mark.parametrize("los", ['"no"', "null", "0", "1"])
    def test_channel_los_must_be_a_json_boolean(self, tmp_path, capsys, los):
        pulse = write_pulse(tmp_path)
        channel = '{"delays_s": [0.0], "amplitudes": [1.0], "los": %s}' % los
        assert main(["rii", "--pulse", pulse, "--channel", channel]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: bad --channel specification: los must be true or false, got {los}\n"
        )

    @pytest.mark.parametrize(
        "channel, error",
        [
            (
                '{"delays_s": [0.0], "amplitudes": [1.0], "LOS": false}',
                'unknown key(s) "LOS"; expected delays_s, amplitudes and los',
            ),
            ('{"delays_s": 0.0, "amplitudes": [1.0]}', "delays_s must be an array of numbers, got 0.0"),
            ('{"delays_s": [0.0], "amplitudes": 1}', "amplitudes must be an array of numbers, got 1"),
            (
                '{"delays_s": [0.0, true], "amplitudes": [1.0, 1.0]}',
                "delays_s must be an array of numbers, got [0.0, true]",
            ),
            (
                '{"delays_s": ["0"], "amplitudes": [1.0]}',
                'delays_s must be an array of numbers, got ["0"]',
            ),
            ('{"delays_s": [0.0]}', "missing key amplitudes"),
            ("[1,2]", "the channel must be a JSON object, got [1, 2]"),
            ("3", "the channel must be a JSON object, got 3"),
        ],
    )
    def test_channel_takes_the_config_rules(self, tmp_path, capsys, channel, error):
        """A channel the config schema rejects is an input error: no key is
        ignored and no scalar or string stands in for an array of numbers."""
        pulse = write_pulse(tmp_path)
        assert main(["rii", "--pulse", pulse, "--channel", channel]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad --channel specification: {error}\n"

    def test_pathloss_without_outer_cutoff(self, capsys):
        assert main(["rii", "--pathloss", "2,1,1,0,inf"]) == 0
        assert "lambda = 2.500000e-01 1/m^2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value", [("--n0-half", "nan"), ("--n0-half", "inf"), ("--c", "inf")]
    )
    def test_non_finite_noise_or_speed_exit_one(self, tmp_path, capsys, flag, value):
        pulse = write_pulse(tmp_path)
        channel = '{"delays_s": [1e-8], "amplitudes": [1.0]}'
        assert main(["rii", "--pulse", pulse, "--channel", channel, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid pulse: {_BAD_CONSTANTS}\n"

    def test_malformed_pulse_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("h1 h2\n1 2\nnot numeric here\n")
        code = main(
            ["rii", "--pulse", str(bad), "--channel", '{"delays_s": [0], "amplitudes": [1]}']
        )
        assert code == 1

    def test_channel_integer_beyond_float_range_reads_as_its_float_twin(self, tmp_path, capsys):
        pulse = write_pulse(tmp_path)
        errors = []
        for number in ("1" + "0" * 400, "1e400"):
            channel = '{"delays_s": [1e-8, %s], "amplitudes": [1, 1]}' % number
            assert main(["rii", "--pulse", pulse, "--channel", channel]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0] == (
            "error: bad --channel specification: delays and amplitudes must be finite\n"
        )

    def test_channel_from_file(self, tmp_path, capsys):
        pulse = write_pulse(tmp_path)
        channel = tmp_path / "channel.json"
        channel.write_text('{"delays_s": [0.0, 5e-10], "amplitudes": [1.0, 0.5]}')
        code = main(["rii", "--pulse", pulse, "--channel", f"@{channel}"])
        assert code == 0
        out = capsys.readouterr().out
        chi = float(next(l for l in out.splitlines() if l.startswith("chi")).split("=")[1].split()[0])
        assert 0.0 < chi < 1.0


class TestConfigLoading:
    def test_waveform_link_resolution(self, tmp_path):
        pulse = write_pulse(tmp_path)
        doc = {
            "version": 1,
            "network": {
                "nodes": [
                    {"id": "u", "kind": "agent", "position": [0.0, 0.0]},
                    {"id": "A", "kind": "anchor", "position": [3.0, 0.0]},
                ],
                "links": [
                    {
                        "from": "u",
                        "to": "A",
                        "waveform": "w",
                        "channel": {"delays_s": [1e-8], "amplitudes": [1.0]},
                    }
                ],
            },
            "waveforms": {"w": {"pulse_file": os.path.basename(pulse), "n0_half": 1.0}},
        }
        cfg = load_config(write_config(tmp_path, doc))
        link = cfg.topology.links[0]
        assert link.rii > 0.0

    def test_pathloss_link_resolution(self, tmp_path):
        doc = {
            "version": 1,
            "network": {
                "nodes": [
                    {"id": "u", "kind": "agent", "position": [0.0, 0.0]},
                    {"id": "A", "kind": "anchor", "position": [2.0, 0.0]},
                ],
                "links": [{"from": "u", "to": "A", "pathloss": {"b": 1.0}}],
            },
        }
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.topology.links[0].rii == pytest.approx(0.25)

    def test_waveform_without_channel_is_pathloss_link(self, tmp_path):
        """The schema reads a link with ``waveform`` and ``pathloss`` but no
        ``channel`` as a path-loss link, and so does the resolution."""
        doc = {
            "version": 1,
            "network": {
                "nodes": [
                    {"id": "u", "kind": "agent", "position": [0.0, 0.0]},
                    {"id": "A", "kind": "anchor", "position": [2.0, 0.0]},
                ],
                "links": [{"from": "u", "to": "A", "waveform": "w", "pathloss": {"b": 1.0}}],
            },
        }
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.topology.links[0].rii == 0.25

    def test_version_required(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, {"network": {"nodes": []}}))

    def test_prior_round_trip(self, tmp_path):
        doc = {
            "version": 1,
            "network": {
                "nodes": [
                    {
                        "id": "u",
                        "kind": "agent",
                        "position": [0.0, 0.0],
                        "prior": {"info": [[2.0, 0.0], [0.0, 1.0]], "mean": [0.5, 0.0]},
                    },
                    {"id": "A", "kind": "anchor", "position": [3.0, 0.0]},
                ],
                "links": [{"from": "u", "to": "A", "rii": 1.0}],
            },
        }
        cfg = load_config(write_config(tmp_path, doc))
        node = cfg.topology.node("u")
        np.testing.assert_array_equal(node.prior_info, [[2.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(node.eval_position(), [0.5, 0.0])

    @pytest.mark.parametrize("field", ["n0_half", "c"])
    def test_nan_waveform_constant_is_invalid_pulse(self, tmp_path, capsys, field):
        """The JSON reader takes ``NaN`` and the schema's exclusiveMinimum
        passes it; the pulse rejects it before any link reads it."""
        write_pulse(tmp_path)
        doc = _fault_document([])
        doc["waveforms"]["w"][field] = float("nan")
        assert main(["speb", write_config(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid pulse: {_BAD_CONSTANTS}\n"

    def test_pulse_file_nonuniform_rejected(self, tmp_path):
        bad = tmp_path / "bad_pulse.txt"
        rows = [f"{t} 1.0" for t in (0.0, 1.0, 2.0, 3.5, 4.0, 5.0, 6.0, 7.0)]
        bad.write_text("\n".join(rows))
        with pytest.raises(ConfigError):
            load_pulse_file(str(bad))

    @pytest.mark.parametrize("command", ["speb", "bounds"])
    @pytest.mark.parametrize("case", sorted(_REJECTED_NETWORKS))
    def test_constructor_rejection_is_config_error(self, tmp_path, capsys, command, case):
        network, message = _REJECTED_NETWORKS[case]
        path = tmp_path / "config.json"
        path.write_text('{"version": 1, "network": %s}' % network)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize("command", ["speb", "bounds"])
    @pytest.mark.parametrize("case", sorted(_BEYOND_FLOAT_RANGE))
    def test_integer_beyond_float_range_reads_as_its_float_twin(
        self, tmp_path, capsys, command, case
    ):
        write_pulse(tmp_path)
        network, message = _BEYOND_FLOAT_RANGE[case]
        errors = []
        # past 4300 digits Python's int() refuses the literal
        for number in ("1" + "0" * 400, "1" + "0" * 5000, "1e400"):
            path = tmp_path / "config.json"
            path.write_text('{"version": 1, "network": %s}' % network.replace("NUMBER", number))
            assert main([command, str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == errors[2]
        assert errors[0].startswith(f"error: {message}")

    def test_experiment_field_beyond_float_range_reads_as_its_float_twin(self, tmp_path, capsys):
        errors = []
        out = tmp_path / "out"
        for number in ("1" + "0" * 400, "1e400"):
            path = tmp_path / "config.json"
            path.write_text(
                '{"version": 1, "experiment": {"kind": "fig7", "trials": 2, "side": %s}}' % number
            )
            assert main(["experiment", "fig7", "--config", str(path), "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == "error: experiment: side must be finite\n"
        assert not out.exists()

    def test_integer_field_beyond_float_range_fails_the_schema(self, tmp_path, capsys):
        """A 401-digit seed reads as inf, which is no integer: the document
        is rejected before any study runs."""
        path = tmp_path / "config.json"
        path.write_text(
            '{"version": 1, "experiment": {"kind": "fig7", "trials": 2, "seed": 1%s}}' % ("0" * 400)
        )
        out = tmp_path / "out"
        assert main(["experiment", "fig7", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: experiment/seed: inf is not of type 'integer'\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e400", "NaN"])
    def test_non_finite_sweep_entry_is_config_error(self, tmp_path, capsys, value):
        path = tmp_path / "config.json"
        path.write_text(
            '{"version": 1, "experiment": {"kind": "fig8", "trials": 2, "d_sweep": [%s]}}' % value
        )
        with pytest.raises(ConfigError) as excinfo:
            load_config(str(path))
        assert excinfo.value.location == "experiment"
        out = tmp_path / "out"
        assert main(["experiment", "fig8", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiment: d_sweep entries must be finite and positive")
        assert not out.exists()

    @pytest.mark.parametrize(
        "first, second",
        [(a, b) for a in sorted(_LINK_FAULTS) for b in sorted(_LINK_FAULTS) if a != b],
    )
    def test_first_faulty_link_is_reported(self, tmp_path, capsys, monkeypatch, first, second):
        """Links resolve in batches, but a document with two faulty links
        reports the first one's path and message, whichever the faults."""
        monkeypatch.setattr(ranging, "_MAX_WINDOW_SAMPLES", 1000)  # below the long channel's
        write_pulse(tmp_path)
        doc = _fault_document([_LINK_FAULTS[first][0], _LINK_FAULTS[second][0]])
        assert main(["speb", write_config(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: network/links/2: {_LINK_FAULTS[first][1]}")

    def test_long_window_pads_no_link_beyond_twice_its_grid(self, tmp_path, monkeypatch):
        """A long observation window does not widen its neighbours' grids:
        each link is padded at most to twice its own grid length, and every
        intensity is the scalar reference's."""
        shapes = []
        derivative_at = WaveformModel.derivative_at

        def recording(self, t):
            shapes.append(t.shape)
            return derivative_at(self, t)

        write_pulse(tmp_path)
        w = load_pulse_file(str(tmp_path / "pulse.txt"))
        doc = _fault_document([])
        links = doc["network"]["links"]
        links[:] = [link for link in links if "waveform" in link]
        for gap_s in (0.3e-9, 0.4e-9):
            channel = {"delays_s": [1e-8 + k * gap_s for k in range(4)],
                       "amplitudes": [1, 0.5, 0.3, 0.2]}
            links.append(dict(links[0], channel=channel))
        links.append(dict(links[0], channel=_LONG_CHANNEL))
        channels = [
            MultipathChannel(link["channel"]["delays_s"], link["channel"]["amplitudes"])
            for link in links
        ]
        monkeypatch.setattr(WaveformModel, "derivative_at", recording)
        topology = load_config(write_config(tmp_path, doc)).topology
        monkeypatch.undo()

        want = [rii_no_prior(w, ch) for ch in channels]
        assert [link.rii for link in topology.links] == want
        # the batch visits each cluster size's grids in increasing length,
        # one chunk at a time, calling derivative_at once per path
        clusters = [first_contiguous_cluster(w, ch) for ch in channels]
        own = sorted((c.n_paths, _observation_grid(w, c, 4.0 * w.dt).size) for c in clusters)
        assert own[-1] == (4, max(n for _, n in own))
        assert (1, own[-1][1]) in shapes  # the long window is a chunk of its own
        at = 0
        while shapes:
            size, chunk = own[at][0], own[at : at + shapes[0][0]]
            assert shapes[:size] == [shapes[0]] * size
            assert {s for s, _ in chunk} == {size}
            assert shapes[0][1] == chunk[-1][1] <= 2 * chunk[0][1]
            at += len(chunk)
            del shapes[:size]
        assert at == len(own)

    def test_nlos_and_los_channels_on_one_pulse(self, tmp_path):
        """NLOS channels (no channel prior, intensity 0) between LOS ones on
        one pulse: every link's intensity is its scalar reference's."""
        write_pulse(tmp_path)
        w = load_pulse_file(str(tmp_path / "pulse.txt"))
        doc = _fault_document([])
        links = doc["network"]["links"]
        channels = [
            {"delays_s": [1e-8], "amplitudes": [0.8], "los": False},
            {"delays_s": [1e-8, 1.4e-8], "amplitudes": [1.0, -0.6], "los": True},
            {"delays_s": [2e-8, 2.2e-8, 9e-8], "amplitudes": [0.5, 0.4, 0.9], "los": False},
            {"delays_s": [3e-8, 3.5e-8], "amplitudes": [0.9, 0.3]},
        ]
        links += [dict(links[0], channel=ch) for ch in channels]
        topology = load_config(write_config(tmp_path, doc)).topology
        want = [
            rii_no_prior(
                w,
                MultipathChannel(
                    link["channel"]["delays_s"],
                    link["channel"]["amplitudes"],
                    los=link["channel"].get("los", True),
                ),
            )
            for link in links
            if "channel" in link
        ]
        got = [rii for rii, link in zip(topology.rii.tolist(), links) if "channel" in link]
        assert got == want
        assert [v == 0.0 for v in got] == [False, True, False, True, False]

    def test_valid_waveform_config_builds_no_channel_objects(self, tmp_path, monkeypatch):
        """Waveform links resolve from flat arrays: a valid config builds no
        ``MultipathChannel``, not even to explain a link."""
        built = []
        post_init = MultipathChannel.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(MultipathChannel, "__post_init__", counting)
        write_pulse(tmp_path)
        doc = _fault_document([])
        doc["network"]["links"].append(dict(doc["network"]["links"][0], channel=_LONG_CHANNEL))
        topology = load_config(write_config(tmp_path, doc)).topology
        assert built == []
        assert np.all(topology.rii > 0.0)
        MultipathChannel([0.0], [1.0])  # the spy counts what it should
        assert len(built) == 1

    def test_import_leaves_jsonschema_and_scipy_stats_unloaded(self):
        """Both cost start-up time and are needed only to explain a rejected
        document or to fit a slope."""
        code = (
            "import sys, locbounds.cli; "
            "print(sorted({'jsonschema', 'scipy.stats'} & set(sys.modules)))"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_startup_leaves_scipy_unloaded(self):
        """Start-up -- the CLI import and the four published schemas -- loads
        no scipy module: only library functions no command calls need
        ``scipy.linalg``, and they import it on first call."""
        code = (
            "import sys, locbounds.cli; from locbounds.config import load_schema; "
            "[load_schema(n) for n in ('config', 'speb_output', 'bounds_output', 'experiment_summary')]; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_leave_scipy_unloaded(self, tmp_path):
        """Every command path, each experiment kind included, runs without
        importing scipy."""
        config = write_config(tmp_path, TOY_CONFIG)
        pulse = write_pulse(tmp_path)
        channel = '{"delays_s": [0.0, 5e-10], "amplitudes": [1.0, 0.5]}'
        runs = [["speb", config], ["bounds", config], ["rii", "--pathloss", "2,1"],
                ["rii", "--pulse", pulse, "--channel", channel]]
        runs += [["experiment", kind, "--trials", "1", "--out", str(tmp_path)]
                 for kind in EXPERIMENT_KINDS]
        code = (
            "import sys; from locbounds.cli import main; "
            f"codes = [main(argv) for argv in {runs!r}]; "
            "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{[0] * len(runs)} []"

    @pytest.mark.parametrize(
        "case, raised",
        [
            ("schur_cholesky", None),
            ("schur_pinv", None),
            ("schur_singular", "SingularComplementError"),
            ("anchor_equivalence", None),
            ("rii_prior", None),
            ("rii_degenerate", "DegenerateChannelError"),
        ],
    )
    def test_scipy_linalg_users_work_on_first_call(self, case, raised):
        """The functions that import ``scipy.linalg`` on first call give, in a
        fresh interpreter, what they give once it is loaded, errors
        included."""
        cold, warm = (run_python("-c", _FIRST_CALL, case, state) for state in ("cold", "warm"))
        assert cold.returncode == 0, cold.stderr
        assert warm.returncode == 0, warm.stderr
        first, result = warm.stdout.splitlines()
        assert first == "scipy.linalg loaded: True"
        assert cold.stdout.splitlines() == ["scipy.linalg loaded: False", result]
        assert result == raised if raised else result.startswith("['0x")

    @pytest.mark.parametrize("command", ["speb", "bounds"])
    def test_subnormal_pathloss_power_reports_only_the_error(self, tmp_path, command):
        """d^(2b) = 1e-320 is subnormal, so z / d^(2b) overflows to inf: the
        link is rejected with its path and nothing else is printed."""
        doc = json.loads(
            '{"version": 1, "network": {"nodes": %s, "links": [{"from": "u", "to": "A",'
            ' "pathloss": {"b": 1}, "distance_m": 1e-160}]}}' % _NODES
        )
        proc = run_python("-m", "locbounds.cli", command, write_config(tmp_path, doc))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: network/links/0: rii must be finite and nonnegative\n"

    def test_output_validator_raises_what_jsonschema_does(self, tmp_path, capsys):
        """The cached validator rejects a document with the same error as
        ``jsonschema.validate``, on every call."""
        assert main(["speb", write_config(tmp_path, TWO_AGENT_CONFIG), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_output(payload, "speb_output")
        broken = []
        for edit in (
            lambda d: d.pop("agents"),
            lambda d: d["agents"][1].update(speb_m2="big"),
            lambda d: d["agents"][0]["dpeb"][0].pop("value_m2"),
            lambda d: d.update(extra=1),
            # two errors; best_match picks the shallower, not the first found
            lambda d: (d["agents"][0]["dpeb"][0].pop("value_m2"), d["agents"][1].pop("id")),
        ):
            doc = copy.deepcopy(payload)
            edit(doc)
            broken.append(doc)
        for doc in broken:
            with pytest.raises(jsonschema.ValidationError) as expected:
                jsonschema.validate(doc, load_schema("speb_output"))
            for _ in range(2):
                with pytest.raises(jsonschema.ValidationError) as got:
                    validate_output(doc, "speb_output")
                assert got.value.message == expected.value.message
                assert list(got.value.absolute_path) == list(expected.value.absolute_path)
                assert list(got.value.schema_path) == list(expected.value.schema_path)


def _with_rii(doc, rii_of):
    """``doc`` with every link intensity r replaced by ``rii_of(r)``."""
    doc = copy.deepcopy(doc)
    for link in doc["network"]["links"]:
        link["rii"] = rii_of(link["rii"])
    return doc


def _agents(tmp_path, capsys, command, doc):
    """The ``agents`` records of ``command``'s JSON output on ``doc``."""
    extra = ["--dpeb-deg", "30"] if command == "speb" else []
    assert main([command, write_config(tmp_path, doc), "--format", "json", *extra]) == 0
    return json.loads(capsys.readouterr().out)["agents"]


class TestIntensityScale:
    """Bounds are inverse information: intensities times 2^k give every
    SPEB, DPEB and bound times 2^-k, exactly, also where the determinant of
    the information (intensity squared) leaves float range."""

    @pytest.mark.parametrize("k", [-560, 520])
    @pytest.mark.parametrize("config", ["one_agent", "two_agent"])
    def test_bounds_scale_exactly(self, tmp_path, capsys, config, k):
        doc = {"one_agent": TOY_CONFIG, "two_agent": TWO_AGENT_CONFIG}[config]
        scaled = _with_rii(doc, lambda r: math.ldexp(r, k))
        inverse = lambda v: math.ldexp(v, -k)  # noqa: E731
        for want, got in zip(*(_agents(tmp_path, capsys, "speb", d) for d in (doc, scaled))):
            assert got["localizable"] and want["localizable"]
            assert got["speb_m2"] == inverse(want["speb_m2"])
            assert [d["value_m2"] for d in got["dpeb"]] == [
                inverse(d["value_m2"]) for d in want["dpeb"]
            ]
            ellipse, base = got["ellipse"], want["ellipse"]
            assert ellipse["mu_inv_m2"] == math.ldexp(base["mu_inv_m2"], k)
            assert ellipse["eta_inv_m2"] == math.ldexp(base["eta_inv_m2"], k)
            assert ellipse["theta_rad"] == base["theta_rad"]
        for want, got in zip(*(_agents(tmp_path, capsys, "bounds", d) for d in (doc, scaled))):
            assert got["localizable"] and want["localizable"]
            for key in ("speb_m2", "speb_lower_m2", "speb_upper_m2"):
                assert got[key] == inverse(want[key])
            assert got["ratio"] == want["ratio"]

    @pytest.mark.parametrize("rii", [1e-170, 1e160])
    def test_one_agent_at_an_extreme_intensity(self, tmp_path, capsys, rii):
        """Two orthogonal anchor links of intensity rii give SPEB 2/rii. At
        1e-170, ``speb`` raised ZeroDivisionError and ``bounds`` called the
        agent unlocalizable; at 1e160 ``speb`` printed 0.0 and ``bounds``
        raised."""
        doc = _with_rii(TOY_CONFIG, lambda r: rii)
        (speb_record,) = _agents(tmp_path, capsys, "speb", doc)
        assert speb_record["speb_m2"] == pytest.approx(2.0 / rii, rel=1e-12)
        (bounds_record,) = _agents(tmp_path, capsys, "bounds", doc)
        assert bounds_record["localizable"]
        assert bounds_record["speb_m2"] == speb_record["speb_m2"]
        assert bounds_record["speb_lower_m2"] == bounds_record["speb_upper_m2"]
        assert bounds_record["ratio"] == 1.0


def test_prior_at_the_singularity_threshold_gets_one_verdict(tmp_path, capsys):
    """An agent whose only information is a prior with its smallest
    eigenvalue at the threshold: ``speb`` called it unlocalizable while
    ``bounds`` gave 6.39e8 m^2, from two hypots that differ in the last bit.
    Both commands now give one verdict and one value."""
    info = [[0.5664106314200583, 0.7520865299290137], [0.7520865299290137, 0.9986291209469409]]
    doc = {
        "version": 1,
        "network": {
            "nodes": [{"id": "a0", "kind": "agent", "position": [0, 0], "prior": {"info": info}}]
        },
    }
    (speb_record,) = _agents(tmp_path, capsys, "speb", doc)
    (bounds_record,) = _agents(tmp_path, capsys, "bounds", doc)
    assert speb_record["localizable"] is bounds_record["localizable"]
    assert speb_record["speb_m2"] == bounds_record["speb_m2"]
    assert bounds_record["speb_lower_m2"] == bounds_record["speb_upper_m2"] == speb_record["speb_m2"]
