"""Config link resolution: the batch pass decides, the link-by-link walk
explains. On seeded random valid documents (``rii``, LOS/NLOS waveform and
path-loss links, with and without ``distance_m`` and ``phi_rad``) the walk
returns the batch pass's arrays bit for bit, a valid document never enters
the walk, and a link the waveform batch leaves NaN is resolved by its
scalar reference."""

import numpy as np
import pytest

from locbounds import config
from locbounds.config import load_config, load_pulse_file
from locbounds.ranging import SPEED_OF_LIGHT, MultipathChannel, rii_no_prior

from test_cli import TOY_CONFIG, write_config, write_pulse


def _nodes(agents, anchors):
    return [
        {"id": f"a{k}", "kind": "agent", "position": p.tolist()} for k, p in enumerate(agents)
    ] + [{"id": f"b{i}", "kind": "anchor", "position": p.tolist()} for i, p in enumerate(anchors)]


def _random_document(rng, n_agents=6, n_anchors=4, reciprocal=False):
    """A valid document: every agent ranges against every anchor by an
    ``rii``, a waveform or a path-loss link, and against each later agent
    by a path-loss or ``rii`` link; numbers are sometimes JSON integers."""
    agents = rng.uniform(-10.0, 10.0, size=(n_agents, 2))
    anchors = rng.uniform(-10.0, 10.0, size=(n_anchors, 2))

    def pathloss():
        model = {"b": int(rng.integers(1, 3)) if rng.random() < 0.3 else rng.uniform(0.5, 2.0)}
        if rng.random() < 0.5:
            model["z"] = rng.uniform(0.0, 3.0)
        if rng.random() < 0.3:
            model["r0"] = rng.uniform(0.0, 5.0)
        if rng.random() < 0.3:
            model["rmax"] = None if rng.random() < 0.3 else rng.uniform(5.0, 30.0)
        return {"pathloss": model}

    def waveform(d):
        tau = d / SPEED_OF_LIGHT
        gaps = rng.uniform(0.3e-9, 3e-9, size=int(rng.integers(0, 3)))
        channel = {
            "delays_s": (tau + np.concatenate([[0.0], np.cumsum(gaps)])).tolist(),
            "amplitudes": rng.uniform(0.2, 1.0, size=gaps.size + 1).tolist(),
        }
        if rng.random() < 0.4:
            channel["los"] = bool(rng.random() < 0.5)
        return {"waveform": "w", "channel": channel}

    links = []
    for k, p in enumerate(agents):
        peers = [(f"b{i}", q, True) for i, q in enumerate(anchors)]
        peers += [(f"a{m}", q, False) for m, q in enumerate(agents) if m > k]
        for peer, q, to_anchor in peers:
            kind = rng.integers(3)
            if kind == 0:
                link = {"rii": int(rng.integers(0, 4)) if rng.random() < 0.3 else rng.uniform()}
            elif kind == 1 and to_anchor:
                link = waveform(float(np.hypot(*(p - q))))
            else:
                link = pathloss()
            if rng.random() < 0.1:
                link["distance_m"] = int(rng.integers(1, 20))
            elif rng.random() < 0.2:
                link["distance_m"] = rng.uniform(0.5, 20.0)
            if rng.random() < 0.3:
                link["phi_rad"] = rng.uniform(-np.pi, np.pi)
            links.append({"from": f"a{k}", "to": peer, **link})
    return {
        "version": 1,
        "network": {"reciprocal": reciprocal, "nodes": _nodes(agents, anchors), "links": links},
        "waveforms": {"w": {"pulse_file": "pulse.txt"}},
    }


def _walk_fails(*args):
    raise AssertionError("a valid document entered the walk")


@pytest.mark.parametrize("seed", range(12))
def test_walk_returns_the_batch_arrays(tmp_path, monkeypatch, seed):
    doc = _random_document(np.random.default_rng([seed, 26]))
    network = doc["network"]
    index = {node["id"]: k for k, node in enumerate(network["nodes"])}
    positions = np.array([node["position"] for node in network["nodes"]])
    waveforms = {"w": load_pulse_file(write_pulse(tmp_path))}
    args = (network["links"], index, positions, waveforms)
    walked = config._walk_links(*args)
    monkeypatch.setattr(config, "_walk_links", _walk_fails)
    batched = config._resolve_links(*args)
    assert len(walked) == len(batched) == 5
    for got, want in zip(walked, batched):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _cli_batch_document(rng, n_agents=8):
    """A small document of the benchmark's ``cli_batch`` shape: agents
    inside four corner anchors, each anchor link a 3-path waveform channel,
    each agent pair a b = 1 path-loss link, reciprocal."""
    anchors = np.array([(10.0, 10.0), (10.0, -10.0), (-10.0, 10.0), (-10.0, -10.0)])
    agents = rng.uniform(-9.0, 9.0, size=(n_agents, 2))
    links = []
    for k, p in enumerate(agents):
        for i, q in enumerate(anchors):
            tau = float(np.hypot(*(p - q))) / SPEED_OF_LIGHT
            channel = {
                "delays_s": [tau, tau + rng.uniform(0.3e-9, 0.8e-9), tau + 12e-9],
                "amplitudes": [1.0, rng.uniform(-0.7, 0.7), rng.uniform(0.1, 0.5)],
            }
            links.append({"from": f"a{k}", "to": f"b{i}", "waveform": "w", "channel": channel})
    links += [
        {"from": f"a{k}", "to": f"a{m}", "pathloss": {"b": 1.0}}
        for k in range(n_agents)
        for m in range(k + 1, n_agents)
    ]
    return {
        "version": 1,
        "network": {"reciprocal": True, "nodes": _nodes(agents, anchors), "links": links},
        "waveforms": {"w": {"pulse_file": "pulse.txt"}},
    }


@pytest.mark.parametrize("case", ["toy", "cli_batch", "random", "random_reciprocal"])
def test_valid_document_never_enters_the_walk(tmp_path, monkeypatch, case):
    rng = np.random.default_rng(7)
    doc = {
        "toy": TOY_CONFIG,
        "cli_batch": _cli_batch_document(rng),
        "random": _random_document(rng),
        "random_reciprocal": _random_document(rng, reciprocal=True),
    }[case]
    write_pulse(tmp_path)
    path = write_config(tmp_path, doc)
    monkeypatch.setattr(config, "_walk_links", _walk_fails)
    topology = load_config(path).topology
    assert len(topology.rii) == len(doc["network"]["links"])


def test_link_the_batch_leaves_nan_takes_its_scalar_value(tmp_path, monkeypatch):
    """A waveform link the batch leaves NaN is resolved by ``rii_no_prior``
    in the walk, and the document loads as it does without the NaN."""
    doc = _cli_batch_document(np.random.default_rng(3), n_agents=3)
    w = load_pulse_file(write_pulse(tmp_path))
    path = write_config(tmp_path, doc)
    want = load_config(path).topology
    batch, walk = config.rii_no_prior_flat, config._walk_links
    walked = []

    def one_nan(*args):
        values = batch(*args)
        values[1] = np.nan
        return values

    def spy(*args):
        walked.append(True)
        return walk(*args)

    monkeypatch.setattr(config, "rii_no_prior_flat", one_nan)
    monkeypatch.setattr(config, "_walk_links", spy)
    got = load_config(path).topology
    assert walked == [True]
    channel = doc["network"]["links"][1]["channel"]
    scalar = rii_no_prior(w, MultipathChannel(channel["delays_s"], channel["amplitudes"]))
    assert got.rii[1] == scalar == want.rii[1]
    assert got.rii.tobytes() == want.rii.tobytes()
