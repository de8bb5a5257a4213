"""Network-level equivalent information: assembly, reduction, updates.

The position information of all agents in a cooperative network is a block
matrix over 2x2 blocks with three separable contributions:

- ``j_a``: block-diagonal anchor information, each agent's block a weighted
  sum of ranging direction matrices over its anchor links;
- ``j_c``: cooperation information with pair blocks C_km on the diagonal and
  -C_km off the diagonal, so each block row sums to zero;
- ``xi_p``: prior position information (block diagonal for independent
  priors; arbitrary PSD matrices are accepted as raw overrides).

When agents carry position priors, the ranging geometry is evaluated at the
prior means (the concentrated-prior regime); the fully general expectation
over random positions is out of scope.

``NetworkEfim.agent_info`` holds every agent's equivalent information, the
Schur complement of the total onto that agent, from one recursive-halving
pass (see ``_halving_reduce``); ``agent_efim`` and the Monte Carlo studies
read it, so the reduction and its singularity verdict are decided here
alone, per agent.

``join``/``leave`` update an assembled network incrementally and agree with
batch re-assembly; ``temporal_efim`` reuses the same machinery for a single
agent ranging against itself over time; ``anchor_equivalence_check``
verifies numerically that an agent with a huge position prior behaves like
an anchor once reduced out.

``build_efim`` turns a topology's links into index, intensity and bearing
arrays once (bearings from the evaluation positions unless a link
overrides them); ``assemble_links`` scatters the rank-one contributions of
such arrays into the blocks with ``np.add.at``, and no per-link 2x2
objects are built. The Monte Carlo studies draw their networks as arrays
and call ``assemble_links`` directly; ``join`` calls it on the newcomer's
links alone.

``Topology`` and ``NetworkEfim`` are immutable snapshots; updates return new
values, so concurrent readers are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from .infogeo import (
    PSD_TOL,
    BlockMatrix,
    InfoMatrix2,
    SingularComplementError,
    is_singular,
    min_eig_blocks,
    schur_reduce,
    speb_blocks,
)
from .ranging import RangingLink

__all__ = [
    "Node",
    "Topology",
    "NetworkEfim",
    "build_efim",
    "agent_efim",
    "join",
    "leave",
    "temporal_efim",
    "relabel_as_anchor",
    "anchor_equivalence_check",
]


@dataclass(frozen=True)
class Node:
    """Network node: an anchor (known position) or an agent (unknown).

    Agents may carry a prior: 2x2 PSD information ``prior_info`` about their
    position, evaluated at ``prior_mean`` (defaults to ``position``).
    Anchors never carry a prior; they are the infinite-prior limit already.
    """

    node_id: str
    kind: str
    position: np.ndarray
    prior_info: Optional[np.ndarray] = None
    prior_mean: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in ("anchor", "agent"):
            raise ValueError(f"node kind must be 'anchor' or 'agent', got {self.kind!r}")
        pos = np.array(self.position, dtype=float).reshape(-1)
        if pos.shape != (2,) or not np.all(np.isfinite(pos)):
            raise ValueError("position must be a finite 2-vector")
        pos.flags.writeable = False
        object.__setattr__(self, "position", pos)
        if self.kind == "anchor":
            if self.prior_info is not None or self.prior_mean is not None:
                raise ValueError("anchors carry no position prior")
            return
        if self.prior_info is not None:
            info = np.array(self.prior_info, dtype=float)
            if info.shape != (2, 2):
                raise ValueError("prior information must be 2x2")
            info = 0.5 * (info + info.T)
            InfoMatrix2.from_array(info)  # PSD validation
            info.flags.writeable = False
            object.__setattr__(self, "prior_info", info)
        if self.prior_mean is not None:
            if self.prior_info is None:
                raise ValueError("prior_mean requires prior_info")
            mean = np.array(self.prior_mean, dtype=float).reshape(-1)
            if mean.shape != (2,) or not np.all(np.isfinite(mean)):
                raise ValueError("prior mean must be a finite 2-vector")
            mean.flags.writeable = False
            object.__setattr__(self, "prior_mean", mean)

    @property
    def is_agent(self) -> bool:
        return self.kind == "agent"

    def eval_position(self) -> np.ndarray:
        """Position at which ranging geometry is evaluated (prior mean if set)."""
        if self.prior_info is not None and self.prior_mean is not None:
            return self.prior_mean
        return self.position


@dataclass(frozen=True)
class Topology:
    """Immutable network snapshot: nodes plus directed ranging links.

    A link (k <- j) means node k received a ranging waveform from node j;
    absent links mean no communication. Receivers must be agents. With
    ``reciprocal=True`` a single direction per agent pair implies the
    reverse at equal intensity (and both directions, if given, must agree).
    """

    nodes: tuple[Node, ...]
    links: tuple[RangingLink, ...]
    reciprocal: bool = False

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        links = tuple(self.links)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "links", links)
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        by_id = {n.node_id: n for n in nodes}
        for link in links:
            if link.from_id not in by_id:
                raise ValueError(f"unknown node id {link.from_id!r} in link")
            if link.to_id not in by_id:
                raise ValueError(f"unknown node id {link.to_id!r} in link")
            if not by_id[link.from_id].is_agent:
                raise ValueError(
                    f"link receiver {link.from_id!r} is an anchor; only agents receive"
                )
        if self.reciprocal:
            seen: dict[tuple[str, str], float] = {}
            for link in links:
                a, b = by_id[link.from_id], by_id[link.to_id]
                if a.is_agent and b.is_agent:
                    seen[(link.from_id, link.to_id)] = link.rii
            for (k, m), lam in seen.items():
                rev = seen.get((m, k))
                if rev is not None and not math.isclose(rev, lam, rel_tol=1e-9, abs_tol=0.0):
                    raise ValueError(
                        f"reciprocal topology but links {k}<->{m} carry different intensities"
                    )

    @cached_property
    def _by_id(self) -> Mapping[str, Node]:
        return {n.node_id: n for n in self.nodes}

    def node(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    @cached_property
    def agents(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.is_agent)

    @cached_property
    def anchors(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if not n.is_agent)

    def link_geometry(self, link: RangingLink) -> tuple[float, float]:
        """Resolved (phi, distance) of a link, honoring explicit overrides."""
        src = self.node(link.from_id)
        dst = self.node(link.to_id)
        dx = src.eval_position() - dst.eval_position()
        phi = link.phi if link.phi is not None else math.atan2(dx[1], dx[0])
        distance = link.distance if link.distance is not None else float(np.hypot(dx[0], dx[1]))
        return phi, distance


@dataclass(frozen=True)
class NetworkEfim:
    """Assembled network information with its three parts kept separable.

    ``agent_ids`` orders the 2x2 blocks; ``total`` = j_a + j_c + xi_p.
    """

    agent_ids: tuple[str, ...]
    j_a: np.ndarray
    j_c: np.ndarray
    xi_p: np.ndarray
    topology: Optional[Topology] = None

    def __post_init__(self) -> None:
        n = 2 * len(self.agent_ids)
        for name in ("j_a", "j_c", "xi_p"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}")
            arr = 0.5 * (arr + arr.T)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def total(self) -> BlockMatrix:
        return BlockMatrix(self.j_a + self.j_c + self.xi_p)

    @cached_property
    def agent_info(self) -> np.ndarray:
        """Every agent's equivalent information, an (n_agents, 2, 2) stack.

        Block k is the Schur complement of the total onto agent k, from one
        recursive-halving pass over all agents, which is used only when the
        total and so every block is regular by ``speb``'s rule (see
        ``_halving_reduce``). Otherwise each agent is reduced on its own
        with a pseudo-inverse (see ``_pinv_reduce``), agents in a
        cooperation component without anchor or prior information get zero
        blocks (see ``_unanchored``), and eigenvalues within the
        reduction's rounding error count as zero unless the agent's own
        anchor links are regular; each block then keeps only its
        eigenvalues above that and above the rule's threshold on its own
        trace. So every block is PSD information and nothing raises.
        """
        total = self.total.array
        try:
            blocks = _halving_reduce(total)
        except np.linalg.LinAlgError:
            blocks, error = _pinv_reduce(total)
            blocks[_unanchored(self)] = 0.0
            # an agent's own anchor links bound its information from below,
            # so where they alone are regular no direction is left to rounding
            n, k = self.n_agents, np.arange(self.n_agents)
            own_regular = np.isfinite(speb_blocks(self.j_a.reshape(n, 2, n, 2)[k, :, k, :]))
            blocks = _drop_singular(blocks, np.where(own_regular, 0.0, total.shape[0] * error))
        blocks.flags.writeable = False
        return blocks

    @property
    def n_agents(self) -> int:
        return len(self.agent_ids)

    def index(self, agent_id: str) -> int:
        try:
            return self.agent_ids.index(agent_id)
        except ValueError:
            raise KeyError(f"unknown agent id {agent_id!r}") from None

    def anchor_block(self, agent_id: str) -> InfoMatrix2:
        k = self.index(agent_id)
        return InfoMatrix2.from_array(self.j_a[2 * k : 2 * k + 2, 2 * k : 2 * k + 2])

    def cooperation_block(self, id_a: str, id_b: str) -> np.ndarray:
        """Pair information C_km (the negated off-diagonal cooperation block)."""
        k, m = self.index(id_a), self.index(id_b)
        if k == m:
            raise ValueError("cooperation blocks couple distinct agents")
        return -self.j_c[2 * k : 2 * k + 2, 2 * m : 2 * m + 2]


def _halving_reduce(total: np.ndarray) -> np.ndarray:
    """Every agent's Schur complement of ``total`` by recursive halving.

    Agents are padded to a power of two with decoupled identity blocks.
    Each level splits every group of agents in two and reduces the group
    onto each half, A - B C^-1 B^T and C - B^T A^-1 B, with one batched
    solve for all groups; a level halves the group size until single
    blocks remain. Being Schur complements, the blocks reproduce the
    two-agent closed form to the last digit, where reading the blocks of
    one inverse of ``total`` does not. Raises ``LinAlgError`` when a block
    to be eliminated is singular, or when ``total`` may be singular, or a
    returned block is, by ``infogeo.is_singular``.
    """
    n = total.shape[0] // 2
    size = 1 << (n - 1).bit_length()
    m = np.zeros((1, 2 * size, 2 * size))
    m[0, : 2 * n, : 2 * n] = total
    pad = np.arange(2 * n, 2 * size)
    m[0, pad, pad] = 1.0
    # a nearly singular block can overflow; the checks below catch it
    with np.errstate(over="ignore", invalid="ignore"):
        while m.shape[1] > 2:
            groups, h = m.shape[0], m.shape[1] // 2
            a, b, c = m[:, :h, :h], m[:, :h, h:], m[:, h:, h:]
            bt = b.transpose(0, 2, 1)
            x = np.linalg.solve(np.concatenate([c, a]), np.concatenate([bt, b]))
            halves = np.stack([a - b @ x[:groups], c - bt @ x[groups:]], axis=1)
            m = halves.reshape(2 * groups, h, h)
            m = 0.5 * (m + m.transpose(0, 2, 1))
        blocks = m[:n]
        # Block k is the inverse of the (k, k) block of total^-1, so the
        # blocks' SPEBs sum to trace(total^-1) >= 1 / lambda_min(total), and
        # the largest absolute row sum bounds lambda_max(total): unless these
        # keep total clear of the singularity rule, a nearly singular
        # elimination may have turned rounding into information.
        spebs = speb_blocks(blocks)
        norm = np.abs(total).sum(axis=1).max()
        if not np.all(np.isfinite(spebs)) or is_singular(norm, 1.0 / spebs.sum()):
            raise np.linalg.LinAlgError("total information is singular")
    return blocks


def _pinv_reduce(total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's Schur complement of ``total``, one agent at a time with
    a pseudo-inverse of the eliminated part, and each block's rounding
    error to first order.

    The pseudo-inverse is ``scipy.linalg.pinvh``'s: it drops the
    eigenvalues of C at most its size times eps times the largest. A
    relative perturbation eps of C moves B C^+ B^T by up to
    eps |C| |C^+ B^T|^2, so a block's error is about
    eps (|A| + |B C^+ B^T| + |C| |C^+ B^T|^2): near the rounding level
    where C is well conditioned on B's directions, large where the other
    agents only pin agent k through nearly free motions.
    """
    eps = np.finfo(float).eps
    n = total.shape[0] // 2
    blocks, error = np.empty((n, 2, 2)), np.empty(n)
    for k in range(n):
        keep = np.array([2 * k, 2 * k + 1])
        drop = np.delete(np.arange(2 * n), keep)
        a, b, c = total[np.ix_(keep, keep)], total[np.ix_(keep, drop)], total[np.ix_(drop, drop)]
        w, v = np.linalg.eigh(c)
        size = np.abs(w).max(initial=0.0)
        kept = np.abs(w) > w.size * eps * size
        g = (v[:, kept] / w[kept]) @ (v[:, kept].T @ b.T)  # C^+ B^T
        bg = b @ g
        blocks[k] = a - bg
        error[k] = eps * (np.abs(a).sum() + np.abs(bg).sum() + size * np.sum(g * g))
    return blocks, error


def _unanchored(net: NetworkEfim) -> np.ndarray:
    """Mask of the agents whose cooperation component holds no anchor or
    prior information.

    Such a component moves as a whole without changing any measurement, so
    each of its agents' equivalent information is exactly zero; a
    floating-point reduction returns it only up to rounding.
    """
    n = net.n_agents
    coupled = net.total.array.reshape(n, 2, n, 2).any(axis=(1, 3))
    anchored = (net.j_a + net.xi_p).reshape(n, 2 * n * 2).any(axis=1)
    _, labels = connected_components(coupled, directed=False)
    return ~np.isin(labels, labels[anchored])


def _drop_singular(blocks: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Symmetric 2x2 blocks with every eigenvalue that ``is_singular`` (on
    the block's own trace) calls zero, or that is at most ``floor`` (one
    rounding level per block), set to zero; other blocks are returned as
    given."""
    blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
    trace = blocks[:, 0, 0] + blocks[:, 1, 1]

    def zero(trace, floor, eig):
        return is_singular(trace, eig) | (eig <= floor)

    singular = zero(trace, floor, min_eig_blocks(blocks))
    if np.any(singular):
        eig, vec = np.linalg.eigh(blocks[singular])
        eig = np.where(zero(trace[singular, None], floor[singular, None], eig), 0.0, eig)
        kept = (vec * eig[:, None, :]) @ vec.transpose(0, 2, 1)
        blocks[singular] = 0.5 * (kept + kept.transpose(0, 2, 1))
    return blocks


def _link_arrays(topo: Topology, agent_index: Mapping[str, int]):
    """A topology's links as arrays: each node's evaluation position and
    agent index (-1 for anchors), and per link the receiver and transmitter
    node index, the intensity and the bearing override (NaN where the
    bearing comes from the positions)."""
    links = topo.links
    count = len(links)
    slot = {node.node_id: i for i, node in enumerate(topo.nodes)}
    pos = np.array([node.eval_position() for node in topo.nodes])
    src = np.fromiter((slot[l.from_id] for l in links), dtype=np.intp, count=count)
    dst = np.fromiter((slot[l.to_id] for l in links), dtype=np.intp, count=count)
    rii = np.fromiter((l.rii for l in links), dtype=float, count=count)
    # overrides are finite (RangingLink checks), so NaN marks "from positions"
    phi = np.fromiter(
        (math.nan if l.phi is None else l.phi for l in links), dtype=float, count=count
    )
    agent_of = np.array([agent_index.get(node.node_id, -1) for node in topo.nodes])
    return agent_of, pos, src, dst, rii, phi


def _blocks(mat: np.ndarray) -> np.ndarray:
    """(n, n, 2, 2) view of a (2n, 2n) matrix; writes go through to ``mat``."""
    n = mat.shape[0] // 2
    return mat.reshape(n, 2, n, 2).swapaxes(1, 2)


def assemble_links(
    agent_of: np.ndarray,
    pos: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    rii: np.ndarray,
    phi: Optional[np.ndarray] = None,
    reciprocal: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Anchor and cooperation information ``(j_a, j_c)`` of links given as
    arrays.

    ``agent_of`` holds each node's agent index (-1 for anchors) and ``pos``
    its evaluation position; link i is received at node ``src[i]`` from
    node ``dst[i]`` with intensity ``rii[i]``, at the bearing ``phi[i]``
    where given and not NaN, else at the bearing between the positions.
    Each link contributes rii * R(phi), scattered into the blocks with
    ``np.add.at`` in link order; ``reciprocal`` is ``Topology``'s.
    """
    k, m = agent_of[src], agent_of[dst]
    if np.any(k < 0):
        raise ValueError("link receivers must be agents")
    d = pos[src] - pos[dst]
    bearing = np.arctan2(d[:, 1], d[:, 0])
    if phi is not None:
        bearing = np.where(np.isnan(phi), bearing, phi)
    c, s = np.cos(bearing), np.sin(bearing)
    terms = np.empty((rii.size, 2, 2))
    terms[:, 0, 0] = rii * (c * c)
    terms[:, 0, 1] = terms[:, 1, 0] = rii * (c * s)
    terms[:, 1, 1] = rii * (s * s)

    n = 2 * int(agent_of.max(initial=-1) + 1)
    j_a = np.zeros((n, n))
    j_c = np.zeros((n, n))
    to_anchor = m < 0
    np.add.at(_blocks(j_a), (k[to_anchor], k[to_anchor]), terms[to_anchor])

    coop = ~to_anchor
    k, m, terms = k[coop], m[coop], terms[coop]
    if reciprocal:
        implied = ~np.isin(m * n + k, k * n + m)
        terms = terms * (1.0 + implied)[:, None, None]
    jc = _blocks(j_c)
    np.add.at(jc, (k, k), terms)
    np.add.at(jc, (m, m), terms)
    np.add.at(jc, (k, m), -terms)
    np.add.at(jc, (m, k), -terms)
    return j_a, j_c


def build_efim(topo: Topology, xi_p_override: Optional[np.ndarray] = None) -> NetworkEfim:
    """Assemble a network's block information matrix from its topology.

    Anchor links accumulate into the block diagonal of ``j_a``; each agent
    pair's links combine into C_km = (lambda_km + lambda_mk) R(phi_km),
    placed on the ``j_c`` diagonal and negated off the diagonal. With
    ``reciprocal=True`` an agent-agent link whose reverse direction is
    absent from the topology counts twice (a reverse link that is present
    counts as given, even at zero intensity). Independent agent priors fill
    the block diagonal of ``xi_p``; a full PSD matrix may be supplied
    instead for correlated priors.

    The links are turned into arrays once and assembled by
    ``assemble_links``.
    """
    agents = topo.agents
    if not agents:
        raise ValueError("topology has no agents")
    ids = tuple(n.node_id for n in agents)
    index = {node_id: k for k, node_id in enumerate(ids)}
    n = 2 * len(ids)
    j_a, j_c = assemble_links(*_link_arrays(topo, index), reciprocal=topo.reciprocal)

    if xi_p_override is not None:
        xi_p = np.array(xi_p_override, dtype=float)
        if xi_p.shape != (n, n):
            raise ValueError(f"xi_p override must be {n}x{n}")
        eigs = np.linalg.eigvalsh(0.5 * (xi_p + xi_p.T))
        if eigs[0] < -PSD_TOL * max(float(np.trace(xi_p)), 1.0):
            raise ValueError("xi_p override must be PSD")
    else:
        xi_p = np.zeros((n, n))
        for k, node in enumerate(agents):
            if node.prior_info is not None:
                xi_p[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = node.prior_info

    return NetworkEfim(agent_ids=ids, j_a=j_a, j_c=j_c, xi_p=xi_p, topology=topo)


def agent_efim(net: NetworkEfim, agent_id: str) -> InfoMatrix2:
    """One agent's equivalent information: its block of ``net.agent_info``,
    the Schur complement of the network information onto the agent.

    It is defined whatever the other agents are and never raises: an
    unlocalizable agent gets a singular block, which ``speb`` reports as
    unlocalizable, and does not affect any other agent's answer.
    """
    return InfoMatrix2.from_array(net.agent_info[net.index(agent_id)])


def join(net: NetworkEfim, new_agent: Node, links: Iterable[RangingLink]) -> NetworkEfim:
    """Extend an assembled network with one more agent.

    Only the newcomer's links are scattered, by ``assemble_links``, into the
    blocks zero-padded by one agent: they add ranging-direction terms to the
    existing diagonal, their negatives on the new border and the newcomer's
    anchor information on its own diagonal; the result equals batch
    re-assembly of the extended topology.
    """
    if net.topology is None:
        raise ValueError("join requires a NetworkEfim built from a topology")
    if not new_agent.is_agent:
        raise ValueError("only agents can join; anchors are static topology")
    if new_agent.node_id in {n.node_id for n in net.topology.nodes}:
        raise ValueError(f"duplicate node id {new_agent.node_id!r}")
    links = tuple(links)
    for link in links:
        if new_agent.node_id not in (link.from_id, link.to_id):
            raise ValueError("join links must involve the joining agent")

    topo = net.topology
    new_topo = Topology(
        nodes=topo.nodes + (new_agent,),
        links=topo.links + links,
        reciprocal=topo.reciprocal,
    )

    ids = net.agent_ids + (new_agent.node_id,)
    index = {node_id: k for k, node_id in enumerate(ids)}
    # every agent pair in ``links`` holds the newcomer, so both directions of
    # a pair are among them and the reciprocal rule needs no other link
    j_a, j_c = assemble_links(
        *_link_arrays(replace(new_topo, links=links), index), reciprocal=topo.reciprocal
    )
    n_old = 2 * net.n_agents
    j_a[:n_old, :n_old] += net.j_a
    j_c[:n_old, :n_old] += net.j_c
    xi_p = np.zeros_like(j_a)
    xi_p[:n_old, :n_old] = net.xi_p
    if new_agent.prior_info is not None:
        xi_p[n_old:, n_old:] = new_agent.prior_info

    return NetworkEfim(agent_ids=ids, j_a=j_a, j_c=j_c, xi_p=xi_p, topology=new_topo)


def leave(net: NetworkEfim, agent_id: str) -> NetworkEfim:
    """Remove an agent: delete its blocks and subtract its pair blocks from
    the surviving diagonal; equals batch re-assembly of the reduced topology."""
    k = net.index(agent_id)
    keep = [i for i in range(net.n_agents) if i != k]
    idx = np.array([j for i in keep for j in (2 * i, 2 * i + 1)], dtype=int)

    j_c = net.j_c[np.ix_(idx, idx)].copy()
    for new_pos, old_i in enumerate(keep):
        c_block = -net.j_c[2 * old_i : 2 * old_i + 2, 2 * k : 2 * k + 2]
        j_c[2 * new_pos : 2 * new_pos + 2, 2 * new_pos : 2 * new_pos + 2] -= c_block

    new_topo = None
    if net.topology is not None:
        topo = net.topology
        new_topo = Topology(
            nodes=tuple(n for n in topo.nodes if n.node_id != agent_id),
            links=tuple(l for l in topo.links if agent_id not in (l.from_id, l.to_id)),
            reciprocal=topo.reciprocal,
        )

    return NetworkEfim(
        agent_ids=tuple(i for i in net.agent_ids if i != agent_id),
        j_a=net.j_a[np.ix_(idx, idx)],
        j_c=j_c,
        xi_p=net.xi_p[np.ix_(idx, idx)],
        topology=new_topo,
    )


def temporal_efim(
    positions: Sequence[Sequence[float]],
    anchors: Sequence[Node],
    anchor_links: Sequence[Sequence[RangingLink]],
    step_info: Sequence[float],
) -> NetworkEfim:
    """Information of one agent ranging against itself over an N-step walk.

    Each visited position becomes an agent node ``t0``..``t{N-1}``;
    ``anchor_links[i]`` lists that position's anchor observations (their
    ``from_id`` is replaced by the step id), and ``step_info[i]`` is the
    Fisher information nu_i (1/m^2) of the measured displacement between
    steps i and i+1 (a Gaussian odometer with std sigma gives nu = 1/sigma^2).
    The cooperation part is block tridiagonal: consecutive steps couple
    through nu_i R(phi_i), nothing else does.
    """
    positions = np.asarray(positions, dtype=float)
    n_steps = positions.shape[0]
    if n_steps < 2:
        raise ValueError("temporal cooperation needs at least two positions")
    if len(anchor_links) != n_steps:
        raise ValueError("anchor_links must have one entry per position")
    if len(step_info) != n_steps - 1:
        raise ValueError("step_info must have N-1 entries")
    if any(nu < 0.0 for nu in step_info):
        raise ValueError("step information must be nonnegative")

    step_ids = [f"t{i}" for i in range(n_steps)]
    nodes = [Node(step_ids[i], "agent", positions[i]) for i in range(n_steps)]
    nodes.extend(anchors)
    links: list[RangingLink] = []
    for i, step_links in enumerate(anchor_links):
        for link in step_links:
            links.append(replace(link, from_id=step_ids[i]))
    for i, nu in enumerate(step_info):
        if nu > 0.0:
            links.append(RangingLink(from_id=step_ids[i], to_id=step_ids[i + 1], rii=float(nu)))
    return build_efim(Topology(nodes=tuple(nodes), links=tuple(links)))


def relabel_as_anchor(topo: Topology, agent_id: str) -> Topology:
    """Re-label an agent as an anchor, folding cooperation into anchor links.

    Both directions of each cooperation pair feed the surviving agent: the
    former links (m <- k) and (k <- m) merge into a single anchor link
    (m <- k) carrying the summed intensity. The relabeled node's own anchor
    links and any prior disappear with its unknowns.
    """
    node = topo.node(agent_id)
    if not node.is_agent:
        raise ValueError(f"{agent_id!r} is already an anchor")
    new_nodes = tuple(
        Node(n.node_id, "anchor", n.position) if n.node_id == agent_id else n
        for n in topo.nodes
    )
    combined: dict[str, float] = {}
    geometry: dict[str, RangingLink] = {}
    new_links: list[RangingLink] = []
    for link in topo.links:
        if link.from_id == agent_id:
            peer = topo.node(link.to_id)
            if peer.is_agent:
                combined[peer.node_id] = combined.get(peer.node_id, 0.0) + link.rii
            continue  # drop the relabeled node's anchor observations
        if link.to_id == agent_id:
            combined[link.from_id] = combined.get(link.from_id, 0.0) + link.rii
            geometry[link.from_id] = link
            continue
        new_links.append(link)
    for peer_id, total in combined.items():
        template = geometry.get(peer_id)
        phi = template.phi if template is not None else None
        distance = template.distance if template is not None else None
        new_links.append(
            RangingLink(from_id=peer_id, to_id=agent_id, rii=total, phi=phi, distance=distance)
        )
    return Topology(nodes=new_nodes, links=tuple(new_links), reciprocal=False)


def anchor_equivalence_check(topo: Topology, agent_id: str, t2: float) -> float:
    """Deviation between an agent with prior diag(t2, t2) reduced out and the
    same node relabeled as an anchor.

    Returns the maximum entrywise deviation relative to the anchor-version
    scale; it tends to zero as t2 grows, which is the numerical content of
    the anchors-are-infinite-prior-agents equivalence.
    """
    if t2 < 0.0:
        raise ValueError("prior information t2 must be nonnegative")
    node = topo.node(agent_id)
    if not node.is_agent:
        raise ValueError(f"{agent_id!r} must be an agent")
    prior_topo = Topology(
        nodes=tuple(
            Node(n.node_id, n.kind, n.position, prior_info=np.diag([t2, t2]))
            if n.node_id == agent_id
            else n
            for n in topo.nodes
        ),
        links=topo.links,
        reciprocal=topo.reciprocal,
    )
    net = build_efim(prior_topo)
    k = net.index(agent_id)
    keep = [i for i in range(net.n_agents) if i != k]
    try:
        reduced = schur_reduce(net.total, keep=keep)
    except SingularComplementError:
        if t2 == 0.0:
            # without the prior the node carries no invertible information:
            # fall back to a pseudo-inverse so the t2 = 0 contrast is defined
            reduced = schur_reduce(net.total, keep=keep, use_pinv=True)
        else:
            raise

    anchor_net = build_efim(relabel_as_anchor(topo, agent_id))
    expected_ids = tuple(i for i in net.agent_ids if i != agent_id)
    if anchor_net.agent_ids != expected_ids:
        raise AssertionError("agent ordering changed under relabeling")

    target = anchor_net.total.array
    scale = float(np.max(np.abs(target)))
    if scale == 0.0:
        return float(np.max(np.abs(reduced.array)))
    return float(np.max(np.abs(reduced.array - target))) / scale
