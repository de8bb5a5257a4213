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
Schur complement of the total onto that agent: from one recursive-halving
pass on the total (see ``_halving_reduce``), otherwise per cooperation
component, since the total is block diagonal over them; ``agent_efim``
and the Monte Carlo studies read it, so the reduction and its singularity
verdict are decided here alone, per agent.

``join``/``leave`` update an assembled network incrementally and agree with
batch re-assembly; ``temporal_efim`` reuses the same machinery for a single
agent ranging against itself over time; ``anchor_equivalence_check``
verifies numerically that an agent with a huge position prior behaves like
an anchor once reduced out.

A ``Topology`` holds its links as arrays (node indices, intensities,
bearing and distance overrides), validated once as arrays, whether they
come from ``RangingLink``s or straight from the config loader and the
generators; ``links`` reads them back as objects. ``build_efim`` is
``assemble_links`` on those arrays plus the priors: it scatters the
rank-one contributions into the blocks with ``np.add.at``, and no
per-link object is built. The Monte Carlo studies draw their networks as
arrays and call ``assemble_links`` directly; ``join`` appends the
newcomer's links to the arrays and scatters only those, and ``leave``
masks the arrays.

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
from .ranging import RangingLink, first_fault

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


# a topology's link arrays, in ``Topology.from_arrays``'s order
_LINK_FIELDS = ("src", "dst", "rii", "phi", "distance")


def first_link_fault(src, dst, rii, phi, distance) -> Optional[tuple[int, str]]:
    """(index, message) of the first link that fails ``RangingLink``'s
    checks, in its order, run on link arrays with NaN for no override;
    None if every link passes."""
    checks = (
        (src == dst, "a node cannot range against itself"),
        (~(np.isfinite(rii) & (rii >= 0.0)), "rii must be finite and nonnegative"),
        (np.isinf(phi), "phi override must be finite"),
        (np.isinf(distance) | (distance <= 0.0), "distance override must be finite and positive"),
    )
    return first_fault(checks)


@dataclass(frozen=True, init=False, eq=False)
class Topology:
    """Immutable network snapshot: nodes plus directed ranging links.

    A link (k <- j) means node k received a ranging waveform from node j;
    absent links mean no communication. Receivers must be agents. With
    ``reciprocal=True`` a single direction per agent pair implies the
    reverse at equal intensity (and both directions, if given, must agree;
    of a direction given twice, the last counts).

    The links are arrays: receiver and transmitter node indices
    ``src``/``dst``, intensities ``rii``, and ``phi``/``distance``
    overrides, NaN where the positions give the value. ``Topology(nodes,
    links)`` converts ``RangingLink``s once, ``from_arrays`` takes the
    arrays, and ``links`` reads them back as ``RangingLink``s. Either way
    the links are validated once, as arrays, with ``RangingLink``'s
    messages.
    """

    nodes: tuple[Node, ...]
    src: np.ndarray
    dst: np.ndarray
    rii: np.ndarray
    phi: np.ndarray
    distance: np.ndarray
    reciprocal: bool

    def __init__(
        self, nodes: Sequence[Node], links: Iterable[RangingLink], reciprocal: bool = False
    ) -> None:
        nodes, links = tuple(nodes), tuple(links)
        slot = {node.node_id: i for i, node in enumerate(nodes)}
        try:
            ends = [(slot[link.from_id], slot[link.to_id]) for link in links]
        except KeyError as exc:
            raise ValueError(f"unknown node id {exc.args[0]!r} in link") from None
        values = [(link.rii, link.phi, link.distance) for link in links]  # None is NaN
        ends = np.array(ends, dtype=np.intp).reshape(-1, 2).T
        self._setup(nodes, *ends, *np.array(values, dtype=float).reshape(-1, 3).T, reciprocal)

    @classmethod
    def from_arrays(cls, nodes, src, dst, rii, phi=None, distance=None, reciprocal=False):
        """The topology of links given as arrays; overrides are NaN, or
        None for all, where there is none."""
        topo = cls.__new__(cls)
        none = np.full(len(rii), np.nan)
        phi, distance = (none if v is None else v for v in (phi, distance))
        topo._setup(nodes, src, dst, rii, phi, distance, reciprocal)
        return topo

    def _setup(self, nodes, src, dst, rii, phi, distance, reciprocal) -> None:
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "reciprocal", bool(reciprocal))
        for name, values in zip(_LINK_FIELDS, (src, dst, rii, phi, distance)):
            arr = np.array(values, dtype=np.intp if name in ("src", "dst") else float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        fault = first_link_fault(*self._link_arrays)
        if fault is not None:
            raise ValueError(fault[1])
        anchor = self.src[~self._is_agent[self.src]]
        if anchor.size:
            raise ValueError(f"link receiver {ids[anchor[0]]!r} is an anchor; only agents receive")
        if not self.reciprocal:
            return
        # the last intensity of each agent-agent direction, directions in link order
        coop = self._is_agent[self.src] & self._is_agent[self.dst]
        key = self.src[coop] * len(ids) + self.dst[coop]
        pairs, first = np.unique(key, return_index=True)
        _, from_end = np.unique(key[::-1], return_index=True)
        lam = self.rii[coop][key.size - 1 - from_end]
        reverse = pairs % len(ids) * len(ids) + pairs // len(ids)
        at = np.searchsorted(pairs, reverse).clip(max=pairs.size - 1)
        # math.isclose(rel_tol=1e-9) fails, where the reverse direction is given
        bad = (pairs[at] == reverse) & (
            np.abs(lam[at] - lam) > 1e-9 * np.maximum(np.abs(lam[at]), np.abs(lam))
        )
        if bad.any():
            k, m = divmod(int(pairs[bad][np.argmin(first[bad])]), len(ids))
            raise ValueError(
                f"reciprocal topology but links {ids[k]}<->{ids[m]} carry different intensities"
            )

    @property
    def _link_arrays(self) -> tuple[np.ndarray, ...]:
        """The link arrays in ``from_arrays``'s order."""
        return tuple(getattr(self, name) for name in _LINK_FIELDS)

    @cached_property
    def links(self) -> tuple[RangingLink, ...]:
        """The links as ``RangingLink``s, built on first access."""
        ids = [n.node_id for n in self.nodes]
        given = lambda v: None if math.isnan(v) else v  # noqa: E731
        return tuple(
            RangingLink(ids[k], ids[j], lam, given(phi), given(dist))
            for k, j, lam, phi, dist in zip(*(a.tolist() for a in self._link_arrays))
        )

    @cached_property
    def _is_agent(self) -> np.ndarray:
        return np.array([n.is_agent for n in self.nodes], dtype=bool)

    @cached_property
    def _agent_of(self) -> np.ndarray:
        """Each node's agent index, -1 for anchors."""
        return np.where(self._is_agent, np.cumsum(self._is_agent) - 1, -1)

    @cached_property
    def _positions(self) -> np.ndarray:
        """Each node's evaluation position, an (n_nodes, 2) array."""
        return np.array([node.eval_position() for node in self.nodes]).reshape(-1, 2)

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
        recursive-halving pass over all agents, used only when the total
        and so every block is regular by ``speb``'s rule (see
        ``_halving_reduce``). Otherwise the total is block diagonal over
        cooperation components (agents joined by nonzero blocks), and each
        agent's block is its component's alone. A component without anchor
        or prior information moves as a whole unobserved: its blocks are
        zero. Any other is reduced by halving, or where that raises, one
        agent at a time with a pseudo-inverse (see ``_pinv_reduce``), with
        eigenvalues within its rounding error counted as zero unless the
        agent's own anchor links are regular; each block then keeps only
        its eigenvalues above that and above the rule's threshold on its
        own trace. So every block is PSD information and nothing raises.
        """
        total = self.total.array
        try:
            blocks = _halving_reduce(total)
        except np.linalg.LinAlgError:
            n, k = self.n_agents, np.arange(self.n_agents)
            blocks = np.zeros((n, 2, 2))
            _, labels = connected_components(_blocks(total).any(axis=(2, 3)), directed=False)
            anchored = (self.j_a + self.xi_p).reshape(n, 4 * n).any(axis=1)
            own_regular = np.isfinite(speb_blocks(_blocks(self.j_a)[k, k]))
            for label in np.unique(labels[anchored]):
                agents = np.flatnonzero(labels == label)
                rows = (2 * agents[:, None] + np.arange(2)).ravel()
                part = total[np.ix_(rows, rows)]
                try:
                    blocks[agents] = _halving_reduce(part)
                except np.linalg.LinAlgError:
                    # an agent's own anchor links bound its information from
                    # below, so where they alone are regular no direction is
                    # left to rounding
                    reduced, error = _pinv_reduce(part)
                    floor = np.where(own_regular[agents], 0.0, part.shape[0] * error)
                    blocks[agents] = _drop_singular(reduced, floor)
        blocks.flags.writeable = False
        return blocks

    @cached_property
    def own_info(self) -> np.ndarray:
        """Every agent's own (anchor plus prior) block of j_a + xi_p, an
        (n_agents, 2, 2) stack."""
        k = np.arange(self.n_agents)
        blocks = _blocks(self.j_a + self.xi_p)[k, k]
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

    The topology's link arrays are assembled by ``assemble_links``.
    """
    agents = topo.agents
    if not agents:
        raise ValueError("topology has no agents")
    ids = tuple(n.node_id for n in agents)
    n = 2 * len(ids)
    j_a, j_c = assemble_links(
        topo._agent_of, topo._positions, topo.src, topo.dst, topo.rii, topo.phi,
        reciprocal=topo.reciprocal,
    )

    if xi_p_override is not None:
        xi_p = np.array(xi_p_override, dtype=float)
        if xi_p.shape != (n, n):
            raise ValueError(f"xi_p override must be {n}x{n}")
        eigs = np.linalg.eigvalsh(0.5 * (xi_p + xi_p.T))
        if eigs[0] < -PSD_TOL * max(float(np.trace(xi_p)), 0.0):
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
    topo = net.topology
    if new_agent.node_id in topo._by_id:
        raise ValueError(f"duplicate node id {new_agent.node_id!r}")
    links = tuple(links)
    if any(new_agent.node_id not in (link.from_id, link.to_id) for link in links):
        raise ValueError("join links must involve the joining agent")

    nodes = topo.nodes + (new_agent,)
    added = Topology(nodes, links)
    new_topo = Topology.from_arrays(
        nodes,
        *map(np.concatenate, zip(topo._link_arrays, added._link_arrays)),
        reciprocal=topo.reciprocal,
    )
    # every agent pair in ``links`` holds the newcomer, so both directions of
    # a pair are among them and the reciprocal rule needs no other link
    j_a, j_c = assemble_links(
        new_topo._agent_of, new_topo._positions, added.src, added.dst, added.rii, added.phi,
        reciprocal=topo.reciprocal,
    )
    n_old = 2 * net.n_agents
    j_a[:n_old, :n_old] += net.j_a
    j_c[:n_old, :n_old] += net.j_c
    xi_p = np.zeros_like(j_a)
    xi_p[:n_old, :n_old] = net.xi_p
    if new_agent.prior_info is not None:
        xi_p[n_old:, n_old:] = new_agent.prior_info

    ids = net.agent_ids + (new_agent.node_id,)
    return NetworkEfim(agent_ids=ids, j_a=j_a, j_c=j_c, xi_p=xi_p, topology=new_topo)


def leave(net: NetworkEfim, agent_id: str) -> NetworkEfim:
    """Remove an agent: delete its blocks and subtract its pair blocks from
    the surviving diagonal; equals batch re-assembly of the reduced topology."""
    k = net.index(agent_id)
    idx = np.delete(np.arange(2 * net.n_agents), [2 * k, 2 * k + 1])
    j_c = net.j_c[np.ix_(idx, idx)]
    stay = np.arange(net.n_agents - 1)
    _blocks(j_c)[stay, stay] += _blocks(net.j_c)[np.delete(np.arange(net.n_agents), k), k]

    new_topo = None
    if net.topology is not None:
        topo = net.topology
        gone = [n.node_id for n in topo.nodes].index(agent_id)
        src, dst, *rest = (a[(topo.src != gone) & (topo.dst != gone)] for a in topo._link_arrays)
        new_topo = Topology.from_arrays(
            topo.nodes[:gone] + topo.nodes[gone + 1 :],
            src - (src > gone),
            dst - (dst > gone),
            *rest,
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
    prior_topo = Topology.from_arrays(
        tuple(
            Node(n.node_id, n.kind, n.position, prior_info=np.diag([t2, t2]))
            if n.node_id == agent_id
            else n
            for n in topo.nodes
        ),
        *topo._link_arrays,
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
