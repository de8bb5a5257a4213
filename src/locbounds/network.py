"""Network-level equivalent information: assembly, reduction, updates.

``NetworkEfim`` stores the network information in the paper's structure:
anchor and prior information as one 2x2 block per agent, and cooperation
information as one rank-one term per agent-agent link (receiving agent,
transmitting agent, 2x2 term after the reciprocal rule) in link order. A
pair's terms sum to C_km, which sits on both agents' diagonal blocks and
negated off the diagonal. Only this module builds the dense (2N, 2N)
matrices, for checks and demos (``j_a``, ``j_c``, ``xi_p``, ``total``) and
per cooperation component in ``agent_info``, all with ``_scatter``.

When agents carry position priors, the ranging geometry is evaluated at the
prior means (the concentrated-prior regime); the fully general expectation
over random positions is out of scope.

A ``Topology`` holds its nodes and links as arrays, so the config
loader, the Monte Carlo draws and hand-built networks are one input, and
``build_efim`` is the one assembly and the only maker of a ``NetworkEfim``.
``agent_info`` holds every agent's equivalent information, so the
reduction and its singularity verdict are decided here alone, per agent.
The information is fixed by the topology alone, so ``join`` and ``leave``
edit its arrays and assemble it again, as ``relabel_as_anchor`` edits them
for ``anchor_equivalence_check``, which verifies that an agent with a huge
position prior behaves like an anchor once reduced out; ``temporal_efim``
reuses the machinery for one agent ranging against itself over time.

``Topology`` and ``NetworkEfim`` are immutable snapshots; updates return new
values, so concurrent readers are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .infogeo import (
    BlockMatrix,
    InfoMatrix2,
    SingularComplementError,
    is_singular,
    min_eig_blocks,
    rejected_blocks,
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


# a topology's node and link arrays, with dtypes, in ``Topology.from_arrays``'s order
_NODE_FIELDS = {"is_agent": bool, "positions": float, "prior_info": float, "prior_mean": float}
_LINK_FIELDS = {"src": np.intp, "dst": np.intp, "rii": float, "phi": float, "distance": float}


def _node(node_id: str, is_agent: bool, position, prior_info, prior_mean) -> Node:
    """The ``Node`` of one node's array entries, NaN for no prior."""
    given = lambda v: None if np.isnan(v).all() else v  # noqa: E731
    kind = "agent" if is_agent else "anchor"
    return Node(node_id, kind, position, given(prior_info), given(prior_mean))


def first_node_fault(is_agent, positions, prior_info, prior_mean) -> Optional[tuple[int, str]]:
    """(index, message) of the first node that fails ``Node``'s checks, in
    node order, run on node arrays with NaN for no prior; None if every
    node passes. Array masks find the failing nodes, and the first is built
    as a ``Node``, which raises its own error."""
    # finite x and y: ``np.isfinite(positions).all(axis=1)``, in a tenth of its time
    bad = ~(np.isfinite(positions[:, 0]) & np.isfinite(positions[:, 1]))
    if not (np.isnan(prior_info).all() and np.isnan(prior_mean).all()):  # a node has a prior
        has_info = ~np.isnan(prior_info).all(axis=(1, 2))
        has_mean = ~np.isnan(prior_mean).all(axis=1)
        bad |= (has_info | has_mean) & ~is_agent | has_mean & ~has_info
        with np.errstate(invalid="ignore", over="ignore"):
            info = 0.5 * (prior_info + prior_info.transpose(0, 2, 1))
            bad |= has_info & rejected_blocks(info)
        bad |= has_mean & ~np.isfinite(prior_mean).all(axis=1)
    for k in np.flatnonzero(bad).tolist():
        try:
            _node("", is_agent[k], positions[k], prior_info[k], prior_mean[k])
        except ValueError as exc:
            return k, str(exc)
    return None


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


def _link_arrays_of(links: Iterable[RangingLink], ids: Sequence[str]) -> tuple[np.ndarray, ...]:
    """The link arrays, in ``from_arrays``'s order, of ``RangingLink``s between ``ids``."""
    links = tuple(links)
    slot = {node_id: i for i, node_id in enumerate(ids)}
    try:
        ends = [(slot[link.from_id], slot[link.to_id]) for link in links]
    except KeyError as exc:
        raise ValueError(f"unknown node id {exc.args[0]!r} in link") from None
    values = [(link.rii, link.phi, link.distance) for link in links]  # None is NaN
    ends = np.array(ends, dtype=np.intp).reshape(-1, 2).T
    return (*ends, *np.array(values, dtype=float).reshape(-1, 3).T)


@dataclass(frozen=True, init=False, eq=False)
class Topology:
    """Immutable network snapshot: nodes plus directed ranging links.

    A link (k <- j) means node k received a ranging waveform from node j;
    absent links mean no communication. Receivers must be agents. With
    ``reciprocal=True`` a single direction per agent pair implies the
    reverse at equal intensity (and both directions, if given, must agree;
    of a direction given twice, the last counts).

    Nodes and links are read-only arrays. A node has a kind (``is_agent``),
    a position (``positions``, (n, 2)) and, if an agent, maybe a prior:
    ``prior_info`` (n, 2, 2) and ``prior_mean`` (n, 2), NaN where none is
    given. Node ``ids`` are given, or by default ``a<i>``/``b<i>`` for the
    i-th agent/anchor, built when first read. A link has receiver and
    transmitter node indices ``src``/``dst``, intensity ``rii``, and
    ``phi``/``distance`` overrides, NaN where the positions give the value.
    ``Topology(nodes, links)`` converts ``Node``s and ``RangingLink``s once,
    ``from_arrays`` takes the arrays, and ``nodes`` and ``links`` read them
    back as objects. Either way nodes and links are validated once, as
    arrays, with ``Node``'s and ``RangingLink``'s messages.
    """

    is_agent: np.ndarray
    positions: np.ndarray
    prior_info: np.ndarray
    prior_mean: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    rii: np.ndarray
    phi: np.ndarray
    distance: np.ndarray
    reciprocal: bool
    _ids: Optional[tuple[str, ...]]

    def __init__(
        self, nodes: Sequence[Node], links: Iterable[RangingLink], reciprocal: bool = False
    ) -> None:
        nodes = tuple(nodes)
        ids = tuple(n.node_id for n in nodes)
        none = np.full((2, 2), np.nan)  # no prior
        infos = [none if n.prior_info is None else n.prior_info for n in nodes]
        means = [none[0] if n.prior_mean is None else n.prior_mean for n in nodes]
        node_arrays = (
            [n.is_agent for n in nodes],
            np.reshape([n.position for n in nodes], (-1, 2)),
            np.reshape(infos, (-1, 2, 2)),
            np.reshape(means, (-1, 2)),
        )
        self._setup(node_arrays, _link_arrays_of(links, ids), ids, reciprocal)

    @classmethod
    def from_arrays(
        cls, is_agent, positions, src, dst, rii, phi=None, distance=None, *,
        prior_info=None, prior_mean=None, ids=None, reciprocal=False,
    ):
        """The topology of nodes and links given as arrays; priors and
        overrides are NaN, or None for all, where there is none."""
        topo = cls.__new__(cls)
        nodes = (is_agent, positions, prior_info, prior_mean)
        topo._setup(nodes, (src, dst, rii, phi, distance), ids, reciprocal)
        return topo

    def _setup(self, nodes, links, ids, reciprocal) -> None:
        """Copies and validates the arrays; None is all NaN, one NaN read
        with zero strides (read-only like the copies, held in no memory)."""
        n, m = len(nodes[0]), len(links[2])
        shapes = ((n,), (n, 2), (n, 2, 2), (n, 2)) + ((m,),) * 5
        fields = zip((_NODE_FIELDS | _LINK_FIELDS).items(), nodes + links, shapes)
        arrays = {}
        for (name, dtype), values, shape in fields:
            if values is None:
                arr = np.ndarray(shape, buffer=np.full(1, np.nan), strides=(0,) * len(shape))
            else:
                arr = np.array(values, dtype=dtype)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            arrays[name] = arr
        fault = first_node_fault(*(arrays[name] for name in _NODE_FIELDS))
        if fault is not None:
            raise ValueError(fault[1])
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "reciprocal", bool(reciprocal))
        object.__setattr__(self, "_ids", None if ids is None else tuple(ids))
        if self._ids is not None and len(self._ids) != n:
            raise ValueError(f"ids must have shape {(n,)}")
        if self._ids is not None and len(set(self._ids)) != n:
            raise ValueError("node ids must be unique")
        ends = (self.src, self.dst)
        if m and (min(e.min() for e in ends) < 0 or max(e.max() for e in ends) >= n):
            raise ValueError(f"link node indices must be in [0, {n})")
        fault = first_link_fault(*self._link_arrays)
        if fault is not None:
            raise ValueError(fault[1])
        anchor = self.src[~self.is_agent[self.src]]
        if anchor.size:
            receiver = self.ids[anchor[0]]
            raise ValueError(f"link receiver {receiver!r} is an anchor; only agents receive")
        if not self.reciprocal:
            return
        # the last intensity of each agent-agent direction, directions in link order
        coop = self.is_agent[self.src] & self.is_agent[self.dst]
        key = self.src[coop] * n + self.dst[coop]
        pairs, first = np.unique(key, return_index=True)
        _, from_end = np.unique(key[::-1], return_index=True)
        lam = self.rii[coop][key.size - 1 - from_end]
        reverse = pairs % n * n + pairs // n
        at = np.searchsorted(pairs, reverse).clip(max=pairs.size - 1)
        # math.isclose(rel_tol=1e-9) fails, where the reverse direction is given
        bad = (pairs[at] == reverse) & (
            np.abs(lam[at] - lam) > 1e-9 * np.maximum(np.abs(lam[at]), np.abs(lam))
        )
        if bad.any():
            k, m = divmod(int(pairs[bad][np.argmin(first[bad])]), n)
            ids = self.ids
            raise ValueError(
                f"reciprocal topology but links {ids[k]}<->{ids[m]} carry different intensities"
            )

    @property
    def _link_arrays(self) -> tuple[np.ndarray, ...]:
        """The link arrays in ``from_arrays``'s order."""
        return tuple(getattr(self, name) for name in _LINK_FIELDS)

    @property
    def _arrays(self) -> dict[str, np.ndarray]:
        """The node and link arrays, by ``from_arrays``'s keywords."""
        return {name: getattr(self, name) for name in _NODE_FIELDS | _LINK_FIELDS}

    def _replace(self, **arrays) -> Topology:
        """This topology with the given node or link arrays, or ``ids``, swapped
        in and validated by ``from_arrays``; ``reciprocal`` is kept."""
        fields = self._arrays | {"ids": self.ids} | arrays
        return Topology.from_arrays(**fields, reciprocal=self.reciprocal)

    @cached_property
    def _doubled(self) -> np.ndarray:
        """Per link, whether the reciprocal rule counts it twice: agent-agent, reverse absent."""
        n = len(self.is_agent)
        implied = ~np.isin(self.dst * n + self.src, self.src * n + self.dst)
        return self.reciprocal & self.is_agent[self.dst] & implied

    @cached_property
    def ids(self) -> tuple[str, ...]:
        """The node ids, in node order."""
        if self._ids is not None:
            return self._ids
        nth = np.where(self.is_agent, np.cumsum(self.is_agent), np.cumsum(~self.is_agent)) - 1
        return tuple(
            f"{'a' if agent else 'b'}{i}" for agent, i in zip(self.is_agent.tolist(), nth.tolist())
        )

    @cached_property
    def agent_ids(self) -> tuple[str, ...]:
        """The agents' ids, in node order, without building the anchors'
        default ids."""
        if self._ids is None:
            return tuple(f"a{i}" for i in range(np.count_nonzero(self.is_agent)))
        return tuple(compress(self._ids, self.is_agent.tolist()))

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        """The nodes as ``Node``s, built on first access."""
        arrays = (self.is_agent.tolist(), self.positions, self.prior_info, self.prior_mean)
        return tuple(map(_node, self.ids, *arrays))

    @cached_property
    def links(self) -> tuple[RangingLink, ...]:
        """The links as ``RangingLink``s, built on first access."""
        ids = self.ids
        given = lambda v: None if math.isnan(v) else v  # noqa: E731
        return tuple(
            RangingLink(ids[k], ids[j], lam, given(phi), given(dist))
            for k, j, lam, phi, dist in zip(*(a.tolist() for a in self._link_arrays))
        )

    @cached_property
    def _agent_of(self) -> np.ndarray:
        """Each node's agent index, -1 for anchors."""
        return np.where(self.is_agent, np.cumsum(self.is_agent) - 1, -1)

    @cached_property
    def _eval_positions(self) -> np.ndarray:
        """Each node's evaluation position (its prior mean if it has one),
        an (n_nodes, 2) array."""
        return np.where(np.isnan(self.prior_mean), self.positions, self.prior_mean)

    @cached_property
    def _slot(self) -> Mapping[str, int]:
        return {node_id: k for k, node_id in enumerate(self.ids)}

    def index(self, node_id: str) -> int:
        """The node's index in node order."""
        try:
            return self._slot[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    def node(self, node_id: str) -> Node:
        return self.nodes[self.index(node_id)]

    @cached_property
    def agents(self) -> tuple[Node, ...]:
        return tuple(compress(self.nodes, self.is_agent.tolist()))

    @cached_property
    def anchors(self) -> tuple[Node, ...]:
        return tuple(compress(self.nodes, (~self.is_agent).tolist()))

    def link_geometry(self, link: RangingLink) -> tuple[float, float]:
        """Resolved (phi, distance) of a link, honoring explicit overrides."""
        pos = self._eval_positions
        dx = pos[self.index(link.from_id)] - pos[self.index(link.to_id)]
        phi = link.phi if link.phi is not None else math.atan2(dx[1], dx[0])
        distance = link.distance if link.distance is not None else float(np.hypot(dx[0], dx[1]))
        return phi, distance


@dataclass(frozen=True)
class NetworkEfim:
    """Network information: the agents' (n, 2, 2) ``anchor`` and ``prior``
    stacks, in ``agent_ids`` order, and the cooperation links' receiving
    agent ``rx``, transmitting agent ``tx`` and 2x2 ``terms``. The dense
    ``j_a``, ``j_c``, ``xi_p`` and ``total`` = j_a + j_c + xi_p are built
    on first access."""

    agent_ids: tuple[str, ...]
    anchor: np.ndarray
    prior: np.ndarray
    rx: np.ndarray
    tx: np.ndarray
    terms: np.ndarray
    topology: Optional[Topology] = None

    def __post_init__(self) -> None:
        n, m = len(self.agent_ids), len(self.rx)
        shapes = dict(anchor=(n, 2, 2), prior=(n, 2, 2), rx=(m,), tx=(m,), terms=(m, 2, 2))
        for name, shape in shapes.items():
            arr = np.array(getattr(self, name), dtype=np.intp if len(shape) == 1 else float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            if arr.ndim == 3:
                arr = 0.5 * (arr + arr.transpose(0, 2, 1))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def j_a(self) -> np.ndarray:
        return _scatter(self.anchor, np.zeros_like(self.prior), *_NO_LINKS).array

    @cached_property
    def j_c(self) -> np.ndarray:
        zero = np.zeros_like(self.anchor)
        return _scatter(zero, zero, self.rx, self.tx, self.terms).array

    @cached_property
    def xi_p(self) -> np.ndarray:
        return _scatter(np.zeros_like(self.anchor), self.prior, *_NO_LINKS).array

    @cached_property
    def total(self) -> BlockMatrix:
        return _scatter(self.anchor, self.prior, self.rx, self.tx, self.terms)

    @cached_property
    def agent_info(self) -> np.ndarray:
        """Every agent's equivalent information, an (n_agents, 2, 2) stack.

        The total is block diagonal over the cooperation components (agents
        joined by links), so block k is the Schur complement onto agent k of
        its component's matrix alone: zero for a component without anchor or
        prior information (it moves as a whole unobserved), else by recursive
        halving (``_halving_reduce``), or where that raises, one agent at a
        time with a pseudo-inverse (``_pinv_reduce``), keeping eigenvalues
        above its rounding error (unless the agent's own anchor links are
        regular) and the singularity rule's threshold. So every block is PSD
        information and nothing raises.
        """
        blocks = np.zeros((self.n_agents, 2, 2))
        labels = _components(self.n_agents, self.rx, self.tx)
        for label in np.unique(labels[self.own_info.any(axis=(1, 2))]):
            agents, held = np.flatnonzero(labels == label), labels[self.rx] == label
            rx, tx = (np.searchsorted(agents, ends[held]) for ends in (self.rx, self.tx))
            part = _scatter(self.anchor[agents], self.prior[agents], rx, tx, self.terms[held])
            try:
                blocks[agents] = _halving_reduce(part.array)
            except np.linalg.LinAlgError:
                # own anchor links bound an agent's information from below,
                # so where they are regular no direction is left to rounding
                reduced, error = _pinv_reduce(part.array)
                own_regular = np.isfinite(speb_blocks(self.anchor[agents]))
                floor = np.where(own_regular, 0.0, len(part.array) * error)
                blocks[agents] = _drop_singular(reduced, floor)
        blocks.flags.writeable = False
        return blocks

    @cached_property
    def own_info(self) -> np.ndarray:
        """Every agent's own (anchor plus prior) information, an
        (n_agents, 2, 2) stack."""
        own = self.anchor + self.prior
        own.flags.writeable = False
        return own

    def pair_info(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The agent pairs k < m that share a link, in ``np.triu_indices``
        order, and each one's C_km, an (n_pairs, 2, 2) stack: the negated
        (k, m) block of ``j_c``, summed and symmetrised as ``j_c`` is."""
        n = self.n_agents
        key = np.minimum(self.rx, self.tx) * n + np.maximum(self.rx, self.tx)
        linked = np.zeros(n * n, dtype=bool)
        linked[key] = True
        keys = np.flatnonzero(linked)
        count = keys.size
        pair = (np.cumsum(linked) - 1)[key]
        # blocks (k, m), then (m, k), of ``_scatter``'s matrix, in its order
        upper = self.rx < self.tx  # (rx, tx) is the (k, m) block
        at = np.concatenate([pair + count * ~upper, pair + count * upper])
        sums = _sum_blocks(2 * count, at, -np.concatenate([self.terms, self.terms]))
        sums = sums.reshape(2, count, 2, 2)
        return keys // n, keys % n, -(0.5 * (sums[0] + sums[1].transpose(0, 2, 1)))

    @property
    def n_agents(self) -> int:
        return len(self.agent_ids)

    def index(self, agent_id: str) -> int:
        try:
            return self.agent_ids.index(agent_id)
        except ValueError:
            raise KeyError(f"unknown agent id {agent_id!r}") from None

    def anchor_block(self, agent_id: str) -> InfoMatrix2:
        return InfoMatrix2.from_array(self.anchor[self.index(agent_id)])


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


_NO_LINKS = (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros((0, 2, 2)))


def _sum_blocks(size: int, at: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The sums of symmetric 2x2 ``terms`` into ``size`` blocks, term i into
    block ``at[i]``, added in the order given (as ``np.add.at`` adds)."""
    s00, s01, s11 = (np.bincount(at, terms[:, a, b], size) for a, b in ((0, 0), (0, 1), (1, 1)))
    return np.stack([s00, s01, s01, s11], axis=-1).reshape(size, 2, 2)


def _scatter(
    anchor: np.ndarray, prior: np.ndarray, rx: np.ndarray, tx: np.ndarray, terms: np.ndarray
) -> BlockMatrix:
    """(j_a + j_c) + xi_p of agents with these stacks and links: j_c sums each
    term on its receiver's, then transmitter's diagonal block, then negated
    on (rx, tx), then (tx, rx), each pass in link order, and symmetrises."""
    n = len(anchor)
    at = np.concatenate([rx * (n + 1), tx * (n + 1), rx * n + tx, tx * n + rx])
    coop = _sum_blocks(n * n, at, np.concatenate([terms, terms, -terms, -terms]))
    mat = coop.reshape(n, n, 2, 2).swapaxes(1, 2).reshape(2 * n, 2 * n)
    mat = 0.5 * (mat + mat.T)
    diagonal = (np.arange(n), np.arange(n))
    _blocks(mat)[diagonal] = (anchor + _blocks(mat)[diagonal]) + prior
    return BlockMatrix(mat)


def _components(n: int, rx: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """Each of n agents' connected component under links (rx, tx), labelled
    0, 1, ... in the order of their smallest members."""
    root = np.arange(n)
    while not np.array_equal(root[rx], root[tx]):
        # hook the larger root of every link onto the smaller, then compress
        np.minimum.at(root, np.maximum(root[rx], root[tx]), np.minimum(root[rx], root[tx]))
        while not np.array_equal(root, root[root]):
            root = root[root]
    return np.unique(root, return_inverse=True)[1]


def build_efim(topo: Topology) -> NetworkEfim:
    """Assemble a network's information from its topology: each agent
    pair's links combine into C_km = (lambda_km + lambda_mk) R(phi_km); with
    ``reciprocal=True`` a link whose reverse is absent from the topology
    counts twice (a present reverse link counts as given, even at zero
    intensity). Independent agent priors fill the prior stack.

    Each link carries rii * R(phi), at its ``phi`` override where given,
    else at the bearing between the evaluation positions: a link from an
    anchor adds it to its receiver's anchor block in link order, a link
    between agents keeps it as its term. Links with a zero term are left
    out. A topology without agents gives the empty network.
    """
    agent_of, pos = topo._agent_of, topo._eval_positions
    src, dst, rii, phi = topo._link_arrays[:4]
    k, m = agent_of[src], agent_of[dst]
    d = pos[src] - pos[dst]
    bearing = np.where(np.isnan(phi), np.arctan2(d[:, 1], d[:, 0]), phi)
    c, s = np.cos(bearing), np.sin(bearing)
    terms = np.empty((rii.size, 2, 2))
    terms[:, 0, 0] = rii * (c * c)
    terms[:, 0, 1] = terms[:, 1, 0] = rii * (c * s)
    terms[:, 1, 1] = rii * (s * s)

    n = int(agent_of.max(initial=-1) + 1)
    to_anchor = m < 0
    anchor = _sum_blocks(n, k[to_anchor], terms[to_anchor])

    coop = ~to_anchor
    k, m, terms = k[coop], m[coop], terms[coop]
    if topo.reciprocal:
        terms = terms * (1.0 + topo._doubled[coop])[:, None, None]
    held = terms.any(axis=(1, 2))
    info = topo.prior_info[topo.is_agent]
    prior = np.where(np.isnan(info), 0.0, info)
    return NetworkEfim(topo.agent_ids, anchor, prior, k[held], m[held], terms[held], topology=topo)


def agent_efim(net: NetworkEfim, agent_id: str) -> InfoMatrix2:
    """One agent's equivalent information: its block of ``net.agent_info``,
    the Schur complement of the network information onto the agent.

    It is defined whatever the other agents are and never raises: an
    unlocalizable agent gets a singular block, which ``speb`` reports as
    unlocalizable, and does not affect any other agent's answer.
    """
    return InfoMatrix2.from_array(net.agent_info[net.index(agent_id)])


def join(net: NetworkEfim, new_agent: Node, links: Iterable[RangingLink]) -> NetworkEfim:
    """The network with one more agent: its topology extended by the
    newcomer, appended as the last node, and its links, then assembled by
    ``build_efim``."""
    if net.topology is None:
        raise ValueError("join requires a NetworkEfim built from a topology")
    if not new_agent.is_agent:
        raise ValueError("only agents can join; anchors are static topology")
    topo = net.topology
    if new_agent.node_id in topo._slot:
        raise ValueError(f"duplicate node id {new_agent.node_id!r}")
    links = tuple(links)
    if any(new_agent.node_id not in (link.from_id, link.to_id) for link in links):
        raise ValueError("join links must involve the joining agent")

    ids = topo.ids + (new_agent.node_id,)
    added = Topology((new_agent,), ())._arrays
    added |= dict(zip(_LINK_FIELDS, _link_arrays_of(links, ids)))
    arrays = {name: np.concatenate([old, added[name]]) for name, old in topo._arrays.items()}
    return build_efim(topo._replace(**arrays, ids=ids))


def leave(net: NetworkEfim, agent_id: str) -> NetworkEfim:
    """The network without one agent: its topology less the agent and its
    links, the rest renumbered, then assembled by ``build_efim``."""
    net.index(agent_id)  # an unknown id, or an anchor's, raises KeyError
    if net.topology is None:
        raise ValueError("leave requires a NetworkEfim built from a topology")
    topo = net.topology
    gone = topo.index(agent_id)
    stays = np.arange(len(topo.is_agent)) != gone
    kept = (topo.src != gone) & (topo.dst != gone)
    arrays = {name: a[kept if name in _LINK_FIELDS else stays] for name, a in topo._arrays.items()}
    for end in ("src", "dst"):
        arrays[end] -= arrays[end] > gone
    return build_efim(topo._replace(**arrays, ids=topo.ids[:gone] + topo.ids[gone + 1 :]))


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
    if not all(math.isfinite(nu) and nu >= 0.0 for nu in step_info):
        raise ValueError("step information must be finite and nonnegative")

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

    Each cooperation link (m <- k) or (k <- m) of the agent k becomes one
    anchor link (m <- k) with its own intensity and overrides (R(phi) is
    pi-periodic), counted twice where the reciprocal rule implies its
    reverse, as ``build_efim`` counts it. k's own anchor links and prior
    disappear with its unknowns; the other agents keep the reciprocal rule.
    """
    k = topo.index(agent_id)
    if not topo.is_agent[k]:
        raise ValueError(f"{agent_id!r} is already an anchor")
    is_agent, info, mean = topo.is_agent.copy(), topo.prior_info.copy(), topo.prior_mean.copy()
    is_agent[k], info[k], mean[k] = False, np.nan, np.nan
    src, dst = topo.src, topo.dst
    flip = src == k
    kept = ~flip | is_agent[dst]  # drop the relabeled node's anchor observations
    rii = topo.rii * (1.0 + (topo._doubled & (flip | (dst == k))))
    return topo._replace(
        is_agent=is_agent, prior_info=info, prior_mean=mean,
        src=np.where(flip, dst, src)[kept], dst=np.where(flip, src, dst)[kept],
        rii=rii[kept], phi=topo.phi[kept], distance=topo.distance[kept],
    )


def anchor_equivalence_check(topo: Topology, agent_id: str, t2: float) -> float:
    """Deviation between an agent with prior diag(t2, t2) reduced out and the
    same node relabeled as an anchor.

    Returns the maximum entrywise deviation relative to the anchor-version
    scale; it tends to zero as t2 grows, which is the numerical content of
    the anchors-are-infinite-prior-agents equivalence.
    """
    if not (math.isfinite(t2) and t2 >= 0.0):
        raise ValueError("prior information t2 must be finite and nonnegative")
    k = topo.index(agent_id)
    if not topo.is_agent[k]:
        raise ValueError(f"{agent_id!r} must be an agent")
    info, mean = topo.prior_info.copy(), topo.prior_mean.copy()
    info[k], mean[k] = np.diag([t2, t2]), np.nan
    net = build_efim(topo._replace(prior_info=info, prior_mean=mean))
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
