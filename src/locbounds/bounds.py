"""Closed-form lower/upper approximations of per-agent information.

Reducing the full network information onto one agent is exact but opaque;
these operations give interpretable closed forms:

- ``effective_rii``: in a two-agent network the peer's contribution is its
  raw intensity nu discounted by the peer's own directional uncertainty,
  eff = nu / (1 + nu * Delta(phi)), where Delta(phi) is the peer's DPEB
  along the inter-agent bearing. As nu grows, eff saturates at 1 / Delta.
- ``two_agent_exact``: the exact per-agent 2x2 information for two
  cooperating agents, J_e = J_A + xi * nu * R(phi).
- ``efim_bounds``: for any network, per-agent information is sandwiched
  between weighted RI sums J_L <= J_e <= J_U whose weights
  xi^L_kj = 1 / (1 + nu Delta_j) and xi^U_kj = 1 / (1 + nu Delta~_j) use,
  respectively, the peer's anchor-only information and the peer's anchor
  information inflated by twice its other cooperation links. With only two
  agents the weights coincide and the sandwich is tight.

Peers whose anchor information is singular along the coupling direction
contribute nothing (xi = 0); this conservative convention is flagged
explicitly in the returned coefficients. A bearing component within
rounding of zero (``_BEARING_DUST``) counts as zero, so a peer whose only
anchor lies on the bearing is not singular across it.

``efim_bounds`` and ``efim_bounds_all`` share one array kernel over all
(k, j) agent pairs: it reads nu and phi of every linked pair at once from
the network's link list, as ``NetworkEfim.pair_info`` sums it (rejecting
pairs whose block is not rank one), forms Delta and Delta~ with
the eigen-form rule and ``_EIG_ZERO_REL`` test of ``peer_dpeb``, and sums
J_L and J_U with ``einsum``. The scalar ``effective_rii`` is the reference
the kernel is tested against. Identical inputs give bit-identical outputs,
and two cooperating agents get exactly equal J_L and J_U.

``bound_spebs`` reads the kernel's stacks as arrays: every agent's SPEB of
J_L and of J_U, through ``speb_blocks``, after the checks the objects run,
vectorised. The Monte Carlo studies and ``locbounds bounds`` read it;
``efim_bounds``/``efim_bounds_all`` build an ``InfoMatrix2`` pair and a
``CooperationCoeffs`` per agent from the same arrays for callers that want
objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .infogeo import (
    PSD_TOL,
    EllipseForm,
    InfoMatrix2,
    min_eig_blocks,
    rdm,
    speb_blocks,
)
from .network import NetworkEfim, Topology, build_efim

__all__ = [
    "EffectiveRii",
    "CooperationCoeffs",
    "peer_dpeb",
    "effective_rii",
    "two_agent_exact",
    "efim_bounds",
    "efim_bounds_all",
    "bound_spebs",
]


class EffectiveRii(NamedTuple):
    """Discounted cooperation intensity with its discount factor."""

    xi: float
    eff: float
    peer_singular: bool


@dataclass(frozen=True)
class CooperationCoeffs:
    """Per-peer discount coefficients of the lower/upper approximations.

    Satisfies 0 <= xi_l <= xi_u <= 1 entrywise; ``singular_peers`` flags
    peers whose anchor information could not be inverted along the coupling
    direction (their xi_l is the conservative 0).
    """

    peer_ids: tuple[str, ...]
    xi_l: np.ndarray
    xi_u: np.ndarray
    singular_peers: tuple[bool, ...]

    def __post_init__(self) -> None:
        xi_l = np.array(self.xi_l, dtype=float)
        xi_u = np.array(self.xi_u, dtype=float)
        if xi_l.shape != (len(self.peer_ids),) or xi_u.shape != xi_l.shape:
            raise ValueError("coefficient arrays must match peer_ids")
        if np.any(xi_l < -1e-12) or np.any(xi_u > 1.0 + 1e-12) or np.any(xi_l > xi_u + 1e-12):
            raise ValueError("coefficients must satisfy 0 <= xi_l <= xi_u <= 1")
        xi_l.flags.writeable = False
        xi_u.flags.writeable = False
        object.__setattr__(self, "xi_l", xi_l)
        object.__setattr__(self, "xi_u", xi_u)


# An eigenvalue this far below the dominant one is float dust from a
# rank-deficient construction, not information; anisotropy up to the
# reciprocal of this ratio is honored (a peer that is merely very certain
# in one direction is not singular).
_EIG_ZERO_REL = 1e-13

# A squared bearing component (cos^2 or sin^2 of theta - phi) this small is
# rounding in the angles, not a direction: a few ulps of pi, squared. It
# counts as zero, so a peer is never singular across a bearing it lies on.
_BEARING_DUST = (4.0 * math.ulp(math.pi)) ** 2


def peer_dpeb(e: EllipseForm, phi: float) -> float:
    """Directional error bound of a peer along ``phi`` from its eigen form.

    Delta(phi) = cos^2(theta - phi)/mu + sin^2(theta - phi)/eta; infinite
    when the peer carries no information along the bearing. A component
    within rounding of zero (``_BEARING_DUST``) counts as zero.
    """
    rel = e.theta - phi
    c2 = math.cos(rel) ** 2
    s2 = math.sin(rel) ** 2
    tol = _EIG_ZERO_REL * max(e.mu, 0.0)
    out = 0.0
    if c2 > _BEARING_DUST:
        if e.mu <= tol:
            return math.inf
        out += c2 / e.mu
    if s2 > _BEARING_DUST:
        if e.eta <= tol:
            return math.inf
        out += s2 / e.eta
    return out


def effective_rii(ja_peer: EllipseForm, nu: float, phi: float) -> EffectiveRii:
    """Cooperation intensity usable by an agent, given its peer's own bound.

    xi = 1 / (1 + nu * Delta(phi)) and eff = xi * nu; eff increases
    monotonically in nu and saturates at 1 / Delta(phi). A peer singular
    along phi contributes nothing (xi = 0, flagged).
    """
    if nu < 0.0:
        raise ValueError("cooperation intensity must be nonnegative")
    delta = peer_dpeb(ja_peer, phi)
    if math.isinf(delta):
        return EffectiveRii(xi=0.0, eff=0.0, peer_singular=True)
    xi = 1.0 / (1.0 + nu * delta)
    return EffectiveRii(xi=xi, eff=xi * nu, peer_singular=False)


def two_agent_exact(
    ja1: InfoMatrix2, ja2: InfoMatrix2, nu: float, phi: float
) -> tuple[InfoMatrix2, InfoMatrix2]:
    """Exact per-agent information for two cooperating agents.

    J_e(p1) = J_A(p1) + xi_12 nu R(phi) with xi_12 = 1 / (1 + nu Delta_2)
    and Delta_2 = q^T J_A(p2)^-1 q; symmetrically for agent 2. Equals the
    4x4 joint reduction. Uses the direct quadratic form for Delta (the
    eigen-form route in ``effective_rii`` is the cross check).
    """
    if nu < 0.0:
        raise ValueError("cooperation intensity must be nonnegative")
    q = np.array([math.cos(phi), math.sin(phi)])
    r = rdm(phi)

    def _one(own: InfoMatrix2, peer: InfoMatrix2) -> InfoMatrix2:
        eig_max, eig_min = peer.eigenvalues()
        if eig_min <= _EIG_ZERO_REL * max(eig_max, 0.0):
            delta = math.inf
        else:
            delta = float(q @ np.linalg.solve(peer.as_array(), q))
        xi = 0.0 if math.isinf(delta) else 1.0 / (1.0 + nu * delta)
        return own + r.scaled(xi * nu)

    return _one(ja1, ja2), _one(ja2, ja1)


def _eigen_form(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray):
    """Elementwise (mu, eta, theta) of 2x2 blocks, the rule of ``to_ellipse``."""
    half_tr = 0.5 * (a11 + a22)
    disc = np.hypot(0.5 * (a11 - a22), a12)
    mu = half_tr + disc
    eta = np.maximum(half_tr - disc, 0.0)
    theta = 0.5 * np.arctan2(2.0 * a12, a11 - a22)
    theta = np.where(theta < 0.0, theta + math.pi, theta)
    return mu, eta, np.where(mu <= eta, 0.0, theta)


def _peer_dpeb(mu: np.ndarray, eta: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Elementwise ``peer_dpeb``: inf where the peer is singular along phi."""
    rel = theta - phi
    c2 = np.cos(rel) ** 2
    s2 = np.sin(rel) ** 2
    tol = _EIG_ZERO_REL * np.maximum(mu, 0.0)
    along = c2 > _BEARING_DUST
    across = s2 > _BEARING_DUST
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(along, c2 / mu, 0.0) + np.where(across, s2 / eta, 0.0)
    singular = (along & (mu <= tol)) | (across & (eta <= tol))
    return np.where(singular, math.inf, delta)


def _xi(nu: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Elementwise ``effective_rii`` discount: 0 for an infinite Delta."""
    finite = np.isfinite(delta)
    return np.where(finite, 1.0 / (1.0 + nu * np.where(finite, delta, 0.0)), 0.0)


def _bounds_arrays(net: NetworkEfim):
    """Closed-form bounds for all agents at once.

    Returns (J_L, J_U) as (n, 2, 2) stacks, the (n, n) coefficient arrays
    xi_l, xi_u and the singular-peer flags, and the (n, n) mask of
    cooperating pairs. Raises when a pair block is not rank one
    (Prop.-4-style bounds assume each cooperation block is a single ranging
    direction).
    """
    n = net.n_agents
    # (nu, phi) of each linked pair k < m, mirrored, so C_km and C_mk agree exactly
    k_u, m_u, c = net.pair_info()
    nu_u = c[:, 0, 0] + c[:, 1, 1]
    phi_u = 0.5 * np.arctan2(2.0 * c[:, 0, 1], c[:, 0, 0] - c[:, 1, 1])
    cos_u, sin_u = np.cos(phi_u), np.sin(phi_u)
    rdm_u = np.stack([cos_u * cos_u, cos_u * sin_u, cos_u * sin_u, sin_u * sin_u], axis=-1)
    rdm_u = rdm_u.reshape(-1, 2, 2)
    residual = np.abs(c - nu_u[:, None, None] * rdm_u).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(residual > 1e-8 * nu_u)
    if bad.size:
        k, m = k_u[bad[0]], m_u[bad[0]]
        raise ValueError(
            f"cooperation block between agents {net.agent_ids[k]!r} and "
            f"{net.agent_ids[m]!r} is not rank one; the closed-form bounds "
            "require a single coupling direction per pair"
        )

    nu = np.zeros((n, n))
    phi = np.zeros((n, n))
    rdm_all = np.zeros((n, n, 2, 2))
    for rows, cols in ((k_u, m_u), (m_u, k_u)):
        nu[rows, cols] = nu_u
        phi[rows, cols] = phi_u
        rdm_all[rows, cols] = rdm_u
    linked = nu > 0.0
    coop = nu[:, :, None, None] * rdm_all  # nu_kj R(phi_kj), zero off the links
    coop_sums = coop.sum(axis=1)

    own = net.own_info
    # peer j as seen from agent k: its own information (lower), and that
    # plus twice its other cooperation links (upper)
    mu, eta, theta = _eigen_form(own[:, 0, 0], own[:, 0, 1], own[:, 1, 1])
    delta_l = _peer_dpeb(mu[None, :], eta[None, :], theta[None, :], phi)
    inflated = own[None, :] + 2.0 * (coop_sums[None, :] - coop)
    delta_u = _peer_dpeb(
        *_eigen_form(inflated[..., 0, 0], inflated[..., 0, 1], inflated[..., 1, 1]), phi
    )
    xi_u = _xi(nu, delta_u)
    # inflating the peer can only shrink Delta, so xi_u >= xi_l; guard the
    # float boundary so the invariant holds exactly
    xi_l = np.minimum(_xi(nu, delta_l), xi_u)
    low = own + np.einsum("kj,kjab->kab", xi_l * nu, rdm_all)
    high = own + np.einsum("kj,kjab->kab", xi_u * nu, rdm_all)
    return low, high, xi_l, xi_u, np.isinf(delta_l), linked


def _agent_bounds(net: NetworkEfim, arrays, k: int):
    low, high, xi_l, xi_u, singular, linked = arrays
    peers = np.flatnonzero(linked[k])
    coeffs = CooperationCoeffs(
        peer_ids=tuple(net.agent_ids[j] for j in peers),
        xi_l=xi_l[k, peers],
        xi_u=xi_u[k, peers],
        singular_peers=tuple(singular[k, peers].tolist()),
    )
    return InfoMatrix2.from_array(low[k]), InfoMatrix2.from_array(high[k]), coeffs


def efim_bounds(
    topo: Topology | NetworkEfim, agent_id: str
) -> tuple[InfoMatrix2, InfoMatrix2, CooperationCoeffs]:
    """Sandwich one agent's information between closed-form RI sums.

    Returns (J_L, J_U, coeffs) with J_L <= J_e(p_k) <= J_U in the PSD order,
    hence trace(J_U^-1) <= SPEB <= trace(J_L^-1). Agent priors, if any, ride
    along additively on both sides.
    """
    net = topo if isinstance(topo, NetworkEfim) else build_efim(topo)
    k = net.index(agent_id)
    return _agent_bounds(net, _bounds_arrays(net), k)


def efim_bounds_all(
    topo: Topology | NetworkEfim,
) -> dict[str, tuple[InfoMatrix2, InfoMatrix2, CooperationCoeffs]]:
    """``efim_bounds`` for every agent from one evaluation of the kernel."""
    net = topo if isinstance(topo, NetworkEfim) else build_efim(topo)
    arrays = _bounds_arrays(net)
    return {agent_id: _agent_bounds(net, arrays, k) for k, agent_id in enumerate(net.agent_ids)}


def _symmetric(blocks: np.ndarray) -> np.ndarray:
    """The stack as ``InfoMatrix2.from_array`` reads each block: the mean of
    the off-diagonal pair, the diagonal as it is."""
    out = blocks.copy()
    out[:, 0, 1] = out[:, 1, 0] = 0.5 * (blocks[:, 0, 1] + blocks[:, 1, 0])
    return out


def _rejected(blocks: np.ndarray) -> np.ndarray:
    """Per block of a symmetric stack, whether ``InfoMatrix2`` rejects it:
    a nonfinite entry, or not PSD within ``PSD_TOL`` of its trace."""
    a11, a12, a22 = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
    tol = PSD_TOL * np.maximum(a11 + a22, 0.0)
    finite = np.isfinite(a11) & np.isfinite(a12) & np.isfinite(a22)
    return ~finite | (a11 < -tol) | (a22 < -tol) | (min_eig_blocks(blocks) < -tol)


def bound_spebs(net: NetworkEfim) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's SPEB of J_L and of J_U, as arrays in agent order.

    The first bounds the exact SPEB from above, the second from below;
    each is ``speb`` of the block ``efim_bounds_all`` returns, inf where
    ``is_singular`` holds. The blocks pass the checks of ``InfoMatrix2``
    as arrays; where one fails, the first failing agent's objects are
    built, so the error is the one ``efim_bounds_all`` raises. The
    coefficients pass ``CooperationCoeffs``' checks by construction: each
    xi = 1 / (1 + nu Delta), nu, Delta >= 0, and xi_l <= xi_u by clipping.
    """
    arrays = _bounds_arrays(net)
    low, high = _symmetric(arrays[0]), _symmetric(arrays[1])
    with np.errstate(invalid="ignore", over="ignore"):
        faults = _rejected(low) | _rejected(high)
    for k in np.flatnonzero(faults):
        _agent_bounds(net, arrays, k)  # raises the constructors' own error
    return speb_blocks(low), speb_blocks(high)
