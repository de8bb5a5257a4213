"""Value-level algebra of 2x2 position-information matrices.

Everything in this package ultimately reduces to operations on small
symmetric positive semi-definite information matrices (units 1/m^2):

- ``rdm(phi)`` builds the rank-one ranging direction matrix q q^T along a
  bearing, the atom from which all network information is assembled;
- ``to_ellipse`` / ``EllipseForm.to_matrix`` convert between the matrix and
  its (mu, eta, theta) eigen-parametrization, i.e. the information ellipse;
- ``speb`` / ``dpeb`` evaluate the squared and directional position error
  bounds trace(J^-1) and u^T J^-1 u; ``speb_blocks`` is ``speb`` over a
  stack of blocks (``min_eig_blocks`` gives their smallest eigenvalues),
  and ``is_singular`` is the one singularity rule all of them (and the
  network reduction) apply, with one ``np.hypot``. All three divide by
  the determinant of the block scaled by the power of two of its trace:
  exact, and a regular block's determinant stays in float range;
- ``schur_reduce`` performs the equivalent-information reduction
  A - B C^-1 B^T on block matrices;
- ``fuse_anchor`` applies the closed-form ellipse update for one extra
  rank-one information contribution.

All types are immutable values and all operations are pure functions, so
they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PSD_TOL",
    "UNLOCALIZABLE",
    "Unlocalizable",
    "SingularComplementError",
    "InfoMatrix2",
    "EllipseForm",
    "BlockMatrix",
    "rdm",
    "rdm3d",
    "to_ellipse",
    "is_singular",
    "speb",
    "speb_blocks",
    "min_eig_blocks",
    "rejected_blocks",
    "dpeb",
    "schur_reduce",
    "fuse_anchor",
    "rotate",
    "wrap_angle",
]

# Relative eigenvalue tolerance: lambda_min >= -PSD_TOL * trace counts as PSD.
# Schur complements of well-posed problems routinely produce eigenvalues of
# this size below zero.
PSD_TOL = 1e-9


class Unlocalizable(float):
    """Tagged infinite error bound.

    Compares and computes like ``math.inf`` but is a distinct type, so a
    caller holding one ``speb``/``dpeb`` value can test for it by identity.
    """

    __slots__ = ()

    def __new__(cls) -> "Unlocalizable":
        return super().__new__(cls, math.inf)

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "unlocalizable"


#: Singleton returned by ``speb``/``dpeb`` for singular information matrices.
UNLOCALIZABLE = Unlocalizable()


class SingularComplementError(np.linalg.LinAlgError):
    """Raised when the block to be eliminated in a Schur reduction is singular.

    A singular complement means at least one eliminated 2x2 block carries no
    invertible information, i.e. the corresponding eliminated agent is
    unlocalizable. ``blocks`` names the offending block indices when they can
    be identified.
    """

    def __init__(self, message: str, blocks: tuple[int, ...] = ()):
        super().__init__(message)
        self.blocks = blocks


def wrap_angle(theta: float) -> float:
    """Normalize an orientation angle into [0, pi)."""
    theta = math.fmod(theta, math.pi)
    if theta < 0.0:
        theta += math.pi
    if theta >= math.pi:  # fmod edge when theta == -0.0 + pi
        theta -= math.pi
    return theta


@dataclass(frozen=True)
class InfoMatrix2:
    """Symmetric PSD 2x2 information block, stored as three scalars (1/m^2)."""

    a11: float
    a12: float
    a22: float

    def __post_init__(self) -> None:
        for name in ("a11", "a12", "a22"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"InfoMatrix2.{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        tr = self.a11 + self.a22
        tol = PSD_TOL * max(tr, 0.0)
        if self.a11 < -tol or self.a22 < -tol or self.eigenvalues()[1] < -tol:
            raise ValueError(
                f"InfoMatrix2 is not PSD within tolerance: "
                f"[[{self.a11}, {self.a12}], [{self.a12}, {self.a22}]]"
            )

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "InfoMatrix2":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (2, 2):
            raise ValueError(f"expected a 2x2 array, got shape {arr.shape}")
        return cls(float(arr[0, 0]), 0.5 * float(arr[0, 1] + arr[1, 0]), float(arr[1, 1]))

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]], dtype=float)

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalues (largest first) from the closed 2x2 form, with the
        hypot of ``min_eig_blocks`` so both give one singularity verdict."""
        half_tr = 0.5 * (self.a11 + self.a22)
        disc = float(np.hypot(0.5 * (self.a11 - self.a22), self.a12))
        return half_tr + disc, half_tr - disc

    def __add__(self, other: "InfoMatrix2") -> "InfoMatrix2":
        if not isinstance(other, InfoMatrix2):
            return NotImplemented
        return InfoMatrix2(self.a11 + other.a11, self.a12 + other.a12, self.a22 + other.a22)

    def scaled(self, factor: float) -> "InfoMatrix2":
        if factor < 0.0:
            raise ValueError("information matrices only scale by nonnegative factors")
        return InfoMatrix2(factor * self.a11, factor * self.a12, factor * self.a22)


@dataclass(frozen=True)
class EllipseForm:
    """Eigen-parametrization (mu, eta, theta) of a 2x2 information matrix.

    ``mu >= eta >= 0`` are the information eigenvalues and ``theta`` in
    [0, pi) rotates the major axis from the x axis. Exactly degenerate
    eigenvalues pin theta = 0 since the ellipse is rotationally symmetric.
    The axis-length convention (sqrt(mu) vs 1/sqrt(mu)) is left to consumers;
    only (mu, eta, theta) are reported.
    """

    mu: float
    eta: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("mu", "eta", "theta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.mu) and math.isfinite(self.eta) and math.isfinite(self.theta)):
            raise ValueError("EllipseForm fields must be finite")
        if self.eta < -PSD_TOL * max(self.mu, 0.0) or self.mu < 0.0:
            raise ValueError(f"EllipseForm requires mu >= eta >= 0, got ({self.mu}, {self.eta})")
        if self.mu < self.eta:
            raise ValueError(f"EllipseForm requires mu >= eta, got ({self.mu}, {self.eta})")
        object.__setattr__(self, "eta", max(self.eta, 0.0))
        theta = wrap_angle(self.theta)
        if self.mu == self.eta:
            theta = 0.0
        object.__setattr__(self, "theta", theta)

    def to_matrix(self) -> InfoMatrix2:
        c = math.cos(self.theta)
        s = math.sin(self.theta)
        return InfoMatrix2(
            self.mu * c * c + self.eta * s * s,
            (self.mu - self.eta) * s * c,
            self.mu * s * s + self.eta * c * c,
        )


def rdm(phi: float) -> InfoMatrix2:
    """Ranging direction matrix q q^T for bearing ``phi`` (radians).

    Trace 1, rank 1, eigenvector along phi; pi-periodic in phi.
    """
    if not math.isfinite(phi):
        raise ValueError("angle must be finite")
    c = math.cos(phi)
    s = math.sin(phi)
    return InfoMatrix2(c * c, c * s, s * s)


def rdm3d(varphi: float, phi: float) -> np.ndarray:
    """Rank-one 3x3 direction matrix for spherical bearing (varphi, phi).

    The unit vector is q = (cos varphi cos phi, sin varphi cos phi, sin phi),
    with varphi the azimuth and phi the elevation.
    """
    if not (math.isfinite(varphi) and math.isfinite(phi)):
        raise ValueError("angles must be finite")
    q = np.array(
        [
            math.cos(varphi) * math.cos(phi),
            math.sin(varphi) * math.cos(phi),
            math.sin(phi),
        ]
    )
    return np.outer(q, q)


def to_ellipse(j: InfoMatrix2) -> EllipseForm:
    """Eigen-decompose a PSD information matrix into (mu, eta, theta).

    Round-trips with ``EllipseForm.to_matrix`` and preserves the trace
    (mu + eta = trace). Rejects matrices that fail the PSD tolerance.
    """
    mu, eta = j.eigenvalues()
    if eta < -PSD_TOL * max(j.trace, 0.0):
        raise ValueError("matrix is not PSD within tolerance")
    eta = max(eta, 0.0)
    if mu <= eta:
        return EllipseForm(mu, eta, 0.0)
    theta = 0.5 * math.atan2(2.0 * j.a12, j.a11 - j.a22)
    return EllipseForm(mu, eta, wrap_angle(theta))


def is_singular(trace, eig_min):
    """The singularity rule: information whose smallest eigenvalue is at most
    ``PSD_TOL`` times its own (nonnegative) trace cannot bound the error.
    Takes floats or arrays alike."""
    # 0.5 * (t + |t|) is exactly max(t, 0), for floats and arrays
    return eig_min <= PSD_TOL * 0.5 * (trace + abs(trace))


def _unit_scaled(j: InfoMatrix2) -> tuple[InfoMatrix2, int]:
    """The block times 2^-e, exactly, and e, the binary exponent of its
    trace: a regular block's determinant then stays in float range."""
    e = math.frexp(j.trace)[1]
    return InfoMatrix2(*(math.ldexp(v, -e) for v in (j.a11, j.a12, j.a22))), e


def speb(j: InfoMatrix2) -> float:
    """Squared position error bound trace(J^-1) = 1/mu + 1/eta.

    Returns ``UNLOCALIZABLE`` when the matrix is singular within tolerance
    (rank-deficient information cannot bound the error).
    """
    _, eig_min = j.eigenvalues()
    if is_singular(j.trace, eig_min):
        return UNLOCALIZABLE
    s, e = _unit_scaled(j)
    return math.ldexp(s.trace / s.det, -e)


def min_eig_blocks(blocks: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of every symmetric 2x2 block of an (n, 2, 2)
    stack, in the closed form of ``InfoMatrix2.eigenvalues``."""
    a11, a12, a22 = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
    return 0.5 * (a11 + a22) - np.hypot(0.5 * (a11 - a22), a12)


def rejected_blocks(blocks: np.ndarray) -> np.ndarray:
    """Per block of a symmetric stack, whether ``InfoMatrix2`` rejects it:
    a nonfinite entry, or not PSD within ``PSD_TOL`` of its trace."""
    a11, a12, a22 = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
    tol = PSD_TOL * np.maximum(a11 + a22, 0.0)
    finite = np.isfinite(a11) & np.isfinite(a12) & np.isfinite(a22)
    return ~finite | (a11 < -tol) | (a22 < -tol) | (min_eig_blocks(blocks) < -tol)


def speb_blocks(blocks: np.ndarray) -> np.ndarray:
    """``speb`` of every symmetric 2x2 block of an (n, 2, 2) stack, with inf
    where ``is_singular`` holds."""
    a11, a12, a22 = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
    tr = a11 + a22
    singular = is_singular(tr, min_eig_blocks(blocks))
    # speb's scaling by the power of two of the trace, block by block
    e = np.frexp(tr)[1]
    a11, a12, a22 = (np.ldexp(v, -e) for v in (a11, a12, a22))
    det = np.where(singular, 1.0, a11 * a22 - a12 * a12)
    return np.where(singular, math.inf, np.ldexp((a11 + a22) / det, -e))


def dpeb(j: InfoMatrix2, u: Sequence[float]) -> float:
    """Directional position error bound u^T J^-1 u for a unit direction u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (2,):
        raise ValueError("direction must be a 2-vector")
    if abs(float(u @ u) - 1.0) > 1e-9:
        raise ValueError("direction must have unit norm")
    _, eig_min = j.eigenvalues()
    if is_singular(j.trace, eig_min):
        return UNLOCALIZABLE
    # Closed 2x2 inverse J^-1 = adj(J) / det, on speb's scaled block.
    s, e = _unit_scaled(j)
    quad = s.a22 * u[0] * u[0] - 2.0 * s.a12 * u[0] * u[1] + s.a11 * u[1] * u[1]
    return math.ldexp(quad / s.det, -e)


def rotate(j: InfoMatrix2, angle: float) -> InfoMatrix2:
    """Express ``j`` in a coordinate frame rotated by ``angle``: U^T J U."""
    c = math.cos(angle)
    s = math.sin(angle)
    u = np.array([[c, -s], [s, c]])
    return InfoMatrix2.from_array(u.T @ j.as_array() @ u)


@dataclass(frozen=True)
class BlockMatrix:
    """Symmetric matrix of 2x2 blocks: a read-only (2n, 2n) array."""

    array: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.array, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 != 0:
            raise ValueError(f"expected a square 2n x 2n array, got shape {arr.shape}")
        scale = float(np.max(np.abs(arr))) if arr.size else 0.0
        if scale and float(np.max(np.abs(arr - arr.T))) > 1e-8 * scale:
            raise ValueError("block matrix must be symmetric")
        arr = 0.5 * (arr + arr.T)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def n_blocks(self) -> int:
        return self.array.shape[0] // 2


def _expand_block_indices(blocks: Sequence[int], n_blocks: int) -> np.ndarray:
    idx = []
    for k in blocks:
        if not 0 <= k < n_blocks:
            raise IndexError(f"block index {k} out of range for {n_blocks} blocks")
        idx.extend((2 * k, 2 * k + 1))
    return np.asarray(idx, dtype=int)


def schur_reduce(
    m: BlockMatrix | np.ndarray,
    keep: Sequence[int],
    use_pinv: bool = False,
) -> BlockMatrix:
    """Equivalent-information reduction onto the kept blocks: A - B C^-1 B^T.

    ``keep`` lists the retained block indices (order preserved). The
    eliminated principal submatrix C is factored symmetrically (Cholesky);
    a singular C raises ``SingularComplementError`` naming the offending
    blocks, because it means an eliminated agent carries no invertible
    information. Pass ``use_pinv=True`` to opt into a pseudo-inverse instead.

    For positive definite ``m`` the result satisfies
    ``[m^-1]_keep == result^-1``.
    """
    # imported here, not with the module: no command calls this, and
    # scipy.linalg would be most of the package's import time
    from scipy.linalg import cho_factor, cho_solve, pinvh

    if isinstance(m, BlockMatrix):
        bm = m
    else:
        bm = BlockMatrix(np.asarray(m, dtype=float))
    keep = list(dict.fromkeys(keep))  # preserve order, drop duplicates
    n = bm.n_blocks
    keep_idx = _expand_block_indices(keep, n)
    drop_blocks = [k for k in range(n) if k not in set(keep)]
    if not drop_blocks:
        return BlockMatrix(bm.array.copy())
    drop_idx = _expand_block_indices(drop_blocks, n)

    arr = bm.array
    a = arr[np.ix_(keep_idx, keep_idx)]
    b = arr[np.ix_(keep_idx, drop_idx)]
    c = arr[np.ix_(drop_idx, drop_idx)]

    if use_pinv:
        reduced = a - b @ pinvh(c) @ b.T
    else:
        try:
            factor = cho_factor(c, lower=True)
        except np.linalg.LinAlgError as exc:
            bad = _singular_blocks(c, drop_blocks)
            names = ", ".join(str(k) for k in bad) if bad else ", ".join(str(k) for k in drop_blocks)
            raise SingularComplementError(
                f"eliminated information block(s) [{names}] are singular; "
                "the corresponding eliminated agents are unlocalizable "
                "(pass use_pinv=True to opt into a pseudo-inverse)",
                blocks=bad or tuple(drop_blocks),
            ) from exc
        reduced = a - b @ cho_solve(factor, b.T)
    reduced = 0.5 * (reduced + reduced.T)
    return BlockMatrix(reduced)


def _singular_blocks(c: np.ndarray, drop_blocks: Sequence[int]) -> tuple[int, ...]:
    """The eliminated diagonal 2x2 blocks that ``is_singular`` calls
    singular on their own trace."""
    i = np.arange(len(drop_blocks))
    own = c.reshape(i.size, 2, i.size, 2)[i, :, i, :]
    singular = is_singular(own[:, 0, 0] + own[:, 1, 1], min_eig_blocks(own))
    return tuple(k for k, bad in zip(drop_blocks, singular) if bad)


def fuse_anchor(e: EllipseForm, nu: float, phi: float) -> tuple[EllipseForm, float]:
    """Closed-form ellipse update for one extra rank-one contribution nu at phi.

    Returns the updated (mu, eta, theta) and the updated squared error bound;
    both are algebraically identical to eigen-decomposing
    ``e.to_matrix() + nu * rdm(phi)``. Over phi at fixed nu, the bound is
    minimized at phi = theta +- pi/2 (pushing on the weak axis) and maximized
    at phi = theta (mod pi).
    """
    if nu < 0.0:
        raise ValueError("information intensity must be nonnegative")
    mu, eta, theta = e.mu, e.eta, e.theta
    phip = phi - theta
    cos2 = math.cos(2.0 * phip)
    sin2 = math.sin(2.0 * phip)
    half_sum = 0.5 * (mu + eta + nu)
    half_gap = 0.5 * math.hypot(mu - eta + nu * cos2, nu * sin2)
    mu_new = half_sum + half_gap
    eta_new = half_sum - half_gap
    theta_new = theta + 0.5 * math.atan2(nu * sin2, mu - eta + nu * cos2)
    updated = EllipseForm(mu_new, max(eta_new, 0.0), theta_new)

    # the bound on the scaled values, as in speb
    scale = math.frexp(mu + eta + nu)[1]
    mu, eta, nu = (math.ldexp(v, -scale) for v in (mu, eta, nu))
    denom = mu * eta + nu * (eta + (mu - eta) * math.sin(phip) ** 2)
    total = mu + eta + nu
    if denom <= PSD_TOL * max(total, 0.0) ** 2:
        return updated, UNLOCALIZABLE
    return updated, math.ldexp(total / denom, -scale)
