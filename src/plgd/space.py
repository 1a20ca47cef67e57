"""Finite-dimensional weighted Hilbert spaces, vectors and linear operators.

Vectors are stored in raw coordinates and all weighting lives in the inner
product: a space with per-coordinate weights ``w`` carries

    inner(u, v) = sum_k w_k * u_k * v_k

Unit weights realize parameter spaces; repeating each sample mass over an
output block realizes the L2 space of functions on a weighted point set.
Everything is plain float64 numpy; spaces, vectors and operators are
immutable after construction and safe to share.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NotSelfAdjoint, SolverCapExceeded

#: largest dimension accepted by the dense symmetric eigensolver
DENSE_EIG_CAP = 4096

#: default relative tolerance of iterative estimates (power iteration)
ITER_TOL = 1e-6

#: default tolerance of exact identities (adjointness, symmetry)
IDENTITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class WeightedSpace:
    """A finite-dimensional Hilbert space with a diagonal weighted metric.

    Parameters
    ----------
    weights:
        Strictly positive coordinate weights, one per dimension.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DimensionMismatch("weights must be a non-empty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def unit(dim: int) -> "WeightedSpace":
        """Euclidean space of the given dimension (all weights 1)."""
        return WeightedSpace(np.ones(int(dim)))

    @property
    def dim(self) -> int:
        return self.weights.size

    def _coords(self, u) -> np.ndarray:
        c = u.coords if isinstance(u, SpaceVec) else np.asarray(u, dtype=float)
        if c.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected coordinates of shape ({self.dim},), got {c.shape}"
            )
        return c

    def inner(self, u, v) -> float:
        """Weighted inner product ``sum_k w_k u_k v_k``."""
        cu, cv = self._coords(u), self._coords(v)
        return float(np.dot(self.weights * cu, cv))

    def norm(self, u) -> float:
        c = self._coords(u)
        return float(np.sqrt(np.dot(self.weights * c, c)))

    def vec(self, coords) -> "SpaceVec":
        return SpaceVec(self, np.asarray(coords, dtype=float))

    def zeros(self) -> "SpaceVec":
        return SpaceVec(self, np.zeros(self.dim))

    def compatible(self, other: "WeightedSpace") -> bool:
        return self is other or (
            self.dim == other.dim and np.array_equal(self.weights, other.weights)
        )


@dataclass(frozen=True, eq=False)
class SpaceVec:
    """A vector of a :class:`WeightedSpace`, stored in raw coordinates."""

    space: WeightedSpace
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.space.dim,):
            raise DimensionMismatch(
                f"coordinate length {c.shape} does not match space dim {self.space.dim}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("vector coordinates must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def norm(self) -> float:
        return self.space.norm(self.coords)

    def inner(self, other: "SpaceVec") -> float:
        return self.space.inner(self.coords, other.coords)

    def __add__(self, other: "SpaceVec") -> "SpaceVec":
        return SpaceVec(self.space, self.coords + self.space._coords(other))

    def __sub__(self, other: "SpaceVec") -> "SpaceVec":
        return SpaceVec(self.space, self.coords - self.space._coords(other))

    def __rmul__(self, scalar: float) -> "SpaceVec":
        return SpaceVec(self.space, float(scalar) * self.coords)


@dataclass(frozen=True, eq=False)
class LinOp:
    """A linear map between weighted spaces with an explicit adjoint.

    ``adjoint_fn`` must satisfy ``<A u, v>_codomain == <u, A* v>_domain``
    with respect to the two weighted inner products; :func:`adjoint_defect`
    probes the identity on random vectors.  ``mat`` is the coordinate
    matrix when the operator is built from one (kept as a read-only view);
    :meth:`matrix` then returns it instead of probing.
    """

    domain: WeightedSpace
    codomain: WeightedSpace
    apply_fn: Callable[[np.ndarray], np.ndarray]
    adjoint_fn: Callable[[np.ndarray], np.ndarray]
    mat: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mat is not None:
            view = np.asarray(self.mat, dtype=float).view()
            view.setflags(write=False)
            object.__setattr__(self, "mat", view)

    def apply(self, u) -> np.ndarray:
        return np.asarray(self.apply_fn(self.domain._coords(u)), dtype=float)

    def adjoint_apply(self, v) -> np.ndarray:
        return np.asarray(self.adjoint_fn(self.codomain._coords(v)), dtype=float)

    @staticmethod
    def from_matrix(domain: WeightedSpace, codomain: WeightedSpace, mat) -> "LinOp":
        """Wrap a coordinate matrix; the adjoint is derived from the metrics.

        For ``A`` acting as ``u -> M u`` the weighted adjoint acts as
        ``v -> D_dom^-1 M^T D_cod v``.
        """
        m = np.asarray(mat, dtype=float)
        if m.shape != (codomain.dim, domain.dim):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not map dim {domain.dim} -> {codomain.dim}"
            )
        adj = (m.T * codomain.weights[None, :]) / domain.weights[:, None]
        return LinOp(domain, codomain, lambda u: m @ u, lambda v: adj @ v, mat=m)

    @staticmethod
    def identity(space: WeightedSpace) -> "LinOp":
        return LinOp(space, space, lambda u: u, lambda v: v)

    def matrix(self) -> np.ndarray:
        """Dense coordinate representation (columns = images of basis vectors):
        the carried ``mat`` when there is one, else probed column by column."""
        if self.mat is not None:
            return self.mat
        cols = [self.apply(e) for e in np.eye(self.domain.dim)]
        return np.stack(cols, axis=1)

    def __sub__(self, other: "LinOp") -> "LinOp":
        if not (self.domain.compatible(other.domain) and self.codomain.compatible(other.codomain)):
            raise DimensionMismatch("operator difference requires matching spaces")
        return LinOp(
            self.domain,
            self.codomain,
            lambda u: self.apply_fn(u) - other.apply_fn(u),
            lambda v: self.adjoint_fn(v) - other.adjoint_fn(v),
        )

    def gram(self) -> "LinOp":
        """The self-adjoint composition ``A A*`` on the codomain."""
        return LinOp(
            self.codomain,
            self.codomain,
            lambda v: self.apply_fn(np.asarray(self.adjoint_fn(v), dtype=float)),
            lambda v: self.apply_fn(np.asarray(self.adjoint_fn(v), dtype=float)),
        )


def adjoint_defect(a: LinOp, n_probes: int = 100, seed: int = 0) -> float:
    """Worst relative violation of ``<Au, v> == <u, A*v>`` over random probes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        u = rng.standard_normal(a.domain.dim)
        v = rng.standard_normal(a.codomain.dim)
        lhs = a.codomain.inner(a.apply(u), v)
        rhs = a.domain.inner(u, a.adjoint_apply(v))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def op_norm(a: LinOp, tol: float = ITER_TOL, max_iter: int = 1000, seed: int = 0) -> float:
    """Operator norm via power iteration on ``A* A``.

    Runs in the weighted metrics of the operator's spaces and returns the
    largest singular value to relative accuracy ``tol``.  If the iteration
    has not settled after ``max_iter`` sweeps the current estimate is
    returned with a warning.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(a.domain.dim)
    nu = a.domain.norm(u)
    if nu == 0.0:
        u = np.ones(a.domain.dim)
        nu = a.domain.norm(u)
    u = u / nu

    sigma = 0.0
    settled = 0
    for _ in range(max_iter):
        au = a.apply(u)
        s = np.sqrt(max(a.codomain.inner(au, au), 0.0))
        if s <= 1e-150:
            return 0.0
        w = a.adjoint_apply(au)
        nw = a.domain.norm(w)
        if nw <= 1e-150:
            return float(s)
        # require the estimate to be stable twice in a row before accepting
        if abs(s - sigma) <= 0.1 * tol * max(s, 1e-300):
            settled += 1
            if settled >= 2:
                return float(s)
        else:
            settled = 0
        sigma = s
        u = w / nw
    warnings.warn(
        f"power iteration did not reach tol={tol} in {max_iter} sweeps; "
        f"returning current estimate {sigma}",
        RuntimeWarning,
    )
    return float(sigma)


def require_dense(dim: int, cap: int = DENSE_EIG_CAP) -> None:
    """Refuse a dense eigensolve or pseudo-inverse above ``cap`` dimensions.

    Callers check before they assemble the matrix, so a refusal costs
    nothing.
    """
    if dim > cap:
        raise SolverCapExceeded(f"dense eigensolver supports dim <= {cap}, got {dim}")


def symmetrize(m, weights, sym_tol: float = IDENTITY_TOL) -> np.ndarray:
    """Coordinate matrix of a self-adjoint operator conjugated into symmetric form.

    For a self-adjoint operator with coordinate matrix M on a space with
    weight diagonal D, ``S = D^1/2 M D^-1/2`` is symmetric and has the same
    spectrum.  (When M = G D for a raw kernel G this is ``D^1/2 G D^1/2``.)
    Raises :class:`NotSelfAdjoint` when S is asymmetric beyond ``sym_tol``
    relative to its largest entry (at least 1).
    """
    d = np.sqrt(weights)
    s = (m * d[:, None]) / d[None, :]
    scale = max(1.0, float(np.abs(s).max()))
    asym = float(np.abs(s - s.T).max())
    if asym > sym_tol * scale:
        raise NotSelfAdjoint(
            f"operator is not self-adjoint: symmetrized asymmetry {asym:.3e} "
            f"exceeds {sym_tol:.1e} * scale"
        )
    return 0.5 * (s + s.T)


def weighted_pinv_solve(sym: np.ndarray, weights, r) -> np.ndarray:
    """Minimum-norm solution y of ``M y = r`` from ``sym = symmetrize(M, weights)``.

    Returns ``D^-1/2 S^+ D^1/2 r``, the solution of least weighted norm
    when r lies in the range of M.
    """
    d = np.sqrt(weights)
    return (np.linalg.pinv(sym, rcond=1e-12) @ (d * r)) / d


def coercivity(b: LinOp, sym_tol: float = 1e-8, cap: int = DENSE_EIG_CAP) -> float:
    """Smallest eigenvalue of a self-adjoint operator on its weighted space.

    A positive return value lam certifies ``<y, By> >= lam * ||y||^2``; a
    non-positive value signals that the operator is not coercive.  Dense
    eigensolve only, refused above ``cap`` dimensions.
    """
    if not b.domain.compatible(b.codomain):
        raise DimensionMismatch("coercivity requires an endomorphism")
    require_dense(b.domain.dim, cap)
    # adjoint-identity probe before paying for the dense assembly
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = rng.standard_normal(b.domain.dim)
        v = rng.standard_normal(b.domain.dim)
        lhs = b.domain.inner(b.apply(u), v)
        rhs = b.domain.inner(u, b.apply(v))
        if abs(lhs - rhs) > sym_tol * (1.0 + abs(lhs)):
            raise NotSelfAdjoint(
                f"adjoint identity violated on probe: |{lhs} - {rhs}|"
            )
    s = symmetrize(b.matrix(), b.domain.weights, sym_tol)
    return float(np.linalg.eigvalsh(s)[0])
