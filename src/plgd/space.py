"""Finite-dimensional weighted Hilbert spaces and linear operators.

A point of a space is its float64 coordinate array, and all weighting
lives in the inner product: a space with per-coordinate weights ``w``
carries

    inner(u, v) = sum_k w_k * u_k * v_k

Unit weights realize parameter spaces; repeating each sample mass over an
output block realizes the L2 space of functions on a weighted point set.
A space checks the shape of the coordinates handed to it and nothing
else.  Spaces and operators are immutable after construction and safe to
share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSelfAdjoint, NumericFailure, SolverCapExceeded

#: largest dense eigensolve or pseudo-inverse; a weighted Gram is solved on its smaller side
DENSE_EIG_CAP = 4096

#: relative asymmetry beyond which :func:`symmetrize` refuses an operator
IDENTITY_TOL = 1e-10

#: float64 machine epsilon, the unit of the eigensolver's rounding floor
EPS = float(np.finfo(float).eps)


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
        """The point u as float64 coordinates, refused unless of shape (dim,)."""
        c = np.asarray(u, dtype=float)
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

    def compatible(self, other: "WeightedSpace") -> bool:
        return self is other or (
            self.dim == other.dim and np.array_equal(self.weights, other.weights)
        )


@dataclass(frozen=True, eq=False)
class LinOp:
    """A linear map between weighted spaces, given by its coordinate matrix.

    ``mat`` has shape (codomain dim, domain dim), its columns the images of
    the basis vectors, and is kept as a read-only view.  ``apply(u)`` is
    ``mat @ u``.  The adjoint with respect to the two weighted inner
    products, ``<A u, v>_codomain == <u, A* v>_domain``, acts as
    ``v -> D_dom^-1 M^T D_cod v``; :func:`adjoint_defect` probes the
    identity on random vectors.
    """

    domain: WeightedSpace
    codomain: WeightedSpace
    mat: np.ndarray

    def __post_init__(self):
        view = np.asarray(self.mat, dtype=float).view()
        if view.shape != (self.codomain.dim, self.domain.dim):
            raise DimensionMismatch(
                f"matrix shape {view.shape} does not map dim {self.domain.dim} -> "
                f"{self.codomain.dim}"
            )
        view.setflags(write=False)
        object.__setattr__(self, "mat", view)

    def apply(self, u) -> np.ndarray:
        return self.mat @ self.domain._coords(u)

    def adjoint_apply(self, v) -> np.ndarray:
        cod = self.codomain
        return (self.mat.T @ (cod.weights * cod._coords(v))) / self.domain.weights

    @staticmethod
    def identity(space: WeightedSpace) -> "LinOp":
        return LinOp(space, space, np.eye(space.dim))


def adjoint_defect(a: LinOp, n_probes: int = 100) -> float:
    """Worst relative violation of ``<Au, v> == <u, A*v>`` over fixed-seed
    random probes."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(n_probes):
        u = rng.standard_normal(a.domain.dim)
        v = rng.standard_normal(a.codomain.dim)
        lhs = a.codomain.inner(a.apply(u), v)
        rhs = a.domain.inner(u, a.adjoint_apply(v))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def require_dense(dim: int, cap: int = DENSE_EIG_CAP) -> None:
    """Refuse a dense eigensolve or pseudo-inverse above ``cap`` dimensions.

    Callers check before they assemble the matrix, so a refusal costs
    nothing.
    """
    if dim > cap:
        raise SolverCapExceeded(f"dense eigensolver supports dim <= {cap}, got {dim}")


def symmetrize(m, weights) -> np.ndarray:
    """Coordinate matrix of a self-adjoint operator conjugated into symmetric form.

    For a self-adjoint operator with coordinate matrix M on a space with
    weight diagonal D, ``S = D^1/2 M D^-1/2`` is symmetric and has the same
    spectrum.  (When M = G D for a raw kernel G this is ``D^1/2 G D^1/2``.)
    Raises :class:`NotSelfAdjoint` when S is asymmetric beyond
    ``IDENTITY_TOL`` relative to its largest entry (at least 1).
    """
    d = np.sqrt(weights)
    s = (m * d[:, None]) / d[None, :]
    scale = max(1.0, float(np.abs(s).max()))
    asym = float(np.abs(s - s.T).max())
    if asym > IDENTITY_TOL * scale:
        raise NotSelfAdjoint(
            f"operator is not self-adjoint: symmetrized asymmetry {asym:.3e} "
            f"exceeds {IDENTITY_TOL:.1e} * scale"
        )
    return 0.5 * (s + s.T)


def weighted_solve(sym: np.ndarray, weights, r):
    """Solution y of ``M y = r`` from ``sym = symmetrize(M, weights)`` by one
    LU solve, or None when ``sym`` is singular.

    Returns ``D^-1/2 S^-1 D^1/2 r``.  It is as exact as the conditioning
    of ``sym`` allows, so callers check its residual.
    """
    d = np.sqrt(weights)
    try:
        return np.linalg.solve(sym, d * r) / d
    except np.linalg.LinAlgError:
        return None


def weighted_pinv_solve(sym: np.ndarray, weights, r) -> np.ndarray:
    """Minimum-norm solution y of ``M y = r`` from ``sym = symmetrize(M, weights)``.

    Returns ``D^-1/2 S^+ D^1/2 r``, the solution of least weighted norm
    when r lies in the range of M.
    """
    d = np.sqrt(weights)
    return (np.linalg.pinv(sym, rcond=1e-12) @ (d * r)) / d


def require_gram(p: int, dl: int, cap: int = DENSE_EIG_CAP) -> None:
    """Refuse :func:`gram_eigvalsh` on an operator from dimension ``p`` to
    dimension ``dl`` when both exceed ``cap``.

    For a Jacobian, p is the parameter count and dl = d l the function-space
    dimension.  Callers check before they assemble the matrix.
    """
    if min(p, dl) > cap:
        raise SolverCapExceeded(
            f"dense eigensolver supports min(p, d·l) <= {cap}, got p = {p} and d·l = {dl}"
        )


def gram_factor(mat, dom_weights, cod_weights) -> np.ndarray:
    """``B = D_cod^1/2 M D_dom^-1/2`` for the operator A with coordinate
    matrix M between spaces with weight diagonals D_dom and D_cod.

    B has the singular values of A in the two weighted metrics.  ``B B^T``
    is ``symmetrize(A A*, cod_weights)``, symmetric by construction, and
    ``B^T B`` is similar to ``A* A``.
    """
    return (np.sqrt(cod_weights)[:, None] * mat) / np.sqrt(dom_weights)[None, :]


def gram_eigvalsh(mat, dom_weights, cod_weights, cap: int = DENSE_EIG_CAP) -> np.ndarray:
    """Ascending eigenvalues of the smaller weighted Gram of a coordinate matrix.

    ``B B^T`` and ``B^T B``, for B the :func:`gram_factor`, share their
    nonzero eigenvalues, and the smaller of the two is solved.  Refused by
    :func:`require_gram` before any product is formed.  A Gram with a
    non-finite entry, as from a non-finite ``mat``, raises NumericFailure.
    """
    n_cod, n_dom = mat.shape
    require_gram(n_dom, n_cod, cap)
    b = gram_factor(mat, dom_weights, cod_weights)
    gram = b @ b.T if n_cod <= n_dom else b.T @ b
    if not np.isfinite(gram).all():
        raise NumericFailure(f"non-finite entries in a {len(gram)} x {len(gram)} weighted Gram")
    return np.linalg.eigvalsh(gram)


def op_norm(a: LinOp) -> float:
    """Operator norm in the weighted metrics: the root of the largest
    eigenvalue of the smaller weighted Gram, exact up to rounding."""
    top = gram_eigvalsh(a.mat, a.domain.weights, a.codomain.weights)[-1]
    return float(np.sqrt(max(top, 0.0)))


def rank_floor(lam_max: float, p: int, dl: int) -> float:
    """The rounding floor ``max(p, dl) * eps * lam_max`` of a Gram eigensolve.

    For an operator from dimension p to dimension dl whose Gram has largest
    eigenvalue lam_max, a smallest eigenvalue at or below the floor is
    rounding noise of either sign, not coercivity: the Gram of a
    rank-deficient operator (a repeated input, say) lands there, and a
    positive one would certify q = 1 - 1e-16.
    """
    return max(p, dl) * EPS * lam_max


def coercivity(a: LinOp) -> float:
    """Smallest eigenvalue of ``A A*`` on the codomain, or 0.0.

    A positive return value lam certifies ``||A* y||^2 >= lam * ||y||^2``;
    0.0 signals that ``A A*`` is not coercive: it is returned with no
    solve when dim(domain) < dim(codomain) (``A A*`` then has a kernel),
    and when the smallest eigenvalue does not clear :func:`rank_floor`.
    """
    p, dl = a.domain.dim, a.codomain.dim
    if p < dl:
        return 0.0
    eigs = gram_eigvalsh(a.mat, a.domain.weights, a.codomain.weights)
    lam = float(eigs[0])
    return lam if lam > rank_floor(eigs[-1], p, dl) else 0.0
