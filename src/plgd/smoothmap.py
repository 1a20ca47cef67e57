"""Differentiable maps between weighted spaces and sampled regularity bounds.

A :class:`SmoothMap` exposes a value and a Jacobian (as a :class:`LinOp`
with adjoint).  The estimators in this module certify, by seeded sampling
over a ball:

* ``estimate_bj`` -- an upper bound K on the Jacobian operator norm,
* ``estimate_lj`` -- an upper bound L on the Lipschitz constant of the
  Jacobian in operator norm,
* ``estimate_uc`` -- a lower bound lam > 0 on the coercivity of J(x) J(x)*
  (uniform conditioning), or None when some sample is not coercive.

Sampled upper bounds are inflated by a safety factor (``INFLATE``, 1.1),
lower bounds deflated (``DEFLATE``, 0.9); an estimator called with factor
1.0 returns the raw sampled value.  Analytic constants can be supplied
directly via :class:`MapCertificate`.  :func:`fd_check`, the gradient
gate's check of a Jacobian, differences with the fixed step ``FD_STEP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidConfig
from .space import LinOp, WeightedSpace, coercivity, gram_eigvalsh, op_norm

#: step of the gradient gate's central differences
FD_STEP = 1e-5

#: safety factors of sampled upper and lower bounds
INFLATE = 1.1
DEFLATE = 0.9

#: the smallest nonzero radius of a ball that yields difference-quotient
#: pairs: its local pairs lie 1e-3 * radius apart, so below it none clears
#: the 1e-12 coincidence test, and on a smaller ball around parameters of
#: unit scale every pair soon falls under it, so sampling would never end
MIN_PAIR_RADIUS = 1e-9


@dataclass(frozen=True, eq=False)
class SmoothMap:
    """A Frechet-differentiable map ``F: domain -> codomain``.

    ``value_fn`` and ``jac_fn`` act on raw coordinates; ``jac_fn`` must
    return a :class:`LinOp` whose adjoint is taken with respect to both
    weighted metrics.  ``linear_op`` is set when the map is known to be
    linear (it then equals the constant Jacobian), which downstream code
    uses for exact constants and closest-optimum computations.
    ``value_and_vjp_fn(x)`` (optional) returns ``(F(x), pull)`` from one
    evaluation, where ``pull(v)`` computes ``J(x)* v`` without assembling
    the Jacobian; :func:`fd_check` compares ``pull`` with the Jacobian's
    adjoint.  ``value_stack_fn(xs)`` (optional) maps a (k, domain.dim)
    stack of points to their (k, codomain.dim) values ``value_fn(xs[j])``
    in one evaluation; :func:`fd_check` takes its differences from it.
    """

    domain: WeightedSpace
    codomain: WeightedSpace
    value_fn: Callable[[np.ndarray], np.ndarray]
    jac_fn: Callable[[np.ndarray], LinOp]
    linear_op: Optional[LinOp] = None
    name: str = ""
    value_and_vjp_fn: Optional[
        Callable[[np.ndarray], tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]
    ] = None
    value_stack_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def value(self, x) -> np.ndarray:
        return np.asarray(self.value_fn(self.domain._coords(x)), dtype=float)

    def jacobian(self, x) -> LinOp:
        return self.jac_fn(self.domain._coords(x))

    def value_and_vjp(self, x: np.ndarray) -> tuple:
        """``(F(x), pull)`` on raw coordinates with ``pull(v) = J(x)* v``:
        one call of ``value_and_vjp_fn`` when the map has one, else the
        value and the Jacobian's adjoint."""
        if self.value_and_vjp_fn is not None:
            return self.value_and_vjp_fn(x)
        return self.value_fn(x), self.jac_fn(x).adjoint_apply

    def value_stack(self, xs: np.ndarray) -> np.ndarray:
        """The (k, codomain.dim) values at the rows of the raw coordinate
        stack xs: one call of ``value_stack_fn`` when the map has one, else
        ``value_fn`` row by row."""
        if self.value_stack_fn is not None:
            return self.value_stack_fn(xs)
        return np.stack([self.value_fn(x) for x in xs])

    @staticmethod
    def linear(op: LinOp, name: str = "linear") -> "SmoothMap":
        return SmoothMap(
            domain=op.domain,
            codomain=op.codomain,
            value_fn=op.apply,
            jac_fn=lambda _x: op,
            linear_op=op,
            name=name,
        )

    @staticmethod
    def identity(space: WeightedSpace) -> "SmoothMap":
        return SmoothMap.linear(LinOp.identity(space), name="identity")


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed ball ``{x : ||x - center|| <= radius}`` in a weighted space.

    ``center`` is kept as a read-only copy of the given coordinates.
    """

    space: WeightedSpace
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius < 0.0:
            raise ValueError("ball radius must be non-negative")
        center = self.space._coords(self.center).copy()
        center.setflags(write=False)
        object.__setattr__(self, "center", center)


def sample_ball(ball: Ball, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """n points uniform in the ball: gaussian direction, radius ~ r u^(1/dim)."""
    space = ball.space
    out = []
    for _ in range(n):
        z = rng.standard_normal(space.dim)
        nz = space.norm(z)
        if nz == 0.0:
            z = np.ones(space.dim)
            nz = space.norm(z)
        r = ball.radius * rng.uniform() ** (1.0 / space.dim)
        out.append(ball.center + (r / nz) * z)
    return out


@dataclass(frozen=True)
class CertValue:
    """A certified constant with its provenance.

    ``provenance`` is "analytic" for exact constants and "sampled" for
    seeded-sampling estimates; sampled values record the sample count and
    the safety factor that was applied.
    """

    value: float
    provenance: str = "analytic"
    n_samples: Optional[int] = None
    factor: Optional[float] = None

    def as_dict(self) -> dict:
        d = {"value": self.value, "provenance": self.provenance}
        if self.provenance == "sampled":
            d["n_samples"] = self.n_samples
            d["factor"] = self.factor
        return d


@dataclass(frozen=True)
class MapCertificate:
    """Regularity constants of a map on a ball.

    K bounds the Jacobian operator norm, L its Lipschitz constant, lam
    (optional) is a coercivity lower bound for J J*; lam <= K^2 must hold.
    """

    K: CertValue
    L: CertValue
    lam: Optional[CertValue] = None

    def __post_init__(self):
        if self.K.value < 0 or self.L.value < 0:
            raise ValueError("K and L must be non-negative")
        if self.lam is not None:
            if self.lam.value <= 0:
                raise ValueError("lam must be positive when present")
            if self.lam.value > self.K.value**2 * (1 + 1e-9):
                raise ValueError(
                    f"inconsistent certificate: lam={self.lam.value} exceeds K^2={self.K.value**2}"
                )

    @property
    def provenance(self) -> str:
        tags = [self.K.provenance, self.L.provenance]
        if self.lam is not None:
            tags.append(self.lam.provenance)
        return "analytic" if all(t == "analytic" for t in tags) else "sampled"


def fd_score(err, norm_a, norm_b) -> float:
    """Worst relative error of a set of columns, by :func:`fd_check`'s rule.

    Column k scores ``err[k] / max(norm_a[k], norm_b[k])``, the norm of
    the difference of its two versions relative to the larger of their
    norms.  A column whose larger norm is below ``1e-8 (1 + scale)``, with
    scale the largest such norm over all columns, scores ``err[k] / (1 +
    scale)`` instead.  A non-finite score is infinity.
    """
    err = np.asarray(err, dtype=float)
    denom = np.maximum(norm_a, norm_b)
    scale = float(denom.max())
    small = denom < 1e-8 * (1.0 + scale)
    worst = float(np.max(err / np.where(small, 1.0 + scale, denom)))
    return worst if math.isfinite(worst) else math.inf


def _fd_chunk(p: int, n_out: int) -> int:
    """Columns per chunk of :func:`fd_check`'s stacked differences: the
    perturbed points (chunk, p) and their values (chunk, n_out) each hold at
    most 1/8 as many numbers as the (n_out, p) Jacobian, and a chunk holds
    at least one column."""
    return max(1, min(p, n_out) // 8)


def fd_check(f: SmoothMap, x) -> float:
    """Largest relative mismatch between Jacobian columns and central FD.

    The central differences ``(F(x + h e_k) - F(x - h e_k)) / 2h`` of all
    coordinate directions e_k, with the fixed step h = ``FD_STEP``, are
    stacked into one array and compared with the Jacobian's coordinate
    matrix column by column in the codomain norm, scored by
    :func:`fd_score`.  The 2p perturbed points are
    evaluated a chunk of columns at a time, one :meth:`SmoothMap.value_stack`
    call per sign and chunk; without a ``value_stack_fn`` that is one
    ``value_fn`` call per point.  Correctly implemented maps score <= 1e-5;
    a Jacobian off by a factor c scores about |1 - 1/c|.  When the map has
    a ``value_and_vjp_fn``, its pull-back of a fixed-seed cotangent is also
    compared with the Jacobian's adjoint, in the domain norm relative to
    the larger of the two (a correct one scores ~1e-15, a non-finite one
    infinity).
    """
    xc = f.domain._coords(x)
    jac = f.jacobian(xc)
    exact = jac.mat
    fd = np.empty_like(exact)
    p = f.domain.dim
    chunk = _fd_chunk(p, f.codomain.dim)
    for start in range(0, p, chunk):
        cols = np.arange(start, min(start + chunk, p))
        e = np.zeros((len(cols), p))
        e[np.arange(len(cols)), cols] = FD_STEP
        fd[:, cols] = ((f.value_stack(xc + e) - f.value_stack(xc - e)) / (2.0 * FD_STEP)).T
    w = f.codomain.weights

    def col_norms(m):
        return np.sqrt(np.einsum("i,ik,ik->k", w, m, m))

    exact_norms, fd_norms = col_norms(exact), col_norms(fd)
    fd -= exact  # in place: the peak stays at the Jacobian plus one array
    worst = fd_score(col_norms(fd), exact_norms, fd_norms)
    if f.value_and_vjp_fn is not None:
        r = np.random.default_rng(0).standard_normal(f.codomain.dim)
        adj, vjp = jac.adjoint_apply(r), f.value_and_vjp_fn(xc)[1](r)
        dom = f.domain
        denom = max(dom.norm(adj), dom.norm(vjp))
        rel = dom.norm(vjp - adj) / denom if denom > 0.0 else 0.0
        worst = max(worst, rel) if math.isfinite(rel) else math.inf
    return worst


def jacobian_norm(f: SmoothMap, x) -> float:
    """Operator norm of the Jacobian at a single point."""
    return op_norm(f.jacobian(x))


def conditioning_at(f: SmoothMap, x) -> float:
    """Coercivity of ``J(x) J(x)*`` at a single point (0.0 when not coercive)."""
    return coercivity(f.jacobian(x))


def estimate_bj(
    f: SmoothMap,
    ball: Ball,
    n: int = 32,
    seed: int = 0,
    inflate: float = INFLATE,
) -> float:
    """Sampled upper bound on ``||J(x)||`` over the ball (center included)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pts = [ball.center] + sample_ball(ball, n - 1, rng)
    return inflate * max(jacobian_norm(f, p) for p in pts)


def _sample_pairs(ball: Ball, n_pairs: int, rng: np.random.Generator):
    """Pairs for difference quotients: alternately independent and local.

    Local pairs (x, x + eps * dir) probe the differential behaviour of the
    quotient near a point; independent pairs probe the secant behaviour.
    Coincident pairs are resampled.  A ball whose radius is neither 0
    nor at least ``MIN_PAIR_RADIUS`` is refused.
    """
    if 0.0 < ball.radius < MIN_PAIR_RADIUS:
        raise InvalidConfig(f"sampled certificates need a ball radius of 0 or at least "
                            f"{MIN_PAIR_RADIUS:g}; got {ball.radius:g}")
    space = ball.space
    eps = 1e-3 * ball.radius if ball.radius > 0 else 1e-3
    pairs = []
    k = 0
    while len(pairs) < n_pairs:
        if k % 2 == 0:
            x, y = sample_ball(ball, 2, rng)
        else:
            (x,) = sample_ball(ball, 1, rng)
            d = rng.standard_normal(space.dim)
            nd = space.norm(d)
            if nd == 0.0:
                continue
            y = x + (eps / nd) * d
            if space.norm(y - ball.center) > ball.radius:
                y = x - (eps / nd) * d
        k += 1
        if space.norm(x - y) < 1e-12:
            continue
        pairs.append((x, y))
    return pairs


def estimate_lj(
    f: SmoothMap,
    ball: Ball,
    n_pairs: int = 32,
    seed: int = 0,
    inflate: float = INFLATE,
) -> float:
    """Sampled upper bound on the Jacobian Lipschitz constant over the ball.

    Exactly zero for linear maps (the Jacobian difference is the zero
    operator at every pair).
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if f.linear_op is not None:
        return 0.0
    rng = np.random.default_rng(seed)
    w_dom, w_cod = f.domain.weights, f.codomain.weights
    worst = 0.0  # the largest squared difference quotient
    for x, y in _sample_pairs(ball, n_pairs, rng):
        jump = f.jacobian(x).mat - f.jacobian(y).mat
        worst = max(worst, gram_eigvalsh(jump, w_dom, w_cod)[-1] / f.domain.norm(x - y) ** 2)
    return inflate * math.sqrt(worst)


def estimate_uc(
    f: SmoothMap,
    ball: Ball,
    n: int = 32,
    seed: int = 0,
    deflate: float = DEFLATE,
) -> Optional[float]:
    """Sampled lower bound on the coercivity of ``J(x) J(x)*`` over the ball.

    Returns None (not certified) as soon as any sampled point fails to be
    coercive, which in particular happens whenever dim(domain) <
    dim(codomain).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pts = [ball.center] + sample_ball(ball, n - 1, rng)
    worst = np.inf
    for p in pts:
        lam = conditioning_at(f, p)
        if lam <= 0.0:
            return None
        worst = min(worst, lam)
    return deflate * worst


def certify(f: SmoothMap, ball: Ball, n: int = 32, seed: int = 0) -> MapCertificate:
    """Bundle sampled BJ/LJ/UC estimates, with their default safety factors,
    into a :class:`MapCertificate`."""
    k = estimate_bj(f, ball, n=n, seed=seed)
    l = estimate_lj(f, ball, n_pairs=n, seed=seed + 1)
    lam = estimate_uc(f, ball, n=n, seed=seed + 2)
    k_cert = CertValue(k, "sampled", n, INFLATE)
    l_cert = (
        CertValue(0.0, "analytic")
        if f.linear_op is not None
        else CertValue(l, "sampled", n, INFLATE)
    )
    lam_cert = None if lam is None else CertValue(lam, "sampled", n, DEFLATE)
    return MapCertificate(K=k_cert, L=l_cert, lam=lam_cert)
