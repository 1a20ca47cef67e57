"""Scalar objectives with gradients, certified constants and sampled checks.

A :class:`ScalarObjective` is a differentiable ``f: H -> R`` on a weighted
space.  Its gradient is stored as the metric representer: the coordinate
array g with ``f(h + d) ~ f(h) + <g, d>_H`` in the weighted inner product.
Objectives optionally carry an analytic Lipschitz-gradient constant, a
Polyak-Lojasiewicz constant, the infimum ``f_star`` and (when unique and
known) the minimizer, which downstream bound checks consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import MissingCertificate
from .smoothmap import INFLATE, Ball, CertValue, _sample_pairs, sample_ball
from .space import WeightedSpace, require_dense, symmetrize, weighted_pinv_solve

#: points closer than this to optimal are excluded from PL ratios (0/0 hygiene)
PL_GAP_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class ScalarObjective:
    """A differentiable scalar function on a weighted space.

    ``value_and_grad_fn(h)`` (optional) returns ``(value_fn(h),
    grad_fn(h))`` from one evaluation; :meth:`value_and_grad` falls back
    to the two callables.  ``dataclasses.replace`` of ``value_fn`` or
    ``grad_fn`` keeps it, so an objective whose math changes replaces all
    three.  Fields beyond the callables are metadata: ``L`` and ``lam``
    are certified Lipschitz-gradient and PL constants (None when unknown),
    ``f_star`` the infimum over the whole space (None when unknown) and
    ``minimizer`` the unique minimizer's coordinates when available.
    """

    space: WeightedSpace
    value_fn: Callable[[np.ndarray], float]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    f_star: Optional[float] = None
    L: Optional[CertValue] = None
    lam: Optional[CertValue] = None
    minimizer: Optional[np.ndarray] = None
    name: str = ""
    value_and_grad_fn: Optional[Callable[[np.ndarray], tuple[float, np.ndarray]]] = None

    def value(self, h) -> float:
        return float(self.value_fn(self.space._coords(h)))

    def value_and_grad(self, h: np.ndarray) -> tuple:
        """``(f(h), grad f(h))`` on raw coordinates: one call of
        ``value_and_grad_fn`` when the objective has one, else ``value_fn``
        and then ``grad_fn``."""
        if self.value_and_grad_fn is not None:
            return self.value_and_grad_fn(h)
        return self.value_fn(h), self.grad_fn(h)


def quadratic(space: WeightedSpace, a_mat, b=None) -> ScalarObjective:
    """The objective ``f(h) = 1/2 <h, A h> - <b, h>`` with exact constants.

    A must be self-adjoint positive semidefinite with respect to the
    weighted metric (for unit weights: a symmetric PSD matrix).  The
    Lipschitz-gradient constant is the largest eigenvalue, the PL constant
    the smallest nonzero one, and the infimum is attained at the minimum-
    norm solution of ``A h = b``.
    """
    a = np.asarray(a_mat, dtype=float)
    require_dense(space.dim)
    b = np.zeros(space.dim) if b is None else np.asarray(b, dtype=float)

    sym = symmetrize(a, space.weights)
    eigs = np.linalg.eigvalsh(sym)
    if eigs[0] < -1e-10 * max(1.0, eigs[-1]):
        raise ValueError("quadratic form must be positive semidefinite")
    l_const = float(eigs[-1])
    positive = eigs[eigs > 1e-12 * max(1.0, eigs[-1])]
    lam_const = float(positive[0]) if positive.size else None

    h_star = weighted_pinv_solve(sym, space.weights, b)

    def value_fn(h):
        return 0.5 * space.inner(h, a @ h) - space.inner(b, h)

    def grad_fn(h):
        return a @ h - b

    f_star = float(value_fn(h_star))
    return ScalarObjective(
        space=space,
        value_fn=value_fn,
        grad_fn=grad_fn,
        f_star=f_star,
        L=CertValue(l_const, "analytic"),
        lam=None if lam_const is None else CertValue(lam_const, "analytic"),
        minimizer=h_star,
        name="quadratic",
    )


def estimate_lg(
    f: ScalarObjective,
    ball: Ball,
    n_pairs: int = 32,
    seed: int = 0,
    inflate: float = INFLATE,
) -> float:
    """Sampled upper bound on the gradient Lipschitz constant over the ball."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    space = f.space
    worst = 0.0
    for x, y in _sample_pairs(ball, n_pairs, rng):
        gx = f.grad_fn(x)
        gy = f.grad_fn(y)
        worst = max(worst, space.norm(gx - gy) / space.norm(x - y))
    return inflate * worst


@dataclass(frozen=True)
class PLReport:
    """Result of a sampled Polyak-Lojasiewicz check.

    ``lambda_hat`` is the smallest sampled ratio ``0.5 ||grad||^2 / gap``
    (None when no sample had a usable gap).
    """

    lambda_hat: Optional[float]
    n_valid: int
    n_skipped: int


def check_pl(f: ScalarObjective, ball: Ball, n: int = 64, seed: int = 0) -> PLReport:
    """Probe ``0.5 ||grad f||^2 >= lam (f - f_star)`` by sampling the ball.

    Requires ``f_star``; sampled points with gap below ``PL_GAP_FLOOR``
    are skipped rather than divided by.
    """
    if f.f_star is None:
        raise MissingCertificate("check_pl requires a known f_star")
    rng = np.random.default_rng(seed)
    pts = [ball.center] + sample_ball(ball, max(n - 1, 0), rng)
    lam_hat = None
    n_valid = 0
    n_skipped = 0
    for p in pts:
        gap = f.value_fn(p) - f.f_star
        if gap < PL_GAP_FLOOR:
            n_skipped += 1
            continue
        g = f.grad_fn(p)
        ratio = 0.5 * f.space.inner(g, g) / gap
        n_valid += 1
        lam_hat = ratio if lam_hat is None else min(lam_hat, ratio)
    return PLReport(lam_hat, n_valid, n_skipped)
