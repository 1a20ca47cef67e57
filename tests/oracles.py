"""Reference implementations that several test modules check plgd against,
and the small maps and objectives the tests build."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from plgd.descent import LOWER_BOUNDS
from plgd.errors import MissingCertificate
from plgd.integrand import Dataset, Integrand, _row_errors
from plgd import model as model_module
from plgd.model import Model
from plgd.objective import ScalarObjective
from plgd.smoothmap import (FD_STEP, INFLATE, Ball, CertValue, SmoothMap, _sample_pairs, fd_score,
                            sample_ball)
from plgd.space import LinOp, WeightedSpace, require_dense, weighted_pinv_solve

MONITORED = ("q_decay", "per_step_decay", "step_norm", "path_length",
             "composition_pl", "composition_lg_bound", "taylor_bound")


def reference_verdict(table, name):
    """The aggregated fields of inequality ``name`` from the whole-run table,
    one row at a time: the largest violation if any, else the tightest
    margin, the first on ties; None for an inequality without rows."""
    worst = None
    n_checked = n_violations = 0
    for row in np.flatnonzero(table.name == name):
        measured, bound = float(table.measured[row]), float(table.bound[row])
        margin = bound - measured if name in LOWER_BOUNDS else measured - bound
        violated = not table.holds[row]
        n_checked += 1
        n_violations += violated
        key = (violated, margin)
        if worst is None or key > worst[0]:
            worst = (key, measured, bound, int(table.iteration[row]))
    if worst is None:
        return None
    return {"passed": n_violations == 0, "measured": worst[1], "bound": worst[2],
            "n_checked": n_checked, "n_violations": n_violations, "worst_iter": worst[3]}


def reference_run(f_map, obj, x0, alpha, n_steps, keep_every=None):
    """``descent.run``'s four series and kept iterates for ``n_steps``
    steps, one step at a time with the per-step formulas
    ``x - alpha * g`` and ``math.sqrt((weights * c).dot(c))``."""
    weights = f_map.domain.weights
    unit = bool((weights == 1.0).all())

    def norm(c):
        return math.sqrt(c.dot(c) if unit else (weights * c).dot(c))

    def evaluate(x):
        fx, pull = f_map.value_and_vjp_fn(x)
        loss, grad_f = obj.value_and_grad_fn(fx)
        g = pull(grad_f)
        return loss, g

    x = x_init = np.array(x0, dtype=float)
    loss, g = evaluate(x)
    losses, grad_norms, step_norms, dists, kept = [loss], [norm(g)], [], [0.0], [x]
    for i in range(1, n_steps + 1):
        x_next = x - alpha * g
        step_norms.append(norm(x_next - x))
        x = x_next
        if keep_every is not None and i % keep_every == 0:
            kept.append(x)
        dists.append(norm(x - x_init))
        loss, g = evaluate(x)
        losses.append(loss)
        grad_norms.append(norm(g))
    if kept[-1] is not x:
        kept.append(x)
    return {"losses": np.array(losses), "grad_norms": np.array(grad_norms),
            "step_norms": np.array(step_norms), "dist_from_init": np.array(dists),
            "iterates": np.stack(kept)}


def adjoint_pull(value_fn, jac_fn):
    """The fused callable ``x -> (F(x), J(x)*)`` of a map given by its value
    and its Jacobian."""
    return lambda x: (value_fn(x), jac_fn(x).adjoint_apply)


def fused_grad(value_fn, grad_fn):
    """The fused callable ``h -> (f(h), grad f(h))`` of an objective."""
    return lambda h: (value_fn(h), grad_fn(h))


def smooth_map(domain, codomain, value_fn, jac_fn, **fields) -> SmoothMap:
    return SmoothMap(domain, codomain, value_fn, jac_fn, adjoint_pull(value_fn, jac_fn), **fields)


def objective(space, value_fn, grad_fn, **fields) -> ScalarObjective:
    return ScalarObjective(space, value_fn, grad_fn, fused_grad(value_fn, grad_fn), **fields)


def identity_op(space: WeightedSpace) -> LinOp:
    return LinOp(space, space, np.eye(space.dim))


def linear_map(op: LinOp, name: str = "linear") -> SmoothMap:
    return smooth_map(op.domain, op.codomain, op.apply, lambda _x: op, linear_op=op, name=name)


def identity_map(space: WeightedSpace) -> SmoothMap:
    return linear_map(identity_op(space), name="identity")


#: relative asymmetry beyond which :func:`symmetrize` refuses an operator
IDENTITY_TOL = 1e-10

#: points closer than this to optimal are excluded from PL ratios (0/0 hygiene)
PL_GAP_FLOOR = 1e-12


class NotSelfAdjoint(ValueError):
    """An operator required to be self-adjoint fails the adjoint identity."""


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
    return objective(space, value_fn, grad_fn, f_star=f_star, L=CertValue(l_const, "analytic"),
                     lam=None if lam_const is None else CertValue(lam_const, "analytic"),
                     minimizer=h_star, name="quadratic")


def estimate_lg(f: ScalarObjective, ball: Ball, n_pairs: int = 32, seed: int = 0,
                inflate: float = INFLATE) -> float:
    """Sampled upper bound on the gradient Lipschitz constant over the ball."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    space = f.space
    worst = 0.0
    for x, y in _sample_pairs(ball, n_pairs, rng):
        worst = max(worst, space.norm(f.grad_fn(x) - f.grad_fn(y)) / space.norm(x - y))
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
    lam_hat, n_valid, n_skipped = None, 0, 0
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


def fd_check_integrand(iota: Integrand, data: Dataset, z) -> float:
    """Worst per-row relative mismatch of grad_z against central differences
    of step 1e-6.

    The strict per-row oracle for a single integrand: every row is scored
    relative to its own norm (clamped at 1e-8), however small that is next
    to the other rows.  ``fd_check_functional``, the gate on whole
    problems, scores the same rows by ``fd_check``'s rule instead, which
    measures rows that vanish (at an optimum, say) against the largest.
    """
    z = iota._block(data, z)
    err, g_norm, fd_norm = _row_errors(iota, data, z, iota.grad(data, z), 1e-6)
    return float(np.max(err / np.maximum(np.maximum(g_norm, fd_norm), 1e-8)))


def fd_check_model(model: Model, x, theta, h: float = 1e-6) -> float:
    """Worst per-row relative mismatch of the parameter Jacobians on the
    rows of x vs central differences."""
    x = np.asarray(x, float)
    theta = np.asarray(theta, float)
    jac = model.jacobian(x, theta)
    fd = np.empty_like(jac)
    for k in range(model.param_dim):
        e = np.zeros(model.param_dim)
        e[k] = h
        fd[..., k] = (model.forward(x, theta + e) - model.forward(x, theta - e)) / (2 * h)
    jac, fd = jac.reshape(len(x), -1), fd.reshape(len(x), -1)
    scale = np.maximum(np.maximum(np.abs(jac).max(axis=1), np.abs(fd).max(axis=1)), 1e-8)
    return float(np.max(np.abs(fd - jac).max(axis=1) / scale))


def aggregated_jacobian_bound(model: Model, data: Dataset, theta) -> float:
    """Per-sample Jacobian norms aggregated in the weighted L2 metric.

    ``sqrt(sum_i w_i ||J_i||^2)`` upper-bounds the induced map's Jacobian
    norm at theta; aggregating per sample is tighter than a uniform sup
    over the dataset.
    """
    per = np.linalg.norm(model.jacobian(data.inputs, np.asarray(theta, float)), 2, axis=(1, 2))
    return float(np.sqrt(np.dot(data.weights, np.square(per))))


def fd_columns_score(f: SmoothMap, x) -> float:
    """``fd_check``'s score of the Jacobian columns alone, one coordinate
    direction and one ``value_fn`` call per perturbed point."""
    exact = f.jacobian(x).mat
    fd = np.empty_like(exact)
    for k in range(f.domain.dim):
        e = np.zeros(f.domain.dim)
        e[k] = FD_STEP
        fd[:, k] = (f.value_fn(x + e) - f.value_fn(x - e)) / (2.0 * FD_STEP)
    w = f.codomain.weights

    def col_norms(m):
        return np.sqrt(np.einsum("i,ik,ik->k", w, m, m))

    return fd_score(col_norms(fd - exact), col_norms(exact), col_norms(fd))


def assembles_jacobian(f: SmoothMap, theta) -> bool:
    """Whether an induced map's ``value_and_vjp_fn(theta)`` and its pull-back
    build the stacked model Jacobian (as the VAE's do)."""
    stacked, calls = model_module._stacked_jacobian, []
    model_module._stacked_jacobian = lambda *args: calls.append(args) or stacked(*args)
    try:
        f.value_and_vjp_fn(np.asarray(theta, dtype=float))[1](np.ones(f.codomain.dim))
    finally:
        model_module._stacked_jacobian = stacked
    return bool(calls)
