"""Ready-to-run prototype problems: min over theta of the integral loss of
a model's outputs on a weighted dataset.

Each assembler pairs an induced map (model over data) with an integral
objective (integrand over the same data) and an initial point, yielding a
:class:`PrototypeProblem` the descent engine can consume directly.  Three
families are provided: supervised fitting, encoder/decoder training on a
data-times-noise product measure, and gradient-penalized critics on an
even real/generated mixture.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .descent import build_ledger
from .errors import (DimensionMismatch, InvalidConfig, InvalidDataset, MissingCertificate,
                     NumericFailure)
from .integrand import (
    Dataset,
    Integrand,
    fd_check_functional,
    gan_integrand,
    integral_functional,
    negate,
    vae_integrand,
)
from .model import Model, NTKGram, induce, ntk_gram
from .objective import ScalarObjective
from .smoothmap import (
    INFLATE,
    Ball,
    CertValue,
    MapCertificate,
    SmoothMap,
    _sample_pairs,
    certify,
    fd_check,
)
from .space import rank_floor

#: fallback trust-region radius before any constants are known
DEFAULT_BALL_RADIUS = 1e3


@dataclass(frozen=True, eq=False)
class PrototypeProblem:
    """An assembled instance of the composite learning problem.

    ``f`` is the integral of the integrand ``iota`` over ``data``, and
    ``theta0`` a read-only copy of the model's initial parameters.
    """

    name: str
    family: str
    F: SmoothMap
    f: ScalarObjective
    theta0: np.ndarray
    declared_ball: Ball
    model: Model
    data: Dataset
    iota: Integrand

    def __post_init__(self):
        if not self.F.codomain.compatible(self.f.space):
            raise DimensionMismatch(
                "map codomain and objective space must coincide"
            )

    def with_ball(self, radius: float) -> "PrototypeProblem":
        return replace(self, declared_ball=Ball(self.F.domain, self.theta0, radius))

    @cached_property
    def _gram0(self) -> NTKGram:
        return ntk_gram(self.model, self.data, self.theta0)

    def gram(self, theta=None) -> NTKGram:
        """The tangent-kernel Gram's spectral range at theta (default theta0).

        The range at theta0 is computed once per problem.  A model linear
        in theta has one Jacobian, so its range at every theta is that one.
        """
        if theta is None or self.model.linear_in_params:
            return self._gram0
        return ntk_gram(self.model, self.data, theta)


def _make_problem(name, family, model, data, iota, ball_radius) -> PrototypeProblem:
    f_map = induce(model, data)
    theta0 = np.array(model.init, dtype=float)
    theta0.setflags(write=False)
    radius = DEFAULT_BALL_RADIUS if ball_radius is None else float(ball_radius)
    return PrototypeProblem(
        name=name,
        family=family,
        F=f_map,
        f=integral_functional(iota, data),
        theta0=theta0,
        declared_ball=Ball(f_map.domain, theta0, radius),
        model=model,
        data=data,
        iota=iota,
    )


def supervised(
    model: Model,
    data: Dataset,
    iota: Integrand,
    ball_radius: Optional[float] = None,
) -> PrototypeProblem:
    """Supervised fitting: every input carries exactly one target.

    Duplicate inputs with conflicting targets are rejected (the loss is a
    function of the input only through its unique target).
    """
    if data.targets is None:
        raise InvalidDataset("supervised data requires a target on every point")
    _, first, group = np.unique(data.inputs, axis=0, return_index=True, return_inverse=True)
    t = data.targets
    conflict = (t != t[first[group.reshape(-1)]]).reshape(len(t), -1).any(axis=1)
    if conflict.any():
        x = data.inputs[np.argmax(conflict)]
        raise InvalidDataset(f"conflicting targets for duplicated input {x.tolist()}")
    return _make_problem(
        f"supervised[{model.name}/{iota.name}]",
        "supervised",
        model,
        data,
        iota,
        ball_radius,
    )


def vae(
    encoder: Model,
    decoder: Model,
    data_y,
    noise_w,
    ell: Integrand,
    beta: float,
    ball_radius: Optional[float] = None,
) -> PrototypeProblem:
    """Encoder/decoder training over the product of data and noise draws.

    The measure has one atom per (data point, noise draw) pair with
    product weights; each input row is the concatenation (y, w) and the
    reconstruction target is y itself.
    """
    if encoder.out_dim % 2 != 0 or decoder.in_dim != encoder.out_dim // 2:
        raise InvalidConfig(
            "encoder must output (mean, log std) pairs of the decoder's latent dim"
        )
    from .model import vae_model  # local import keeps module load order simple

    composite = vae_model(encoder, decoder)
    l_z = decoder.in_dim
    ys = np.asarray(data_y, dtype=float)
    ws = np.asarray(noise_w, dtype=float)
    if ws.ndim != 2 or ws.shape[1] != l_z:
        raise InvalidConfig(f"noise draws must have the latent dimension {l_z}")
    if ell.out_dim != decoder.out_dim:
        raise InvalidConfig("reconstruction loss dimension must match the decoder")
    y_rep = np.repeat(ys, len(ws), axis=0)  # atom (i, j) at row i * len(ws) + j
    data = Dataset(np.concatenate([y_rep, np.tile(ws, (len(ys), 1))], axis=1), targets=y_rep)
    iota = vae_integrand(ell, beta, l_z)
    return _make_problem(
        f"vae[beta={beta}]",
        "vae",
        composite,
        data,
        iota,
        ball_radius,
    )


def gan_discriminator(
    disc: Model,
    real_points,
    gen_points,
    kind: str,
    beta: float,
    direction: str = "max",
    ball_radius: Optional[float] = None,
) -> PrototypeProblem:
    """Gradient-penalized critic on the even real/generated mixture.

    The pooled dataset weights each real atom ``1/(2 n_real)`` and each
    generated atom ``1/(2 n_gen)``; its mixture densities are (2, 0) and
    (0, 2).  ``direction="max"`` (the critic's own objective) descends the
    negated integrand.
    """
    if direction not in ("min", "max"):
        raise InvalidConfig("direction must be 'min' or 'max'")
    k = disc.in_dim
    if disc.out_dim != 1 + k:
        raise InvalidConfig("critic model must output (score, input gradient)")
    if len(real_points) == 0 or len(gen_points) == 0:
        raise InvalidDataset("need at least one real and one generated point")
    real, gen = np.asarray(real_points, dtype=float), np.asarray(gen_points, dtype=float)
    n_r, n_g = len(real), len(gen)
    data = Dataset(
        np.concatenate([real, gen]),
        weights=np.concatenate([np.full(n_r, 0.5 / n_r), np.full(n_g, 0.5 / n_g)]),
        mix=np.repeat([[2.0, 0.0], [0.0, 2.0]], [n_r, n_g], axis=0),
    )
    iota = gan_integrand(kind, beta, k)
    problem = _make_problem(
        f"gan[{kind},beta={beta},{direction}]",
        "gan",
        disc,
        data,
        negate(iota) if direction == "max" else iota,
        ball_radius,
    )
    if kind == "r1":
        y = disc.forward(data.inputs, disc.init)[:, 0]
        outside = ~((0.0 < y) & (y < 1.0))
        if outside.any():
            warnings.warn(
                f"r1 critic score {y[np.argmax(outside)]} outside (0, 1) at init on a "
                "probe point; use a squashed critic",
                RuntimeWarning,
            )
    return problem


def require_analytic(problem: PrototypeProblem) -> None:
    """Refuse analytic certificates for a model not linear in its parameters."""
    if not problem.model.linear_in_params:
        raise InvalidConfig(
            f"analytic certificates unavailable for nonlinear model "
            f"{problem.model.name!r}; use sampled certificates"
        )


def analytic_certificates(problem: PrototypeProblem) -> MapCertificate:
    """Exact map constants for models that are linear in their parameters.

    A constant Jacobian makes the Gram spectrum global: K is the square
    root of the largest eigenvalue, the coercivity bound the smallest, and
    the Jacobian Lipschitz constant is exactly zero.  The coercivity bound
    is dropped unless it clears the eigensolver's rounding floor
    (``space.rank_floor``), the floor below which the sampled
    certificates' ``space.coercivity`` is 0 too.  Other models are refused
    (:func:`require_analytic`).
    """
    require_analytic(problem)
    g = problem.gram()
    lam = None
    if g.lambda_min > rank_floor(g.lambda_max, problem.model.param_dim, problem.f.space.dim):
        lam = CertValue(g.lambda_min, "analytic")
    return MapCertificate(
        K=CertValue(float(np.sqrt(max(g.lambda_max, 0.0))), "analytic"),
        L=CertValue(0.0, "analytic"),
        lam=lam,
    )


def sampled_certificates(
    problem: PrototypeProblem, n: int = 32, seed: int = 0
) -> MapCertificate:
    """Seeded sampling estimates of the map constants on the declared ball."""
    return certify(problem.F, problem.declared_ball, n=n, seed=seed)


def objective_with_estimated_lg(
    problem: PrototypeProblem, n_pairs: int = 32, seed: int = 0
) -> ScalarObjective:
    """The problem's objective, with a sampled L attached when none is known.

    The composition theory needs the gradient Lipschitz constant on the
    image of the trust region, so pairs are drawn in parameter space and
    pushed through the map before taking difference quotients.  Sampling
    is local (parameter radius capped at 1): log-scale outputs rarely
    admit the constant on very large regions, and a local sampled value
    is reported as such.  If even local evaluation overflows, the radius
    is shrunk; as a last resort the objective is returned unchanged.
    """
    f = problem.f
    if f.L is not None:
        return f
    rng = np.random.default_rng(seed)
    radius = min(problem.declared_ball.radius, 1.0)
    space = f.space
    for _ in range(6):
        try:
            ball = Ball(problem.F.domain, problem.theta0, radius)
            worst = 0.0
            for ta, tb in _sample_pairs(ball, n_pairs, rng):
                ha = problem.F.value(ta)
                hb = problem.F.value(tb)
                dh = space.norm(ha - hb)
                if dh < 1e-12:
                    continue
                worst = max(worst, space.norm(f.grad_fn(ha) - f.grad_fn(hb)) / dh)
            if worst == 0.0:
                return f
            return replace(f, L=CertValue(INFLATE * worst, "sampled", n_pairs, INFLATE))
        except NumericFailure:
            radius /= 10.0
    warnings.warn(
        "objective gradient not evaluable near the initial point; "
        "Lipschitz constant left unset",
        RuntimeWarning,
    )
    return f


def _with_overrides(cert: MapCertificate, overrides: dict) -> MapCertificate:
    """``cert`` with the given constants in place of its own; a mix that
    breaks lam <= K^2 is a config error."""
    given = {key: CertValue(float(v), "analytic") for key, v in overrides.items() if v is not None}
    try:
        return MapCertificate(K=given.get("K_F", cert.K), L=given.get("L_F", cert.L),
                              lam=given.get("lambda_F", cert.lam))
    except ValueError as exc:
        raise InvalidConfig(f"config.certificates.overrides: {exc}")


def make_certificates(problem: PrototypeProblem, mode: str, n_samples: int, seed: int,
                      overrides: dict, ball_pinned: bool):
    """A run's certificate policy: ``(problem, certificate, objective with L,
    radius the trajectory is checked against)``.

    Analytic constants hold on the whole space, so their radius is None.
    Sampled ones are estimated on the declared ball from ``n_samples``
    points and pairs drawn with ``seed``; unless ``ball_pinned``, the ball
    is then re-declared as ten times a provisional ledger's travel
    distance (at least 1e-6) and estimated again, and the radius is the
    returned problem's.  Non-None ``overrides`` (``K_F``, ``L_F``,
    ``lambda_F``) replace the certificate's constants.  An objective with
    no infimum (supervised ``gaussian_nll``, every GAN critic) can have no
    full ledger, so it gets no certificate and keeps its own objective.
    """
    radius = None if mode == "analytic" else problem.declared_ball.radius
    if problem.f.f_star is None:
        return problem, None, problem.f, radius
    if mode == "analytic":
        return problem, _with_overrides(analytic_certificates(problem), overrides), problem.f, None

    def estimate(problem):
        return (_with_overrides(sampled_certificates(problem, n_samples, seed), overrides),
                objective_with_estimated_lg(problem, n_samples, seed))

    cert, obj = estimate(problem)
    if not ball_pinned and obj.L is not None:
        try:
            travel = build_ledger(problem.F, obj, problem.theta0, cert, alpha="auto").dist_bound()
        except (MissingCertificate, InvalidConfig):
            travel = None
        if travel is not None:
            problem = problem.with_ball(max(10.0 * travel, 1e-6))
            cert, obj = estimate(problem)
    return problem, cert, obj, problem.declared_ball.radius


def check_gradients(problem: PrototypeProblem, n_probes: int = 10, seed: int = 0) -> float:
    """Worst finite-difference error of F and of the objective's gradient.

    Probes the initial point and random perturbations of it.  F is checked
    column by column (:func:`fd_check`, 2p forward evaluations made in
    stacked chunks) and the objective one sample block at a time
    (:func:`fd_check_functional`), both with the fixed step
    ``smoothmap.FD_STEP``, so the score does not grow with the
    sample count d.  Assembled problems score below 1e-5 unless a Jacobian
    or gradient is wrong.  A map or objective whose values or derivatives
    overflow at a probe gives a non-finite score, which raises
    NumericFailure.
    """
    rng = np.random.default_rng(seed)
    theta0 = problem.theta0
    worst = 0.0
    probes = [theta0] + [
        theta0 + 0.1 * rng.standard_normal(theta0.size) for _ in range(n_probes)
    ]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in the check below
        for th in probes:
            worst = max(worst, fd_check(problem.F, th))
            z = problem.F.value(th)
            worst = max(worst, fd_check_functional(problem.f, problem.iota, problem.data, z))
    if not math.isfinite(worst):
        raise NumericFailure(f"gradient gate: non-finite finite-difference score {worst}")
    return worst
