import numpy as np
import pytest

from plgd.errors import MissingCertificate
from plgd.smoothmap import Ball, CertValue
from plgd.space import WeightedSpace

from oracles import check_pl, estimate_lg, objective, quadratic

S2 = WeightedSpace.unit(2)
S3 = WeightedSpace.unit(3)


def shifted_quadratic(space, target):
    t = np.asarray(target, dtype=float)
    return objective(
        space,
        lambda h: 0.5 * space.inner(h - t, h - t),
        lambda h: h - t,
        f_star=0.0,
        L=CertValue(1.0),
        lam=CertValue(1.0),
        minimizer=t,
    )


def ball(space, radius, center=None):
    c = np.zeros(space.dim) if center is None else np.asarray(center, float)
    return Ball(space, c, radius)


def fd_gradient_error(f, h0, step=1e-5):
    """Relative error of ``f.grad_fn(h0)`` against central differences of
    ``f.value_fn``, in the weighted norm.

    The k-th difference quotient is the directional derivative along e_k,
    ``<grad, e_k> = w_k grad_k``, so dividing by the weights gives the
    metric representer that ``grad_fn`` returns.
    """
    space = f.space
    diffs = [f.value_fn(h0 + e) - f.value_fn(h0 - e) for e in step * np.eye(space.dim)]
    fd = np.array(diffs) / (2.0 * step) / space.weights
    g = f.grad_fn(h0)
    return space.norm(fd - g) / max(space.norm(g), space.norm(fd))


class TestEstimateLG:
    def test_quadratic_raw_ratio_exactly_one(self):
        f = shifted_quadratic(S3, [1.0, -2.0, 0.5])
        raw = estimate_lg(f, ball(S3, 2.0), n_pairs=32, seed=0, inflate=1.0)
        assert raw == pytest.approx(1.0, abs=1e-9)

    def test_affine_gives_zero(self):
        f = objective(S2, lambda h: h[0] - 2 * h[1] + 3, lambda h: np.array([1.0, -2.0]))
        assert estimate_lg(f, ball(S2, 1.0), n_pairs=16, seed=0) == 0.0

    def test_quartic_on_unit_ball(self):
        f = objective(
            S2,
            lambda h: 0.25 * float(np.dot(h, h)) ** 2,
            lambda h: float(np.dot(h, h)) * h,
            f_star=0.0,
        )
        raw = estimate_lg(f, ball(S2, 1.0), n_pairs=200, seed=0, inflate=1.0)
        assert 2.9 <= raw <= 3.0 + 1e-9  # Hessian norm 3 ||h||^2, sup = 3


class TestCheckPL:
    def test_quadratic_ratio_identically_one(self):
        f = shifted_quadratic(S3, [0.3, 0.3, -1.0])
        rep = check_pl(f, ball(S3, 3.0), n=64, seed=0)
        assert rep.lambda_hat == pytest.approx(1.0, abs=1e-9)
        assert rep.lambda_hat >= 1.0 - 1e-12

    def test_constant_objective_has_no_valid_samples(self):
        f = objective(S2, lambda h: 2.0, lambda h: np.zeros(2), f_star=2.0)
        rep = check_pl(f, ball(S2, 1.0), n=16, seed=0)
        assert rep.lambda_hat is None
        assert rep.n_valid == 0 and rep.n_skipped == 16

    def test_requires_f_star(self):
        f = objective(S2, lambda h: h[0] ** 2, lambda h: np.array([2 * h[0], 0.0]))
        with pytest.raises(MissingCertificate):
            check_pl(f, ball(S2, 1.0))

    def test_flat_tails_degrade_with_radius(self):
        # gradient vanishing at infinity: the sampled PL constant decays
        f = objective(
            S2,
            lambda h: float(np.log(1.0 + np.exp(-h[0]))),
            lambda h: np.array([-1.0 / (1.0 + np.exp(h[0])), 0.0]),
            f_star=0.0,
        )
        lams = [
            check_pl(f, ball(S2, r), n=128, seed=0).lambda_hat for r in (1.0, 10.0, 40.0)
        ]
        assert lams[0] > lams[1] > lams[2]


class TestGradientOracle:
    def test_fd_check_on_shipped_objectives(self):
        rng = np.random.default_rng(0)
        quart = objective(
            S3,
            lambda h: 0.25 * float(np.dot(h, h)) ** 2,
            lambda h: float(np.dot(h, h)) * h,
        )
        quad = quadratic(S3, np.diag([1.0, 2.0, 4.0]), b=[1.0, 0.0, -1.0])
        for f in (quart, quad):
            for _ in range(50):
                assert fd_gradient_error(f, rng.standard_normal(3)) <= 1e-5

    def test_weighted_space_gradient_representer(self):
        space = WeightedSpace([0.25, 0.75])
        t = np.array([1.0, -1.0])
        f = shifted_quadratic(space, t)
        # directional derivative along e_0 is w_0 * (h - t)_0
        assert fd_gradient_error(f, np.array([2.0, 2.0])) <= 1e-8

    def test_bounded_gradient_on_bounded_sets(self):
        f = shifted_quadratic(S3, [0.0, 1.0, 2.0])
        b = ball(S3, 5.0, center=[1.0, 1.0, 1.0])
        g0 = f.space.norm(f.grad_fn(b.center))
        bound = g0 + f.L.value * b.radius
        rng = np.random.default_rng(4)
        from plgd.smoothmap import sample_ball

        for p in sample_ball(b, 200, rng):
            assert f.space.norm(f.grad_fn(p)) <= bound * (1 + 1e-12)


class TestQuadraticFactory:
    def test_diagonal_constants(self):
        f = quadratic(S2, np.diag([1.0, 4.0]))
        assert f.L.value == pytest.approx(4.0)
        assert f.lam.value == pytest.approx(1.0)
        assert f.f_star == pytest.approx(0.0)
        assert np.allclose(f.minimizer, 0.0)

    def test_minimum_norm_solution(self):
        f = quadratic(S2, np.diag([2.0, 0.0]), b=[4.0, 0.0])
        assert np.allclose(f.minimizer, [2.0, 0.0])
        assert f.f_star == pytest.approx(-4.0)
        assert f.lam.value == pytest.approx(2.0)  # smallest nonzero eigenvalue

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            quadratic(S2, [[1.0, 1.0], [0.0, 1.0]])
