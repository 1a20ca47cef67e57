import dataclasses

import numpy as np
import pytest

from plgd.descent import composite_gradient
from plgd.errors import DimensionMismatch, InvalidConfig
from plgd.smoothmap import (
    INFLATE,
    MIN_PAIR_RADIUS,
    Ball,
    CertValue,
    MapCertificate,
    certify,
    estimate_bj,
    estimate_lj,
    estimate_uc,
    fd_check,
    _sample_pairs,
    sample_ball,
)
from plgd.space import LinOp, WeightedSpace, coercivity, op_norm

from oracles import identity_map, linear_map, objective, smooth_map

S1 = WeightedSpace.unit(1)
S2 = WeightedSpace.unit(2)


def scalar_map(value, deriv):
    return smooth_map(
        S1, S1,
        lambda x: np.array([value(x[0])]),
        lambda x: LinOp(S1, S1, [[deriv(x[0])]]),
    )


ROW = linear_map(LinOp(S2, S1, [[1.0, 1.0]]))
SIN = scalar_map(np.sin, np.cos)
HALF_SQUARE = scalar_map(lambda t: 0.5 * t * t, lambda t: t)


def ball2(radius, center=(0.0, 0.0)):
    return Ball(S2, center, radius)


def ball1(radius):
    return Ball(S1, np.zeros(1), radius)


class TestFdCheck:
    def test_linear_map_is_exact(self):
        assert fd_check(ROW, [0.3, -0.7]) <= 1e-10

    def test_square_coordinate(self):
        f = smooth_map(
            S2, S2,
            lambda x: np.array([x[0] ** 2, x[1]]),
            lambda x: LinOp(S2, S2, [[2 * x[0], 0.0], [0.0, 1.0]]),
        )
        assert fd_check(f, [1.0, 1.0]) <= 1e-8

    def test_catches_planted_factor_two(self):
        buggy = smooth_map(
            S2, S2,
            lambda x: np.array([x[0] ** 2, x[1]]),
            lambda x: LinOp(S2, S2, [[4 * x[0], 0.0], [0.0, 2.0]]),
        )
        assert fd_check(buggy, [1.0, 1.0]) == pytest.approx(0.5, abs=0.05)

    def test_checks_vjp_against_adjoint(self):
        square = smooth_map(
            S2, S2,
            lambda x: np.array([x[0] ** 2, x[1]]),
            lambda x: LinOp(S2, S2, [[2 * x[0], 0.0], [0.0, 1.0]]),
        )

        def with_pull(pull):
            return dataclasses.replace(
                square, value_and_vjp_fn=lambda x: (square.value_fn(x), lambda v: pull(x, v))
            )

        def exact_pull(x, v):
            return np.array([2 * x[0] * v[0], v[1]])

        exact = with_pull(exact_pull)
        assert fd_check(exact, [1.0, 1.0]) == fd_check(square, [1.0, 1.0])
        doubled = with_pull(lambda x, v: 2.0 * exact_pull(x, v))
        assert fd_check(doubled, [1.0, 1.0]) == pytest.approx(0.5)
        nan = with_pull(lambda x, v: np.full(2, np.nan))
        assert fd_check(nan, [1.0, 1.0]) == np.inf

    def test_differences_come_from_the_stack(self):
        x = [0.3, -0.7]

        def with_stack(stack):
            return dataclasses.replace(ROW, value_stack_fn=stack)

        assert fd_check(with_stack(lambda xs: xs.sum(axis=1, keepdims=True)), x) <= 1e-10
        doubled = with_stack(lambda xs: 2.0 * xs.sum(axis=1, keepdims=True))
        assert fd_check(doubled, x) == pytest.approx(0.5)
        nan = with_stack(lambda xs: np.full((len(xs), 1), np.nan))
        assert fd_check(nan, x) == np.inf

    def test_non_finite_difference_scores_infinity(self):
        edge = scalar_map(lambda t: t if t <= 1.0 else np.nan, lambda t: 1.0)
        assert fd_check(edge, [0.5]) <= 1e-10
        assert fd_check(edge, [1.0]) == np.inf


class TestEstimateBJ:
    def test_linear_constant_norm(self):
        assert estimate_bj(ROW, ball2(5.0), n=8, seed=0) == pytest.approx(
            1.1 * np.sqrt(2.0), rel=1e-9
        )

    def test_constant_map(self):
        const = smooth_map(
            S2, S1,
            lambda x: np.array([3.0]),
            lambda x: LinOp(S2, S1, [[0.0, 0.0]]),
        )
        assert estimate_bj(const, ball2(1.0), n=4, seed=0) == 0.0

    def test_sin_sup_attained_at_center(self):
        est = estimate_bj(SIN, ball1(np.pi), n=16, seed=0)
        assert 1.0 <= est <= 1.1 + 1e-12

    def test_deterministic_given_seed(self):
        a = estimate_bj(SIN, ball1(np.pi), n=16, seed=7)
        b = estimate_bj(SIN, ball1(np.pi), n=16, seed=7)
        assert a == b


class TestEstimateLJ:
    def test_linear_map_gives_exact_zero(self):
        assert estimate_lj(ROW, ball2(3.0), n_pairs=8, seed=0) == 0.0

    def test_half_square_ratio_is_one(self):
        raw = estimate_lj(HALF_SQUARE, ball1(1.0), n_pairs=16, seed=0) / INFLATE
        assert raw == pytest.approx(1.0, rel=1e-9)
        inflated = estimate_lj(HALF_SQUARE, ball1(1.0), n_pairs=16, seed=0)
        assert 1.0 - 1e-9 <= inflated <= 1.1 + 1e-9

    def test_bilinear_form_against_hessian_oracle(self):
        f = smooth_map(
            S2, S1,
            lambda x: np.array([x[0] * x[1]]),
            lambda x: LinOp(S2, S1, [[x[1], x[0]]]),
        )
        raw = estimate_lj(f, ball2(1.0), n_pairs=32, seed=0) / INFLATE
        # Frobenius norm of the constant Hessian [[0,1],[1,0]] bounds the
        # operator-norm Lipschitz constant from above
        assert raw <= np.sqrt(2.0) + 1e-9
        assert raw >= 0.9

    def test_coincident_pairs_resampled_not_fatal(self):
        # zero-radius ball makes every independent pair coincide; the local
        # perturbation pairs still give valid quotients
        est = estimate_lj(HALF_SQUARE, ball1(0.0), n_pairs=4, seed=0) / INFLATE
        assert np.isfinite(est)

    def test_ball_below_the_pair_floor_is_refused(self):
        # smaller balls, on which resampling would never end, are run under
        # a time limit in test_cli.py
        with pytest.raises(InvalidConfig, match="0 or at least 1e-09; got 9.99e-10"):
            _sample_pairs(ball2(0.999 * MIN_PAIR_RADIUS), 4, np.random.default_rng(0))


class TestEstimateUC:
    def test_rank_one_row(self):
        assert estimate_uc(ROW, ball2(1.0), n=8, seed=0) == pytest.approx(1.8, rel=1e-9)

    def test_underparameterized_returns_absent(self):
        tall = linear_map(LinOp(S1, S2, [[1.0], [0.0]]))
        assert estimate_uc(tall, ball1(1.0), n=4, seed=0) is None

    def test_identity(self):
        ident = identity_map(S2)
        assert estimate_uc(ident, ball2(1.0), n=4, seed=0) == pytest.approx(0.9)


class TestSampling:
    def test_points_stay_in_ball(self):
        rng = np.random.default_rng(0)
        b = ball2(2.5, center=(1.0, -1.0))
        for p in sample_ball(b, 200, rng):
            assert S2.norm(p - b.center) <= 2.5 + 1e-12

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Ball(S2, np.zeros(2), -1.0)

    def test_center_is_a_read_only_copy_of_checked_shape(self):
        c = np.array([1.0, 2.0])
        b = Ball(S2, c, 1.0)
        c[0] = 5.0
        assert b.center.tolist() == [1.0, 2.0] and not b.center.flags.writeable
        with pytest.raises(DimensionMismatch):
            Ball(S2, np.zeros(3), 1.0)


class TestCertificate:
    def test_inconsistent_lam_rejected(self):
        with pytest.raises(ValueError):
            MapCertificate(K=CertValue(1.0), L=CertValue(0.0), lam=CertValue(2.0))

    def test_certify_bundles_provenance(self):
        cert = certify(ROW, ball2(1.0), n=8, seed=0)
        assert cert.K.provenance == "sampled"
        assert cert.L.provenance == "analytic"  # linear map: exactly zero
        assert cert.L.value == 0.0
        assert cert.lam is not None and cert.lam.value == pytest.approx(1.8)
        assert cert.provenance == "sampled"


class TestSampledBoundsHold:
    def tanh_map(self):
        # nonlinear map R^3 -> R^2 with closed-form Jacobian
        s3, s2 = WeightedSpace.unit(3), WeightedSpace.unit(2)
        w = np.array([[0.6, -0.2, 0.1], [0.3, 0.8, -0.5]])

        def jac(x):
            d = 1.0 - np.tanh(w @ x) ** 2
            return LinOp(s3, s2, d[:, None] * w)

        return smooth_map(s3, s2, lambda x: np.tanh(w @ x), jac), s3

    def test_bj_upper_bounds_fresh_probes(self):
        f, s3 = self.tanh_map()
        ball = Ball(s3, np.zeros(3), 2.0)
        k = estimate_bj(f, ball, n=64, seed=0)
        rng = np.random.default_rng(99)
        violations = sum(
            1 for p in sample_ball(ball, 1000, rng) if op_norm(f.jacobian(p)) > k
        )
        assert violations <= 1  # <= 0.1% of 1000

    def test_raw_conditioning_below_raw_norm_squared_pointwise(self):
        f, s3 = self.tanh_map()
        ball = Ball(s3, np.zeros(3), 1.5)
        rng = np.random.default_rng(5)
        for p in sample_ball(ball, 20, rng):
            lam = coercivity(f.jacobian(p))
            k = op_norm(f.jacobian(p))
            assert lam <= k**2 * (1 + 1e-9)

    def test_segment_fundamental_theorem_quadrature(self):
        f, s3 = self.tanh_map()
        nodes, wts = np.polynomial.legendre.leggauss(64)
        nodes, wts = 0.5 * (nodes + 1.0), 0.5 * wts
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            acc = np.zeros(2)
            for t, w in zip(nodes, wts):
                acc += w * f.jacobian(x + t * (y - x)).apply(y - x)
            diff = f.value(y) - f.value(x)
            denom = max(f.codomain.norm(diff), 1e-12)
            assert f.codomain.norm(acc - diff) / denom <= 1e-8


class TestVJP:
    def test_adjoint_pull_is_the_jacobian_adjoint_bit_for_bit(self):
        rng = np.random.default_rng(3)
        w = np.tanh(rng.standard_normal((3, 2)))
        cod = WeightedSpace(np.array([0.2, 0.5, 0.3]))

        def jac(x):
            d = 1.0 - np.tanh(w @ x) ** 2
            return LinOp(S2, cod, d[:, None] * w)

        f = smooth_map(S2, cod, lambda x: np.tanh(w @ x), jac)
        for _ in range(5):
            x, v = rng.standard_normal(2), rng.standard_normal(3)
            fx, pull = f.value_and_vjp_fn(x)
            np.testing.assert_array_equal(fx, f.value_fn(x))
            np.testing.assert_array_equal(pull(v), jac(x).adjoint_apply(v))

    def test_composite_gradient_calls_the_vjp_fn_once(self):
        calls = []

        def value_and_vjp_fn(x):
            calls.append(x)
            return np.ones(1), lambda v: np.array([2.0, -1.0]) * v[0]

        f = dataclasses.replace(ROW, value_and_vjp_fn=value_and_vjp_fn)
        obj = objective(S1, lambda h: float(h @ h), lambda h: 3.0 * h)
        np.testing.assert_array_equal(composite_gradient(f, obj, np.zeros(2)), [6.0, -3.0])
        assert len(calls) == 1
