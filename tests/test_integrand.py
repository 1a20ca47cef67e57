import itertools
import math

import numpy as np
import pytest

from plgd.errors import InvalidDataset, NumericFailure
from plgd.integrand import (
    SQRT_2PI,
    Dataset,
    SamplePoint,
    fd_check_integrand,
    gan_integrand,
    gaussian_nll,
    integral_functional,
    kl_diag_gaussian,
    least_squares,
    negate,
    softmax_ce,
    vae_integrand,
)
from plgd.objective import check_pl, estimate_lg
from plgd.smoothmap import Ball, fd_check
from plgd.space import SpaceVec


def target_point(t):
    return SamplePoint(x=np.zeros(1), target=np.asarray(t, dtype=float))


class TestDataset:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidDataset):
            Dataset.from_arrays([[0.0], [1.0]], weights=np.array([0.5, 0.6]))

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidDataset):
            Dataset.from_arrays([[0.0], [1.0]], weights=np.array([1.0, 0.0]))

    def test_inputs_must_be_finite(self):
        with pytest.raises(InvalidDataset, match="inputs must be finite"):
            Dataset.from_arrays([[0.0], [math.nan]])

    def test_array_targets_must_be_finite(self):
        with pytest.raises(InvalidDataset, match="targets must be finite"):
            Dataset.from_arrays([[0.0], [1.0]], targets=[np.array([1.0]), np.array([math.inf])])

    def test_weights_must_be_finite(self):
        # NaN compares false both ways, so it passes a plain "w <= 0" check
        with pytest.raises(InvalidDataset, match="finite"):
            Dataset.from_arrays([[0.0], [1.0]], weights=np.array([math.nan, 0.5]))

    def test_uniform_default_and_function_space(self):
        d = Dataset.from_arrays([[0.0], [1.0], [2.0], [3.0]])
        assert np.allclose(d.weights, 0.25)
        space = d.function_space(3)
        assert space.dim == 12
        assert np.allclose(space.weights, 0.25)


class TestLeastSquares:
    def test_plain_value_and_gradient(self):
        iota = least_squares(k=1)
        p = target_point([1.0])
        assert iota.value(p, [0.0]) == pytest.approx(0.5)
        assert iota.grad(p, [0.0]) == pytest.approx([-1.0])
        assert iota.pointwise_inf(p) == 0.0

    def test_sigma_formula_verbatim(self):
        iota = least_squares(sigma=[1.0])
        p = target_point([0.0])
        assert iota.value(p, [3.0]) == pytest.approx(4.5 + SQRT_2PI, rel=1e-12)
        assert iota.value(p, [0.0]) == pytest.approx(SQRT_2PI)  # z = t
        assert iota.grad(p, [2.0]) == pytest.approx([2.0])

    def test_sigma_constants(self):
        iota = least_squares(sigma=[0.5, 2.0])
        assert iota.lipschitz == pytest.approx(4.0)
        assert iota.pl == pytest.approx(0.25)
        assert iota.pointwise_inf(target_point([0.0, 0.0])) == pytest.approx(SQRT_2PI * 1.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            least_squares(sigma=[1.0, -1.0])


class TestGaussianNLL:
    def test_paper_value_at_zero(self):
        iota = gaussian_nll(1)
        assert iota.value(target_point([0.0]), [0.0, 0.0]) == pytest.approx(SQRT_2PI, rel=1e-12)

    def test_zero_residual_leaves_normalizer(self):
        iota = gaussian_nll(1)
        assert iota.value(target_point([1.0]), [1.0, 0.0]) == pytest.approx(SQRT_2PI)

    def test_mean_gradient(self):
        iota = gaussian_nll(1)
        assert iota.grad(target_point([0.0]), [2.0, 0.0])[0] == pytest.approx(2.0)

    def test_overflow_guard(self):
        iota = gaussian_nll(1)
        with pytest.raises(NumericFailure):
            iota.value(target_point([0.0]), [0.0, 701.0])

    def test_no_global_constants(self):
        iota = gaussian_nll(2)
        assert iota.lipschitz is None and iota.pl is None and iota.pointwise_inf is None

    def test_textbook_normalization_variant(self):
        verbatim = gaussian_nll(1)
        textbook = gaussian_nll(1, normalization="textbook")
        p = target_point([0.5])
        z = np.array([0.2, -0.3])
        # same residual term, different normalizer
        resid = 0.5 * ((0.5 - 0.2) * np.exp(0.3)) ** 2
        assert verbatim.value(p, z) == pytest.approx(resid + SQRT_2PI * np.exp(-0.3))
        assert textbook.value(p, z) == pytest.approx(resid - 0.3 + 0.5 * np.log(2 * np.pi))
        rng = np.random.default_rng(0)
        for _ in range(20):
            zz = rng.standard_normal(2)
            assert fd_check_integrand(textbook, p, zz) <= 1e-5

    def test_variant_flag_validated(self):
        with pytest.raises(ValueError):
            gaussian_nll(1, normalization="folklore")
        with pytest.raises(ValueError):
            least_squares(sigma=[1.0], normalization="folklore")

    def test_textbook_fixed_variance_constant(self):
        iota = least_squares(sigma=[2.0], normalization="textbook")
        p = target_point([1.0])
        expected_const = np.log(2.0) + 0.5 * np.log(2 * np.pi)
        assert iota.value(p, [1.0]) == pytest.approx(expected_const)
        assert iota.pointwise_inf(p) == pytest.approx(expected_const)


class TestSoftmax:
    def test_uniform_logits(self):
        iota = softmax_ce(2)
        p = SamplePoint(x=np.zeros(1), target=1)
        assert iota.value(p, [0.0, 0.0]) == pytest.approx(math.log(2.0), rel=1e-12)
        assert iota.grad(p, [0.0, 0.0]) == pytest.approx([-0.5, 0.5])

    def test_confident_correct_goes_to_zero(self):
        iota = softmax_ce(2)
        p = SamplePoint(x=np.zeros(1), target=1)
        assert iota.value(p, [40.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        iota = softmax_ce(3)
        p = SamplePoint(x=np.zeros(1), target=2)
        z = np.array([1.0, -2.0, 0.5])
        for c in (-100.0, -1.0, 7.0, 100.0):
            assert abs(iota.value(p, z + c) - iota.value(p, z)) <= 1e-12

    def test_target_range_enforced(self):
        iota = softmax_ce(2)
        with pytest.raises(InvalidDataset):
            iota.value(SamplePoint(x=np.zeros(1), target=0), [0.0, 0.0])
        with pytest.raises(InvalidDataset):
            iota.value(SamplePoint(x=np.zeros(1), target=3), [0.0, 0.0])

    def test_infimum_flagged_unattained(self):
        iota = softmax_ce(2)
        assert iota.pointwise_inf(SamplePoint(x=np.zeros(1), target=1)) == 0.0
        assert not iota.inf_attained
        assert iota.lipschitz == 1.0


class TestVAEIntegrand:
    def test_kl_closed_form(self):
        assert kl_diag_gaussian(np.array([0.0, 0.0])) == 0.0
        assert kl_diag_gaussian(np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_gradient_in_mean(self):
        iota = vae_integrand(least_squares(k=1), beta=2.0, latent_dim=1)
        p = SamplePoint(x=np.zeros(2), target=np.array([0.0]))
        g = iota.grad(p, np.array([1.0, 0.0, 0.0]))
        assert g[0] == pytest.approx(2.0)  # beta * m

    def test_infimum_adds_up(self):
        iota = vae_integrand(least_squares(sigma=[2.0]), beta=1.0, latent_dim=1)
        p = SamplePoint(x=np.zeros(2), target=np.array([0.3]))
        assert iota.pointwise_inf(p) == pytest.approx(SQRT_2PI * 2.0)


class TestGanIntegrand:
    def test_wgan_real_sample_unit_gradient_norm(self):
        iota = gan_integrand("wgan_gp", beta=10.0, k=2)
        p = SamplePoint(x=np.zeros(2), mix_real=2.0, mix_gen=0.0)
        assert iota.value(p, [3.0, 1.0, 0.0]) == pytest.approx(6.0)

    def test_wgan_penalty_gradient_magnitude(self):
        iota = gan_integrand("wgan_gp", beta=1.0, k=2)
        p = SamplePoint(x=np.zeros(2), mix_real=1.0, mix_gen=0.0)
        g = iota.grad(p, np.array([0.0, 2.0, 0.0]))
        assert np.linalg.norm(g[1:]) == pytest.approx(2.0)

    def test_r1_generated_sample(self):
        iota = gan_integrand("r1", beta=1.0, k=2)
        p = SamplePoint(x=np.zeros(2), mix_real=0.0, mix_gen=2.0)
        assert iota.value(p, [0.5, 0.0, 0.0]) == pytest.approx(2.0 * math.log(0.5))

    def test_r1_domain_errors(self):
        iota = gan_integrand("r1", beta=1.0, k=1)
        gen = SamplePoint(x=np.zeros(1), mix_real=0.0, mix_gen=2.0)
        real = SamplePoint(x=np.zeros(1), mix_real=2.0, mix_gen=0.0)
        with pytest.raises(NumericFailure):
            iota.value(gen, [1.0, 0.0])
        with pytest.raises(NumericFailure):
            iota.value(real, [-0.5, 0.0])

    def test_payload_must_carry_mixture(self):
        iota = gan_integrand("wgan_gp", beta=1.0, k=1)
        with pytest.raises(InvalidDataset):
            iota.value(SamplePoint(x=np.zeros(1)), [0.0, 0.0])

    def test_negate_flips_value_and_gradient(self):
        iota = gan_integrand("wgan_gp", beta=1.0, k=1)
        neg = negate(iota)
        p = SamplePoint(x=np.zeros(1), mix_real=2.0, mix_gen=0.0)
        z = np.array([1.5, 0.3])
        assert neg.value(p, z) == -iota.value(p, z)
        assert np.allclose(neg.grad(p, z), -iota.grad(p, z))


class TestGradientOracles:
    def shipped(self):
        rng = np.random.default_rng(0)
        cases = []
        for iota in (least_squares(k=2), least_squares(sigma=[0.7, 1.3])):
            cases += [
                (iota, target_point(rng.standard_normal(2)), rng.standard_normal(2))
                for _ in range(50)
            ]
        nll = gaussian_nll(2)
        cases += [
            (nll, target_point(rng.standard_normal(2)), rng.standard_normal(4))
            for _ in range(50)
        ]
        sm = softmax_ce(3)
        cases += [
            (sm, SamplePoint(x=np.zeros(1), target=int(rng.integers(1, 4))),
             rng.standard_normal(3))
            for _ in range(50)
        ]
        va = vae_integrand(least_squares(k=2), beta=1.5, latent_dim=2)
        cases += [
            (va, SamplePoint(x=np.zeros(4), target=rng.standard_normal(2)),
             rng.standard_normal(6))
            for _ in range(50)
        ]
        wg = gan_integrand("wgan_gp", beta=10.0, k=2)
        r1 = gan_integrand("r1", beta=5.0, k=2)
        for _ in range(50):
            side = rng.uniform() < 0.5
            p = SamplePoint(x=np.zeros(2), mix_real=2.0 * side, mix_gen=2.0 * (not side))
            cases.append((wg, p, np.concatenate([[rng.standard_normal()], rng.standard_normal(2)])))
            cases.append((r1, p, np.concatenate([[0.05 + 0.9 * rng.uniform()], rng.standard_normal(2)])))
        return cases

    def test_all_integrands_pass_fd(self):
        for iota, p, z in self.shipped():
            assert fd_check_integrand(iota, p, z) <= 1e-5, iota.name


class TestIntegralFunctional:
    def two_point_data(self):
        return Dataset.from_arrays(
            [[0.0], [1.0]], targets=[np.array([1.0]), np.array([-1.0])]
        )

    def test_hand_sum_value_and_gradient(self):
        f = integral_functional(least_squares(k=1), self.two_point_data())
        assert f.value_fn(np.zeros(2)) == pytest.approx(0.5)
        assert np.allclose(f.grad_fn(np.zeros(2)), [-1.0, 1.0])

    def test_value_at_minimizer_equals_infimum(self):
        data = self.two_point_data()
        f = integral_functional(least_squares(sigma=[2.0]), data)
        assert f.value_fn(f.minimizer) == pytest.approx(f.f_star, rel=1e-12)
        assert f.f_star == pytest.approx(SQRT_2PI * 2.0)

    def test_constant_integrand_degenerates(self):
        from plgd.integrand import Integrand

        flat = Integrand(
            out_dim=1,
            value_fn=lambda p, z: 1.0,
            grad_fn=lambda p, z: np.zeros(1),
            pointwise_inf=lambda p: 1.0,
        )
        f = integral_functional(flat, self.two_point_data())
        assert np.allclose(f.grad_fn(np.array([3.0, -3.0])), 0.0)
        assert f.value_fn(np.zeros(2)) == pytest.approx(f.f_star)

    def test_weighted_gradient_is_pointwise(self):
        data = Dataset.from_arrays(
            [[0.0], [1.0]], targets=[np.array([0.0]), np.array([0.0])],
            weights=np.array([0.25, 0.75]),
        )
        f = integral_functional(least_squares(k=1), data)
        h = np.array([2.0, -2.0])
        assert np.allclose(f.grad_fn(h), h)  # masses live in the metric only
        assert fd_check(f.as_map(), h) <= 1e-6

    def test_inherited_constants_match_sampling(self):
        data = self.two_point_data()
        f = integral_functional(least_squares(k=1), data)
        assert f.L.value == 1.0 and f.lam.value == 1.0
        ball = Ball(SpaceVec(f.space, np.array([0.5, 0.5])), 2.0)
        assert estimate_lg(f, ball, n_pairs=32, seed=0, inflate=1.0) == pytest.approx(
            1.0, abs=1e-9
        )
        rep = check_pl(f, ball, n=64, seed=0)
        assert rep.lambda_hat == pytest.approx(1.0, abs=1e-9)

    def test_infimum_interchange_against_grid_oracle(self):
        rng = np.random.default_rng(6)
        data = Dataset.from_arrays(
            list(rng.standard_normal((4, 1))),
            targets=[rng.uniform(-1.5, 1.5, size=2) for _ in range(4)],
        )
        iota = least_squares(sigma=[1.0, 1.0])
        f = integral_functional(iota, data)
        axis = np.linspace(-3.0, 3.0, 21)
        total = 0.0
        for p, w in zip(data.points, data.weights):
            best = min(
                iota.value(p, np.array(z)) for z in itertools.product(axis, axis)
            )
            total += w * best
        step = axis[1] - axis[0]
        resolution = 0.5 * iota.lipschitz * 2 * (step / 2) ** 2
        assert abs(total - f.f_star) <= resolution + 1e-9

    def test_missing_pointwise_inf_disables_f_star(self):
        data = Dataset.from_arrays([[0.0]], targets=[np.array([0.0, 0.0])])
        f = integral_functional(gaussian_nll(1), data)
        assert f.f_star is None
