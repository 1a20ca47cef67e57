import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plgd.errors import InvalidDataset, NumericFailure
from plgd.integrand import (
    SQRT_2PI,
    Dataset,
    Integrand,
    fd_check_functional,
    gan_integrand,
    gaussian_nll,
    integral_functional,
    kl_diag_gaussian_and_grad,
    least_squares,
    negate,
    softmax_ce,
    vae_integrand,
)
from plgd.smoothmap import Ball

from oracles import check_pl, estimate_lg, fd_check_integrand


def target_data(*targets):
    """One atom per target row; the losses never read the inputs."""
    return Dataset(np.zeros((len(targets), 1)), targets=np.asarray(targets, dtype=float))


def label_data(*labels):
    return Dataset(np.zeros((len(labels), 1)), targets=list(labels))


def mixture_data(*sides):
    """One atom per side flag: True carries density (2, 0), False (0, 2)."""
    mix = [[2.0, 0.0] if real else [0.0, 2.0] for real in sides]
    return Dataset(np.zeros((len(sides), 1)), mix=mix)


class TestDataset:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidDataset):
            Dataset([[0.0], [1.0]], weights=np.array([0.5, 0.6]))

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidDataset):
            Dataset([[0.0], [1.0]], weights=np.array([1.0, 0.0]))

    def test_inputs_must_be_finite(self):
        with pytest.raises(InvalidDataset, match="inputs must be finite"):
            Dataset([[0.0], [math.nan]])

    def test_array_targets_must_be_finite(self):
        with pytest.raises(InvalidDataset, match="targets must be finite"):
            Dataset([[0.0], [1.0]], targets=[np.array([1.0]), np.array([math.inf])])

    def test_weights_must_be_finite(self):
        # NaN compares false both ways, so it passes a plain "w <= 0" check
        with pytest.raises(InvalidDataset, match="finite"):
            Dataset([[0.0], [1.0]], weights=np.array([math.nan, 0.5]))

    def test_uniform_default_and_function_space(self):
        d = Dataset([[0.0], [1.0], [2.0], [3.0]])
        assert np.allclose(d.weights, 0.25)
        space = d.function_space(3)
        assert space.dim == 12
        assert np.allclose(space.weights, 0.25)

    @pytest.mark.parametrize(
        "inputs, targets, mix",
        [
            ([[0.0], [1.0, 2.0]], None, None),          # ragged inputs
            ([0.0, 1.0], None, None),                   # flat inputs
            ([[0.0], [1.0]], [[1.0], [1.0, 2.0]], None),  # ragged targets
            ([[0.0], [1.0]], [[1.0], 2], None),         # mixed labels and arrays
            ([[0.0], [1.0]], [1.0, 2.0, 3.0], None),    # one target too many
            ([[0.0], [1.0]], ["a", "b"], None),         # non-numeric targets
            ([[0.0], [1.0]], None, [[2.0, 0.0]]),       # short mixture
        ],
    )
    def test_malformed_shapes_rejected(self, inputs, targets, mix):
        with pytest.raises(InvalidDataset):
            Dataset(inputs, targets=targets, mix=mix)

    def test_target_kinds_and_read_only_arrays(self):
        labels = Dataset([[0.0], [1.0]], targets=[2, 1])
        assert labels.targets.dtype == np.int64 and labels.targets.shape == (2,)
        column = Dataset([[0.0], [1.0]], targets=[0.5, -0.5])
        assert column.targets.shape == (2, 1)
        with pytest.raises(ValueError):
            column.inputs[0, 0] = 1.0
        rows = column.points
        assert np.array_equal(rows[1].x, [1.0]) and np.array_equal(rows[1].target, [-0.5])
        assert labels.points[0].target == 2


class TestLeastSquares:
    def test_plain_value_and_gradient(self):
        iota = least_squares(k=1)
        data = target_data([1.0], [1.0])
        assert iota.value(data, [[0.0], [1.0]]) == pytest.approx([0.5, 0.0])
        assert iota.grad(data, [[0.0], [1.0]])[:, 0] == pytest.approx([-1.0, 0.0])
        assert iota.pointwise_inf(data) == pytest.approx([0.0, 0.0])

    def test_sigma_formula_verbatim(self):
        iota = least_squares(sigma=[1.0])
        data = target_data([0.0], [0.0])
        z = [[3.0], [0.0]]  # second row at z = t
        assert iota.value(data, z) == pytest.approx([4.5 + SQRT_2PI, SQRT_2PI], rel=1e-12)
        assert iota.grad(data, [[2.0], [0.0]])[:, 0] == pytest.approx([2.0, 0.0])

    def test_sigma_constants(self):
        iota = least_squares(sigma=[0.5, 2.0])
        assert iota.lipschitz == pytest.approx(4.0)
        assert iota.pl == pytest.approx(0.25)
        assert iota.pointwise_inf(target_data([0.0, 0.0])) == pytest.approx([SQRT_2PI * 1.0])

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            least_squares(sigma=[1.0, -1.0])


class TestGaussianNLL:
    def test_paper_value_at_zero(self):
        iota = gaussian_nll(1)
        assert iota.value(target_data([0.0]), [[0.0, 0.0]]) == pytest.approx([SQRT_2PI], rel=1e-12)

    def test_zero_residual_leaves_normalizer(self):
        iota = gaussian_nll(1)
        assert iota.value(target_data([1.0]), [[1.0, 0.0]]) == pytest.approx([SQRT_2PI])

    def test_mean_gradient(self):
        iota = gaussian_nll(1)
        assert iota.grad(target_data([0.0]), [[2.0, 0.0]])[0, 0] == pytest.approx(2.0)

    def test_overflow_guard(self):
        iota = gaussian_nll(1)
        with pytest.raises(NumericFailure):
            iota.value(target_data([0.0], [0.0]), [[0.0, 0.0], [0.0, 701.0]])

    def test_no_global_constants(self):
        iota = gaussian_nll(2)
        assert iota.lipschitz is None and iota.pl is None and iota.pointwise_inf is None


class TestSoftmax:
    def test_uniform_logits(self):
        iota = softmax_ce(2)
        data = label_data(1)
        assert iota.value(data, [[0.0, 0.0]]) == pytest.approx([math.log(2.0)], rel=1e-12)
        assert iota.grad(data, [[0.0, 0.0]])[0] == pytest.approx([-0.5, 0.5])

    def test_confident_correct_goes_to_zero(self):
        iota = softmax_ce(2)
        assert iota.value(label_data(1), [[40.0, 0.0]]) == pytest.approx([0.0], abs=1e-12)

    def test_shift_invariance(self):
        iota = softmax_ce(3)
        data = label_data(2)
        z = np.array([[1.0, -2.0, 0.5]])
        for c in (-100.0, -1.0, 7.0, 100.0):
            assert abs(iota.value(data, z + c) - iota.value(data, z)).max() <= 1e-12

    def test_target_range_enforced(self):
        iota = softmax_ce(2)
        with pytest.raises(InvalidDataset):
            iota.value(label_data(1, 0), [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidDataset):
            iota.value(label_data(3), [[0.0, 0.0]])
        with pytest.raises(InvalidDataset):
            iota.value(target_data([1.0]), [[0.0, 0.0]])

    def test_infimum_zero_and_unit_lipschitz(self):
        iota = softmax_ce(2)
        assert iota.pointwise_inf(label_data(1)) == pytest.approx([0.0])
        assert iota.lipschitz == 1.0


class TestVAEIntegrand:
    def test_kl_closed_form(self):
        assert kl_diag_gaussian_and_grad(np.array([0.0, 0.0]))[0] == 0.0
        assert kl_diag_gaussian_and_grad(np.array([1.0, 0.0]))[0] == pytest.approx(0.5)
        both = kl_diag_gaussian_and_grad(np.array([[0.0, 0.0], [1.0, 0.0]]))[0]
        assert both == pytest.approx([0.0, 0.5])

    def test_gradient_in_mean(self):
        iota = vae_integrand(least_squares(k=1), beta=2.0, latent_dim=1)
        g = iota.grad(target_data([0.0]), np.array([[1.0, 0.0, 0.0]]))
        assert g[0, 0] == pytest.approx(2.0)  # beta * m

    def test_infimum_adds_up(self):
        iota = vae_integrand(least_squares(sigma=[2.0]), beta=1.0, latent_dim=1)
        assert iota.pointwise_inf(target_data([0.3])) == pytest.approx([SQRT_2PI * 2.0])


class TestGanIntegrand:
    def test_wgan_real_sample_unit_gradient_norm(self):
        iota = gan_integrand("wgan_gp", beta=10.0, k=2)
        assert iota.value(mixture_data(True), [[3.0, 1.0, 0.0]]) == pytest.approx([6.0])

    def test_wgan_penalty_gradient_magnitude(self):
        iota = gan_integrand("wgan_gp", beta=1.0, k=2)
        data = Dataset(np.zeros((1, 2)), mix=[[1.0, 0.0]])
        g = iota.grad(data, np.array([[0.0, 2.0, 0.0]]))
        assert np.linalg.norm(g[0, 1:]) == pytest.approx(2.0)

    def test_r1_generated_sample(self):
        iota = gan_integrand("r1", beta=1.0, k=2)
        assert iota.value(mixture_data(False), [[0.5, 0.0, 0.0]]) == pytest.approx(
            [2.0 * math.log(0.5)]
        )

    def test_r1_domain_errors(self):
        iota = gan_integrand("r1", beta=1.0, k=1)
        data = mixture_data(True, False)
        with pytest.raises(NumericFailure):
            iota.value(data, [[0.5, 0.0], [1.0, 0.0]])   # generated side at y = 1
        with pytest.raises(NumericFailure):
            iota.value(data, [[-0.5, 0.0], [0.5, 0.0]])  # real side at y < 0

    def test_payload_must_carry_mixture(self):
        iota = gan_integrand("wgan_gp", beta=1.0, k=1)
        with pytest.raises(InvalidDataset):
            iota.value(Dataset(np.zeros((1, 1))), [[0.0, 0.0]])

    def test_negate_flips_value_and_gradient(self):
        iota = gan_integrand("wgan_gp", beta=1.0, k=1)
        neg = negate(iota)
        data = mixture_data(True, False)
        z = np.array([[1.5, 0.3], [-0.2, 2.0]])
        assert np.array_equal(neg.value(data, z), -iota.value(data, z))
        assert np.allclose(neg.grad(data, z), -iota.grad(data, z))


def shipped_integrand_batches(rng, n=50):
    """(integrand, dataset, outputs): each shipped integrand on an n-row batch."""
    cases = []
    for iota in (least_squares(k=2), least_squares(sigma=[0.7, 1.3]), gaussian_nll(2)):
        cases.append((iota, target_data(*rng.standard_normal((n, 2))),
                      rng.standard_normal((n, iota.out_dim))))
    cases.append((softmax_ce(3), label_data(*rng.integers(1, 4, size=n)),
                  rng.standard_normal((n, 3))))
    va = vae_integrand(least_squares(k=2), beta=1.5, latent_dim=2)
    cases.append((va, Dataset(np.zeros((n, 4)), targets=rng.standard_normal((n, 2))),
                  rng.standard_normal((n, 6))))
    for kind, beta in (("wgan_gp", 10.0), ("r1", 5.0)):
        data = mixture_data(*(rng.uniform(size=n) < 0.5))
        y = rng.standard_normal(n) if kind == "wgan_gp" else 0.05 + 0.9 * rng.uniform(size=n)
        cases.append((gan_integrand(kind, beta, k=2), data,
                      np.column_stack([y, rng.standard_normal((n, 2))])))
    return cases


class TestGradientOracles:
    def test_all_integrands_pass_fd(self):
        for iota, data, z in shipped_integrand_batches(np.random.default_rng(0)):
            assert fd_check_integrand(iota, data, z) <= 1e-5, iota.name

    def test_batched_rows_match_single_rows(self):
        for iota, data, z in shipped_integrand_batches(np.random.default_rng(1), n=5):
            values, grads = iota.value(data, z), iota.grad(data, z)
            for i in range(len(data)):
                row = Dataset(data.inputs[i : i + 1],
                              targets=None if data.targets is None else data.targets[i : i + 1],
                              mix=None if data.mix is None else data.mix[i : i + 1])
                assert iota.value(row, z[i : i + 1]) == pytest.approx(values[i : i + 1], rel=1e-14)
                assert np.allclose(iota.grad(row, z[i : i + 1]), grads[i : i + 1], rtol=1e-14)


class TestIntegralFunctional:
    def two_point_data(self):
        return Dataset(
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
            value_and_grad_fn=lambda data, z: (np.ones(len(z)), np.zeros_like(z)),
            pointwise_inf=lambda data: np.ones(len(data)),
        )
        f = integral_functional(flat, self.two_point_data())
        assert np.allclose(f.grad_fn(np.array([3.0, -3.0])), 0.0)
        assert f.value_fn(np.zeros(2)) == pytest.approx(f.f_star)

    def test_weighted_gradient_is_pointwise(self):
        data = Dataset(
            [[0.0], [1.0]], targets=[np.array([0.0]), np.array([0.0])],
            weights=np.array([0.25, 0.75]),
        )
        iota = least_squares(k=1)
        f = integral_functional(iota, data)
        h = np.array([2.0, -2.0])
        assert np.allclose(f.grad_fn(h), h)  # masses live in the metric only
        assert fd_check_functional(f, iota, data, h) <= 1e-6

    def test_inherited_constants_match_sampling(self):
        data = self.two_point_data()
        f = integral_functional(least_squares(k=1), data)
        assert f.L.value == 1.0 and f.lam.value == 1.0
        ball = Ball(f.space, np.array([0.5, 0.5]), 2.0)
        assert estimate_lg(f, ball, n_pairs=32, seed=0, inflate=1.0) == pytest.approx(
            1.0, abs=1e-9
        )
        rep = check_pl(f, ball, n=64, seed=0)
        assert rep.lambda_hat == pytest.approx(1.0, abs=1e-9)

    def test_infimum_interchange_against_grid_oracle(self):
        rng = np.random.default_rng(6)
        data = Dataset(
            list(rng.standard_normal((4, 1))),
            targets=[rng.uniform(-1.5, 1.5, size=2) for _ in range(4)],
        )
        iota = least_squares(sigma=[1.0, 1.0])
        f = integral_functional(iota, data)
        axis = np.linspace(-3.0, 3.0, 21)
        grid = np.array(list(itertools.product(axis, axis)))
        best = [iota.value(data, np.tile(z, (len(data), 1))) for z in grid]
        total = float(data.weights @ np.min(best, axis=0))
        step = axis[1] - axis[0]
        resolution = 0.5 * iota.lipschitz * 2 * (step / 2) ** 2
        assert abs(total - f.f_star) <= resolution + 1e-9

    def test_missing_pointwise_inf_disables_f_star(self):
        data = Dataset([[0.0]], targets=[np.array([0.0, 0.0])])
        f = integral_functional(gaussian_nll(1), data)
        assert f.f_star is None


# ---------------------------------------------------------------------------
# one joint pass per integrand


def _ls_separate(sigma):
    """Least squares' value and gradient, each by its own expression."""
    s = np.ones(2) if sigma is None else np.asarray(sigma)
    inv2 = 1.0 / s**2
    const = 0.0 if sigma is None else SQRT_2PI * float(np.prod(s))
    return (
        lambda data, z: 0.5 * np.sum(inv2 * (data.targets - z) * (data.targets - z), axis=1)
        + const,
        lambda data, z: inv2 * (z - data.targets),
    )


def _nll_separate():
    def value(data, z):
        t, mean, logv = data.targets, z[:, :2], z[:, 2:]
        r = (t - mean) * np.exp(-logv)
        norm = SQRT_2PI * np.exp(logv.sum(axis=1))
        return 0.5 * np.sum(r * r, axis=1) + norm

    def grad(data, z):
        t, mean, logv = data.targets, z[:, :2], z[:, 2:]
        norm_grad = SQRT_2PI * np.exp(logv.sum(axis=1, keepdims=True))
        g = np.empty_like(z)
        g[:, :2] = (mean - t) * np.exp(-2.0 * logv)
        g[:, 2:] = -((t - mean) ** 2) * np.exp(-2.0 * logv) + norm_grad
        return g

    return value, grad


def _softmax_value(data, z):
    rows, t = np.arange(len(z)), data.targets - 1
    m = z.max(axis=1)
    return m + np.log(np.exp(z - m[:, None]).sum(axis=1)) - z[rows, t]


def _softmax_grad(data, z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    g = e / e.sum(axis=1, keepdims=True)
    g[np.arange(len(z)), data.targets - 1] -= 1.0
    return g


def _vae_separate(beta):
    ls_value, ls_grad = _ls_separate(None)

    def value(data, z):
        m, t = z[:, :2], z[:, 2:4]
        kl = 0.5 * np.sum(m**2 + np.exp(2.0 * t) - 1.0 - 2.0 * t, axis=-1)
        return ls_value(data, z[:, 4:]) + beta * kl

    def grad(data, z):
        m, t = z[:, :2], z[:, 2:4]
        kl_grad = np.concatenate([m, np.exp(2.0 * t) - 1.0], axis=-1)
        return np.concatenate([beta * kl_grad, ls_grad(data, z[:, 4:])], axis=1)

    return value, grad


def _wgan_separate(beta):
    def value(data, z):
        dr, dg = data.mix[:, 0], data.mix[:, 1]
        y, w = z[:, 0], z[:, 1:]
        pen = beta * (np.linalg.norm(w, axis=1) - 1.0) ** 2
        return dr * (y - pen) + dg * (-y - pen)

    def grad(data, z):
        dr, dg = data.mix[:, 0], data.mix[:, 1]
        w = z[:, 1:]
        nw = np.linalg.norm(w, axis=1)
        cone = nw <= 1e-30
        coef = np.where(cone, 0.0, -(dr + dg) * beta * 2.0 * (nw - 1.0))
        g = np.empty_like(z)
        g[:, 0] = dr - dg
        g[:, 1:] = coef[:, None] * (w / np.where(cone, 1.0, nw)[:, None])
        return g

    return value, grad


def _r1_separate(beta):
    def sides(data, y):
        dr, dg = data.mix[:, 0], data.mix[:, 1]
        return dr, dg, np.where(dr != 0.0, y, 1.0), np.where(dg != 0.0, 1.0 - y, 1.0)

    def value(data, z):
        w = z[:, 1:]
        dr, dg, y_real, y_gen = sides(data, z[:, 0])
        return dr * (np.log(y_real) - beta * np.sum(w * w, axis=1)) + dg * np.log(y_gen)

    def grad(data, z):
        dr, dg, y_real, y_gen = sides(data, z[:, 0])
        g = np.empty_like(z)
        g[:, 0] = dr / y_real - dg / y_gen
        g[:, 1:] = (-dr * beta * 2.0)[:, None] * z[:, 1:]
        return g

    return value, grad


def _family(name, rng, n, scale):
    """(integrand, data, outputs, separate value, separate gradient) for one family."""
    targets = rng.standard_normal((n, 2))
    side = rng.uniform(size=n) < 0.5
    z = scale * rng.standard_normal((n, 6))
    if name.startswith("least_squares"):
        sigma = [0.7, 1.3] if name.endswith("sigma") else None
        return (least_squares(sigma=sigma, k=2), target_data(*targets), z[:, :2],
                *_ls_separate(sigma))
    if name == "gaussian_nll":
        return gaussian_nll(2), target_data(*targets), z[:, :4], *_nll_separate()
    if name == "softmax_ce":
        return (softmax_ce(3), label_data(*rng.integers(1, 4, size=n)), z[:, :3],
                _softmax_value, _softmax_grad)
    if name == "vae":
        data = Dataset(np.zeros((n, 4)), targets=targets)
        return (vae_integrand(least_squares(k=2), beta=1.5, latent_dim=2), data, z,
                *_vae_separate(1.5))
    if name in ("wgan_gp", "negate"):
        z = z[:, :3]
        z[rng.uniform(size=n) < 0.3, 1:] = 0.0  # the cone point of ||w||
        iota, (value, grad) = gan_integrand("wgan_gp", 10.0, k=2), _wgan_separate(10.0)
        if name == "negate":
            return (negate(iota), mixture_data(*side), z,
                    lambda data, z: -value(data, z), lambda data, z: -grad(data, z))
        return iota, mixture_data(*side), z, value, grad
    y = 0.05 + 0.9 * rng.uniform(size=n)  # r1
    return (gan_integrand("r1", 5.0, k=2), mixture_data(*side),
            np.column_stack([y, z[:, :2]]), *_r1_separate(5.0))


FAMILIES = ("least_squares", "least_squares:sigma", "gaussian_nll", "softmax_ce", "vae",
            "wgan_gp", "r1", "negate")


class TestJointPass:
    @settings(deadline=None, max_examples=200)
    @given(
        st.sampled_from(FAMILIES),
        st.integers(0, 2**32 - 1),
        st.integers(1, 7),
        st.sampled_from([1e-3, 1.0, 30.0]),
    )
    def test_joint_equals_separate_bit_for_bit(self, name, seed, n, scale):
        iota, data, z, value, grad = _family(name, np.random.default_rng(seed), n, scale)
        v, g = iota.value_and_grad_fn(data, z)
        assert np.array_equal(v, value(data, z), equal_nan=True), name
        assert np.array_equal(g, grad(data, z), equal_nan=True), name
        assert np.array_equal(iota.value(data, z), v, equal_nan=True), name
        assert np.array_equal(iota.grad(data, z), g, equal_nan=True), name

        f = integral_functional(iota, data)
        h = z.reshape(-1)
        try:
            separate = (f.value_fn(h), f.grad_fn(h))
        except NumericFailure as exc:
            with pytest.raises(NumericFailure, match=str(exc)):
                f.value_and_grad_fn(h)
            return
        fused = f.value_and_grad_fn(h)
        assert fused[0] == separate[0], name
        assert np.array_equal(fused[1], separate[1]), name

    def test_functional_names_the_first_non_finite_row(self):
        iota = least_squares(k=1)
        f = integral_functional(iota, target_data([0.0], [0.0], [0.0]))
        with pytest.raises(NumericFailure, match="non-finite integrand value at sample 1"):
            f.value_and_grad_fn(np.array([0.0, np.inf, np.nan]))
        spiky = Integrand(
            1, lambda data, z: (np.zeros(len(z)), np.where(z > 0.5, np.inf, z))
        )
        g = integral_functional(spiky, target_data([0.0], [0.0]))
        with pytest.raises(NumericFailure, match="non-finite integrand gradient at sample 1"):
            g.value_and_grad_fn(np.array([0.0, 1.0]))
