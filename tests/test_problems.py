import dataclasses
import math

import numpy as np
import pytest

from plgd import problems
from plgd.descent import build_ledger, run
from plgd.errors import DimensionMismatch, InvalidConfig, InvalidDataset, NumericFailure
from plgd.integrand import Dataset, gaussian_nll, least_squares, softmax_ce
from plgd.model import (
    linear_disc,
    linear_model,
    ntk_gram,
    random_features,
    shallow_disc,
    shallow_net,
)
from plgd.problems import (
    DEFAULT_BALL_RADIUS,
    analytic_certificates,
    check_gradients,
    gan_discriminator,
    objective_with_estimated_lg,
    sampled_certificates,
    supervised,
    vae,
)


def rf_least_squares(seed=1, d=8, in_dim=4, width=64):
    rng = np.random.default_rng(100 + seed)
    data = Dataset(
        list(rng.standard_normal((d, in_dim))),
        targets=list(rng.standard_normal((d, 1))),
    )
    model = random_features(in_dim, width, out_dim=1, seed=seed)
    return supervised(model, data, least_squares(k=1))


class TestSupervised:
    def test_tight_case_assembly(self):
        data = Dataset([[1.0, 1.0]], targets=[np.array([4.0])])
        prob = supervised(linear_model(2, out_dim=1), data, least_squares(k=1))
        assert prob.F.codomain.dim == 1
        assert not hasattr(prob, "declared_ball")  # make_certificates owns the ball
        assert prob.f.f_star == 0.0

    def test_conflicting_targets_rejected_with_input_named(self):
        data = Dataset(
            [[1.0, 2.0], [1.0, 2.0]],
            targets=[np.array([1.0]), np.array([2.0])],
        )
        with pytest.raises(InvalidDataset, match=r"\[1\.0, 2\.0\]"):
            supervised(linear_model(2, out_dim=1), data, least_squares(k=1))

    def test_duplicate_inputs_with_same_target_allowed(self):
        data = Dataset(
            [[1.0], [1.0]], targets=[np.array([2.0]), np.array([2.0])]
        )
        supervised(linear_model(1, out_dim=1), data, least_squares(k=1))

    def test_missing_targets_rejected(self):
        data = Dataset([[1.0]])
        with pytest.raises(InvalidDataset):
            supervised(linear_model(1, out_dim=1), data, least_squares(k=1))

    def test_softmax_random_features_runs_lg_only(self):
        rng = np.random.default_rng(0)
        data = Dataset(
            list(rng.standard_normal((4, 3))), targets=[1, 2, 1, 2]
        )
        model = random_features(3, 16, out_dim=2, seed=0)
        prob = supervised(model, data, softmax_ce(2))
        cert = analytic_certificates(prob)
        led = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha="auto")
        assert led.q is None  # no PL constant for the objective
        trace, verdicts = run(prob.F, prob.f, prob.theta0, led, max_iter=50)
        assert trace.n_steps > 0
        assert verdicts.violations() == []

    def test_interpolation_on_certified_run(self):
        prob = rf_least_squares()
        cert = analytic_certificates(prob)
        led = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha="auto")
        trace, verdicts = run(prob.F, prob.f, prob.theta0, led, max_iter=100000)
        final_gap = trace.losses[-1] - led.f_star
        assert final_gap <= trace.stop_gap
        assert verdicts.get("converged").passed


class TestVAE:
    def assemble(self, beta=1.0):
        rng = np.random.default_rng(1)
        enc = shallow_net(2, 4, out_dim=2, seed=2)   # latent dim 1
        dec = shallow_net(1, 4, out_dim=2, seed=3)
        ys = list(rng.standard_normal((3, 2)))
        ws = list(rng.standard_normal((2, 1)))
        return vae(enc, dec, ys, ws, least_squares(k=2), beta=beta)

    def test_product_measure_atoms(self):
        prob = self.assemble()
        assert len(prob.data) == 6
        assert np.allclose(prob.data.weights, 1.0 / 6.0)

    def test_dimension_validation(self):
        enc = shallow_net(2, 4, out_dim=3, seed=0)  # odd output: not (mean, log s)
        dec = shallow_net(1, 4, out_dim=2, seed=1)
        with pytest.raises(DimensionMismatch):
            vae(enc, dec, [np.zeros(2)], [np.zeros(1)], least_squares(k=2), beta=1.0)

    def test_assembled_jacobian_passes_fd(self):
        prob = self.assemble()
        assert check_gradients(prob, n_probes=5, seed=0) <= 1e-5

    def test_divergence_term_skips_decoder_parameters(self):
        # the beta-weighted term backpropagates only into the encoder block
        from plgd.descent import composite_gradient

        p1, p2 = self.assemble(beta=1e-6), self.assemble(beta=2e-6)
        th0 = p1.theta0
        g1 = composite_gradient(p1.F, p1.f, th0)
        g2 = composite_gradient(p2.F, p2.f, th0)
        flow = (g2 - g1) / 1e-6  # gradient of the divergence term alone
        p_e = 4 * 2 + 4 * 2
        assert np.abs(flow[p_e:]).max() <= 1e-6 * (1 + np.abs(flow).max())


class TestGan:
    def points(self):
        rng = np.random.default_rng(2)
        return list(rng.standard_normal((2, 2)) + 1.0), list(rng.standard_normal((2, 2)) - 1.0)

    def test_mixture_bookkeeping(self):
        real, gen = self.points()
        prob = gan_discriminator(linear_disc(2), real, gen, "wgan_gp", beta=10.0)
        assert len(prob.data) == 4
        assert np.allclose(prob.data.weights, 0.25)
        assert np.array_equal(prob.data.mix, [[2.0, 0.0]] * 2 + [[0.0, 2.0]] * 2)

    def test_linear_disc_jacobian_structure(self):
        real, gen = self.points()
        disc = linear_disc(2)
        x = np.array(real)
        jac = disc.jacobian(x, np.zeros(2))
        for xi, ji in zip(x, jac):
            assert np.allclose(ji, np.concatenate([xi[None, :], np.eye(2)], axis=0))

    def test_value_at_zero_parameters(self):
        # both mixture sides pay the unit gradient penalty at theta = 0
        real, gen = self.points()
        beta = 10.0
        prob = gan_discriminator(
            linear_disc(2), real, gen, "wgan_gp", beta=beta, direction="min"
        )
        assert prob.f.value_fn(prob.F.value(np.zeros(2))) == pytest.approx(-2.0 * beta)

    def test_max_direction_negates(self):
        real, gen = self.points()
        pmin = gan_discriminator(linear_disc(2), real, gen, "wgan_gp", beta=1.0, direction="min")
        pmax = gan_discriminator(linear_disc(2), real, gen, "wgan_gp", beta=1.0, direction="max")
        h = pmin.F.value(np.zeros(2))
        assert pmax.f.value_fn(h) == pytest.approx(-pmin.f.value_fn(h))

    def test_r1_without_squash_warns(self):
        real, gen = self.points()
        with pytest.warns(RuntimeWarning):
            gan_discriminator(linear_disc(2), real, gen, "r1", beta=1.0)

    def test_both_kinds_pass_fd(self):
        real, gen = self.points()
        wgan = gan_discriminator(
            shallow_disc(2, 6, seed=4), real, gen, "wgan_gp", beta=10.0
        )
        r1 = gan_discriminator(
            shallow_disc(2, 6, seed=4, squash=True), real, gen, "r1", beta=5.0
        )
        assert check_gradients(wgan, n_probes=5, seed=0) <= 1e-5
        assert check_gradients(r1, n_probes=5, seed=0) <= 1e-5


class TestGram:
    def test_theta_linear_model_has_one_gram(self):
        prob = rf_least_squares()
        g0 = prob.gram()
        assert prob.gram(prob.theta0 + 1.0) is g0
        ref = ntk_gram(prob.model, prob.data, prob.theta0 + 1.0)
        assert (ref.lambda_min, ref.lambda_max) == (g0.lambda_min, g0.lambda_max)

    def test_nonlinear_model_gram_moves_with_theta(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.standard_normal((3, 2)), targets=rng.standard_normal((3, 1)))
        prob = supervised(shallow_net(2, 4, seed=0), data, least_squares(k=1))
        assert prob.gram() is prob.gram()
        moved = prob.gram(prob.theta0 + 1.0)
        ref = ntk_gram(prob.model, prob.data, prob.theta0 + 1.0)
        assert (moved.lambda_min, moved.lambda_max) == (ref.lambda_min, ref.lambda_max)
        assert moved.lambda_max != prob.gram().lambda_max


class TestCertificateModes:
    def test_analytic_requires_linear_model(self):
        rng = np.random.default_rng(3)
        data = Dataset(
            list(rng.standard_normal((3, 2))), targets=list(rng.standard_normal((3, 1)))
        )
        prob = supervised(shallow_net(2, 4, seed=0), data, least_squares(k=1))
        with pytest.raises(InvalidConfig):
            analytic_certificates(prob)

    def test_sampled_certificates_on_declared_ball(self):
        rng = np.random.default_rng(4)
        data = Dataset(
            list(rng.standard_normal((3, 2))), targets=list(rng.standard_normal((3, 1)))
        )
        prob = supervised(shallow_net(2, 4, seed=0), data, least_squares(k=1))
        cert = sampled_certificates(prob, 2.0, n=8, seed=0)
        assert cert.K.provenance == "sampled"
        assert cert.L.value > 0  # tanh net is genuinely nonlinear

    @staticmethod
    def estimated_lg(monkeypatch, failures):
        """``objective_with_estimated_lg`` of a problem whose objective
        gradient raises NumericFailure on its first ``failures`` calls: the
        objective it was given, the one it returned and the radii it sampled."""
        prob = rf_least_squares(d=3, width=8)
        calls = []

        def grad_fn(h, grad=prob.f.grad_fn):
            calls.append(1)
            if len(calls) <= failures:
                raise NumericFailure("planted")
            return grad(h)

        f = dataclasses.replace(prob.f, L=None, grad_fn=grad_fn)
        radii, pairs = [], problems._sample_pairs
        monkeypatch.setattr(problems, "_sample_pairs",
                            lambda ball, n, rng: radii.append(ball.radius) or pairs(ball, n, rng))
        got = objective_with_estimated_lg(dataclasses.replace(prob, f=f), DEFAULT_BALL_RADIUS,
                                          n_pairs=4)
        return f, got, radii

    def test_estimated_lg_shrinks_its_radius_on_numeric_failure(self, monkeypatch):
        _, got, radii = self.estimated_lg(monkeypatch, failures=1)
        assert radii == [1.0, 0.1]
        assert got.L.provenance == "sampled" and got.L.value > 0

    def test_estimated_lg_warns_when_it_gives_up(self, monkeypatch):
        with pytest.warns(RuntimeWarning, match="Lipschitz constant left unset"):
            f, got, radii = self.estimated_lg(monkeypatch, failures=math.inf)
        assert got is f
        assert radii == pytest.approx([10.0**-k for k in range(6)])

    def test_gradient_gate_catches_planted_bug(self):
        import dataclasses

        prob = rf_least_squares(d=3, width=8)
        bad_model = dataclasses.replace(
            prob.model, jacobian=lambda x, th, f=prob.model.jacobian: 2.0 * f(x, th)
        )
        from plgd.problems import supervised as mk

        bad = mk(bad_model, prob.data, least_squares(k=1))
        assert check_gradients(bad, n_probes=2, seed=0) > 1e-3

    def test_underparameterized_never_certified_coercive(self):
        # p < d l: J J* has a kernel, so lambda_min is 0 and the ledger has
        # no q, never a rounding-noise lambda_min > 0 with q = 1 - 1e-16
        for seed in range(200):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 12))
            width = int(rng.integers(1, d))
            data = Dataset(
                rng.standard_normal((d, 3)),
                targets=rng.standard_normal((d, 1)),
                weights=rng.dirichlet(np.ones(d)),
            )
            prob = supervised(random_features(3, width, seed=seed), data, least_squares(k=1))
            cert = analytic_certificates(prob)
            assert cert.lam is None, seed
            ledger = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha="auto")
            assert ledger.mode == "no-uc", seed

    def test_rank_deficient_gram_never_certified_coercive(self):
        # p = 16 >= d l = 4, but a repeated input makes J J* singular; its
        # smallest eigenvalue is rounding noise, positive for about half of
        # these seeds, and must not become a certificate with q = 1 - 1e-16
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x, t = rng.standard_normal((3, 3)), rng.standard_normal((3, 1))
            data = Dataset(np.vstack([x, x[:1]]), targets=np.vstack([t, t[:1]]))
            prob = supervised(random_features(3, 16, seed=seed), data, least_squares(k=1))
            assert abs(prob.gram().lambda_min) <= 1e-14, seed
            cert = analytic_certificates(prob)
            assert cert.lam is None, seed
            ledger = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha="auto")
            assert ledger.mode == "no-uc", seed

    def test_rank_deficient_gram_never_sampled_coercive(self):
        # the same singular J J* seen by the sampled certificates: a linear
        # model has one Jacobian at every sampled point, and a rounding-noise
        # smallest eigenvalue (positive for 15 of these seeds) must not
        # become a certified coercivity
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x, t = rng.standard_normal((3, 3)), rng.standard_normal((3, 1))
            data = Dataset(np.vstack([x, x[:1]]), targets=np.vstack([t, t[:1]]))
            prob = supervised(random_features(3, 16, seed=seed), data, least_squares(k=1))
            assert sampled_certificates(prob, DEFAULT_BALL_RADIUS, n=8).lam is None, seed

    @pytest.mark.parametrize("d", [1000, 2000, 5000])
    def test_gradient_gate_passes_correct_problem_at_large_d(self, d):
        # the benchmark's gate_wide problem at larger d; differencing the
        # whole functional column by column would compare O(1/d) derivatives
        # with the rounding error of an O(1) sum
        rng = np.random.default_rng(3)
        data = Dataset(rng.standard_normal((d, 4)), targets=rng.standard_normal((d, 1)))
        prob = supervised(random_features(4, 16, seed=1), data, least_squares(k=1))
        assert check_gradients(prob, n_probes=3, seed=0) <= 1e-5


class TestBallPolicy:
    """``make_certificates`` owns the trust ball: the radius it declares,
    the radius the trajectory is checked against and whether it refined
    the ball, over mode x given radius x objective."""

    @staticmethod
    def problem(objective):
        if objective == "infimum":
            return rf_least_squares()
        real, gen = TestGan().points()
        return gan_discriminator(linear_disc(2), real, gen, "wgan_gp", beta=10.0)

    @pytest.mark.parametrize("objective", ["infimum", "critic"])
    @pytest.mark.parametrize("ball_radius", [None, 2.0])
    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    def test_declared_and_checked_radius(self, monkeypatch, mode, ball_radius, objective):
        prob = self.problem(objective)
        sampled_on, sample = [], problems.sampled_certificates
        monkeypatch.setattr(problems, "sampled_certificates",
                            lambda p, r, *a: sampled_on.append(r) or sample(p, r, *a))
        cert, obj, declared, radius = problems.make_certificates(
            prob, mode, 8, 0, {}, ball_radius)
        given = DEFAULT_BALL_RADIUS if ball_radius is None else ball_radius
        refined = mode == "sampled" and ball_radius is None and objective == "infimum"
        if objective == "critic":  # no infimum: no certificate, the objective as it is
            assert cert is None and obj is prob.f
        else:
            assert cert.K.provenance == mode
        if refined:
            assert sampled_on == [DEFAULT_BALL_RADIUS, declared]
            assert declared != DEFAULT_BALL_RADIUS
        else:
            assert declared == given
            want = [given] if mode == "sampled" and objective == "infimum" else []
            assert sampled_on == want
        assert radius == (None if mode == "analytic" else declared)
