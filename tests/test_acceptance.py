"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import time

import numpy as np
import pytest

from plgd.cli import EXIT_OK, run_experiment
from plgd.descent import build_ledger, run
from plgd.integrand import (
    Dataset,
    gan_integrand,
    gaussian_nll,
    integral_functional,
    least_squares,
    softmax_ce,
    vae_integrand,
)
from plgd.model import (
    linear_disc,
    linear_model,
    ntk_gram,
    random_features,
    shallow_disc,
    shallow_net,
    vae_model,
)
from plgd.problems import (
    DEFAULT_BALL_RADIUS,
    analytic_certificates,
    check_gradients,
    gan_discriminator,
    supervised,
    vae,
)
from plgd.smoothmap import Ball, CertValue, MapCertificate, estimate_uc
from plgd.space import WeightedSpace

from oracles import (adjoint_defect, check_pl, estimate_lg, fd_check_integrand, fd_check_model,
                     identity_map, quadratic)


def timed(budget_s):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            if exc[0] is None:
                assert self.elapsed < budget_s, f"runtime {self.elapsed:.2f}s over budget"

    return _Timer()


def composition_problem():
    """Random-features least squares: d=8, l=1, m=64, fixed seeds."""
    rng = np.random.default_rng(101)
    data = Dataset(
        list(rng.standard_normal((8, 4))), targets=list(rng.standard_normal((8, 1)))
    )
    model = random_features(4, 64, out_dim=1, seed=1)
    prob = supervised(model, data, least_squares(k=1))
    cert = analytic_certificates(prob)
    assert cert.L.value == 0.0 and cert.lam is not None
    ledger = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha="auto")
    return prob, cert, ledger


def test_criterion_1_tight_linear_case():
    with timed(1.0):
        data = Dataset([[1.0, 1.0]], targets=[np.array([4.0])])
        prob = supervised(linear_model(2, out_dim=1), data, least_squares(k=1))
        cert = analytic_certificates(prob)
        ledger = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha=0.5)
        assert ledger.q == pytest.approx(0.0, abs=1e-15)
        assert ledger.alpha == pytest.approx(1.0 / ledger.L, rel=1e-12)

        trace, verdicts = run(prob.F, prob.f, prob.theta0, ledger, max_iter=10)
        assert trace.n_steps == 1
        assert trace.losses[-1] == pytest.approx(0.0, abs=1e-14)

        measured = float(trace.dist_from_init[-1])
        assert measured == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
        assert abs(measured - ledger.dist_bound()) <= 1e-12

        closest = verdicts.get("closest_opt")
        assert closest.passed
        assert abs(closest.bound - 2.0 * np.sqrt(2.0)) <= 1e-12
        assert verdicts.violations() == []
    print("ACCEPTANCE 1 tight-linear-case: PASS")


def test_criterion_2_exact_geometric_decay():
    with timed(1.0):
        space = WeightedSpace.unit(2)
        f = quadratic(space, np.diag([1.0, 4.0]))
        ident = identity_map(space)
        cert = MapCertificate(K=CertValue(1.0), L=CertValue(0.0), lam=CertValue(1.0))
        x0 = np.array([1.0, 1.0])
        ledger = build_ledger(ident, f, x0, cert, alpha="auto")
        assert ledger.alpha == pytest.approx(0.25)
        assert ledger.lam == pytest.approx(1.0)

        trace, verdicts = run(ident, f, x0, ledger, max_iter=50, stop_gap=0.0)
        gaps = trace.losses - ledger.f_star
        q_exact = 0.5625  # squared per-step contraction of the slow mode
        for i in range(min(len(gaps), 51)):
            assert gaps[i] <= q_exact**i * gaps[0] * (1 + 1e-9)
        k_total = ledger.K
        for i in range(trace.n_steps):
            bound = ledger.alpha * q_exact ** (i / 2.0) * k_total
            assert trace.step_norms[i] <= bound * (1 + 1e-9)
        assert verdicts.violations() == []
    print("ACCEPTANCE 2 exact-geometric-decay: PASS")


def test_criterion_3_composition_monitors():
    with timed(10.0):
        prob, cert, ledger = composition_problem()
        assert ledger.L_f.value == 1.0 and ledger.lam_f.value == 1.0
        assert ledger.L_F.value == 0.0
        trace, verdicts = run(prob.F, prob.f, prob.theta0, ledger, max_iter=200000)
        gap0 = trace.losses[0] - ledger.f_star
        assert trace.losses[-1] - ledger.f_star <= 1e-10 * gap0 * (1 + 1e-9)
        for name in ("composition_pl", "composition_lg_bound", "taylor_bound", "per_step_decay"):
            v = verdicts.get(name)
            assert v.passed, f"{name} violated at iter {v.worst_iter}"
            assert v.n_violations == 0
            assert v.n_checked >= trace.n_steps
        assert verdicts.violations() == []
    print("ACCEPTANCE 3 composition-monitors: PASS")


def test_criterion_4_ntk_coercivity_and_interpolation():
    with timed(10.0):
        prob, cert, ledger = composition_problem()
        trace, verdicts = run(
            prob.F, prob.f, prob.theta0, ledger, max_iter=200000, keep_every=10
        )

        for theta in trace.iterates:
            g = ntk_gram(prob.model, prob.data, theta)
            assert g.lambda_min > 0.0

        gap0 = trace.losses[0] - ledger.f_star
        final_gap = trace.losses[-1] - ledger.f_star
        assert final_gap <= 1e-10 * gap0 * (1 + 1e-9)  # interpolation reached
        assert trace.predicted_iters is not None
        assert trace.n_steps <= trace.predicted_iters
    print("ACCEPTANCE 4 ntk-coercivity-interpolation: PASS")


def _assembled_problems():
    rng = np.random.default_rng(7)
    sup_data = Dataset(
        list(rng.standard_normal((4, 3))), targets=list(rng.standard_normal((4, 2)))
    )
    sup = supervised(shallow_net(3, 5, out_dim=2, seed=3), sup_data, least_squares(k=2))

    enc = shallow_net(2, 4, out_dim=2, seed=2)
    dec = shallow_net(1, 4, out_dim=2, seed=3)
    vae_prob = vae(
        enc, dec,
        list(rng.standard_normal((3, 2))),
        list(rng.standard_normal((2, 1))),
        least_squares(k=2),
        beta=1.5,
    )

    real = list(rng.standard_normal((2, 2)) + 1.0)
    gen = list(rng.standard_normal((2, 2)) - 1.0)
    wgan = gan_discriminator(shallow_disc(2, 6, seed=4), real, gen, "wgan_gp", beta=10.0)
    r1 = gan_discriminator(
        shallow_disc(2, 6, seed=4, squash=True), real, gen, "r1", beta=5.0
    )
    return [sup, vae_prob, wgan, r1]


def test_criterion_5_gradient_oracles():
    with timed(30.0):
        rng = np.random.default_rng(0)

        # every shipped integrand on a 50-row batch, each row within the bound
        n = 50
        zeros = np.zeros((n, 1))
        integrand_cases = []
        for iota in (least_squares(k=2), least_squares(sigma=[0.7, 1.3]), gaussian_nll(2)):
            integrand_cases.append((iota,
                                    Dataset(zeros, targets=rng.standard_normal((n, 2))),
                                    rng.standard_normal((n, iota.out_dim))))
        integrand_cases.append((softmax_ce(3),
                                Dataset(zeros, targets=rng.integers(1, 4, size=n)),
                                rng.standard_normal((n, 3))))
        integrand_cases.append((vae_integrand(least_squares(k=2), beta=1.5, latent_dim=2),
                                Dataset(np.zeros((n, 4)), targets=rng.standard_normal((n, 2))),
                                rng.standard_normal((n, 6))))
        for kind, beta in (("wgan_gp", 10.0), ("r1", 5.0)):
            real_side = rng.uniform(size=n) < 0.5
            mix = 2.0 * np.column_stack([real_side, ~real_side])
            y = rng.standard_normal(n) if kind == "wgan_gp" else 0.05 + 0.9 * rng.uniform(size=n)
            integrand_cases.append((gan_integrand(kind, beta, k=2),
                                    Dataset(np.zeros((n, 2)), mix=mix),
                                    np.column_stack([y, rng.standard_normal((n, 2))])))
        for iota, data, z in integrand_cases:
            assert fd_check_integrand(iota, data, z) <= 1e-5, iota.name

        # every shipped model, 50 parameter probes each on 4-row batches
        enc = shallow_net(2, 4, out_dim=2, seed=2)
        dec = shallow_net(1, 4, out_dim=2, seed=3)
        models = [
            linear_model(3, out_dim=2),
            random_features(3, 8, out_dim=2, seed=1),
            shallow_net(3, 5, out_dim=2, seed=1),
            vae_model(enc, dec),
            shallow_disc(3, 6, seed=4),
            shallow_disc(3, 6, seed=4, squash=True),
            linear_disc(3),
        ]
        for m in models:
            for _ in range(50):
                x = rng.standard_normal((4, m.in_dim))
                th = rng.standard_normal(m.param_dim)
                assert fd_check_model(m, x, th) <= 1e-5, m.name

        # every assembled problem: map + objective oracles, adjoint identity
        for prob in _assembled_problems():
            assert check_gradients(prob, n_probes=50, seed=0) <= 1e-5, prob.name
            jac = prob.F.jacobian(prob.theta0)
            assert adjoint_defect(jac, n_probes=100) <= 1e-10, prob.name
    print("ACCEPTANCE 5 gradient-oracles: PASS")


def test_criterion_6_integral_functional_inheritance():
    with timed(10.0):
        rng = np.random.default_rng(6)
        data = Dataset(
            list(rng.standard_normal((4, 1))),
            targets=[rng.uniform(-1.5, 1.5, size=2) for _ in range(4)],
            weights=np.array([0.1, 0.2, 0.3, 0.4]),
        )
        iota = least_squares(sigma=[1.0, 1.0])  # unit variances
        f = integral_functional(iota, data)

        center = rng.standard_normal(8)
        for radius in (0.5, 2.0, 10.0):
            ball = Ball(f.space, center, radius)
            raw = estimate_lg(f, ball, n_pairs=32, seed=0, inflate=1.0)
            assert raw == pytest.approx(1.0, abs=1e-9)
            rep = check_pl(f, ball, n=64, seed=0)
            assert rep.lambda_hat == pytest.approx(1.0, abs=1e-9)

        # infimum interchange against a 21-point-per-axis grid oracle
        axis = np.linspace(-3.0, 3.0, 21)
        grid = np.array(list(itertools.product(axis, axis)))
        best = [iota.value(data, np.tile(z, (len(data), 1))) for z in grid]
        total = float(data.weights @ np.min(best, axis=0))
        step = axis[1] - axis[0]
        resolution = 0.5 * iota.lipschitz * 2 * (step / 2) ** 2
        assert abs(total - f.f_star) <= resolution + 1e-9
        assert f.f_star == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)
    print("ACCEPTANCE 6 functional-inheritance: PASS")


def test_criterion_7_underparameterization_detector():
    with timed(1.0):
        data = Dataset(
            [[1.0], [2.0]], targets=[np.array([1.0]), np.array([-1.0])]
        )
        model = linear_model(1, out_dim=1)
        prob = supervised(model, data, least_squares(k=1))

        g = prob.gram()
        assert g.lambda_min <= 1e-10

        absent = estimate_uc(prob.F, Ball(prob.F.domain, prob.theta0, DEFAULT_BALL_RADIUS), n=8, seed=0)
        assert absent is None

        cert = analytic_certificates(prob)  # drops the coercivity bound
        assert cert.lam is None
        ledger = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha="auto")
        assert ledger.q is None
        trace, verdicts = run(prob.F, prob.f, prob.theta0, ledger, max_iter=200)
        assert trace.n_steps > 0  # descent still runs
        for name in ("q_decay", "step_norm", "dist_init", "composition_pl", "converged"):
            v = verdicts.get(name)
            assert not v.hypothesis_met, name
        assert verdicts.violations() == []  # unmet hypotheses, no failures
    print("ACCEPTANCE 7 underparameterization-detector: PASS")


def test_criterion_8_determinism(tmp_path):
    cfg = {
        "problem": {
            "family": "supervised",
            "model": {"kind": "random_features", "in_dim": 3, "width": 16, "seed": 1},
            "dataset": {
                "synthetic": {"kind": "gaussian", "d": 4, "in_dim": 3, "target_dim": 1, "seed": 3}
            },
            "integrand": {"kind": "least_squares"},
        },
        "certificates": {"mode": "sampled", "n_samples": 16, "seed": 0},
        "descent": {"alpha": "auto", "max_iter": 50000},
        "output": {"dir": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run_experiment(str(path)) == EXIT_OK
    first = (tmp_path / "out" / "report.json").read_bytes()
    assert run_experiment(str(path)) == EXIT_OK
    second = (tmp_path / "out" / "report.json").read_bytes()
    assert first == second
    print("ACCEPTANCE 8 determinism: PASS")
