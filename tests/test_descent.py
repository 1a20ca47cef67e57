import dataclasses
import math
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plgd import descent
from plgd.cli import build_problem, normalize_config
from plgd.descent import (
    ConstantsLedger,
    LOWER_BOUNDS,
    DescentTrace,
    _holds,
    build_ledger,
    closest_optimum,
    minimal_ledger,
    monitor_rows,
    monitor_size,
    predicted_iterations,
    run,
    trace_columns,
    verify,
)
from plgd.errors import InvalidConfig, MissingCertificate, NumericFailure
from plgd.integrand import Dataset, Integrand, integral_functional, least_squares
from plgd.model import induce, linear_model, random_features, shallow_net
from plgd.objective import ScalarObjective
from plgd.problems import analytic_certificates, supervised
from plgd.smoothmap import CertValue, MapCertificate
from plgd.space import LinOp, WeightedSpace

from oracles import (MONITORED, adjoint_pull, assembles_jacobian, identity_map, linear_map, objective,
                     quadratic, reference_run, reference_verdict)

S2 = WeightedSpace.unit(2)
S4 = WeightedSpace.unit(4)


def tight_problem():
    """F = [1 1] row, f = 1/2 (h - 4)^2, x0 = 0: the hand-computed case."""
    data = Dataset([[1.0, 1.0]], targets=[np.array([4.0])])
    model = linear_model(2, out_dim=1)
    prob = supervised(model, data, least_squares(k=1))
    cert = analytic_certificates(prob)
    return prob, cert


def sweep_critic(width):
    """The benchmark gan sweep's wgan_gp critic problem at the given width."""
    return build_problem(normalize_config({
        "problem": {
            "family": "gan",
            "disc": {"kind": "shallow", "width": width, "seed": 4},
            "gan_kind": "wgan_gp",
            "beta": 1.0,
            "dataset": {"synthetic": {"kind": "two_gaussians", "n_real": 16,
                                      "n_gen": 16, "in_dim": 2, "seed": 0}},
        },
    }))


class TestBuildLedger:
    def test_hand_computed_constants(self):
        prob, cert = tight_problem()
        led = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha=0.5)
        assert cert.K.value == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert cert.L.value == 0.0
        assert cert.lam.value == pytest.approx(2.0, rel=1e-12)
        assert led.K_f == pytest.approx(4.0, rel=1e-12)
        assert led.L == pytest.approx(2.0, rel=1e-12)
        assert led.lam == pytest.approx(2.0, rel=1e-12)
        assert led.q == pytest.approx(0.0, abs=1e-12)
        assert led.K == pytest.approx(np.sqrt(32.0), rel=1e-12)
        assert led.f_star == 0.0

    def test_auto_alpha_is_inverse_l(self):
        prob, cert = tight_problem()
        led = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha="auto")
        assert led.alpha == pytest.approx(1.0 / led.L, rel=1e-12)

    def test_identity_map_reduces_to_plain_case(self):
        f = quadratic(S2, np.diag([1.0, 4.0]), b=[1.0, 2.0])
        ident = identity_map(S2)
        cert = MapCertificate(K=CertValue(1.0), L=CertValue(0.0), lam=CertValue(1.0))
        x0 = np.array([3.0, 3.0])
        led = build_ledger(ident, f, x0, cert, alpha="auto")
        assert led.L == pytest.approx(f.L.value)
        assert led.lam == pytest.approx(f.lam.value)

    def test_perfect_conditioning_gives_one_step_rate(self):
        # lam_F = K_F^2 and lam_f = L_f makes q = 0 at alpha = 1/L
        f = quadratic(S2, np.eye(2), b=[1.0, -1.0])
        ident = identity_map(S2)
        cert = MapCertificate(K=CertValue(1.0), L=CertValue(0.0), lam=CertValue(1.0))
        led = build_ledger(ident, f, np.zeros(2), cert, alpha="auto")
        assert led.q == pytest.approx(0.0, abs=1e-15)

    def test_alpha_at_two_over_l_rejected(self):
        prob, cert = tight_problem()
        with pytest.raises(InvalidConfig):
            build_ledger(prob.F, prob.f, prob.theta0, cert, alpha=1.0)  # 2/L = 1.0

    @pytest.mark.parametrize("k_f, b", [
        (1e154, [1.0, 0.0]),  # L = K_F^2 L_f overflows
        (1e150, [1e5, 0.0]),  # L is finite, 2 L gap0 (gap0 = 5e9) overflows
    ])
    def test_overflowing_constants_are_a_numeric_failure(self, k_f, b):
        f = quadratic(S2, np.diag([1.0, 4.0]), b=b)  # L_f = 4
        cert = MapCertificate(K=CertValue(k_f), L=CertValue(0.0))
        with pytest.raises(NumericFailure) as info:
            build_ledger(identity_map(S2), f, np.zeros(2), cert, alpha="auto")
        assert str(info.value) == f"non-finite ledger constants: L = {k_f**2 * 4.0}, K = inf"

    def test_missing_objective_constants_raise(self):
        prob, cert = tight_problem()
        f = prob.f
        bare = ScalarObjective(f.space, f.value_fn, f.grad_fn, f.value_and_grad_fn)
        with pytest.raises(MissingCertificate):
            build_ledger(prob.F, bare, prob.theta0, cert, alpha=0.1)

    def test_degraded_ledger_without_conditioning(self):
        prob, _ = tight_problem()
        cert = MapCertificate(K=CertValue(np.sqrt(2.0)), L=CertValue(0.0), lam=None)
        led = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha="auto")
        assert led.mode == "no-uc"
        assert led.q is None and led.radius_required is None


class TestRun:
    def test_tight_case_one_step_and_tight_bounds(self):
        prob, cert = tight_problem()
        led = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha=0.5)
        trace, verdicts = run(prob.F, prob.f, prob.theta0, led, max_iter=50)
        assert trace.n_steps == 1
        assert trace.losses[-1] == pytest.approx(0.0, abs=1e-15)
        measured = trace.dist_from_init[-1]
        assert abs(measured - led.dist_bound()) <= 1e-12
        assert verdicts.get("dist_init").passed
        v = verdicts.get("closest_opt")
        assert v.passed and abs(v.bound - measured) <= 1e-12
        assert verdicts.violations() == []

    def test_full_ledger_without_computable_optimum_set(self):
        # the ledger holds every constant of the closest_opt bound, but a map
        # not known to be linear has no computable optimum set
        f = quadratic(S2, np.diag([1.0, 4.0]))
        opaque = dataclasses.replace(identity_map(S2), linear_op=None)
        cert = MapCertificate(K=CertValue(1.0), L=CertValue(0.0), lam=CertValue(1.0))
        x0 = np.array([1.0, 1.0])
        led = build_ledger(opaque, f, x0, cert, alpha="auto")
        assert led.mode == "full"
        _, verdicts = run(opaque, f, x0, led, max_iter=50)
        v = verdicts.get("closest_opt")
        assert v.passed is None and not v.hypothesis_met
        assert v.detail == "optimum set not computable for this family"

    def test_quadratic_exact_geometric_decay(self):
        f = quadratic(S2, np.diag([1.0, 4.0]))
        ident = identity_map(S2)
        cert = MapCertificate(K=CertValue(1.0), L=CertValue(0.0), lam=CertValue(1.0))
        x0 = np.array([1.0, 1.0])
        led = build_ledger(ident, f, x0, cert, alpha="auto")
        assert led.alpha == pytest.approx(0.25)
        assert led.q == pytest.approx(0.75)
        trace, verdicts = run(ident, f, x0, led, max_iter=50, stop_gap=0.0)
        gaps = trace.losses - led.f_star
        for i in range(len(gaps)):
            assert gaps[i] <= led.q**i * gaps[0] * (1 + 1e-9) + 1e-15
        assert verdicts.violations() == []

    def test_start_at_optimum_runs_zero_iterations(self):
        prob, cert = tight_problem()
        led = build_ledger(prob.F, prob.f, np.array([2.0, 2.0]), cert, alpha=0.5)
        trace, verdicts = run(prob.F, prob.f, np.array([2.0, 2.0]), led, max_iter=10)
        assert trace.n_steps == 0
        assert verdicts.violations() == []
        assert verdicts.get("converged").passed

    def test_iterates_are_distinct_arrays(self):
        f = quadratic(S2, np.diag([1.0, 4.0]), b=[0.5, -0.5])
        x0 = np.array([1.0, 1.0])
        trace, _ = run(identity_map(S2), f, x0, minimal_ledger(0.1), max_iter=5,
                       keep_every=1)
        its = trace.iterates
        assert its.shape == (6, 2)
        assert len({x.tobytes() for x in its}) == 6
        assert not its.flags.writeable
        assert not np.shares_memory(its, x0)
        np.testing.assert_array_equal(its[0], [1.0, 1.0])
        x0[:] = 0.0  # the trace owns its rows
        np.testing.assert_array_equal(its[0], [1.0, 1.0])

    def test_zero_step_run_keeps_one_row(self):
        prob, cert = tight_problem()
        led = build_ledger(prob.F, prob.f, np.array([2.0, 2.0]), cert, alpha=0.5)
        for keep_every in (None, 1, 3):
            still, _ = run(prob.F, prob.f, np.array([2.0, 2.0]), led, max_iter=10,
                           keep_every=keep_every)
            assert still.n_steps == 0
            np.testing.assert_array_equal(still.iterates, [[2.0, 2.0]])

    @pytest.mark.parametrize("k, rows", [
        (None, [0, 23]),  # the default keeps the endpoints
        (1, list(range(24))),
        (4, [0, 4, 8, 12, 16, 20, 23]),
        (5, [0, 5, 10, 15, 20, 23]),
        (23, [0, 23]),
        (50, [0, 23]),
    ])
    def test_keep_every_keeps_multiples_and_the_last(self, k, rows):
        f = quadratic(S2, np.diag([1.0, 4.0]), b=[0.5, -0.5])
        x0 = np.array([1.0, 1.0])
        every, _ = run(identity_map(S2), f, x0, minimal_ledger(0.1), max_iter=23,
                       keep_every=1)
        kept, _ = run(identity_map(S2), f, x0, minimal_ledger(0.1), max_iter=23,
                      keep_every=k)
        assert every.n_steps == kept.n_steps == 23
        np.testing.assert_array_equal(kept.iterates, every.iterates[rows])

    @pytest.mark.parametrize("k", [0, -1, 2.5, "3"])
    def test_keep_every_must_be_a_positive_integer(self, k):
        f = quadratic(S2, np.eye(2))
        with pytest.raises(InvalidConfig, match="keep_every"):
            run(identity_map(S2), f, np.ones(2), minimal_ledger(0.1), keep_every=k)

    def test_run_memory_does_not_grow_with_the_steps(self):
        # 2000 steps at p = 256 into R^4: a list of every iterate holds >= 4 MB
        p = 256
        mat = np.random.default_rng(0).standard_normal((4, p)) / 16.0
        f_map = linear_map(LinOp(WeightedSpace.unit(p), S4, mat))
        f = quadratic(S4, np.eye(4), b=np.ones(4))
        x0 = np.zeros(p)

        def peak(**kw):
            tracemalloc.start()
            try:
                trace, _ = run(f_map, f, x0, minimal_ledger(1e-3), max_iter=2000, stop_gap=0.0,
                               **kw)
                return trace, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        trace, lean = peak()
        assert trace.n_steps == 2000 and trace.iterates.shape == (2, p)
        _, full = peak(keep_every=1)
        assert full >= 2001 * p * 8  # the measurement sees a kept row per step
        assert lean <= 1_000_000

    def test_non_finite_map_value_mid_run_is_numeric_failure(self):
        calls = []

        def value_fn(x):
            calls.append(1)
            return np.full(2, np.nan) if len(calls) == 3 else x

        ident = identity_map(S2)
        # the loop calls the fused callable, so the fault is planted there too
        nan_map = dataclasses.replace(ident, value_fn=value_fn,
                                      value_and_vjp_fn=adjoint_pull(value_fn, ident.jac_fn))
        f = quadratic(S2, np.eye(2), b=[1.0, -1.0])
        with pytest.raises(NumericFailure) as info:
            run(nan_map, f, np.array([3.0, 3.0]), minimal_ledger(0.1), max_iter=10)
        assert str(info.value) == "non-finite loss or gradient at iteration 2"
        assert info.value.iteration == 2

    @pytest.mark.parametrize("part", ["value", "gradient"])
    def test_non_finite_integrand_mid_run_names_sample_and_iteration(self, part):
        # least squares whose value or gradient is NaN on rows past z = 0.5:
        # row 1 (input 2) crosses first, a few steps in
        ls = least_squares(k=1)

        def joint(data, z):
            value, grad = ls.value_and_grad_fn(data, z)
            bad = z[:, 0] > 0.5
            if part == "value":
                return np.where(bad, np.nan, value), grad
            return value, np.where(bad[:, None], np.nan, grad)

        data = Dataset([[1.0], [2.0]], targets=[[1.0], [2.0]])
        prob = supervised(linear_model(1), data, Integrand(1, joint))
        with pytest.raises(NumericFailure) as info:
            run(prob.F, prob.f, prob.theta0, minimal_ledger(0.1), max_iter=100)
        k = info.value.iteration
        assert k >= 2
        assert str(info.value) == f"non-finite integrand {part} at sample 1 at iteration {k}"

    def test_fused_objective_call_once_per_iterate(self):
        # one objective call and one map call per iterate, and neither the
        # map's value_fn nor its Jacobian inside the loop
        tight, cert = tight_problem()
        rng = np.random.default_rng(2)
        rf = supervised(random_features(3, 16, seed=1),
                        Dataset(rng.standard_normal((8, 3)), targets=rng.standard_normal((8, 1))),
                        least_squares(k=1))
        cases = [
            (tight, build_ledger(tight.F, tight.f, tight.theta0, cert, alpha=0.25)),
            (rf, build_ledger(rf.F, rf.f, rf.theta0, analytic_certificates(rf), alpha="auto")),
            (sweep_critic(16), minimal_ledger(0.01)),
        ]
        for prob, led in cases:
            obj_calls, map_calls = [], []

            def fused(h, f=prob.f.value_and_grad_fn):
                obj_calls.append(1)
                return f(h)

            def mapped(x, fn=prob.F.value_and_vjp_fn):
                map_calls.append(1)
                return fn(x)

            def separate(h):
                raise AssertionError("the loop calls only the fused objective and map")

            obj = dataclasses.replace(prob.f, value_fn=separate, grad_fn=separate,
                                      value_and_grad_fn=fused)
            f_map = dataclasses.replace(prob.F, value_fn=separate, jac_fn=separate,
                                        value_and_vjp_fn=mapped)
            trace, _ = run(f_map, obj, prob.theta0, led, max_iter=50)
            assert len(obj_calls) == len(map_calls) == trace.n_steps + 1 == len(trace.losses)
            want, _ = run(prob.F, prob.f, prob.theta0, led, max_iter=50)
            assert np.array_equal(trace.losses, want.losses)

    def test_linear_map_step_equals_adjoint_step(self):
        # the benchmark's rf_certified problem, all 4183 iterates: the induced
        # map's value_and_vjp_fn against value_fn and the Jacobian's adjoint
        cfg = normalize_config({
            "problem": {
                "family": "supervised",
                "model": {"kind": "random_features", "in_dim": 8, "width": 256, "seed": 1},
                "dataset": {"synthetic": {"kind": "gaussian", "d": 64, "in_dim": 8,
                                          "target_dim": 1, "seed": 3}},
                "integrand": {"kind": "least_squares"},
            },
        })
        prob = build_problem(cfg)
        assert not assembles_jacobian(prob.F, prob.theta0)
        led = build_ledger(prob.F, prob.f, prob.theta0, analytic_certificates(prob), alpha="auto")
        fast, _ = run(prob.F, prob.f, prob.theta0, led, max_iter=100000, keep_every=1)
        assembled = dataclasses.replace(
            prob.F, value_and_vjp_fn=adjoint_pull(prob.F.value_fn, prob.F.jac_fn))
        slow, _ = run(assembled, prob.f, prob.theta0, led, max_iter=100000, keep_every=1)
        assert fast.n_steps == slow.n_steps == 4182
        for name in ("iterates", "losses", "grad_norms", "step_norms", "dist_from_init"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name)), name

    def test_vjp_step_matches_assembled_jacobian_step(self):
        # the width-16 critic of the benchmark's gan sweep, 1000 steps
        prob = sweep_critic(16)
        assert not assembles_jacobian(prob.F, prob.theta0)
        led = minimal_ledger(0.01)
        fast, _ = run(prob.F, prob.f, prob.theta0, led, max_iter=1000, keep_every=1)
        assembled = dataclasses.replace(
            prob.F, value_and_vjp_fn=adjoint_pull(prob.F.value_fn, prob.F.jac_fn))
        slow, _ = run(assembled, prob.f, prob.theta0, led, max_iter=1000, keep_every=1)
        assert fast.n_steps == slow.n_steps == 1000
        assert fast.iterates.shape == (1001, prob.model.param_dim)
        scale = 1.0 + np.abs(slow.iterates).max()
        assert np.abs(fast.iterates - slow.iterates).max() <= 1e-10 * scale
        np.testing.assert_allclose(fast.losses, slow.losses, rtol=1e-10, atol=1e-10)

    def test_divergence_guard_aborts_and_flags(self):
        prob, cert = tight_problem()
        led = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha=0.5)
        bad = dataclasses.replace(led, alpha=1.5)  # alpha > 2/L: expansion
        trace, verdicts = run(prob.F, prob.f, prob.theta0, bad, max_iter=500)
        assert trace.diverged
        assert not verdicts.get("converged").passed

    def test_divergence_guard_without_an_infimum_watches_the_loss(self):
        # a minimal ledger has no f_star: the guard stops at the first loss
        # above 10 (|loss_0| + 1) = 90; at alpha 1.5 the residual x_1 + x_2 - 4
        # doubles each step, so the loss (its square over 2) quadruples
        prob, _ = tight_problem()
        trace, _ = run(prob.F, prob.f, prob.theta0, minimal_ledger(1.5), max_iter=500)
        assert trace.diverged
        assert trace.losses.tolist() == [8.0, 32.0, 128.0]

    def test_monotone_distance_chain(self):
        f = quadratic(S2, np.diag([1.0, 4.0]), b=[0.5, -0.5])
        ident = identity_map(S2)
        cert = MapCertificate(K=CertValue(1.0), L=CertValue(0.0), lam=CertValue(1.0))
        x0 = np.array([2.0, -1.0])
        led = build_ledger(ident, f, x0, cert, alpha="auto")
        trace, verdicts = run(ident, f, x0, led, max_iter=200)
        cum = np.concatenate([[0.0], np.cumsum(trace.step_norms)])
        assert np.all(trace.dist_from_init <= cum + 1e-12)
        assert cum[-1] <= led.dist_bound() * (1 + 1e-9)
        assert verdicts.get("path_length").passed

    def test_predicted_iterations_cover_actual(self):
        f = quadratic(S2, np.diag([1.0, 4.0]), b=[1.0, 1.0])
        ident = identity_map(S2)
        cert = MapCertificate(K=CertValue(1.0), L=CertValue(0.0), lam=CertValue(1.0))
        x0 = np.array([3.0, 2.0])
        led = build_ledger(ident, f, x0, cert, alpha="auto")
        trace, _ = run(ident, f, x0, led, max_iter=10000)
        assert trace.predicted_iters is not None
        assert trace.n_steps <= trace.predicted_iters

    def test_minimal_ledger_runs_without_verdicts(self):
        prob, _ = tight_problem()
        led = minimal_ledger(0.25)
        f = prob.f
        bare = ScalarObjective(f.space, f.value_fn, f.grad_fn, f.value_and_grad_fn)
        trace, verdicts = run(prob.F, bare, prob.theta0, led, max_iter=100)
        assert trace.n_steps == 100  # no stopping gap without f_star
        assert verdicts.violations() == []
        assert not verdicts.get("q_decay").hypothesis_met


def buffer_problem(kind):
    """A problem and step size for :class:`TestStepBuffer`: ``unit`` is an
    induced random-features map (p = 200), ``weighted`` a linear map from
    a weighted 37-dimensional domain (an odd p, and a map and an objective
    fused from their separate callables), ``wide`` a linear map from
    p = 9000, whose buffer holds one row."""
    rng = np.random.default_rng(7)
    if kind == "unit":
        data = Dataset(rng.standard_normal((8, 3)), targets=rng.standard_normal((8, 1)))
        prob = supervised(random_features(3, 200, seed=2), data, least_squares(k=1))
        return prob.F, prob.f, prob.theta0, 0.1
    p = 37 if kind == "weighted" else 9000
    domain = WeightedSpace(rng.random(p) + 0.5) if kind == "weighted" else WeightedSpace.unit(p)
    mat = rng.standard_normal((4, p)) / np.sqrt(p)
    f_map = linear_map(LinOp(domain, S4, mat))
    return f_map, quadratic(S4, np.eye(4), b=np.ones(4)), rng.standard_normal(p), 0.05


def buffer_rows(p):
    return max(1, descent.STEP_BUFFER_BYTES // (8 * p))


class TestStepBuffer:
    @pytest.mark.parametrize("keep_every", [None, 3])
    @pytest.mark.parametrize("kind", ["unit", "weighted", "wide"])
    def test_series_and_kept_iterates_match_the_per_step_reference(self, kind, keep_every):
        f_map, obj, x0, alpha = buffer_problem(kind)
        b = buffer_rows(f_map.domain.dim)
        assert b == {"unit": 40, "weighted": 221, "wide": 1}[kind]
        ledger = ConstantsLedger(alpha=alpha, f_star=obj.f_star)
        for n in sorted({0, 1, b - 1, b, b + 1, 2 * b + 1}):
            # an unreachable stop_gap takes max_iter steps, an infinite one none
            trace, _ = run(f_map, obj, x0, ledger, max_iter=max(n, 1), keep_every=keep_every,
                           stop_gap=-1.0 if n else float("inf"))
            want = reference_run(f_map, obj, x0, alpha, n, keep_every)
            assert trace.n_steps == n
            for name, series in want.items():
                got = getattr(trace, name)
                assert got.shape == series.shape, (n, name)
                assert got.tobytes() == series.tobytes(), (n, name)

    @pytest.mark.parametrize("kind", ["unit", "weighted"])
    def test_failure_mid_block_names_its_iteration(self, kind):
        f_map, obj, x0, alpha = buffer_problem(kind)
        b = buffer_rows(f_map.domain.dim)
        planted = b + b // 2  # inside the second block
        calls = []

        def value_and_vjp_fn(x):
            fx, pull = f_map.value_and_vjp_fn(x)
            calls.append(1)
            if len(calls) == planted + 1:  # call i evaluates iteration i - 1
                return fx, lambda v: np.full_like(x, np.nan)
            return fx, pull

        nan_map = dataclasses.replace(f_map, value_and_vjp_fn=value_and_vjp_fn)
        with pytest.raises(NumericFailure) as info:
            run(nan_map, obj, x0, minimal_ledger(alpha), max_iter=3 * b, stop_gap=-1.0)
        assert str(info.value) == f"non-finite loss or gradient at iteration {planted}"
        assert info.value.iteration == planted

    @settings(deadline=None, max_examples=100)
    @given(p=st.integers(1, 3000), rows=st.integers(1, 4), exponent=st.floats(-300, 300),
           weighted=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_row_norms_are_per_row_dot_products(self, p, rows, exponent, weighted, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((rows, p)) * 10.0**exponent
        weights = rng.random(p) * 10.0 ** rng.uniform(-3, 3, p) if weighted else None
        with np.errstate(over="ignore", under="ignore"):
            got = descent.row_norms(m, weights)
            want = [math.sqrt(c.dot(c) if weights is None else (weights * c).dot(c)) for c in m]
        assert got.tobytes() == np.array(want).tobytes()


class TestClosestOptimum:
    def test_tight_case_minimum_norm_solution(self):
        prob, _ = tight_problem()
        x_hat = closest_optimum(prob.F, prob.f, prob.theta0)
        assert np.allclose(x_hat, [2.0, 2.0], atol=1e-12)

    def test_start_at_optimum(self):
        prob, _ = tight_problem()
        x_hat = closest_optimum(prob.F, prob.f, np.array([2.0, 2.0]))
        assert np.allclose(x_hat, [2.0, 2.0], atol=1e-12)

    def test_solved_without_the_pseudo_inverse(self, monkeypatch):
        def pinv(*args, **kwargs):
            raise AssertionError("the LU solve of a positive definite Gram is enough")

        monkeypatch.setattr(np.linalg, "pinv", pinv)
        prob, _ = tight_problem()
        assert np.allclose(closest_optimum(prob.F, prob.f, prob.theta0), [2.0, 2.0], atol=1e-12)

    def test_poor_solve_falls_back_to_the_pseudo_inverse(self, monkeypatch):
        # a solve that misses the residual test is not read as "h* unattainable"
        monkeypatch.setattr(descent, "weighted_solve", lambda sym, w, r: np.zeros_like(r))
        prob, _ = tight_problem()
        assert np.allclose(closest_optimum(prob.F, prob.f, prob.theta0), [2.0, 2.0], atol=1e-12)

    def test_singular_gram_with_attainable_target(self):
        # two copies of one sample: the Gram is singular, h* = (4, 4) is attained
        data = Dataset([[1.0, 1.0], [1.0, 1.0]], targets=[np.array([4.0]), np.array([4.0])])
        prob = supervised(linear_model(2, out_dim=1), data, least_squares(k=1))
        assert np.allclose(closest_optimum(prob.F, prob.f, prob.theta0), [2.0, 2.0], atol=1e-12)

    def test_nonlinear_family_unsupported(self):
        data = Dataset(
            list(np.eye(3)[:2]), targets=[np.array([1.0]), np.array([0.0])]
        )
        model = shallow_net(3, 4, seed=0)
        f_map = induce(model, data)
        f = integral_functional(least_squares(k=1), data)
        assert closest_optimum(f_map, f, model.init) is None

    def test_unreachable_target_returns_none(self):
        # p = 1 into two distinct values: the optimum set is empty
        data = Dataset([[1.0], [2.0]], targets=[np.array([1.0]), np.array([-1.0])])
        model = linear_model(1, out_dim=1)
        prob = supervised(model, data, least_squares(k=1))
        assert closest_optimum(prob.F, prob.f, prob.theta0) is None

    def test_above_dense_cap_not_computable(self, monkeypatch):
        # d*l = 5 * 1000 exceeds the dense cap; theta = v attains every target
        x = np.arange(1.0, 6.0)
        v = np.linspace(-1.0, 1.0, 1000)
        data = Dataset(x[:, None], targets=[xi * v for xi in x])
        prob = supervised(linear_model(1, out_dim=1000), data, least_squares(k=1000))
        calls = []

        def apply(op, u, apply=LinOp.apply):
            calls.append(u)
            return apply(op, u)

        monkeypatch.setattr(LinOp, "apply", apply)
        assert closest_optimum(prob.F, prob.f, prob.theta0) is None
        assert calls == []  # refused before assembling anything


S1 = WeightedSpace.unit(1)


def planted_trace():
    """Gaps 4, 2, 1, 1 (f_star = 0) with hand-picked gradient and step norms."""
    return DescentTrace(
        iterates=np.zeros((2, 1)),
        losses=np.array([4.0, 2.0, 1.0, 1.0]),
        grad_norms=np.array([2.0, 0.0, 2.0, 4.0]),
        step_norms=np.array([1.0, 0.5, 0.5]),
        dist_from_init=np.zeros(4),
        stop_gap=0.0,
        predicted_iters=None,
    )


class TestMonitorVerdicts:
    def test_planted_violations_and_ties(self):
        # lam = 1, L = 4, alpha = 1/4; half squared gradient norms 2, 0, 2, 8
        ledger = ConstantsLedger(alpha=0.25, f_star=0.0, L=4.0, lam=1.0)
        obj = objective(S1, lambda h: 0.5 * float(h @ h), lambda h: h)
        verdicts = verify(planted_trace(), ledger, identity_map(S1), obj)

        # lower bound 0.5 g^2 >= lam gap: iterates 0 and 1 both miss by 2
        pl = verdicts.get("composition_pl")
        assert (pl.passed, pl.n_checked, pl.n_violations) == (False, 4, 2)
        assert (pl.worst_iter, pl.measured, pl.bound) == (0, 2.0, 4.0)

        # upper bound 0.5 g^2 <= L gap: only iterate 3 (8 > 4)
        lg = verdicts.get("composition_lg_bound")
        assert (lg.passed, lg.n_checked, lg.n_violations) == (False, 4, 1)
        assert (lg.worst_iter, lg.measured, lg.bound) == (3, 8.0, 4.0)

        # Taylor remainder 1 at every step against 2 L s^2 = 2, 0.5, 0.5
        taylor = verdicts.get("taylor_bound")
        assert (taylor.passed, taylor.n_checked, taylor.n_violations) == (False, 3, 2)
        assert (taylor.worst_iter, taylor.measured, taylor.bound) == (1, 1.0, 0.5)

        assert verdicts.get("q_decay").passed is None  # no q in the ledger

    @settings(deadline=None)
    @given(
        st.sampled_from(["q_decay", LOWER_BOUNDS[0]]),
        hnp.arrays(float, (2, 6), elements=st.floats(-1e6, 1e6)),
        st.floats(0.0, 1e3),
        st.floats(0.0, 1e3),
    )
    def test_holds_is_monotone_in_the_tolerance(self, name, values, tol_a, tol_b):
        # upper and lower bounds alike: a row that holds at some tolerance
        # still holds at any larger one
        measured, bound = values
        lo, hi = sorted((tol_a, tol_b))
        holds_lo = _holds(name, measured, bound, lo)
        holds_hi = _holds(name, measured, bound, hi)
        assert (holds_hi | ~holds_lo).all()


#: a small pool of series values, so that margins tie
POOL = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])


@st.composite
def traces(draw):
    """A finite trace of 0-60 steps with values from :data:`POOL`."""
    n = draw(st.integers(0, 60))

    def series(size):
        return np.array(draw(st.lists(POOL, min_size=size, max_size=size)))

    return DescentTrace(iterates=np.zeros((2, 1)), losses=series(n + 1),
                        grad_norms=series(n + 1), step_norms=series(n),
                        dist_from_init=series(n + 1), stop_gap=0.0, predicted_iters=None)


@st.composite
def ledgers(draw):
    """A ledger whose constants, small or large against the pool, plant violations."""
    def maybe(*values):
        return draw(st.one_of(st.none(), st.sampled_from(values)))

    q = maybe(0.0, 0.25, 0.9)
    return ConstantsLedger(alpha=draw(st.sampled_from([0.25, 1.0])), f_star=0.0,
                           L=maybe(0.5, 4.0), lam=maybe(0.25, 2.0), q=q,
                           K=None if q is None else draw(st.sampled_from([0.5, 8.0])))


class TestVerifyFold:
    @pytest.mark.parametrize("block", [1, 3, 2048])
    @settings(deadline=None, max_examples=150)
    @given(traces(), ledgers())
    def test_fold_over_blocks_equals_the_whole_run_table(self, block, trace, ledger):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(descent, "VERIFY_BLOCK", block)
            verdicts = verify(trace, ledger, None, None)
        table = monitor_rows(trace, ledger)
        for name in MONITORED:
            got, want = verdicts.get(name).as_dict(), reference_verdict(table, name)
            if want is None:
                assert got["passed"] is None and got["n_checked"] == 0, name
            else:
                assert {k: got[k] for k in want} == want, name

    def test_verify_holds_one_block(self):
        # a synthetic trace of n steps under a full ledger: verify's peak
        # does not grow with n
        ledger = ConstantsLedger(alpha=0.5, f_star=0.0, L=1.0, lam=0.5, q=0.75, K=1.0)

        def peak(n):
            series = np.linspace(2.0, 1.0, n + 1)
            trace = DescentTrace(iterates=np.zeros((2, 1)), losses=series, grad_norms=series,
                                 step_norms=series[:n], dist_from_init=series,
                                 stop_gap=0.0, predicted_iters=None)
            # the trace's derived series, kept for the export after verify
            trace.sq_grad_norms, trace.sq_step_norms, trace.path_lengths
            tracemalloc.start()
            try:
                verdicts = verify(trace, ledger, None, None)
                assert verdicts.get("taylor_bound").n_checked == n
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10**4), peak(10**5)
        assert large - small < 65536  # whole-run arrays would add ~5 MB

    def test_squared_series_are_filled_a_block_at_a_time(self):
        # the first sq_grad_norms of a 10^5-step trace holds the cached
        # array and one block of Python floats, not a whole-run list (3.2 MB)
        n = 10**5
        series = np.linspace(2.0, 1.0, n + 1)
        trace = DescentTrace(iterates=np.zeros((2, 1)), losses=series, grad_norms=series,
                             step_norms=series[:n], dist_from_init=series,
                             stop_gap=0.0, predicted_iters=None)
        tracemalloc.start()
        try:
            squares = trace.sq_grad_norms
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - squares.nbytes < 64 * descent.VERIFY_BLOCK  # ~40 B per element of a block
        # the bits of Python's pow, element by element
        assert squares.tobytes() == np.array([g**2 for g in series.tolist()]).tobytes()
        assert trace.sq_step_norms.tobytes() == squares[:n].tobytes()


class TestExports:
    def test_monitor_rows_of_any_range_are_that_slice_of_the_whole_table(self):
        ledger = ConstantsLedger(alpha=0.25, f_star=0.0, L=4.0, lam=1.0, q=0.5, K=2.0)
        trace = planted_trace()
        whole = monitor_rows(trace, ledger)
        # q_decay, three per-step inequalities, PL, LG, Taylor
        assert len(whole) == monitor_size(trace, ledger) == 4 + 3 * 3 + 4 + 4 + 3
        for start in range(len(whole) + 1):
            for stop in range(start, len(whole) + 1):
                part = monitor_rows(trace, ledger, start, stop)
                for column, values in vars(whole).items():
                    np.testing.assert_array_equal(getattr(part, column), values[start:stop])

    def test_trace_columns_and_monitor_rows_consistent(self):
        prob, cert = tight_problem()
        led = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha=0.5)
        trace, _ = run(prob.F, prob.f, prob.theta0, led, max_iter=10)
        cols = trace_columns(trace, led)
        assert cols["iter"].tolist() == [0, 1]
        assert cols["q_bound"][0] == pytest.approx(8.0)
        monitors = monitor_rows(trace, led)
        q_rows = monitors.name == "q_decay"
        assert monitors.bound[q_rows].tolist() == cols["q_bound"].tolist()
        assert monitors.holds.all()

    def test_predicted_iterations_formula(self):
        led = minimal_ledger(1.0)
        assert predicted_iterations(led, 1.0, 1e-10) is None
        prob, cert = tight_problem()
        full = build_ledger(prob.F, prob.f, prob.theta0, cert, alpha=0.5)
        assert predicted_iterations(full, 8.0, 1e-10) == 1  # q = 0
        assert predicted_iterations(full, 0.0, 1e-10) == 0
