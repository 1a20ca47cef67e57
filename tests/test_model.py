import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plgd import smoothmap
from plgd.errors import SolverCapExceeded
from plgd.integrand import Dataset
from plgd.model import (
    Model,
    induce,
    linear_disc,
    linear_model,
    load_theta,
    ntk_gram,
    random_features,
    save_theta,
    shallow_disc,
    shallow_net,
    vae_model,
)
from plgd.smoothmap import INFLATE, Ball, certify, estimate_bj, fd_check, fd_score
from plgd.space import LinOp, WeightedSpace, coercivity

from oracles import (adjoint_defect, aggregated_jacobian_bound, assembles_jacobian, fd_check_model,
                     fd_columns_score)


def zoo(rng):
    enc = shallow_net(2, 4, out_dim=2, seed=2)
    dec = shallow_net(1, 4, out_dim=2, seed=3)
    return [
        linear_model(3, out_dim=2),
        random_features(3, 8, out_dim=2, seed=1),
        shallow_net(3, 5, out_dim=2, seed=1),
        vae_model(enc, dec),
        shallow_disc(3, 6, seed=4, squash=False),
        shallow_disc(3, 6, seed=4, squash=True),
        linear_disc(3),
    ]


class TestJacobians:
    def test_zoo_passes_fd(self):
        rng = np.random.default_rng(0)
        for model in zoo(rng):
            for _ in range(10):
                x = rng.standard_normal((4, model.in_dim))
                th = rng.standard_normal(model.param_dim)
                assert fd_check_model(model, x, th) <= 1e-5, model.name

    def test_batched_calls_match_single_rows(self):
        # rows never interact: a d-row call equals the d one-row calls
        rng = np.random.default_rng(5)
        for model in zoo(rng):
            x = rng.standard_normal((6, model.in_dim))
            th = rng.standard_normal(model.param_dim)
            calls = [model.forward, model.jacobian] + ([model.jac_x] if model.jac_x else [])
            for call in calls:
                batch = call(x, th)
                assert batch.shape[:2] == (6, model.out_dim), model.name
                for i in range(len(x)):
                    np.testing.assert_allclose(
                        call(x[i : i + 1], th), batch[i : i + 1], rtol=1e-12, atol=1e-14,
                        err_msg=model.name,
                    )

    def test_param_dim_is_the_size_of_init(self):
        for model in zoo(np.random.default_rng(0)):
            assert model.param_dim == model.init.size, model.name
        base = linear_model(2)
        with pytest.raises(TypeError, match="param_dim"):
            Model(in_dim=2, out_dim=1, param_dim=3, forward=base.forward,
                  jacobian=base.jacobian, init=base.init)
        with pytest.raises(AttributeError):
            base.param_dim = 3

    def test_planted_bug_is_caught(self):
        base = shallow_net(2, 3, seed=0)
        buggy = Model(
            in_dim=2, out_dim=1,
            forward=base.forward,
            jacobian=lambda x, th: 2.0 * base.jacobian(x, th),
            init=base.init,
        )
        rng = np.random.default_rng(1)
        err = fd_check_model(buggy, rng.standard_normal((3, 2)), rng.standard_normal(base.param_dim))
        assert err > 0.3

    def test_shallow_zero_output_layer(self):
        m = shallow_net(2, 4, seed=0)
        th = m.init.copy()
        th[4 * 2 :] = 0.0  # zero the readout
        x = np.random.default_rng(2).standard_normal((5, 2))
        assert np.allclose(m.forward(x, th), 0.0)

    def test_input_jacobians_pass_fd(self):
        rng = np.random.default_rng(3)
        for model in (shallow_net(3, 5, out_dim=2, seed=1),):  # the VAE decoder's kind
            th = rng.standard_normal(model.param_dim)
            x = rng.standard_normal((4, 3))
            jx = model.jac_x(x, th)
            h = 1e-6
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd = (model.forward(x + e, th) - model.forward(x - e, th)) / (2 * h)
                assert np.allclose(fd, jx[:, :, k], atol=1e-6), model.name


class TestRandomFeaturesCache:
    """The cached frozen features give exactly the uncached expression."""

    IN, WIDTH, OUT, SEED = 3, 8, 2, 1
    TANH = staticmethod(np.tanh)  # bound here, so the `computed` count skips the oracle

    def uncached(self, x, theta):
        w = np.random.default_rng(self.SEED).standard_normal((self.WIDTH, self.IN))
        scale = 1.0 / np.sqrt(self.WIDTH)
        tau = self.TANH(x @ w.T)
        a = theta.reshape(self.OUT, self.WIDTH)
        forward = scale * (tau @ a.T)
        jac = np.zeros((len(x), self.OUT, self.OUT * self.WIDTH))
        for c in range(self.OUT):
            jac[:, c, c * self.WIDTH : (c + 1) * self.WIDTH] = scale * tau
        return forward, jac

    def assert_uncached(self, model, x, theta):
        got = (model.forward(x, theta), model.jacobian(x, theta))
        for g, want in zip(got, self.uncached(x, theta)):
            np.testing.assert_array_equal(g, want)  # rtol 0

    def test_new_batch_copy_and_in_place_mutation(self):
        rng = np.random.default_rng(2)
        model = random_features(self.IN, self.WIDTH, out_dim=self.OUT, seed=self.SEED)
        theta = rng.standard_normal(model.param_dim)
        x = rng.standard_normal((5, self.IN))
        self.assert_uncached(model, x, theta)
        self.assert_uncached(model, x.copy(), theta)  # equal content, new object
        self.assert_uncached(model, rng.standard_normal((4, self.IN)), theta)  # new batch
        self.assert_uncached(model, x, theta)
        x[2, 1] += 0.5  # the same writable object, mutated in place
        self.assert_uncached(model, x, theta)
        x[:] = 0.0
        self.assert_uncached(model, x, theta)

    @pytest.fixture
    def computed(self, monkeypatch):
        """The number of feature computations (tanh calls) made so far."""
        calls = []
        tanh = np.tanh
        monkeypatch.setattr(np, "tanh", lambda a: calls.append(1) or tanh(a))
        return calls

    def test_dataset_inputs_are_computed_once(self, computed):
        rng = np.random.default_rng(3)
        model = random_features(self.IN, self.WIDTH, out_dim=self.OUT, seed=self.SEED)
        theta = rng.standard_normal(model.param_dim)
        x = Dataset(rng.standard_normal((5, self.IN))).inputs
        self.assert_uncached(model, x, theta)
        assert len(computed) == 1
        self.assert_uncached(model, x, theta)
        assert len(computed) == 1
        self.assert_uncached(model, x.copy(), theta)  # writable: recomputed on every call
        assert len(computed) == 3
        self.assert_uncached(model, x, theta)
        assert len(computed) == 4  # the copy was the last batch

    def test_read_only_view_of_a_mutated_base_is_recomputed(self, computed):
        rng = np.random.default_rng(4)
        model = random_features(self.IN, self.WIDTH, out_dim=self.OUT, seed=self.SEED)
        theta = rng.standard_normal(model.param_dim)
        base = rng.standard_normal((5, self.IN))
        view = base[:]
        view.setflags(write=False)
        self.assert_uncached(model, view, theta)
        base[1, 2] += 0.5
        self.assert_uncached(model, view, theta)
        assert len(computed) == 4

    def test_array_made_writable_again_is_recomputed(self, computed):
        rng = np.random.default_rng(5)
        model = random_features(self.IN, self.WIDTH, out_dim=self.OUT, seed=self.SEED)
        theta = rng.standard_normal(model.param_dim)
        x = rng.standard_normal((5, self.IN))
        x.setflags(write=False)
        self.assert_uncached(model, x, theta)
        self.assert_uncached(model, x, theta)
        assert len(computed) == 1
        x.setflags(write=True)
        x[0, 0] -= 1.0
        self.assert_uncached(model, x, theta)
        assert len(computed) == 3


def fd_check_by_column(f, x):
    """``fd_check`` with one ``value_fn`` call per coordinate direction and
    sign: the column score, then the pull-back against the Jacobian's
    adjoint."""
    xc = np.asarray(x, dtype=float)
    worst = fd_columns_score(f, xc)
    r = np.random.default_rng(0).standard_normal(f.codomain.dim)
    adj, vjp = f.jacobian(xc).adjoint_apply(r), f.value_and_vjp_fn(xc)[1](r)
    denom = max(f.domain.norm(adj), f.domain.norm(vjp))
    rel = f.domain.norm(vjp - adj) / denom if denom > 0.0 else 0.0
    return max(worst, rel) if math.isfinite(rel) else math.inf


class TestStackedForward:
    """``random_features``' stacked forward and the gradient gate's stacked,
    chunked differences."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 4), st.integers(1, 3), st.integers(1, 9), st.integers(1, 9),
        st.integers(0, 2**32 - 1),
    )
    def test_stack_is_the_value_of_each_row(self, in_dim, out_dim, d, k, seed):
        model = random_features(in_dim, 8, out_dim=out_dim, seed=1)
        rng = np.random.default_rng(seed)
        f_map = induce(model, Dataset(rng.standard_normal((d, in_dim))))
        thetas = rng.standard_normal((k, model.param_dim))
        stack = f_map.value_stack(thetas)
        assert stack.shape == (k, d * out_dim)
        for i in range(k):
            # a larger product may sum in another order; atol covers entries
            # that cancel to near zero
            np.testing.assert_allclose(stack[i], f_map.value_fn(thetas[i]), rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(f_map.value_stack(thetas[:1])[0], f_map.value_fn(thetas[0]))

    def test_only_random_features_stacks(self):
        stacked = [m.name for m in zoo(None)
                   if induce(m, Dataset(np.ones((2, m.in_dim)))).value_stack_fn is not None]
        assert stacked == ["random_features[m=8]"]

    def test_fallback_scores_as_the_column_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for model in zoo(None):
            data = Dataset(
                rng.standard_normal((4, model.in_dim)), weights=rng.dirichlet(np.ones(4))
            )
            f_map = induce(model, data)
            if f_map.value_stack_fn is not None:
                continue
            for _ in range(3):
                th = model.init + rng.standard_normal(model.param_dim)
                assert fd_check(f_map, th) == fd_check_by_column(f_map, th), model.name

    def test_chunk_width_does_not_move_the_score(self, monkeypatch):
        rng = np.random.default_rng(12)
        models = (linear_model(5, out_dim=3), random_features(3, 10, out_dim=2, seed=1),
                  linear_disc(9), shallow_net(3, 5, out_dim=2, seed=1))
        for model in models:
            data = Dataset(
                rng.standard_normal((5, model.in_dim)), weights=rng.dirichlet(np.ones(5))
            )
            f_map = induce(model, data)
            th = model.init + rng.standard_normal(model.param_dim)
            assert model.param_dim > 7 and model.param_dim % 7 != 0, model.name
            monkeypatch.setattr(smoothmap, "_fd_chunk", lambda p, n_out: 7)
            by_seven = fd_check(f_map, th)
            monkeypatch.setattr(smoothmap, "_fd_chunk", lambda p, n_out: p)
            assert abs(by_seven - fd_check(f_map, th)) <= 1e-12, model.name

    def test_wide_gate_makes_stacked_calls_only(self):
        # m = 2048 readout weights over d = 200 samples: the differences come
        # from two stacked calls per chunk, never from per-column forwards
        model = random_features(4, 2048, seed=1)
        data = Dataset(np.random.default_rng(13).standard_normal((200, 4)))
        f_map = induce(model, data)
        calls = {"value": 0, "stack": 0}

        def counted(name, fn):
            def call(arg):
                calls[name] += 1
                return fn(arg)
            return call

        counting = dataclasses.replace(
            f_map,
            value_fn=counted("value", f_map.value_fn),
            value_stack_fn=counted("stack", f_map.value_stack_fn),
        )
        assert fd_check(counting, model.init) <= 1e-5
        chunks = math.ceil(model.param_dim / smoothmap._fd_chunk(model.param_dim, len(data)))
        assert chunks < model.param_dim
        assert calls == {"value": 0, "stack": 2 * chunks}


class TestInduce:
    def orthonormal_data(self):
        return Dataset(
            list(np.eye(2)), targets=[np.array([1.0]), np.array([-1.0])]
        )

    def test_weighted_adjoint_hand_value(self):
        data = self.orthonormal_data()
        f_map = induce(linear_model(2, out_dim=1), data)
        adj = f_map.jacobian(np.zeros(2)).adjoint_apply(np.array([4.0, 6.0]))
        assert np.allclose(adj, [2.0, 3.0])  # (a/2, b/2)

    def test_constant_model_zero_jacobian(self):
        const = Model(
            in_dim=2, out_dim=1,
            forward=lambda x, th: np.ones((len(x), 1)),
            jacobian=lambda x, th: np.zeros((len(x), 1, 3)),
            init=np.zeros(3),
            linear_in_params=False,
        )
        f_map = induce(const, self.orthonormal_data())
        jac = f_map.jacobian(np.zeros(3))
        assert np.allclose(jac.apply(np.ones(3)), 0.0)
        assert np.allclose(jac.adjoint_apply(np.ones(2)), 0.0)

    def test_adjoint_identity_on_probes(self):
        rng = np.random.default_rng(4)
        data = Dataset(
            list(rng.standard_normal((5, 3))),
            targets=list(rng.standard_normal((5, 2))),
            weights=np.array([0.1, 0.2, 0.3, 0.25, 0.15]),
        )
        model = shallow_net(3, 6, out_dim=2, seed=5)
        f_map = induce(model, data)
        jac = f_map.jacobian(model.init)
        assert adjoint_defect(jac, n_probes=100) <= 1e-10

    def test_linear_in_params_marks_linear_op(self):
        data = self.orthonormal_data()
        assert induce(random_features(2, 4, seed=0), data).linear_op is not None
        assert induce(shallow_net(2, 4, seed=0), data).linear_op is None

    def test_vjp_fn_for_linear_models_and_models_with_vjp(self):
        rng = np.random.default_rng(6)

        def unused(x, th):
            raise AssertionError("a linear map pulls back through its constant matrix")

        linear_with_vjp = dataclasses.replace(linear_model(3), forward_vjp=unused)
        models = zoo(rng) + [linear_with_vjp]
        maps = [induce(m, Dataset(rng.standard_normal((3, m.in_dim)))) for m in models]
        assembling = [m.name for m, f in zip(models, maps) if assembles_jacobian(f, m.init)]
        assert assembling == ["vae[shallow[m=4]|shallow[m=4]]"]
        _, pull = maps[-1].value_and_vjp_fn(np.ones(3))
        assert np.array_equal(pull(np.ones(3)), maps[-1].linear_op.adjoint_apply(np.ones(3)))

    @pytest.mark.parametrize("model", [linear_model(3, out_dim=2), random_features(3, 8, out_dim=2)],
                             ids=["linear", "random_features"])
    def test_linear_vjp_fn_equals_value_and_adjoint_bit_for_bit(self, model):
        rng = np.random.default_rng(8)
        weights = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        f_map = induce(model, Dataset(rng.standard_normal((5, 3)), weights=weights))
        assert not assembles_jacobian(f_map, model.init)
        for _ in range(5):
            th = rng.standard_normal(model.param_dim)
            v = rng.standard_normal(f_map.codomain.dim)
            fx, pull = f_map.value_and_vjp_fn(th)
            assert np.array_equal(fx, f_map.value_fn(th))
            assert np.array_equal(pull(v), f_map.jac_fn(th).adjoint_apply(v))

    def test_vjp_fn_equals_weighted_adjoint(self):
        rng = np.random.default_rng(7)
        weights = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        for model in (shallow_net(3, 6, out_dim=2, seed=5), shallow_disc(3, 6, seed=4, squash=True)):
            f_map = induce(model, Dataset(rng.standard_normal((5, 3)), weights=weights))
            th = rng.standard_normal(model.param_dim)
            v = rng.standard_normal(f_map.codomain.dim)
            adj = f_map.jacobian(th).adjoint_apply(v)
            fx, pull = f_map.value_and_vjp_fn(th)
            np.testing.assert_array_equal(fx, f_map.value_fn(th))
            np.testing.assert_allclose(pull(v), adj, rtol=0, atol=1e-12 * np.abs(adj).max())

    def test_vae_pull_is_the_jacobian_adjoint_bit_for_bit(self):
        # the VAE has no forward_vjp: its map pulls back through the assembled Jacobian
        rng = np.random.default_rng(9)
        enc, dec = shallow_net(2, 4, out_dim=2, seed=2), shallow_net(1, 4, out_dim=2, seed=3)
        model = vae_model(enc, dec)
        weights = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        f_map = induce(model, Dataset(rng.standard_normal((5, model.in_dim)), weights=weights))
        for _ in range(5):
            th = rng.standard_normal(model.param_dim)
            v = rng.standard_normal(f_map.codomain.dim)
            fx, pull = f_map.value_and_vjp_fn(th)
            assert np.array_equal(fx, f_map.value_fn(th))
            assert np.array_equal(pull(v), f_map.jacobian(th).adjoint_apply(v))
            # the gate's pull-back term compares the adjoint with itself and adds 0
            assert fd_check(f_map, th) == fd_columns_score(f_map, th)

    @settings(deadline=None, max_examples=50)
    @given(st.sampled_from(zoo(None)), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_induced_adjoint_is_the_weighted_transpose(self, model, d, seed):
        # bit for bit the product J^T (w * v), whose weights repeat the
        # sample masses; the same matrix between two randomly weighted
        # spaces satisfies <J u, v> = <u, J* v> up to rounding
        rng = np.random.default_rng(seed)
        data = Dataset(rng.standard_normal((d, model.in_dim)), weights=rng.dirichlet(np.ones(d)))
        th = model.init + rng.standard_normal(model.param_dim)
        jac = induce(model, data).jacobian(th)
        js, w = jac.mat, np.repeat(data.weights, model.out_dim)
        v = rng.standard_normal(js.shape[0])
        assert np.array_equal(jac.adjoint_apply(v), js.T @ (w * v))

        a = LinOp(
            WeightedSpace(rng.uniform(1e-3, 1e3, js.shape[1])),
            WeightedSpace(rng.uniform(1e-3, 1e3, js.shape[0])),
            js,
        )
        u = rng.standard_normal(js.shape[1])
        lhs = a.codomain.inner(a.apply(u), v)
        rhs = a.domain.inner(u, a.adjoint_apply(v))
        scale = np.abs(u) @ np.abs(js).T @ (a.codomain.weights * np.abs(v))
        assert abs(lhs - rhs) <= 1e-12 * scale


def _shallow_disc_separate(in_dim, width, squash):
    """``shallow_disc``'s output and VJP by its formulas written out one
    step at a time: ``(value(x, theta), vjp(x, theta, g))``."""
    scale = 1.0 / np.sqrt(width)
    n_w = width * in_dim

    def raw_parts(x, theta):
        w_mat, a = theta[:n_w].reshape(width, in_dim), theta[n_w:]
        tau = np.tanh(x @ w_mat.T)
        dtau = 1.0 - tau**2
        u = scale * (tau @ a)
        grad_x = scale * ((a * dtau) @ w_mat)
        return w_mat, a, tau, dtau, u, grad_x

    def raw_vjp(x, w_mat, a, tau, dtau, g_u, g_x):
        p_hid = g_x @ w_mat.T
        coef = a * dtau * (g_u[:, None] - 2.0 * tau * p_hid)
        grad_w = scale * (coef.T @ x + a[:, None] * (dtau.T @ g_x))
        grad_a = scale * (tau.T @ g_u + (dtau * p_hid).sum(axis=0))
        return np.concatenate([grad_w.reshape(-1), grad_a])

    def sigmoid(u):
        e = np.exp(-np.abs(u))
        return np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def value(x, theta):
        *_, u, grad_x = raw_parts(x, theta)
        if not squash:
            return np.concatenate([u[:, None], grad_x], axis=1)
        s = sigmoid(u)
        ds = s * (1.0 - s)
        return np.concatenate([s[:, None], ds[:, None] * grad_x], axis=1)

    def vjp(x, theta, g):
        *parts, u, grad_x = raw_parts(x, theta)
        if not squash:
            return raw_vjp(x, *parts, g[:, 0], g[:, 1:])
        s = sigmoid(u)
        ds = s * (1.0 - s)
        dds = ds * (1.0 - 2.0 * s)
        g_u = ds * g[:, 0] + dds * np.einsum("ic,ic->i", g[:, 1:], grad_x)
        return raw_vjp(x, *parts, g_u, ds[:, None] * g[:, 1:])

    return value, vjp


class TestVJP:
    """The hand-written vector-Jacobian products against the contraction
    of the assembled Jacobian, their oracle."""

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 4), st.integers(1, 9), st.integers(1, 7), st.booleans(),
        st.sampled_from([1e-3, 1.0, 30.0]), st.integers(0, 2**32 - 1),
    )
    def test_critic_equals_separate_bit_for_bit(self, in_dim, width, d, squash, scale, seed):
        rng = np.random.default_rng(seed)
        model = shallow_disc(in_dim, width, squash=squash)
        value, vjp = _shallow_disc_separate(in_dim, width, squash)
        x = scale * rng.standard_normal((d, in_dim))
        th = scale * rng.standard_normal(model.param_dim)
        g = scale * rng.standard_normal((d, 1 + in_dim))
        z, pull = model.forward_vjp(x, th)
        assert np.array_equal(z, value(x, th))
        assert np.array_equal(model.forward(x, th), z)
        assert np.array_equal(pull(g), vjp(x, th, g))

    MODELS = (
        shallow_net(3, 5, out_dim=1, seed=1),
        shallow_net(3, 5, out_dim=3, seed=1),
        shallow_disc(3, 6, seed=4, squash=False),
        shallow_disc(3, 6, seed=4, squash=True),
    )

    @pytest.mark.parametrize(
        "model", MODELS, ids=["shallow_out1", "shallow_out3", "disc_raw", "disc_squash"]
    )
    def test_matches_jacobian_contraction(self, model):
        rng = np.random.default_rng(8)
        for d in (1, 4, 9):
            x = rng.standard_normal((d, model.in_dim))
            th = rng.standard_normal(model.param_dim)
            g = rng.standard_normal((d, model.out_dim))
            ref = np.einsum("ilp,il->p", model.jacobian(x, th), g)
            z, pull = model.forward_vjp(x, th)
            np.testing.assert_array_equal(z, model.forward(x, th))
            got = pull(g)
            assert got.shape == (model.param_dim,)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_only_the_tanh_nets_carry_one(self):
        names = [m.name for m in zoo(np.random.default_rng(0)) if m.forward_vjp is not None]
        assert names == ["shallow[m=5]", "shallow_disc[m=6]", "shallow_disc[m=6,squash]"]


class TestNTKGram:
    def test_orthonormal_linear_gram(self):
        data = Dataset(list(np.eye(2)), targets=[np.array([0.0]), np.array([0.0])])
        g = ntk_gram(linear_model(2, out_dim=1), data, np.zeros(2))
        assert g.lambda_min == pytest.approx(0.5, rel=1e-12)
        assert g.lambda_max == pytest.approx(0.5, rel=1e-12)

    def test_underparameterized_rank_deficiency(self):
        data = Dataset([[1.0], [2.0]], targets=[np.array([0.0]), np.array([0.0])])
        g = ntk_gram(linear_model(1, out_dim=1), data, np.zeros(1))
        assert abs(g.lambda_min) <= 1e-10
        assert g.lambda_max > 0

    def test_duplicated_point_rank_deficiency(self):
        data = Dataset([[1.0, 0.0], [1.0, 0.0]],
                                   targets=[np.array([0.0]), np.array([0.0])])
        g = ntk_gram(linear_model(2, out_dim=1), data, np.zeros(2))
        assert abs(g.lambda_min) <= 1e-10

    def test_spectrum_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        data = Dataset(
            list(rng.standard_normal((4, 3))),
            weights=np.array([0.4, 0.3, 0.2, 0.1]),
        )
        model = shallow_net(3, 7, out_dim=2, seed=7)
        g = ntk_gram(model, data, model.init)
        # the (d l, d l) Gram D^1/2 J J^T D^1/2 with the masses repeated per output
        js = model.jacobian(data.inputs, model.init).reshape(8, -1)
        root = np.sqrt(np.repeat(data.weights, 2))
        eigs = np.linalg.eigvalsh(root[:, None] * (js @ js.T) * root[None, :])
        tol = 1e-12 * eigs[-1]
        assert g.lambda_min == pytest.approx(eigs[0], rel=0, abs=tol)
        assert g.lambda_max == pytest.approx(eigs[-1], rel=0, abs=tol)
        assert g.lambda_min <= g.lambda_max

    def test_matches_pointwise_conditioning(self):
        # two code paths, one quantity: dense Gram vs J J* coercivity
        rng = np.random.default_rng(8)
        data = Dataset(list(rng.standard_normal((3, 2))))
        model = shallow_net(2, 9, out_dim=1, seed=9)
        f_map = induce(model, data)
        th = model.init + 0.3 * rng.standard_normal(model.param_dim)
        g = ntk_gram(model, data, th)
        assert coercivity(f_map.jacobian(th)) == pytest.approx(g.lambda_min, abs=1e-9)

    def test_spectrum_bounds_sampled_jacobian_norm(self):
        rng = np.random.default_rng(10)
        data = Dataset(list(rng.standard_normal((3, 2))))
        model = shallow_net(2, 5, out_dim=1, seed=11)
        f_map = induce(model, data)
        ball = Ball(f_map.domain, model.init, 1.0)
        k_hat = estimate_bj(f_map, ball, n=16, seed=0) / INFLATE
        # per-sample aggregation upper-bounds the induced Jacobian norm
        worst = 0.0
        from plgd.smoothmap import sample_ball

        for th in [model.init] + sample_ball(ball, 15, np.random.default_rng(0)):
            worst = max(worst, aggregated_jacobian_bound(model, data, th))
        assert k_hat <= worst * (1 + 1e-6)

    def test_dense_cap(self):
        # p = 2 * 2100 and d l = 2 * 2100 both exceed the cap
        data = Dataset(np.zeros((2, 2)))
        model = linear_model(2, out_dim=2100)
        with pytest.raises(SolverCapExceeded):
            ntk_gram(model, data, np.zeros(model.param_dim))

    def test_refused_before_assembly_naming_both_sides(self):
        calls = []

        def jacobian(x, theta, f=linear_model(2, out_dim=2100).jacobian):
            calls.append(theta)
            return f(x, theta)

        model = dataclasses.replace(linear_model(2, out_dim=2100), jacobian=jacobian)
        with pytest.raises(SolverCapExceeded, match="p = 4200 and d·l = 4200"):
            ntk_gram(model, Dataset(np.zeros((2, 2))), np.zeros(model.param_dim))
        assert calls == []

    def test_underparameterized_is_exactly_zero(self):
        # p = 7 < d = 9: J J* has a kernel, whatever the eigensolve rounds to
        rng = np.random.default_rng(42)
        data = Dataset(rng.standard_normal((9, 3)), weights=rng.dirichlet(np.ones(9)))
        model = random_features(3, 7, seed=42)
        g = ntk_gram(model, data, model.init)
        assert g.lambda_min == 0.0
        assert g.lambda_max > 0.0

    def test_wide_side_solved_at_large_d(self):
        # d l = 5000 above the cap, p = 16 below it: the 16 x 16 side answers
        rng = np.random.default_rng(3)
        data = Dataset(rng.standard_normal((5000, 4)))
        model = random_features(4, 16, seed=1)
        g = ntk_gram(model, data, model.init)
        js = model.jacobian(data.inputs, model.init)[:, 0, :]
        want = np.linalg.norm(np.sqrt(data.weights)[:, None] * js, 2) ** 2
        assert g.lambda_min == 0.0
        assert g.lambda_max == pytest.approx(want, rel=1e-12)

    def test_wide_random_features_usually_coercive(self):
        rng = np.random.default_rng(12)
        d, l, in_dim = 4, 1, 3
        data = Dataset(list(rng.standard_normal((d, in_dim))))
        hits = 0
        n_seeds = 20
        for seed in range(n_seeds):
            model = random_features(in_dim, 4 * d * l, out_dim=l, seed=seed)
            g = ntk_gram(model, data, model.init)
            hits += g.lambda_min > 0
        assert hits / n_seeds >= 0.95


class TestCertificates:
    def test_random_features_jacobian_lipschitz_zero(self):
        data = Dataset(list(np.random.default_rng(13).standard_normal((3, 2))))
        f_map = induce(random_features(2, 8, seed=0), data)
        ball = Ball(f_map.domain, np.zeros(8), 2.0)
        cert = certify(f_map, ball, n=8, seed=0)
        assert cert.L.value == 0.0 and cert.L.provenance == "analytic"


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        m = shallow_net(2, 3, seed=0)
        path = tmp_path / "theta.json"
        save_theta(path, m.init, m.param_shapes)
        assert np.allclose(load_theta(path), m.init)
