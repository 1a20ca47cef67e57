from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plgd.errors import DimensionMismatch, NumericFailure, SolverCapExceeded
from plgd.space import (
    LinOp,
    WeightedSpace,
    coercivity,
    gram_eigvalsh,
    op_norm,
    require_dense,
    weighted_pinv_solve,
)

from oracles import NotSelfAdjoint, adjoint_defect, identity_op, symmetrize


class TestInner:
    def test_unit_weights(self):
        s = WeightedSpace.unit(2)
        assert s.inner([1.0, 1.0], [1.0, 1.0]) == 2.0

    def test_probability_weights_normalize(self):
        s = WeightedSpace([0.5, 0.5])
        assert s.inner([1.0, 1.0], [1.0, 1.0]) == 1.0

    def test_hand_sum(self):
        s = WeightedSpace([0.25, 0.75])
        assert s.inner([2.0, 0.0], [2.0, 4.0]) == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        s = WeightedSpace.unit(2)
        with pytest.raises(DimensionMismatch):
            s.inner([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_symmetry_and_cauchy_schwarz(self):
        rng = np.random.default_rng(0)
        s = WeightedSpace(rng.uniform(0.1, 2.0, size=6))
        for _ in range(100):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            assert s.inner(u, v) == pytest.approx(s.inner(v, u), rel=1e-12)
            assert s.inner(u, v) ** 2 <= s.inner(u, u) * s.inner(v, v) * (1 + 1e-12)


class TestWeightedSpace:
    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            WeightedSpace([1.0, 0.0])


@st.composite
def weighted_ops(draw, tall):
    """A ``LinOp`` between randomly weighted spaces, with a larger
    codomain (``tall``) or a larger domain, and its weighted singular values
    from an SVD oracle."""
    small, extra = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n_dom, n_cod = (small, small + extra) if tall else (small + extra, small)
    dom = WeightedSpace(draw(hnp.arrays(float, n_dom, elements=st.floats(1e-3, 1e3))))
    cod = WeightedSpace(draw(hnp.arrays(float, n_cod, elements=st.floats(1e-3, 1e3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((n_cod, n_dom))
    b = np.sqrt(cod.weights)[:, None] * m / np.sqrt(dom.weights)[None, :]
    return LinOp(dom, cod, m), np.linalg.svd(b, compute_uv=False)


class TestOpNorm:
    def test_identity(self):
        s = WeightedSpace.unit(2)
        assert op_norm(identity_op(s)) == pytest.approx(1.0, rel=1e-9)

    def test_row_matrix(self):
        a = LinOp(WeightedSpace.unit(2), WeightedSpace.unit(1), [[1.0, 1.0]])
        assert op_norm(a) == pytest.approx(np.sqrt(2.0), rel=1e-9)

    def test_zero_operator(self):
        s = WeightedSpace.unit(3)
        z = LinOp(s, s, np.zeros((3, 3)))
        assert op_norm(z) == 0.0

    def test_upper_bounds_probe_ratios(self):
        rng = np.random.default_rng(1)
        dom = WeightedSpace(rng.uniform(0.2, 1.5, size=5))
        cod = WeightedSpace(rng.uniform(0.2, 1.5, size=4))
        a = LinOp(dom, cod, rng.standard_normal((4, 5)))
        sigma = op_norm(a)
        for _ in range(50):
            u = rng.standard_normal(5)
            ratio = cod.norm(a.apply(u)) / dom.norm(u)
            assert sigma * (1 + 1e-5) >= ratio

    def test_exact_on_close_singular_values(self):
        # two singular values 1e-4 apart: an iterative estimate settles slowly
        s = WeightedSpace.unit(2)
        b = np.diag([1.0, 0.9999])
        assert op_norm(LinOp(s, s, b)) == pytest.approx(
            np.linalg.norm(b, 2), rel=0, abs=1e-12
        )

    @pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_svd_oracle(self, tall, data):
        a, sv = data.draw(weighted_ops(tall))
        assert op_norm(a) == pytest.approx(sv[0], rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=["wide", "tall"])
    def test_non_finite_gram_is_a_numeric_failure(self, shape, bad):
        mat = np.ones(shape)
        mat[1, 1] = bad
        a = LinOp(WeightedSpace.unit(shape[1]), WeightedSpace.unit(shape[0]), mat)
        with pytest.raises(NumericFailure, match="non-finite entries in a 2 x 2 weighted Gram"):
            op_norm(a)


class TestCoercivity:
    def test_identity(self):
        assert coercivity(identity_op(WeightedSpace.unit(2))) == pytest.approx(1.0)

    def test_diagonal(self):
        s = WeightedSpace.unit(2)
        a = LinOp(s, s, np.diag(np.sqrt([2.0, 0.5])))  # A A* = diag(2, 0.5)
        assert coercivity(a) == pytest.approx(0.5, rel=1e-12)

    def test_weighted_gram_of_orthonormal_points(self):
        # unit coordinate images in a space of masses 1/2: A A* = 0.5 I
        s = WeightedSpace([0.5, 0.5])
        a = LinOp(WeightedSpace.unit(2), s, np.eye(2))
        assert coercivity(a) == pytest.approx(0.5, rel=1e-12)

    def test_non_self_adjoint_operator(self):
        # A itself need not be self-adjoint: A A* is, by construction
        s = WeightedSpace.unit(2)
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        want = np.linalg.eigvalsh(m @ m.T)[0]
        assert coercivity(LinOp(s, s, m)) == pytest.approx(want, rel=1e-12)

    def test_dense_cap(self):
        # a zero-stride view: refused from the shape, before any product
        s = WeightedSpace.unit(4097)
        big = np.broadcast_to(1.0, (4097, 4097))
        with pytest.raises(SolverCapExceeded, match="p = 4097 and d·l = 4097"):
            coercivity(LinOp(s, s, big))

    def test_wider_codomain_is_zero_without_solve(self):
        # J J* has a kernel when p < d l: 0.0 for any codomain size, even
        # above the cap, while the norm solves the small side only
        dom, cod = WeightedSpace.unit(2), WeightedSpace.unit(5000)
        a = LinOp(dom, cod, np.broadcast_to(1.0, (5000, 2)))
        assert coercivity(a) == 0.0
        assert op_norm(a) == pytest.approx(100.0, rel=1e-12)  # sqrt(2 * 5000)

    @pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_svd_oracle(self, tall, data):
        a, sv = data.draw(weighted_ops(tall))
        lam = coercivity(a)
        if tall:
            assert lam == 0.0
        else:
            assert lam == pytest.approx(sv[-1] ** 2, rel=0, abs=1e-12 * sv[0] ** 2)

    def test_bracketed_by_rayleigh_quotients(self):
        rng = np.random.default_rng(2)
        s = WeightedSpace(rng.uniform(0.3, 2.0, size=5))
        m = rng.standard_normal((5, 5))
        # A from unit weights into s has A A* = (m m^T) D_s, self-adjoint PSD on s
        a = LinOp(WeightedSpace.unit(5), s, m)
        b = (m @ m.T) * s.weights[None, :]
        lam = coercivity(a)
        top = op_norm(a) ** 2
        for _ in range(50):
            u = rng.standard_normal(5)
            ray = s.inner(u, b @ u) / s.inner(u, u)
            assert lam <= ray * (1 + 1e-9) + 1e-12
            assert ray <= top * (1 + 1e-5) + 1e-12


@st.composite
def matrix_ops(draw):
    """A ``LinOp`` between two weighted spaces, with a domain and a
    codomain probe vector."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    dom = WeightedSpace(draw(hnp.arrays(float, n, elements=st.floats(1e-3, 1e3))))
    cod = WeightedSpace(draw(hnp.arrays(float, m, elements=st.floats(1e-3, 1e3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = LinOp(dom, cod, rng.standard_normal((m, n)))
    return a, rng.standard_normal(n), rng.standard_normal(m)


class TestAdjoint:
    @settings(deadline=None)
    @given(matrix_ops())
    def test_from_matrix_weighted_adjoint_identity(self, case):
        a, u, v = case
        lhs = a.codomain.inner(a.apply(u), v)
        rhs = a.domain.inner(u, a.adjoint_apply(v))
        # bound on the rounding of either sum: the sum of its terms' sizes
        scale = np.abs(u) @ np.abs(a.mat).T @ (a.codomain.weights * np.abs(v))
        assert abs(lhs - rhs) <= 1e-12 * scale

    @settings(deadline=None)
    @given(matrix_ops())
    def test_carried_matrix_equals_probed(self, case):
        a, _, _ = case
        probed = np.stack([a.apply(e) for e in np.eye(a.domain.dim)], axis=1)
        np.testing.assert_array_equal(a.mat, probed)
        assert not a.mat.flags.writeable

    @pytest.mark.parametrize("shape", [(7, 4), (28,), (4,), (1, 4, 7)])
    def test_wrong_shaped_matrix_refused_at_construction(self, shape):
        dom, cod = WeightedSpace.unit(7), WeightedSpace([0.5] * 4)
        with pytest.raises(DimensionMismatch, match="does not map dim 7 -> 4"):
            LinOp(dom, cod, np.zeros(shape))
        assert LinOp(dom, cod, np.zeros((4, 7))).mat.shape == (4, 7)

    def test_identity_holds_on_probes(self):
        rng = np.random.default_rng(3)
        dom = WeightedSpace(rng.uniform(0.1, 3.0, size=7))
        cod = WeightedSpace(rng.uniform(0.1, 3.0, size=4))
        a = LinOp(dom, cod, rng.standard_normal((4, 7)))
        assert adjoint_defect(a, n_probes=100) <= 1e-10


@st.composite
def weighted_kernels(draw):
    """A symmetric raw kernel G and masses w; ``G * w`` is self-adjoint in w."""
    n = draw(st.integers(1, 12))
    w = draw(hnp.arrays(float, n, elements=st.floats(1e-3, 1e3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.standard_normal((n, n))
    g = b @ b.T if draw(st.booleans()) else b + b.T
    return g, w


class TestSymmetrize:
    @settings(deadline=None)
    @given(weighted_kernels())
    def test_spectrum_matches_unsymmetrized(self, kernel):
        g, w = kernel
        m = g * w[None, :]
        ours = np.linalg.eigvalsh(symmetrize(m, w))
        ref = np.sort(np.linalg.eigvals(m).real)
        scale = float(np.abs(ref).max())
        assert np.abs(ours - ref).max() <= 1e-9 * scale

    @settings(deadline=None)
    @given(weighted_kernels())
    def test_rejects_non_self_adjoint(self, kernel):
        g, w = kernel
        if g.shape[0] < 2:
            g, w = np.eye(2), np.ones(2)
        skew = np.zeros_like(g)
        skew[0, 1], skew[1, 0] = 1.0, -1.0
        m = (g + (np.abs(g).max() + 1.0) * skew) * w[None, :]
        with pytest.raises(NotSelfAdjoint):
            symmetrize(m, w)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 12))
    def test_refused_above_cap_before_assembly(self, cap, extra, more):
        dim = cap + extra
        with pytest.raises(SolverCapExceeded, match=f"got {dim}"):
            require_dense(dim, cap)
        # an object with nothing but a shape: any product would raise TypeError
        shape_only = SimpleNamespace(shape=(dim + more, dim))
        with pytest.raises(SolverCapExceeded, match=f"p = {dim} and d·l = {dim + more}"):
            gram_eigvalsh(shape_only, None, None, cap=cap)

    def test_pinv_solve_is_weighted_minimum_norm(self):
        # M = G D with G all ones: M y = (2, 2) exactly when <w, y> = 2, and
        # the solution of least weighted norm sum_k w_k y_k^2 is y = (2, 2)
        w = np.array([0.25, 0.75])
        m = np.ones((2, 2)) * w[None, :]
        y = weighted_pinv_solve(symmetrize(m, w), w, np.array([2.0, 2.0]))
        assert np.allclose(y, [2.0, 2.0], rtol=0.0, atol=1e-12)
