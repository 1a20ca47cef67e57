"""Pointwise losses, empirical datasets and the induced integral objective.

A :class:`Dataset` is an empirical measure stored as arrays, one row per
atom: inputs, masses and, where a loss needs them, targets or mixture
densities.  An :class:`Integrand` is a loss ``iota(x, z)`` over atoms x
and model outputs z in R^l, evaluated on a whole (d, l) block of outputs
at once, with its gradient in z and, where they exist globally, its
Lipschitz-gradient constant, PL constant and pointwise infimum.  An
integrand is one function that returns its values and gradients
together, so the two share their intermediates.  :func:`integral_functional`
turns an integrand and a dataset into a :class:`ScalarObjective` on the
function space of values at the atoms; the integrand's constants are
inherited unchanged and the functional's gradient acts row by row in
function coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, InvalidDataset, NumericFailure
from .objective import ScalarObjective
from .smoothmap import FD_STEP, CertValue, fd_score
from .space import WeightedSpace

SQRT_2PI = math.sqrt(2.0 * math.pi)

#: exp overflows float64 near 709; refuse log-scale outputs beyond this
EXP_DOMAIN = 700.0


class SamplePoint(NamedTuple):
    """One row of a :class:`Dataset`, as listed by ``Dataset.points``.

    ``target`` is the row of float targets, the 1-based class label (int)
    or None.
    """

    x: np.ndarray
    target: Optional[object] = None


def _array(values, name: str, dtype=float) -> np.ndarray:
    """A fresh array of ``values``; ragged or non-numeric input is invalid data."""
    try:
        return np.array(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InvalidDataset(f"{name} must be a rectangular numeric array ({exc})") from None


def _first_bad_row(a: np.ndarray):
    """Index of the first row of ``a`` with a non-finite entry, or None."""
    if np.isfinite(a).all():
        return None
    return int(np.argmax(~np.isfinite(a.reshape(len(a), -1)).all(axis=1)))


def _require_finite(a: np.ndarray, name: str) -> None:
    i = _first_bad_row(a)
    if i is not None:
        raise InvalidDataset(f"sample {name} must be finite, got {a[i].tolist()} at row {i}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """An empirical measure with one array row per atom.

    ``inputs`` is (d, in_dim).  ``targets`` is optional: (d, k) floats (a
    1-d float array reads as (d, 1)) or (d,) 1-based integer class labels.
    ``weights`` are strictly positive masses summing to one, uniform when
    omitted.  ``mix`` (d, 2), carried only by adversarial datasets, holds
    the Radon-Nikodym densities of the real and generated distributions
    with respect to the mixture (exactly 2.0 or 0.0 for the even mixture).
    Shapes and finiteness are checked here, once; the arrays are read-only.
    """

    inputs: np.ndarray
    targets: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    mix: Optional[np.ndarray] = None

    def __post_init__(self):
        x = _array(self.inputs, "inputs")
        if x.ndim != 2 or len(x) == 0:
            raise InvalidDataset(
                f"inputs must be a non-empty (d, in_dim) array, got shape {x.shape}"
            )
        _require_finite(x, "inputs")
        d = len(x)

        t = self.targets
        if t is not None:
            t = _array(t, "targets", dtype=None)
            if t.ndim == 0 or len(t) != d:
                raise InvalidDataset(f"targets must have one row per input ({d})")
            if t.ndim == 1 and t.dtype.kind in "iu":
                t = t.astype(np.int64)
            elif t.ndim in (1, 2) and t.dtype.kind in "iuf":
                t = t.astype(float).reshape(d, -1)
                _require_finite(t, "targets")
            else:
                raise InvalidDataset("targets must be (d, k) floats or (d,) integer class labels")

        w = np.full(d, 1.0 / d) if self.weights is None else _array(self.weights, "weights")
        if w.shape != (d,):
            raise InvalidDataset("weights must match the number of points")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise InvalidDataset("weights must be finite and strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise InvalidDataset(f"weights must sum to 1, got {w.sum()!r}")

        mix = self.mix
        if mix is not None:
            mix = _array(mix, "mix")
            if mix.shape != (d, 2):
                raise InvalidDataset(f"mix must be a ({d}, 2) array, got shape {mix.shape}")
            _require_finite(mix, "mix")

        for name, a in (("inputs", x), ("targets", t), ("weights", w), ("mix", mix)):
            if a is not None:
                a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def points(self) -> tuple:
        """Per-row view of ``inputs`` and ``targets`` for external readers."""
        t = self.targets
        rows = [None] * len(self) if t is None else (t.tolist() if t.ndim == 1 else list(t))
        return tuple(SamplePoint(x, target) for x, target in zip(self.inputs, rows))

    def function_space(self, out_dim: int) -> WeightedSpace:
        """The weighted space of R^out_dim-valued functions on the atoms."""
        return WeightedSpace(np.repeat(self.weights, out_dim))


@dataclass(frozen=True, eq=False)
class Integrand:
    """A pointwise loss with gradient and optional global constants.

    ``value_and_grad_fn(data, Z)`` maps a (d, out_dim) block of outputs,
    row i at atom i of ``data``, to the (d,) per-row losses and the
    (d, out_dim) per-row gradients in z, in one pass whose two outputs
    share their intermediates; :meth:`value` and :meth:`grad` project it.
    ``lipschitz`` and ``pl`` are the Lipschitz-gradient and PL constants
    of ``iota(x, .)`` valid for every atom, or None.
    ``pointwise_inf(data)`` gives the (d,) values ``inf_z iota(x_i, z)``
    (None when unknown), and ``pointwise_argmin(data)`` the (d, out_dim)
    unique pointwise minimizers when known in closed form.
    """

    out_dim: int
    value_and_grad_fn: Callable[[Dataset, np.ndarray], tuple]
    lipschitz: Optional[float] = None
    pl: Optional[float] = None
    pointwise_inf: Optional[Callable[[Dataset], np.ndarray]] = None
    pointwise_argmin: Optional[Callable[[Dataset], np.ndarray]] = None
    name: str = ""

    def _block(self, data: Dataset, z) -> np.ndarray:
        return np.reshape(np.asarray(z, dtype=float), (len(data), self.out_dim))

    def value(self, data: Dataset, z) -> np.ndarray:
        return np.asarray(self.value_and_grad_fn(data, self._block(data, z))[0], dtype=float)

    def grad(self, data: Dataset, z) -> np.ndarray:
        return np.asarray(self.value_and_grad_fn(data, self._block(data, z))[1], dtype=float)


def _row_errors(iota: Integrand, data: Dataset, z: np.ndarray, g: np.ndarray, h: float):
    """Per-row norms ``(|fd - g|, |g|, |fd|)`` of a gradient block g against
    central differences of the integrand at z, each output coordinate
    perturbed in every row at once: 2 l integrand calls."""
    fd = np.empty_like(z)
    for c in range(iota.out_dim):
        e = np.zeros(iota.out_dim)
        e[c] = h
        fd[:, c] = (iota.value(data, z + e) - iota.value(data, z - e)) / (2.0 * h)
    norm = np.linalg.norm
    return norm(fd - g, axis=1), norm(g, axis=1), norm(fd, axis=1)


def _float_targets(data: Dataset, k: int) -> np.ndarray:
    t = data.targets
    if t is None or t.ndim != 2:
        raise InvalidDataset("the loss needs (d, k) float targets on every sample")
    if t.shape[1] != k:
        raise DimensionMismatch(f"targets have {t.shape[1]} columns, the loss expects {k}")
    return t


def least_squares(sigma=None, k: int = 1) -> Integrand:
    """Gaussian fixed-variance fit; plain least squares when sigma is None.

    With a variance vector sigma the loss is
    ``0.5 sum_i ((t_i - z_i)/sigma_i)^2`` plus the paper's constant
    normalizer ``sqrt(2 pi) prod_i sigma_i``.  Without sigma it is the bare
    ``0.5 ||t - z||^2``.  Both are 1/sigma^2-quadratic in z, so the
    Lipschitz and PL constants are the extreme inverse variances and the
    constant shifts nothing but the infimum.
    """
    if sigma is None:
        inv2 = None  # unit variances: the gradient is the residual itself
        const = 0.0
        name = "least_squares"
    else:
        s = np.asarray(sigma, dtype=float)
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise ValueError("sigma entries must be positive and finite")
        k = s.size
        inv2 = 1.0 / s**2
        const = SQRT_2PI * float(np.prod(s))
        name = "gaussian_fixed_var"

    def value_and_grad_fn(data, z):
        r = z - _float_targets(data, k)
        g = r if inv2 is None else inv2 * r
        # np.sum's own reduction without its Python-level dispatch; one column is its sum
        half = 0.5 * ((g * r)[:, 0] if k == 1 else np.add.reduce(g * r, axis=1))
        return (half + const if const else half), g  # half >= +0, so + 0.0 is exact

    return Integrand(
        k,
        value_and_grad_fn,
        lipschitz=1.0 if inv2 is None else float(inv2.max()),
        pl=1.0 if inv2 is None else float(inv2.min()),
        pointwise_inf=lambda data: np.full(len(data), const),
        pointwise_argmin=lambda data: _float_targets(data, k).copy(),
        name=name,
    )


def gaussian_nll(k: int = 1) -> Integrand:
    """Gaussian fit with learned log-variance: z = (mean, log-variance).

    The normalizer term is the paper's multiplicative
    ``sqrt(2 pi) e^{sum_i z_{k+i}}``:

        iota(x, z) = 0.5 sum_i ((t_i - z_i) / e^{z_{k+i}})^2
                     + sqrt(2 pi) e^{sum_i z_{k+i}}

    The loss is not globally Lipschitz-gradient or PL, and it does not
    attain its infimum (the variances can shrink forever), so no constants
    are attached.
    """

    def split(data, z):
        if np.any(np.abs(z[:, k:]) > EXP_DOMAIN):
            raise NumericFailure("log-variance output beyond exp() domain (|s| > 700)")
        return _float_targets(data, k), z[:, :k], z[:, k:]

    def value_and_grad_fn(data, z):
        t, mean, logv = split(data, z)
        diff = t - mean
        r = diff * np.exp(-logv)
        inv_var = np.exp(-2.0 * logv)
        # the (d, 1) normalizer term, also its derivative in each log-variance
        n = SQRT_2PI * np.exp(logv.sum(axis=1, keepdims=True))
        g = np.empty_like(z)
        g[:, :k] = -diff * inv_var
        g[:, k:] = -(diff**2) * inv_var + n
        return 0.5 * np.sum(r * r, axis=1) + n[:, 0], g

    return Integrand(2 * k, value_and_grad_fn, name="gaussian_nll")


def softmax_ce(k: int) -> Integrand:
    """Softmax cross-entropy over k classes with 1-based integer targets.

    ``iota(x, z) = logsumexp(z) - z_t`` (max-shifted for stability); the
    gradient is ``softmax(z) - onehot(t)``.  The softmax Jacobian has
    operator norm at most 1, giving the safe analytic Lipschitz constant
    1.  The pointwise infimum 0 is approached but never attained.
    """

    def labels(data):
        t = data.targets
        if t is None or t.ndim != 1:
            raise InvalidDataset(f"classification targets must be integer labels in 1..{k}")
        bad = (t < 1) | (t > k)
        if bad.any():
            raise InvalidDataset(
                f"classification target must be in 1..{k}, got {int(t[np.argmax(bad)])}"
            )
        return np.arange(len(t)), t - 1

    def value_and_grad_fn(data, z):
        rows, t = labels(data)
        m = z.max(axis=1, keepdims=True)
        e = np.exp(z - m)
        total = e.sum(axis=1, keepdims=True)
        g = e / total
        g[rows, t] -= 1.0
        return (m + np.log(total))[:, 0] - z[rows, t], g

    return Integrand(
        k,
        value_and_grad_fn,
        lipschitz=1.0,
        pointwise_inf=lambda data: np.zeros(len(data)),
        name="softmax_ce",
    )


def kl_diag_gaussian_and_grad(z_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """KL divergence of N(m, diag(s^2)) from N(0, I) over the last axis and
    its gradient in z_e = (m, log s)."""
    half = z_e.shape[-1] // 2
    m, t = z_e[..., :half], z_e[..., half:]
    var = np.exp(2.0 * t)
    return 0.5 * np.sum(m**2 + var - 1.0 - 2.0 * t, axis=-1), np.concatenate(
        [m, var - 1.0], axis=-1
    )


def vae_integrand(ell: Integrand, beta: float, latent_dim: int) -> Integrand:
    """Reconstruction-plus-divergence loss on z = (encoder out, decoder out).

    The encoder output block has length ``2 * latent_dim`` (mean and log
    standard deviation) and is penalized by beta times the closed-form
    diagonal-Gaussian KL divergence from the standard normal prior; the
    decoder output block is scored by ``ell`` against the sample target.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    enc = 2 * latent_dim

    def value_and_grad_fn(data, z):
        recon, recon_grad = ell.value_and_grad_fn(data, z[:, enc:])
        kl, kl_grad = kl_diag_gaussian_and_grad(z[:, :enc])
        return recon + beta * kl, np.concatenate([beta * kl_grad, recon_grad], axis=1)

    # KL term attains 0 at (m, log s) = 0, so infima add up
    return Integrand(
        enc + ell.out_dim,
        value_and_grad_fn,
        pointwise_inf=ell.pointwise_inf,
        name=f"vae[{ell.name},beta={beta}]",
    )


def gan_integrand(kind: str, beta: float, k: int) -> Integrand:
    """Gradient-penalized adversarial losses on z = (score y, input-grad w).

    The dataset must carry the mixture densities ``mix``.  kind "wgan_gp"
    uses ``y - beta (||w|| - 1)^2`` on real mass and
    ``-y - beta (||w|| - 1)^2`` on generated mass; kind "r1" uses
    ``log(y) - beta ||w||^2`` on real mass (domain y > 0) and
    ``log(1 - y)`` on generated mass (domain y < 1).  No global constants
    exist for either family.
    """
    if kind not in ("wgan_gp", "r1"):
        raise ValueError(f"unknown adversarial integrand kind {kind!r}")
    if beta <= 0:
        raise ValueError("beta must be positive")

    def mixture(data):
        if data.mix is None:
            raise InvalidDataset("adversarial datasets must carry the mixture densities")
        return data.mix[:, 0], data.mix[:, 1]

    if kind == "wgan_gp":
        cached = [(None, None)]  # (the last dataset, its data-only terms)

        def data_terms(data):
            """``dr``, ``dg``, the score gradient ``dr - dg`` and the prefix
            ``-(dr + dg) * beta * 2.0`` of the penalty gradient, computed once
            per dataset (a frozen dataset's arrays are read-only)."""
            last, terms = cached[0]
            if data is last:
                return terms
            dr, dg = mixture(data)
            terms = dr, dg, dr - dg, -(dr + dg) * beta * 2.0
            cached[0] = data, terms
            return terms

        def value_and_grad_fn(data, z):
            dr, dg, g_y, g_w = data_terms(data)
            y, w = z[:, 0], z[:, 1:]
            nw = np.sqrt(np.add.reduce(w * w, axis=1))  # np.linalg.norm(w, axis=1), bit for bit
            nw_1 = nw - 1.0
            pen = beta * nw_1**2
            g = np.empty_like(z)
            g[:, 0] = g_y
            # cone point of ||w|| at 0: penalty gradient taken as 0 there
            cone = nw <= 1e-30
            if np.logical_or.reduce(cone):  # cone.any() without its Python-level frame
                coef = np.where(cone, 0.0, g_w * nw_1)
                np.multiply(coef[:, None], w / np.where(cone, 1.0, nw)[:, None], out=g[:, 1:])
            else:
                np.multiply((g_w * nw_1)[:, None], w / nw[:, None], out=g[:, 1:])
            return dr * (y - pen) + dg * (-y - pen), g

    else:  # r1

        def sides(data, y):
            dr, dg = mixture(data)
            real, gen = dr != 0.0, dg != 0.0
            if np.any(real & (y <= 0.0)):
                raise NumericFailure("r1 real-side score must satisfy y > 0")
            if np.any(gen & (y >= 1.0)):
                raise NumericFailure("r1 generated-side score must satisfy y < 1")
            # off-side rows read a harmless 1.0 and carry zero density
            return dr, dg, np.where(real, y, 1.0), np.where(gen, 1.0 - y, 1.0)

        def value_and_grad_fn(data, z):
            w = z[:, 1:]
            dr, dg, y_real, y_gen = sides(data, z[:, 0])
            g = np.empty_like(z)
            g[:, 0] = dr / y_real - dg / y_gen
            g[:, 1:] = (-dr * beta * 2.0)[:, None] * w
            value = dr * (np.log(y_real) - beta * np.sum(w * w, axis=1)) + dg * np.log(y_gen)
            return value, g

    return Integrand(1 + k, value_and_grad_fn, name=f"{kind}[beta={beta}]")


def negate(iota: Integrand) -> Integrand:
    """Flip the sign of an integrand (descend the maximizing player)."""

    def value_and_grad_fn(data, z):
        value, grad = iota.value_and_grad_fn(data, z)
        return -value, -grad

    return Integrand(
        iota.out_dim,
        value_and_grad_fn,
        lipschitz=iota.lipschitz,
        name=f"neg[{iota.name}]",
    )


def integral_functional(iota: Integrand, data: Dataset) -> ScalarObjective:
    """The weighted-sum objective ``f -> sum_i w_i iota(x_i, f_i)``.

    Lives on the function space of the dataset; the gradient in function
    coordinates is the pointwise integrand gradient (the sample masses sit
    in the metric, not in the representer).  Lipschitz and PL constants,
    the infimum (sum of weighted pointwise infima) and the pointwise
    minimizer are inherited from the integrand when available.  Each of
    ``value_fn``, ``grad_fn`` and ``value_and_grad_fn`` makes one call of
    the integrand's ``value_and_grad_fn``.
    """
    l = iota.out_dim
    space = data.function_space(l)
    w = data.weights
    d = len(data)

    # A non-finite entry makes the weighted sum (the masses are positive) and
    # the squared norm non-finite, so the rows are scanned only then.
    def total(v) -> float:
        s = float(w.dot(v))
        if not math.isfinite(s):
            i = _first_bad_row(v)
            if i is not None:
                raise NumericFailure(f"non-finite integrand value at sample {i}")
        return s

    def flat(g) -> np.ndarray:
        g = g.reshape(-1)
        if not math.isfinite(g.dot(g)):
            i = _first_bad_row(g.reshape(d, -1))
            if i is not None:
                raise NumericFailure(f"non-finite integrand gradient at sample {i}")
        return g

    def value_fn(h):
        return total(iota.value_and_grad_fn(data, h.reshape(d, l))[0])

    def grad_fn(h):
        return flat(iota.value_and_grad_fn(data, h.reshape(d, l))[1])

    def value_and_grad_fn(h):
        v, g = iota.value_and_grad_fn(data, h.reshape(d, l))
        return total(v), flat(g)

    f_star = None
    if iota.pointwise_inf is not None:
        f_star = float(w @ iota.pointwise_inf(data))

    minimizer = None
    if iota.pointwise_argmin is not None:
        try:
            minimizer = iota.pointwise_argmin(data).reshape(-1)
        except InvalidDataset:
            minimizer = None

    return ScalarObjective(
        space=space,
        value_fn=value_fn,
        grad_fn=grad_fn,
        f_star=f_star,
        L=None if iota.lipschitz is None else CertValue(iota.lipschitz, "analytic"),
        lam=None if iota.pl is None else CertValue(iota.pl, "analytic"),
        minimizer=minimizer,
        name=f"I[{iota.name}]",
        value_and_grad_fn=value_and_grad_fn,
    )


def fd_check_functional(f: ScalarObjective, iota: Integrand, data: Dataset, z) -> float:
    """Gradient check of ``f``, the integral of ``iota`` over ``data``, at
    cost linear in the sample count.

    The functional is separable: sample i's outputs enter only its own
    term.  So row i of the gradient ``f.grad_fn(z)`` is compared with
    central differences of the integrand at row i, with the gate's step
    ``smoothmap.FD_STEP``, and the rows are scored by
    ``smoothmap.fd_score``: a row is measured relative to the larger of
    its two versions, and a row that vanishes (at an optimum, say)
    relative to the largest row.  Checking the whole functional column by
    column instead would difference an O(1) sum to find an O(1/d)
    derivative, whose rounding error fails correct gradients once d
    reaches about a thousand.  The sample masses are covered by one
    fixed-seed directional difference of the whole functional,
    ``(f(z + hv) - f(z - hv)) / 2h`` against ``<grad, v>``, along v = the
    unit gradient plus a unit random direction (so the derivative is of
    the order of the gradient's norm).  Correct functionals score <= 1e-5;
    a gradient off by a factor c scores about |1 - 1/c|.
    """
    h = FD_STEP
    space = f.space
    zc = space._coords(z)
    g = np.asarray(f.grad_fn(zc), dtype=float)
    worst = fd_score(*_row_errors(iota, data, iota._block(data, zc), iota._block(data, g), h))

    r = np.random.default_rng(0).standard_normal(space.dim)
    v = r / space.norm(r)
    g_norm = space.norm(g)
    if g_norm > 0.0:
        v = v + g / g_norm
    slope = (f.value_fn(zc + h * v) - f.value_fn(zc - h * v)) / (2.0 * h)
    exact = space.inner(g, v)
    return max(worst, fd_score([abs(slope - exact)], [abs(exact)], [abs(slope)]))
