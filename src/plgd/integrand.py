"""Pointwise losses, empirical datasets and the induced integral objective.

An :class:`Integrand` is a loss ``iota(x, z)`` over sample payloads x and
model outputs z in R^l, with its gradient in z and, where they exist
globally, its Lipschitz-gradient constant, PL constant and pointwise
infimum.  :func:`integral_functional` turns an integrand and a weighted
dataset into a :class:`ScalarObjective` on the function space of values at
the sample points; the integrand's constants are inherited unchanged and
the functional's gradient acts pointwise in function coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidDataset, NumericFailure
from .objective import ScalarObjective
from .smoothmap import CertValue
from .space import WeightedSpace

SQRT_2PI = math.sqrt(2.0 * math.pi)

#: exp overflows float64 near 709; refuse log-scale outputs beyond this
EXP_DOMAIN = 700.0


@dataclass(frozen=True, eq=False)
class SamplePoint:
    """One atom of an empirical measure.

    ``x`` are the input features.  ``target`` is the supervised target
    (array) or 1-based class label (int) when applicable.  ``mix_real``
    and ``mix_gen`` are the Radon-Nikodym densities of the real and
    generated distributions with respect to the mixture, carried only by
    adversarial datasets (exactly 2.0 or 0.0 for the even mixture).
    """

    x: np.ndarray
    target: Optional[object] = None
    mix_real: Optional[float] = None
    mix_gen: Optional[float] = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise InvalidDataset(f"sample inputs must be finite, got {x.tolist()}")
        if not (self.target is None or isinstance(self.target, (int, np.integer))):
            if not np.all(np.isfinite(self.target_array())):
                raise InvalidDataset(f"sample targets must be finite, got {self.target!r}")
        object.__setattr__(self, "x", x)

    def target_array(self) -> np.ndarray:
        if self.target is None:
            raise InvalidDataset("sample point has no target")
        return np.asarray(self.target, dtype=float)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sample points with strictly positive masses summing to one."""

    points: tuple
    weights: np.ndarray

    def __post_init__(self):
        pts = tuple(self.points)
        w = np.asarray(self.weights, dtype=float)
        if len(pts) == 0:
            raise InvalidDataset("dataset must contain at least one point")
        if w.shape != (len(pts),):
            raise InvalidDataset("weights must match the number of points")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise InvalidDataset("weights must be finite and strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise InvalidDataset(f"weights must sum to 1, got {w.sum()!r}")
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def from_arrays(inputs, targets=None, weights=None) -> "Dataset":
        inputs = [np.asarray(x, dtype=float) for x in inputs]
        n = len(inputs)
        if weights is None:
            weights = np.full(n, 1.0 / n)
        pts = []
        for i, x in enumerate(inputs):
            t = None if targets is None else targets[i]
            pts.append(SamplePoint(x=x, target=t))
        return Dataset(tuple(pts), weights)

    def __len__(self) -> int:
        return len(self.points)

    def function_space(self, out_dim: int) -> WeightedSpace:
        """The weighted space of R^out_dim-valued functions on the atoms."""
        return WeightedSpace(np.repeat(self.weights, out_dim))


@dataclass(frozen=True, eq=False)
class Integrand:
    """A pointwise loss with gradient and optional global constants.

    ``lipschitz`` and ``pl`` are the Lipschitz-gradient and PL constants
    of ``iota(x, .)`` valid for every payload, or None.  ``pointwise_inf``
    maps a payload to ``inf_z iota(x, z)`` (None when unknown);
    ``inf_attained`` records whether that infimum is attained.
    ``pointwise_argmin`` gives the unique pointwise minimizer when one is
    known in closed form.
    """

    out_dim: int
    value_fn: Callable[[SamplePoint, np.ndarray], float]
    grad_fn: Callable[[SamplePoint, np.ndarray], np.ndarray]
    lipschitz: Optional[float] = None
    pl: Optional[float] = None
    pointwise_inf: Optional[Callable[[SamplePoint], float]] = None
    pointwise_argmin: Optional[Callable[[SamplePoint], np.ndarray]] = None
    inf_attained: bool = True
    name: str = ""

    def value(self, point: SamplePoint, z) -> float:
        return float(self.value_fn(point, np.asarray(z, dtype=float)))

    def grad(self, point: SamplePoint, z) -> np.ndarray:
        return np.asarray(self.grad_fn(point, np.asarray(z, dtype=float)), dtype=float)


def fd_check_integrand(
    iota: Integrand, point: SamplePoint, z, h: float = 1e-6
) -> float:
    """Relative mismatch of grad_z against central finite differences."""
    z = np.asarray(z, dtype=float)
    g = iota.grad(point, z)
    fd = np.zeros_like(g)
    for k in range(z.size):
        e = np.zeros_like(z)
        e[k] = h
        fd[k] = (iota.value(point, z + e) - iota.value(point, z - e)) / (2 * h)
    scale = max(float(np.linalg.norm(g)), float(np.linalg.norm(fd)), 1e-8)
    return float(np.linalg.norm(fd - g)) / scale


def least_squares(sigma=None, k: int = 1, normalization: str = "verbatim") -> Integrand:
    """Gaussian fixed-variance fit; plain least squares when sigma is None.

    With a variance vector sigma the loss is
    ``0.5 sum_i ((t_i - z_i)/sigma_i)^2`` plus a constant normalizer:
    ``sqrt(2 pi) prod_i sigma_i`` by default ("verbatim"), or the log-scale
    ``sum_i log sigma_i + k/2 log(2 pi)`` with ``normalization="textbook"``.
    Without sigma it is the bare ``0.5 ||t - z||^2``.  All variants are
    1/sigma^2-quadratic in z, so the Lipschitz and PL constants are the
    extreme inverse variances and the constant shifts nothing but the
    infimum.
    """
    if normalization not in ("verbatim", "textbook"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if sigma is None:
        inv2 = np.ones(k)
        const = 0.0
        name = "least_squares"
    else:
        s = np.asarray(sigma, dtype=float)
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise ValueError("sigma entries must be positive and finite")
        k = s.size
        inv2 = 1.0 / s**2
        if normalization == "verbatim":
            const = SQRT_2PI * float(np.prod(s))
        else:
            const = float(np.sum(np.log(s))) + 0.5 * k * math.log(2.0 * math.pi)
        name = "gaussian_fixed_var"

    def value_fn(p, z):
        r = p.target_array() - z
        return 0.5 * float(np.dot(inv2 * r, r)) + const

    def grad_fn(p, z):
        return inv2 * (z - p.target_array())

    return Integrand(
        out_dim=k,
        value_fn=value_fn,
        grad_fn=grad_fn,
        lipschitz=float(inv2.max()),
        pl=float(inv2.min()),
        pointwise_inf=lambda p: const,
        pointwise_argmin=lambda p: p.target_array().copy(),
        name=name,
    )


def gaussian_nll(k: int = 1, normalization: str = "verbatim") -> Integrand:
    """Gaussian fit with learned log-variance: z = (mean, log-variance).

    The default ("verbatim") normalizer term is the multiplicative
    ``sqrt(2 pi) e^{sum_i z_{k+i}}``:

        iota(x, z) = 0.5 sum_i ((t_i - z_i) / e^{z_{k+i}})^2
                     + sqrt(2 pi) e^{sum_i z_{k+i}}

    ``normalization="textbook"`` swaps in the additive log-scale form
    ``sum_i z_{k+i} + k/2 log(2 pi)`` instead.  Neither variant is
    globally Lipschitz-gradient or PL, and neither attains its infimum
    (the variances can shrink forever), so no constants are attached.
    """
    if normalization not in ("verbatim", "textbook"):
        raise ValueError(f"unknown normalization {normalization!r}")

    def split(z):
        if np.any(np.abs(z[k:]) > EXP_DOMAIN):
            raise NumericFailure("log-variance output beyond exp() domain (|s| > 700)")
        return z[:k], z[k:]

    if normalization == "verbatim":

        def value_fn(p, z):
            mean, logv = split(z)
            r = (p.target_array() - mean) * np.exp(-logv)
            return 0.5 * float(np.dot(r, r)) + SQRT_2PI * float(np.exp(logv.sum()))

        def grad_fn(p, z):
            mean, logv = split(z)
            t = p.target_array()
            g = np.empty(2 * k)
            g[:k] = (mean - t) * np.exp(-2.0 * logv)
            g[k:] = -((t - mean) ** 2) * np.exp(-2.0 * logv) + SQRT_2PI * np.exp(logv.sum())
            return g

    else:

        def value_fn(p, z):
            mean, logv = split(z)
            r = (p.target_array() - mean) * np.exp(-logv)
            return (
                0.5 * float(np.dot(r, r))
                + float(logv.sum())
                + 0.5 * k * math.log(2.0 * math.pi)
            )

        def grad_fn(p, z):
            mean, logv = split(z)
            t = p.target_array()
            g = np.empty(2 * k)
            g[:k] = (mean - t) * np.exp(-2.0 * logv)
            g[k:] = -((t - mean) ** 2) * np.exp(-2.0 * logv) + 1.0
            return g

    return Integrand(out_dim=2 * k, value_fn=value_fn, grad_fn=grad_fn, name="gaussian_nll")


def softmax_ce(k: int) -> Integrand:
    """Softmax cross-entropy over k classes with 1-based integer targets.

    ``iota(x, z) = logsumexp(z) - z_t`` (max-shifted for stability); the
    gradient is ``softmax(z) - onehot(t)``.  The softmax Jacobian has
    operator norm at most 1, giving the safe analytic Lipschitz constant
    1.  The pointwise infimum 0 is approached but never attained.
    """

    def check_target(p):
        t = p.target
        if not isinstance(t, (int, np.integer)) or not (1 <= int(t) <= k):
            raise InvalidDataset(f"classification target must be in 1..{k}, got {t!r}")
        return int(t) - 1

    def value_fn(p, z):
        t = check_target(p)
        m = float(z.max())
        return m + float(np.log(np.exp(z - m).sum())) - float(z[t])

    def grad_fn(p, z):
        t = check_target(p)
        m = float(z.max())
        e = np.exp(z - m)
        g = e / e.sum()
        g[t] -= 1.0
        return g

    return Integrand(
        out_dim=k,
        value_fn=value_fn,
        grad_fn=grad_fn,
        lipschitz=1.0,
        pointwise_inf=lambda p: 0.0,
        inf_attained=False,
        name="softmax_ce",
    )


def kl_diag_gaussian(z_e: np.ndarray) -> float:
    """KL divergence of N(m, diag(s^2)) from N(0, I); z_e = (m, log s)."""
    half = z_e.size // 2
    m, t = z_e[:half], z_e[half:]
    return 0.5 * float(np.sum(m**2 + np.exp(2.0 * t) - 1.0 - 2.0 * t))


def kl_diag_gaussian_grad(z_e: np.ndarray) -> np.ndarray:
    half = z_e.size // 2
    m, t = z_e[:half], z_e[half:]
    return np.concatenate([m, np.exp(2.0 * t) - 1.0])


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

    def value_fn(p, z):
        return ell.value(p, z[enc:]) + beta * kl_diag_gaussian(z[:enc])

    def grad_fn(p, z):
        return np.concatenate(
            [beta * kl_diag_gaussian_grad(z[:enc]), ell.grad(p, z[enc:])]
        )

    inf_fn = None
    if ell.pointwise_inf is not None:
        # KL term attains 0 at (m, log s) = 0, so infima add up
        inf_fn = lambda p: ell.pointwise_inf(p)

    return Integrand(
        out_dim=enc + ell.out_dim,
        value_fn=value_fn,
        grad_fn=grad_fn,
        pointwise_inf=inf_fn,
        inf_attained=ell.inf_attained,
        name=f"vae[{ell.name},beta={beta}]",
    )


def gan_integrand(kind: str, beta: float, k: int) -> Integrand:
    """Gradient-penalized adversarial losses on z = (score y, input-grad w).

    Payloads must carry the mixture densities ``mix_real`` / ``mix_gen``.
    kind "wgan_gp" uses ``y - beta (||w|| - 1)^2`` on real mass and
    ``-y - beta (||w|| - 1)^2`` on generated mass; kind "r1" uses
    ``log(y) - beta ||w||^2`` on real mass (domain y > 0) and
    ``log(1 - y)`` on generated mass (domain y < 1).  No global constants
    exist for either family.
    """
    if kind not in ("wgan_gp", "r1"):
        raise ValueError(f"unknown adversarial integrand kind {kind!r}")
    if beta <= 0:
        raise ValueError("beta must be positive")

    def mixture(p):
        if p.mix_real is None or p.mix_gen is None:
            raise InvalidDataset("adversarial payloads must carry mix_real/mix_gen")
        return float(p.mix_real), float(p.mix_gen)

    if kind == "wgan_gp":

        def value_fn(p, z):
            dr, dg = mixture(p)
            y, w = z[0], z[1:]
            pen = beta * (float(np.linalg.norm(w)) - 1.0) ** 2
            return dr * (y - pen) + dg * (-y - pen)

        def grad_fn(p, z):
            dr, dg = mixture(p)
            w = z[1:]
            nw = float(np.linalg.norm(w))
            g = np.zeros_like(z)
            g[0] = dr - dg
            if nw > 1e-30:
                # cone point of ||w|| at 0: penalty gradient taken as 0 there
                g[1:] = -(dr + dg) * beta * 2.0 * (nw - 1.0) * (w / nw)
            return g

    else:  # r1

        def value_fn(p, z):
            dr, dg = mixture(p)
            y, w = z[0], z[1:]
            total = 0.0
            if dr != 0.0:
                if y <= 0.0:
                    raise NumericFailure("r1 real-side score must satisfy y > 0")
                total += dr * (math.log(y) - beta * float(np.dot(w, w)))
            if dg != 0.0:
                if y >= 1.0:
                    raise NumericFailure("r1 generated-side score must satisfy y < 1")
                total += dg * math.log(1.0 - y)
            return total

        def grad_fn(p, z):
            dr, dg = mixture(p)
            y, w = z[0], z[1:]
            g = np.zeros_like(z)
            if dr != 0.0:
                if y <= 0.0:
                    raise NumericFailure("r1 real-side score must satisfy y > 0")
                g[0] += dr / y
                g[1:] += -dr * beta * 2.0 * w
            if dg != 0.0:
                if y >= 1.0:
                    raise NumericFailure("r1 generated-side score must satisfy y < 1")
                g[0] += -dg / (1.0 - y)
            return g

    return Integrand(
        out_dim=1 + k,
        value_fn=value_fn,
        grad_fn=grad_fn,
        name=f"{kind}[beta={beta}]",
    )


def negate(iota: Integrand) -> Integrand:
    """Flip the sign of an integrand (descend the maximizing player)."""
    return Integrand(
        out_dim=iota.out_dim,
        value_fn=lambda p, z: -iota.value_fn(p, z),
        grad_fn=lambda p, z: -np.asarray(iota.grad_fn(p, z)),
        lipschitz=iota.lipschitz,
        name=f"neg[{iota.name}]",
    )


def integral_functional(iota: Integrand, data: Dataset) -> ScalarObjective:
    """The weighted-sum objective ``f -> sum_i w_i iota(x_i, f_i)``.

    Lives on the function space of the dataset; the gradient in function
    coordinates is the pointwise integrand gradient (the sample masses sit
    in the metric, not in the representer).  Lipschitz and PL constants,
    the infimum (sum of weighted pointwise infima) and the pointwise
    minimizer are inherited from the integrand when available.
    """
    l = iota.out_dim
    space = data.function_space(l)
    w = data.weights
    pts = data.points
    d = len(pts)

    def value_fn(h):
        z = h.reshape(d, l)
        total = 0.0
        for i in range(d):
            v = iota.value_fn(pts[i], z[i])
            if not np.isfinite(v):
                raise NumericFailure(f"non-finite integrand value at sample {i}")
            total += w[i] * v
        return total

    def grad_fn(h):
        z = h.reshape(d, l)
        g = np.empty_like(z)
        for i in range(d):
            gi = np.asarray(iota.grad_fn(pts[i], z[i]), dtype=float)
            if not np.all(np.isfinite(gi)):
                raise NumericFailure(f"non-finite integrand gradient at sample {i}")
            g[i] = gi
        return g.reshape(-1)

    f_star = None
    if iota.pointwise_inf is not None:
        infs = [iota.pointwise_inf(p) for p in pts]
        if all(v is not None for v in infs):
            f_star = float(np.dot(w, np.asarray(infs, dtype=float)))

    minimizer = None
    if iota.pointwise_argmin is not None:
        try:
            minimizer = np.concatenate(
                [np.asarray(iota.pointwise_argmin(p), dtype=float) for p in pts]
            )
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
        f_star_attained=iota.inf_attained,
        name=f"I[{iota.name}]",
    )
