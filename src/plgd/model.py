"""Parametric models, their induced maps on function space, and the
tangent-kernel Gram operator.

A :class:`Model` is ``N(x, theta) in R^l`` with a hand-written parameter
Jacobian (and, where needed downstream, an input Jacobian).  Activations
are everywhere differentiable (tanh); widths and depths are desk scale.
:func:`induce` lifts a model over a weighted dataset to a
:class:`SmoothMap` from parameter space into the function space, whose
Jacobian stacks the per-sample Jacobians and whose adjoint is the
mass-weighted sum of transposed actions.  :func:`ntk_gram` assembles the
Gram operator ``J J*`` on function space in closed form and reports its
spectral range; a positive smallest eigenvalue certifies coercivity at
that parameter point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch
from .integrand import Dataset
from .smoothmap import SmoothMap
from .space import LinOp, WeightedSpace, require_dense, symmetrize


@dataclass(frozen=True, eq=False)
class Model:
    """A parametric map ``N(x, theta) in R^out_dim`` with explicit Jacobians.

    ``jac_fn`` returns the (out_dim, param_dim) parameter Jacobian;
    ``jac_x_fn`` (optional) the (out_dim, in_dim) input Jacobian.  ``init``
    is the seeded initial parameter vector; ``param_shapes`` documents how
    the flat vector splits into arrays.  ``linear_in_params`` marks models
    whose output is exactly linear in theta.
    """

    in_dim: int
    out_dim: int
    param_dim: int
    value_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    init: np.ndarray
    jac_x_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    param_shapes: tuple = ()
    linear_in_params: bool = False
    name: str = ""

    def value(self, x, theta) -> np.ndarray:
        return np.asarray(self.value_fn(np.asarray(x, float), np.asarray(theta, float)), float)

    def jac(self, x, theta) -> np.ndarray:
        return np.asarray(self.jac_fn(np.asarray(x, float), np.asarray(theta, float)), float)

    def jac_x(self, x, theta) -> np.ndarray:
        if self.jac_x_fn is None:
            raise NotImplementedError(f"model {self.name!r} has no input Jacobian")
        return np.asarray(self.jac_x_fn(np.asarray(x, float), np.asarray(theta, float)), float)


def fd_check_model(model: Model, x, theta, h: float = 1e-6) -> float:
    """Relative mismatch of the parameter Jacobian vs central differences."""
    x = np.asarray(x, float)
    theta = np.asarray(theta, float)
    jac = model.jac(x, theta)
    fd = np.empty_like(jac)
    for k in range(model.param_dim):
        e = np.zeros(model.param_dim)
        e[k] = h
        fd[:, k] = (model.value(x, theta + e) - model.value(x, theta - e)) / (2 * h)
    scale = max(float(np.abs(jac).max(initial=0.0)), float(np.abs(fd).max(initial=0.0)), 1e-8)
    return float(np.abs(fd - jac).max()) / scale


def induce(model: Model, data: Dataset) -> SmoothMap:
    """Lift a model over a dataset to a map into the function space.

    The domain is the unit-weight parameter space, the codomain the
    dataset's function space.  For a sample mass w_i the adjoint action is
    ``f -> sum_i w_i J_i^T f_i``, matching the weighted metric on both
    sides (checked by the adjoint-identity tests).
    """
    theta_space = WeightedSpace.unit(model.param_dim)
    fn_space = data.function_space(model.out_dim)
    d, l = len(data), model.out_dim
    w = data.weights

    def value_fn(theta):
        out = np.empty((d, l))
        for i, p in enumerate(data.points):
            out[i] = model.value_fn(p.x, theta)
        return out.reshape(-1)

    def stack_jac(theta):
        js = np.empty((d * l, model.param_dim))
        for i, p in enumerate(data.points):
            js[i * l : (i + 1) * l] = model.jac_fn(p.x, theta)
        return js

    def jac_fn(theta):
        js = stack_jac(theta)
        wrep = np.repeat(w, l)

        def apply_fn(eta, js=js):
            return js @ eta

        def adjoint_fn(f, js=js, wrep=wrep):
            return js.T @ (wrep * f)

        return LinOp(theta_space, fn_space, apply_fn, adjoint_fn)

    linear_op = jac_fn(model.init) if model.linear_in_params else None
    return SmoothMap(
        domain=theta_space,
        codomain=fn_space,
        value_fn=value_fn,
        jac_fn=(lambda _theta, op=linear_op: op) if linear_op is not None else jac_fn,
        linear_op=linear_op,
        name=f"induced[{model.name}]",
    )


def aggregated_jacobian_bound(model: Model, data: Dataset, theta) -> float:
    """Per-sample Jacobian norms aggregated in the weighted L2 metric.

    ``sqrt(sum_i w_i ||J_i||^2)`` upper-bounds the induced map's Jacobian
    norm at theta; aggregating per sample is tighter than a uniform sup
    over the dataset.
    """
    theta = np.asarray(theta, dtype=float)
    per = [np.linalg.norm(model.jac_fn(p.x, theta), 2) for p in data.points]
    return float(np.sqrt(np.dot(data.weights, np.square(per))))


@dataclass(frozen=True, eq=False)
class NTKGram:
    """The Gram operator ``J(theta) J(theta)*`` on function space.

    ``matrix`` is the operator's coordinate representation (block (i, j)
    equals ``J_i J_j^T w_j``); ``symmetrized`` the similarity transform
    ``D^1/2 G_raw D^1/2`` whose eigenvalues are the operator's spectrum.
    ``lambda_min > 0`` certifies coercivity at this parameter point.
    """

    theta: np.ndarray
    matrix: np.ndarray
    symmetrized: np.ndarray
    lambda_min: float
    lambda_max: float


def ntk_gram(model: Model, data: Dataset, theta) -> NTKGram:
    """Assemble the tangent-kernel Gram operator and its spectral range."""
    theta = np.asarray(theta, dtype=float)
    d, l = len(data), model.out_dim
    require_dense(d * l)
    js = np.empty((d * l, model.param_dim))
    for i, p in enumerate(data.points):
        js[i * l : (i + 1) * l] = model.jac_fn(p.x, theta)
    wrep = np.repeat(data.weights, l)
    matrix = (js @ js.T) * wrep[None, :]
    sym = symmetrize(matrix, wrep)
    eigs = np.linalg.eigvalsh(sym)
    return NTKGram(
        theta=theta,
        matrix=matrix,
        symmetrized=sym,
        lambda_min=float(eigs[0]),
        lambda_max=float(eigs[-1]),
    )


# ---------------------------------------------------------------------------
# model zoo


def linear_model(in_dim: int, out_dim: int = 1, feature_map=None, feature_dim=None) -> Model:
    """``N(x, theta) = theta @ phi(x)`` per output row; exactly linear.

    The default feature map is the identity.  Parameters are the (out_dim,
    feature_dim) weight matrix, flattened row-major; the initial point is
    zero.
    """
    if feature_map is None:
        feature_map = lambda x: x
        feature_dim = in_dim
    if feature_dim is None:
        raise ValueError("feature_dim is required with a custom feature_map")
    p = out_dim * feature_dim

    def value_fn(x, theta):
        return theta.reshape(out_dim, feature_dim) @ feature_map(x)

    def jac_fn(x, theta):
        phi = feature_map(x)
        j = np.zeros((out_dim, p))
        for c in range(out_dim):
            j[c, c * feature_dim : (c + 1) * feature_dim] = phi
        return j

    jac_x_fn = None
    if feature_dim == in_dim:
        jac_x_fn = lambda x, theta: theta.reshape(out_dim, feature_dim)

    return Model(
        in_dim=in_dim,
        out_dim=out_dim,
        param_dim=p,
        value_fn=value_fn,
        jac_fn=jac_fn,
        jac_x_fn=jac_x_fn,
        init=np.zeros(p),
        param_shapes=((out_dim, feature_dim),),
        linear_in_params=True,
        name="linear",
    )


def _tanh_features(w_mat, x):
    return np.tanh(w_mat @ x)


def random_features(in_dim: int, width: int, out_dim: int = 1, seed: int = 0) -> Model:
    """Frozen random first layer, trainable linear readout.

    ``N(x, theta) = (1/sqrt(width)) theta @ tanh(W x)`` with W drawn once
    from a standard normal at construction; exactly linear in theta.
    """
    rng = np.random.default_rng(seed)
    w_mat = rng.standard_normal((width, in_dim))
    scale = 1.0 / np.sqrt(width)
    p = out_dim * width

    def value_fn(x, theta):
        return scale * (theta.reshape(out_dim, width) @ _tanh_features(w_mat, x))

    def jac_fn(x, theta):
        tau = _tanh_features(w_mat, x)
        j = np.zeros((out_dim, p))
        for c in range(out_dim):
            j[c, c * width : (c + 1) * width] = scale * tau
        return j

    def jac_x_fn(x, theta):
        tau = _tanh_features(w_mat, x)
        return scale * ((theta.reshape(out_dim, width) * (1.0 - tau**2)[None, :]) @ w_mat)

    init = rng.standard_normal(p)
    return Model(
        in_dim=in_dim,
        out_dim=out_dim,
        param_dim=p,
        value_fn=value_fn,
        jac_fn=jac_fn,
        jac_x_fn=jac_x_fn,
        init=init,
        param_shapes=((out_dim, width),),
        linear_in_params=True,
        name=f"random_features[m={width}]",
    )


def shallow_net(in_dim: int, width: int, out_dim: int = 1, seed: int = 0, scale=None) -> Model:
    """One-hidden-layer tanh network, both layers trainable.

    ``N(x, theta) = scale * a @ tanh(W x)`` with theta = (W, a) flattened
    and scale defaulting to ``1/sqrt(width)`` (standard-normal W and a
    then keep the tangent kernel's range stable as the width grows).
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(width) if scale is None else float(scale)
    n_w = width * in_dim
    p = n_w + out_dim * width

    def split(theta):
        return theta[:n_w].reshape(width, in_dim), theta[n_w:].reshape(out_dim, width)

    def value_fn(x, theta):
        w_mat, a = split(theta)
        return scale * (a @ np.tanh(w_mat @ x))

    def jac_fn(x, theta):
        w_mat, a = split(theta)
        tau = np.tanh(w_mat @ x)
        dtau = 1.0 - tau**2
        j = np.zeros((out_dim, p))
        # d/dW_{j,k} = scale * a_{c,j} * (1 - tau_j^2) * x_k
        for c in range(out_dim):
            j[c, :n_w] = (scale * (a[c] * dtau)[:, None] * x[None, :]).reshape(-1)
            j[c, n_w + c * width : n_w + (c + 1) * width] = scale * tau
        return j

    def jac_x_fn(x, theta):
        w_mat, a = split(theta)
        tau = np.tanh(w_mat @ x)
        return scale * ((a * (1.0 - tau**2)[None, :]) @ w_mat)

    init = rng.standard_normal(p)
    return Model(
        in_dim=in_dim,
        out_dim=out_dim,
        param_dim=p,
        value_fn=value_fn,
        jac_fn=jac_fn,
        jac_x_fn=jac_x_fn,
        init=init,
        param_shapes=((width, in_dim), (out_dim, width)),
        name=f"shallow[m={width}]",
    )


def vae_model(encoder: Model, decoder: Model) -> Model:
    """Encoder/decoder composite through the reparameterized latent.

    Payloads are ``x = (y, w)`` with y the data point and w the noise draw;
    with encoder output ``(m, log s)`` the latent is ``m + e^{log s} * w``
    and the composite output stacks the encoder output and the decoder
    output at that latent.  The Jacobian chains the decoder's input
    Jacobian through the reparameterization into the encoder block.
    """
    if encoder.out_dim % 2 != 0:
        raise DimensionMismatch("encoder output must stack (mean, log std) pairs")
    l_z = encoder.out_dim // 2
    if decoder.in_dim != l_z:
        raise DimensionMismatch(
            f"decoder input dim {decoder.in_dim} must equal latent dim {l_z}"
        )
    if decoder.jac_x_fn is None:
        raise DimensionMismatch("decoder must expose an input Jacobian")
    y_dim = encoder.in_dim
    p_e, p_d = encoder.param_dim, decoder.param_dim
    out_dim = encoder.out_dim + decoder.out_dim

    def split_x(x):
        return x[:y_dim], x[y_dim:]

    def forward(x, theta):
        y, w = split_x(x)
        th_e, th_d = theta[:p_e], theta[p_e:]
        z_e = encoder.value_fn(y, th_e)
        m, log_s = z_e[:l_z], z_e[l_z:]
        xi = m + np.exp(log_s) * w
        return y, w, th_e, th_d, z_e, log_s, xi

    def value_fn(x, theta):
        _, _, _, th_d, z_e, _, xi = forward(x, theta)
        return np.concatenate([z_e, decoder.value_fn(xi, th_d)])

    def jac_fn(x, theta):
        y, w, th_e, th_d, z_e, log_s, xi = forward(x, theta)
        j_e = encoder.jac_fn(y, th_e)                      # (2 l_z, p_e)
        j_d_theta = decoder.jac_fn(xi, th_d)               # (l_d, p_d)
        j_d_in = decoder.jac_x_fn(xi, th_d)                # (l_d, l_z)
        # d xi / d z_e = [I | diag(e^{log s} * w)]
        r = np.concatenate([np.eye(l_z), np.diag(np.exp(log_s) * w)], axis=1)
        j = np.zeros((out_dim, p_e + p_d))
        j[: encoder.out_dim, :p_e] = j_e
        j[encoder.out_dim :, :p_e] = j_d_in @ r @ j_e
        j[encoder.out_dim :, p_e:] = j_d_theta
        return j

    return Model(
        in_dim=y_dim + l_z,
        out_dim=out_dim,
        param_dim=p_e + p_d,
        value_fn=value_fn,
        jac_fn=jac_fn,
        init=np.concatenate([encoder.init, decoder.init]),
        param_shapes=encoder.param_shapes + decoder.param_shapes,
        name=f"vae[{encoder.name}|{decoder.name}]",
    )


def _sigmoid(u: float) -> float:
    if u >= 0:
        return 1.0 / (1.0 + np.exp(-u))
    e = np.exp(u)
    return e / (1.0 + e)


def shallow_disc(in_dim: int, width: int, seed: int = 0, squash: bool = False) -> Model:
    """Scalar tanh critic augmented with its input gradient.

    Output is ``(y, grad_x y)`` in R^{1+in_dim} where y is the critic score
    (sigmoid-squashed into (0, 1) when ``squash``, as density-ratio losses
    require).  The parameter Jacobian includes the mixed second derivative
    of the score, hand-derived for the tanh architecture.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(width)
    n_w = width * in_dim
    p = n_w + width

    def split(theta):
        return theta[:n_w].reshape(width, in_dim), theta[n_w:]

    def raw_parts(x, theta):
        w_mat, a = split(theta)
        tau = np.tanh(w_mat @ x)
        dtau = 1.0 - tau**2
        u = scale * float(a @ tau)
        grad_x = scale * (w_mat.T @ (a * dtau))            # (in_dim,)
        return w_mat, a, tau, dtau, u, grad_x

    def raw_jacobians(x, theta):
        w_mat, a, tau, dtau, u, grad_x = raw_parts(x, theta)
        du = np.empty(p)
        du[:n_w] = (scale * (a * dtau)[:, None] * x[None, :]).reshape(-1)
        du[n_w:] = scale * tau
        # d grad_x[c] / d a_j = scale (1 - tau_j^2) W_{j,c}
        # d grad_x[c] / d W_{j,d} = scale a_j (-2 tau_j dtau_j x_d W_{j,c}
        #                                      + dtau_j delta_{cd})
        dgrad = np.empty((in_dim, p))
        dgrad[:, n_w:] = (dtau[None, :] * w_mat.T) * scale
        block = (
            -2.0 * scale * (a * tau * dtau)[None, :, None] * w_mat.T[:, :, None] * x[None, None, :]
        )  # (in_dim c, width j, in_dim d)
        eye = np.eye(in_dim)
        block += scale * (a * dtau)[None, :, None] * eye[:, None, :]
        dgrad[:, :n_w] = block.reshape(in_dim, n_w)
        return u, grad_x, du, dgrad

    if not squash:

        def value_fn(x, theta):
            *_, u, grad_x = raw_parts(x, theta)
            return np.concatenate([[u], grad_x])

        def jac_fn(x, theta):
            u, grad_x, du, dgrad = raw_jacobians(x, theta)
            return np.concatenate([du[None, :], dgrad], axis=0)

    else:

        def value_fn(x, theta):
            *_, u, grad_x = raw_parts(x, theta)
            s = _sigmoid(u)
            return np.concatenate([[s], s * (1.0 - s) * grad_x])

        def jac_fn(x, theta):
            u, grad_x, du, dgrad = raw_jacobians(x, theta)
            s = _sigmoid(u)
            ds = s * (1.0 - s)
            dds = ds * (1.0 - 2.0 * s)
            top = ds * du
            rest = dds * np.outer(grad_x, du) + ds * dgrad
            return np.concatenate([top[None, :], rest], axis=0)

    init = rng.standard_normal(p)
    return Model(
        in_dim=in_dim,
        out_dim=1 + in_dim,
        param_dim=p,
        value_fn=value_fn,
        jac_fn=jac_fn,
        init=init,
        param_shapes=((width, in_dim), (width,)),
        name=f"shallow_disc[m={width}{',squash' if squash else ''}]",
    )


def linear_disc(in_dim: int) -> Model:
    """Linear critic with its input gradient: ``N(x, theta) = (<x, theta>, theta)``."""
    out = 1 + in_dim

    def value_fn(x, theta):
        return np.concatenate([[float(x @ theta)], theta])

    def jac_fn(x, theta):
        return np.concatenate([x[None, :], np.eye(in_dim)], axis=0)

    return Model(
        in_dim=in_dim,
        out_dim=out,
        param_dim=in_dim,
        value_fn=value_fn,
        jac_fn=jac_fn,
        init=np.zeros(in_dim),
        param_shapes=((in_dim,),),
        linear_in_params=True,
        name="linear_disc",
    )


def save_theta(path, theta, param_shapes=()) -> None:
    """Write a parameter snapshot as a flat array with a shape header."""
    payload = {
        "shapes": [list(s) for s in param_shapes],
        "flat": np.asarray(theta, dtype=float).tolist(),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_theta(path) -> np.ndarray:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return np.asarray(payload["flat"], dtype=float)
