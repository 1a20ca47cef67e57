"""Parametric models, their induced maps on function space, and the
tangent-kernel Gram operator.

A :class:`Model` is ``N(x, theta) in R^l`` evaluated on a whole batch of
inputs at once: ``forward(X, theta)`` maps the (d, in_dim) rows of X to
(d, l) outputs, ``jacobian(X, theta)`` gives the (d, l, p) hand-written
parameter Jacobians, the optional ``jac_x(X, theta)`` the (d, l, in_dim)
input Jacobians and the optional ``forward_vjp(X, theta)`` the outputs
together with a pull-back ``G -> sum_i J_i^T G_i``, the vector-Jacobian
product, without assembling the Jacobians.  Rows never interact.
Activations are everywhere differentiable (tanh); widths and depths are
desk scale.  :func:`induce` lifts a model over a weighted
dataset to a :class:`SmoothMap` from parameter space into the function
space, whose Jacobian is the (d l, p) stack of the per-sample Jacobians
and whose adjoint is the mass-weighted transpose.  :func:`ntk_gram`
reports the spectral range of the Gram operator ``J J*`` on function
space; a positive smallest eigenvalue certifies coercivity at that
parameter point.
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
from .space import LinOp, WeightedSpace, gram_eigvalsh, require_gram


@dataclass(frozen=True, eq=False)
class Model:
    """A parametric map ``N(x, theta) in R^out_dim`` with explicit Jacobians.

    ``forward(X, theta)`` returns the (d, out_dim) outputs of the (d,
    in_dim) input rows X; ``jacobian(X, theta)`` the (d, out_dim,
    param_dim) parameter Jacobians; ``jac_x`` (optional, read by
    :func:`vae_model` from its decoder) the (d, out_dim, in_dim) input
    Jacobians; ``forward_vjp`` (optional) returns the outputs together
    with ``pull``, which maps a (d, out_dim) cotangent block G to the
    (param_dim,) vector ``sum_i J_i^T G_i`` from the forward pass's
    intermediate values, equal to ``einsum("ilp,il->p", jacobian(X,
    theta), G)``, which stays its oracle.  ``stacks_theta`` marks a
    ``forward`` that also takes k parameter vectors concatenated into one
    flat theta and returns their (d, k * out_dim) outputs side by side,
    column block j for the j-th vector, from one matrix product; the
    gradient gate evaluates its perturbed parameters through it a chunk at
    a time.  ``init`` is the seeded initial parameter vector, and the
    read-only ``param_dim`` its size; ``param_shapes`` documents how the
    flat vector splits into arrays.  ``linear_in_params`` marks models
    whose output is exactly linear in theta.
    """

    in_dim: int
    out_dim: int
    forward: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    init: np.ndarray
    jac_x: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    forward_vjp: Optional[
        Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]
    ] = None
    stacks_theta: bool = False
    param_shapes: tuple = ()
    linear_in_params: bool = False
    name: str = ""

    @property
    def param_dim(self) -> int:
        """The parameter count, ``init.size``."""
        return self.init.size


def _stacked_jacobian(model: Model, data: Dataset, theta) -> np.ndarray:
    """The (d l, p) Jacobian of the induced map: per-sample blocks stacked."""
    d, l = len(data), model.out_dim
    return model.jacobian(data.inputs, np.asarray(theta, dtype=float)).reshape(d * l, -1)


def induce(model: Model, data: Dataset) -> SmoothMap:
    """Lift a model over a dataset to a map into the function space.

    The domain is the unit-weight parameter space, the codomain the
    dataset's function space.  For a sample mass w_i the adjoint action is
    ``f -> sum_i w_i J_i^T f_i``, matching the weighted metric on both
    sides (checked by the adjoint-identity tests); the Jacobian operator is
    the stacked (d l, p) matrix, whose weighted adjoint is that action.  The
    map's ``value_and_vjp_fn`` returns the value and the same adjoint
    action: for a model linear in theta, ``forward`` and the constant
    matrix's ``M^T (w f)`` (its adjoint without the exact divide by unit
    domain weights); for a nonlinear model with a ``forward_vjp``, one
    forward pass, without assembling the Jacobian, which still serves the
    gradient gate and the certificates; for any other model (the VAE),
    ``forward`` and the assembled Jacobian's adjoint.  A model that
    ``stacks_theta`` gives the map a ``value_stack_fn``: one ``forward``
    call on the flattened (k, p) stack, its (d, k l) outputs regrouped
    into k rows of the function space.
    """
    if data.inputs.shape[1] != model.in_dim:
        raise DimensionMismatch(
            f"model {model.name!r} takes inputs of width {model.in_dim}, "
            f"the data has width {data.inputs.shape[1]}"
        )
    theta_space = WeightedSpace.unit(model.param_dim)
    fn_space = data.function_space(model.out_dim)
    wrep = fn_space.weights
    d, l = len(data), model.out_dim

    def value_fn(theta):
        return model.forward(data.inputs, theta).reshape(-1)

    def jac_fn(theta):
        return LinOp(theta_space, fn_space, _stacked_jacobian(model, data, theta))

    def value_stack_fn(thetas):
        z = model.forward(data.inputs, thetas.reshape(-1))        # (d, k l)
        return z.reshape(d, len(thetas), -1).transpose(1, 0, 2).reshape(len(thetas), -1)

    linear_op = jac_fn(model.init) if model.linear_in_params else None
    if linear_op is not None:
        mat_t = linear_op.mat.T

        def pull(f):
            return mat_t.dot(wrep * f)

        def value_and_vjp_fn(theta):
            return value_fn(theta), pull

    elif model.forward_vjp is not None:

        def value_and_vjp_fn(theta):
            z, pull = model.forward_vjp(data.inputs, theta)
            return z.reshape(-1), lambda f: pull((wrep * f).reshape(d, l))

    else:

        def value_and_vjp_fn(theta):
            return value_fn(theta), jac_fn(theta).adjoint_apply

    return SmoothMap(
        domain=theta_space,
        codomain=fn_space,
        value_fn=value_fn,
        jac_fn=(lambda _theta, op=linear_op: op) if linear_op is not None else jac_fn,
        linear_op=linear_op,
        value_and_vjp_fn=value_and_vjp_fn,
        value_stack_fn=value_stack_fn if model.stacks_theta else None,
        name=f"induced[{model.name}]",
    )


@dataclass(frozen=True, eq=False)
class NTKGram:
    """The spectral range of the Gram operator ``J(theta) J(theta)*`` on
    function space.

    ``lambda_min > 0`` certifies coercivity at this parameter point.  When
    p < d l, ``J J*`` has a kernel and ``lambda_min`` is exactly 0.0.
    """

    lambda_min: float
    lambda_max: float


def ntk_gram(model: Model, data: Dataset, theta) -> NTKGram:
    """The tangent-kernel Gram's spectral range, from one eigensolve of the
    weighted Gram on the smaller side (:func:`gram_eigvalsh`)."""
    theta = np.asarray(theta, dtype=float)
    p, dl = model.param_dim, len(data) * model.out_dim
    require_gram(p, dl)
    js = _stacked_jacobian(model, data, theta)
    eigs = gram_eigvalsh(js, np.ones(p), np.repeat(data.weights, model.out_dim))
    return NTKGram(
        lambda_min=float(eigs[0]) if p >= dl else 0.0,
        lambda_max=float(eigs[-1]),
    )


# ---------------------------------------------------------------------------
# model zoo


def _readout_jacobian(features: np.ndarray, out_dim: int) -> np.ndarray:
    """Jacobian (d, out_dim, out_dim * m) of ``features @ A.T`` in the row-major
    flattened (out_dim, m) readout A: row c holds the features in block c."""
    d, m = features.shape
    eye = np.eye(out_dim)
    return (eye[None, :, :, None] * features[:, None, None, :]).reshape(d, out_dim, out_dim * m)


def linear_model(in_dim: int, out_dim: int = 1) -> Model:
    """``N(x, theta) = theta @ x`` per output row; exactly linear.

    Parameters are the (out_dim, in_dim) weight matrix, flattened
    row-major; the initial point is zero.
    """
    p = out_dim * in_dim

    def forward(x, theta):
        return x @ theta.reshape(out_dim, in_dim).T

    def jacobian(x, theta):
        return _readout_jacobian(x, out_dim)

    return Model(
        in_dim=in_dim,
        out_dim=out_dim,
        forward=forward,
        jacobian=jacobian,
        init=np.zeros(p),
        param_shapes=((out_dim, in_dim),),
        linear_in_params=True,
        name="linear",
    )


def random_features(in_dim: int, width: int, out_dim: int = 1, seed: int = 0) -> Model:
    """Frozen random first layer, trainable linear readout.

    ``N(x, theta) = (1/sqrt(width)) theta @ tanh(W x)`` with W drawn once
    from a standard normal at construction; exactly linear in theta.  The
    frozen features ``tanh(X W^T)`` of the last input batch are kept and
    reused while the batch is the very array of the last call, read-only
    and owner of its data, as a dataset's inputs are, so a descent over a
    fixed dataset computes them once; any other batch, a writable one or a
    view, recomputes them.  ``forward`` stacks theta: k readouts
    concatenated into one flat theta give their (d, k * out_dim) outputs
    from one product with the features.
    """
    rng = np.random.default_rng(seed)
    w_mat = rng.standard_normal((width, in_dim))
    scale = 1.0 / np.sqrt(width)
    p = out_dim * width
    cached = [(None, None)]  # (the last batch, its read-only features)

    def features(x):
        last, tau = cached[0]
        if x is last and not x.flags.writeable and x.flags.owndata:
            return tau
        tau = np.tanh(x @ w_mat.T)
        tau.setflags(write=False)
        cached[0] = x, tau
        return tau

    def forward(x, theta):
        return scale * features(x).dot(theta.reshape(-1, width).T)

    def jacobian(x, theta):
        return _readout_jacobian(scale * features(x), out_dim)

    init = rng.standard_normal(p)
    return Model(
        in_dim=in_dim,
        out_dim=out_dim,
        forward=forward,
        jacobian=jacobian,
        init=init,
        param_shapes=((out_dim, width),),
        linear_in_params=True,
        stacks_theta=True,
        name=f"random_features[m={width}]",
    )


def shallow_net(in_dim: int, width: int, out_dim: int = 1, seed: int = 0) -> Model:
    """One-hidden-layer tanh network, both layers trainable.

    ``N(x, theta) = (1/sqrt(width)) a @ tanh(W x)`` with theta = (W, a)
    flattened (standard-normal W and a then keep the tangent kernel's range
    stable as the width grows).
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(width)
    n_w = width * in_dim
    p = n_w + out_dim * width

    def split(theta):
        return theta[:n_w].reshape(width, in_dim), theta[n_w:].reshape(out_dim, width)

    def forward_vjp(x, theta):
        w_mat, a = split(theta)
        tau = np.tanh(x.dot(w_mat.T))                           # (d, width)

        def pull(g):
            g_wx = scale * g.dot(a) * (1.0 - tau**2)            # cotangent of W x
            return np.concatenate([g_wx.T.dot(x).reshape(-1), scale * g.T.dot(tau).reshape(-1)])

        return scale * tau.dot(a.T), pull

    def forward(x, theta):
        return forward_vjp(x, theta)[0]

    def jacobian(x, theta):
        w_mat, a = split(theta)
        tau = np.tanh(x @ w_mat.T)                              # (d, width)
        dtau = 1.0 - tau**2
        # d/dW_{j,k} = scale * a_{c,j} * (1 - tau_j^2) * x_k
        j_w = (scale * (a[None] * dtau[:, None, :]))[..., None] * x[:, None, None, :]
        j_a = _readout_jacobian(scale * tau, out_dim)
        return np.concatenate([j_w.reshape(len(x), out_dim, n_w), j_a], axis=2)

    def jac_x(x, theta):
        w_mat, a = split(theta)
        dtau = 1.0 - np.tanh(x @ w_mat.T) ** 2
        return scale * ((a[None] * dtau[:, None, :]) @ w_mat)

    init = rng.standard_normal(p)
    return Model(
        in_dim=in_dim,
        out_dim=out_dim,
        forward=forward,
        jacobian=jacobian,
        jac_x=jac_x,
        forward_vjp=forward_vjp,
        init=init,
        param_shapes=((width, in_dim), (out_dim, width)),
        name=f"shallow[m={width}]",
    )


def vae_model(encoder: Model, decoder: Model) -> Model:
    """Encoder/decoder composite through the reparameterized latent.

    Input rows are ``x = (y, w)`` with y the data point and w the noise
    draw; with encoder output ``(m, log s)`` the latent is
    ``m + e^{log s} * w`` and the composite output stacks the encoder
    output and the decoder output at that latent.  The Jacobian chains the
    decoder's input Jacobian through the reparameterization into the
    encoder block.  Encoder outputs that are not (mean, log std) pairs of
    the decoder's inputs, or a decoder without ``jac_x``, raise
    :class:`DimensionMismatch`.
    """
    if encoder.out_dim % 2 != 0:
        raise DimensionMismatch("encoder output must stack (mean, log std) pairs")
    l_z = encoder.out_dim // 2
    if decoder.in_dim != l_z:
        raise DimensionMismatch(
            f"decoder input dim {decoder.in_dim} must equal latent dim {l_z}"
        )
    if decoder.jac_x is None:
        raise DimensionMismatch("decoder must expose an input Jacobian")
    y_dim = encoder.in_dim
    p_e, p_d = encoder.param_dim, decoder.param_dim
    out_dim = encoder.out_dim + decoder.out_dim

    def latent(x, theta):
        y, w = x[:, :y_dim], x[:, y_dim:]
        th_e, th_d = theta[:p_e], theta[p_e:]
        z_e = encoder.forward(y, th_e)
        spread = np.exp(z_e[:, l_z:]) * w                       # e^{log s} * w
        return y, th_e, th_d, z_e, spread, z_e[:, :l_z] + spread

    def forward(x, theta):
        _, _, th_d, z_e, _, xi = latent(x, theta)
        return np.concatenate([z_e, decoder.forward(xi, th_d)], axis=1)

    def jacobian(x, theta):
        y, th_e, th_d, z_e, spread, xi = latent(x, theta)
        j_e = encoder.jacobian(y, th_e)                         # (d, 2 l_z, p_e)
        # d xi / d z_e = [I | diag(e^{log s} * w)]
        dxi = j_e[:, :l_z] + spread[:, :, None] * j_e[:, l_z:]  # (d, l_z, p_e)
        j = np.zeros((len(x), out_dim, p_e + p_d))
        j[:, : encoder.out_dim, :p_e] = j_e
        j[:, encoder.out_dim :, :p_e] = decoder.jac_x(xi, th_d) @ dxi
        j[:, encoder.out_dim :, p_e:] = decoder.jacobian(xi, th_d)
        return j

    return Model(
        in_dim=y_dim + l_z,
        out_dim=out_dim,
        forward=forward,
        jacobian=jacobian,
        init=np.concatenate([encoder.init, decoder.init]),
        param_shapes=encoder.param_shapes + decoder.param_shapes,
        name=f"vae[{encoder.name}|{decoder.name}]",
    )


def _sigmoid(u: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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

    def raw_parts(x, theta, u=None, grad_x=None):
        """The hidden layer's terms ``(W, a, tau, dtau, a dtau)``, the score
        u (d,) and its input gradient grad_x (d, in_dim), the last two
        written into the arrays ``u`` and ``grad_x`` when given."""
        w_mat, a = split(theta)
        tau = np.tanh(x.dot(w_mat.T))                           # (d, width)
        dtau = 1.0 - tau**2
        a_dtau = a * dtau
        u = np.multiply(scale, tau.dot(a), out=u)
        grad_x = np.multiply(scale, a_dtau.dot(w_mat), out=grad_x)
        return (w_mat, a, tau, dtau, a_dtau), u, grad_x

    def raw_jacobians(x, theta):
        (w_mat, a, tau, dtau, a_dtau), u, grad_x = raw_parts(x, theta)
        d = len(x)
        du = np.empty((d, p))
        du[:, :n_w] = (scale * a_dtau[:, :, None] * x[:, None, :]).reshape(d, n_w)
        du[:, n_w:] = scale * tau
        # d grad_x[c] / d a_j = scale (1 - tau_j^2) W_{j,c}
        # d grad_x[c] / d W_{j,e} = scale a_j (-2 tau_j dtau_j x_e W_{j,c}
        #                                      + dtau_j delta_{ce})
        dgrad = np.empty((d, in_dim, p))
        dgrad[:, :, n_w:] = (dtau[:, None, :] * w_mat.T[None]) * scale
        block = (
            -2.0 * scale * (a * tau * dtau)[:, None, :, None]
            * w_mat.T[None, :, :, None] * x[:, None, None, :]
        )  # (d, in_dim c, width j, in_dim e)
        block += scale * a_dtau[:, None, :, None] * np.eye(in_dim)[None, :, None, :]
        dgrad[:, :, :n_w] = block.reshape(d, in_dim, n_w)
        return u, grad_x, du, dgrad

    def raw_vjp(x, w_mat, a, tau, dtau, a_dtau, g_u, g_x):
        """``sum_i du_i^T g_u_i + dgrad_i^T g_x_i`` from the same derivatives
        as ``raw_jacobians``, contracted over (d, width) blocks and written
        into one (p,) array: the W block, then the a block."""
        p_hid = g_x.dot(w_mat.T)                                # sum_c g_x[c] W_{j,c}
        coef = a_dtau * (g_u[:, None] - 2.0 * tau * p_hid)
        out = np.empty(p)
        # @: at width 1, dot reads the strided g_x by another BLAS route
        grad_w = coef.T.dot(x) + a[:, None] * (dtau.T @ g_x)
        np.multiply(scale, grad_w, out=out[:n_w].reshape(width, in_dim))
        np.multiply(scale, tau.T.dot(g_u) + np.add.reduce(dtau * p_hid, axis=0), out=out[n_w:])
        return out

    if not squash:

        def forward_vjp(x, theta):
            z = np.empty((len(x), 1 + in_dim))
            parts, _, _ = raw_parts(x, theta, z[:, 0], z[:, 1:])
            return z, lambda g: raw_vjp(x, *parts, g[:, 0], g[:, 1:])

        def jacobian(x, theta):
            u, grad_x, du, dgrad = raw_jacobians(x, theta)
            return np.concatenate([du[:, None, :], dgrad], axis=1)

    else:

        def forward_vjp(x, theta):
            parts, u, grad_x = raw_parts(x, theta)
            s = _sigmoid(u)
            ds = s * (1.0 - s)

            def pull(g):
                dds = ds * (1.0 - 2.0 * s)
                # chain sigma' and sigma'' into the raw score and gradient cotangents
                g_u = ds * g[:, 0] + dds * np.einsum("ic,ic->i", g[:, 1:], grad_x)
                return raw_vjp(x, *parts, g_u, ds[:, None] * g[:, 1:])

            z = np.empty((len(x), 1 + in_dim))
            z[:, 0] = s
            np.multiply(ds[:, None], grad_x, out=z[:, 1:])
            return z, pull

        def jacobian(x, theta):
            u, grad_x, du, dgrad = raw_jacobians(x, theta)
            s = _sigmoid(u)
            ds = (s * (1.0 - s))[:, None]
            dds = ds * (1.0 - 2.0 * s[:, None])
            top = ds * du
            rest = dds[:, :, None] * (grad_x[:, :, None] * du[:, None, :]) + ds[:, :, None] * dgrad
            return np.concatenate([top[:, None, :], rest], axis=1)

    def forward(x, theta):
        return forward_vjp(x, theta)[0]

    init = rng.standard_normal(p)
    return Model(
        in_dim=in_dim,
        out_dim=1 + in_dim,
        forward=forward,
        jacobian=jacobian,
        forward_vjp=forward_vjp,
        init=init,
        param_shapes=((width, in_dim), (width,)),
        name=f"shallow_disc[m={width}{',squash' if squash else ''}]",
    )


def linear_disc(in_dim: int) -> Model:
    """Linear critic with its input gradient: ``N(x, theta) = (<x, theta>, theta)``."""
    out = 1 + in_dim

    def forward(x, theta):
        return np.concatenate([(x @ theta)[:, None], np.broadcast_to(theta, x.shape)], axis=1)

    def jacobian(x, theta):
        eye = np.broadcast_to(np.eye(in_dim), (len(x), in_dim, in_dim))
        return np.concatenate([x[:, None, :], eye], axis=1)

    return Model(
        in_dim=in_dim,
        out_dim=out,
        forward=forward,
        jacobian=jacobian,
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
