"""Small differentiable predictors with exact per-sample gradients.

Two model kinds: a bias-free linear model with squared loss, and a tanh MLP
with squared or softmax cross-entropy loss. Parameters live in one flat
vector whose layout ModelSpec fixes once: layer-major, each layer's weight
matrix (C order) followed by its bias, with the slice bounds and shapes in
spec.layout and the length in spec.n_params. The linear model's vector is
just the weight vector (an empty layout, P = d). unflatten reads the layout
into per-layer views, and _flatten, its inverse, is the only code that joins
parameter blocks; the per-sample oracle and the Hessian products use it, the
mean gradient does not. Each kernel unflattens w once, in _forward, and its
backward pass reuses those views.

per_sample_grads and grad_mean are the reference gradients, the oracle the
fast kernels are tested against. per_sample_grads contracts each layer,
forward and backward, with np.einsum in its default non-BLAS evaluation,
so row i of a batched computation is bitwise identical to the same
computation on the singleton batch {z_i}. That keeps the documented
identity exact: grad_mean is the plain arithmetic mean (numpy pairwise
summation over the sample axis) of the rows per_sample_grads gives on
each one-row Dataset.

Every other kernel (forward_batch, losses_batch, grad_mean_xy,
bind_step_kernel, loss_grad_stats, hessian_operator) contracts each MLP
layer with a BLAS matmul, several times faster than the einsum and equal to
it to roundoff. losses_batch and loss_grad_stats share that forward pass,
so the mean loss loss_grad_stats gives is bitwise the mean of losses_batch.
The forward and backward passes add the bias, apply tanh and form tanh' in
place, in their own (n, width) temporaries and never in the caller's
arrays, because each fresh temporary is paid for in page faults: at the
recorder's 1000-row holdout one is 256 KB, above glibc's mmap threshold.

grad_mean_xy gives only a batch's mean gradient. bind_step_kernel is the
training step: it binds, once per run, a copy w of the initial weights, its
layer views, the data's checked targets and one flat gradient buffer with
its layer views. Each update then runs the forward pass on those views,
writes the batch's mean gradient into the buffer and sets w <- w - eta *
grad in place, bitwise grad_mean_xy's out-of-place step, with no per-step
check, unflatten or concatenation. loss_grad_stats, behind the trajectory
snapshots, also gives the mean loss and every sample's squared gradient
norm; with norms=False it skips the norms, which the recorder does on the
holdout S', whose norms it never reads. All three run one forward pass and
the one backward pass of _mean_grad, which contracts each layer with a
matmul into its views of a flat gradient (the bound buffer, or a fresh one):
none forms the (n, P) per-sample matrix, and their gradients agree with
grad_mean to roundoff, not bitwise.

hessian_operator gives exact Hessian-vector products of the mean loss at
one weight vector: it runs the forward and backward pass once and each
product then costs one R-forward and one R-backward pass (Pearlmutter
1994), with no finite-difference step. hessian_vector_product is a single
product through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NumericDomainError,
)
from .numerics import RngStream


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and loss choice; validated on construction.

    Construction also derives the parameter layout: n_params, the length P
    of the flat vector, and layout, one (weight start, bias start, bias end,
    weight shape) tuple per MLP layer (empty for the linear model).
    """

    kind: str  # "linear" | "mlp"
    input_dim: int
    output_dim: int = 1
    layer_widths: tuple[int, ...] = ()  # mlp only, includes input and output
    activation: str = "tanh"
    loss: str = "squared"  # "squared" | "cross_entropy"

    def __post_init__(self):
        if self.input_dim < 1:
            raise InvalidArgumentError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.kind == "linear":
            if self.output_dim != 1 or self.loss != "squared":
                raise InvalidArgumentError("linear model is squared-loss, single-output")
            object.__setattr__(self, "layer_widths", ())
        elif self.kind == "mlp":
            w = tuple(int(x) for x in self.layer_widths)
            if len(w) < 2 or any(x < 1 for x in w):
                raise InvalidArgumentError(f"mlp needs widths >= 1 from input to output, got {w}")
            if w[0] != self.input_dim or w[-1] != self.output_dim:
                raise InvalidArgumentError(
                    f"mlp widths {w} must start at input_dim={self.input_dim} "
                    f"and end at output_dim={self.output_dim}"
                )
            if self.activation != "tanh":
                raise InvalidArgumentError(f"unsupported activation {self.activation!r}")
            object.__setattr__(self, "layer_widths", w)
        else:
            raise InvalidArgumentError(f"unknown model kind {self.kind!r}")
        if self.loss not in ("squared", "cross_entropy"):
            raise InvalidArgumentError(f"unknown loss {self.loss!r}")
        if self.loss == "squared" and self.output_dim != 1:
            raise InvalidArgumentError("squared loss is wired for a single output")
        if self.loss == "cross_entropy" and self.output_dim < 2:
            raise InvalidArgumentError("cross-entropy needs >= 2 output logits")
        layout, pos = [], 0
        for fan_in, fan_out in zip(self.layer_widths, self.layer_widths[1:]):
            bias_at = pos + fan_out * fan_in
            layout.append((pos, bias_at, bias_at + fan_out, (fan_out, fan_in)))
            pos = bias_at + fan_out
        object.__setattr__(self, "layout", tuple(layout))
        object.__setattr__(self, "n_params", pos if layout else self.input_dim)


def linear_spec(input_dim: int) -> ModelSpec:
    return ModelSpec(kind="linear", input_dim=input_dim)


def mlp_spec(input_dim: int, hidden: tuple[int, ...], output_dim: int = 1,
             loss: str = "squared") -> ModelSpec:
    widths = (input_dim, *hidden, output_dim)
    return ModelSpec(kind="mlp", input_dim=input_dim, output_dim=output_dim,
                     layer_widths=widths, loss=loss)


def param_count(spec: ModelSpec) -> int:
    return spec.n_params


def init_params(spec: ModelSpec, rng: RngStream) -> np.ndarray:
    """Linear starts at zero; mlp layers draw uniform +-1/sqrt(fan_in)."""
    if spec.kind == "linear":
        return np.zeros(spec.n_params)
    gen = rng.generator()
    layers = []
    for *_, (fan_out, fan_in) in spec.layout:
        bound = 1.0 / np.sqrt(fan_in)
        layers.append((gen.uniform(-bound, bound, size=(fan_out, fan_in)),
                       gen.uniform(-bound, bound, size=fan_out)))
    return _flatten(layers)


def _check_params(spec: ModelSpec, w: np.ndarray) -> np.ndarray:
    """w as a float64 array, which must have the flat shape (P,)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (spec.n_params,):
        raise DimensionMismatchError(
            f"parameter vector shape {w.shape}, expected ({spec.n_params},)"
        )
    return w


def unflatten(spec: ModelSpec, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight, bias) views of the flat vector (mlp only)."""
    return _layer_views(spec, _check_params(spec, w))


def _layer_views(spec: ModelSpec, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """unflatten of a vector known to be a float64 (P,) array, unchecked."""
    return [(w[at:bias_at].reshape(shape), w[bias_at:end])
            for at, bias_at, end, shape in spec.layout]


def _flatten(layers) -> np.ndarray:
    """unflatten's inverse: join (weight, bias) blocks in layout order.

    Leading axes are kept, so per-sample blocks of shapes (..., out, in) and
    (..., out) give (..., P) rows.
    """
    lead = layers[0][1].shape[:-1]
    return np.concatenate([part.reshape(*lead, -1) for layer in layers for part in layer],
                          axis=-1)


def _check_inputs(spec: ModelSpec, w: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise DimensionMismatchError(
            f"features shape {X.shape} incompatible with input_dim={spec.input_dim}"
        )
    return _check_params(spec, w), X


def _forward(spec: ModelSpec, w: np.ndarray, X: np.ndarray, oracle: bool = False,
             layers: list | None = None):
    """Batched forward pass: (outputs, input of each layer, layer views).

    The outputs have shape (n, output_dim), hs[l] is layer l's input,
    (n, width_l), and the views are unflatten(spec, w), or the given layers
    when the caller has already bound them; the linear model is one
    bias-free layer whose input is X, with no views. Each MLP layer is a
    matmul, or with oracle the singleton-bitwise einsum; the bias and the
    tanh then update that fresh product in place.
    """
    if spec.kind == "linear":
        return np.einsum("ni,i->n", X, w)[:, None], [X], []
    if layers is None:
        layers = unflatten(spec, w)
    hs = [X]
    out = X
    for l, (mat, bias) in enumerate(layers):
        out = np.einsum("ni,oi->no", out, mat) if oracle else out @ mat.T
        out += bias
        if l < len(layers) - 1:
            np.tanh(out, out=out)
            hs.append(out)
    return out, hs, layers


def forward_batch(spec: ModelSpec, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Model outputs, shape (n, output_dim)."""
    w, X = _check_inputs(spec, w, X)
    return _forward(spec, w, X)[0]


def _class_indices(spec: ModelSpec, y: np.ndarray) -> np.ndarray:
    idx = np.asarray(y)
    rounded = np.rint(idx)
    if not np.all(rounded == idx):
        raise InvalidArgumentError("cross-entropy labels must be integral class indices")
    idx = rounded.astype(np.int64)
    if np.any(idx < 0) or np.any(idx >= spec.output_dim):
        raise InvalidArgumentError(
            f"class labels must lie in [0, {spec.output_dim}), got range "
            f"[{idx.min()}, {idx.max()}]"
        )
    return idx


def losses_batch(spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample losses, shape (n,)."""
    out = forward_batch(spec, w, X)
    _check_finite(out)
    return _losses(spec, out, _targets(spec, y))


def _check_finite(out: np.ndarray) -> None:
    if not np.all(np.isfinite(out)):
        bad = int(np.argwhere(~np.isfinite(out))[0][0])
        raise NumericDomainError(f"non-finite forward value at sample {bad}")


def _targets(spec: ModelSpec, y: np.ndarray) -> np.ndarray:
    """The labels as the loss reads them: values, or checked class indices."""
    y = np.asarray(y, dtype=np.float64)
    return y if spec.loss == "squared" else _class_indices(spec, y)


def _losses(spec: ModelSpec, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-sample losses of finite model outputs against _targets t."""
    if spec.loss == "squared":
        resid = out[:, 0] - t
        return 0.5 * resid * resid
    m = np.max(out, axis=1)
    lse = m + np.log(np.sum(np.exp(out - m[:, None]), axis=1))
    return lse - out[np.arange(out.shape[0]), t]


def _output_grad(spec: ModelSpec, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Gradient of each sample's loss with respect to its outputs, (n, output_dim)."""
    if spec.loss == "squared":
        return out - t[:, None]
    delta = _softmax(out)
    delta[np.arange(out.shape[0]), t] -= 1.0
    return delta


def _softmax(out: np.ndarray) -> np.ndarray:
    e = np.exp(out - np.max(out, axis=1, keepdims=True))
    return e / np.sum(e, axis=1, keepdims=True)


def per_sample_grads(spec: ModelSpec, w: np.ndarray, data: Dataset) -> np.ndarray:
    """Exact gradient of each sample's loss, stacked as an (n, P) matrix."""
    w, X = _check_inputs(spec, w, data.features)
    t = _targets(spec, data.labels)
    out, hs, layers = _forward(spec, w, X, oracle=True)
    _check_finite(out)
    # gradient wrt pre-activation of the current layer, (n, width)
    g = _output_grad(spec, out, t)
    if spec.kind == "linear":
        return g * X
    grads = [None] * len(layers)
    for l in range(len(layers) - 1, -1, -1):
        h_prev = hs[l]
        grads[l] = (np.einsum("no,ni->noi", g, h_prev), g)
        if l > 0:
            g = np.einsum("no,oi->ni", g, layers[l][0]) * (1.0 - h_prev * h_prev)
    return _flatten(grads)


def loss_per_sample(spec: ModelSpec, w: np.ndarray, z: tuple) -> float:
    x, y = z
    return float(losses_batch(spec, w, np.asarray(x, dtype=np.float64)[None, :],
                              np.asarray([y]))[0])


def grad_mean(spec: ModelSpec, w: np.ndarray, data: Dataset) -> tuple[float, np.ndarray]:
    """Mean loss and mean gradient over the dataset: the reference oracle.

    Both reductions are numpy means over the sample axis (pairwise
    summation), so the result is a deterministic function of the inputs;
    the mean gradient is exactly the arithmetic mean of per_sample_grads.
    """
    losses = losses_batch(spec, w, data.features, data.labels)
    return float(np.mean(losses)), np.mean(per_sample_grads(spec, w, data), axis=0)


def _mean_grad(spec: ModelSpec, layers: list, hs: list[np.ndarray], g: np.ndarray,
               sq_norms: np.ndarray | None = None, out: tuple | None = None) -> np.ndarray:
    """Mean gradient by one backward pass from the output gradients g.

    layers and hs are _forward's layer views and layer inputs. Layer l's
    per-sample gradient is (delta_l outer h_{l-1}, delta_l), so its mean is
    (delta_l' h_{l-1} / n, sum delta_l / n), one matmul per layer, and its
    squared norm is ||delta_l||^2 (||h_{l-1}||^2 + 1), which is added to
    sq_norms when given. The linear model is one layer without a bias:
    (r X / n, r_i^2 ||x_i||^2).

    Each layer's sums go straight into its views of the flat gradient, which
    is then divided by n in place and returned. out is that gradient as
    (flat (P,) buffer, _layer_views of it), reused across calls by the bound
    step kernel; by default a fresh one is allocated.
    """
    grad, views = _grad_buffer(spec) if out is None else out
    n = g.shape[0]
    if spec.kind == "linear":
        resid, X = g[:, 0], hs[0]
        if sq_norms is not None:
            sq_norms += resid * resid * np.einsum("ni,ni->n", X, X)
        np.matmul(resid, X, out=grad)
        grad /= n
        return grad

    for l in range(len(layers) - 1, -1, -1):
        h_prev = hs[l]
        gw, gb = views[l]
        np.matmul(g.T, h_prev, out=gw)
        np.add.reduce(g, axis=0, out=gb)
        if sq_norms is not None:
            sq_norms += (np.einsum("no,no->n", g, g)
                         * (np.einsum("ni,ni->n", h_prev, h_prev) + 1.0))
        if l > 0:
            g = g @ layers[l][0]
            dt = h_prev * h_prev
            np.subtract(1.0, dt, out=dt)
            g *= dt
    grad /= n
    return grad


def _grad_buffer(spec: ModelSpec) -> tuple[np.ndarray, list]:
    """A fresh flat gradient and its per-layer views, the out of _mean_grad."""
    grad = np.empty(spec.n_params)
    return grad, _layer_views(spec, grad)


def grad_mean_xy(spec: ModelSpec, w: np.ndarray, X: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Mean gradient over the batch (X, y): the pass of the training step.

    One forward and one matmul backward pass, with no loss, no (b, P)
    matrix and no finiteness check: the step checks the updated weights.
    bind_step_kernel runs the same passes on bound buffers.
    """
    w, X = _check_inputs(spec, w, X)
    out, hs, layers = _forward(spec, w, X)
    return _mean_grad(spec, layers, hs, _output_grad(spec, out, _targets(spec, y)))


def bind_step_kernel(spec: ModelSpec, w0: np.ndarray, data: Dataset):
    """The in-place SGD step on a copy of w0 over batches of data: (w, update).

    The checks, the copy w, its layer views, the data's checked targets and
    one flat gradient buffer are bound here, once per run. update(batch,
    eta) then sets w <- w - eta * grad_mean_xy(spec, w, X_B, y_B) in place,
    bitwise, for the rows batch of data, and returns the new ||w||
    (np.linalg.norm's formula). It neither checks finiteness nor copies w:
    a NaN or inf gradient shows as a non-finite norm, and a caller that keeps
    a weight vector past the next update must copy it.
    """
    w, X = _check_inputs(spec, np.array(w0, dtype=np.float64), data.features)
    t = _targets(spec, data.labels)
    layers = unflatten(spec, w)
    out = _grad_buffer(spec)
    grad = out[0]

    def update(batch: np.ndarray, eta: float) -> float:
        scores, hs, _ = _forward(spec, w, X[batch], layers=layers)
        _mean_grad(spec, layers, hs, _output_grad(spec, scores, t[batch]), out=out)
        np.multiply(grad, eta, out=grad)
        np.subtract(w, grad, out=w)
        return math.sqrt(w @ w)

    return w, update


def loss_grad_stats(spec: ModelSpec, w: np.ndarray, data: Dataset, norms: bool = True
                    ) -> tuple[float, np.ndarray, np.ndarray | None]:
    """(mean loss, mean gradient, per-sample squared gradient norms).

    One forward pass and the backward pass of _mean_grad over the dataset.
    The mean loss is computed exactly as losses_batch does, and a non-finite
    forward value raises NumericDomainError. With norms=False the backward
    pass skips the squared norms and None takes their place; the loss and
    the gradient are bitwise those of the full call.
    """
    w, X = _check_inputs(spec, w, data.features)
    t = _targets(spec, data.labels)
    out, hs, layers = _forward(spec, w, X)
    _check_finite(out)
    sq_norms = np.zeros(X.shape[0]) if norms else None
    grad = _mean_grad(spec, layers, hs, _output_grad(spec, out, t), sq_norms)
    return float(np.mean(_losses(spec, out, t))), grad, sq_norms


def hessian_operator(spec: ModelSpec, w: np.ndarray, data: Dataset):
    """Exact Hessian-vector products of the mean loss at w, as apply(v).

    The forward and backward pass at w run once, here; a non-finite forward
    value raises NumericDomainError. Each apply(v) then runs only
    Pearlmutter's R-forward and R-backward passes, the directional
    derivatives R{.} = d/dr (.)(w + r v) at r = 0 of the forward values and
    the mean gradient. The linear model's Hessian is X'X/n, so its product
    is X'(Xv)/n.
    """
    w, X = _check_inputs(spec, w, data.features)
    t = _targets(spec, data.labels)
    out, hs, layers = _forward(spec, w, X)
    _check_finite(out)
    n = X.shape[0]
    if spec.kind == "linear":
        return lambda v: ((X @ _check_params(spec, v)) @ X) / n

    last = len(layers) - 1
    # tanh' at each hidden activation h_l (hs[0] is the input)
    dts = [None] + [1.0 - h * h for h in hs[1:]]
    if spec.loss == "cross_entropy":
        probs = _softmax(out)
    # The backward pass at w, keeping each layer's output gradient g_l and,
    # for tanh'', curv_l = -2 h_l * (g_l W_l).
    gs, curvs = [None] * len(layers), [None] * len(layers)
    g = _output_grad(spec, out, t)
    for l in range(last, -1, -1):
        gs[l] = g
        if l > 0:
            gw = g @ layers[l][0]
            curvs[l] = -2.0 * hs[l] * gw
            g = gw * dts[l]

    def apply(v):
        dirs = unflatten(spec, v)
        # R-forward: R{z_l} = R{h_l} W_l' + h_l V_l' + c_l, R{h_l+1} = tanh' R{z_l}
        rhs = [None] * len(layers)
        for l, ((mat, _bias), (V, c)) in enumerate(zip(layers, dirs)):
            rz = hs[l] @ V.T + c
            if l > 0:
                rz += rhs[l] @ mat.T
            if l < last:
                rhs[l + 1] = dts[l + 1] * rz
        # R{output gradient}: the loss's Hessian in the outputs times R{z}
        if spec.loss == "squared":
            rg = rz
        else:
            rg = probs * (rz - np.sum(probs * rz, axis=1, keepdims=True))
        # R-backward, the mean-gradient pass of _mean_grad differentiated
        hv = [None] * len(layers)
        for l in range(last, -1, -1):
            rw = rg.T @ hs[l]
            if l > 0:
                rw += gs[l].T @ rhs[l]
            hv[l] = (rw, np.sum(rg, axis=0))
            if l > 0:
                rg = ((rg @ layers[l][0] + gs[l] @ dirs[l][0]) * dts[l]
                      + curvs[l] * rhs[l])
        return _flatten(hv) / n

    return apply


def hessian_vector_product(spec: ModelSpec, w: np.ndarray, data: Dataset,
                           v: np.ndarray) -> np.ndarray:
    """One exact Hessian-vector product: hessian_operator(spec, w, data)(v)."""
    return hessian_operator(spec, w, data)(v)
