"""Small differentiable predictors with exact per-sample gradients.

Two model kinds: a bias-free linear model with squared loss, and a tanh MLP
with squared or softmax cross-entropy loss. Parameters live in one flat
vector whose layout ModelSpec fixes once: layer-major, each layer's weight
matrix (C order) followed by its bias, with the slice bounds and shapes in
spec.layout and the length in spec.n_params. The linear model's vector is
just the weight vector (an empty layout, P = d). unflatten reads the layout
into per-layer views, and _flatten, its inverse, is the only code that joins
parameter blocks; the initial weights and the per-sample oracle use it, the
mean gradient and the Hessian products do not. Each kernel unflattens w
once, in _forward, and its backward pass reuses those views.

per_sample_grads and grad_mean are the reference gradients, the oracle the
fast kernels are tested against. per_sample_grads contracts each layer,
forward and backward, with np.einsum in its default non-BLAS evaluation,
so row i of a batched computation is bitwise identical to the same
computation on the singleton batch {z_i}. That keeps the documented
identity exact: grad_mean is the plain arithmetic mean (numpy pairwise
summation over the sample axis) of the rows per_sample_grads gives on
each one-row Dataset.

Every other kernel (forward_batch, losses_batch, grad_mean_xy,
bind_step_kernel, the snapshot pass, hessian_operator) contracts each MLP
layer with a BLAS matmul, several times faster than the einsum and equal to
it to roundoff. The one exception is a backward product through a layer of
one output, an (n, 1) @ (1, width) outer product: _times_weights forms it
with np.einsum, bitwise the matmul and faster. losses_batch and
loss_grad_stats share that forward pass, so the mean loss loss_grad_stats
gives is bitwise the mean of losses_batch.
The forward and backward passes add the bias, apply tanh and form tanh' in
place, in their own (n, width) temporaries and never in the caller's
arrays, because each fresh temporary is paid for in page faults: at the
recorder's 1000-row holdout one is 256 KB, above glibc's mmap threshold.

grad_mean_xy gives only a batch's mean gradient. bind_step_kernel is the
training step, for a stack of R runs of one model and one n: it binds, once
per stack, a copy W of the (R, P) initial weights, its layer views (each
with a leading R axis), the stacked features (R, n, d), each run's checked
targets and one (R, P) gradient buffer with its views. Its gather takes a
block of steps' batch rows for every run with one fancy index, step-major,
so each step's operands are one C-contiguous slice, and its run takes the
whole gathered block in one call: for each step it runs the forward and
the backward pass on that step's slice with stacked matmuls and sets
W <- W - eta * grad, and it writes each row's squared norm after each step
into a block the caller gives, so the caller checks a whole block of steps
at once. A single step is a block of one. The linear model, which has no
layer views, writes a (k + 1, R, P) weight history and runs the block in
chunks of max(1, LINEAR_CHUNK_ROWS // b) steps, each a handful of numpy
calls: the residuals at the chunk's first weights, one unit triangular
solve that turns them into every step's own residuals, the updates, and
one accumulated subtraction into the history; the block's norms are one
product. Numpy runs a stacked matmul as one BLAS call and a stacked solve
as one LAPACK call per run, so row r depends on run r alone whatever the
other rows hold, and one run is the stack R = 1. An MLP step's row r is
bitwise grad_mean_xy's out-of-place step for run r; so is a linear block
of one step and the first step of every chunk (up to the sign of a zero
weight in a batch-1 step), while a chunk's later steps move at roundoff,
within the bound that tests/linear_reference.py derives.

The snapshot pass, _snapshot_pass, is behind the trajectory snapshots: over
a whole dataset it gives the mean loss, the mean gradient, every sample's
squared gradient norm and every sample's finiteness flag; with norms=False
it skips the norms, which the recorder does on the holdout S', whose norms
it never reads. It takes a leading stack axis or none, like the step:
the kernel's snapshot() runs it once on the bound stack (features,
targets, layer views and gradient buffer, with no second (R, n, d) copy),
which optim.train does at every snapshot time for every recorder, and
loss_grad_stats is its unstacked call (a recorder called directly, the
holdout S'), so row r of the stacked pass is bitwise loss_grad_stats on
run r. The pass runs with numpy's overflow and invalid warnings off and
checks nothing, so a non-finite row runs on without touching the others
(a run that diverged in the last interval included, whose row train
drops); checked_stats turns one run's row into
loss_grad_stats' result, or its NumericDomainError naming the first
non-finite sample. The step, grad_mean_xy and the snapshot pass all run
_forward and the one backward pass of _mean_grad, which contract each
layer with a matmul into views of a flat gradient (the bound buffer, or a
fresh one): none forms the (n, P) per-sample matrix, and their gradients
agree with grad_mean to roundoff, not bitwise.

hessian_operator gives exact Hessian-vector products of the mean loss at
one weight vector: it runs the forward and backward pass once, keeping the
output gradients and the tanh'' curvature terms divided by n, and each
product then costs one R-forward and one R-backward pass (Pearlmutter
1994), with no finite-difference step, whose per-layer sums go into views
of one fresh (P,) vector as the mean gradient's do. hessian_vector_product
is a single product through it.
"""

from __future__ import annotations

import functools
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

# Sample rows per chunk of linear steps run as one triangular solve
# (bind_step_kernel): a chunk holds max(1, LINEAR_CHUNK_ROWS // b) steps.
# The stacked R = 3, d = 20, b = 1 step of toy_table, in 100-step blocks
# (numpy 2.4.6, OpenBLAS on one thread of a 2-vCPU x86 host), took
# 4.02 us a step one step at a time, and in chunks of 10, 16, 25, 34, 50
# and 100 steps 2.44, 2.02, 1.68, 1.66, 1.78 and 2.56 us: the per-chunk
# calls shrink a step's share, the O(m^3) solve grows it.
LINEAR_CHUNK_ROWS = 25
_MAX = np.finfo(np.float64).max


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
    """w as a float64 array of the flat shape (P,)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (spec.n_params,):
        raise DimensionMismatchError(
            f"parameter vector shape {w.shape}, expected (P,) with P = {spec.n_params}"
        )
    return w


def unflatten(spec: ModelSpec, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight, bias) views of the flat vector (mlp only)."""
    return _layer_views(spec, _check_params(spec, w))


def _layer_views(spec: ModelSpec, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """unflatten of a float64 (P,) vector or (R, P) stack, unchecked."""
    lead = w.shape[:-1]
    return [(w[..., at:bias_at].reshape(*lead, *shape), w[..., bias_at:end])
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
    tanh then update that fresh product in place. A stack, X (R, n, d) with
    w (R, P) and the bound views of bind_step_kernel (each bias an
    (R, 1, width) view), gives every array a leading R axis; each run's
    values are bitwise those of its own unstacked pass.
    """
    if spec.kind == "linear":
        return np.einsum("...ni,...i->...n", X, w)[..., None], [X], []
    if layers is None:
        layers = unflatten(spec, w)
    hs = [X]
    out = X
    for l, (mat, bias) in enumerate(layers):
        out = np.einsum("ni,oi->no", out, mat) if oracle else out @ mat.mT
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
    _check_samples(np.isfinite(out).all(axis=-1))


def _check_samples(finite: np.ndarray) -> None:
    """NumericDomainError naming the first sample whose finite flag is False."""
    if not finite.all():
        raise NumericDomainError(f"non-finite forward value at sample {int(np.argmin(finite))}")


def _targets(spec: ModelSpec, y: np.ndarray) -> np.ndarray:
    """The labels as the loss reads them: values, or checked class indices."""
    y = np.asarray(y, dtype=np.float64)
    return y if spec.loss == "squared" else _class_indices(spec, y)


def _losses(spec: ModelSpec, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-sample losses of model outputs against _targets t, (..., n)."""
    if spec.loss == "squared":
        resid = out[..., 0] - t
        return 0.5 * resid * resid
    m = np.max(out, axis=-1)
    lse = m + np.log(np.sum(np.exp(out - m[..., None]), axis=-1))
    return lse - np.take_along_axis(out, t[..., None], axis=-1)[..., 0]


def _output_grad(spec: ModelSpec, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Gradient of each sample's loss with respect to its outputs, (..., n, output_dim)."""
    if spec.loss == "squared":
        return out - t[..., None]
    delta = _softmax(out)
    delta[(*np.indices(t.shape, sparse=True), t)] -= 1.0
    return delta


def _softmax(out: np.ndarray) -> np.ndarray:
    e = np.exp(out - np.max(out, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


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

    Once layer l > 0 is done, its input hs[l], a temporary of _forward, is
    overwritten with tanh' = 1 - hs[l]^2 in place, so that no second
    (..., n, width) temporary is allocated; hs[0], the features, is only
    read. Each layer's sums go straight into its views of the flat
    gradient, which is then divided by n in place and returned. out is that
    gradient as (flat (P,) buffer, _layer_views of it), reused across calls
    by the bound step kernel; by default a fresh one is allocated. A stack
    (a leading R axis on every array, out an (R, P) buffer) gives each run
    its own sums.
    """
    grad, views = _grad_buffer(spec) if out is None else out
    n = g.shape[-2]
    if spec.kind == "linear":
        resid, X = g[..., 0], hs[0]
        if sq_norms is not None:
            sq_norms += resid * resid * np.einsum("...ni,...ni->...n", X, X)
        np.matmul(resid[..., None, :], X, out=grad[..., None, :])
        grad /= n
        return grad

    for l in range(len(layers) - 1, -1, -1):
        h_prev = hs[l]
        gw, gb = views[l]
        np.matmul(g.mT, h_prev, out=gw)
        np.add.reduce(g, axis=-2, out=gb)
        if sq_norms is not None:
            sq_norms += (np.einsum("...no,...no->...n", g, g)
                         * (np.einsum("...ni,...ni->...n", h_prev, h_prev) + 1.0))
        if l > 0:
            g = _times_weights(g, layers[l][0])
            np.multiply(h_prev, h_prev, out=h_prev)  # h_prev becomes tanh'
            np.subtract(1.0, h_prev, out=h_prev)
            g *= h_prev
    grad /= n
    return grad


def _times_weights(g: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """g @ mat: output gradients (..., n, out) times a layer weight (..., out, in).

    At out = 1 the product is an outer product, which np.einsum forms
    bitwise as the matmul does (signed zeros included) and faster: 19 us
    against 48 us at (12, 100, 1) x (12, 1, 32), 3.0 us against 4.2 us at
    (100, 1) x (1, 32) (numpy 2.4.6, OpenBLAS on one thread of a 2-vCPU
    x86 host).
    """
    if mat.shape[-2] == 1:
        return np.einsum("...no,...oi->...ni", g, mat)
    return g @ mat


def _grad_buffer(spec: ModelSpec, lead: tuple[int, ...] = ()) -> tuple[np.ndarray, list]:
    """A fresh flat gradient, (*lead, P), and its per-layer views: the out of _mean_grad."""
    grad = np.empty((*lead, spec.n_params))
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


def bind_step_kernel(spec: ModelSpec, W0, data):
    """The in-place SGD steps of a stack of R runs: (W, gather, run, snapshot).

    W0 holds the R runs' initial weights, an (R, P) array or R vectors, and
    data their R datasets, all of one n; run r trains on data[r]. The
    checks, the stacked copy W, its layer views, the stacked features
    (R, n, d), each run's checked targets and one (R, P) gradient buffer
    with its views are bound here, once per stack.

    gather(batches), with batches a (k, R, b) array of row indices (step j
    of run r takes the rows batches[j, r] of data[r]), returns the k steps'
    operands step-major: the features (k, R, b, d) and the targets
    (k, R, b), one fancy index each, so each step's slice is C-contiguous.
    run(xs, ts, rates, sq), with xs and ts such a gathered block and rates
    its (k, R) step sizes, then runs the block's k steps in order: step j
    sets row r of W to w_r - rates[j, r] * grad_mean_xy(spec, w_r, X_B,
    y_B), and writes the row's new squared norm w_r @ w_r into sq[j, r], sq
    being a (k, R, 1, 1) float64 block, so the caller checks a whole block
    at once. A single step is a block of one. The MLP steps are bitwise
    grad_mean_xy's, the linear ones at roundoff (below).

    An MLP step is one stacked forward and backward pass on the bound views
    and buffer, updating W in place, and one (R, 1, P) @ (R, P, 1) norm
    product. The linear model has no views, so its steps write a (k + 1, R,
    P) weight history instead, one per block, in chunks of m = max(1,
    LINEAR_CHUNK_ROWS // b) steps. A chunk starting at weights w_c forms
    the residuals a = X w_c - y of all its steps with the step's forward
    einsum, then solves (I + L) r = a for each step's own residuals
    (_chunk_residuals: L is the strictly-earlier-step part of the chunk's
    Gram matrix, each column scaled by its step's eta / b, and the rows go
    latest step first, so that the matrix is unit upper triangular and
    partial pivoting swaps no row). Each step's update is then formed as a
    single step forms it: at b = 1 the gradient as r * x (the one-term
    matmul bitwise up to the sign of a zero, as a matmul sums from +0.0;
    the division by 1 is skipped), else a matmul divided by b, times the
    rate, each written into its step's row of the history; one
    np.subtract.accumulate over the chunk's rows, in place, then rounds
    w_{t+1} = w_t - u_t exactly as the single steps do. A chunk of one step
    solves nothing, so a block of one step, and the first step of every
    chunk, are bitwise the single step; the residuals of a chunk's later
    steps come from the solve, at roundoff. Only a -0.0 weight tells r * x
    from the matmul: its step may end at +0.0 where grad_mean_xy's keeps
    -0.0. The k * R norms are then one (k, R, 1, P) @ (k, R, P, 1)
    product, the same BLAS dot per row, and the last row is copied back
    into W.

    run neither checks finiteness nor copies W for the caller: a NaN or inf
    gradient shows as non-finite norms of its own row only, and warns as
    numpy does unless the caller silences it; a caller that keeps a row
    past the next block must copy it. A linear step that overflows, at
    any rate or residual, spoils only its chunk's later steps, as in the
    single steps, while the chunk's feature products x_i . x_j are not NaN;
    with features beyond about 1e154, where a product may be inf - inf, a
    step's failure may show at an earlier step of its chunk.

    snapshot() runs _snapshot_pass over every run's whole dataset at the
    current W, on the bound features, targets, layer views and gradient
    buffer: (F (R,), grad (R, P), sq_norms (R, n), finite (R, n)), row r
    bitwise loss_grad_stats(spec, W[r], data[r]) before its check. Its
    gradient rows view the step's buffer, which the next block overwrites.
    """
    data = list(data)
    if not data or len(W0) != len(data):
        raise DimensionMismatchError(f"{len(W0)} weight vectors for {len(data)} datasets")
    if any(d.n != data[0].n for d in data):
        raise DimensionMismatchError(f"stacked datasets differ in n: {[d.n for d in data]}")
    checked = [_check_inputs(spec, w, d.features) for w, d in zip(W0, data)]
    W = np.stack([w for w, _ in checked])
    X = np.stack([x for _, x in checked])
    t = np.stack([_targets(spec, d.labels) for d in data])
    # each bias as an (R, 1, width) view, to broadcast over the stacked batch
    layers = [(mat, bias[:, None, :]) for mat, bias in _layer_views(spec, W)]
    out = _grad_buffer(spec, (len(W),))
    grad = out[0]
    runs = np.arange(len(W))[:, None]
    # (R, 1, P) @ (R, P, 1) is one BLAS dot per run, bitwise w @ w
    w_rows, w_cols = W[:, None, :], W[:, :, None]

    def gather(batches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return X[runs, batches], t[runs, batches]

    def run_mlp(xs: np.ndarray, ts: np.ndarray, rates: np.ndarray, sq: np.ndarray) -> None:
        for x, t_b, rate, sq_j in zip(xs, ts, rates[:, :, None], sq):
            scores, hs, _ = _forward(spec, W, x, layers=layers)
            _mean_grad(spec, layers, hs, _output_grad(spec, scores, t_b), out=out)
            np.multiply(grad, rate, out=grad)
            np.subtract(W, grad, out=W)
            np.matmul(w_rows, w_cols, out=sq_j)

    def run_linear(xs: np.ndarray, ts: np.ndarray, rates: np.ndarray, sq: np.ndarray) -> None:
        k, b = len(xs), xs.shape[2]
        m = max(1, LINEAR_CHUNK_ROWS // b)
        hist = np.empty((k + 1, *W.shape))
        hist[0] = W
        for c in range(0, k, m):
            x, eta = xs[c:c + m], rates[c:c + m]
            chunk = hist[c:c + len(x) + 1]
            u = chunk[1:, :, None, :]  # the chunk's updates, then its weights
            r = np.einsum("...ni,...i->...n", x, chunk[0])
            np.subtract(r, ts[c:c + m], out=r)
            if len(x) > 1:
                _chunk_residuals(x, r, eta)
            if b == 1:
                np.multiply(r[..., None], x, out=u)
            else:
                np.matmul(r[..., None, :], x, out=u)
                np.divide(u, b, out=u)
            np.multiply(u, eta[:, :, None, None], out=u)
            np.subtract.accumulate(chunk, axis=0, out=chunk)
        steps = hist[1:]
        np.matmul(steps[..., None, :], steps[..., :, None], out=sq)
        W[...] = hist[k]

    def snapshot() -> tuple:
        return _snapshot_pass(spec, W, X, t, layers=layers, out=out)

    return W, gather, run_linear if spec.kind == "linear" else run_mlp, snapshot


def _chunk_residuals(x: np.ndarray, r: np.ndarray, rates: np.ndarray) -> None:
    """Turn r, a chunk's (m, R, b) residuals at its first weights, into each step's own.

    x (m, R, b, d) holds the m steps' batches and rates (m, R) their step
    sizes. Step j's own residuals r'_j are r_j - sum over s < j of
    (eta_s / b) X_j X_s' r'_s: one unit triangular system (I + L) r' = r
    per run, L being the strictly-earlier-step part of the chunk's Gram
    matrix X X', each column scaled by its step's eta / b. Its rows go
    latest step first, so the matrix is unit upper triangular: partial
    pivoting finds each pivot on the diagonal and swaps nothing, the solve
    is a back substitution from the first step, and the first step's
    residuals come back unchanged. A step that overflows so spoils only
    the steps after it, while the system holds no NaN: an entry of X X' *
    eta / b that overflows is clamped to the largest float before the mask
    zeroes the entries of later steps (0 * inf is NaN), and so is each
    later step's residual in r, as LU would multiply an inf above the
    diagonal, or in a, by the zero multipliers below it and put NaN in the
    rows of the earlier steps. The first step's residuals, the system's
    last rows, reach only later steps and keep their inf, so the first step
    stays the single step. The result is written back into r in step
    order: a reversed view would send the update's matmul off its BLAS
    path, and so off the single step's sums.
    """
    m, R, b, _ = x.shape
    X = x.transpose(1, 0, 2, 3).reshape(R, m * b, -1)  # a view at b = 1 or R = 1
    G = X @ X.mT
    G4 = G.reshape(R, m * b, m, b)
    np.multiply(G4, (rates.T / b)[:, None, :, None], out=G4)
    np.minimum(G, _MAX, out=G)
    np.maximum(G, -_MAX, out=G)
    G *= _earlier_steps(m, b)
    G.reshape(R, -1)[:, ::m * b + 1] = 1.0
    later = r[1:]
    np.minimum(later, _MAX, out=later)
    np.maximum(later, -_MAX, out=later)
    a = r.transpose(1, 0, 2).reshape(R, m * b, 1)
    solved = np.linalg.solve(G[:, ::-1, ::-1], a[:, ::-1])[:, ::-1]
    r[...] = solved.reshape(R, m, b).transpose(1, 0, 2)


@functools.cache
def _earlier_steps(m: int, b: int) -> np.ndarray:
    """The (m*b, m*b) 0/1 mask of a chunk's row pairs whose column is an earlier step."""
    mask = np.kron(np.tri(m, k=-1), np.ones((b, b)))
    mask.flags.writeable = False
    return mask


def _snapshot_pass(spec: ModelSpec, w: np.ndarray, X: np.ndarray, t: np.ndarray,
                   norms: bool = True, layers: list | None = None,
                   out: tuple | None = None) -> tuple:
    """The snapshot statistics of one run, or of a stack: (F, grad, sq_norms, finite).

    One forward pass over all of X and the backward pass of _mean_grad: the
    mean loss F (the mean over the last axis of _losses, so bitwise the mean
    of losses_batch), the mean gradient, each sample's squared gradient norm
    (None with norms=False, which skips them) and each sample's flag that
    its forward values are finite. A stack (w (R, P), X (R, n, d), t (R, n),
    the bound layers and gradient buffer out of bind_step_kernel) gives each
    a leading R axis and each row bitwise its run's unstacked pass. The
    flags are not checked here: a non-finite row runs on to NaN in its own
    row only, with numpy's overflow and invalid warnings off, and
    _check_samples turns its flags into the unstacked call's error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scores, hs, layers = _forward(spec, w, X, layers=layers)
        sq_norms = np.zeros(X.shape[:-1]) if norms else None
        grad = _mean_grad(spec, layers, hs, _output_grad(spec, scores, t), sq_norms, out)
        return (np.mean(_losses(spec, scores, t), axis=-1), grad, sq_norms,
                np.isfinite(scores).all(axis=-1))


def checked_stats(row: tuple) -> tuple[float, np.ndarray, np.ndarray | None]:
    """(F, grad, sq_norms) of one run's snapshot pass row, checked finite.

    row is (F, grad, sq_norms, finite) of one run: an unstacked pass, or
    row r of a stacked one. A False finite flag raises NumericDomainError
    naming the first such sample, as losses_batch does.
    """
    F, grad, sq_norms, finite = row
    _check_samples(finite)
    return float(F), grad, sq_norms


def loss_grad_stats(spec: ModelSpec, w: np.ndarray, data: Dataset, norms: bool = True
                    ) -> tuple[float, np.ndarray, np.ndarray | None]:
    """(mean loss, mean gradient, per-sample squared gradient norms).

    The unstacked snapshot pass over the dataset, checked by checked_stats:
    the mean loss is computed exactly as losses_batch does, and a
    non-finite forward value raises NumericDomainError. With norms=False
    the backward pass skips the squared norms and None takes their place;
    the loss and the gradient are bitwise those of the full call.
    """
    w, X = _check_inputs(spec, w, data.features)
    return checked_stats(_snapshot_pass(spec, w, X, _targets(spec, data.labels), norms))


def hessian_operator(spec: ModelSpec, w: np.ndarray, data: Dataset):
    """Exact Hessian-vector products of the mean loss at w, as apply(v).

    The forward and backward pass at w run once, here; a non-finite forward
    value raises NumericDomainError. Each apply(v) then runs only
    Pearlmutter's R-forward and R-backward passes, the directional
    derivatives R{.} = d/dr (.)(w + r v) at r = 0 of the forward values and
    the mean gradient. The backward pass keeps each layer's output gradient
    and tanh'' curvature term already divided by n, and the R-backward pass
    divides R{output gradient} by n once, so each layer's sums are the mean's
    and go straight into its views of one fresh (P,) product, as in
    _mean_grad. The linear model's Hessian is X'X/n, so its product is
    X'(Xv)/n.
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
    # The backward pass at w of the mean loss, keeping each layer's output
    # gradient g_l / n and, for tanh'', curv_l = -2 h_l * (g_l W_l) / n.
    gs, curvs = [None] * len(layers), [None] * len(layers)
    g = _output_grad(spec, out, t) / n
    for l in range(last, -1, -1):
        gs[l] = g
        if l > 0:
            gw = _times_weights(g, layers[l][0])
            curvs[l] = -2.0 * hs[l] * gw
            g = gw * dts[l]

    def apply(v):
        dirs = unflatten(spec, v)
        # R-forward: R{z_l} = R{h_l} W_l' + h_l V_l' + c_l, R{h_l+1} = tanh' R{z_l}
        rhs = [None] * len(layers)
        for l, ((mat, _bias), (V, c)) in enumerate(zip(layers, dirs)):
            rz = hs[l] @ V.T
            rz += c
            if l > 0:
                rz += rhs[l] @ mat.T
            if l < last:
                rhs[l + 1] = dts[l + 1] * rz
        # R{output gradient} / n: the loss's Hessian in the outputs times R{z}
        if spec.loss == "squared":
            rg = rz / n
        else:
            rg = probs * (rz - np.sum(probs * rz, axis=1, keepdims=True))
            rg /= n
        # R-backward, the mean-gradient pass of _mean_grad differentiated
        hv, views = _grad_buffer(spec)
        for l in range(last, -1, -1):
            rw, rb = views[l]
            np.matmul(rg.T, hs[l], out=rw)
            np.add.reduce(rg, axis=0, out=rb)
            if l > 0:
                rw += gs[l].T @ rhs[l]
                rg = _times_weights(rg, layers[l][0])
                rg += _times_weights(gs[l], dirs[l][0])
                rg *= dts[l]
                rg += curvs[l] * rhs[l]
        return hv

    return apply


def hessian_vector_product(spec: ModelSpec, w: np.ndarray, data: Dataset,
                           v: np.ndarray) -> np.ndarray:
    """One exact Hessian-vector product: hessian_operator(spec, w, data)(v)."""
    return hessian_operator(spec, w, data)(v)
