"""Model forward/gradient/HVP correctness against independent oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajbound import models, optim
from trajbound.data import Dataset
from trajbound.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NumericDomainError,
)
from trajbound.models import (
    ModelSpec,
    _flatten,
    checked_stats,
    forward_batch,
    grad_mean,
    grad_mean_xy,
    hessian_operator,
    hessian_vector_product,
    init_params,
    linear_spec,
    loss_grad_stats,
    losses_batch,
    mlp_spec,
    per_sample_grads,
    unflatten,
)
from trajbound.numerics import RngStream, central_diff_gradient, power_iteration_top_eig

from linear_reference import assert_within, linear_reference


def random_case(gen, kind):
    n = int(gen.integers(2, 8))
    d = int(gen.integers(1, 5))
    X = gen.standard_normal((n, d))
    if kind == "linear":
        spec = linear_spec(d)
        y = gen.standard_normal(n)
    elif kind == "mlp":
        spec = mlp_spec(d, (int(gen.integers(2, 5)),))
        y = gen.standard_normal(n)
    else:
        spec = mlp_spec(d, (int(gen.integers(2, 5)), int(gen.integers(2, 5))))
        y = gen.standard_normal(n)
    data = Dataset(X, y)
    w = gen.standard_normal(spec.n_params) * 0.5
    return spec, w, data


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        ModelSpec(kind="rbf", input_dim=3)
    with pytest.raises(InvalidArgumentError):
        ModelSpec(kind="linear", input_dim=0)
    with pytest.raises(InvalidArgumentError):
        mlp_spec(3, (0,))  # zero-width hidden layer
    with pytest.raises(InvalidArgumentError):
        ModelSpec(kind="mlp", input_dim=3, layer_widths=(3,))  # no output layer
    # no hidden layer at all is fine: widths collapse to (input, output)
    assert mlp_spec(3, ()).layer_widths == (3, 1)
    with pytest.raises(InvalidArgumentError):
        ModelSpec(kind="mlp", input_dim=3, layer_widths=(4, 2, 1))  # wrong input
    with pytest.raises(InvalidArgumentError, match="end at the one output"):
        ModelSpec(kind="mlp", input_dim=3, layer_widths=(3, 4, 2))  # two outputs


def test_param_count():
    assert linear_spec(7).n_params == 7
    # 3 -> 4 -> 1: (4*3 + 4) + (1*4 + 1)
    assert mlp_spec(3, (4,)).n_params == 21


def test_init_params_linear_is_zero_and_mlp_is_bounded():
    assert np.array_equal(init_params(linear_spec(5), RngStream(0, 0)), np.zeros(5))
    spec = mlp_spec(4, (8,))
    w = init_params(spec, RngStream(1, 0))
    assert w.shape == (spec.n_params,)
    layers = unflatten(spec, w)
    assert np.max(np.abs(layers[0][0])) <= 1.0 / np.sqrt(4)
    assert np.max(np.abs(layers[1][0])) <= 1.0 / np.sqrt(8)
    assert np.array_equal(w, init_params(spec, RngStream(1, 0)))


def test_unflatten_layout_is_layer_major_weight_then_bias():
    spec = mlp_spec(2, (2,))
    w = np.arange(9.0)  # 2x2 weight, 2 bias, 1x2 weight, 1 bias
    layers = unflatten(spec, w)
    assert np.array_equal(layers[0][0], [[0, 1], [2, 3]])
    assert np.array_equal(layers[0][1], [4, 5])
    assert np.array_equal(layers[1][0], [[6, 7]])
    assert np.array_equal(layers[1][1], [8])
    with pytest.raises(DimensionMismatchError):
        unflatten(spec, np.zeros(8))


def test_forward_linear_is_matrix_vector_product():
    spec = linear_spec(3)
    X = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
    w = np.array([2.0, 3.0, 0.5])
    out = forward_batch(spec, w, X)
    assert out.shape == (2, 1)
    assert np.allclose(out[:, 0], X @ w)


def test_forward_mlp_matches_manual_composition():
    spec = mlp_spec(2, (3,))
    gen = np.random.default_rng(5)
    w = gen.standard_normal(spec.n_params)
    X = gen.standard_normal((4, 2))
    (W1, b1), (W2, b2) = unflatten(spec, w)
    manual = np.tanh(X @ W1.T + b1) @ W2.T + b2
    assert np.allclose(forward_batch(spec, w, X), manual, atol=1e-12)


def test_squared_loss_value():
    spec = linear_spec(2)
    X = np.array([[1.0, 0.0]])
    losses = losses_batch(spec, np.array([3.0, 0.0]), X, np.array([1.0]))
    assert losses[0] == pytest.approx(0.5 * 4.0)


def test_forward_overflow_raises_numeric_domain():
    spec = linear_spec(1)
    with pytest.raises(NumericDomainError):
        losses_batch(spec, np.array([1e200]), np.array([[1e200]]), np.array([0.0]))


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_per_sample_grads_match_central_differences(kind):
    gen = np.random.default_rng(hash(kind) % 2 ** 31)
    for _ in range(20):
        spec, w, data = random_case(gen, kind)
        G = per_sample_grads(spec, w, data)
        assert G.shape == (data.n, spec.n_params)
        for i in range(data.n):
            x, y = data.features[i:i + 1], data.labels[i:i + 1]
            fd = central_diff_gradient(lambda v: float(losses_batch(spec, v, x, y)[0]),
                                       w, h=1e-5)
            scale = max(1.0, float(np.linalg.norm(fd)))
            assert np.linalg.norm(G[i] - fd) / scale < 1e-5


def test_grad_mean_is_arithmetic_mean_of_per_sample_grads():
    gen = np.random.default_rng(8)
    spec, w, data = random_case(gen, "mlp")
    F, g = grad_mean(spec, w, data)
    G = per_sample_grads(spec, w, data)
    assert np.array_equal(g, np.mean(G, axis=0))
    assert F == float(np.mean(losses_batch(spec, w, data.features, data.labels)))


def output_grad_and_terms(spec, w, data):
    """Each sample's output-gradient norm, and the norm of the terms it subtracts.

    The output gradient of the squared loss is the difference out - y.
    """
    out = forward_batch(spec, w, data.features)
    minuend, subtrahend = out, data.labels[:, None]
    return (np.linalg.norm(minuend - subtrahend, axis=1),
            np.linalg.norm(np.abs(minuend) + np.abs(subtrahend), axis=1))


def assert_loss_grad_stats_match_the_oracle(spec, w, data):
    F, g, sq_norms = loss_grad_stats(spec, w, data)
    G = per_sample_grads(spec, w, data)
    _, g_ref = grad_mean(spec, w, data)
    sq_ref = np.einsum("np,np->n", G, G)
    assert F == float(np.mean(losses_batch(spec, w, data.features, data.labels)))
    F_only, g_only, no_norms = loss_grad_stats(spec, w, data, norms=False)
    assert no_norms is None
    assert F_only == F and g_only.tobytes() == g.tobytes()
    # the mean gradient's roundoff scales with its summands, the per-sample
    # gradients, not with the (possibly cancelling) mean itself
    assert np.linalg.norm(g - g_ref) <= 1e-12 * math.sqrt(float(np.mean(sq_ref)))
    # a squared norm is quadratic in its sample's output gradient, whose
    # roundoff is a few ulps of its uncancelled terms, not of itself: where
    # those terms cancel, the norm's relative error grows by |terms| / |gradient|
    out_grad, terms = output_grad_and_terms(spec, w, data)
    assert np.all(np.abs(sq_norms - sq_ref) * out_grad
                  <= 1e-12 * sq_ref * (out_grad + terms))


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp2"])
def test_loss_grad_stats_matches_the_per_sample_oracle(kind):
    gen = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(20):
        assert_loss_grad_stats_match_the_oracle(*random_case(gen, kind))


def assert_grad_mean_xy_matches_the_oracle(spec, w, data):
    g = grad_mean_xy(spec, w, data.features, data.labels)
    G = per_sample_grads(spec, w, data)
    _, g_ref = grad_mean(spec, w, data)
    assert g.shape == g_ref.shape
    assert np.linalg.norm(g - g_ref) <= 1e-12 * math.sqrt(
        float(np.mean(np.einsum("np,np->n", G, G))))


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp2"])
def test_grad_mean_xy_matches_the_per_sample_oracle(kind):
    gen = np.random.default_rng(sum(map(ord, kind)) + 1)
    for _ in range(20):
        assert_grad_mean_xy_matches_the_oracle(*random_case(gen, kind))


def test_grad_mean_xy_is_bitwise_the_oracle_at_batch_size_one():
    # toy_table trains the linear model on single samples: the matmul is one
    # exact product there, so its outputs do not move with the kernel
    gen = np.random.default_rng(12)
    for _ in range(20):
        spec, w, data = random_case(gen, "linear")
        for i in range(data.n):
            one = Dataset(data.features[i:i + 1], data.labels[i:i + 1])
            g = grad_mean_xy(spec, w, one.features, one.labels)
            assert np.array_equal(g, grad_mean(spec, w, one)[1])


def random_shape_case(n, d, hidden, seed):
    # with no hidden layer the case is the linear model
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    spec = mlp_spec(d, tuple(hidden)) if hidden else linear_spec(d)
    y = gen.standard_normal(n)
    w = gen.standard_normal(spec.n_params) * 0.5
    return spec, w, Dataset(X, y)


any_shape = given(n=st.integers(1, 40), d=st.integers(1, 5),
                  hidden=st.lists(st.integers(1, 6), max_size=2),
                  seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None)
@any_shape
# the residual 8.27e-5 of sample 0 cancels out = 0.2197..., whose matmul and
# einsum forward values differ by one ulp
@example(n=19, d=3, hidden=[3], seed=4153)
def test_loss_grad_stats_matches_the_oracle_on_any_shape(n, d, hidden, seed):
    assert_loss_grad_stats_match_the_oracle(*random_shape_case(n, d, hidden, seed))


@settings(max_examples=100, deadline=None)
@any_shape
def test_grad_mean_xy_matches_the_oracle_on_any_shape(n, d, hidden, seed):
    assert_grad_mean_xy_matches_the_oracle(*random_shape_case(n, d, hidden, seed))


@settings(max_examples=100, deadline=None)
@any_shape
def test_flatten_inverts_unflatten_on_any_shape(n, d, hidden, seed):
    spec, w, _ = random_shape_case(n, d, hidden, seed)
    widths = spec.layer_widths
    assert spec.n_params == (
        sum(o * i + o for i, o in zip(widths, widths[1:])) if widths else d)
    if spec.kind == "linear":
        assert spec.layout == () and unflatten(spec, w) == []
        return
    layers = unflatten(spec, w)
    assert all(np.shares_memory(part, w) for layer in layers for part in layer)
    assert _flatten(layers).tobytes() == w.tobytes()
    # leading per-sample axes are kept: stacked views flatten to stacked rows
    rows = np.random.default_rng(seed).standard_normal((n, w.size))
    per_row = [unflatten(spec, r) for r in rows]
    stacked = [tuple(np.stack([views[l][k] for views in per_row]) for k in (0, 1))
               for l in range(len(layers))]
    assert _flatten(stacked).tobytes() == rows.tobytes()


def test_the_layout_is_derived_not_a_constructor_field():
    assert [f.name for f in dataclasses.fields(ModelSpec)] == [
        "kind", "input_dim", "layer_widths"]
    spec = mlp_spec(3, (4,))
    assert spec.layout == ((0, 12, 16, (4, 3)), (16, 20, 21, (1, 4)))
    assert dataclasses.replace(spec) == spec
    assert dataclasses.replace(spec).layout == spec.layout
    assert linear_spec(7).layout == () and linear_spec(7).n_params == 7


@pytest.mark.parametrize("kind", ["mlp", "mlp2"])
def test_each_mlp_kernel_unflattens_the_weights_once(kind, monkeypatch):
    spec, w, data = random_case(np.random.default_rng(sum(map(ord, kind))), kind)
    calls = []
    real = models.unflatten

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(models, "unflatten", counted)
    grad_mean_xy(spec, w, data.features, data.labels)
    assert len(calls) == 1
    loss_grad_stats(spec, w, data)
    assert len(calls) == 2
    per_sample_grads(spec, w, data)
    assert len(calls) == 3
    hess = hessian_operator(spec, w, data)
    assert len(calls) == 4 and all(u is w for u in calls)
    v = np.ones(w.size)
    hess(v)  # each product unflattens only its direction
    assert len(calls) == 5 and calls[-1] is v
    # the step kernel takes the views of its own checked copy once, at bind,
    # and never per step
    views = []
    real_views = models._layer_views
    monkeypatch.setattr(models, "_layer_views",
                        lambda spec, w: views.append(w) or real_views(spec, w))
    w_run, gather, run, _ = models.bind_step_kernel(spec, [w], [data])
    assert len(calls) == 5 and sum(u is w_run for u in views) == 1
    bound = len(views)
    for b in (1, data.n, 2):
        kernel_step(gather, run, np.arange(b)[None], np.array([0.1]))
    assert len(calls) == 5 and len(views) == bound


def kernel_step(gather, run, batches, etas):
    """One step of a bound step kernel on the (R, b) batches, a block of one: its (R,) norms."""
    sq = np.empty((1, len(etas), 1, 1))
    run(*gather(np.asarray(batches)[None]), np.asarray(etas)[None], sq)
    return np.sqrt(sq.ravel())


def assert_step_kernel_is_the_out_of_place_step(spec, w, data, seed):
    gen = np.random.default_rng(seed)
    X, y, n = data.features, data.labels, data.n
    w_before = w.copy()
    for b in range(1, n + 1):
        batch = np.sort(gen.choice(n, size=b, replace=False))
        for eta in (0.0, float(gen.uniform(0.01, 1.0))):
            w_run, gather, run, _ = models.bind_step_kernel(spec, [w], [data])
            norm = kernel_step(gather, run, batch[None], np.array([eta]))
            expected = w - eta * grad_mean_xy(spec, w, X[batch], y[batch])
            assert w_run.shape == (1, w.size)
            assert w_run[0].tobytes() == expected.tobytes()
            assert norm.tolist() == [math.sqrt(expected @ expected)]
    assert w.tobytes() == w_before.tobytes()
    # one bound buffer across batch sizes that change from step to step,
    # a short last slice of a permutation among them, leaks nothing between
    # steps
    size = int(gen.integers(1, n + 1))
    perm = gen.permutation(n)
    batches = [np.sort(perm[i:i + size]) for i in range(0, n, size)]
    batches += [np.sort(gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False))
                for _ in range(4)]
    w_run, gather, run, _ = models.bind_step_kernel(spec, [w], [data])
    w_ref = w
    for batch in batches:
        eta = float(gen.uniform(0.0, 0.5))
        norm = kernel_step(gather, run, batch[None], np.array([eta]))
        w_ref = w_ref - eta * grad_mean_xy(spec, w_ref, X[batch], y[batch])
        assert w_run[0].tobytes() == w_ref.tobytes()
        assert norm[0] == math.sqrt(w_ref @ w_ref)
    # a stack of three runs on their own weights, data and rates: each row is
    # bitwise its run's own out-of-place step, whatever the other rows hold
    refs = [w, w[::-1] * 0.5, -w]
    data_r = [data] + [Dataset(X[gen.permutation(n)], y[gen.permutation(n)])
                       for _ in range(2)]
    W_run, gather, run, snapshot = models.bind_step_kernel(spec, np.stack(refs), data_r)
    for b in (1, n, int(gen.integers(1, n + 1))):
        rows = np.stack([np.sort(gen.choice(n, size=b, replace=False)) for _ in refs])
        etas = gen.uniform(0.0, 0.5, size=len(refs))
        norms = kernel_step(gather, run, rows, etas)
        for r, d in enumerate(data_r):
            refs[r] = refs[r] - etas[r] * grad_mean_xy(spec, refs[r], d.features[rows[r]],
                                                       d.labels[rows[r]])
            assert W_run[r].tobytes() == refs[r].tobytes()
            assert norms[r] == math.sqrt(refs[r] @ refs[r])
        # the snapshot pass between steps reads the live weights, and its use
        # of the step's gradient buffer does not leak into the next step
        assert_snapshot_rows_are_loss_grad_stats(spec, snapshot(), refs, data_r)
    assert w.tobytes() == w_before.tobytes()
    # a fresh stack of R = 1 to 4 runs: each snapshot row is bitwise its
    # run's unstacked loss_grad_stats
    for R in range(1, 5):
        ws = [w * gen.uniform(-1.5, 1.5) for _ in range(R)]
        ds = [data] + [Dataset(X[gen.permutation(n)], y[gen.permutation(n)])
                       for _ in range(R - 1)]
        snapshot = models.bind_step_kernel(spec, ws, ds)[3]
        assert_snapshot_rows_are_loss_grad_stats(spec, snapshot(), ws, ds)


def assert_snapshot_rows_are_loss_grad_stats(spec, stats, ws, datasets):
    """Row r of a stacked snapshot pass is bitwise loss_grad_stats on run r."""
    F, g, sq_norms, finite = stats
    R, n = len(ws), datasets[0].n
    assert F.shape == (R,) and g.shape == (R, spec.n_params)
    assert sq_norms.shape == finite.shape == (R, n) and finite.all()
    for r, (w, data) in enumerate(zip(ws, datasets)):
        F_r, g_r, sq_r = checked_stats((F[r], g[r], sq_norms[r], finite[r]))
        F_ref, g_ref, sq_ref = loss_grad_stats(spec, w, data)
        assert np.float64(F_r).tobytes() == np.float64(F_ref).tobytes()
        assert g_r.tobytes() == g_ref.tobytes() and sq_r.tobytes() == sq_ref.tobytes()


@settings(max_examples=100, deadline=None)
@any_shape
def test_step_kernel_is_bitwise_the_out_of_place_step_on_any_shape(n, d, hidden, seed):
    assert_step_kernel_is_the_out_of_place_step(
        *random_shape_case(n, d, hidden, seed), seed)


def test_step_kernel_rejects_a_mismatched_stack():
    spec, w, data = random_case(np.random.default_rng(3), "mlp")
    shorter = Dataset(data.features[:-1], data.labels[:-1])
    for weights, datasets in (([w, w], [data]), ([], []), ([w, w], [data, shorter]),
                              ([w[:-1]], [data])):
        with pytest.raises(DimensionMismatchError):
            models.bind_step_kernel(spec, weights, datasets)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_step_kernel_gathers_an_interval_step_major(kind):
    # gather returns every step's operands of an interval at once, step-major:
    # each step's slice is a C-contiguous (R, b, ...) block holding each run's
    # own rows, and one run call on the block is its k single-step updates:
    # bitwise for an MLP, within the chunk solve's derived tolerance for the
    # linear model
    gen = np.random.default_rng(sum(map(ord, kind)) + 5)
    spec, w, data = random_case(gen, kind)
    n, R, k = data.n, 3, 6
    data_r = [data] + [Dataset(data.features[gen.permutation(n)], data.labels)
                       for _ in range(R - 1)]
    refs = [w, w * 0.5, -w]
    W_run, gather, run, _ = models.bind_step_kernel(spec, refs, data_r)
    b = int(gen.integers(1, n + 1))
    batches = np.stack([[np.sort(gen.choice(n, size=b, replace=False)) for _ in refs]
                        for _ in range(k)])  # (k, R, b)
    xs, ts = gather(batches)
    assert xs.shape == (k, R, b, spec.input_dim) and ts.shape == (k, R, b)
    for j in range(k):
        assert xs[j].flags.c_contiguous and ts[j].flags.c_contiguous
        for r, d in enumerate(data_r):
            assert xs[j, r].tobytes() == d.features[batches[j, r]].tobytes()
    sq = np.empty((k, R, 1, 1))
    etas = gen.uniform(0.0, 0.5, size=(k, R))
    run(xs, ts, etas, sq)
    if kind == "linear":
        assert_within(W_run, np.sqrt(sq.reshape(k, R)),
                      *linear_reference(spec, refs, data_r, batches, etas))
        return
    for j in range(k):
        for r, d in enumerate(data_r):
            rows = batches[j, r]
            refs[r] = refs[r] - etas[j, r] * grad_mean_xy(spec, refs[r], d.features[rows],
                                                          d.labels[rows])
            assert sq[j, r, 0, 0] == refs[r] @ refs[r]
    for r in range(R):
        assert W_run[r].tobytes() == refs[r].tobytes()


def block_case(gen, kind, R, n=9):
    """A stack of R runs of one random model on n-row datasets, for block runs."""
    spec, w, _ = random_case(gen, kind)
    X = gen.standard_normal((R, n, spec.input_dim))
    y = gen.standard_normal((R, n))
    ws = [w * s for s in (1.0, -0.5, 1.5)[:R]]
    return spec, ws, [Dataset(X[r], y[r]) for r in range(R)]


def one_step_blocks(spec, ws, datasets, batches, rates):
    """The k steps as k blocks of one step each: (W, (k, R, 1, 1) squared norms)."""
    W, gather, run, _ = models.bind_step_kernel(spec, ws, datasets)
    sq = np.empty((*rates.shape, 1, 1))
    for j in range(len(rates)):
        run(*gather(batches[j:j + 1]), rates[j:j + 1], sq[j:j + 1])
    return W, sq


def reference_steps(spec, ws, datasets, batches, rates):
    """The out-of-place steps: each run's weights and (k, R) norms."""
    refs, norms = list(ws), np.empty(rates.shape)
    for j, (rows, etas) in enumerate(zip(batches, rates)):
        for r, d in enumerate(datasets):
            refs[r] = refs[r] - etas[r] * grad_mean_xy(spec, refs[r], d.features[rows[r]],
                                                       d.labels[rows[r]])
            norms[j, r] = math.sqrt(refs[r] @ refs[r])
    return refs, norms


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("kind, b", [("linear", 1), ("linear", 3), ("mlp", 2), ("mlp2", 4)])
def test_a_block_run_is_bitwise_its_single_steps(kind, b, R):
    # one run call over a gathered block of k steps leaves the weights and
    # writes the k x R norms of k one-step blocks, bitwise for an MLP, and
    # those of the out-of-place step; a second block starts from where the
    # first ended. A linear block runs in chunks of triangular solves, which
    # move every step after a chunk's first at roundoff: it is held to the
    # derived tolerance of tests/linear_reference.py, and its one-step blocks
    # stay bitwise the out-of-place steps
    gen = np.random.default_rng(sum(map(ord, kind)) + 10 * b + R)
    spec, ws, datasets = block_case(gen, kind, R)
    k, n = 7, datasets[0].n
    batches = np.sort(np.stack([[gen.choice(n, size=b, replace=False) for _ in range(R)]
                                for _ in range(2 * k)]), axis=2)
    rates = gen.uniform(0.0, 0.5, size=(2 * k, R))
    W, gather, run, _ = models.bind_step_kernel(spec, ws, datasets)
    sq = np.empty((2 * k, R, 1, 1))
    for block in (slice(0, k), slice(k, 2 * k)):
        run(*gather(batches[block]), rates[block], sq[block])
    W_one, sq_one = one_step_blocks(spec, ws, datasets, batches, rates)
    refs, norms = reference_steps(spec, ws, datasets, batches, rates)
    assert np.sqrt(sq_one.reshape(2 * k, R)).tobytes() == norms.tobytes()
    assert all(W_one[r].tobytes() == refs[r].tobytes() for r in range(R))
    if kind == "linear":
        assert_within(W, np.sqrt(sq.reshape(2 * k, R)),
                      *linear_reference(spec, ws, datasets, batches, rates, blocks=(0, k)))
        return
    assert W.tobytes() == W_one.tobytes() and sq.tobytes() == sq_one.tobytes()


def test_a_linear_batch_one_step_differs_from_the_matmul_only_in_a_zero_weight_sign():
    # at b = 1 the linear gradient is r * x, which keeps the sign of a zero
    # product where the matmul's sum from +0.0 gives +0.0; a -0.0 weight whose
    # feature is 0 may so end at +0.0 where the out-of-place step keeps -0.0.
    # The six steps are one chunk of the triangular solve: the first is
    # bitwise the out-of-place step, and every norm and weight is within the
    # derived tolerance
    gen = np.random.default_rng(43)
    spec = ModelSpec(kind="linear", input_dim=3)
    X = gen.standard_normal((6, 3))
    X[:, 0] = 0.0
    data = Dataset(X, X[:, 1] + 5.0)  # every residual negative at the start
    w0 = np.array([-0.0, 0.5, -0.5])
    batches = np.arange(6)[:, None, None]
    rates = np.full((6, 1), 0.1)
    W, gather, run, _ = models.bind_step_kernel(spec, [w0], [data])
    sq = np.empty((6, 1, 1, 1))
    run(*gather(batches), rates, sq)
    weights, norms, tol = linear_reference(spec, [w0], [data], batches, rates)
    assert np.sqrt(sq[0, 0, 0, 0]) == norms[0, 0]
    assert_within(W, np.sqrt(sq.reshape(6, 1)), weights, norms, tol)
    ref = weights[6, 0]
    assert W[0][0] == ref[0] == 0.0 and np.signbit(ref[0]) and not np.signbit(W[0][0])


def test_a_diverging_linear_row_overflows_mid_block_at_the_single_steps_places():
    # row 0 crosses PARAM_NORM_CAP at its first step, overflows to inf a few
    # steps later and then runs on to NaN, all inside one block, while rows 1
    # and 2 step normally; the interval runner gives one run call and keeps
    # numpy's warnings in (pytest turns an escaping RuntimeWarning into an
    # error). The first step is bitwise the single steps', row 0's inf and
    # NaN norms fall at their places, and rows 1 and 2 are within the chunk
    # solve's derived tolerance
    gen = np.random.default_rng(41)
    spec, ws, datasets = block_case(gen, "linear", 3)
    k, n = 9, datasets[0].n
    batches = gen.integers(0, n, size=(k, 3, 1))
    rates = gen.uniform(0.0, 0.5, size=(k, 3))
    rates[:, 0] = 1e100
    W, gather, run, _ = models.bind_step_kernel(spec, ws, datasets)
    calls = []
    norms = optim._run_interval(gather, lambda *a: calls.append(1) or run(*a), batches, rates)
    assert len(calls) == 1
    with np.errstate(over="ignore", invalid="ignore"):
        W_one, sq_one = one_step_blocks(spec, ws, datasets, batches, rates)
        refs, ref_norms = reference_steps(spec, ws, datasets, batches, rates)
    assert np.sqrt(sq_one.reshape(k, 3)).tobytes() == ref_norms.tobytes()
    assert norms[0].tobytes() == ref_norms[0].tobytes()
    assert np.array_equal(np.isinf(norms), np.isinf(ref_norms))
    assert np.array_equal(np.isnan(norms), np.isnan(ref_norms))
    assert np.isnan(W[0]).all() and np.isnan(refs[0]).all()
    assert_within(W[1:], norms[:, 1:],
                  *linear_reference(spec, ws[1:], datasets[1:], batches[:, 1:], rates[:, 1:]))
    row = norms[:, 0]
    assert optim.PARAM_NORM_CAP < row[0] < math.inf
    inf_at, nan_at = np.flatnonzero(np.isinf(row)), np.flatnonzero(np.isnan(row))
    assert 0 < inf_at[0] < nan_at[0] < k - 1 and (nan_at == np.arange(nan_at[0], k)).all()
    assert np.isfinite(norms[:, 1:]).all()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30), d=st.integers(1, 5), b_frac=st.floats(0.0, 1.0),
       k=st.integers(1, 60), R=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_a_linear_block_is_within_the_chunk_roundoff_of_its_single_steps(n, d, b_frac, k,
                                                                         R, seed):
    # any n, d, b, k and stack, run as two blocks: rates of 0 and up to three
    # times the inverse mean squared feature norm, where a step expands its
    # weights, still leave every norm and final weight within the tolerance
    # derived in tests/linear_reference.py of the out-of-place steps, and the
    # block's first step is bitwise that step
    gen = np.random.default_rng(seed)
    b = 1 + int(b_frac * (n - 1))
    spec = linear_spec(d)
    datasets = [Dataset(gen.standard_normal((n, d)), gen.standard_normal(n)) for _ in range(R)]
    ws = gen.standard_normal((R, d))
    batches = np.sort(np.stack([[gen.choice(n, size=b, replace=False) for _ in range(R)]
                                for _ in range(k)]), axis=2)
    scale = [np.mean(np.sum(data.features ** 2, axis=1)) for data in datasets]
    rates = gen.uniform(0.0, 3.0, size=(k, R)) / scale
    rates[gen.random((k, R)) < 0.2] = 0.0
    split = int(gen.integers(0, k + 1))
    W, gather, run, _ = models.bind_step_kernel(spec, ws, datasets)
    sq = np.empty((k, R, 1, 1))
    for block in (slice(0, split), slice(split, k)):
        if block.start < block.stop:
            run(*gather(batches[block]), rates[block], sq[block])
    weights, norms, tol = linear_reference(spec, ws, datasets, batches, rates,
                                           blocks=(0, split))
    assert np.sqrt(sq[0].ravel()).tobytes() == norms[0].tobytes()
    assert_within(W, np.sqrt(sq.reshape(k, R)), weights, norms, tol)


def test_the_linear_chunk_solve_swaps_no_rows_where_a_pivoting_one_loses_accuracy():
    # 25 steps, one chunk, on 4 rows of 2 features at 2.9 / mean ||x||^2, where
    # each step can expand the weights. The chunk's system (I + L) r = a has
    # subdiagonal entries above 1 in magnitude: solved in step order, with L
    # lower triangular, partial pivoting swaps rows and the weights lose about
    # 1e-9 relative, some 10^4 times the derived tolerance. Latest step first
    # the matrix is unit upper triangular, no row is swapped, and the kernel
    # stays within the tolerance
    gen = np.random.default_rng(1297)
    X, y, w0 = gen.standard_normal((4, 2)), gen.standard_normal(4), gen.standard_normal(2)
    k = 25
    batches = gen.integers(0, 4, size=(k, 1, 1))
    rates = np.full((k, 1), 2.9 / np.mean(np.sum(X ** 2, axis=1)))
    spec, data = linear_spec(2), Dataset(X, y)
    W, gather, run, _ = models.bind_step_kernel(spec, [w0], [data])
    sq = np.empty((k, 1, 1, 1))
    run(*gather(batches), rates, sq)
    weights, norms, tol = linear_reference(spec, [w0], [data], batches, rates)
    assert_within(W, np.sqrt(sq.reshape(k, 1)), weights, norms, tol)
    # the same chunk solved in step order
    xs = X[batches[:, 0, 0]]
    r = np.linalg.solve(np.eye(k) + np.tril(xs @ xs.T, -1) * rates[:, 0],
                        xs @ w0 - y[batches[:, 0, 0]])
    pivoted = w0 - np.cumsum(r[:, None] * xs * rates, axis=0)
    off = np.linalg.norm(pivoted - weights[1:, 0], axis=1)
    assert (off / norms[:, 0]).max() > 1e-10 and (off / tol[:, 0]).max() > 1e3


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("huge, scale", [(1e100, 1.0), (1e200, 1.0), (1e300, 1.0),
                                         (1e300, 1e5)])
def test_a_huge_linear_rate_fails_at_the_single_steps_place(huge, scale, b):
    # row 1's rate jumps to huge mid-chunk, at step 7 of a 30-step interval:
    # the chunk solve raises no LinAlgError and lets no RuntimeWarning out of
    # the interval runner; row 1 first fails the norm guard where the
    # single steps do, its earlier norms within the derived tolerance, and
    # rows 0 and 2 step on within it. With features of norm about 1e5 the
    # huge rate's entries of the chunk's system overflow to inf
    gen = np.random.default_rng(int(math.log10(huge)) + b)
    spec, ws, datasets = block_case(gen, "linear", 3)
    datasets = [Dataset(d.features * scale, d.labels) for d in datasets]
    ws = [w / scale for w in ws]
    k, n = 30, datasets[0].n
    batches = np.sort(np.stack([[gen.choice(n, size=b, replace=False) for _ in range(3)]
                                for _ in range(k)]), axis=2)
    rates = gen.uniform(0.0, 0.5, size=(k, 3)) / scale ** 2
    rates[7:, 1] = huge
    W, gather, run, _ = models.bind_step_kernel(spec, ws, datasets)
    norms = optim._run_interval(gather, run, batches, rates)
    with np.errstate(over="ignore", invalid="ignore"):
        _, ref_norms = reference_steps(spec, ws, datasets, batches, rates)
    failed, ref_failed = ~(norms <= optim.PARAM_NORM_CAP), ~(ref_norms <= optim.PARAM_NORM_CAP)
    assert np.argmax(failed[:, 1]) == np.argmax(ref_failed[:, 1]) == 7
    rows = [0, 2]
    _, before, tol = linear_reference(spec, ws[1:2], datasets[1:2], batches[:7, 1:2],
                                      rates[:7, 1:2])
    assert np.all(np.abs(norms[:7, 1] - before[:, 0]) <= tol[:, 0])
    assert_within(W[rows], norms[:, rows],
                  *linear_reference(spec, [ws[r] for r in rows], [datasets[r] for r in rows],
                                    batches[:, rows], rates[:, rows]))


def test_linear_feature_products_that_overflow_fail_at_the_single_steps_place():
    # samples 5 and 7 hold features near 1e160, so their products overflow
    # to inf in the chunk's Gram matrix, inside and outside its earlier-step
    # part: the single steps first fail at step 5, and so does the chunk
    gen = np.random.default_rng(47)
    X = gen.standard_normal((9, 2))
    X[5] = X[7] = [1e160, 1e160]
    spec, data = linear_spec(2), Dataset(X, gen.standard_normal(9))
    batches = (np.arange(12) % 9)[:, None, None]
    rates = np.full((12, 1), 0.1)
    W, gather, run, _ = models.bind_step_kernel(spec, [np.array([0.1, 0.2])], [data])
    norms = optim._run_interval(gather, run, batches, rates)
    with np.errstate(over="ignore", invalid="ignore"):
        _, ref_norms = reference_steps(spec, [np.array([0.1, 0.2])], [data], batches, rates)
    assert np.argmax(~(norms[:, 0] <= optim.PARAM_NORM_CAP)) == 5
    assert np.argmax(~(ref_norms[:, 0] <= optim.PARAM_NORM_CAP)) == 5
    _, before, tol = linear_reference(spec, [np.array([0.1, 0.2])], [data], batches[:5],
                                      rates[:5])
    assert np.all(np.abs(norms[:5] - before) <= tol)


@pytest.mark.parametrize("at", [0, 1, 5, 9])
def test_a_linear_residual_that_overflows_fails_at_the_single_steps_place(at):
    # sample `at` holds a feature of 1e300 against a weight of 1e9, so its
    # residual at the chunk's first weights overflows to inf; the ten steps
    # are one chunk. The solve's residuals are clamped to the largest float,
    # so the inf spoils no earlier step: the single steps first fail at step
    # `at`, and so does the chunk, its earlier norms within the tolerance
    gen = np.random.default_rng(5)
    X = gen.standard_normal((10, 3))
    X[at] = [1e300, 0.0, 0.0]
    spec, data = linear_spec(3), Dataset(X, gen.standard_normal(10))
    w0 = np.array([1e9, 1.0, 1.0])
    batches = np.arange(10)[:, None, None]
    rates = np.full((10, 1), 1e-3)
    W, gather, run, _ = models.bind_step_kernel(spec, [w0], [data])
    norms = optim._run_interval(gather, run, batches, rates)
    with np.errstate(over="ignore", invalid="ignore"):
        _, ref_norms = reference_steps(spec, [w0], [data], batches, rates)
    assert np.argmax(~(ref_norms[:, 0] <= optim.PARAM_NORM_CAP)) == at
    assert np.argmax(~(norms[:, 0] <= optim.PARAM_NORM_CAP)) == at
    _, before, tol = linear_reference(spec, [w0], [data], batches[:at], rates[:at])
    assert np.all(np.abs(norms[:at] - before) <= tol)


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp2"])
def test_step_kernel_is_bitwise_the_out_of_place_step(kind):
    gen = np.random.default_rng(sum(map(ord, kind)) + 2)
    for k in range(20):
        assert_step_kernel_is_the_out_of_place_step(*random_case(gen, kind), k)


@settings(max_examples=100, deadline=None)
@any_shape
def test_kernels_never_write_into_their_inputs(n, d, hidden, seed):
    # the MLP forward and backward passes update their temporaries in place;
    # none of them may be the caller's weights, direction or data. A stray
    # write into a Dataset's read-only arrays raises; the (X, y) kernels get
    # writable copies, where it would not.
    spec, w, data = random_shape_case(n, d, hidden, seed)
    X, y = data.features.copy(), data.labels.copy()
    vs = np.random.default_rng(seed + 1).standard_normal((3, w.size))
    inputs = (w, vs, X, y)
    before = [a.copy() for a in inputs]
    out = forward_batch(spec, w, X)
    losses_batch(spec, w, X, y)
    grad_mean_xy(spec, w, X, y)
    loss_grad_stats(spec, w, data)
    loss_grad_stats(spec, w, data, norms=False)
    per_sample_grads(spec, w, data)
    hess = hessian_operator(spec, w, data)
    for v in vs:
        hess(v)
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()
    # the fast kernels' matmul forward agrees with the oracle's einsum
    oracle = models._forward(spec, w, X, oracle=True)[0]
    assert np.allclose(out, oracle, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("spec", [linear_spec(2), mlp_spec(2, (2,))])
def test_loss_grad_stats_rejects_a_non_finite_forward_pass(spec):
    w = np.full(spec.n_params, 1e308)
    # the MLP's matmul overflows to inf, which numpy reports as a warning
    with np.errstate(over="ignore"), pytest.raises(NumericDomainError):
        loss_grad_stats(spec, w, Dataset(np.ones((3, 2)), np.zeros(3)))


@pytest.mark.parametrize("spec", [linear_spec(2), mlp_spec(2, (2,))])
def test_per_sample_grads_rejects_a_non_finite_forward_pass(spec):
    w = np.full(spec.n_params, 1e308)
    with np.errstate(over="ignore"), pytest.raises(NumericDomainError):
        per_sample_grads(spec, w, Dataset(np.ones((3, 2)), np.zeros(3)))


def test_singleton_batch_row_is_bitwise_identical():
    # the documented identity behind the trace computation: row i of the
    # batched gradient equals the gradient of the singleton batch {z_i}
    gen = np.random.default_rng(9)
    for kind in ("linear", "mlp", "mlp2"):
        spec, w, data = random_case(gen, kind)
        G = per_sample_grads(spec, w, data)
        for i in range(data.n):
            one = Dataset(data.features[i:i + 1], data.labels[i:i + 1])
            assert np.array_equal(G[i], per_sample_grads(spec, w, one)[0])


def dense_fd_hessian(spec, w, data, h=1e-5):
    # column j is the central difference of the oracle mean gradient along e_j
    P = w.size
    dense = np.empty((P, P))
    for j in range(P):
        e = np.zeros(P)
        e[j] = h
        dense[:, j] = (grad_mean(spec, w + e, data)[1] - grad_mean(spec, w - e, data)[1]) / (2 * h)
    return dense


def test_hvp_linear_is_exact_covariance_product():
    gen = np.random.default_rng(10)
    X = gen.standard_normal((6, 4))
    data = Dataset(X, gen.standard_normal(6))
    spec = linear_spec(4)
    w = gen.standard_normal(4)
    H = (X.T @ X) / 6
    for _ in range(5):
        v = gen.standard_normal(4)
        assert np.allclose(hessian_vector_product(spec, w, data, v), H @ v,
                           atol=1e-9)


def test_hvp_symmetry_linear():
    gen = np.random.default_rng(11)
    X = gen.standard_normal((5, 3))
    data = Dataset(X, gen.standard_normal(5))
    spec = linear_spec(3)
    w = gen.standard_normal(3)
    u = gen.standard_normal(3)
    v = gen.standard_normal(3)
    lhs = float(u @ hessian_vector_product(spec, w, data, v))
    rhs = float(v @ hessian_vector_product(spec, w, data, u))
    assert abs(lhs - rhs) < 1e-6


def test_hvp_mlp_matches_dense_fd_hessian():
    gen = np.random.default_rng(12)
    spec = mlp_spec(2, (3,))
    data = Dataset(gen.standard_normal((5, 2)), gen.standard_normal(5))
    w = gen.standard_normal(spec.n_params) * 0.3
    dense = dense_fd_hessian(spec, w, data, h=1e-4)
    v = gen.standard_normal(w.size)
    hv = hessian_vector_product(spec, w, data, v)
    assert np.linalg.norm(hv - dense @ v) < 1e-4 * max(1.0, np.linalg.norm(dense @ v))


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp2"])
def test_hessian_operator_matches_a_dense_fd_hessian(kind):
    gen = np.random.default_rng(sum(map(ord, kind)) + 2)
    for _ in range(20):
        spec, w, data = random_case(gen, kind)
        hess = hessian_operator(spec, w, data)
        exact = np.stack([hess(e) for e in np.eye(w.size)], axis=1)
        dense = dense_fd_hessian(spec, w, data)
        # the differences carry O(h^2) truncation and O(eps / h) roundoff
        assert np.max(np.abs(exact - dense)) <= 1e-8 * max(1.0, np.max(np.abs(dense)))


@settings(max_examples=100, deadline=None)
@any_shape
def test_hessian_operator_matches_a_directional_difference_on_any_shape(
        n, d, hidden, seed):
    spec, w, data = random_shape_case(n, d, hidden, seed)
    v = np.random.default_rng(seed + 1).standard_normal(w.size)
    v /= np.linalg.norm(v)
    h = 1e-5
    fd = (grad_mean(spec, w + h * v, data)[1] - grad_mean(spec, w - h * v, data)[1]) / (2 * h)
    hv = hessian_operator(spec, w, data)(v)
    assert np.linalg.norm(hv - fd) <= 1e-7 * max(1.0, float(np.linalg.norm(hv)))


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp2"])
def test_hessian_operator_is_symmetric(kind):
    gen = np.random.default_rng(sum(map(ord, kind)) + 3)
    for _ in range(20):
        spec, w, data = random_case(gen, kind)
        hess = hessian_operator(spec, w, data)
        u, v = gen.standard_normal((2, w.size))
        hu, hv = hess(u), hess(v)
        scale = np.linalg.norm(u) * np.linalg.norm(hv) + np.linalg.norm(v) * np.linalg.norm(hu)
        assert abs(float(u @ hv) - float(v @ hu)) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp2"])
def test_hvp_is_bitwise_one_apply_of_the_operator(kind):
    gen = np.random.default_rng(sum(map(ord, kind)) + 4)
    spec, w, data = random_case(gen, kind)
    v = gen.standard_normal(w.size)
    assert np.array_equal(hessian_vector_product(spec, w, data, v),
                          hessian_operator(spec, w, data)(v))


def test_hvp_rejects_a_misshapen_direction():
    # the product is linear in the direction, so zero maps to zero
    spec = linear_spec(2)
    data = Dataset(np.ones((2, 2)), np.zeros(2))
    assert np.array_equal(hessian_vector_product(spec, np.zeros(2), data, np.zeros(2)),
                          np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        hessian_vector_product(spec, np.zeros(2), data, np.zeros(3))


@pytest.mark.parametrize("spec", [linear_spec(2), mlp_spec(2, (2,))])
def test_hessian_operator_rejects_a_non_finite_forward_pass(spec):
    w = np.full(spec.n_params, 1e308)
    # the MLP's matmul overflows to inf, which numpy reports as a warning;
    # in a stack, one such row fails the whole operator
    for weights in (w, np.stack([np.zeros(spec.n_params), w])):
        with np.errstate(over="ignore"), pytest.raises(NumericDomainError):
            hessian_operator(spec, weights, Dataset(np.ones((3, 2)), np.zeros(3)))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 5),
       hidden=st.lists(st.integers(1, 40), max_size=2),
       K=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_each_row_of_a_stacked_hessian_operator_is_the_unstacked_product(
        n, d, hidden, K, seed):
    # up to two hidden layers, and no hidden layer, the linear model
    spec, _, data = random_shape_case(n, d, hidden, seed)
    gen = np.random.default_rng(seed + 1)
    W = gen.standard_normal((K, spec.n_params)) * 0.5
    V = gen.standard_normal((K, spec.n_params))
    stacked = hessian_operator(spec, W, data)(V)
    assert stacked.shape == (K, spec.n_params)
    for k in range(K):
        assert stacked[k].tobytes() == hessian_operator(spec, W[k], data)(V[k]).tobytes()


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_a_stacked_hessian_operator_checks_its_shapes(kind):
    spec, w, data = random_case(np.random.default_rng(13), kind)
    W = np.stack([w, 2.0 * w])
    hess = hessian_operator(spec, W, data)
    for v in (w, np.stack([w] * 3), np.ones((2, w.size + 1))):
        with pytest.raises(DimensionMismatchError):
            hess(v)
    with pytest.raises(DimensionMismatchError):
        hessian_operator(spec, w, data)(W)
    with pytest.raises(DimensionMismatchError):
        hessian_operator(spec, W[None], data)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_hessian_solve_rejects_a_non_finite_product(kind):
    # the forward pass at w is finite (the inputs are 1e200, the first
    # layer's weights 0 or 1e-200), but a product overflows: the solver
    # raises instead of returning a NaN eigenvalue
    data = Dataset(np.full((3, 2), 1e200), np.zeros(3))
    if kind == "linear":
        spec, w = linear_spec(2), np.zeros(2)
    else:
        spec = mlp_spec(2, (2,))
        w = np.ones(spec.n_params)
        w[:4] = 1e-200
    hess = hessian_operator(spec, w, data)
    with np.errstate(over="ignore"), pytest.raises(NumericDomainError):
        power_iteration_top_eig(hess, dim=w.size)
