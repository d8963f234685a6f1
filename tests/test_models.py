"""Model forward/gradient/HVP correctness against independent oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajbound import models
from trajbound.data import Dataset
from trajbound.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NumericDomainError,
)
from trajbound.models import (
    ModelSpec,
    _flatten,
    forward_batch,
    grad_mean,
    grad_mean_xy,
    hessian_operator,
    hessian_vector_product,
    init_params,
    linear_spec,
    loss_grad_stats,
    loss_per_sample,
    losses_batch,
    mlp_spec,
    param_count,
    per_sample_grads,
    unflatten,
)
from trajbound.numerics import RngStream, central_diff_gradient, power_iteration_top_eig


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
    elif kind == "mlp2":
        spec = mlp_spec(d, (int(gen.integers(2, 5)), int(gen.integers(2, 5))))
        y = gen.standard_normal(n)
    else:
        spec = mlp_spec(d, (3,), output_dim=3, loss="cross_entropy")
        y = gen.integers(0, 3, size=n).astype(np.float64)
    data = Dataset(X, y)
    w = gen.standard_normal(param_count(spec)) * 0.5
    return spec, w, data


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        ModelSpec(kind="rbf", input_dim=3)
    with pytest.raises(InvalidArgumentError):
        ModelSpec(kind="linear", input_dim=0)
    with pytest.raises(InvalidArgumentError):
        ModelSpec(kind="linear", input_dim=3, loss="cross_entropy")
    with pytest.raises(InvalidArgumentError):
        mlp_spec(3, (0,))  # zero-width hidden layer
    with pytest.raises(InvalidArgumentError):
        ModelSpec(kind="mlp", input_dim=3, layer_widths=(3,))  # no output layer
    # no hidden layer at all is fine: widths collapse to (input, output)
    assert mlp_spec(3, ()).layer_widths == (3, 1)
    with pytest.raises(InvalidArgumentError):
        ModelSpec(kind="mlp", input_dim=3, layer_widths=(4, 2, 1))  # wrong input
    with pytest.raises(InvalidArgumentError):
        ModelSpec(kind="mlp", input_dim=3, layer_widths=(3, 2, 1),
                  activation="relu")
    with pytest.raises(InvalidArgumentError):
        mlp_spec(3, (4,), output_dim=1, loss="cross_entropy")


def test_param_count():
    assert param_count(linear_spec(7)) == 7
    # 3 -> 4 -> 2: (4*3 + 4) + (2*4 + 2)
    assert param_count(mlp_spec(3, (4,), output_dim=2, loss="cross_entropy")) == 26


def test_init_params_linear_is_zero_and_mlp_is_bounded():
    assert np.array_equal(init_params(linear_spec(5), RngStream(0, 0)), np.zeros(5))
    spec = mlp_spec(4, (8,))
    w = init_params(spec, RngStream(1, 0))
    assert w.shape == (param_count(spec),)
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
    w = gen.standard_normal(param_count(spec))
    X = gen.standard_normal((4, 2))
    (W1, b1), (W2, b2) = unflatten(spec, w)
    manual = np.tanh(X @ W1.T + b1) @ W2.T + b2
    assert np.allclose(forward_batch(spec, w, X), manual, atol=1e-12)


def test_squared_loss_value():
    spec = linear_spec(2)
    X = np.array([[1.0, 0.0]])
    losses = losses_batch(spec, np.array([3.0, 0.0]), X, np.array([1.0]))
    assert losses[0] == pytest.approx(0.5 * 4.0)


def test_cross_entropy_matches_log_softmax():
    spec = mlp_spec(2, (3,), output_dim=3, loss="cross_entropy")
    gen = np.random.default_rng(2)
    w = gen.standard_normal(param_count(spec))
    X = gen.standard_normal((5, 2))
    y = np.array([0.0, 2.0, 1.0, 1.0, 2.0])
    logits = forward_batch(spec, w, X)
    probs = np.exp(logits) / np.sum(np.exp(logits), axis=1, keepdims=True)
    expect = -np.log(probs[np.arange(5), y.astype(int)])
    assert np.allclose(losses_batch(spec, w, X, y), expect, atol=1e-12)


def test_cross_entropy_rejects_bad_labels():
    spec = mlp_spec(2, (3,), output_dim=3, loss="cross_entropy")
    w = np.zeros(param_count(spec))
    X = np.ones((2, 2))
    with pytest.raises(InvalidArgumentError):
        losses_batch(spec, w, X, np.array([0.0, 0.5]))
    with pytest.raises(InvalidArgumentError):
        losses_batch(spec, w, X, np.array([0.0, 3.0]))


def test_forward_overflow_raises_numeric_domain():
    spec = linear_spec(1)
    with pytest.raises(NumericDomainError):
        losses_batch(spec, np.array([1e200]), np.array([[1e200]]), np.array([0.0]))


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp_ce"])
def test_per_sample_grads_match_central_differences(kind):
    gen = np.random.default_rng(hash(kind) % 2 ** 31)
    for _ in range(20):
        spec, w, data = random_case(gen, kind)
        G = per_sample_grads(spec, w, data)
        assert G.shape == (data.n, param_count(spec))
        for i in range(data.n):
            z = (data.features[i], data.labels[i])
            fd = central_diff_gradient(lambda v: loss_per_sample(spec, v, z),
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
    assert np.all(np.abs(sq_norms - sq_ref) <= 1e-12 * sq_ref)


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp2", "mlp_ce"])
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


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp2", "mlp_ce"])
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


def random_shape_case(n, d, hidden, classes, seed):
    # classes = 0 picks the squared loss, and with no hidden layer the
    # squared-loss case is the linear model
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    if classes:
        spec = mlp_spec(d, tuple(hidden), output_dim=classes, loss="cross_entropy")
        y = gen.integers(0, classes, size=n).astype(np.float64)
    else:
        spec = mlp_spec(d, tuple(hidden)) if hidden else linear_spec(d)
        y = gen.standard_normal(n)
    w = gen.standard_normal(param_count(spec)) * 0.5
    return spec, w, Dataset(X, y)


any_shape = given(n=st.integers(1, 40), d=st.integers(1, 5),
                  hidden=st.lists(st.integers(1, 6), max_size=2),
                  classes=st.sampled_from([0, 2, 4]), seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None)
@any_shape
def test_loss_grad_stats_matches_the_oracle_on_any_shape(n, d, hidden, classes, seed):
    assert_loss_grad_stats_match_the_oracle(*random_shape_case(n, d, hidden, classes, seed))


@settings(max_examples=100, deadline=None)
@any_shape
def test_grad_mean_xy_matches_the_oracle_on_any_shape(n, d, hidden, classes, seed):
    assert_grad_mean_xy_matches_the_oracle(*random_shape_case(n, d, hidden, classes, seed))


@settings(max_examples=100, deadline=None)
@any_shape
def test_flatten_inverts_unflatten_on_any_shape(n, d, hidden, classes, seed):
    spec, w, _ = random_shape_case(n, d, hidden, classes, seed)
    widths = spec.layer_widths
    assert spec.n_params == param_count(spec) == (
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
        "kind", "input_dim", "output_dim", "layer_widths", "activation", "loss"]
    spec = mlp_spec(3, (4,), output_dim=2, loss="cross_entropy")
    assert spec.layout == ((0, 12, 16, (4, 3)), (16, 24, 26, (2, 4)))
    assert dataclasses.replace(spec) == spec
    assert dataclasses.replace(spec).layout == spec.layout
    assert linear_spec(7).layout == () and linear_spec(7).n_params == 7


@pytest.mark.parametrize("kind", ["mlp", "mlp2", "mlp_ce"])
def test_each_mlp_kernel_unflattens_the_weights_once(kind, monkeypatch):
    spec, w, data = random_case(np.random.default_rng(sum(map(ord, kind))), kind)
    calls = []
    real = models.unflatten

    def counted(*args):
        calls.append(args[1])
        return real(*args)

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
    # the step kernel unflattens its own copy once, at bind, and never per update
    w_run, update = models.bind_step_kernel(spec, w, data)
    assert len(calls) == 6 and calls[-1] is w_run
    for b in (1, data.n, 2):
        update(np.arange(b), 0.1)
    assert len(calls) == 6


def assert_step_kernel_is_the_out_of_place_step(spec, w, data, seed):
    gen = np.random.default_rng(seed)
    X, y, n = data.features, data.labels, data.n
    w_before = w.copy()
    for b in range(1, n + 1):
        batch = np.sort(gen.choice(n, size=b, replace=False))
        for eta in (0.0, float(gen.uniform(0.01, 1.0))):
            w_run, update = models.bind_step_kernel(spec, w, data)
            norm = update(batch, eta)
            expected = w - eta * grad_mean_xy(spec, w, X[batch], y[batch])
            assert w_run.tobytes() == expected.tobytes()
            assert norm == math.sqrt(w_run @ w_run)
    assert w.tobytes() == w_before.tobytes()
    # one bound buffer across batch sizes that change from step to step,
    # permute's short last slice among them, leaks nothing between steps
    size = int(gen.integers(1, n + 1))
    perm = gen.permutation(n)
    batches = [np.sort(perm[i:i + size]) for i in range(0, n, size)]
    batches += [np.sort(gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False))
                for _ in range(4)]
    w_run, update = models.bind_step_kernel(spec, w, data)
    w_ref = w
    for batch in batches:
        eta = float(gen.uniform(0.0, 0.5))
        norm = update(batch, eta)
        w_ref = w_ref - eta * grad_mean_xy(spec, w_ref, X[batch], y[batch])
        assert w_run.tobytes() == w_ref.tobytes()
        assert norm == math.sqrt(w_ref @ w_ref)


@settings(max_examples=100, deadline=None)
@any_shape
def test_step_kernel_is_bitwise_the_out_of_place_step_on_any_shape(n, d, hidden, classes,
                                                                   seed):
    assert_step_kernel_is_the_out_of_place_step(
        *random_shape_case(n, d, hidden, classes, seed), seed)


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp2", "mlp_ce"])
def test_step_kernel_is_bitwise_the_out_of_place_step(kind):
    gen = np.random.default_rng(sum(map(ord, kind)) + 2)
    for k in range(20):
        assert_step_kernel_is_the_out_of_place_step(*random_case(gen, kind), k)


@settings(max_examples=100, deadline=None)
@any_shape
def test_kernels_never_write_into_their_inputs(n, d, hidden, classes, seed):
    # the MLP forward and backward passes update their temporaries in place;
    # none of them may be the caller's weights, direction or data. A stray
    # write into a Dataset's read-only arrays raises; the (X, y) kernels get
    # writable copies, where it would not.
    spec, w, data = random_shape_case(n, d, hidden, classes, seed)
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
    w = np.full(param_count(spec), 1e308)
    # the MLP's matmul overflows to inf, which numpy reports as a warning
    with np.errstate(over="ignore"), pytest.raises(NumericDomainError):
        loss_grad_stats(spec, w, Dataset(np.ones((3, 2)), np.zeros(3)))


@pytest.mark.parametrize("spec", [linear_spec(2), mlp_spec(2, (2,))])
def test_per_sample_grads_rejects_a_non_finite_forward_pass(spec):
    w = np.full(param_count(spec), 1e308)
    with np.errstate(over="ignore"), pytest.raises(NumericDomainError):
        per_sample_grads(spec, w, Dataset(np.ones((3, 2)), np.zeros(3)))


def test_singleton_batch_row_is_bitwise_identical():
    # the documented identity behind the trace computation: row i of the
    # batched gradient equals the gradient of the singleton batch {z_i}
    gen = np.random.default_rng(9)
    for kind in ("linear", "mlp", "mlp_ce"):
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
    w = gen.standard_normal(param_count(spec)) * 0.3
    dense = dense_fd_hessian(spec, w, data, h=1e-4)
    v = gen.standard_normal(w.size)
    hv = hessian_vector_product(spec, w, data, v)
    assert np.linalg.norm(hv - dense @ v) < 1e-4 * max(1.0, np.linalg.norm(dense @ v))


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp2", "mlp_ce"])
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
        n, d, hidden, classes, seed):
    spec, w, data = random_shape_case(n, d, hidden, classes, seed)
    v = np.random.default_rng(seed + 1).standard_normal(w.size)
    v /= np.linalg.norm(v)
    h = 1e-5
    fd = (grad_mean(spec, w + h * v, data)[1] - grad_mean(spec, w - h * v, data)[1]) / (2 * h)
    hv = hessian_operator(spec, w, data)(v)
    assert np.linalg.norm(hv - fd) <= 1e-7 * max(1.0, float(np.linalg.norm(hv)))


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp2", "mlp_ce"])
def test_hessian_operator_is_symmetric(kind):
    gen = np.random.default_rng(sum(map(ord, kind)) + 3)
    for _ in range(20):
        spec, w, data = random_case(gen, kind)
        hess = hessian_operator(spec, w, data)
        u, v = gen.standard_normal((2, w.size))
        hu, hv = hess(u), hess(v)
        scale = np.linalg.norm(u) * np.linalg.norm(hv) + np.linalg.norm(v) * np.linalg.norm(hu)
        assert abs(float(u @ hv) - float(v @ hu)) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["linear", "mlp", "mlp2", "mlp_ce"])
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
    w = np.full(param_count(spec), 1e308)
    # the MLP's matmul overflows to inf, which numpy reports as a warning
    with np.errstate(over="ignore"), pytest.raises(NumericDomainError):
        hessian_operator(spec, w, Dataset(np.ones((3, 2)), np.zeros(3)))


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
        w = np.ones(param_count(spec))
        w[:4] = 1e-200
    hess = hessian_operator(spec, w, data)
    with np.errstate(over="ignore"), pytest.raises(NumericDomainError):
        power_iteration_top_eig(hess, dim=w.size)
