"""Schedules, batch sampling, the update step, and the training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajbound import models, optim, trajectory
from trajbound.data import Dataset, ToyConfig, generate_toy
from trajbound.errors import DivergedError, InvalidArgumentError
from trajbound.models import grad_mean_xy, init_params, linear_spec, mlp_spec, param_count
from trajbound.numerics import STREAM_BATCH, RngStream
from trajbound.optim import (
    OptimConfig,
    Schedule,
    draw_batches,
    lr_at,
    resolve_batch_size,
    sample_batch,
    step,
    train,
)
from trajbound.trajectory import TrajectoryRecorder


def toy_parts(n=20, d=4, seed=0, kind="linear"):
    S, S_prime, _ = generate_toy(ToyConfig(n, n, d, seed=seed))
    spec = linear_spec(d) if kind == "linear" else mlp_spec(d, (4,))
    w0 = init_params(spec, RngStream(seed, 5))
    if kind == "mlp" and not w0.any():
        raise AssertionError("mlp init should not be all zeros")
    return spec, w0, S, S_prime


# -- schedules ---------------------------------------------------------------

def test_constant_schedule():
    s = Schedule("constant", eta0=0.3)
    assert lr_at(s, 0) == 0.3
    assert lr_at(s, 999) == 0.3


def test_inverse_time_schedule_closed_form():
    s = Schedule("inverse_time", c=2.0, beta=4.0)
    for t in range(10):
        assert lr_at(s, t) == pytest.approx(2.0 / (4.0 * (t + 1)))


def test_cosine_schedule_closed_form_and_clamp():
    s = Schedule("cosine", eta0=0.1, eta_min=0.01, t_max=50)
    assert lr_at(s, 0) == pytest.approx(0.1)
    mid = 0.01 + 0.5 * 0.09 * (1 + math.cos(math.pi * 25 / 50))
    assert lr_at(s, 25) == pytest.approx(mid)
    assert lr_at(s, 50) == 0.01
    assert lr_at(s, 51) == 0.01


def test_cosine_rates_stay_positive_over_the_run():
    # with eta_min = 0 the rate only reaches 0 AT t_max; steps 0..t_max-1
    # all make progress
    s = Schedule("cosine", eta0=0.05, eta_min=0.0, t_max=100)
    assert all(lr_at(s, t) > 0 for t in range(100))
    assert lr_at(s, 100) == 0.0


def test_lr_at_rejects_negative_step():
    with pytest.raises(InvalidArgumentError):
        lr_at(Schedule("constant", eta0=0.1), -1)


@pytest.mark.parametrize("kwargs", [
    dict(kind="constant", eta0=0.0),
    dict(kind="constant", eta0=float("inf")),
    dict(kind="inverse_time", c=0.0),
    dict(kind="inverse_time", c=1.0, beta=-1.0),
    dict(kind="cosine", eta0=0.1, eta_min=0.2),
    dict(kind="cosine", eta0=0.1, eta_min=-0.1),
    dict(kind="cosine", eta0=0.1, t_max=0),
    dict(kind="warmup"),
])
def test_schedule_validation(kwargs):
    with pytest.raises(InvalidArgumentError):
        Schedule(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(mode="adam"),
    dict(sampling="shuffled"),
    dict(batch_size=0),
    dict(max_steps=-1),
    dict(snapshot_every=0),
])
def test_optim_config_validation(kwargs):
    with pytest.raises(InvalidArgumentError):
        OptimConfig(**kwargs)


# -- batch sampling ----------------------------------------------------------

def test_resolve_batch_size():
    assert resolve_batch_size(OptimConfig(mode="gd", batch_size=None), 12) == 12
    assert resolve_batch_size(OptimConfig(mode="gd", batch_size=12), 12) == 12
    with pytest.raises(InvalidArgumentError):
        resolve_batch_size(OptimConfig(mode="gd", batch_size=5), 12)
    assert resolve_batch_size(OptimConfig(mode="sgd", batch_size=5), 12) == 5
    assert resolve_batch_size(OptimConfig(mode="sgd", batch_size=None), 12) == 12
    with pytest.raises(InvalidArgumentError):
        resolve_batch_size(OptimConfig(mode="sgd", batch_size=13), 12)


def test_sample_batch_distinct_sorted_indices():
    rng = RngStream(0, STREAM_BATCH)
    for _ in range(50):
        idx = sample_batch(rng, 10, 4)
        assert idx.shape == (4,)
        assert len(set(idx.tolist())) == 4
        assert np.array_equal(idx, np.sort(idx))
        assert idx.min() >= 0 and idx.max() < 10


def test_sample_batch_full_batch_skips_the_stream():
    rng = RngStream(7, STREAM_BATCH)
    full = sample_batch(rng, 6, 6)
    assert np.array_equal(full, np.arange(6))
    # the stream was not consumed: the next partial draw matches a fresh
    # stream's first draw
    after_full = sample_batch(rng, 6, 3)
    fresh = sample_batch(RngStream(7, STREAM_BATCH), 6, 3)
    assert np.array_equal(after_full, fresh)


def test_sample_batch_reaches_every_subset_eventually():
    rng = RngStream(1, STREAM_BATCH)
    seen = {tuple(sample_batch(rng, 4, 2).tolist()) for _ in range(400)}
    assert len(seen) == 6  # all C(4,2) subsets


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 2000), k=st.integers(0, 300),
       b_rule=st.sampled_from(["1", "2", "half", "n"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_draw_batches_equals_successive_sample_batch_calls(n, k, b_rule, seed):
    # The b = 1 block draw relies on integers(0, n) consuming the stream
    # exactly like choice(n, size=1, replace=False); a numpy that breaks
    # that equivalence must fail here, not silently change SGD outputs.
    b = min(n, max(1, {"1": 1, "2": 2, "half": n // 2, "n": n}[b_rule]))
    block_rng = RngStream(seed, STREAM_BATCH)
    step_rng = RngStream(seed, STREAM_BATCH)
    rows = draw_batches(block_rng, n, b, k)
    assert rows.shape == (k, b)
    for row in rows:
        assert np.array_equal(row, sample_batch(step_rng, n, b))
    assert (repr(block_rng.generator().bit_generator.state)
            == repr(step_rng.generator().bit_generator.state))
    after = max(1, n // 3)
    assert np.array_equal(sample_batch(block_rng, n, after),
                          sample_batch(step_rng, n, after))
    assert block_rng.generator().random() == step_rng.generator().random()


@pytest.mark.parametrize("n, b, k", [(5, 0, 1), (5, 6, 1), (5, 1, -1)])
def test_draw_batches_rejects_bad_arguments(n, b, k):
    with pytest.raises(InvalidArgumentError):
        draw_batches(RngStream(0, STREAM_BATCH), n, b, k)


# -- single step -------------------------------------------------------------

def test_step_applies_gradient_descent_update():
    spec, w0, S, _ = toy_parts()
    cfg = OptimConfig(mode="gd", batch_size=None,
                      schedule=Schedule("constant", eta0=0.2), max_steps=1)
    w1, rec = step(spec, w0, S, cfg, 0, np.arange(S.n))
    resid = S.features @ w0 - S.labels
    grad = S.features.T @ resid / S.n
    assert np.allclose(w1, w0 - 0.2 * grad, atol=1e-12)
    assert rec.t == 0 and rec.eta_t == 0.2
    assert np.array_equal(rec.batch_indices, np.arange(S.n))


def test_step_diverges_past_the_norm_cap():
    spec = linear_spec(1)
    S = Dataset(np.array([[1.0]]), np.array([0.0]))
    cfg = OptimConfig(mode="gd", batch_size=None,
                      schedule=Schedule("constant", eta0=1e15), max_steps=1)
    with pytest.raises(DivergedError) as exc:
        step(spec, np.array([1.0]), S, cfg, 0, np.arange(S.n))
    assert exc.value.t == 0
    assert exc.value.param_norm > 1e12


def assert_step_diverges_at(spec, w, S, cfg, t):
    # the gradient itself must be non-finite, so only the guard's handling
    # of NaN and inf norms can raise here
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(grad_mean_xy(spec, w, S.features, S.labels)))
        with pytest.raises(DivergedError) as exc:
            step(spec, w, S, cfg, t, np.arange(S.n))
    assert exc.value.t == t
    assert not math.isfinite(exc.value.param_norm)


def with_nan_feature(S, i, j):
    # Dataset rejects non-finite entries, so the NaN goes in after
    # construction; it stands for any NaN that reaches the batch gradient
    X = S.features.copy()
    X[i, j] = np.nan
    bad = Dataset(S.features, S.labels)
    object.__setattr__(bad, "features", X)
    return bad


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_step_diverges_on_a_nan_feature(kind):
    spec, w0, S, _ = toy_parts(kind=kind)
    cfg = OptimConfig(mode="gd", batch_size=None,
                      schedule=Schedule("constant", eta0=0.05), max_steps=10)
    assert_step_diverges_at(spec, w0, with_nan_feature(S, 3, 1), cfg, 7)


@pytest.mark.parametrize("spec", [linear_spec(2), mlp_spec(2, (2,))])
def test_step_diverges_on_overflowing_weights(spec):
    # the linear output overflows to inf; the MLP's backward pass meets
    # inf * 0 and returns NaN
    w = np.full(param_count(spec), 1e308)
    S = Dataset(np.ones((3, 2)), np.zeros(3))
    cfg = OptimConfig(mode="gd", batch_size=None,
                      schedule=Schedule("constant", eta0=0.05), max_steps=10)
    assert_step_diverges_at(spec, w, S, cfg, 4)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_step_diverges_on_a_non_finite_gradient_at_zero_rate(kind):
    # past t_max a cosine schedule with eta_min = 0 steps at eta = 0, and
    # 0 * NaN is still NaN
    spec, w0, S, _ = toy_parts(kind=kind)
    sched = Schedule("cosine", eta0=0.1, eta_min=0.0, t_max=5)
    cfg = OptimConfig(mode="gd", batch_size=None, schedule=sched, max_steps=10)
    assert lr_at(sched, 6) == 0.0
    assert_step_diverges_at(spec, w0, with_nan_feature(S, 0, 0), cfg, 6)


# -- training loop -----------------------------------------------------------

def test_train_snapshot_cadence_and_counts():
    spec, w0, S, Sp = toy_parts()
    cfg = OptimConfig(mode="gd", batch_size=None,
                      schedule=Schedule("constant", eta0=0.05),
                      max_steps=10, snapshot_every=3)
    res = train(spec, w0, S, Sp, cfg)
    assert [s.t for s in res.snapshots] == [0, 3, 6, 9, 10]
    assert res.stopped_at == 10
    assert len(res.records) == 10
    assert [r.t for r in res.records] == list(range(10))


def test_train_records_schedule_rates():
    spec, w0, S, Sp = toy_parts()
    sched = Schedule("inverse_time", c=1.0, beta=2.0)
    cfg = OptimConfig(mode="gd", batch_size=None, schedule=sched, max_steps=5)
    res = train(spec, w0, S, Sp, cfg)
    for rec in res.records:
        assert rec.eta_t == lr_at(sched, rec.t)


def test_train_epoch_indexing_uses_steps_per_epoch():
    spec, w0, S, Sp = toy_parts(n=20)
    cfg = OptimConfig(mode="sgd", batch_size=5,
                      schedule=Schedule("constant", eta0=0.01),
                      max_steps=12, snapshot_every=4)
    res = train(spec, w0, S, Sp, cfg)
    assert [(s.t, s.epoch) for s in res.snapshots] == [(0, 0), (4, 1), (8, 2), (12, 3)]


def test_sgd_full_batch_is_bitwise_identical_to_gd():
    spec, w0, S, Sp = toy_parts(kind="mlp")
    sched = Schedule("constant", eta0=0.05)
    rec_gd = TrajectoryRecorder(spec, S, Sp)
    rec_sgd = TrajectoryRecorder(spec, S, Sp)
    res_gd = train(spec, w0, S, Sp,
                   OptimConfig(mode="gd", batch_size=None, schedule=sched,
                               max_steps=20, snapshot_every=1, seed=3), rec_gd)
    res_sgd = train(spec, w0, S, Sp,
                    OptimConfig(mode="sgd", batch_size=S.n, schedule=sched,
                                max_steps=20, snapshot_every=1, seed=3), rec_sgd)
    assert np.array_equal(res_gd.w_final, res_sgd.w_final)
    # a snapshot at every step: the whole path agrees, not just its end
    assert len(rec_gd.weights) == len(rec_sgd.weights) == 21
    for a, b in zip(rec_gd.weights, rec_sgd.weights):
        assert np.array_equal(a, b)
    assert [s.F_S for s in rec_gd.snapshots] == [s.F_S for s in rec_sgd.snapshots]


def test_train_is_deterministic_per_seed():
    spec, w0, S, Sp = toy_parts()
    sched = Schedule("constant", eta0=0.05)
    mk = lambda seed: OptimConfig(mode="sgd", batch_size=4, schedule=sched,
                                  max_steps=15, seed=seed)
    r1 = train(spec, w0, S, Sp, mk(0))
    r2 = train(spec, w0, S, Sp, mk(0))
    r3 = train(spec, w0, S, Sp, mk(1))
    assert np.array_equal(r1.w_final, r2.w_final)
    assert not np.array_equal(r1.w_final, r3.w_final)


def test_permute_sampling_covers_each_sample_once_per_epoch():
    spec, w0, S, Sp = toy_parts(n=20)
    cfg = OptimConfig(mode="sgd", batch_size=5,
                      schedule=Schedule("constant", eta0=0.01),
                      max_steps=8, sampling="permute", seed=2)
    res = train(spec, w0, S, Sp, cfg)
    for e in range(2):
        epoch_idx = np.concatenate(
            [res.records[t].batch_indices for t in range(4 * e, 4 * e + 4)]
        )
        assert np.array_equal(np.sort(epoch_idx), np.arange(20))
    # consecutive epochs use different permutations
    first = [tuple(res.records[t].batch_indices) for t in range(4)]
    second = [tuple(res.records[t].batch_indices) for t in range(4, 8)]
    assert first != second


def test_permute_sampling_short_final_slice():
    spec, w0, S, Sp = toy_parts(n=10)
    cfg = OptimConfig(mode="sgd", batch_size=4,
                      schedule=Schedule("constant", eta0=0.01),
                      max_steps=3, sampling="permute", seed=0)
    res = train(spec, w0, S, Sp, cfg)
    sizes = [len(r.batch_indices) for r in res.records]
    assert sizes == [4, 4, 2]
    assert np.array_equal(
        np.sort(np.concatenate([r.batch_indices for r in res.records])),
        np.arange(10),
    )


def test_early_stop_at_initial_snapshot():
    spec, w0, S, Sp = toy_parts()
    rec = TrajectoryRecorder(spec, S, Sp)
    f0 = rec(0, 0, 0.0, w0).F_S
    cfg = OptimConfig(mode="gd", batch_size=None,
                      schedule=Schedule("constant", eta0=0.05),
                      max_steps=50, stop_train_loss=f0 * 2)
    res = train(spec, w0, S, Sp, cfg)
    assert res.stopped_at == 0
    assert len(res.records) == 0
    assert len(res.snapshots) == 1
    assert np.array_equal(res.w_final, w0)


def test_early_stop_is_checked_at_snapshot_times_only():
    # realizable labels so full-batch descent can push the loss under any
    # threshold; the binary toy labels would floor well above it
    gen = np.random.default_rng(3)
    X = gen.standard_normal((20, 4))
    S = Dataset(X, X @ gen.standard_normal(4))
    spec = linear_spec(4)
    w0 = init_params(spec, RngStream(0, 5))
    cfg = OptimConfig(mode="gd", batch_size=None,
                      schedule=Schedule("constant", eta0=0.3),
                      max_steps=500, stop_train_loss=1e-4, snapshot_every=7)
    res = train(spec, w0, S, S, cfg)
    assert 0 < res.stopped_at < 500
    assert res.stopped_at % 7 == 0
    # strictly below at the stopping snapshot, not below at any earlier one
    assert res.snapshots[-1].F_S < 1e-4
    for s in res.snapshots[:-1]:
        assert s.F_S >= 1e-4


def assert_records_replay_through_step(spec, w0, S, cfg, res, rec):
    # replaying the records one out-of-place step at a time reproduces every
    # stored snapshot and the final weights bitwise
    at = {snap.t: k for k, snap in enumerate(rec.snapshots)}
    assert rec.weights[0].tobytes() == w0.tobytes()
    w = w0.copy()
    for r in res.records:
        w, _ = step(spec, w, S, cfg, r.t, r.batch_indices)
        if r.t + 1 in at:
            assert rec.weights[at[r.t + 1]].tobytes() == w.tobytes()
    assert len(res.records) == res.stopped_at
    assert w.tobytes() == res.w_final.tobytes()


@pytest.mark.parametrize("stop", [1e-3, None])
def test_batch_one_training_draws_like_per_step_sample_batch(stop):
    # realizable labels so batch-1 SGD reaches the early-stop threshold;
    # snapshot_every = 7 does not divide max_steps, so the last block is short
    gen = np.random.default_rng(5)
    X = gen.standard_normal((20, 4))
    S = Dataset(X, X @ gen.standard_normal(4))
    spec = linear_spec(4)
    w0 = init_params(spec, RngStream(0, 5))
    cfg = OptimConfig(mode="sgd", batch_size=1,
                      schedule=Schedule("constant", eta0=0.1),
                      max_steps=400 if stop else 53, stop_train_loss=stop,
                      snapshot_every=7, seed=11)
    rec = TrajectoryRecorder(spec, S, S)
    res = train(spec, w0, S, S, cfg, rec)
    if stop:
        assert 0 < res.stopped_at < cfg.max_steps
        assert res.stopped_at % 7 == 0
    else:
        assert res.stopped_at == 53
    rng = RngStream(cfg.seed, STREAM_BATCH)
    for r in res.records:
        assert np.array_equal(r.batch_indices, sample_batch(rng, S.n, 1))
    assert_records_replay_through_step(spec, w0, S, cfg, res, rec)


@pytest.mark.parametrize("sampling", ["iid", "permute"])
def test_mlp_batch_ten_training_replays_through_step(sampling):
    # n = 25 at b = 10: permute's every third batch is a short one of 5
    spec, w0, S, Sp = toy_parts(n=25, kind="mlp")
    cfg = OptimConfig(mode="sgd", batch_size=10,
                      schedule=Schedule("constant", eta0=0.1),
                      max_steps=53, snapshot_every=7, seed=11, sampling=sampling)
    rec = TrajectoryRecorder(spec, S, Sp)
    res = train(spec, w0, S, Sp, cfg, rec)
    assert res.stopped_at == 53
    if sampling == "iid":
        rng = RngStream(cfg.seed, STREAM_BATCH)
        for r in res.records:
            assert np.array_equal(r.batch_indices, sample_batch(rng, S.n, 10))
    else:
        assert [len(r.batch_indices) for r in res.records[:6]] == [10, 10, 5, 10, 10, 5]
    assert_records_replay_through_step(spec, w0, S, cfg, res, rec)


def test_max_steps_zero_records_only_the_initial_point():
    spec, w0, S, Sp = toy_parts()
    cfg = OptimConfig(mode="gd", batch_size=None,
                      schedule=Schedule("constant", eta0=0.05), max_steps=0)
    res = train(spec, w0, S, Sp, cfg)
    assert res.stopped_at == 0
    assert [s.t for s in res.snapshots] == [0]


def test_train_propagates_divergence_with_step_index():
    spec, w0, S, Sp = toy_parts()
    cfg = OptimConfig(mode="gd", batch_size=None,
                      schedule=Schedule("constant", eta0=50.0), max_steps=200)
    with pytest.raises(DivergedError) as exc:
        train(spec, w0, S, Sp, cfg)
    assert 0 <= exc.value.t < 200


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_train_never_forms_per_sample_gradients_or_losses(kind, monkeypatch):
    spec, w0, S, Sp = toy_parts(kind=kind)

    def forbidden(*args, **kwargs):
        raise AssertionError("training formed per-sample gradients or losses")

    for name in ("losses_batch", "per_sample_grads"):
        for mod in (models, optim, trajectory):
            monkeypatch.setattr(mod, name, forbidden, raising=mod is models)
    cfg = OptimConfig(mode="sgd", batch_size=5,
                      schedule=Schedule("constant", eta0=0.05),
                      max_steps=12, snapshot_every=4)
    res = train(spec, w0, S, Sp, cfg)
    assert res.stopped_at == 12
    assert [s.t for s in res.snapshots] == [0, 4, 8, 12]


def test_train_does_not_mutate_the_initial_vector():
    spec, w0, S, Sp = toy_parts()
    w0_copy = w0.copy()
    cfg = OptimConfig(mode="gd", batch_size=None,
                      schedule=Schedule("constant", eta0=0.05), max_steps=5)
    train(spec, w0, S, Sp, cfg)
    assert np.array_equal(w0, w0_copy)
    # the MLP SGD run updates its own copy in place; what the recorder kept
    # and the returned weights are separate arrays
    spec, w0, S, Sp = toy_parts(kind="mlp")
    w0_copy = w0.copy()
    cfg = OptimConfig(mode="sgd", batch_size=5,
                      schedule=Schedule("constant", eta0=0.05),
                      max_steps=12, snapshot_every=3)
    rec = TrajectoryRecorder(spec, S, Sp)
    res = train(spec, w0, S, Sp, cfg, rec)
    assert np.array_equal(w0, w0_copy)
    kept = [w0, *rec.weights, res.w_final]
    assert len(kept) == 2 + len(res.snapshots) == 7
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert not np.shares_memory(a, b)
    assert np.array_equal(rec.weights[-1], res.w_final)
    assert not np.array_equal(rec.weights[-2], res.w_final)


@pytest.mark.parametrize("fault", ["huge_rate", "nan_feature"])
def test_mlp_training_diverges_at_the_step_a_step_replay_does(fault):
    spec, w0, S, _ = toy_parts(kind="mlp")
    if fault == "nan_feature":
        S = with_nan_feature(S, 3, 1)
    cfg = OptimConfig(mode="sgd", batch_size=5,
                      schedule=Schedule("constant",
                                        eta0=1e4 if fault == "huge_rate" else 0.05),
                      max_steps=200, snapshot_every=2, seed=4)
    stored = {}

    def recorder(t, epoch, eta, w):
        stored[t] = w.copy()

    with np.errstate(all="ignore"):
        with pytest.raises(DivergedError) as run:
            train(spec, w0, S, None, cfg, recorder)
        rng = RngStream(cfg.seed, STREAM_BATCH)
        w = w0.copy()
        with pytest.raises(DivergedError) as replay:
            for t in range(cfg.max_steps):
                assert t not in stored or stored[t].tobytes() == w.tobytes()
                w, _ = step(spec, w, S, cfg, t, sample_batch(rng, S.n, 5))
    assert 0 < run.value.t == replay.value.t
    assert not run.value.param_norm <= optim.PARAM_NORM_CAP
    assert max(stored) <= run.value.t
    assert all(np.all(np.isfinite(w)) for w in stored.values())


def test_train_binds_its_step_once(monkeypatch):
    # the step's checks, target conversion and layer views are bound once per
    # run: their count does not grow with the number of steps
    spec, w0, S, _ = toy_parts(kind="mlp")
    counts = {}
    for name in ("unflatten", "_check_inputs", "_targets", "_flatten"):
        def counted(*args, _real=getattr(models, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(models, name, counted)

    def calls_per_run(max_steps):
        counts.clear()
        cfg = OptimConfig(mode="sgd", batch_size=5, max_steps=max_steps,
                          snapshot_every=max_steps)
        train(spec, w0, S, None, cfg, lambda t, epoch, eta, w: None)
        return dict(counts)

    assert calls_per_run(2) == calls_per_run(40) == {
        "unflatten": 1, "_check_inputs": 1, "_targets": 1}
