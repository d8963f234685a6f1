"""Schedules, batch sampling, the update step, and the training loop."""

import dataclasses
import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajbound import models, optim, trajectory
from trajbound.data import Dataset, ToyConfig, generate_toy
from trajbound.errors import DivergedError, InvalidArgumentError, NumericDomainError
from trajbound.models import (
    grad_mean_xy,
    init_params,
    linear_spec,
    loss_grad_stats,
    mlp_spec,
    unflatten,
)
from trajbound.numerics import STREAM_BATCH, RngStream
from trajbound.optim import (
    OptimConfig,
    Schedule,
    draw_batches,
    lr_at,
    lr_steps,
    resolve_batch_size,
    sample_batch,
    step,
    train,
)
from trajbound.trajectory import TrajectoryRecorder

from linear_reference import linear_reference


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
    # cosine decays from eta0 to 0 at t_max and clamps to 0 after it
    s = Schedule("cosine", eta0=0.1, t_max=50)
    assert lr_at(s, 0) == 0.1
    for t in (1, 25, 37, 49):
        assert lr_at(s, t) == 0.5 * 0.1 * (1.0 + math.cos(math.pi * t / 50))
    assert lr_at(s, 25) == pytest.approx(0.05)
    assert lr_at(s, 50) == 0.0
    assert lr_at(s, 51) == 0.0


def test_cosine_rates_stay_positive_over_the_run():
    # the rate only reaches 0 AT t_max; steps 0..t_max-1 all make progress
    s = Schedule("cosine", eta0=0.05, t_max=100)
    assert all(lr_at(s, t) > 0 for t in range(100))
    assert lr_at(s, 100) == 0.0


def test_lr_at_rejects_negative_step():
    with pytest.raises(InvalidArgumentError):
        lr_at(Schedule("constant", eta0=0.1), -1)


@pytest.mark.parametrize("schedule", [
    Schedule("constant", eta0=0.3),
    Schedule("inverse_time", c=2.0, beta=4.0),
    Schedule("inverse_time", c=0.7, beta=1.37),
    Schedule("inverse_time", c=3, beta=7),
    Schedule("cosine", eta0=0.05, t_max=8000),
    Schedule("cosine", eta0=0.1, t_max=12345),
], ids=["constant", "inverse_time", "inverse_time_beta_1.37", "inverse_time_ints",
        "cosine_to_zero", "cosine_clamped"])
def test_lr_steps_are_bitwise_lr_at(schedule):
    # an interval's step sizes equal lr_at's, step by step, over 20 000 steps
    # taken at once and in windows that start inside the run, an empty one
    # included; a negative step or step count is rejected for every kind
    ref = np.array([lr_at(schedule, t) for t in range(20_000)])
    assert lr_steps(schedule, 0, 20_000).tobytes() == ref.tobytes()
    for t, k in ((0, 1), (1, 100), (3, 0), (7_999, 3), (12_340, 2_000), (19_999, 1)):
        rates = lr_steps(schedule, t, k)
        assert rates.dtype == np.float64 and rates.tobytes() == ref[t:t + k].tobytes()
    with pytest.raises(InvalidArgumentError):
        lr_steps(schedule, -1, 3)
    with pytest.raises(InvalidArgumentError, match="k >= 0"):
        lr_steps(schedule, 0, -1)


@pytest.mark.parametrize("kwargs", [
    dict(kind="constant", eta0=0.0),
    dict(kind="constant", eta0=float("inf")),
    dict(kind="inverse_time", c=0.0),
    dict(kind="inverse_time", c=1.0, beta=-1.0),
    dict(kind="cosine", eta0=0.0),
    dict(kind="cosine", eta0=float("nan")),
    dict(kind="cosine", eta0=float("inf")),
    dict(kind="cosine", eta0=0.1, t_max=0),
    dict(kind="warmup"),
])
def test_schedule_validation(kwargs):
    with pytest.raises(InvalidArgumentError):
        Schedule(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(batch_size=-1),
    dict(snapshot_every=-1),
    dict(batch_size=0),
    dict(max_steps=-1),
    dict(snapshot_every=0),
])
def test_optim_config_validation(kwargs):
    with pytest.raises(InvalidArgumentError):
        OptimConfig(**kwargs)


@pytest.mark.parametrize("stop", [0.0, -1.0, float("nan")])
def test_optim_config_rejects_a_stop_threshold_no_loss_falls_below(stop):
    # F_S < nan never holds, so a NaN threshold would turn early stopping off
    with pytest.raises(InvalidArgumentError, match="stop_train_loss must be > 0"):
        OptimConfig(stop_train_loss=stop)
    OptimConfig(stop_train_loss=math.nextafter(0.0, 1.0))


# -- batch sampling ----------------------------------------------------------

def test_optim_config_has_no_mode():
    # the batch size alone says gd or sgd: None is the full batch
    with pytest.raises(TypeError):
        OptimConfig(mode="gd")


def test_resolve_batch_size():
    assert resolve_batch_size(None, 12) == 12
    assert resolve_batch_size(12, 12) == 12
    assert resolve_batch_size(5, 12) == 5
    assert resolve_batch_size(1, 12) == 1
    for bad in (0, 13):
        with pytest.raises(InvalidArgumentError, match="1 <= batch_size <= n=12"):
            resolve_batch_size(bad, 12)


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


def assert_draw_batches_matches_sample_batch(n, b, k, seed):
    # rows, the generator state after them, and the draws that follow
    block_rng = RngStream(seed, STREAM_BATCH)
    step_rng = RngStream(seed, STREAM_BATCH)
    rows = draw_batches(block_rng, n, b, k)
    assert rows.shape == (k, b)
    for row in rows:
        assert np.array_equal(row, sample_batch(step_rng, n, b))
    assert (repr(block_rng.generator().bit_generator.state)
            == repr(step_rng.generator().bit_generator.state))
    after = max(1, min(n // 3, 50))
    assert np.array_equal(sample_batch(block_rng, n, after),
                          sample_batch(step_rng, n, after))
    assert block_rng.generator().random() == step_rng.generator().random()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 2000), b_small=st.integers(1, 2 * optim.FLOYD_MAX_BATCH),
       b_frac=st.none() | st.floats(0.0, 1.0), k=st.integers(0, 300),
       seed=st.integers(0, 2 ** 32 - 1))
def test_draw_batches_equals_successive_sample_batch_calls(n, b_small, b_frac, k, seed):
    # The Floyd block relies on choice's own Floyd draws, b = 1 included; a
    # numpy that breaks that equivalence must fail here, not silently change
    # SGD outputs. b is drawn around the Floyd cutoff half the time and
    # anywhere in 1..n otherwise.
    b = min(n, b_small) if b_frac is None else 1 + int(b_frac * (n - 1))
    assert_draw_batches_matches_sample_batch(n, b, k, seed)


# numpy's choice runs Floyd's algorithm when n <= 10 000 or b <= n // 50 and
# shuffles a tail of range(n) otherwise; 2**32 + 1 needs 64-bit draws. With
# the cutoff lifted the block path meets each threshold from both sides.
@pytest.mark.parametrize("cutoff", ["shipped", "lifted"])
@pytest.mark.parametrize("n, b", [(10_000, 200), (10_000, 201), (10_001, 200),
                                  (10_001, 201), (20_000, 400), (20_000, 401),
                                  (20_000, 500), (2 ** 32, 3), (2 ** 32 + 1, 3)])
def test_draw_batches_at_numpy_choice_thresholds(monkeypatch, cutoff, n, b):
    if cutoff == "lifted":
        monkeypatch.setattr(optim, "FLOYD_MAX_BATCH", n)
    for seed in range(3):
        assert_draw_batches_matches_sample_batch(n, b, 6, seed)


@pytest.mark.parametrize("n, b, rejects", [(2 ** 31 + 1, 1, True), (2 ** 31 + 1, 2, True),
                                           (2 ** 31 + 1, 5, True), (2 ** 31, 3, False)])
def test_draw_batches_falls_back_on_a_rejected_draw(monkeypatch, n, b, rejects):
    # numpy rejects a bounded draw u of bound m when (u*m) mod 2**32 is below
    # 2**32 % m: about half of all draws at m = 2**31 + 1, so the block hits
    # rejections there and each rejected row must come from sample_batch. At
    # n = 2**31 the low word is often below m but never below 2**32 % m here,
    # so the block replays every row itself.
    k = 40
    u = RngStream(3, STREAM_BATCH).generator().integers(
        0, 2 ** 32, size=(k, 2 * b - 1), dtype=np.uint64)
    bounds = np.array([*range(n - b + 1, n + 1), *range(b, 1, -1)], dtype=np.uint64)
    low = (u * bounds) % 2 ** 32
    assert (low < bounds).any()
    assert (low < 2 ** 32 % bounds).any() == rejects
    calls = []

    def counted(rng, n_, b_):
        calls.append(b_)
        return sample_batch(rng, n_, b_)
    monkeypatch.setattr(optim, "sample_batch", counted)
    for block_rows in (optim.BATCH_BLOCK_ROWS, 16):  # one uint32 block, then three
        monkeypatch.setattr(optim, "BATCH_BLOCK_ROWS", block_rows)
        calls.clear()
        assert_draw_batches_matches_sample_batch(n, b, k, 3)
        if rejects:
            assert 1 <= len(calls) < k  # the block resumed after each fallback row
        else:
            assert not calls


@pytest.mark.parametrize("n, b, k", [(5, 0, 1), (5, 6, 1), (5, 1, -1)])
def test_draw_batches_rejects_bad_arguments(n, b, k):
    with pytest.raises(InvalidArgumentError):
        draw_batches(RngStream(0, STREAM_BATCH), n, b, k)


# -- single step -------------------------------------------------------------

def test_step_applies_gradient_descent_update():
    spec, w0, S, _ = toy_parts()
    cfg = OptimConfig(batch_size=None,
                      schedule=Schedule("constant", eta0=0.2), max_steps=1)
    w1 = step(spec, w0, S, cfg, 0, np.arange(S.n))
    resid = S.features @ w0 - S.labels
    grad = S.features.T @ resid / S.n
    assert np.allclose(w1, w0 - 0.2 * grad, atol=1e-12)
    assert not np.shares_memory(w1, w0)


def test_step_diverges_past_the_norm_cap():
    spec = linear_spec(1)
    S = Dataset(np.array([[1.0]]), np.array([0.0]))
    cfg = OptimConfig(batch_size=None,
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
    cfg = OptimConfig(batch_size=None,
                      schedule=Schedule("constant", eta0=0.05), max_steps=10)
    assert_step_diverges_at(spec, w0, with_nan_feature(S, 3, 1), cfg, 7)


@pytest.mark.parametrize("spec", [linear_spec(2), mlp_spec(2, (2,))])
def test_step_diverges_on_overflowing_weights(spec):
    # the linear output overflows to inf; the MLP's backward pass meets
    # inf * 0 and returns NaN
    w = np.full(spec.n_params, 1e308)
    S = Dataset(np.ones((3, 2)), np.zeros(3))
    cfg = OptimConfig(batch_size=None,
                      schedule=Schedule("constant", eta0=0.05), max_steps=10)
    assert_step_diverges_at(spec, w, S, cfg, 4)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_step_diverges_on_a_non_finite_gradient_at_zero_rate(kind):
    # past t_max a cosine schedule steps at eta = 0, and 0 * NaN is still NaN
    spec, w0, S, _ = toy_parts(kind=kind)
    sched = Schedule("cosine", eta0=0.1, t_max=5)
    cfg = OptimConfig(batch_size=None, schedule=sched, max_steps=10)
    assert lr_at(sched, 6) == 0.0
    assert_step_diverges_at(spec, w0, with_nan_feature(S, 0, 0), cfg, 6)


# -- training loop -----------------------------------------------------------

def test_train_snapshot_cadence_and_counts():
    spec, w0, S, Sp = toy_parts()
    cfg = OptimConfig(batch_size=None,
                      schedule=Schedule("constant", eta0=0.05),
                      max_steps=10, snapshot_every=3)
    res = train(spec, w0, S, Sp, cfg)
    assert [s.t for s in res.snapshots] == [0, 3, 6, 9, 10]
    assert res.stopped_at == 10
    assert res.etas.shape == (10,) and res.batch_size == S.n


def test_train_records_schedule_rates():
    spec, w0, S, Sp = toy_parts()
    sched = Schedule("inverse_time", c=1.0, beta=2.0)
    cfg = OptimConfig(batch_size=None, schedule=sched, max_steps=5)
    res = train(spec, w0, S, Sp, cfg)
    assert res.etas.dtype == np.float64
    assert res.etas.tolist() == [lr_at(sched, t) for t in range(5)]


def test_train_epoch_indexing_uses_steps_per_epoch():
    spec, w0, S, Sp = toy_parts(n=20)
    cfg = OptimConfig(batch_size=5,
                      schedule=Schedule("constant", eta0=0.01),
                      max_steps=12, snapshot_every=4)
    res = train(spec, w0, S, Sp, cfg)
    assert [(s.t, s.epoch) for s in res.snapshots] == [(0, 0), (4, 1), (8, 2), (12, 3)]


def test_sgd_full_batch_is_bitwise_identical_to_gd():
    # batch_size None (gd) and batch_size n (sgd on the full batch) are one
    # run: drawing a batch of n consumes nothing from the stream
    spec, w0, S, Sp = toy_parts(kind="mlp")
    sched = Schedule("constant", eta0=0.05)
    rec_gd = TrajectoryRecorder(spec, S, Sp)
    rec_sgd = TrajectoryRecorder(spec, S, Sp)
    res_gd = train(spec, w0, S, Sp,
                   OptimConfig(batch_size=None, schedule=sched,
                               max_steps=20, snapshot_every=1, seed=3), rec_gd)
    res_sgd = train(spec, w0, S, Sp,
                    OptimConfig(batch_size=S.n, schedule=sched,
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
    mk = lambda seed: OptimConfig(batch_size=4, schedule=sched,
                                  max_steps=15, seed=seed)
    r1 = train(spec, w0, S, Sp, mk(0))
    r2 = train(spec, w0, S, Sp, mk(0))
    r3 = train(spec, w0, S, Sp, mk(1))
    assert np.array_equal(r1.w_final, r2.w_final)
    assert not np.array_equal(r1.w_final, r3.w_final)


def test_early_stop_at_initial_snapshot():
    spec, w0, S, Sp = toy_parts()
    rec = TrajectoryRecorder(spec, S, Sp)
    f0 = rec(0, 0, 0.0, w0).F_S
    cfg = OptimConfig(batch_size=None,
                      schedule=Schedule("constant", eta0=0.05),
                      max_steps=50, stop_train_loss=f0 * 2)
    res = train(spec, w0, S, Sp, cfg)
    assert res.stopped_at == 0
    assert res.etas.size == 0
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
    cfg = OptimConfig(batch_size=None,
                      schedule=Schedule("constant", eta0=0.3),
                      max_steps=500, stop_train_loss=1e-4, snapshot_every=7)
    res = train(spec, w0, S, S, cfg)
    assert 0 < res.stopped_at < 500
    assert res.stopped_at % 7 == 0
    # strictly below at the stopping snapshot, not below at any earlier one
    assert res.snapshots[-1].F_S < 1e-4
    for s in res.snapshots[:-1]:
        assert s.F_S >= 1e-4


def redrawn_batches(cfg, n, b, steps):
    # the run's batch rows, redrawn from a fresh stream of its seed; each is
    # the per-step sample_batch call it stands for
    rows = draw_batches(RngStream(cfg.seed, STREAM_BATCH), n, b, steps)
    rng = RngStream(cfg.seed, STREAM_BATCH)
    for row in rows:
        assert np.array_equal(row, sample_batch(rng, n, b))
    return rows


def run_call_starts(steps, every, b):
    """The steps at which train's interval runner starts a run call of the step kernel."""
    per_call = max(1, optim.BATCH_BLOCK_ROWS // b)
    return [s for t in range(0, steps, every) for s in range(t, min(t + every, steps), per_call)]


def linear_replay(spec, w0, S, cfg, res):
    """The run's steps one at a time, as tests/linear_reference.py's (weights, norms, tol)."""
    batches = redrawn_batches(cfg, S.n, res.batch_size, res.stopped_at)[:, None]
    return linear_reference(spec, [w0], [S], batches, res.etas[:, None],
                            blocks=run_call_starts(res.stopped_at, cfg.snapshot_every,
                                                   res.batch_size))


def assert_run_replays_through_step(spec, w0, S, cfg, res, rec):
    # replaying the redrawn rows one out-of-place step at a time reproduces
    # every stored snapshot and the final weights: bitwise for an MLP, and
    # within the derived tolerance of tests/linear_reference.py for the
    # linear model, whose blocks run in chunks of triangular solves
    at = {snap.t: k for k, snap in enumerate(rec.snapshots)}
    assert rec.weights[0].tobytes() == w0.tobytes()
    assert res.etas.tolist() == [lr_at(cfg.schedule, t) for t in range(res.stopped_at)]
    if spec.kind == "linear":
        if res.stopped_at:
            weights, _, tol = linear_replay(spec, w0, S, cfg, res)
            for t, k in at.items():
                assert t == 0 or np.linalg.norm(rec.weights[k] - weights[t, 0]) <= tol[t - 1, 0]
            assert np.linalg.norm(res.w_final - weights[-1, 0]) <= tol[-1, 0]
        return
    w = w0.copy()
    for t, batch in enumerate(redrawn_batches(cfg, S.n, res.batch_size, res.stopped_at)):
        w = step(spec, w, S, cfg, t, batch)
        if t + 1 in at:
            assert rec.weights[at[t + 1]].tobytes() == w.tobytes()
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
    cfg = OptimConfig(batch_size=1,
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
    assert res.batch_size == 1
    assert_run_replays_through_step(spec, w0, S, cfg, res, rec)


def test_mlp_batch_ten_training_replays_through_step():
    spec, w0, S, Sp = toy_parts(n=25, kind="mlp")
    cfg = OptimConfig(batch_size=10,
                      schedule=Schedule("constant", eta0=0.1),
                      max_steps=53, snapshot_every=7, seed=11)
    rec = TrajectoryRecorder(spec, S, Sp)
    res = train(spec, w0, S, Sp, cfg, rec)
    assert res.stopped_at == 53 and res.batch_size == 10
    assert_run_replays_through_step(spec, w0, S, cfg, res, rec)


@pytest.mark.parametrize("stop", [False, True])
def test_block_stream_rows_and_replay_across_block_edges(monkeypatch, stop):
    # blocks of three 5-step intervals over 53 steps: the last block and its
    # last interval are short, and an early stop at 40 drops the rest of the
    # block drawn at 30
    monkeypatch.setattr(optim, "BATCH_BLOCK_ROWS", 16)
    spec, w0, S, Sp = toy_parts(n=25, kind="mlp")
    cfg = OptimConfig(batch_size=6,
                      schedule=Schedule("constant", eta0=0.1),
                      max_steps=53, snapshot_every=5, seed=11)
    if stop:
        # a threshold below every earlier snapshot's F_S and above the ninth's
        losses = [snap.F_S for snap in train(spec, w0, S, None, cfg).snapshots]
        assert losses[8] < min(losses[:8])
        cfg = dataclasses.replace(cfg, stop_train_loss=(losses[8] + min(losses[:8])) / 2)
    rec = TrajectoryRecorder(spec, S, Sp)
    res = train(spec, w0, S, Sp, cfg, rec)
    assert res.stopped_at == (40 if stop else 53)
    assert_run_replays_through_step(spec, w0, S, cfg, res, rec)


def test_block_stream_draws_only_the_blocks_a_run_takes(monkeypatch):
    # max_steps far beyond memory: a stop at t = 0 draws nothing, and a stop
    # at t = 12 has drawn two blocks of two 4-step intervals
    monkeypatch.setattr(optim, "BATCH_BLOCK_ROWS", 9)
    drawn = []

    def counted(rng, n, b, k):
        drawn.append(k)
        return draw_batches(rng, n, b, k)
    monkeypatch.setattr(optim, "draw_batches", counted)
    spec, w0, S, _ = toy_parts(n=25, kind="mlp")
    cfg = OptimConfig(batch_size=6,
                      schedule=Schedule("constant", eta0=0.1),
                      max_steps=10 ** 9, stop_train_loss=1e300, snapshot_every=4, seed=2)
    res = train(spec, w0, S, None, cfg)
    assert res.stopped_at == 0 and res.etas.size == 0 and drawn == []

    cfg = dataclasses.replace(cfg, stop_train_loss=0.5)
    res = train(spec, w0, S, None, cfg,
                lambda t, epoch, eta, w, stats: SimpleNamespace(F_S=0.0 if t == 12 else 1.0))
    assert res.stopped_at == 12 and drawn == [8, 8]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), b_frac=st.floats(0.0, 1.0), horizon=st.integers(0, 120),
       every=st.integers(1, 30), block_rows=st.integers(1, 20),
       seed=st.integers(0, 2 ** 16))
def test_interval_batches_are_whole_intervals_of_the_sample_batch_stream(
        n, b_frac, horizon, every, block_rows, seed):
    # every may exceed the block size, and horizon need not be a multiple of it
    b = 1 + int(b_frac * (n - 1))
    ks = []

    def counted(rng, n_, b_, k):
        ks.append(k)
        return draw_batches(rng, n_, b_, k)

    rng = RngStream(seed, STREAM_BATCH)
    with mock.patch.object(optim, "BATCH_BLOCK_ROWS", block_rows), \
            mock.patch.object(optim, "draw_batches", counted):
        intervals = list(optim._interval_batches(rng, n, b, horizon, every))
    starts = range(0, horizon, every)
    assert [len(rows) for rows in intervals] == [min(every, horizon - t) for t in starts]
    per_block = every * max(1, block_rows // every)
    assert ks == [min(per_block, horizon - t) for t in range(0, horizon, per_block)]
    oracle = RngStream(seed, STREAM_BATCH)
    rows = [row for block in intervals for row in block]
    assert len(rows) == horizon
    for row in rows:
        assert np.array_equal(row, sample_batch(oracle, n, b))
    assert (repr(rng.generator().bit_generator.state)
            == repr(oracle.generator().bit_generator.state))


def test_a_long_linear_interval_holds_one_block_of_weight_history(monkeypatch):
    # one 2 000-step interval at b = 1 runs as 40 gathered blocks of 50 steps:
    # the linear steps' weight history is one block's 51 rows, 122 KB here,
    # where a history of the whole interval would be 4.8 MB
    monkeypatch.setattr(optim, "BATCH_BLOCK_ROWS", 50)
    R, P, n, k = 3, 100, 50, 2000
    S, _, _ = generate_toy(ToyConfig(n, n, P, seed=0))
    spec = linear_spec(P)
    cfg = OptimConfig(batch_size=1, schedule=Schedule("constant", eta0=1e-3),
                      max_steps=k, snapshot_every=k, seed=0)
    recorder = lambda t, epoch, eta, w, stats: SimpleNamespace(F_S=1.0)  # noqa: E731
    tracemalloc.start()
    try:
        results = train([spec] * R, [np.zeros(P)] * R, [S] * R, None, [cfg] * R,
                        [recorder] * R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [res.stopped_at for res in results] == [k] * R
    block = 51 * R * P * 8 + 50 * R * (P + 1) * 8  # the history and the gathered operands
    stack = R * n * P * 8  # the bound features
    per_step = 8 * k * R * 8  # the interval's rows, rates and norms, a few floats a step
    assert peak < block + stack + per_step  # about 0.75 MB


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 30), b_frac=st.floats(0.0, 1.0),
       max_steps=st.integers(0, 60), every=st.integers(1, 15),
       stop_frac=st.none() | st.floats(0.01, 1.5), seed=st.integers(0, 2 ** 16))
def test_interval_loop_snapshots_records_and_batches(n, b_frac, max_steps, every,
                                                     stop_frac, seed):
    # any batch size and cadence, max_steps a multiple of the cadence or not,
    # with or without an early stop (a threshold above the initial loss
    # stops at step 0)
    b = 1 + int(b_frac * (n - 1))
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, 3))
    S = Dataset(X, X @ gen.standard_normal(3))
    spec = linear_spec(3)
    w0 = init_params(spec, RngStream(seed, 5))
    stop = None if stop_frac is None else stop_frac * 0.5 * float(np.mean(S.labels ** 2))
    cfg = OptimConfig(batch_size=b,
                      schedule=Schedule("constant", eta0=0.1), max_steps=max_steps,
                      stop_train_loss=stop, snapshot_every=every, seed=seed)
    res = train(spec, w0, S, None, cfg)
    ts = [snap.t for snap in res.snapshots]
    cadence = list(range(0, max_steps, every)) + [max_steps]
    assert ts == cadence[:len(ts)]
    assert ts[-1] == res.stopped_at
    if stop is None:
        assert ts == cadence
    else:
        assert all(snap.F_S >= stop for snap in res.snapshots[:-1])
        assert res.stopped_at == max_steps or res.snapshots[-1].F_S < stop
    assert res.etas.shape == (res.stopped_at,) and res.batch_size == b
    if res.stopped_at:
        # the intervals run in chunks of triangular solves: within the derived
        # tolerance of the per-step replay
        weights, _, tol = linear_replay(spec, w0, S, cfg, res)
        assert np.linalg.norm(res.w_final - weights[-1, 0]) <= tol[-1, 0]
    else:
        assert res.w_final.tobytes() == w0.tobytes()


def test_max_steps_zero_records_only_the_initial_point():
    spec, w0, S, Sp = toy_parts()
    cfg = OptimConfig(batch_size=None,
                      schedule=Schedule("constant", eta0=0.05), max_steps=0)
    res = train(spec, w0, S, Sp, cfg)
    assert res.stopped_at == 0
    assert [s.t for s in res.snapshots] == [0]


def test_train_propagates_divergence_with_step_index():
    spec, w0, S, Sp = toy_parts()
    cfg = OptimConfig(batch_size=None,
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
    cfg = OptimConfig(batch_size=5,
                      schedule=Schedule("constant", eta0=0.05),
                      max_steps=12, snapshot_every=4)
    res = train(spec, w0, S, Sp, cfg)
    assert res.stopped_at == 12
    assert [s.t for s in res.snapshots] == [0, 4, 8, 12]


def test_train_does_not_mutate_the_initial_vector():
    spec, w0, S, Sp = toy_parts()
    w0_copy = w0.copy()
    cfg = OptimConfig(batch_size=None,
                      schedule=Schedule("constant", eta0=0.05), max_steps=5)
    train(spec, w0, S, Sp, cfg)
    assert np.array_equal(w0, w0_copy)
    # the MLP SGD run updates its own copy in place; what the recorder kept
    # and the returned weights are separate arrays
    spec, w0, S, Sp = toy_parts(kind="mlp")
    w0_copy = w0.copy()
    cfg = OptimConfig(batch_size=5,
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
    cfg = OptimConfig(batch_size=5,
                      schedule=Schedule("constant",
                                        eta0=1e4 if fault == "huge_rate" else 0.05),
                      max_steps=200, snapshot_every=2, seed=4)
    stored = {}

    def recorder(t, epoch, eta, w, stats):
        stored[t] = w.copy()

    with np.errstate(all="ignore"):
        with pytest.raises(DivergedError) as run:
            train(spec, w0, S, None, cfg, recorder)
        rng = RngStream(cfg.seed, STREAM_BATCH)
        w = w0.copy()
        with pytest.raises(DivergedError) as replay:
            for t in range(cfg.max_steps):
                assert t not in stored or stored[t].tobytes() == w.tobytes()
                w = step(spec, w, S, cfg, t, sample_batch(rng, S.n, 5))
    assert 0 < run.value.t == replay.value.t
    assert not run.value.param_norm <= optim.PARAM_NORM_CAP
    assert max(stored) <= run.value.t
    assert all(np.all(np.isfinite(w)) for w in stored.values())


def test_train_binds_its_step_once(monkeypatch):
    # the step's checks and layer views are bound once per run: their count
    # does not grow with the number of steps
    spec, w0, S, _ = toy_parts(kind="mlp")
    counts = {}
    for name in ("unflatten", "_layer_views", "_check_inputs", "_flatten"):
        def counted(*args, _real=getattr(models, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(models, name, counted)

    def calls_per_run(max_steps, runs=1):
        counts.clear()
        cfg = OptimConfig(batch_size=5, max_steps=max_steps,
                          snapshot_every=max_steps)
        if runs == 1:
            train(spec, w0, S, None, cfg, lambda t, epoch, eta, w, stats: None)
        else:
            train([spec] * runs, [w0] * runs, [S] * runs, None, [cfg] * runs,
                  [lambda t, epoch, eta, w, stats: None] * runs)
        return dict(counts)

    # two sets of views: the weights' and the gradient buffer's
    assert calls_per_run(2) == calls_per_run(40) == {
        "_layer_views": 2, "_check_inputs": 1}
    # a stack checks each run's inputs once and binds one set of stacked views
    assert calls_per_run(2, runs=3) == calls_per_run(40, runs=3) == {
        "_layer_views": 2, "_check_inputs": 3}


def test_a_stack_of_recorders_runs_one_snapshot_pass_per_snapshot_time(monkeypatch):
    # whatever the recorders (TrajectoryRecorders with and without a holdout,
    # plain callables), train runs one stacked S-side pass per snapshot time
    # over the live stack and no unstacked S pass; each holdout recorder
    # makes one holdout pass a snapshot, without norms; and every recorder
    # is called once a snapshot, with its row. Run 1 stops at t = 0
    passes, calls = [], []
    real_pass, real_call = models._snapshot_pass, TrajectoryRecorder.__call__

    def counted_pass(spec, w, X, t, norms=True, **kwargs):
        passes.append((len(w) if w.ndim == 2 else None, norms))
        return real_pass(spec, w, X, t, norms, **kwargs)

    def counted_call(self, t, *args, stats=None):
        calls.append((recs.index(self), t, stats is not None))
        return real_call(self, t, *args, stats=stats)

    def plain(t, epoch, eta, w, stats):
        calls.append((3, t, stats is not None))
        return SimpleNamespace(F_S=float(stats[0]))

    monkeypatch.setattr(models, "_snapshot_pass", counted_pass)
    monkeypatch.setattr(TrajectoryRecorder, "__call__", counted_call)
    R, every, horizon = 4, 5, 20
    times = range(0, horizon + 1, every)
    spec, runs = stack_runs("mlp", 12, 4, horizon, every, ["run", "stop0", "run", "run"],
                            seed=5)
    recs = [make_recorder() for *_, make_recorder in runs[:2]]
    recs += [runs[2][3](Sp=None), plain]
    outs = train([spec] * R, [w0 for _, w0, *_ in runs], [S for S, *_ in runs], None,
                 [cfg for _, _, cfg, _ in runs], recs)
    assert [out.stopped_at for out in outs] == [horizon, 0, horizon, horizon]
    assert [p for p in passes if p[0] is not None] == (
        [(R, True)] + [(R - 1, True)] * (len(times) - 1))
    assert [p for p in passes if p[0] is None] == [(None, False)] * (len(times) + 1)
    assert calls == [(r, t, True) for t in times for r in range(R) if r != 1 or t == 0]


def test_a_recorder_under_train_records_the_run_it_is_handed():
    # the S-side series, the complexity's n included, come from the row of
    # the run trained, not from the recorder's own S
    spec, w0, S, Sp = toy_parts(n=20)
    cfg = OptimConfig(batch_size=5, max_steps=12, snapshot_every=4)
    own = TrajectoryRecorder(spec, S, Sp)
    other = TrajectoryRecorder(spec, Dataset(S.features[:7], S.labels[:7]), Sp)
    train(spec, w0, S, None, cfg, own)
    train(spec, w0, S, None, cfg, other)
    assert ([repr(dataclasses.astuple(snap)) for snap in other.snapshots]
            == [repr(dataclasses.astuple(snap)) for snap in own.snapshots])


# -- stacked runs ------------------------------------------------------------

STACK_KINDS = ("linear", "mlp", "mlp2")
# The constant rate of a "diverge" run: it blows past PARAM_NORM_CAP within a
# few steps, mid-interval for the fixed seed of the test below (the linear
# model grows geometrically, the MLP by eta * grad a step).
DIVERGING_RATE = {"linear": 60.0, "mlp": 1e9, "mlp2": 1e9}


def stack_spec(kind, d=3):
    if kind == "linear":
        return linear_spec(d)
    return mlp_spec(d, (4,) if kind == "mlp" else (3, 2))


class FailingRecorder(TrajectoryRecorder):
    """A recorder whose snapshot at step fail_at raises NumericDomainError."""

    def __init__(self, *args, fail_at, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_at = fail_at

    def __call__(self, t, epoch, eta, w, stats=None):
        if t == self.fail_at:
            raise NumericDomainError(f"recorder fault at step {t}")
        return super().__call__(t, epoch, eta, w, stats)


def stack_runs(kind, n, b, max_steps, every, fates, seed):
    """One (S, S', w0, cfg, make_recorder) per fate, all of one spec, n and b.

    fate is "run" (no early stop), "stop0" (stops at t = 0), a float
    fraction (stops once F_S falls below that fraction of its initial
    value, if it does), "diverge", or ("fail", t) for a recorder that
    raises NumericDomainError at snapshot step t.
    """
    spec = stack_spec(kind)
    gen = np.random.default_rng(seed)
    runs = []
    for r, fate in enumerate(fates):
        X, Xp = gen.standard_normal((n, 3)), gen.standard_normal((5, 3))
        teacher = gen.standard_normal(3)
        S, Sp = Dataset(X, X @ teacher), Dataset(Xp, Xp @ teacher)
        w0 = init_params(spec, RngStream(seed + r, 5))
        if kind == "linear":
            w0 = w0 + gen.standard_normal(3) * 0.1
        stop = None
        if fate == "stop0":
            stop = 1e300
        elif isinstance(fate, float):
            f0 = TrajectoryRecorder(spec, S, None)(0, 0, 0.0, w0).F_S
            stop = fate * f0
        eta = DIVERGING_RATE[kind] if fate == "diverge" else float(gen.uniform(0.02, 0.2))
        cfg = OptimConfig(batch_size=b, schedule=Schedule("constant", eta0=eta),
                          max_steps=max_steps, stop_train_loss=stop,
                          snapshot_every=every, seed=seed + 7 * r)
        fail_at = fate[1] if isinstance(fate, tuple) else None

        def make_recorder(S=S, Sp=Sp, fail_at=fail_at):
            if fail_at is None:
                return TrajectoryRecorder(spec, S, Sp)
            return FailingRecorder(spec, S, Sp, fail_at=fail_at)

        runs.append((S, w0, cfg, make_recorder))
    return spec, runs


def outcome_bytes(out, rec):
    """Everything a run left, as bytes and reprs: bitwise equal or not."""
    if isinstance(out, DivergedError):
        head = ("diverged", out.t, repr(out.param_norm))
    elif isinstance(out, NumericDomainError):
        head = ("numeric", str(out))
    else:
        head = ("done", out.stopped_at, out.batch_size, out.etas.dtype.str,
                out.etas.tobytes(), out.w_final.tobytes(),
                [repr(dataclasses.astuple(snap)) for snap in out.snapshots])
    return (head, [repr(dataclasses.astuple(snap)) for snap in rec.snapshots],
            [w.tobytes() for w in rec.weights], list(rec.flags))


def assert_stack_matches_solo_runs(spec, runs):
    solo = []
    for S, w0, cfg, make_recorder in runs:
        rec = make_recorder()
        try:
            out = train(spec, w0, S, None, cfg, rec)
        except (DivergedError, NumericDomainError) as exc:
            out = exc
        solo.append(outcome_bytes(out, rec))
    recs = [make_recorder() for *_, make_recorder in runs]
    w0s = [w0.copy() for _, w0, *_ in runs]
    outs = train([spec] * len(runs), w0s, [S for S, *_ in runs], None,
                 [cfg for _, _, cfg, _ in runs], recs)
    assert len(outs) == len(runs)
    for k, (out, rec) in enumerate(zip(outs, recs)):
        assert outcome_bytes(out, rec) == solo[k], f"run {k}"
    for w0, (_, w0_given, *_) in zip(w0s, runs):
        assert w0.tobytes() == w0_given.tobytes()
    return outs


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(STACK_KINDS), n=st.integers(2, 12),
       b_pick=st.sampled_from(["one", "mid", "full"]), max_steps=st.integers(0, 30),
       every=st.integers(1, 7), seed=st.integers(0, 2 ** 16),
       fates=st.lists(st.sampled_from(["run", "stop0", "diverge"])
                      | st.floats(0.2, 1.0)
                      | st.tuples(st.just("fail"), st.integers(0, 30)),
                      min_size=1, max_size=4))
def test_stacked_runs_are_bitwise_their_solo_runs(kind, n, b_pick, max_steps, every,
                                                   seed, fates):
    # every run's snapshots, recorded weights, flags, step sizes and final
    # weights, or its error, equal those of training it alone, whatever the
    # other runs of the stack do and whenever they leave it
    b = {"one": 1, "mid": max(1, n // 2), "full": n}[b_pick]
    spec, runs = stack_runs(kind, n, b, max_steps, every, fates, seed)
    with np.errstate(all="ignore"):  # a diverging run warns alike alone and stacked
        assert_stack_matches_solo_runs(spec, runs)


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_stack_outlives_a_stop_at_zero_a_mid_interval_divergence_and_a_recorder_fault(kind):
    # four runs that leave at different times: at t = 0, by divergence
    # inside an interval, by a recorder fault at step 10 and at the end; the
    # survivors stay bitwise their solo runs through every rebinding
    every = 5
    fates = ["stop0", "diverge", ("fail", 10), "run"]
    spec, runs = stack_runs(kind, 12, 4, 40, every, fates, seed=3)
    with np.errstate(all="ignore"):
        outs = assert_stack_matches_solo_runs(spec, runs)
    stopped, diverged, failed, done = outs
    assert stopped.stopped_at == 0 and len(stopped.snapshots) == 1
    assert isinstance(diverged, DivergedError) and diverged.t % every != 0
    assert isinstance(failed, NumericDomainError)
    assert done.stopped_at == 40


def test_stack_reports_a_row_that_crosses_the_cap_then_overflows_mid_interval():
    # the linear "diverge" run passes PARAM_NORM_CAP a few steps into a long
    # interval and keeps stepping to a non-finite norm before the interval's
    # one guard check: that check names the crossing step and its finite
    # norm, no numpy warning escapes, and the other rows are bitwise their
    # solo runs
    every, b = 200, 4
    spec, runs = stack_runs("linear", 12, b, 2 * every, every, ["run", "diverge", "run"],
                            seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = assert_stack_matches_solo_runs(spec, runs)
    S, w0, cfg, _ = runs[1]
    rng = RngStream(cfg.seed, STREAM_BATCH)
    w, norms = w0, []
    with np.errstate(all="ignore"):
        for _ in range(every):
            batch = sample_batch(rng, S.n, b)
            w = w - cfg.schedule.eta0 * grad_mean_xy(spec, w, S.features[batch],
                                                     S.labels[batch])
            norms.append(math.sqrt(w @ w))
    crossing = next(t for t, norm in enumerate(norms) if not norm <= optim.PARAM_NORM_CAP)
    assert 0 < crossing < every - 1
    assert math.isfinite(norms[crossing]) and not math.isfinite(norms[-1])
    diverged = outs[1]
    assert isinstance(diverged, DivergedError)
    assert (diverged.t, diverged.param_norm) == (crossing, norms[crossing])
    assert outs[0].stopped_at == outs[2].stopped_at == 2 * every


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_a_run_whose_forward_pass_overflows_fails_alone_in_the_stack(kind):
    # run 1's sample 2 holds 1e308 in every feature, and its forward value
    # overflows to inf at the first snapshot: the linear weights are ones;
    # an MLP's tiny first layer and unit middle layers pass the other
    # samples on as near 0 but saturate every hidden unit to 1 on sample 2,
    # which the last layer's 1e308 weights sum past the largest float. That
    # run fails with the error and message of training it alone and of its
    # unstacked pass, the other runs stay bitwise their solo runs, and no
    # RuntimeWarning escapes the stacked pass
    spec, runs = stack_runs(kind, 12, 4, 20, 5, ["run", "run", "run"], seed=11)
    S, w0, cfg, make_recorder = runs[1]
    X = S.features.copy()
    X[2] = 1e308
    bad, w0 = Dataset(X, S.labels), np.ones_like(w0)
    layers = unflatten(spec, w0)
    for l, (mat, bias) in enumerate(layers):
        mat *= 1e308 if l == len(layers) - 1 else 1e-300 if l == 0 else 20.0
        bias[:] = 0.0
    runs[1] = (bad, w0, cfg, lambda: make_recorder(S=bad))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = assert_stack_matches_solo_runs(spec, runs)
        with pytest.raises(NumericDomainError) as unstacked:
            loss_grad_stats(spec, w0, bad)
    assert isinstance(outs[1], NumericDomainError)
    assert str(outs[1]) == str(unstacked.value) == "non-finite forward value at sample 2"
    assert outs[0].stopped_at == outs[2].stopped_at == 20


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_an_interval_longer_than_a_batch_block_is_gathered_in_blocks(kind, monkeypatch):
    # 23-step intervals of batch 3 over blocks of 12 rows, 4 steps: the final
    # weights are those of 3-step intervals, and no gather holds more than a
    # block. They are bitwise for an MLP; a linear run's blocks run in chunks
    # of triangular solves, so each side is held to the derived tolerance of
    # its per-step replay
    monkeypatch.setattr(optim, "BATCH_BLOCK_ROWS", 12)
    gathered = []
    real_bind = optim.bind_step_kernel

    def bind(*args):
        W, gather, update, snapshot = real_bind(*args)

        def counted(batches):
            xs, ts = gather(batches)
            assert xs.shape[1:3] == ts.shape[1:] == (2, 3)
            gathered.append(len(xs))
            return xs, ts

        return W, counted, update, snapshot

    monkeypatch.setattr(optim, "bind_step_kernel", bind)
    spec, runs = stack_runs(kind, 12, 3, 50, 23, ["run", "run"], seed=8)
    finals = {}
    for every in (23, 3):
        outs = train([spec] * 2, [w0 for _, w0, *_ in runs], [S for S, *_ in runs], None,
                     [dataclasses.replace(cfg, snapshot_every=every) for *_, cfg, _ in runs],
                     [lambda t, epoch, eta, w, stats: SimpleNamespace(F_S=1.0)] * 2)
        finals[every] = [out.w_final.tobytes() for out in outs]
        if every == 23:
            assert gathered == [4, 4, 4, 4, 4, 3] * 2 + [4]
            assert all(out.stopped_at == 50 for out in outs)
        if kind == "linear":
            for (S, w0, cfg, _), out in zip(runs, outs):
                cfg = dataclasses.replace(cfg, snapshot_every=every)
                weights, _, tol = linear_replay(spec, w0, S, cfg, out)
                assert np.linalg.norm(out.w_final - weights[-1, 0]) <= tol[-1, 0]
    if kind != "linear":
        assert finals[23] == finals[3]


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_a_full_batch_step_reuses_the_snapshot_gradient_bitwise(kind, monkeypatch):
    # at b = n each interval's first step may take the gradient the snapshot
    # pass left in the kernel's buffer: every run is bitwise the stack
    # trained with reuse off, through an early stop, a divergence and a
    # recorder fault that rebind the stack, and no b < n block reuses
    real_bind = optim.bind_step_kernel
    blocks = []

    def bind(*args, allow=True):
        W, gather, run, snapshot = real_bind(*args)

        def spied(xs, ts, rates, sq, reuse=False):
            blocks.append((xs.shape[2], reuse))
            run(xs, ts, rates, sq, reuse and allow)

        return W, gather, spied, snapshot

    fates = [0.5, "diverge", ("fail", 6), "run"]
    for b in (12, 5):
        spec, runs = stack_runs(kind, 12, b, 30, 3, fates, seed=5)
        result = {}
        for allow in (False, True):
            monkeypatch.setattr(optim, "bind_step_kernel",
                                lambda *args, allow=allow: bind(*args, allow=allow))
            recs = [make_recorder() for *_, make_recorder in runs]
            with np.errstate(all="ignore"):
                outs = train([spec] * len(runs), [w0 for _, w0, *_ in runs],
                             [S for S, *_ in runs], None, [cfg for *_, cfg, _ in runs],
                             recs)
            result[allow] = [outcome_bytes(out, rec) for out, rec in zip(outs, recs)]
        assert result[True] == result[False]
    assert {reuse for b, reuse in blocks if b < 12} == {False}
    assert {reuse for b, reuse in blocks if b == 12} == {False, True}


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_a_recorder_cannot_write_into_its_snapshot_row(kind):
    # a full-batch run's next step reads the row's gradient from the
    # kernel's buffer: a recorder's write into it raises instead of
    # changing the run
    spec, runs = stack_runs(kind, 12, 12, 6, 3, ["run"], seed=5)
    S, w0, cfg, _ = runs[0]

    def recorder(t, epoch, eta, w, stats):
        stats[1][...] = 0

    with pytest.raises(ValueError, match="read-only"):
        train(spec, w0, S, None, cfg, recorder)


@pytest.mark.parametrize("field, change", [
    ("spec", lambda run: {"spec": mlp_spec(3, (5,))}),
    ("n", lambda run: {"S": Dataset(run["S"].features[:-1], run["S"].labels[:-1])}),
    ("batch size", lambda run: {"cfg": dataclasses.replace(run["cfg"], batch_size=3)}),
    ("max_steps", lambda run: {"cfg": dataclasses.replace(run["cfg"], max_steps=9)}),
    ("snapshot_every", lambda run: {"cfg": dataclasses.replace(run["cfg"],
                                                               snapshot_every=2)}),
])
def test_stack_rejects_runs_of_another_shape(field, change):
    spec, w0, S, _ = toy_parts(kind="mlp")
    cfg = OptimConfig(batch_size=5, max_steps=10, snapshot_every=5)
    run = {"spec": spec, "w0": w0, "S": S, "cfg": cfg}
    other = {**run, **change(run)}
    rec = lambda t, epoch, eta, w, stats: None  # noqa: E731
    with pytest.raises(InvalidArgumentError, match=field):
        train([run["spec"], other["spec"]], [w0, w0], [run["S"], other["S"]], None,
              [run["cfg"], other["cfg"]], [rec, rec])


def test_stack_rejects_ragged_or_holdout_arguments():
    spec, w0, S, Sp = toy_parts()
    cfg = OptimConfig(batch_size=5, max_steps=4)
    rec = lambda t, epoch, eta, w, stats: None  # noqa: E731
    with pytest.raises(InvalidArgumentError, match="one entry per run"):
        train([spec, spec], [w0, w0], [S], None, [cfg, cfg], [rec, rec])
    with pytest.raises(InvalidArgumentError, match="one entry per run"):
        train([], [], [], None, [], [])
    with pytest.raises(InvalidArgumentError, match="holdout"):
        train([spec], [w0], [S], [Sp], [cfg], [rec])
    with pytest.raises(InvalidArgumentError, match="recorder"):
        train([spec], [w0], [S], None, [cfg])
