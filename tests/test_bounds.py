"""Bound formulas, constant estimation, and the report CSV."""

import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajbound import bounds, trajectory
from trajbound.bounds import (
    STABILITY_KINDS,
    BoundReport,
    ConstantEstimates,
    bound_stability_baseline,
    bound_trajectory_main,
    bound_trajectory_relaxed,
    bound_trajectory_smooth,
    estimate_constants,
    reevaluate_bound,
    top_hessian_eig,
    write_bounds_csv,
)
from trajbound.config import default_config
from trajbound.data import ToyConfig, generate_toy
from trajbound.errors import IncompleteTrajectoryError, InvalidArgumentError
from trajbound.experiments import assemble_run
from trajbound.models import init_params, linear_spec, mlp_spec, per_sample_grads
from trajbound.numerics import STREAM_MOMENT, RngStream
from trajbound.optim import OptimConfig, Schedule, draw_batches, train
from trajbound.trajectory import (
    SubsetEstimatorConfig,
    TrajectoryRecorder,
    TrajectorySnapshot,
    covariance_ratio,
    replay_trajectory,
    signed_mean_norm_stats,
    subset_ratio_max,
)


def snap(t, F_S=1.0, gnorm=1.0, trace=0.0, C_cum=0.0, gnorm_sp=1.0, eta=0.1):
    return TrajectorySnapshot(
        t=t, epoch=0, eta_t=eta, F_S=F_S, F_Sprime=F_S, grad_norm_S=gnorm,
        grad_norm_Sprime=gnorm_sp, grad_dot=gnorm * gnorm_sp,
        trace_sigma=trace, delta_t=eta * gnorm, C_cum=C_cum,
        gamma_tilde=None if gnorm == 0.0 else gnorm_sp / gnorm,
    )


INVERSE_TIME = Schedule("inverse_time", c=1.0, beta=2.0)  # consts()' beta_hat


def consts(**overrides):
    base = dict(L_hat=2.0, beta_hat=2.0, M2_sq=4.0, M4_fourth=16.0, gamma=1.5,
                gamma_prime=2.0, V_m=3.0, eta_m=0.1, zeta=0.0, T0=0, n=4,
                T=100, b=4)
    base.update(overrides)
    return ConstantEstimates(**base)


def small_run(seed=0, steps=30, mode="sgd", batch=4, kind="mlp"):
    S, Sp, _ = generate_toy(ToyConfig(12, 12, 3, seed=seed))
    spec = mlp_spec(3, (4,)) if kind == "mlp" else linear_spec(3)
    w0 = init_params(spec, RngStream(seed, 5))
    est = SubsetEstimatorConfig(k_samples=64, seed=seed)
    rec = TrajectoryRecorder(spec, S, Sp)
    cfg = OptimConfig(batch_size=None if mode == "gd" else batch,
                      schedule=Schedule("constant", eta0=0.05),
                      max_steps=steps, snapshot_every=1, seed=seed)
    res = train(spec, w0, S, Sp, cfg, rec)
    return spec, S, Sp, est, rec, res


# -- constant estimation --------------------------------------------------------

def test_estimate_constants_on_a_full_batch_run():
    spec, S, Sp, est, rec, res = small_run(mode="gd", steps=20)
    c = estimate_constants(spec, rec.weights, rec.snapshots, res.etas, res.batch_size,
                           S, cfg=est)
    assert c.n == S.n and c.T == 20 and c.b == S.n
    assert c.eta_m == 0.05
    assert c.gamma == max(s.gamma_tilde for s in rec.snapshots)
    assert c.gamma_prime >= c.gamma
    assert c.gamma_prime_envelope >= c.gamma_prime
    assert c.gamma_early <= c.gamma
    assert 0 <= c.T0 <= rec.snapshots[-1].t
    assert c.zeta >= 0.0
    assert math.isfinite(c.V_m) and c.V_m > 0

    l_max = 0.0
    m2 = 0.0
    inner = 0.0
    for w, s in zip(rec.weights, rec.snapshots):
        G = per_sample_grads(spec, w, S)
        l_max = max(l_max, float(np.max(np.linalg.norm(G, axis=1))))
        m2 = max(m2, s.grad_norm_S ** 2)
        inner = max(inner, subset_ratio_max(G, est))
    assert c.L_hat == pytest.approx(l_max)
    # full-batch runs use the exact gradient as the batch moment
    assert c.M2_sq == pytest.approx(m2)
    assert c.M4_fourth == pytest.approx(m2 * m2)
    assert c.gamma_prime == pytest.approx(max(1.0, inner) * c.gamma)


def test_estimate_constants_minibatch_moments_are_consistent():
    spec, S, Sp, est, rec, res = small_run(mode="sgd", batch=3, steps=15)
    c = estimate_constants(spec, rec.weights, rec.snapshots, res.etas, res.batch_size,
                           S, cfg=est)
    assert c.b == 3
    assert c.M2_sq > 0
    assert c.M4_fourth >= c.M2_sq ** 2  # second moments dominate squared means
    again = estimate_constants(spec, rec.weights, rec.snapshots, res.etas, res.batch_size,
                               S, cfg=est)
    assert c.M2_sq == again.M2_sq and c.M4_fourth == again.M4_fourth


def assert_moments_match_the_per_draw_loop(kind, batch):
    # the batched draws and means must reproduce the per-draw
    # choice + sort + mean + dot loop bit for bit
    spec, S, Sp, est, rec, res = small_run(mode="sgd", batch=batch, steps=15,
                                           kind=kind)
    c = estimate_constants(spec, rec.weights, rec.snapshots, res.etas, res.batch_size,
                           S, cfg=est)
    gen = RngStream(est.seed, STREAM_MOMENT).generator()
    m2 = m4 = 0.0
    for w in rec.weights:
        G = per_sample_grads(spec, w, S)
        sq = np.empty(bounds.K_BATCHES)
        for j in range(bounds.K_BATCHES):
            idx = np.sort(gen.choice(S.n, size=batch, replace=False))
            gb = np.mean(G[idx], axis=0)
            sq[j] = float(gb @ gb)
        m2 = max(m2, float(np.mean(sq)))
        m4 = max(m4, float(np.mean(sq * sq)))
    assert c.b == batch
    assert c.M2_sq == m2 and c.M4_fourth == m4


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_estimate_constants_batch_one_moments_match_the_per_draw_loop(kind):
    assert_moments_match_the_per_draw_loop(kind, 1)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("batch", [2, 5])
def test_estimate_constants_minibatch_moments_match_the_per_draw_loop(kind, batch):
    assert_moments_match_the_per_draw_loop(kind, batch)


def per_snapshot_constants(spec, weights, snapshots, etas, b, S, est):
    """The per-snapshot loop the blocked constants pass must reproduce bitwise.

    One (n, P) matrix per snapshot, signed_mean_norm_stats, subset_ratio_max
    and the batch-moment means of that snapshot's K_BATCHES draws; returns
    the fields of ConstantEstimates they feed, and the flags.
    """
    n = S.n
    k = 1 if b == n else bounds.K_BATCHES
    moment_idx = draw_batches(RngStream(est.seed, STREAM_MOMENT), n, b, len(weights) * k)
    l_hat = v_m = inner = envelope = m2 = m4 = 0.0
    flags = [] if len(etas) else ["no-steps: eta_m defaulted"]
    for i, (w, s) in enumerate(zip(weights, snapshots)):
        G = per_sample_grads(spec, w, S)
        gnorm = float(np.linalg.norm(np.mean(G, axis=0)))
        row_norms = np.sqrt(np.einsum("np,np->n", G, G))
        l_hat = max(l_hat, float(np.max(row_norms)))
        d_hat, _ = signed_mean_norm_stats(G, est)
        v_m = math.inf if d_hat == 0.0 or v_m == math.inf else max(v_m, gnorm / d_hat)
        if gnorm == 0.0:
            flags.append(f"gamma-prime: zero gradient at step {s.t} skipped")
        else:
            inner = max(inner, subset_ratio_max(G, est))
            envelope = max(envelope, float(np.max(row_norms)) / gnorm)
        means = G[moment_idx[i * k:(i + 1) * k]].mean(axis=1)
        sq = np.array([gb @ gb for gb in means])
        m2 = max(m2, float(np.mean(sq)))
        m4 = max(m4, float(np.mean(sq * sq)))
    gamma = max(s.gamma_tilde for s in snapshots if s.gamma_tilde is not None)
    return dict(L_hat=l_hat, V_m=v_m, gamma_prime=max(1.0, inner) * gamma,
                gamma_prime_envelope=max(1.0, envelope) * gamma, M2_sq=m2, M4_fourth=m4,
                flags=flags)


BLOCK = bounds.SNAPSHOT_BLOCK


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("n, k_samples", [(8, 1024), (12, 64)])  # exhaustive, sampled
@pytest.mark.parametrize("mode", ["gd", "sgd"])  # b = n, b = 3
def test_blocked_constants_are_bitwise_the_per_snapshot_loop(count, kind, n, k_samples,
                                                             mode):
    S, Sp, _ = generate_toy(ToyConfig(n, n, 3, seed=count))
    spec = mlp_spec(3, (4,)) if kind == "mlp" else linear_spec(3)
    est = SubsetEstimatorConfig(k_samples=k_samples, seed=count)
    rec = TrajectoryRecorder(spec, S, Sp)
    cfg = OptimConfig(batch_size=None if mode == "gd" else 3,
                      schedule=Schedule("constant", eta0=0.05),
                      max_steps=count - 1, snapshot_every=1, seed=count)
    res = train(spec, init_params(spec, RngStream(count, 5)), S, Sp, cfg, rec)
    assert len(rec.weights) == count
    c = estimate_constants(spec, rec.weights, rec.snapshots, res.etas, res.batch_size, S,
                           cfg=est)
    expected = per_snapshot_constants(spec, rec.weights, rec.snapshots, res.etas,
                                      res.batch_size, S, est)
    assert {key: getattr(c, key) for key in expected} == expected


@pytest.mark.parametrize("kind", ["linear", "mlp"])  # P = 3, P = 21
def test_constants_pass_runs_one_wide_product_per_sign_matrix_per_block(kind,
                                                                        monkeypatch):
    S, Sp, _ = generate_toy(ToyConfig(12, 12, 3, seed=4))
    spec = mlp_spec(3, (4,)) if kind == "mlp" else linear_spec(3)
    est = SubsetEstimatorConfig(k_samples=64, seed=4)
    rec = TrajectoryRecorder(spec, S, Sp)
    cfg = OptimConfig(batch_size=3, schedule=Schedule("constant", eta0=0.05),
                      max_steps=2 * BLOCK, snapshot_every=1, seed=4)
    res = train(spec, init_params(spec, RngStream(4, 5)), S, Sp, cfg, rec)
    products, blocks = [], []
    kernel, bind = trajectory._signed_sum_norms, bounds.bind_subset_norms

    def counted(rows, G):
        products.append(G.shape)
        return kernel(rows, G)

    def recording_bind(cfg, n):
        block = bind(cfg, n)

        def recorded(wide):
            out = block(wide)
            blocks.append((wide.copy(), *out))
            return out
        return recorded

    monkeypatch.setattr(trajectory, "_signed_sum_norms", counted)
    monkeypatch.setattr(bounds, "bind_subset_norms", recording_bind)
    estimate_constants(spec, rec.weights, rec.snapshots, res.etas, res.batch_size, S,
                       cfg=est)
    monkeypatch.undo()
    P = rec.weights[0].size
    # one (k, n) @ (n, c P) product per sign matrix (V, gamma') and block
    assert products == [(S.n, c, P) for c in (BLOCK, BLOCK, 1) for _ in range(2)]
    for i, (wide, d_hats, subset_max) in enumerate(blocks):
        for j in range(wide.shape[1]):
            G = per_sample_grads(spec, rec.weights[i * BLOCK + j], S)
            assert np.array_equal(wide[:, j], G)
            assert d_hats[j] == signed_mean_norm_stats(G, est)[0]
            denom = S.n * float(np.linalg.norm(np.mean(G, axis=0)))
            assert subset_max[j] / denom == subset_ratio_max(G, est)


def test_constants_pass_memory_stays_bounded_by_the_block():
    # toy_table's shape: n = 100, P = 20, 1024 sign rows, 201 snapshots. The
    # blocked pass holds one float64 sign buffer and one block's products
    # (about 2.9 MB at its tracemalloc peak with the sign draw, 2.3 MB
    # without); stacking the whole trajectory would need about 35 MB
    S, Sp, _ = generate_toy(ToyConfig(100, 100, 20, seed=0))
    spec = linear_spec(20)
    gen = np.random.default_rng(0)
    weights = list(np.cumsum(gen.standard_normal((201, 20)) * 0.01, axis=0))
    rec = TrajectoryRecorder(spec, S, Sp)
    snaps = [rec(100 * i, i, 0.01, w) for i, w in enumerate(weights)]
    trajectory._sign_rows.cache_clear()  # the first call of a process draws the signs
    tracemalloc.start()
    try:
        estimate_constants(spec, weights, snaps, np.full(20_000, 0.01), 1, S,
                           cfg=SubsetEstimatorConfig(k_samples=1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_estimate_constants_linear_smoothness_is_the_top_eigenvalue():
    S, Sp, _ = generate_toy(ToyConfig(10, 10, 4, seed=2))
    spec = linear_spec(4)
    w0 = np.zeros(4)
    rec = TrajectoryRecorder(spec, S, Sp)
    cfg = OptimConfig(batch_size=None,
                      schedule=Schedule("constant", eta0=0.05), max_steps=5,
                      snapshot_every=1)
    res = train(spec, w0, S, Sp, cfg, rec)
    c = estimate_constants(spec, rec.weights, rec.snapshots, res.etas, res.batch_size, S)
    hess = S.features.T @ S.features / S.n
    assert c.beta_hat == pytest.approx(float(np.max(np.linalg.eigvalsh(hess))))


def test_top_hessian_eig_is_the_largest_solve_over_the_weights():
    spec, S, _, _, rec, _ = small_run(mode="gd", steps=4)
    each = [top_hessian_eig(spec, S, [w]) for w in rec.weights]
    assert top_hessian_eig(spec, S, rec.weights) == max(each)


def test_non_positive_curvature_is_floored_only_in_the_constants(monkeypatch):
    # one smoothness routine serves both callers: the pre-training schedule
    # sees the raw eigenvalue and rejects it, estimate_constants floors it
    monkeypatch.setattr(bounds, "power_iteration_top_eig",
                        lambda apply, dim: (-1.0, np.zeros(dim)))
    spec, S, Sp, est, rec, res = small_run(mode="gd", steps=3)
    assert top_hessian_eig(spec, S, rec.weights) == -1.0
    c = estimate_constants(spec, rec.weights, rec.snapshots, res.etas, res.batch_size,
                           S, cfg=est)
    assert c.beta_hat == 0.0
    cfg = dataclasses.replace(default_config("toy_table"), seeds=(0,),
                              n_train=12, n_test=12, dim=3,
                              model_kind="mlp", hidden=(4,))
    with pytest.raises(InvalidArgumentError, match="beta > 0"):
        assemble_run(cfg, run_seed=0)


def test_estimate_constants_zeta_vanishes_when_holdout_is_the_train_set():
    # the ratio statistics come out of the recorded snapshots, so the
    # control run has to be recorded with S standing in for the holdout
    spec, S, _, est, rec, res = small_run(mode="gd", steps=10)
    control = replay_trajectory(spec, S, S, rec.weights,
                                [s.t for s in rec.snapshots],
                                [s.epoch for s in rec.snapshots],
                                [s.eta_t for s in rec.snapshots])
    c = estimate_constants(spec, control.weights, control.snapshots,
                           res.etas, res.batch_size, S, cfg=est)
    assert c.gamma == 1.0
    assert c.zeta == 0.0


def test_estimate_constants_takes_the_estimator_config_by_keyword_only():
    # the holdout argument is gone; a call still passing it must not bind
    # the holdout to cfg
    spec, S, Sp, est, rec, res = small_run(steps=2)
    args = (spec, rec.weights, rec.snapshots, res.etas, res.batch_size, S)
    with pytest.raises(TypeError):
        estimate_constants(*args, Sp, est)
    with pytest.raises(TypeError):
        estimate_constants(*args, est)


def test_estimate_constants_validation():
    spec, S, Sp, est, rec, res = small_run(steps=5)
    with pytest.raises(InvalidArgumentError):
        estimate_constants(spec, [], [], res.etas, res.batch_size, S, cfg=est)
    with pytest.raises(InvalidArgumentError):
        estimate_constants(spec, rec.weights[:-1], rec.snapshots, res.etas, res.batch_size,
                           S, cfg=est)
    for b in (0, S.n + 1):
        with pytest.raises(InvalidArgumentError, match="batch_size"):
            estimate_constants(spec, rec.weights, rec.snapshots, res.etas, b, S, cfg=est)


def test_estimate_constants_takes_etas_as_any_sequence():
    # the step sizes stay one float64 array: a list, a tuple and an array of
    # them give the same estimates, and eta_m is their largest as a float
    spec, S, Sp, est, rec, res = small_run(steps=6)
    etas = res.etas * np.linspace(1.0, 0.5, len(res.etas))  # the largest comes first
    args = (spec, rec.weights, rec.snapshots)
    runs = [estimate_constants(*args, form, res.batch_size, S, cfg=est)
            for form in (etas.tolist(), tuple(etas.tolist()), etas)]
    assert repr(runs[0]) == repr(runs[1]) == repr(runs[2])
    assert type(runs[0].eta_m) is float and runs[0].eta_m == etas[0] and runs[0].T == 6
    assert not any(f.startswith("no-steps") for f in runs[0].flags)
    for empty in ([], (), np.zeros(0)):
        c = estimate_constants(*args, empty, res.batch_size, S, cfg=est)
        assert type(c.eta_m) is float and c.eta_m == 0.0 and c.T == 0
        assert "no-steps: eta_m defaulted" in c.flags


# -- trajectory bounds ------------------------------------------------------------

def test_main_bound_is_the_three_factor_product():
    est = consts()
    snapshots = [snap(0), snap(1, C_cum=0.4)]
    rep = bound_trajectory_main(est, snapshots)
    assert rep.value == 2.0 * 3.0 * 0.4
    assert rep.method == "ours_main"
    assert rep.remainder_scale == est.eta_m
    assert rep.trajectory_aggregates == {"C_final": 0.4}
    assert "not added" in rep.notes
    with pytest.raises(IncompleteTrajectoryError):
        bound_trajectory_main(est, [])


def test_bounds_reject_a_trivial_mixing_ratio():
    est = consts(V_m=math.inf)
    snapshots = [snap(0)]
    for builder in (bound_trajectory_main,
                    lambda e, s: bound_trajectory_smooth(e, s, INVERSE_TIME),
                    bound_trajectory_relaxed):
        with pytest.raises(InvalidArgumentError, match="trivial"):
            builder(est, snapshots)
        # every trajectory bound refuses an empty trajectory first
        for e in (est, consts(beta_hat=2.0)):
            with pytest.raises(IncompleteTrajectoryError, match="at least one snapshot"):
                builder(e, [])


def test_smooth_bound_worked_example():
    est = consts(n=4, beta_hat=2.0, M2_sq=4.0, M4_fourth=16.0,
                 gamma_prime=2.0, V_m=3.0)
    snapshots = [
        snap(0, gnorm=1.0, trace=3.0),           # ratio term 1 + 3 = 4
        snap(1, gnorm=1.0, trace=0.0),           # ratio term 1
        snap(2, gnorm=1.0, trace=0.0, C_cum=0.5),
    ]
    rep = bound_trajectory_smooth(est, snapshots, INVERSE_TIME)
    inner = 4.0 / (4 * 4 * 1 ** 4) + 1.0 / (4 * 4 * 2 ** 4)
    term1 = 2.0 * 3.0 * 0.5
    term2 = 2.0 * 2.0 * 3.0 * math.sqrt(16.0) * math.sqrt(inner)
    term3 = 2.0 * 4.0 / 2.0  # 2 c^2 M2^2 / beta = 4.0
    assert term3 == 4.0
    assert rep.trajectory_aggregates["sum_inv4_ratio"] == pytest.approx(inner)
    assert rep.value == pytest.approx(term1 + term2 + term3)


def test_smooth_bound_covers_multi_step_snapshot_gaps():
    # cadence 2: interval [0, 2) contributes t = 0 and t = 1 with the
    # left endpoint's covariance ratio
    est = consts(n=4, beta_hat=2.0)
    snapshots = [snap(0, gnorm=1.0, trace=3.0), snap(2, gnorm=1.0, C_cum=0.1)]
    rep = bound_trajectory_smooth(est, snapshots, INVERSE_TIME)
    inner = 4.0 / (4 * 4 * 1) + 4.0 / (4 * 4 * 16)
    assert rep.trajectory_aggregates["sum_inv4_ratio"] == pytest.approx(inner)


def test_smooth_bound_skips_undefined_ratio_intervals():
    est = consts(n=4, beta_hat=2.0)
    snapshots = [snap(0, gnorm=0.0, trace=1.0), snap(1, gnorm=1.0, C_cum=0.2)]
    rep = bound_trajectory_smooth(est, snapshots, INVERSE_TIME)
    assert rep.trajectory_aggregates["sum_inv4_ratio"] == 0.0


def test_smooth_bound_schedule_hypothesis_is_enforced():
    est = consts(beta_hat=2.0)
    snapshots = [snap(0), snap(1, C_cum=0.2)]
    assert bound_trajectory_smooth(est, snapshots, INVERSE_TIME).value > 0
    # c is the schedule's
    c2 = bound_trajectory_smooth(est, snapshots,
                                 Schedule("inverse_time", c=2.0, beta=2.0))
    assert c2.trajectory_aggregates["c"] == 2.0
    assert c2.value == reevaluate_bound(c2)
    with pytest.raises(InvalidArgumentError, match="inverse-time"):
        bound_trajectory_smooth(est, snapshots, Schedule("constant", eta0=0.1))
    with pytest.raises(InvalidArgumentError, match="smoothness"):
        bound_trajectory_smooth(est, snapshots,
                                Schedule("inverse_time", c=1.0, beta=5.0))
    with pytest.raises(InvalidArgumentError, match="positive smoothness"):
        bound_trajectory_smooth(consts(beta_hat=0.0), snapshots, INVERSE_TIME)


def test_relaxed_bound_adds_the_tail_correction():
    est = consts(T0=1, zeta=0.25)
    snapshots = [snap(0, eta=0.1), snap(1, eta=0.1, C_cum=0.3),
                 snap(2, eta=0.1, C_cum=0.4)]
    rep = bound_trajectory_relaxed(est, snapshots)
    tail = snapshots[1].delta_t + snapshots[2].delta_t
    assert rep.value == pytest.approx(2.0 * 3.0 * 0.4 + 0.5 * tail * 0.25)
    later = bound_trajectory_relaxed(consts(T0=2, zeta=1.0), snapshots)
    assert later.value == pytest.approx(2.0 * 3.0 * 0.4
                                        + 0.5 * snapshots[2].delta_t * 1.0)
    # a hand-built ConstantEstimates can hold either value
    with pytest.raises(InvalidArgumentError, match="past the final"):
        bound_trajectory_relaxed(consts(T0=5), snapshots)
    with pytest.raises(InvalidArgumentError, match="zeta"):
        bound_trajectory_relaxed(consts(zeta=-0.1), snapshots)


def test_relaxed_bound_with_zero_drift_equals_the_main_bound():
    est = consts(T0=0, zeta=0.0)
    snapshots = [snap(0), snap(1, C_cum=0.4)]
    assert (bound_trajectory_relaxed(est, snapshots).value
            == bound_trajectory_main(est, snapshots).value)


# -- stability baselines -----------------------------------------------------------

def test_hardt_convex_closed_form():
    est = consts(L_hat=2.0, n=10)
    rep = bound_stability_baseline("hardt_convex", est, np.array([0.1, 0.2, 0.3]))
    assert rep.value == pytest.approx(2.0 * 4.0 / 10.0 * 0.6)
    assert rep.trajectory_aggregates == {"sum_eta": pytest.approx(0.6)}


def test_bassily_closed_form_drops_the_final_step():
    est = consts(L_hat=2.0, n=10)
    rep = bound_stability_baseline("bassily", est, np.array([0.1, 0.2, 0.5]))
    head_sum = 0.1 + 0.2
    head_sq = 0.01 + 0.04
    assert rep.value == pytest.approx(2.0 * 4.0 * math.sqrt(head_sq)
                                      + 4.0 * 4.0 / 10.0 * head_sum)


def test_aggregate_sums_round_after_every_term():
    # Python 3.12's sum() compensates and gives 1.0000000000000002e16 here;
    # rounding after every addition gives 1e16 on every Python version
    rep = bound_stability_baseline("hardt_convex", consts(), [1e16, 1.0, 1.0])
    assert rep.trajectory_aggregates["sum_eta"] == 1e16
    ba = bound_stability_baseline("bassily", consts(), [1e16, 1.0, 1.0, 5.0])
    assert ba.trajectory_aggregates == {"sum_eta": 1e16, "sum_eta_sq": 1e32}
    snapshots = [snap(0), snap(1, eta=1e16), snap(2, eta=1.0), snap(3, eta=1.0)]
    rel = bound_trajectory_relaxed(consts(T0=1), snapshots)
    assert rel.trajectory_aggregates["tail_delta_sum"] == 1e16


def test_smooth_sum_is_the_step_loop_bitwise_past_exact_fourth_powers():
    # (t + 1)^4 passes 2^53 at t + 1 = 9 742 and int64 at t + 1 = 55 109;
    # the middle interval has no defined ratio and is skipped
    est = consts(n=7, beta_hat=2.0)
    snapshots = [snap(9_700, gnorm=1.0, trace=0.3), snap(9_800, gnorm=0.0, trace=1.0),
                 snap(55_000, gnorm=0.7, trace=0.1), snap(55_200)]
    rep = bound_trajectory_smooth(est, snapshots, INVERSE_TIME)
    inner = 0.0
    for left, right in zip(snapshots[:-1], snapshots[1:]):
        ratio = covariance_ratio(left.trace_sigma, left.grad_norm_S)
        for t in range(left.t, right.t) if ratio is not None else ():
            inner += ratio / (est.n * (est.beta_hat * est.beta_hat) * (t + 1) ** 4)
    assert inner > 0.0
    assert rep.trajectory_aggregates["sum_inv4_ratio"] == inner


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
@example([])
@example([-0.0])
@example([1e16, 1.0, 1.0])
def test_sequential_sum_is_the_python_loop_bitwise(xs):
    s = 0.0
    for v in xs:
        s += v
    assert _bits(bounds._sequential_sum(xs)) == _bits(s)
    assert _bits(bounds._sequential_sum(np.array(xs, dtype=np.float64))) == _bits(s)


def test_sequential_sum_of_nothing_or_negative_zero_is_positive_zero():
    # as the builtin sum() gives on Python 3.11
    assert _bits(bounds._sequential_sum([])) == _bits(0.0)
    assert _bits(bounds._sequential_sum([-0.0])) == _bits(0.0)


def test_hardt_nonconvex_closed_form():
    est = consts(L_hat=2.0, beta_hat=2.0, n=11, T=100)
    sched = Schedule("inverse_time", c=1.0, beta=2.0)
    rep = bound_stability_baseline("hardt_nonconvex", est, np.array([0.1]), sched)
    bc = 2.0
    expect = (1 + 1 / bc) / 10 * (2 * 1.0 * 4.0) ** (1 / 3) * 100 ** (2 / 3)
    assert rep.value == pytest.approx(expect)
    assert "beta*c" in rep.notes  # formula recorded alongside the number


def test_zhang_closed_form():
    est = consts(L_hat=2.0, n=11, T=100)
    sched = Schedule("inverse_time", c=1.0, beta=2.0)
    rep = bound_stability_baseline("zhang", est, np.array([0.1]), sched)
    assert rep.value == pytest.approx(16.0 * 4.0 * 100.0 / 121.0)


def test_nonconvex_baselines_require_the_inverse_time_schedule():
    est = consts()
    for kind in ("hardt_nonconvex", "zhang"):
        with pytest.raises(InvalidArgumentError, match="inverse-time"):
            bound_stability_baseline(kind, est, np.array([0.1]))
        with pytest.raises(InvalidArgumentError, match="inverse-time"):
            bound_stability_baseline(kind, est, np.array([0.1]),
                                     Schedule("constant", eta0=0.1))
    with pytest.raises(InvalidArgumentError, match="unknown stability"):
        bound_stability_baseline("feldman", est, np.array([0.1]))
    with pytest.raises(InvalidArgumentError, match="beta_hat"):
        bound_stability_baseline("hardt_nonconvex", consts(beta_hat=0.0),
                                 np.array([0.1]),
                                 Schedule("inverse_time", c=1.0, beta=2.0))


# -- reports and CSV --------------------------------------------------------------

def test_reevaluate_reproduces_every_report_bitwise():
    spec, S, Sp, est, rec, res = small_run(steps=20)
    c = estimate_constants(spec, rec.weights, rec.snapshots, res.etas, res.batch_size,
                           S, cfg=est)
    sched = Schedule("inverse_time", c=1.0, beta=c.beta_hat)
    reports = [
        bound_trajectory_main(c, rec.snapshots),
        bound_trajectory_relaxed(c, rec.snapshots),
        bound_stability_baseline("hardt_convex", c, res.etas),
        bound_stability_baseline("hardt_nonconvex", c, res.etas, sched),
        bound_stability_baseline("zhang", c, res.etas, sched),
        bound_stability_baseline("bassily", c, res.etas),
    ]
    for rep in reports:
        assert reevaluate_bound(rep) == rep.value


def test_reevaluate_rejects_unknown_method():
    rep = BoundReport(method="mystery", value=1.0, constants=consts(),
                      trajectory_aggregates={})
    with pytest.raises(InvalidArgumentError):
        reevaluate_bound(rep)


def test_write_bounds_csv_blanks_unused_columns(tmp_path):
    est = consts()
    main = bound_trajectory_main(est, [snap(0), snap(1, C_cum=0.4)])
    hc = bound_stability_baseline("hardt_convex", est, np.array([0.1, 0.2]))
    path = str(tmp_path / "bounds.csv")
    write_bounds_csv(path, [main, hc], seeds=[3, 3])
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    assert header[0] == "seed"
    row_main = dict(zip(header, lines[1].split(",")))
    row_hc = dict(zip(header, lines[2].split(",")))
    assert row_main["method"] == "ours_main"
    assert float(row_main["value"]) == main.value
    assert float(row_main["C_final"]) == 0.4
    assert row_main["L_hat"] == ""        # the main bound never reads L
    assert row_main["sum_eta"] == ""
    assert float(row_main["remainder_scale"]) == est.eta_m
    assert row_hc["C_final"] == ""
    assert float(row_hc["L_hat"]) == 2.0
    assert float(row_hc["sum_eta"]) == pytest.approx(0.3)
    assert row_hc["remainder_scale"] == ""
    assert row_hc["seed"] == "3"


def test_write_bounds_csv_seed_count_mismatch(tmp_path):
    est = consts()
    rep = bound_trajectory_main(est, [snap(0)])
    with pytest.raises(InvalidArgumentError):
        write_bounds_csv(str(tmp_path / "x.csv"), [rep], seeds=[1, 2])


def test_stability_kinds_tuple_is_exhaustive():
    assert set(STABILITY_KINDS) == {"hardt_convex", "hardt_nonconvex",
                                    "zhang", "bassily"}
