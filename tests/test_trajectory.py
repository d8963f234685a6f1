"""Trajectory statistics against brute-force oracles.

The estimators here all have small-n exact counterparts: exhaustive batch
enumeration for the noise covariance, a dense covariance matrix for the
trace identity, full sign-pattern enumeration for the mixing estimator,
and explicit subset enumeration for the amplification ratio.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajbound import models, trajectory
from trajbound.bounds import estimate_constants
from trajbound.data import Dataset, ToyConfig, generate_toy
from trajbound.errors import (
    DimensionMismatchError,
    IncompleteTrajectoryError,
    InvalidArgumentError,
    NumericDomainError,
)
from trajbound.models import (
    init_params,
    linear_spec,
    losses_batch,
    mlp_spec,
    per_sample_grads,
)
from trajbound.numerics import STREAM_SUBSET_GAMMA, STREAM_SUBSET_V, RngStream
from trajbound.optim import OptimConfig, Schedule, train
from trajbound.trajectory import (
    EXHAUSTIVE_MAX_N,
    SubsetEstimatorConfig,
    TrajectoryRecorder,
    _sign_rows,
    _trace_from_sq_norms,
    complexity_update,
    gamma_tilde,
    gen_decomposition,
    grad_trace_sigma,
    linear_subset_norms,
    noise_cov_scale,
    replay_trajectory,
    rp_trp_gd,
    signed_mean_norm_stats,
    subset_ratio_max,
    write_trajectory_csv,
)

from linear_residuals import constant_bounds, holdout_tolerances
from linear_sign_sums import MARGIN, U, gamma, oracle_snapshot


def linear_state(n=6, d=3, seed=0):
    gen = np.random.default_rng(seed)
    data = Dataset(gen.standard_normal((n, d)), gen.standard_normal(n))
    spec = linear_spec(d)
    w = gen.standard_normal(d)
    return spec, w, data


# -- covariance scale and trace ----------------------------------------------

def test_noise_cov_scale_closed_form():
    assert noise_cov_scale(6, 1) == pytest.approx(5 / 5)
    assert noise_cov_scale(6, 2) == pytest.approx(4 / 10)
    assert noise_cov_scale(6, 6) == 0.0
    with pytest.raises(InvalidArgumentError):
        noise_cov_scale(1, 1)
    with pytest.raises(InvalidArgumentError):
        noise_cov_scale(6, 0)
    with pytest.raises(InvalidArgumentError):
        noise_cov_scale(6, 7)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_batch_noise_mean_and_trace_by_exhaustive_enumeration(b):
    # enumerate every size-b batch: the batch-gradient noise has zero mean
    # and covariance trace (n-b)/(b(n-1)) * TrSigma
    n = 6
    spec, w, data = linear_state(n=n, d=4, seed=3)
    G = per_sample_grads(spec, w, data)
    g_full = np.mean(G, axis=0)
    trace, _, _ = grad_trace_sigma(spec, w, data)

    eps = []
    for batch in itertools.combinations(range(n), b):
        gb = np.mean(G[list(batch)], axis=0)
        eps.append(gb - g_full)
    eps = np.array(eps)
    assert np.max(np.abs(np.mean(eps, axis=0))) < 1e-12
    cov_trace = float(np.mean(np.einsum("kp,kp->k", eps, eps)))
    assert cov_trace == pytest.approx(noise_cov_scale(n, b) * trace, abs=1e-10)


def test_trace_identity_matches_dense_covariance():
    gen = np.random.default_rng(0)
    for _ in range(25):
        n = int(gen.integers(2, 21))
        d = int(gen.integers(1, 11))
        X = gen.standard_normal((n, d))
        y = gen.standard_normal(n)
        data = Dataset(X, y)
        spec = linear_spec(d)
        w = gen.standard_normal(d)
        trace, gnorm, F = grad_trace_sigma(spec, w, data)
        G = per_sample_grads(spec, w, data)
        dense = np.cov(G.T, bias=True)
        dense_trace = float(np.trace(np.atleast_2d(dense)))
        assert trace == pytest.approx(dense_trace, abs=1e-10)
        assert gnorm == pytest.approx(np.linalg.norm(np.mean(G, axis=0)))
        assert F == pytest.approx(0.5 * np.mean((X @ w - y) ** 2))


def test_trace_is_nonnegative_roundoff_at_duplicated_samples():
    # identical rows: every per-sample gradient equals the mean, so the
    # trace is zero up to roundoff and must come back nonnegative
    X = np.tile([[1.0, 2.0]], (5, 1))
    data = Dataset(X, np.full(5, 3.0))
    trace, _, _ = grad_trace_sigma(linear_spec(2), np.array([0.3, -0.7]), data)
    assert 0.0 <= trace < 1e-12


def test_trace_guard_paths():
    G = np.array([[1.0, 0.0], [0.0, 1.0]])
    sq = np.einsum("np,np->n", G, G)
    # a mean inconsistent with the rows drives the trace clearly negative
    with pytest.raises(NumericDomainError):
        _trace_from_sq_norms(sq, np.array([5.0, 5.0]))
    assert _trace_from_sq_norms(sq, np.mean(G, axis=0)) == 0.5
    # a negative value within roundoff of the second moment clamps to zero
    assert _trace_from_sq_norms(sq, np.full(2, math.sqrt(0.5) * (1 + 1e-12))) == 0.0


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 49), p=st.integers(1, 29),
       seed=st.integers(0, 2 ** 32 - 1))
def test_trace_guard_scales_with_the_gradient_magnitude(n, p, seed):
    # near-identical rows at gradient scale 1e4: the exact trace is ~1e-12,
    # and the roundoff of the 1e8-sized difference must not read as a bug
    gen = np.random.default_rng(seed)
    G = 1e4 * gen.standard_normal(p) + 1e-6 * gen.standard_normal((n, p))
    sq = np.einsum("np,np->n", G, G)
    assert _trace_from_sq_norms(sq, np.mean(G, axis=0)) >= 0.0


# -- complexity increments ---------------------------------------------------

def test_complexity_update_closed_form():
    # single interval: C = -2 (dF / sqrt(n)) sqrt(1 + trace/g^2)
    c = complexity_update(0.0, F_prev=1.0, F_curr=0.75, trace_sigma=3.0,
                          grad_norm=1.0, n=16, flags=[])
    assert c == pytest.approx(-2.0 * (-0.25) / 4.0 * 2.0)
    # a loss increase subtracts complexity symmetrically
    assert complexity_update(0.0, 0.75, 1.0, 3.0, 1.0, 16, []) == pytest.approx(-c)


def test_complexity_update_accumulates():
    c1 = complexity_update(0.0, 1.0, 0.8, 0.5, 1.0, 9, [])
    c2 = complexity_update(c1, 0.8, 0.7, 0.2, 0.5, 9, [])
    expect = (-2.0 * (-0.2) / 3.0 * math.sqrt(1.5)
              - 2.0 * (-0.1) / 3.0 * math.sqrt(1.0 + 0.2 / 0.25))
    assert c2 == pytest.approx(expect)


def test_complexity_update_stationary_point_degenerates_to_factor_one():
    flags = []
    c = complexity_update(1.0, 0.5, 0.4, trace_sigma=0.0, grad_norm=0.0, n=4,
                          flags=flags)
    assert c == pytest.approx(1.0 - 2.0 * (-0.1) / 2.0)
    assert flags == []


def test_complexity_update_skips_undefined_ratio_with_flag():
    flags = []
    c = complexity_update(1.0, 0.5, 0.4, trace_sigma=0.3, grad_norm=0.0, n=4,
                          flags=flags)
    assert c == 1.0
    assert any("degenerate-gradient" in f for f in flags)
    with pytest.raises(InvalidArgumentError):
        complexity_update(0.0, 1.0, 0.5, 0.1, 1.0, 0, [])


def test_interval_ratio_identity():
    # |dC/dF| over one interval is exactly (2/sqrt(n)) sqrt(1 + r)
    n, trace, gnorm = 25, 2.0, 0.5
    dF = -0.3
    dC = complexity_update(0.0, 1.0, 1.0 + dF, trace, gnorm, n, [])
    expect = (2.0 / math.sqrt(n)) * math.sqrt(1.0 + trace / gnorm ** 2)
    assert abs(dC / dF) == pytest.approx(expect, rel=1e-12)


def test_gamma_tilde():
    flags = []
    assert gamma_tilde(2.0, 4.0, flags) == 0.5
    assert flags == []
    assert gamma_tilde(1.0, 0.0, flags) is None
    assert any("undefined-ratio" in f for f in flags)


# -- sign-mixing estimators ----------------------------------------------------

def exhaustive_signed_mean(G):
    n = G.shape[0]
    norms = []
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        norms.append(np.linalg.norm(np.array(signs) @ G) / n)
    return float(np.mean(norms))


def test_signed_mean_norm_exhaustive_matches_brute_force():
    spec, w, data = linear_state(n=5, d=3, seed=7)
    G = per_sample_grads(spec, w, data)
    d_hat, se = signed_mean_norm_stats(G, SubsetEstimatorConfig(k_samples=64))
    assert se == 0.0  # 2^5 = 32 <= 64: enumeration, no sampling error
    assert d_hat == pytest.approx(exhaustive_signed_mean(G), rel=1e-12)


def test_signed_mean_norm_monte_carlo_is_deterministic():
    spec, w, data = linear_state(n=12, d=4, seed=8)
    G = per_sample_grads(spec, w, data)
    cfg = SubsetEstimatorConfig(k_samples=256, seed=5)
    a = signed_mean_norm_stats(G, cfg)
    b = signed_mean_norm_stats(G, cfg)
    assert a == b
    assert a[1] > 0.0
    other = signed_mean_norm_stats(G, SubsetEstimatorConfig(k_samples=256, seed=6))
    assert a != other


def reference_sign_rows(cfg, n, stream_id, exclude_trivial):
    """The sign rows built the long way: float64 patterns or draws, then redraws."""
    total = 2 ** n if n <= trajectory.EXHAUSTIVE_MAX_N else None
    need = total - 2 if (total is not None and exclude_trivial) else total
    if need is not None and need <= cfg.k_samples:
        rows = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))[:, ::-1]
        if exclude_trivial:
            rows = rows[np.abs(rows.sum(axis=1)) < n]
        return rows, True
    gen = RngStream(cfg.seed, stream_id).generator()
    rows = 2.0 * gen.integers(0, 2, size=(cfg.k_samples, n)) - 1.0
    if exclude_trivial:
        for _ in range(64):
            bad = np.abs(rows.sum(axis=1)) == n
            if not bad.any():
                break
            rows[bad] = 2.0 * gen.integers(0, 2, size=(int(bad.sum()), n)) - 1.0
    return rows, False


def assert_sign_rows_match_the_reference(cfg, n, stream, exclude_trivial):
    rows, exhaustive = _sign_rows(cfg, n, stream, exclude_trivial)
    ref, ref_exhaustive = reference_sign_rows(cfg, n, stream, exclude_trivial)
    assert rows.dtype == np.int8
    assert exhaustive == ref_exhaustive
    assert rows.shape == ref.shape and np.array_equal(rows, ref)


def test_sign_rows_equal_a_fresh_draw():
    # every snapshot of an estimate_constants call reads one draw per
    # estimator, so the matrix must be that draw
    cfg = SubsetEstimatorConfig(k_samples=64, seed=3)
    for stream, trivial in ((STREAM_SUBSET_V, False), (STREAM_SUBSET_GAMMA, True)):
        assert_sign_rows_match_the_reference(cfg, 12, stream, trivial)
    # seed 3's first 1000 rows at n = 10 hold two trivial rows, so the
    # gamma' matrix is only right if it redraws them from the same stream
    big = SubsetEstimatorConfig(k_samples=1000, seed=3)
    first = RngStream(3, STREAM_SUBSET_GAMMA).generator().integers(0, 2, size=(1000, 10))
    assert (first.min(axis=1) == first.max(axis=1)).sum() == 2
    rows, exhaustive = _sign_rows(big, 10, STREAM_SUBSET_GAMMA, exclude_trivial=True)
    assert not exhaustive and (np.abs(rows.sum(axis=1, dtype=np.int64)) < 10).all()
    assert_sign_rows_match_the_reference(big, 10, STREAM_SUBSET_GAMMA, True)
    # n = 1 without trivial rows leaves nothing to enumerate
    assert _sign_rows(cfg, 1, STREAM_SUBSET_GAMMA, True)[0].shape == (0, 1)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 14), k=st.integers(1, 5000), seed=st.integers(0, 2 ** 31),
       stream=st.sampled_from([STREAM_SUBSET_V, STREAM_SUBSET_GAMMA]),
       exclude_trivial=st.booleans())
def test_sign_rows_equal_the_reference_construction(n, k, seed, stream,
                                                    exclude_trivial):
    # small n against large k: enumeration where every pattern fits, and
    # draws with several trivial rows to redraw where they do not
    assert_sign_rows_match_the_reference(SubsetEstimatorConfig(k_samples=k, seed=seed),
                                         n, stream, exclude_trivial)


def old_sign_rows(cfg, n, stream_id, exclude_trivial):
    """_sign_rows' bits from the same patterns or stream, signed out of place."""
    trim = int(exclude_trivial)
    if n <= EXHAUSTIVE_MAX_N and 2 ** n - 2 * trim <= cfg.k_samples:
        masks = np.arange(trim, 2 ** n - trim, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)) & 1
    else:
        gen = RngStream(cfg.seed, stream_id).generator()
        bits = gen.integers(0, 2, size=(cfg.k_samples, n))
        for _ in range(64 if exclude_trivial else 0):
            bad = bits.min(axis=1) == bits.max(axis=1)
            if not bad.any():
                break
            bits[bad] = gen.integers(0, 2, size=(int(bad.sum()), n))
    return (2 * bits - 1).astype(np.int8)


@pytest.mark.parametrize("n, k, seed", [(6, 64, 0), (12, 4096, 1),  # every pattern
                                        (12, 64, 2), (10, 1000, 3)])  # draws, redraws
@pytest.mark.parametrize("stream, exclude_trivial",
                         [(STREAM_SUBSET_V, False), (STREAM_SUBSET_GAMMA, True)])
def test_sign_rows_equal_the_out_of_place_expression(n, k, seed, stream, exclude_trivial):
    # the rows are signed in place, so only one int64 array is held at a time
    cfg = SubsetEstimatorConfig(k_samples=k, seed=seed)
    rows, _ = _sign_rows(cfg, n, stream, exclude_trivial)
    old = old_sign_rows(cfg, n, stream, exclude_trivial)
    assert rows.dtype == old.dtype and np.array_equal(rows, old)


def test_jensen_bound_on_signed_mean():
    # E ||(1/n) sum s_i g_i|| <= sqrt(E ||...||^2) = sqrt((TrSigma + ||g||^2)/n)
    spec, w, data = linear_state(n=6, d=4, seed=9)
    G = per_sample_grads(spec, w, data)
    d_hat, se = signed_mean_norm_stats(G, SubsetEstimatorConfig(k_samples=64))
    trace, gnorm, _ = grad_trace_sigma(spec, w, data)
    assert d_hat <= math.sqrt((trace + gnorm ** 2) / data.n) + 1e-12
    assert se == 0.0


def constants_at(spec, data, weights, cfg):
    """estimate_constants over a replayed trajectory, data as its own holdout."""
    k = len(weights)
    rec = replay_trajectory(spec, data, data, weights, list(range(k)),
                            list(range(k)), [0.1] * k)
    return estimate_constants(spec, rec.weights, rec.snapshots, [], data.n, data,
                              cfg=cfg)


def zero_gradient_start():
    """Two linear snapshots; the first has bitwise-zero per-sample gradients.

    Zero weights on zero labels give exactly zero residuals; a label vector
    built as X @ w_star would not (roundoff leaves a tiny residual).
    """
    X = np.random.default_rng(1).standard_normal((4, 3))
    return linear_spec(3), Dataset(X, np.zeros(4)), [np.zeros(3), np.full(3, 0.5)]


def test_estimate_constants_v_and_trivial_flag():
    spec, w, data = linear_state(n=5, d=3, seed=10)
    c = constants_at(spec, data, [w], SubsetEstimatorConfig(k_samples=64))
    G = per_sample_grads(spec, w, data)
    assert c.V_m == pytest.approx(
        np.linalg.norm(np.mean(G, axis=0)) / exhaustive_signed_mean(G), rel=1e-12
    )
    assert not any("trivial-bound" in f for f in c.flags)

    # every gradient zero at the first snapshot: the sign-mixed mean vanishes
    spec, data, weights = zero_gradient_start()
    c = constants_at(spec, data, weights, SubsetEstimatorConfig(k_samples=32))
    assert c.V_m == math.inf
    assert any("trivial-bound" in f for f in c.flags)


def test_estimate_constants_needs_two_samples():
    data = Dataset(np.ones((1, 2)), np.zeros(1))
    with pytest.raises(InvalidArgumentError, match="n >= 2"):
        constants_at(linear_spec(2), data, [np.ones(2)], SubsetEstimatorConfig())


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.integers(2, 12),  # every pattern at 4096 rows
                   st.integers(EXHAUSTIVE_MAX_N + 1, EXHAUSTIVE_MAX_N + 12)),
       k=st.integers(1, 80), d=st.integers(1, 6), count=st.integers(1, 70),
       chunks=st.tuples(st.integers(1, 40), st.integers(1, 70)),
       seed=st.integers(0, 2 ** 16))
def test_linear_subset_norms_match_the_per_snapshot_oracle(n, k, d, count, chunks, seed):
    # every snapshot's D_hat and subset-sum maximum lie within the bound that
    # tests/linear_sign_sums.py derives of signed_mean_norm_stats and
    # subset_ratio_max on per_sample_grads, whatever the chunk sizes
    gen = np.random.default_rng(seed)
    spec = linear_spec(d)
    data = Dataset(gen.standard_normal((n, d)), gen.standard_normal(n))
    weights = list(gen.standard_normal((count, d)) * gen.uniform(0.1, 10.0, (count, 1)))
    cfg = SubsetEstimatorConfig(k_samples=4096 if n <= 12 else k, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trajectory, "SIGN_CHUNK", chunks[0])
        patch.setattr(trajectory, "SNAPSHOT_CHUNK", chunks[1])
        d_hat, subset_max = linear_subset_norms(cfg, data, weights)
    assert d_hat.shape == subset_max.shape == (count,)
    for t, w in enumerate(weights):
        ref, tol, ratio, ratio_tol = oracle_snapshot(spec, data, w, cfg)
        assert abs(d_hat[t] - ref) <= tol
        if ratio is not None:
            gnorm = float(np.linalg.norm(np.mean(per_sample_grads(spec, w, data), axis=0)))
            assert abs(subset_max[t] / (n * gnorm) - ratio) <= ratio_tol


def test_linear_zero_residual_snapshot_keeps_the_trivial_flag():
    # labels that are the model's own outputs at w give bitwise-zero
    # gradients; the feature products still sum to roundoff there, and the
    # pass must report D_hat = 0 and the trivial-bound flag, not that roundoff
    gen = np.random.default_rng(4)
    X = gen.standard_normal((9, 3))
    w = gen.standard_normal(3)
    spec = linear_spec(3)
    data = Dataset(X, models.forward_batch(spec, w, X)[:, 0])
    assert not per_sample_grads(spec, w, data).any()
    c = constants_at(spec, data, [w, 2.0 * w], SubsetEstimatorConfig(k_samples=64))
    assert c.V_m == math.inf
    assert "trivial-bound: sign-mixed gradient mean vanished at a snapshot" in c.flags
    assert "gamma-prime: zero gradient at step 0 skipped" in c.flags


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_estimate_constants_rejects_non_finite_linear_weights(bad):
    spec, w, data = linear_state(n=6, d=3, seed=14)
    rec = replay_trajectory(spec, data, data, [w], [0], [0], [0.1])
    with pytest.raises(NumericDomainError, match="non-finite"):
        estimate_constants(spec, [w, np.array([1.0, bad, 0.0])],
                           [*rec.snapshots, rec.snapshots[0]], [], data.n, data)


def test_subset_ratio_max_matches_exhaustive_enumeration():
    spec, w, data = linear_state(n=6, d=3, seed=11)
    G = per_sample_grads(spec, w, data)
    got = subset_ratio_max(G, SubsetEstimatorConfig(k_samples=64))
    g = np.mean(G, axis=0)
    best = 0.0
    for size in range(1, 6):
        for subset in itertools.combinations(range(6), size):
            best = max(best, float(np.linalg.norm(G[list(subset)].sum(axis=0))))
    assert got == pytest.approx(best / (6 * np.linalg.norm(g)), rel=1e-12)


def test_subset_ratio_max_sampled_never_exceeds_exhaustive():
    spec, w, data = linear_state(n=10, d=3, seed=12)
    G = per_sample_grads(spec, w, data)
    exhaustive = subset_ratio_max(G, SubsetEstimatorConfig(k_samples=2048))
    sampled = subset_ratio_max(G, SubsetEstimatorConfig(k_samples=100, seed=3))
    assert sampled <= exhaustive + 1e-12
    assert sampled > 0.0


def test_subset_ratio_max_rejects_zero_mean_gradient():
    G = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(InvalidArgumentError):
        subset_ratio_max(G, SubsetEstimatorConfig())


def test_subset_ratio_max_rejects_a_single_row():
    # one row has no proper non-empty subset, so no gamma' sign row survives
    with pytest.raises(InvalidArgumentError, match="n >= 2, got n=1"):
        subset_ratio_max(np.ones((1, 3)), SubsetEstimatorConfig())


def test_subset_estimator_config_validation():
    with pytest.raises(InvalidArgumentError):
        SubsetEstimatorConfig(k_samples=0)


def test_estimate_constants_gamma_prime_brackets():
    spec, w, data = linear_state(n=6, d=3, seed=13)
    cfg = SubsetEstimatorConfig(k_samples=64)
    rec = replay_trajectory(spec, data, data, [w], [0], [0], [0.1])
    c = estimate_constants(spec, rec.weights, rec.snapshots, [], data.n, data, cfg=cfg)
    # the holdout is the training set, so gamma is 1 up to the distance of
    # the holdout factor's gradient from the pass's (tests/linear_residuals.py)
    g = rec.snapshots[0].grad_norm_S
    g_tol = holdout_tolerances(data, w)[1] + 2 * gamma(spec.n_params + 1) * g
    assert abs(c.gamma - 1.0) <= MARGIN * (g_tol / g + U)
    assert c.gamma_prime >= c.gamma  # the amplification factor is at least 1
    assert c.gamma_prime_envelope >= c.gamma_prime  # the analytic bracket
    bounds = constant_bounds(spec, data, rec.weights, rec.snapshots, cfg)
    for key in ("gamma_prime", "gamma_prime_envelope"):
        lo, hi = bounds[key]
        assert lo <= getattr(c, key) <= hi


@pytest.mark.parametrize("kind", ["linear"])
def test_estimate_constants_skips_zero_gradient_snapshots_for_gamma_prime(kind):
    spec, data, weights = zero_gradient_start()
    assert not per_sample_grads(spec, weights[0], data).any()
    cfg = SubsetEstimatorConfig(k_samples=16)
    c = constants_at(spec, data, weights, cfg)
    assert any("gamma-prime: zero gradient at step 0" in f for f in c.flags)
    inner = subset_ratio_max(per_sample_grads(spec, weights[1], data), cfg)
    assert c.gamma_prime == max(1.0, inner) * c.gamma
    # with only the zero-gradient snapshot nothing defines gamma
    with pytest.raises(InvalidArgumentError, match="zero training gradient"):
        constants_at(spec, data, weights[:1], cfg)
    # two zero-gradient snapshots apart: their flags in snapshot order, then
    # the trivial-bound flag, and gamma' from the live snapshots alone
    zero, live = weights
    later = 5
    path = [live * (1.0 + 0.25 * t) for t in range(8)]
    path[0] = path[later] = zero
    c = constants_at(spec, data, path, cfg)
    assert c.flags == [
        "no-steps: eta_m defaulted",
        "gamma-prime: zero gradient at step 0 skipped",
        f"gamma-prime: zero gradient at step {later} skipped",
        "trivial-bound: sign-mixed gradient mean vanished at a snapshot",
    ]
    assert c.V_m == math.inf
    inner = max(subset_ratio_max(per_sample_grads(spec, w, data), cfg)
                for t, w in enumerate(path) if t not in (0, later))
    assert c.gamma_prime == max(1.0, inner) * c.gamma


# -- relative progress ---------------------------------------------------------

def test_rp_trp_gd_exact_quadratic():
    # one GD step on F(w) = lam/2 w^2: rp = -1 + eta lam / 2 exactly
    lam, eta, w = 3.0, 0.2, 1.5
    g = lam * w
    w_next = w - eta * g
    F = lambda x: 0.5 * lam * x * x
    rp, trp = rp_trp_gd(F(w), F(w_next), F(w), F(w_next), eta,
                        np.array([g]), np.array([g]), [])
    assert rp == pytest.approx(-1.0 + eta * lam / 2.0, abs=1e-12)
    assert trp == pytest.approx(rp, abs=1e-12)


def test_rp_trp_gd_degenerate_denominators():
    flags = []
    rp, trp = rp_trp_gd(1.0, 0.9, 1.0, 0.9, 0.1, np.zeros(2), np.ones(2), flags)
    assert rp is None and trp is None
    assert any("rp:" in f for f in flags)
    flags = []
    rp, trp = rp_trp_gd(1.0, 0.9, 1.0, 0.9, 0.1, np.array([1.0, 0.0]),
                        np.array([0.0, 1.0]), flags)
    assert rp is not None and trp is None
    assert any("trp:" in f for f in flags)
    with pytest.raises(InvalidArgumentError):
        rp_trp_gd(1.0, 0.9, 1.0, 0.9, 0.0, np.ones(1), np.ones(1), [])


# -- recorder and decomposition -------------------------------------------------

def per_step_run(seed=0, steps=25, kind="mlp", eta=0.05):
    S, Sp, _ = generate_toy(ToyConfig(16, 16, 3, seed=seed))
    spec = mlp_spec(3, (4,)) if kind == "mlp" else linear_spec(3)
    w0 = init_params(spec, RngStream(seed, 5))
    rec = TrajectoryRecorder(spec, S, Sp)
    cfg = OptimConfig(batch_size=None,
                      schedule=Schedule("constant", eta0=eta),
                      max_steps=steps, snapshot_every=1, seed=seed)
    res = train(spec, w0, S, Sp, cfg, rec)
    return spec, S, Sp, rec, res


def test_recorder_snapshot_fields_are_consistent():
    spec, S, Sp, rec, _ = per_step_run()
    for snap, w, g_s, g_sp in zip(rec.snapshots, rec.weights, rec.grads_S,
                                  rec.grads_Sprime):
        assert snap.grad_norm_S == pytest.approx(np.linalg.norm(g_s))
        assert snap.grad_norm_Sprime == pytest.approx(np.linalg.norm(g_sp))
        assert snap.grad_dot == pytest.approx(float(g_s @ g_sp))
        assert snap.delta_t == pytest.approx(snap.eta_t * snap.grad_norm_S)
        assert snap.gamma_tilde == pytest.approx(
            snap.grad_norm_Sprime / snap.grad_norm_S
        )
        G = per_sample_grads(spec, w, S)
        assert snap.trace_sigma == pytest.approx(
            float(np.mean(np.sum(G * G, axis=1))) - float(g_s @ g_s), abs=1e-12
        )


def test_step_rp_after_a_zero_rate_step_is_none_and_flagged():
    # cosine with t_max = 3 < max_steps: steps 3 and 4 have rate 0 and leave
    # w unchanged, so the snapshots after them have no one-step ratio
    S, Sp, _ = generate_toy(ToyConfig(16, 16, 3, seed=0))
    spec = mlp_spec(3, (4,))
    rec = TrajectoryRecorder(spec, S, Sp, rp_mode="step")
    cfg = OptimConfig(batch_size=None, max_steps=5, snapshot_every=1,
                      schedule=Schedule("cosine", eta0=0.1, t_max=3))
    train(spec, init_params(spec, RngStream(0, 5)), S, Sp, cfg, rec)
    assert [snap.eta_t for snap in rec.snapshots][3:] == [0.0, 0.0, 0.0]
    assert all(snap.rp is not None and snap.trp is not None
               for snap in rec.snapshots[1:4])
    assert [(snap.rp, snap.trp) for snap in rec.snapshots[4:]] == [(None, None)] * 2
    assert rec.flags == ["rp/trp: zero step size at step 3",
                         "rp/trp: zero step size at step 4"]


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_recorder_never_forms_the_per_sample_gradient_matrix(kind, monkeypatch):
    spec, S, Sp, rec, _ = per_step_run(steps=6, kind=kind)

    def forbidden(*args, **kwargs):
        raise AssertionError("the recorder formed the per-sample gradient matrix")

    monkeypatch.setattr(models, "per_sample_grads", forbidden)
    monkeypatch.setattr(trajectory, "per_sample_grads", forbidden, raising=False)
    snaps = rec.snapshots
    again = replay_trajectory(spec, S, Sp, rec.weights, [s.t for s in snaps],
                              [s.epoch for s in snaps], [s.eta_t for s in snaps])
    assert again.snapshots == snaps


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_recorder_computes_no_per_sample_norms_on_the_holdout(kind, monkeypatch):
    # the recorder keeps S's per-sample norms for the trace and discards
    # S''s, so the backward pass on S' must not compute them. The S pass
    # runs on the step kernel's stacked copy of S's features, so each
    # backward pass inside a snapshot pass is matched by the features'
    # values; the steps' backward passes, outside any, are not counted
    calls, features = [], []
    real_pass, real_grad = models._snapshot_pass, models._mean_grad

    def pass_spy(spec, w, X, *args, **kwargs):
        features.append(X)
        try:
            return real_pass(spec, w, X, *args, **kwargs)
        finally:
            features.pop()

    def grad_spy(spec, layers, hs, g, sq_norms=None, out=None):
        if features:
            calls.append((features[-1], sq_norms))
        return real_grad(spec, layers, hs, g, sq_norms, out=out)

    monkeypatch.setattr(models, "_snapshot_pass", pass_spy)
    monkeypatch.setattr(models, "_mean_grad", grad_spy)
    _, S, Sp, rec, _ = per_step_run(kind=kind)
    on_S = [sq for X, sq in calls
            if X.shape[-2:] == S.features.shape and (X == S.features).all()]
    on_Sp = [sq for X, sq in calls if X is Sp.features]
    assert len(on_S) == len(rec.snapshots)
    assert all(sq is not None for sq in on_S)
    if kind == "linear":
        # the linear holdout comes from the recorder's R factor: no S' pass
        assert on_Sp == [] and len(calls) == len(rec.snapshots)
        return
    assert len(on_Sp) == len(rec.snapshots)
    assert len(calls) == 2 * len(rec.snapshots)
    assert all(sq is None for sq in on_Sp)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_recorder_losses_are_bitwise_the_mean_of_losses_batch(kind):
    # early stopping compares F_S to a threshold, so a last-bit change here
    # could move the step a run stops at
    spec, S, Sp, rec, _ = per_step_run(kind=kind)
    for snap, w in zip(rec.snapshots, rec.weights):
        assert snap.F_S == float(np.mean(losses_batch(spec, w, S.features, S.labels)))
        F_Sprime = float(np.mean(losses_batch(spec, w, Sp.features, Sp.labels)))
        if kind == "mlp":
            assert snap.F_Sprime == F_Sprime
        else:  # the holdout factor, within the bound tests/linear_residuals.py derives
            assert abs(snap.F_Sprime - F_Sprime) <= holdout_tolerances(Sp, w)[0]



def interpolated_holdout(n, d, seed, noise):
    """(spec, S', w*): labels X w* plus noise of the given scale, so F_S'(w*) ~ noise^2."""
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    w_star = gen.standard_normal(d)
    y = X @ w_star + noise * gen.standard_normal(n)
    return linear_spec(d), Dataset(X, y), w_star


def holdout_snapshot(spec, Sp, w):
    """(F_S', grad F_S') the recorder records at w with Sp as its holdout."""
    rec = TrajectoryRecorder(spec, Sp, Sp)
    snap = rec(0, 0, 0.1, w)
    return snap.F_Sprime, rec.grads_Sprime[0]


@settings(deadline=None)
@given(n=st.integers(1, 60), d=st.integers(1, 8), seed=st.integers(0, 2 ** 16),
       noise=st.sampled_from([1.0, 1e-6, 1e-12, 0.0]),
       offset=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
def test_linear_holdout_factor_matches_the_pass(n, d, seed, noise, offset):
    # the recorder's R-factor F_S' and grad F_S' lie within the bound
    # tests/linear_residuals.py derives of loss_grad_stats' pass over S',
    # near an interpolating w too, where a Gram form would cancel
    spec, Sp, w_star = interpolated_holdout(n, d, seed, noise)
    w = w_star + offset * np.random.default_rng(seed + 1).standard_normal(d)
    F, g = holdout_snapshot(spec, Sp, w)
    F_pass, g_pass, _ = models.loss_grad_stats(spec, w, Sp, norms=False)
    F_tol, g_tol = holdout_tolerances(Sp, w)
    assert abs(F - F_pass) <= F_tol
    assert np.linalg.norm(g - g_pass) <= g_tol


def test_linear_holdout_factor_keeps_a_near_interpolating_loss():
    # a 1000 x 20 holdout at F_S' ~ 5e-19: the factor stays within the
    # derived bound of the pass, and the Gram form (w'Aw - 2b'w + c) / 2,
    # whose terms are 10^19 times larger, does not
    spec, Sp, w = interpolated_holdout(1000, 20, 3, 1e-9)
    F, _ = holdout_snapshot(spec, Sp, w)
    F_pass = models.loss_grad_stats(spec, w, Sp, norms=False)[0]
    F_tol = holdout_tolerances(Sp, w)[0]
    assert F_pass < 1e-18 and F_tol < 1e-3 * F_pass
    assert abs(F - F_pass) <= F_tol
    X, y = Sp.features, Sp.labels
    gram = 0.5 * (w @ (X.T @ X) @ w - 2 * (X.T @ y) @ w + y @ y) / Sp.n
    assert abs(gram - F_pass) > F_tol


@pytest.mark.parametrize("w, sample", [([1e308, 0.0], 2), ([math.nan, 0.0], 0),
                                       ([math.inf, 1.0], 0)])
def test_linear_holdout_factor_raises_the_pass_error_at_a_non_finite_value(w, sample):
    # the S-side row is handed in, so only the holdout sees w: the factor's
    # non-finite value falls back to the pass, which names the first
    # non-finite sample (1e308 overflows at the third row, 3e308)
    X = np.array([[0.0, 1.0], [0.5, 1.0], [3.0, 1.0], [4.0, 1.0]])
    Sp = Dataset(X, np.ones(4))
    spec = linear_spec(2)
    rec = TrajectoryRecorder(spec, Sp, Sp)
    row = models._snapshot_pass(spec, np.zeros(2), X, Sp.labels)
    w = np.array(w)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericDomainError) as oracle:
            models.loss_grad_stats(spec, w, Sp, norms=False)
        with pytest.raises(NumericDomainError, match=f"at sample {sample}$") as got:
            rec(0, 0, 0.1, w, row)
    assert str(got.value) == str(oracle.value)
    assert rec.snapshots == []


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_recorder_rejects_a_holdout_of_another_dimension(kind):
    S, _, _ = generate_toy(ToyConfig(8, 8, 3, seed=0))
    _, Sp, _ = generate_toy(ToyConfig(8, 8, 4, seed=0))
    spec = linear_spec(3) if kind == "linear" else mlp_spec(3, (4,))
    with pytest.raises(DimensionMismatchError, match="input_dim=3"):
        TrajectoryRecorder(spec, S, Sp)

def test_recorder_complexity_telescopes():
    _, S, _, rec, _ = per_step_run()
    c = 0.0
    for prev, snap in zip(rec.snapshots[:-1], rec.snapshots[1:]):
        c = complexity_update(c, prev.F_S, snap.F_S, snap.trace_sigma,
                              snap.grad_norm_S, S.n, [])
        assert snap.C_cum == c
    assert rec.snapshots[0].C_cum == 0.0


def short_run(kind, holdout, seed=0, n=12, steps=11, snapshot_every=3, batch=4,
              S=None, w0=None):
    """A short run with a recorder on the holdout, or on none."""
    S_toy, Sp, _ = generate_toy(ToyConfig(n, 8, 3, seed=seed))
    S = S_toy if S is None else S
    spec = mlp_spec(S.dim, (4,)) if kind == "mlp" else linear_spec(S.dim)
    w0 = init_params(spec, RngStream(seed, 5)) if w0 is None else w0
    rec = TrajectoryRecorder(spec, S, Sp if holdout else None)
    cfg = OptimConfig(batch_size=batch if batch < S.n else None,
                      schedule=Schedule("constant", eta0=0.05), max_steps=steps,
                      snapshot_every=snapshot_every, seed=seed)
    res = train(spec, w0, S, Sp if holdout else None, cfg, rec)
    return spec, S, Sp, rec, res


S_SIDE_FIELDS = ("t", "epoch", "eta_t", "F_S", "grad_norm_S", "trace_sigma",
                 "delta_t", "C_cum")
HOLDOUT_FIELDS = ("F_Sprime", "grad_norm_Sprime", "grad_dot", "gamma_tilde")


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_recorder_without_a_holdout_matches_the_full_recorder_on_S(kind):
    # 11 steps at a snapshot every 3: the last interval is a short one
    *_, full, res_full = short_run(kind, holdout=True)
    *_, bare, res_bare = short_run(kind, holdout=False)
    assert len(bare.snapshots) == len(full.snapshots) == 5
    for a, b in zip(full.snapshots, bare.snapshots):
        for name in S_SIDE_FIELDS:
            assert getattr(a, name) == getattr(b, name), name
        for name in HOLDOUT_FIELDS:
            assert getattr(a, name) is not None
            assert getattr(b, name) is None, name
        assert b.rp is None and b.trp is None
    # no reader of the history goes without a holdout, so none is kept
    assert len(full.weights) == len(full.grads_S) == len(full.snapshots)
    assert bare.weights == bare.grads_S == bare.grads_Sprime == []
    assert np.array_equal(res_full.w_final, res_bare.w_final)
    assert res_full.stopped_at == res_bare.stopped_at


@pytest.mark.parametrize("rp_mode", ["step"])
def test_recorder_without_a_holdout_rejects_relative_progress(rp_mode):
    S, _, _ = generate_toy(ToyConfig(10, 10, 3, seed=1))
    with pytest.raises(InvalidArgumentError, match="holdout"):
        TrajectoryRecorder(linear_spec(3), S, None, rp_mode=rp_mode)


def test_estimate_constants_rejects_snapshots_without_holdout_statistics():
    spec, S, _, rec, res = short_run("linear", holdout=False)
    with pytest.raises(InvalidArgumentError, match="without a holdout"):
        estimate_constants(spec, rec.weights, rec.snapshots, res.etas,
                           res.batch_size, S)


def test_write_trajectory_csv_leaves_missing_holdout_fields_empty(tmp_path):
    *_, rec, _ = short_run("mlp", holdout=False)
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(path, rec.snapshots)
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 1 + len(rec.snapshots)
    for line, snap in zip(lines[1:], rec.snapshots):
        row = dict(zip(header, line.split(",")))
        assert len(row) == len(header)
        for name in ("F_Sprime", "grad_norm_Sprime", "grad_dot", "gamma_tilde"):
            assert row[name] == ""
        assert float(row["F_S"]) == snap.F_S
        assert float(row["C_cum"]) == snap.C_cum


def mirrored_pair_start(dim):
    """A two-sample set whose gradients cancel exactly at w = 0.

    Both samples share x and have labels y and -y, so at w = 0 the
    residuals are -y and y: the mean gradient is exactly zero while the
    covariance trace is not, the complexity increment's degenerate case.
    """
    x = np.linspace(0.5, 1.5, dim)
    return Dataset(np.stack([x, x]), np.array([0.75, -0.75])), np.zeros(dim)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["linear", "mlp"]), holdout=st.booleans(),
       seed=st.integers(0, 2 ** 16), steps=st.integers(0, 9),
       snapshot_every=st.integers(1, 4), batch=st.integers(1, 8),
       degenerate=st.booleans())
def test_complexity_telescopes_along_any_short_run(kind, holdout, seed, steps,
                                                   snapshot_every, batch,
                                                   degenerate):
    # ROADMAP item 3: C_cum is the running sum of complexity_update
    # recomputed from the recorded statistics, skip included
    S = w0 = None
    if degenerate:
        kind, batch = "linear", 2  # full-batch GD stays at the stationary w0
        S, w0 = mirrored_pair_start(3)
    _, S, _, rec, _ = short_run(kind, holdout, seed=seed, n=8, steps=steps,
                                snapshot_every=snapshot_every, batch=batch,
                                S=S, w0=w0)
    snaps = rec.snapshots
    assert snaps[0].C_cum == 0.0
    c = 0.0
    for prev, snap in zip(snaps[:-1], snaps[1:]):
        c = complexity_update(c, prev.F_S, snap.F_S, snap.trace_sigma,
                              snap.grad_norm_S, S.n, [])
        assert snap.C_cum == c
    if degenerate:
        assert all(s.grad_norm_S == 0.0 and s.trace_sigma > 0.0 for s in snaps)
        skipped = [f for f in rec.flags if f.startswith("degenerate-gradient")]
        assert len(skipped) == len(snaps) - 1


def test_gen_decomposition_telescopes_exactly():
    _, _, _, rec, _ = per_step_run(steps=30)
    per_step, gen_lin, remainder = gen_decomposition(
        rec.snapshots, rec.weights, rec.grads_S, rec.grads_Sprime
    )
    snaps = rec.snapshots
    total = (snaps[-1].F_Sprime - snaps[-1].F_S) - (snaps[0].F_Sprime - snaps[0].F_S)
    assert float(np.sum(per_step)) == pytest.approx(total, abs=1e-10)
    assert gen_lin + remainder == pytest.approx(total, abs=1e-10)
    # smaller steps shrink the remainder; on this run the linear part
    # carries most of the change
    assert abs(remainder) < abs(total)


def test_gen_decomposition_input_validation():
    spec, S, Sp, rec, _ = per_step_run(steps=6)
    with pytest.raises(IncompleteTrajectoryError):
        gen_decomposition([], [], [], [])
    with pytest.raises(IncompleteTrajectoryError):
        gen_decomposition(rec.snapshots, rec.weights[:-1], rec.grads_S,
                          rec.grads_Sprime)
    sparse = [rec.snapshots[0], rec.snapshots[3]]
    with pytest.raises(IncompleteTrajectoryError, match="per-step"):
        gen_decomposition(sparse, rec.weights[:2], rec.grads_S[:2],
                          rec.grads_Sprime[:2])


def test_gen_decomposition_zero_steps():
    _, _, _, rec, _ = per_step_run(steps=0)
    per_step, gen_lin, remainder = gen_decomposition(
        rec.snapshots, rec.weights, rec.grads_S, rec.grads_Sprime
    )
    assert per_step.size == 0
    assert gen_lin == 0.0 and remainder == 0.0


def test_recorder_rp_modes():
    S, Sp, _ = generate_toy(ToyConfig(10, 10, 3, seed=1))
    spec = linear_spec(3)
    for unknown in ("batch", "epoch"):
        with pytest.raises(InvalidArgumentError, match=f"unknown rp_mode '{unknown}'"):
            TrajectoryRecorder(spec, S, Sp, rp_mode=unknown)
    rec = TrajectoryRecorder(spec, S, Sp, rp_mode="step")
    rec(0, 0, 0.1, np.zeros(3))
    with pytest.raises(InvalidArgumentError, match="consecutive"):
        rec(2, 0, 0.1, np.zeros(3))


@pytest.mark.parametrize("fourth", [SubsetEstimatorConfig(k_samples=64), "step"])
def test_recorder_takes_no_fourth_positional_argument(fourth):
    # the recorder reads no estimator config, and rp_mode is keyword-only,
    # so a caller that still passes one fails here instead of being ignored
    S, Sp, _ = generate_toy(ToyConfig(10, 10, 3, seed=1))
    with pytest.raises(TypeError):
        TrajectoryRecorder(linear_spec(3), S, Sp, fourth)


def test_recorder_step_rp_matches_direct_computation():
    _, _, _, rec_plain, _ = per_step_run(steps=5)
    S, Sp, _ = generate_toy(ToyConfig(16, 16, 3, seed=0))
    spec = mlp_spec(3, (4,))
    w0 = init_params(spec, RngStream(0, 5))
    rec = TrajectoryRecorder(spec, S, Sp, rp_mode="step")
    cfg = OptimConfig(batch_size=None,
                      schedule=Schedule("constant", eta0=0.05),
                      max_steps=5, snapshot_every=1, seed=0)
    train(spec, w0, S, Sp, cfg, rec)
    assert rec.snapshots[0].rp is None
    for k in range(1, len(rec.snapshots)):
        prev, snap = rec.snapshots[k - 1], rec.snapshots[k]
        rp, trp = rp_trp_gd(prev.F_S, snap.F_S, prev.F_Sprime, snap.F_Sprime,
                            prev.eta_t, rec.grads_S[k - 1],
                            rec.grads_Sprime[k - 1], [])
        assert snap.rp == rp
        assert snap.trp == trp


def test_replay_reproduces_the_recorded_trajectory():
    spec, S, Sp, rec, _ = per_step_run(steps=10)
    again = replay_trajectory(
        spec, S, Sp, rec.weights,
        [s.t for s in rec.snapshots],
        [s.epoch for s in rec.snapshots],
        [s.eta_t for s in rec.snapshots],
    )
    for a, b in zip(rec.snapshots, again.snapshots):
        assert a.F_S == b.F_S
        assert a.C_cum == b.C_cum
        assert a.gamma_tilde == b.gamma_tilde


def test_replay_against_train_set_gives_unit_ratio():
    spec, S, _, rec, _ = per_step_run(steps=10)
    control = replay_trajectory(
        spec, S, S, rec.weights,
        [s.t for s in rec.snapshots],
        [s.epoch for s in rec.snapshots],
        [s.eta_t for s in rec.snapshots],
    )
    for snap in control.snapshots:
        assert snap.gamma_tilde == 1.0
        assert snap.F_S == snap.F_Sprime


def test_write_trajectory_csv_format(tmp_path):
    _, _, _, rec, _ = per_step_run(steps=4)
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(path, rec.snapshots)
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t" and "C_cum" in header and "gamma_tilde" in header
    assert len(lines) == 1 + len(rec.snapshots)
    first = lines[1].split(",")
    # rp/trp were not recorded: trailing cells are empty
    assert first[header.index("rp")] == ""
    assert first[header.index("trp")] == ""
    # floats round-trip through repr
    assert float(first[header.index("F_S")]) == rec.snapshots[0].F_S
