"""Per-snapshot trajectory statistics.

TrajectoryRecorder computes everything recorded about a training run:
full-set loss and gradient norms on the training set S and holdout S', the
per-sample gradient covariance trace, the cumulative complexity term, the
train/holdout gradient-norm ratio, and relative-progress diagnostics. Each
snapshot's loss, mean gradient and per-sample squared gradient norms come
from one models.loss_grad_stats call on S, and the loss and mean gradient
on S' from one call that skips the norms; the recorder never forms the
(n, P) per-sample gradient matrix. gen_decomposition splits the
generalization gap per step. The bound constants are not formed here:
bounds.estimate_constants computes them, calling this module's
per-sample-gradient kernels signed_mean_norm_stats (for V) and
subset_ratio_max (for gamma').

Conventions used throughout:
  - The covariance trace uses the identity
      Tr Sigma(w) = (1/n) sum_i ||grad f(w, z_i)||^2 - ||grad F_S(w)||^2,
    optionally subsampling the second-moment term over n_sp samples while
    keeping grad F_S exact.
  - The cumulative complexity C starts at 0 and, on each recorded interval,
    adds  -2 * (F_curr - F_prev)/sqrt(n) * sqrt(1 + trace/grad_norm^2)
    with the trace and gradient norm taken at the newer snapshot, so loss
    decreases contribute positive complexity.
  - Holdout quantities stand in for population ones everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, write_csv
from .errors import (
    IncompleteTrajectoryError,
    InvalidArgumentError,
    NumericDomainError,
)
from .models import ModelSpec, loss_grad_stats
from .numerics import (
    STREAM_SUBSET_GAMMA,
    STREAM_SUBSET_V,
    STREAM_TRACE_SUBSAMPLE,
    RngStream,
    rademacher_matrix,
)

# Relative: the trace is a difference of two terms of the second moment's
# size, so its roundoff scales with that moment.
NEGATIVE_TRACE_TOL = 1e-9

# Exhaustive subset enumeration is used instead of Monte Carlo whenever the
# full pattern count fits inside the configured sample budget.
EXHAUSTIVE_MAX_N = 20


@dataclass
class TrajectorySnapshot:
    t: int
    epoch: int
    eta_t: float
    F_S: float
    F_Sprime: float
    grad_norm_S: float
    grad_norm_Sprime: float
    grad_dot: float
    trace_sigma: float
    delta_t: float
    C_cum: float
    gamma_tilde: float | None
    rp: float | None = None
    trp: float | None = None


@dataclass(frozen=True)
class SubsetEstimatorConfig:
    """Knobs for the Monte-Carlo subset estimators.

    n_sp = None keeps the covariance-trace second moment exact. subset_mode
    picks the distribution over sample subsets U: "rademacher" gives
    independent coin-flip membership; "size_uniform" first draws |U|
    uniformly and then a uniform subset of that size.
    """

    k_samples: int = 1024
    n_sp: int | None = None
    seed: int = 0
    subset_mode: str = "rademacher"

    def __post_init__(self):
        if self.k_samples < 1:
            raise InvalidArgumentError(f"k_samples must be >= 1, got {self.k_samples}")
        if self.n_sp is not None and self.n_sp < 1:
            raise InvalidArgumentError(f"n_sp must be >= 1, got {self.n_sp}")
        if self.subset_mode not in ("rademacher", "size_uniform"):
            raise InvalidArgumentError(f"unknown subset_mode {self.subset_mode!r}")


def noise_cov_scale(n: int, b: int) -> float:
    """Scale linking batch-noise covariance to Sigma: (n-b) / (b(n-1))."""
    if n < 2:
        raise InvalidArgumentError(f"noise covariance needs n >= 2, got n={n}")
    if not 1 <= b <= n:
        raise InvalidArgumentError(f"need 1 <= b <= n, got b={b}, n={n}")
    return (n - b) / (b * (n - 1))


def _trace_from_sq_norms(sq_norms: np.ndarray, g_mean: np.ndarray,
                         n_sp: int | None, rng: RngStream | None) -> float:
    """Covariance trace from the per-sample squared gradient norms.

    The mean-gradient norm is always exact; the second moment may be
    subsampled. Negative values within roundoff of the second moment clamp
    to zero; with an exact second moment a larger negative value indicates
    a gradient bug.
    A subsampled second moment can be legitimately below the exact mean
    gradient norm, so that path clamps any negative value.
    """
    n = sq_norms.shape[0]
    if n_sp is not None and n_sp > n:
        raise InvalidArgumentError(f"n_sp={n_sp} exceeds the sample count n={n}")
    subsampled = n_sp is not None and n_sp < n
    if subsampled:
        if rng is None:
            raise InvalidArgumentError("subsampled trace needs an RngStream")
        idx = np.sort(rng.generator().choice(n, size=n_sp, replace=False))
        second = float(np.mean(sq_norms[idx]))
    else:
        second = float(np.mean(sq_norms))
    trace = second - float(g_mean @ g_mean)
    if trace < 0.0:
        if subsampled or trace >= -NEGATIVE_TRACE_TOL * second:
            return 0.0
        raise NumericDomainError(
            f"covariance trace {trace:.3e} below -{NEGATIVE_TRACE_TOL:g} times "
            f"the second moment {second:.3e}: it cannot undercut the "
            "mean-gradient norm"
        )
    return trace


def grad_trace_sigma(spec: ModelSpec, w: np.ndarray, data: Dataset,
                     n_sp: int | None = None, rng: RngStream | None = None
                     ) -> tuple[float, float, float]:
    """(covariance trace, ||grad F_S||, F_S) at w; see _trace_from_sq_norms."""
    F, g, sq_norms = loss_grad_stats(spec, w, data)
    trace = _trace_from_sq_norms(sq_norms, g, n_sp, rng)
    return trace, float(np.linalg.norm(g)), F


def complexity_update(C_prev: float, F_prev: float, F_curr: float,
                      trace_sigma: float, grad_norm: float, n: int,
                      flags: list[str] | None = None) -> float:
    """One discrete complexity increment.

    At a snapshot where the full gradient vanished: if the trace is also
    zero every sample is stationary and the ratio factor degenerates to 1;
    otherwise the increment is undefined and is skipped with a flag.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    d_f = F_curr - F_prev
    if grad_norm == 0.0:
        if trace_sigma == 0.0:
            factor = 1.0
        else:
            if flags is not None:
                flags.append("degenerate-gradient: complexity increment skipped")
            return C_prev
    else:
        factor = math.sqrt(1.0 + trace_sigma / (grad_norm * grad_norm))
    return C_prev - 2.0 * (d_f / math.sqrt(n)) * factor


def gamma_tilde(grad_norm_Sprime: float, grad_norm_S: float,
                flags: list[str] | None = None) -> float | None:
    """Holdout-to-train gradient norm ratio; None when the train norm is 0."""
    if grad_norm_S == 0.0:
        if flags is not None:
            flags.append("undefined-ratio: zero training gradient norm")
        return None
    return grad_norm_Sprime / grad_norm_S


def _all_sign_patterns(n: int) -> np.ndarray:
    """(2^n, n) matrix of every +-1 pattern, in binary counting order."""
    masks = np.arange(2 ** n, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n)[None, :]) & 1
    return (2 * bits - 1).astype(np.float64)


def _size_uniform_rows(gen, k: int, n: int, proper: bool) -> np.ndarray:
    """Sign rows whose positive set has a uniformly drawn size.

    proper restricts the size to 1..n-1 (nonempty proper subsets); the
    default allows 0..n.
    """
    lo, hi = (1, n - 1) if proper else (0, n)
    rows = -np.ones((k, n))
    for j in range(k):
        size = int(gen.integers(lo, hi + 1))
        if size:
            idx = np.sort(gen.choice(n, size=size, replace=False))
            rows[j, idx] = 1.0
    return rows


def _draw_sign_rows(cfg: SubsetEstimatorConfig, n: int, stream_id: int,
                    exclude_trivial: bool) -> tuple[np.ndarray, bool]:
    """Sign matrix for subset estimation: exhaustive when affordable.

    Returns (rows, exhaustive). exclude_trivial drops the all-plus and
    all-minus patterns (the empty and full subsets). The exhaustive
    shortcut only applies to the equal-weight rademacher distribution.
    """
    if cfg.subset_mode == "rademacher":
        total = 2 ** n if n <= EXHAUSTIVE_MAX_N else None
        need = total - 2 if (total is not None and exclude_trivial) else total
        if need is not None and need <= cfg.k_samples:
            rows = _all_sign_patterns(n)
            if exclude_trivial:
                keep = np.abs(rows.sum(axis=1)) < n
                rows = rows[keep]
            return rows, True
    rng = RngStream(cfg.seed, stream_id)
    if cfg.subset_mode == "size_uniform":
        if exclude_trivial and n < 2:
            raise InvalidArgumentError("no proper nonempty subsets exist for n < 2")
        rows = _size_uniform_rows(rng.generator(), cfg.k_samples, n, exclude_trivial)
        return rows, False
    rows = rademacher_matrix(rng, cfg.k_samples, n).astype(np.float64)
    if exclude_trivial:
        gen = rng.generator()
        for _ in range(64):
            bad = np.abs(rows.sum(axis=1)) == n
            if not bad.any():
                break
            redraw = gen.integers(0, 2, size=(int(bad.sum()), n))
            rows[bad] = 2.0 * redraw - 1.0
    return rows, False


@functools.lru_cache(maxsize=4)
def _sign_rows(cfg: SubsetEstimatorConfig, n: int, stream_id: int,
               exclude_trivial: bool) -> tuple[np.ndarray, bool]:
    """_draw_sign_rows, cached and read-only.

    The draw depends only on the arguments, so every snapshot of an
    estimate_constants call reuses one matrix for V and one for gamma'.
    The cache outlives the call, so it holds the signs as int8, an eighth of
    the float64 draw.
    """
    rows, exhaustive = _draw_sign_rows(cfg, n, stream_id, exclude_trivial)
    rows = rows.astype(np.int8)
    rows.flags.writeable = False
    return rows, exhaustive


def signed_mean_norm_stats(G: np.ndarray, cfg: SubsetEstimatorConfig
                           ) -> tuple[float, float]:
    """Mean and standard error of ||(1/n) sum_i s_i grad_i|| over sign draws.

    Exhaustive enumeration (standard error 0) replaces Monte Carlo whenever
    all 2^n patterns fit in the sample budget.
    """
    n = G.shape[0]
    rows, exhaustive = _sign_rows(cfg, n, STREAM_SUBSET_V, exclude_trivial=False)
    mixed = rows.astype(np.float64) @ G  # (k, P)
    norms = np.sqrt(np.einsum("kp,kp->k", mixed, mixed)) / n
    d_hat = float(np.mean(norms))
    if exhaustive or norms.size < 2:
        return d_hat, 0.0
    se = float(np.std(norms, ddof=1) / math.sqrt(norms.size))
    return d_hat, se


def subset_ratio_max(G: np.ndarray, cfg: SubsetEstimatorConfig) -> float:
    """max over sampled proper subsets U of ||sum_{i in U} grad_i|| / (n ||mean||)."""
    n = G.shape[0]
    g = np.mean(G, axis=0)
    denom = n * float(np.linalg.norm(g))
    if denom == 0.0:
        raise InvalidArgumentError("subset ratio undefined at zero mean gradient")
    rows, _ = _sign_rows(cfg, n, STREAM_SUBSET_GAMMA, exclude_trivial=True)
    members = (rows + 1.0) / 2.0  # {0,1} membership
    sums = members @ G
    norms = np.sqrt(np.einsum("kp,kp->k", sums, sums))
    return float(np.max(norms)) / denom


def rp_trp_gd(F_S_prev: float, F_S_curr: float, F_Sp_prev: float, F_Sp_curr: float,
              eta: float, grad_S_prev: np.ndarray, grad_Sp_prev: np.ndarray,
              flags: list[str] | None = None) -> tuple[float | None, float | None]:
    """Relative progress of one GD step on the train and holdout losses.

    rp compares the realized loss change to the first-order prediction
    -eta ||grad F_S||^2; values near -1 mean the quadratic term is small.
    trp is the same ratio for the holdout loss against the cross term.
    """
    if not eta > 0:
        raise InvalidArgumentError(f"step size must be positive, got {eta}")
    gs = np.asarray(grad_S_prev, dtype=np.float64)
    gp = np.asarray(grad_Sp_prev, dtype=np.float64)
    denom_rp = eta * float(gs @ gs)
    denom_trp = eta * float(gs @ gp)
    rp = trp = None
    if denom_rp == 0.0:
        if flags is not None:
            flags.append("rp: zero gradient, ratio undefined")
    else:
        rp = (F_S_curr - F_S_prev) / denom_rp
    if denom_trp == 0.0:
        if flags is not None:
            flags.append("trp: orthogonal gradients, ratio undefined")
    else:
        trp = (F_Sp_curr - F_Sp_prev) / denom_trp
    return rp, trp


def rp_trp_sgd_approx(X_prev: np.ndarray, X_curr: np.ndarray,
                      F_S_prev: float, F_S_curr: float,
                      F_Sp_prev: float, F_Sp_curr: float,
                      eta: float, b: int, n: int, grad_Sp_prev: np.ndarray,
                      flags: list[str] | None = None
                      ) -> tuple[float | None, float | None, float]:
    """Epoch-level relative progress from boundary weights only.

    Treats the epoch displacement as one effective step of size
    eta_effective = (n/b) eta, giving rp = eta_eff * dF_S / ||dX||^2; this
    reduces exactly to the GD ratio when b = n and one step spans the
    interval. trp uses the realized displacement against the holdout
    gradient at the interval start.
    """
    X_prev = np.asarray(X_prev, dtype=np.float64)
    X_curr = np.asarray(X_curr, dtype=np.float64)
    eta_eff = (n / b) * eta
    dx = X_curr - X_prev
    dx_sq = float(dx @ dx)
    if dx_sq == 0.0:
        if flags is not None:
            flags.append("rp/trp: zero epoch displacement")
        return None, None, eta_eff
    rp = eta_eff * (F_S_curr - F_S_prev) / dx_sq
    denom_trp = float((X_prev - X_curr) @ np.asarray(grad_Sp_prev, dtype=np.float64))
    if denom_trp == 0.0:
        if flags is not None:
            flags.append("trp: displacement orthogonal to holdout gradient")
        return rp, None, eta_eff
    trp = (F_Sp_curr - F_Sp_prev) / denom_trp
    return rp, trp, eta_eff


def gen_decomposition(snapshots, weights, grads_S, grads_Sp
                      ) -> tuple[np.ndarray, float, float]:
    """Split the generalization-gap change into linear and remainder parts.

    Needs per-step snapshots with stored weights and gradients. Returns the
    per-step gap increments, the accumulated first-order (linear) part
    sum_t (w_t - w_{t-1}) . (grad_Sp_{t-1} - grad_S_{t-1}), and the
    higher-order remainder that makes the telescoped total exact.
    """
    T = len(snapshots) - 1
    if T < 0:
        raise IncompleteTrajectoryError("no snapshots recorded")
    for k, snap in enumerate(snapshots):
        if snap.t != k:
            raise IncompleteTrajectoryError(
                f"need per-step snapshots: index {k} holds step {snap.t}"
            )
    if len(weights) != T + 1 or len(grads_S) != T + 1 or len(grads_Sp) != T + 1:
        raise IncompleteTrajectoryError("stored weights/gradients do not cover every step")
    if T == 0:
        return np.zeros(0), 0.0, 0.0

    per_step = np.zeros(T)
    gen_lin = 0.0
    for t in range(1, T + 1):
        a, b = snapshots[t - 1], snapshots[t]
        per_step[t - 1] = (b.F_Sprime - a.F_Sprime) - (b.F_S - a.F_S)
        dw = np.asarray(weights[t]) - np.asarray(weights[t - 1])
        gen_lin += float(dw @ (np.asarray(grads_Sp[t - 1]) - np.asarray(grads_S[t - 1])))
    total = (snapshots[T].F_Sprime - snapshots[T].F_S) - (
        snapshots[0].F_Sprime - snapshots[0].F_S
    )
    return per_step, gen_lin, total - gen_lin


class TrajectoryRecorder:
    """Computes and stores one TrajectorySnapshot per recorded step.

    The training loop calls the recorder with (t, epoch, eta_t, w); the
    recorder owns the cumulative complexity state, keeps the weight and
    gradient history needed by downstream estimators, and collects flags
    for degenerate situations instead of failing mid-run.

    rp_mode: None records no relative-progress columns; "step" applies the
    exact one-step ratios (consecutive snapshots must be one step apart);
    "epoch" applies the boundary-weight approximation with batch size b.
    """

    def __init__(self, spec: ModelSpec, S: Dataset, S_prime: Dataset,
                 est: SubsetEstimatorConfig | None = None,
                 rp_mode: str | None = None, batch_size: int | None = None):
        if rp_mode not in (None, "step", "epoch"):
            raise InvalidArgumentError(f"unknown rp_mode {rp_mode!r}")
        if rp_mode == "epoch" and batch_size is None:
            raise InvalidArgumentError("epoch rp needs the batch size")
        self.spec = spec
        self.S = S
        self.S_prime = S_prime
        self.est = est or SubsetEstimatorConfig()
        self.rp_mode = rp_mode
        self.batch_size = batch_size
        self._trace_rng = RngStream(self.est.seed, STREAM_TRACE_SUBSAMPLE)
        self.snapshots: list[TrajectorySnapshot] = []
        self.weights: list[np.ndarray] = []
        self.grads_S: list[np.ndarray] = []
        self.grads_Sprime: list[np.ndarray] = []
        self.flags: list[str] = []
        self._c_cum = 0.0

    def __call__(self, t: int, epoch: int, eta: float, w: np.ndarray) -> TrajectorySnapshot:
        w = np.asarray(w, dtype=np.float64).copy()
        f_s, g_s, sq_norms = loss_grad_stats(self.spec, w, self.S)
        trace = _trace_from_sq_norms(sq_norms, g_s, self.est.n_sp, self._trace_rng)
        f_sp, g_sp, _ = loss_grad_stats(self.spec, w, self.S_prime, norms=False)
        norm_s = float(np.linalg.norm(g_s))
        norm_sp = float(np.linalg.norm(g_sp))

        if self.snapshots:
            prev = self.snapshots[-1]
            self._c_cum = complexity_update(self._c_cum, prev.F_S, f_s, trace,
                                            norm_s, self.S.n, self.flags)
        rp = trp = None
        if self.rp_mode is not None and self.snapshots:
            prev = self.snapshots[-1]
            if self.rp_mode == "step":
                if t - prev.t != 1:
                    raise InvalidArgumentError(
                        "step rp needs consecutive snapshots one step apart"
                    )
                rp, trp = rp_trp_gd(prev.F_S, f_s, prev.F_Sprime, f_sp, prev.eta_t,
                                    self.grads_S[-1], self.grads_Sprime[-1], self.flags)
            else:
                rp, trp, _ = rp_trp_sgd_approx(
                    self.weights[-1], w, prev.F_S, f_s, prev.F_Sprime, f_sp,
                    prev.eta_t, self.batch_size, self.S.n,
                    self.grads_Sprime[-1], self.flags,
                )

        snap = TrajectorySnapshot(
            t=t, epoch=epoch, eta_t=eta, F_S=f_s, F_Sprime=f_sp,
            grad_norm_S=norm_s, grad_norm_Sprime=norm_sp,
            grad_dot=float(g_s @ g_sp), trace_sigma=trace,
            delta_t=eta * norm_s, C_cum=self._c_cum,
            gamma_tilde=gamma_tilde(norm_sp, norm_s, self.flags),
            rp=rp, trp=trp,
        )
        self.snapshots.append(snap)
        self.weights.append(w)
        self.grads_S.append(g_s)
        self.grads_Sprime.append(g_sp)
        return snap


def replay_trajectory(spec: ModelSpec, S: Dataset, S_prime: Dataset, weights,
                      ts, epochs, etas, est: SubsetEstimatorConfig | None = None
                      ) -> TrajectoryRecorder:
    """Recompute trajectory statistics over a stored weight sequence."""
    rec = TrajectoryRecorder(spec, S, S_prime, est=est)
    for w, t, epoch, eta in zip(weights, ts, epochs, etas, strict=True):
        rec(t, epoch, eta, w)
    return rec


TRAJECTORY_COLUMNS = (
    "t", "epoch", "eta", "F_S", "F_Sprime", "grad_norm_S", "grad_norm_Sprime",
    "grad_dot", "trace_sigma", "delta", "C_cum", "gamma_tilde", "rp", "trp",
)


def write_trajectory_csv(path: str, snapshots) -> None:
    """Serialize snapshots with missing values as empty cells."""
    write_csv(path, TRAJECTORY_COLUMNS, (
        (s.t, s.epoch, s.eta_t, s.F_S, s.F_Sprime, s.grad_norm_S,
         s.grad_norm_Sprime, s.grad_dot, s.trace_sigma, s.delta_t,
         s.C_cum, s.gamma_tilde, s.rp, s.trp)
        for s in snapshots))
