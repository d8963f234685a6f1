"""Per-snapshot trajectory statistics.

TrajectoryRecorder computes everything recorded about a training run:
full-set loss and gradient norms on the training set S and holdout S', the
per-sample gradient covariance trace, the cumulative complexity term, the
train/holdout gradient-norm ratio, and relative-progress diagnostics. Each
snapshot's loss, mean gradient and per-sample squared gradient norms come
from one snapshot pass on S: during training, the row of the pass
optim.train runs once per snapshot time for the whole stack (the stats
argument), which every recorder gets; only a direct call without stats
makes its own models.loss_grad_stats call, the unstacked pass, bitwise
the same. The loss and mean gradient on S' come from the recorder's own
call that skips the norms; the recorder never forms the (n, P)
per-sample gradient matrix. A recorder built without a holdout (S' =
None) makes no S' call and leaves every S' statistic None; the
sweeps use one, since they read F_S' only at the final weights, where one
forward pass over S' gives it. gen_decomposition splits the
generalization gap per step. The bound constants are not formed here:
bounds.estimate_constants computes them through bind_subset_norms, the
block form of this module's per-sample-gradient kernels
signed_mean_norm_stats (for V) and subset_ratio_max (for gamma'). All
three share one product-and-norm kernel, _signed_sum_norms, and read
their +-1 sign matrices from _sign_rows, the one place the sign patterns
are built. The helpers that can meet a degenerate ratio
(complexity_update, gamma_tilde, rp_trp_gd) append a flag to the list
they are given, which is required; the recorder passes its own flags.
Relative progress has one formula, rp_trp_gd's exact one-step ratio, so
a recorder that records it needs consecutive snapshots one step apart.

Conventions used throughout:
  - The covariance trace uses the identity
      Tr Sigma(w) = (1/n) sum_i ||grad f(w, z_i)||^2 - ||grad F_S(w)||^2,
    with both terms exact.
  - The cumulative complexity C starts at 0 and, on each recorded interval,
    adds  -2 * (F_curr - F_prev)/sqrt(n) * sqrt(covariance_ratio), where
    covariance_ratio is 1 + trace/grad_norm^2 with the trace and gradient
    norm taken at the newer snapshot, so loss decreases contribute positive
    complexity. bounds' smooth bound weighs its steps by the same ratio.
  - Holdout quantities stand in for population ones everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, write_csv
from .errors import (
    IncompleteTrajectoryError,
    InvalidArgumentError,
    NumericDomainError,
)
from .models import ModelSpec, checked_stats, loss_grad_stats
from .numerics import STREAM_SUBSET_GAMMA, STREAM_SUBSET_V, RngStream

# Relative: the trace is a difference of two terms of the second moment's
# size, so its roundoff scales with that moment.
NEGATIVE_TRACE_TOL = 1e-9

# Exhaustive subset enumeration is used instead of Monte Carlo whenever the
# full pattern count fits inside the configured sample budget.
EXHAUSTIVE_MAX_N = 20


@dataclass
class TrajectorySnapshot:
    """The statistics of one recorded step.

    The holdout fields F_Sprime, grad_norm_Sprime, grad_dot and gamma_tilde
    are None when the recorder has no holdout; gamma_tilde is also None when
    grad_norm_S is 0. rp and trp are None unless the recorder's rp_mode is
    set, and at the first snapshot or a degenerate denominator.
    """

    t: int
    epoch: int
    eta_t: float
    F_S: float
    F_Sprime: float | None
    grad_norm_S: float
    grad_norm_Sprime: float | None
    grad_dot: float | None
    trace_sigma: float
    delta_t: float
    C_cum: float
    gamma_tilde: float | None
    rp: float | None = None
    trp: float | None = None


@dataclass(frozen=True)
class SubsetEstimatorConfig:
    """Knobs for the Monte-Carlo subset estimators of V and gamma'.

    Each draws k_samples Rademacher sign rows (independent coin-flip
    membership of every sample in the subset U) from its own stream of
    seed, or enumerates every pattern when that fits in k_samples.
    """

    k_samples: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.k_samples < 1:
            raise InvalidArgumentError(f"k_samples must be >= 1, got {self.k_samples}")


def noise_cov_scale(n: int, b: int) -> float:
    """Scale linking batch-noise covariance to Sigma: (n-b) / (b(n-1))."""
    if n < 2:
        raise InvalidArgumentError(f"noise covariance needs n >= 2, got n={n}")
    if not 1 <= b <= n:
        raise InvalidArgumentError(f"need 1 <= b <= n, got b={b}, n={n}")
    return (n - b) / (b * (n - 1))


def _trace_from_sq_norms(sq_norms: np.ndarray, g_mean: np.ndarray) -> float:
    """Covariance trace from the per-sample squared gradient norms.

    Negative values within roundoff of the second moment clamp to zero; a
    larger negative value indicates a gradient bug.
    """
    second = float(np.mean(sq_norms))
    trace = second - float(g_mean @ g_mean)
    if trace < 0.0:
        if trace >= -NEGATIVE_TRACE_TOL * second:
            return 0.0
        raise NumericDomainError(
            f"covariance trace {trace:.3e} below -{NEGATIVE_TRACE_TOL:g} times "
            f"the second moment {second:.3e}: it cannot undercut the "
            "mean-gradient norm"
        )
    return trace


def grad_trace_sigma(spec: ModelSpec, w: np.ndarray, data: Dataset
                     ) -> tuple[float, float, float]:
    """(covariance trace, ||grad F_S||, F_S) at w; see _trace_from_sq_norms."""
    F, g, sq_norms = loss_grad_stats(spec, w, data)
    trace = _trace_from_sq_norms(sq_norms, g)
    return trace, float(np.linalg.norm(g)), F


def covariance_ratio(trace: float, grad_norm: float) -> float | None:
    """1 + trace/||grad||^2, the covariance-to-gradient ratio of the bound.

    It is 1 at a fully stationary point (trace and gradient both zero) and
    None when only the gradient vanishes, where it is undefined.
    """
    if grad_norm == 0.0:
        return 1.0 if trace == 0.0 else None
    return 1.0 + trace / (grad_norm * grad_norm)


def complexity_update(C_prev: float, F_prev: float, F_curr: float,
                      trace_sigma: float, grad_norm: float, n: int,
                      flags: list[str]) -> float:
    """One discrete complexity increment, weighted by sqrt(covariance_ratio).

    Where the ratio is undefined (a vanished gradient with residual spread)
    the increment is skipped with a flag.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    ratio = covariance_ratio(trace_sigma, grad_norm)
    if ratio is None:
        flags.append("degenerate-gradient: complexity increment skipped")
        return C_prev
    return C_prev - 2.0 * ((F_curr - F_prev) / math.sqrt(n)) * math.sqrt(ratio)


def gamma_tilde(grad_norm_Sprime: float, grad_norm_S: float,
                flags: list[str]) -> float | None:
    """Holdout-to-train gradient norm ratio; None when the train norm is 0."""
    if grad_norm_S == 0.0:
        flags.append("undefined-ratio: zero training gradient norm")
        return None
    return grad_norm_Sprime / grad_norm_S


@functools.lru_cache(maxsize=4)
def _sign_rows(cfg: SubsetEstimatorConfig, n: int, stream_id: int,
               exclude_trivial: bool) -> tuple[np.ndarray, bool]:
    """The +-1 sign matrix of a subset estimator, as cached read-only int8.

    Returns (rows, exhaustive). When every pattern fits in cfg.k_samples
    (n <= EXHAUSTIVE_MAX_N), the rows are all 2^n patterns in binary
    counting order (bit j of the row index is the sign of sample j);
    otherwise they are k_samples rows of coin flips drawn by
    integers(0, 2) from the (cfg.seed, stream_id) stream. exclude_trivial
    drops the all-minus and all-plus patterns (the empty and full
    subsets): the enumeration skips them, and a draw redraws such rows from
    the same stream, at most 64 times. The draw depends only on the
    arguments, so every snapshot of an estimate_constants call reuses one
    matrix for V and one for gamma'; the cache outlives the call, hence
    int8.
    """
    trim = int(exclude_trivial)  # masks 0 and 2^n - 1 are the trivial patterns
    total = 2 ** n if n <= EXHAUSTIVE_MAX_N else None
    exhaustive = total is not None and total - 2 * trim <= cfg.k_samples
    if exhaustive:
        masks = np.arange(trim, total - trim, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)) & 1
    else:
        gen = RngStream(cfg.seed, stream_id).generator()
        bits = gen.integers(0, 2, size=(cfg.k_samples, n))
        for _ in range(64 if exclude_trivial else 0):
            bad = bits.min(axis=1) == bits.max(axis=1)
            if not bad.any():
                break
            bits[bad] = gen.integers(0, 2, size=(int(bad.sum()), n))
    rows = (2 * bits - 1).astype(np.int8)
    rows.flags.writeable = False
    return rows, exhaustive


def _signed_sum_norms(rows: np.ndarray, G: np.ndarray) -> np.ndarray:
    """||sum_i rows[j, i] grad_i|| for every row j: shape (k,) or (c, k).

    rows is a float64 (k, n) matrix of signs or {0, 1} memberships and G an
    (n, P) per-sample gradient matrix, or an (n, c, P) block of c of them
    side by side. A block runs as one (k, n) @ (n, c*P) BLAS product:
    at toy_table's P = 20 a product of P columns runs well below GEMM's
    speed, which needs wide panels. A column's sum is formed the same way
    whatever the operand's width, and the einsum reduces each (row, matrix)
    pair alone into a C-ordered (c, k) result, so row t of a block call is
    bitwise the call on G[:, t] and its means run over contiguous rows.
    """
    sums = (rows @ G.reshape(len(G), -1)).reshape(len(rows), *G.shape[1:])
    return np.sqrt(np.einsum("k...p,k...p->...k", sums, sums, order="C"))


def bind_subset_norms(cfg: SubsetEstimatorConfig, n: int):
    """The V and gamma' sign-row pass over a block of snapshots: block(Gs).

    block(Gs), for an (n, c, P) block of c per-sample gradient matrices
    side by side, returns two (c,) arrays: D_hat, bitwise
    signed_mean_norm_stats(Gs[:, t], cfg)[0] (its standard error is not
    formed), and the largest subset-sum norm, whose ratio to
    n ||mean Gs[:, t]|| is bitwise subset_ratio_max(Gs[:, t], cfg). Each
    sign matrix runs one wide product per block (_signed_sum_norms). Each
    block converts both int8 sign matrices in turn into one float64 (k, n)
    buffer bound here, so a conversion serves a block of snapshots and no
    second float64 copy is held.
    """
    v_rows, _ = _sign_rows(cfg, n, STREAM_SUBSET_V, exclude_trivial=False)
    gamma_rows, _ = _sign_rows(cfg, n, STREAM_SUBSET_GAMMA, exclude_trivial=True)
    buf = np.empty((max(len(v_rows), len(gamma_rows)), n))

    def block(Gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        signs = buf[:len(v_rows)]
        np.copyto(signs, v_rows)
        d_hat = np.mean(_signed_sum_norms(signs, Gs) / n, axis=-1)
        members = buf[:len(gamma_rows)]
        np.greater(gamma_rows, 0, out=members)  # {0,1} membership
        return d_hat, np.max(_signed_sum_norms(members, Gs), axis=-1)

    return block


def signed_mean_norm_stats(G: np.ndarray, cfg: SubsetEstimatorConfig
                           ) -> tuple[float, float]:
    """Mean and standard error of ||(1/n) sum_i s_i grad_i|| over sign draws.

    Exhaustive enumeration (standard error 0) replaces Monte Carlo whenever
    all 2^n patterns fit in the sample budget.
    """
    n = G.shape[0]
    rows, exhaustive = _sign_rows(cfg, n, STREAM_SUBSET_V, exclude_trivial=False)
    norms = _signed_sum_norms(rows.astype(np.float64), G) / n
    d_hat = float(np.mean(norms))
    if exhaustive or norms.size < 2:
        return d_hat, 0.0
    se = float(np.std(norms, ddof=1) / math.sqrt(norms.size))
    return d_hat, se


def subset_ratio_max(G: np.ndarray, cfg: SubsetEstimatorConfig) -> float:
    """max over sampled proper subsets U of ||sum_{i in U} grad_i|| / (n ||mean||)."""
    n = G.shape[0]
    if n < 2:
        raise InvalidArgumentError(f"subset ratio needs n >= 2, got n={n}")
    g = np.mean(G, axis=0)
    denom = n * float(np.linalg.norm(g))
    if denom == 0.0:
        raise InvalidArgumentError("subset ratio undefined at zero mean gradient")
    rows, _ = _sign_rows(cfg, n, STREAM_SUBSET_GAMMA, exclude_trivial=True)
    members = (rows > 0).astype(np.float64)  # {0,1} membership
    return float(np.max(_signed_sum_norms(members, G))) / denom


def rp_trp_gd(F_S_prev: float, F_S_curr: float, F_Sp_prev: float, F_Sp_curr: float,
              eta: float, grad_S_prev: np.ndarray, grad_Sp_prev: np.ndarray,
              flags: list[str]) -> tuple[float | None, float | None]:
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
        flags.append("rp: zero gradient, ratio undefined")
    else:
        rp = (F_S_curr - F_S_prev) / denom_rp
    if denom_trp == 0.0:
        flags.append("trp: orthogonal gradients, ratio undefined")
    else:
        trp = (F_Sp_curr - F_Sp_prev) / denom_trp
    return rp, trp


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

    The training loop calls the recorder with (t, epoch, eta_t, w, stats);
    the recorder owns the cumulative complexity state, keeps a copy of each
    snapshot's weights and its gradients on S and S' (weights, grads_S,
    grads_Sprime) for downstream estimators, and collects flags for
    degenerate situations instead of failing mid-run.

    S_prime = None skips the holdout pass: the snapshots' holdout fields are
    None, the S-side statistics are bitwise those of a recorder with a
    holdout, and no history is kept (weights, grads_S and grads_Sprime stay
    empty), since every reader of it needs the holdout too.

    stats, when given, is the row (F, grad, sq_norms, finite) of a snapshot
    pass at w, which optim.train always hands in from its stacked pass on
    the run's own training set; without it the recorder makes its own
    loss_grad_stats call on S. A False finite flag raises that call's
    NumericDomainError, and the snapshot is bitwise the one the call would
    give. The complexity's n is the row's sample count, so under train the
    S-side series are those of the run trained. The row's gradient may view
    a buffer the next step reuses, so grads_S keeps a copy.

    rp_mode: None records no relative-progress columns; "step" applies the
    exact one-step ratios of rp_trp_gd (consecutive snapshots must be one
    step apart), recording None and a flag after a step of rate 0, which
    has no ratio. It needs the holdout, for trp.
    """

    def __init__(self, spec: ModelSpec, S: Dataset, S_prime: Dataset | None, *,
                 rp_mode: str | None = None):
        if rp_mode not in (None, "step"):
            raise InvalidArgumentError(f"unknown rp_mode {rp_mode!r}")
        if rp_mode is not None and S_prime is None:
            raise InvalidArgumentError("step rp needs a holdout for trp")
        self.spec = spec
        self.S = S
        self.S_prime = S_prime
        self.rp_mode = rp_mode
        self.snapshots: list[TrajectorySnapshot] = []
        self.weights: list[np.ndarray] = []
        self.grads_S: list[np.ndarray] = []
        self.grads_Sprime: list[np.ndarray | None] = []
        self.flags: list[str] = []
        self._c_cum = 0.0

    def __call__(self, t: int, epoch: int, eta: float, w: np.ndarray,
                 stats: tuple | None = None) -> TrajectorySnapshot:
        w = np.asarray(w, dtype=np.float64)
        if stats is None:
            f_s, g_s, sq_norms = loss_grad_stats(self.spec, w, self.S)
        else:
            f_s, g_s, sq_norms = checked_stats(stats)
        trace = _trace_from_sq_norms(sq_norms, g_s)
        norm_s = float(np.linalg.norm(g_s))
        f_sp = g_sp = norm_sp = None
        if self.S_prime is not None:
            f_sp, g_sp, _ = loss_grad_stats(self.spec, w, self.S_prime, norms=False)
            norm_sp = float(np.linalg.norm(g_sp))

        if self.snapshots:
            prev = self.snapshots[-1]
            self._c_cum = complexity_update(self._c_cum, prev.F_S, f_s, trace,
                                            norm_s, len(sq_norms), self.flags)
        rp = trp = None
        if self.rp_mode is not None and self.snapshots:
            if t - prev.t != 1:
                raise InvalidArgumentError(
                    "step rp needs consecutive snapshots one step apart"
                )
            if prev.eta_t == 0.0:  # a zero-rate step predicts no progress
                self.flags.append(f"rp/trp: zero step size at step {prev.t}")
            else:
                rp, trp = rp_trp_gd(prev.F_S, f_s, prev.F_Sprime, f_sp, prev.eta_t,
                                    self.grads_S[-1], self.grads_Sprime[-1], self.flags)

        snap = TrajectorySnapshot(
            t=t, epoch=epoch, eta_t=eta, F_S=f_s, F_Sprime=f_sp,
            grad_norm_S=norm_s, grad_norm_Sprime=norm_sp,
            grad_dot=None if g_sp is None else float(g_s @ g_sp),
            trace_sigma=trace, delta_t=eta * norm_s, C_cum=self._c_cum,
            gamma_tilde=(None if g_sp is None
                         else gamma_tilde(norm_sp, norm_s, self.flags)),
            rp=rp, trp=trp,
        )
        self.snapshots.append(snap)
        if self.S_prime is not None:
            self.weights.append(w.copy())
            self.grads_S.append(g_s.copy())  # a handed-in row views a reused buffer
            self.grads_Sprime.append(g_sp)
        return snap


def replay_trajectory(spec: ModelSpec, S: Dataset, S_prime: Dataset, weights,
                      ts, epochs, etas) -> TrajectoryRecorder:
    """Recompute trajectory statistics over a stored weight sequence."""
    rec = TrajectoryRecorder(spec, S, S_prime)
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
