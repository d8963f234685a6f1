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
the same. The loss and mean gradient on S' are the recorder's own
(_holdout_stats): for the MLP a loss_grad_stats call that skips the
norms, for the linear model the triangular factor R of [X', -y'] /
sqrt(n'), bound once, so that a snapshot costs one (d+1)-square
matrix-vector product and no pass over S'. The recorder never forms the
(n, P) per-sample gradient matrix. A recorder built without a holdout (S'
= None) makes no S' call and leaves every S' statistic None; the
sweeps use one, since they read F_S' only at the final weights, where one
forward pass over S' gives it. gen_decomposition splits the
generalization gap per step. The bound constants are not formed here:
bounds.estimate_constants takes the sign sums behind V and gamma' from
linear_subset_norms, which forms them from one feature-product tensor
per chunk of sign rows. The per-sample-gradient kernels
signed_mean_norm_stats (for V) and subset_ratio_max (for gamma') are
its references, which it agrees with at roundoff; they share one
product-and-norm kernel, _signed_sum_norms, and all three read their
+-1 sign matrices from _sign_rows, the one place the sign patterns are
built. The helpers that can meet a degenerate ratio (complexity_update,
gamma_tilde, rp_trp_gd) append a flag to the list they are given, which
is required; the recorder passes its own flags. Relative progress has one formula,
rp_trp_gd's exact one-step ratio, so a recorder that records it needs
consecutive snapshots one step apart.

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

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, write_csv
from .errors import (
    DimensionMismatchError,
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


def _sign_rows(cfg: SubsetEstimatorConfig, n: int, stream_id: int,
               exclude_trivial: bool) -> tuple[np.ndarray, bool]:
    """The +-1 sign matrix of a subset estimator, as int8.

    Returns (rows, exhaustive). When every pattern fits in cfg.k_samples
    (n <= EXHAUSTIVE_MAX_N), the rows are all 2^n patterns in binary
    counting order (bit j of the row index is the sign of sample j);
    otherwise they are k_samples rows of coin flips drawn by
    integers(0, 2) from the (cfg.seed, stream_id) stream. exclude_trivial
    drops the all-minus and all-plus patterns (the empty and full
    subsets): the enumeration skips them, and a draw redraws such rows from
    the same stream, at most 64 times. The draw depends only on the
    arguments; linear_subset_norms makes one for V and one for gamma' per
    call and contracts each with every snapshot.
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
    bits *= 2  # in place: one int64 (k, n) array at a time
    bits -= 1
    return bits.astype(np.int8), exhaustive


def _signed_sum_norms(rows: np.ndarray, G: np.ndarray) -> np.ndarray:
    """||sum_i rows[j, i] grad_i|| for every row j, shape (k,).

    rows is a float64 (k, n) matrix of signs or {0, 1} memberships and G
    the (n, P) per-sample gradient matrix; the sums are one (k, n) @ (n, P)
    product.
    """
    sums = rows @ G
    return np.sqrt(np.einsum("kp,kp->k", sums, sums))


# Chunks of linear_subset_norms: sign rows per (r, n) @ (n, d (d+1)) product
# and snapshots per (r d, d+1) @ (d+1, c) product. At toy_table's shape
# (n = 100, d = 20, 201 snapshots, 1024 rows per sign matrix), best of 25
# calls with one OpenBLAS thread on a 2-vCPU host: 16 rows and all 201
# snapshots in one chunk took 13.9 ms a call; 8, 24 or 32 rows 15.5, 14.8
# and 15.2 ms; chunks of 64 snapshots 18.9 ms at 16 rows and 17.1 ms at 32.
# The sums buffer, 16 d c floats, is 0.5 MB there; the snapshot chunk caps
# it on longer runs.
SIGN_CHUNK = 16
SNAPSHOT_CHUNK = 256


def linear_subset_norms(cfg: SubsetEstimatorConfig, S: Dataset, weights
                        ) -> tuple[np.ndarray, np.ndarray]:
    """D_hat and the largest subset-sum norm of every linear snapshot.

    They are signed_mean_norm_stats' mean and n ||mean grad|| times
    subset_ratio_max. A linear model's per-sample gradient is
    g_i(w) = (x_i . w - y_i) x_i, so with B = [X, -y] and w~ = [w; 1] each
    sign sum is a contraction of one weight-free tensor:
    sum_i s_ki g_i(w) = sum_j T[k, :, j] w~_j, with
    T[k, p, j] = sum_i s_ki X_ip B_ij. The feature products F = X (.) B are
    formed once as an (n, d (d+1)) array; each chunk of SIGN_CHUNK sign rows
    (the int8 signs, the gamma' rows as {0, 1} membership) is one product
    with F, and each chunk of SNAPSHOT_CHUNK snapshots one product of that
    chunk's T with their w~, which lie as the columns of one (d+1, m) array.
    D_hat is a running sum of the row norms and the subset-sum maximum a
    running maximum, in buffers bound once per call, after the sign draws.
    The sums add the per-snapshot kernels' terms in another order, so both
    columns agree with those kernels at roundoff, not bitwise, and a
    snapshot whose gradients all vanish may get a D_hat of roundoff size.
    """
    v_rows, _ = _sign_rows(cfg, S.n, STREAM_SUBSET_V, exclude_trivial=False)
    gamma_rows, _ = _sign_rows(cfg, S.n, STREAM_SUBSET_GAMMA, exclude_trivial=True)
    n, d = S.features.shape
    B = np.column_stack([S.features, -S.labels])
    F = (S.features[:, :, None] * B[:, None, :]).reshape(n, -1)
    W = np.vstack([np.transpose(weights), np.ones(len(weights))])
    T = np.empty((SIGN_CHUNK, F.shape[1]))
    sums_buf = np.empty(SIGN_CHUNK * d * min(SNAPSHOT_CHUNK, W.shape[1]))
    d_sum, sq_max = np.zeros((2, W.shape[1]))

    def squared_norms(rows):
        """(snapshot slice, (r, c) squared sign-sum norms) per pair of chunks."""
        for a in range(0, len(rows), SIGN_CHUNK):
            r = min(SIGN_CHUNK, len(rows) - a)
            np.matmul(rows[a:a + r], F, out=T[:r])
            for c0 in range(0, W.shape[1], SNAPSHOT_CHUNK):
                w = W[:, c0:c0 + SNAPSHOT_CHUNK]
                sums = sums_buf[:r * d * w.shape[1]].reshape(r, d, w.shape[1])
                np.matmul(T[:r].reshape(r * d, d + 1), w, out=sums.reshape(r * d, -1))
                yield slice(c0, c0 + w.shape[1]), np.einsum("kpc,kpc->kc", sums, sums)

    for block, sq in squared_norms(v_rows):
        d_sum[block] += np.sqrt(sq).sum(axis=0)
    for block, sq in squared_norms(gamma_rows > 0):  # {0, 1} membership
        np.maximum(sq_max[block], sq.max(axis=0), out=sq_max[block])
    return d_sum / (n * len(v_rows)), np.sqrt(sq_max)


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


def _holdout_stats(spec: ModelSpec, S_prime: Dataset):
    """The recorder's holdout statistics, w -> (F_S'(w), grad F_S'(w)), bound once.

    For the MLP each call is loss_grad_stats' pass over S' without the
    norms. For the linear model, with B = [X', -y'] / sqrt(n') and
    w~ = [w; 1], F_S' = ||B w~||^2 / 2 and its gradient is B[:, :d]' B w~.
    The triangular factor R of B = Q R, a (d+1, d+1) matrix, is computed
    once, and each call takes u = R w~, F_S' = u.u / 2 and the gradient
    R[:, :d]' u: O(d^2) instead of a pass over the n' rows. F_S' stays a sum
    of squares, so it keeps its relative accuracy near an interpolating w,
    where the Gram form (w'Aw - 2b'w + c) / 2 cancels. A non-finite value
    falls back to the pass, whose NumericDomainError names the first
    non-finite sample. A holdout whose dimension is not the model's raises
    DimensionMismatchError here.
    """
    if S_prime.dim != spec.input_dim:
        raise DimensionMismatchError(
            f"holdout features shape {S_prime.features.shape} incompatible with "
            f"input_dim={spec.input_dim}"
        )

    def holdout_pass(w):
        return loss_grad_stats(spec, w, S_prime, norms=False)[:2]

    if spec.kind != "linear":
        return holdout_pass
    B = np.column_stack([S_prime.features, -S_prime.labels]) / math.sqrt(S_prime.n)
    R = np.linalg.qr(B, mode="r")
    R_w = R[:, :-1]

    def factor(w):
        with np.errstate(over="ignore", invalid="ignore"):
            u = R @ np.append(w, 1.0)
            F, g = 0.5 * float(u @ u), u @ R_w
        if math.isfinite(F) and np.isfinite(g).all():
            return F, g
        return holdout_pass(w)

    return factor


class TrajectoryRecorder:
    """Computes and stores one TrajectorySnapshot per recorded step.

    The training loop calls the recorder with (t, epoch, eta_t, w, stats);
    the recorder owns the cumulative complexity state, keeps a copy of each
    snapshot's weights and its gradients on S and S' (weights, grads_S,
    grads_Sprime) for downstream estimators, and collects flags for
    degenerate situations instead of failing mid-run.

    The holdout statistics come from _holdout_stats, bound at construction:
    a loss_grad_stats pass over S' for the MLP, the R factor of S' for the
    linear model, whose F_S' and gradient agree with that pass at roundoff
    (F_S stays bitwise the pass's). S_prime = None skips them: the
    snapshots' holdout fields are None, the S-side statistics are bitwise those of a recorder with a
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
        self._holdout = None if S_prime is None else _holdout_stats(spec, S_prime)
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
            f_sp, g_sp = self._holdout(w)
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
