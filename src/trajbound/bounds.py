"""Generalization bounds evaluated on recorded trajectories.

Two families live here. The trajectory bounds price the realized training
path: the main bound is (subset amplification) x (sign-mixing ratio) x
(cumulative complexity); the smooth variant adds two explicit
inverse-time-schedule terms; the relaxed variant adds a tail correction
when the holdout/train gradient ratio drifts late in training. The
stability baselines are closed-form uniform-stability rates that depend
only on scalar constants and the step-size sequence, evaluated with
plug-in estimates.

Every report stores the constants and scalar aggregates its formula
consumed, and reevaluate_bound reproduces the value bitwise from those,
so a report on disk can always be audited. Every report is built by
_report, which takes its value from _eval_bound; the three trajectory
bounds share one precondition check, _trajectory_aggregates.

Where each statistic comes from: the snapshots (Tr Sigma, gradient norms,
complexity C, the ratio gamma_tilde) are recorded by
trajectory.TrajectoryRecorder. estimate_constants is the only place the
constants L_hat, V_m, gamma', its envelope, the batch moments and the tail
drift are formed, for the linear model alone. It fills one column per
per-snapshot statistic from the residuals of every snapshot at once, and
the sign-row columns behind V and gamma' from one feature-product tensor
per chunk of sign rows, contracted with every snapshot's weights
(trajectory.linear_subset_norms); each constant is then one reduction over
its column. top_hessian_eig is the one smoothness estimator; it gives
estimate_constants its beta_hat and assemble_run the schedule's beta.

The aggregates the bound reports sum over steps or snapshots (sum_eta,
sum_eta_sq, sum_inv4_ratio, tail_delta_sum) go through _sequential_sum,
one rounded addition at a time, so a report's bytes do not depend on the
Python version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, write_csv
from .errors import (
    IncompleteTrajectoryError,
    InvalidArgumentError,
)
from .models import ModelSpec, hessian_operator, linear_residuals
from .numerics import STREAM_MOMENT, RngStream, power_iteration_top_eig
from .optim import Schedule, draw_batches
from .trajectory import SubsetEstimatorConfig, covariance_ratio, linear_subset_norms


@dataclass
class ConstantEstimates:
    """Plug-in estimates of every scalar the bound formulas consume.

    L_hat: max per-sample gradient norm seen along the trajectory.
    beta_hat: top eigenvalue of the linear model's Hessian X'X/n, exact.
    M2_sq / M4_fourth: max over snapshots of the Monte-Carlo batch-gradient
    second / fourth moments E||grad F_B||^2 and E||grad F_B||^4.
    gamma: max holdout/train gradient-norm ratio; gamma_prime its
    subset-amplified version; gamma_prime_envelope the analytic bracket
    max_i ||grad_i|| / ||mean grad||.
    V_m: max over snapshots of the sign-mixing ratio V.
    eta_m: largest realized step size.
    zeta / T0 / gamma_early: tail-drift correction for the relaxed bound.
    """

    L_hat: float
    beta_hat: float
    M2_sq: float
    M4_fourth: float
    gamma: float
    gamma_prime: float
    V_m: float
    eta_m: float
    zeta: float
    T0: int
    n: int
    T: int
    b: int
    gamma_prime_envelope: float = 0.0
    gamma_early: float = 0.0
    flags: list[str] = field(default_factory=list)


@dataclass
class BoundReport:
    method: str
    value: float
    constants: ConstantEstimates
    trajectory_aggregates: dict[str, float]
    remainder_scale: float | None = None
    notes: str = ""


def top_hessian_eig(spec: ModelSpec, S: Dataset, w: np.ndarray) -> float:
    """Top algebraic Hessian eigenvalue of F_S at the weight vector w.

    The linear model's Hessian X'X/n does not depend on w and is solved
    densely; the MLP runs one cold Lanczos solve (power_iteration_top_eig)
    on the exact Hessian operator at w. The value is the top algebraic
    eigenvalue, not the one of largest magnitude, and it is not floored, so
    callers see a non-positive estimate.
    """
    if spec.kind == "linear":
        hess = (S.features.T @ S.features) / S.n  # (d, d)
        return float(np.max(np.linalg.eigvalsh(hess)))
    return power_iteration_top_eig(hessian_operator(spec, w, S), dim=w.size)[0]


K_BATCHES = 64
GAMMA_QUANTILE = 0.95
# Snapshots per gather of the linear batch moments, whose (c, K_BATCHES, b, d)
# feature rows take 160 KB at toy_table's b = 1, d = 20. At toy_table's shape
# (201 snapshots, one OpenBLAS thread on a 2-vCPU x86 host, best of 21 calls)
# the call less linear_subset_norms took 2.6-3.2, 2.4, 2.3, 3.1 and 4.4 ms
# with chunks of 8, 16, 32, 64 and all 201 snapshots; 16 holds half of 32's
# temporaries.
MOMENT_CHUNK = 16


def _batch_moments(means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M2 and M4 of (..., k, P) batch means: the means of ||g_B||^2 and ||g_B||^4.

    Each ||g_B||^2 is a (1, P) @ (P, 1) product, bitwise g_B @ g_B.
    """
    sq = (means[..., None, :] @ means[..., :, None])[..., 0, 0]
    k = sq.shape[-1]
    return np.add.reduce(sq, axis=-1) / k, np.add.reduce(sq * sq, axis=-1) / k


def _residual_columns(spec: ModelSpec, S: Dataset, weights, moment_idx: np.ndarray
                      ) -> tuple[np.ndarray, ...]:
    """||mean grad||, max_i ||grad_i||, M2 and M4 of every linear snapshot.

    All four come from the (snapshots, n) residual matrix r of
    models.linear_residuals, sample i's gradient being r_i x_i: the mean
    gradient is (r @ X) / n, each gradient norm |r_i| ||x_i||, and each
    batch mean sum_{i in B} r_i x_i / b over moment_idx's (snapshots, k, b)
    rows, gathered MOMENT_CHUNK snapshots at a time, which makes M2 and M4
    bitwise those of the per-sample gradient matrices. The temporaries are
    freed on return, before linear_subset_norms binds its buffers.
    """
    X = S.features
    r = linear_residuals(spec, weights, S)
    g = (r @ X) / S.n
    norms = np.abs(r)
    norms *= np.sqrt(np.einsum("nd,nd->n", X, X))
    m2, m4 = np.empty((2, len(r)))
    for a in range(0, len(r), MOMENT_CHUNK):
        idx = moment_idx[a:a + MOMENT_CHUNK]
        batch = X[idx]  # (c, k, b, d) batch rows, scaled in place into gradients
        batch *= r[np.arange(a, a + len(idx))[:, None, None], idx][..., None]
        means = np.add.reduce(batch, axis=-2)
        means /= idx.shape[-1]
        m2[a:a + len(idx)], m4[a:a + len(idx)] = _batch_moments(means)
    return np.sqrt(np.einsum("md,md->m", g, g)), norms.max(axis=1), m2, m4


def estimate_constants(spec: ModelSpec, weights, snapshots, etas, batch_size: int,
                       S: Dataset, *, cfg: SubsetEstimatorConfig | None = None
                       ) -> ConstantEstimates:
    """One pass over a linear model's snapshot weights collecting every constant.

    Another model kind raises InvalidArgumentError before any draw or pass.
    The holdout enters only through the recorded snapshots. Six columns
    hold one value per snapshot: ||mean grad||, max_i ||grad_i||, D_hat,
    the subset ratio (where ||mean grad|| != 0) and the M2 and M4 batch
    means. No per-sample gradient is formed: _residual_columns fills
    ||mean grad||, max_i ||grad_i||, M2 and M4 from one residual matrix for
    all snapshots, M2 and M4 bitwise the per-sample ones and the other two
    at roundoff. D_hat and the ratio's subset-sum norms come from
    trajectory.linear_subset_norms, which forms each sign sum from one
    weight-free feature-product tensor and agrees with the per-snapshot
    kernels signed_mean_norm_stats and subset_ratio_max at roundoff; a
    snapshot whose per-sample gradients are all exactly 0 keeps D_hat = 0
    exactly. Each constant is then one reduction over its column, exact as
    every max is; the zero-gradient flags come from one mask over the
    ||mean grad|| column, in snapshot order, and the trivial-bound flag
    from D_hat = 0 at any snapshot. The V and gamma' sign matrices are
    drawn once per call and serve every snapshot. The batch moments
    average K_BATCHES size-b subsets per snapshot, drawn for all snapshots
    at once by optim.draw_batches on the STREAM_MOMENT stream, the same
    helper the training loop draws its batches with; at b = n the one draw
    is the exact mean gradient. The smoothness constant beta_hat is
    top_hessian_eig, X'X/n's top eigenvalue at any weights, which is at
    least X'X/n's largest diagonal entry and so never negative; the
    tail-drift onset uses the GAMMA_QUANTILE quantile of the early ratios.

    etas are the run's step sizes, one per step taken (TrainResult.etas),
    and batch_size its b; the largest step size is eta_m.
    """
    if spec.kind != "linear":
        raise InvalidArgumentError(
            f"constant estimation supports the linear model only, got {spec.kind!r}"
        )
    cfg = cfg or SubsetEstimatorConfig()
    weights = list(weights)
    snapshots = list(snapshots)
    etas = np.asarray(etas, dtype=np.float64)
    if not snapshots:
        raise InvalidArgumentError("constant estimation needs a non-empty trajectory")
    if any(s.F_Sprime is None for s in snapshots):
        raise InvalidArgumentError(
            "gamma needs holdout statistics: the snapshots were recorded "
            "without a holdout"
        )
    if len(weights) != len(snapshots):
        raise InvalidArgumentError(
            f"{len(weights)} weights vs {len(snapshots)} snapshots"
        )
    if S.n < 2:
        raise InvalidArgumentError(f"V estimation needs n >= 2, got n={S.n}")
    n = S.n
    if not 1 <= batch_size <= n:
        raise InvalidArgumentError(f"need 1 <= batch_size <= n={n}, got {batch_size}")
    flags: list[str] = []
    T = len(etas)
    b = batch_size
    if T == 0:
        flags.append("no-steps: eta_m defaulted")

    k = 1 if b == n else K_BATCHES  # the full batch is one exact draw
    moment_idx = draw_batches(RngStream(cfg.seed, STREAM_MOMENT), n, b,
                              len(weights) * k).reshape(len(weights), k, b)
    # one column per per-snapshot statistic; each constant reduces one column
    gnorm, l_max, m2, m4 = _residual_columns(spec, S, weights, moment_idx)
    d_hat, subset_max = linear_subset_norms(cfg, S, weights)
    d_hat[l_max == 0.0] = 0.0  # every g_i is 0: D_hat is exactly 0, not roundoff
    ratio = np.divide(subset_max, n * gnorm, out=np.zeros_like(gnorm), where=gnorm != 0.0)
    live = gnorm != 0.0
    flags.extend(f"gamma-prime: zero gradient at step {snap.t} skipped"
                 for snap, z in zip(snapshots, live) if not z)
    if d_hat.all():
        v_m = float(np.max(gnorm / d_hat))
    else:
        flags.append("trivial-bound: sign-mixed gradient mean vanished at a snapshot")
        v_m = math.inf

    ratios = [(s.t, s.gamma_tilde) for s in snapshots if s.gamma_tilde is not None]
    if not ratios:
        raise InvalidArgumentError(
            "gamma undefined: every snapshot had zero training gradient norm"
        )
    gamma = max(r for _, r in ratios)
    inner_subset = float(np.max(ratio[live], initial=0.0))
    gamma_prime = max(1.0, inner_subset) * gamma
    envelope = float(np.max(l_max[live] / gnorm[live], initial=0.0))
    gamma_prime_env = max(1.0, envelope) * gamma

    # Tail-drift onset: first snapshot whose ratio exceeds the high quantile
    # of the early phase (first half of the recorded ratios).
    vals = np.array([r for _, r in ratios])
    early = vals[: max(1, len(vals) // 2)]
    threshold = float(np.quantile(early, GAMMA_QUANTILE))
    t0 = next((t for t, r in ratios if r > threshold), ratios[-1][0])
    before = [r for t, r in ratios if t < t0]
    gamma_early = max(before) if before else ratios[0][1]
    zeta = max([0.0] + [s.grad_norm_Sprime - gamma_early * s.grad_norm_S
                        for s in snapshots if s.t >= t0])

    eta_m = float(etas.max()) if T else 0.0
    return ConstantEstimates(
        L_hat=float(np.max(l_max)), beta_hat=top_hessian_eig(spec, S, weights[0]),
        M2_sq=float(np.max(m2)), M4_fourth=float(np.max(m4)),
        gamma=gamma, gamma_prime=gamma_prime, V_m=v_m, eta_m=eta_m,
        zeta=zeta, T0=t0, n=n, T=T, b=b,
        gamma_prime_envelope=gamma_prime_env, gamma_early=gamma_early,
        flags=flags,
    )


def _sequential_sum(values) -> float:
    """0.0 + values[0] + values[1] + ..., rounded after every addition.

    The bound aggregates are summed this way, not with the builtin sum(),
    whose float summation is compensated from Python 3.12 on, so the same
    run would give other last digits on another supported Python. An empty
    sum and a lone -0.0 give 0.0. Overflow gives inf (and inf - inf nan)
    silently, as the Python loop does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.add.accumulate(np.append(0.0, values))[-1])


def _eval_bound(method: str, est: ConstantEstimates, agg: dict[str, float]) -> float:
    """Single evaluation point for every bound formula.

    Both the report builders and reevaluate_bound call this, which is what
    makes stored reports bitwise re-derivable.
    """
    if method == "ours_main":
        return est.gamma_prime * est.V_m * agg["C_final"]
    if method == "ours_smooth":
        c = agg["c"]
        term1 = est.gamma_prime * est.V_m * agg["C_final"]
        term2 = (2.0 * c * c * est.gamma_prime * est.V_m
                 * math.sqrt(est.M4_fourth) * math.sqrt(agg["sum_inv4_ratio"]))
        term3 = 2.0 * c * c * est.M2_sq / est.beta_hat
        return term1 + term2 + term3
    if method == "ours_relaxed":
        main = est.gamma_prime * est.V_m * agg["C_final"]
        return main + 0.5 * agg["tail_delta_sum"] * est.zeta
    L2 = est.L_hat * est.L_hat
    if method == "hardt_convex":
        return 2.0 * L2 / est.n * agg["sum_eta"]
    if method == "hardt_nonconvex":
        bc = est.beta_hat * agg["c"]
        return ((1.0 + 1.0 / bc) / (est.n - 1)
                * (2.0 * agg["c"] * L2) ** (1.0 / (bc + 1.0))
                * est.T ** (bc / (bc + 1.0)))
    if method == "zhang":
        c = agg["c"]
        return 16.0 * L2 * est.T ** c / est.n ** (1.0 + c)
    if method == "bassily":
        return (2.0 * L2 * math.sqrt(agg["sum_eta_sq"])
                + 4.0 * L2 / est.n * agg["sum_eta"])
    raise InvalidArgumentError(f"unknown bound method {method!r}")


def reevaluate_bound(report: BoundReport) -> float:
    """Recompute a report's value from its stored constants and aggregates."""
    return _eval_bound(report.method, report.constants, report.trajectory_aggregates)


def _report(method: str, est: ConstantEstimates, agg: dict[str, float], *,
            remainder: bool = False, notes: str = "") -> BoundReport:
    """The one BoundReport constructor; the value is _eval_bound's.

    A bound with remainder=True carries the unconstanted O(eta_m)
    discretization remainder: its scale is stored as remainder_scale and
    noted, and deliberately never added to the value.
    """
    if remainder:
        notes = "plus O(eta_m) remainder, unknown constant, not added"
    return BoundReport(method=method, value=_eval_bound(method, est, agg),
                       constants=est, trajectory_aggregates=agg,
                       remainder_scale=est.eta_m if remainder else None, notes=notes)


def _trajectory_aggregates(est: ConstantEstimates, snapshots,
                           bound: str) -> dict[str, float]:
    """Check what every trajectory bound needs; return its C_final aggregate."""
    if not snapshots:
        raise IncompleteTrajectoryError(f"{bound} bound needs at least one snapshot")
    if not math.isfinite(est.V_m):
        raise InvalidArgumentError(
            "trivial-bound flag set: sign-mixing ratio is unbounded"
        )
    return {"C_final": snapshots[-1].C_cum}


def bound_trajectory_main(est: ConstantEstimates, snapshots) -> BoundReport:
    """Amplification x mixing ratio x cumulative complexity.

    The unconstanted O(eta_m) discretization remainder is surfaced as
    remainder_scale and deliberately never added to the value.
    """
    return _report("ours_main", est, _trajectory_aggregates(est, snapshots, "main"),
                   remainder=True)


def bound_trajectory_smooth(est: ConstantEstimates, snapshots,
                            schedule: Schedule) -> BoundReport:
    """Three-term bound for inverse-time step sizes eta_t = c/(beta (t+1)).

    c is the schedule's. The second term sums 1/(n beta^2 (t+1)^4) times the
    covariance ratio over realized steps, taking the ratio from the left
    endpoint of each snapshot interval (exact at cadence 1). The step-size
    form is part of the hypothesis, so another schedule kind, or a beta
    other than the estimated smoothness, is rejected.
    """
    agg = _trajectory_aggregates(est, snapshots, "smooth")
    if schedule.kind != "inverse_time":
        raise InvalidArgumentError(
            f"smooth bound assumes inverse-time steps, schedule is {schedule.kind!r}"
        )
    if est.beta_hat <= 0:
        raise InvalidArgumentError("smooth bound needs a positive smoothness estimate")
    if not math.isclose(schedule.beta, est.beta_hat, rel_tol=1e-6):
        raise InvalidArgumentError(
            f"schedule beta={schedule.beta} is not the estimated "
            f"smoothness {est.beta_hat}"
        )

    terms = []
    beta_sq = est.beta_hat * est.beta_hat
    for left, right in zip(snapshots[:-1], snapshots[1:]):
        ratio = covariance_ratio(left.trace_sigma, left.grad_norm_S)
        if ratio is None:
            continue  # stationary mean with residual spread: no defined weight
        # (t + 1)^2 is an exact float up to t + 1 = 9.4e7, so its square is
        # (t + 1)^4 rounded once, as Python's int-to-float conversion rounds it
        sq = np.arange(left.t + 1, right.t + 1, dtype=np.float64) ** 2
        terms.append(ratio / (est.n * beta_sq * (sq * sq)))
    inner = _sequential_sum(np.concatenate(terms)) if terms else 0.0
    agg.update(sum_inv4_ratio=inner, c=schedule.c)
    return _report("ours_smooth", est, agg)


def bound_trajectory_relaxed(est: ConstantEstimates, snapshots) -> BoundReport:
    """Main bound plus the late-phase drift correction.

    Adds half of est.zeta times the sum of eta_t ||grad F_S|| over recorded
    steps at or after est.T0 (final step included).
    """
    agg = _trajectory_aggregates(est, snapshots, "relaxed")
    if est.T0 > snapshots[-1].t:
        raise InvalidArgumentError(
            f"T0={est.T0} is past the final recorded step {snapshots[-1].t}"
        )
    if est.zeta < 0:
        raise InvalidArgumentError(f"zeta must be >= 0, got {est.zeta}")
    agg["tail_delta_sum"] = _sequential_sum([s.delta_t for s in snapshots
                                             if s.t >= est.T0])
    return _report("ours_relaxed", est, agg, remainder=True)


STABILITY_KINDS = ("hardt_convex", "hardt_nonconvex", "zhang", "bassily")

_HARDT_NONCONVEX_FORM = (
    "(1 + 1/(beta*c))/(n-1) * (2*c*L^2)^(1/(beta*c+1)) * T^(beta*c/(beta*c+1))"
)


def bound_stability_baseline(kind: str, est: ConstantEstimates, etas,
                             schedule: Schedule | None = None) -> BoundReport:
    """Closed-form uniform-stability rates with plug-in constants.

    hardt_convex and bassily consume the realized step sizes etas, one per
    step taken (TrainResult.etas), summed one after another in step order;
    the nonconvex rates consume the inverse-time schedule parameters, so
    those kinds require the schedule. bassily's decomposition uses the step
    sizes of all but the final step.
    """
    if kind not in STABILITY_KINDS:
        raise InvalidArgumentError(f"unknown stability baseline {kind!r}")
    etas = np.asarray(etas, dtype=np.float64)
    agg: dict[str, float] = {}
    notes = ""
    if kind == "hardt_convex":
        agg["sum_eta"] = _sequential_sum(etas)
    elif kind == "bassily":
        head = etas[:-1]
        agg["sum_eta"] = _sequential_sum(head)
        agg["sum_eta_sq"] = _sequential_sum(head * head)
    else:
        if schedule is None or schedule.kind != "inverse_time":
            raise InvalidArgumentError(
                f"{kind} needs the inverse-time schedule constant c"
            )
        if est.n < 2:
            raise InvalidArgumentError(f"{kind} needs n >= 2, got n={est.n}")
        agg["c"] = schedule.c
        if kind == "hardt_nonconvex":
            if est.beta_hat <= 0:
                raise InvalidArgumentError(
                    "hardt_nonconvex needs a positive smoothness constant beta_hat"
                )
            notes = _HARDT_NONCONVEX_FORM
    return _report(kind, est, agg, notes=notes)


_CONSTANT_COLUMNS = (
    "L_hat", "beta_hat", "gamma", "gamma_prime", "V_m", "M2_sq", "M4_fourth",
    "eta_m", "zeta", "T0", "n", "T", "b",
)
_AGGREGATE_COLUMNS = (
    "C_final", "sum_eta", "sum_eta_sq", "sum_inv4_ratio", "tail_delta_sum", "c",
)

# Which columns each method's formula actually reads; everything else is
# left blank in the CSV so a reader sees what entered each value.
_USED: dict[str, tuple[str, ...]] = {
    "ours_main": ("gamma_prime", "V_m", "eta_m", "n", "T", "b", "C_final"),
    "ours_smooth": ("gamma_prime", "V_m", "M2_sq", "M4_fourth", "beta_hat",
                    "n", "T", "b", "C_final", "sum_inv4_ratio", "c"),
    "ours_relaxed": ("gamma_prime", "V_m", "eta_m", "zeta", "T0", "n", "T", "b",
                     "C_final", "tail_delta_sum"),
    "hardt_convex": ("L_hat", "n", "T", "sum_eta"),
    "hardt_nonconvex": ("L_hat", "beta_hat", "n", "T", "c"),
    "zhang": ("L_hat", "n", "T", "c"),
    "bassily": ("L_hat", "n", "T", "sum_eta", "sum_eta_sq"),
}


def write_bounds_csv(path: str, reports, seeds) -> None:
    """One row per report, led by the seed of the run it came from."""
    reports = list(reports)
    seeds = list(seeds)
    if len(seeds) != len(reports):
        raise InvalidArgumentError(
            f"{len(seeds)} seeds for {len(reports)} reports"
        )
    header = ["seed", "method", "value", "remainder_scale"]
    header += list(_CONSTANT_COLUMNS) + list(_AGGREGATE_COLUMNS)
    rows = []
    for seed, rep in zip(seeds, reports):
        used = _USED[rep.method]
        agg = rep.trajectory_aggregates
        row = [int(seed), rep.method, float(rep.value), rep.remainder_scale]
        for name in _CONSTANT_COLUMNS:
            if name not in used:
                row.append(None)
                continue
            val = getattr(rep.constants, name)
            row.append(int(val) if name in ("T0", "n", "T", "b") else float(val))
        for name in _AGGREGATE_COLUMNS:
            row.append(float(agg[name]) if name in used and name in agg else None)
        rows.append(row)
    write_csv(path, header, rows)
