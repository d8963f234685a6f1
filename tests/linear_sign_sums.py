"""The per-snapshot oracle of the linear sign-sum route, with the tolerance
that bounds the route's distance from it.

trajectory.linear_subset_norms forms each sign sum of the linear model,
sum_i s_ki g_i(w), as sum_j w~_j T[k, j, :], with B = [X, -y], w~ = [w; 1]
and T[k, j, p] = sum_i s_ki B_ij X_ip. The oracle, per_sample_grads and
then signed_mean_norm_stats or subset_ratio_max, forms g_i = r_i x_i from
the residual r_i = x_i . w - y_i and sums the rows.

Derivation of the tolerance (u the unit roundoff, gamma_m = m u / (1 - m u),
Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1). Both
sides sum the same n (d + 1) terms s_ki B_ij w~_j X_ip, and each term passes
through at most n + d + 1 rounded operations on either side, in any order
and with or without fused multiply-adds. So each computed sum is within
gamma_{n+d+1} E_kp of the exact one, where

    E_k = (|s_k| (.) (|B| |w~|)) @ |X|,

and the two sums differ by at most 2 gamma_{n+d+1} ||E_k|| in the 2-norm,
which bounds the difference of their exact norms too. Each side's norm of
its computed sum adds a relative gamma_{P+1} (P squares summed, one sqrt),
and a mean over k rows, divided by n and by k, a relative gamma_{k+1}. Hence

    |D_hat - D_hat'| <= 2 gamma_{n+d+1} mean_k ||E_k|| / n + 2 gamma_{P+k+2} D_hat,
    |max - max'|     <= 2 gamma_{n+d+1} max_k ||E_k|| + 2 gamma_{P+1} max,

the second over the gamma' memberships. A quotient by the shared n ||mean
grad|| adds 2u, and each reduction over snapshots is exact. The bound is
first order in u and is computed in floating point itself, so it carries a
factor MARGIN for its own roundoff.
"""

import math

import numpy as np

from trajbound import trajectory
from trajbound.models import per_sample_grads
from trajbound.numerics import STREAM_SUBSET_GAMMA, STREAM_SUBSET_V
from trajbound.trajectory import signed_mean_norm_stats, subset_ratio_max

U = np.finfo(np.float64).eps / 2
MARGIN = 1.01


def gamma(m):
    return m * U / (1 - m * U)


def sign_sum_slack(S, w, rows):
    """2 gamma_{n+d+1} ||E_k|| for each float64 sign or membership row k."""
    X = S.features
    n, d = X.shape
    scale = np.abs(X) @ np.abs(w) + np.abs(S.labels)  # |B| |w~|
    E = np.abs(rows) @ (scale[:, None] * np.abs(X))
    return 2 * gamma(n + d + 1) * np.sqrt(np.einsum("kp,kp->k", E, E))


def oracle_snapshot(spec, S, w, cfg):
    """(D_hat, tol, subset ratio, tol) at w; the ratio and its tol are None at ||mean grad|| = 0."""
    G = per_sample_grads(spec, w, S)
    n, P = G.shape
    signs = trajectory._sign_rows(cfg, n, STREAM_SUBSET_V, False)[0].astype(np.float64)
    members = trajectory._sign_rows(cfg, n, STREAM_SUBSET_GAMMA, True)[0] > 0
    d_hat = signed_mean_norm_stats(G, cfg)[0]
    d_tol = MARGIN * (float(np.mean(sign_sum_slack(S, w, signs))) / n
                      + 2 * gamma(P + len(signs) + 2) * d_hat)
    gnorm = float(np.linalg.norm(np.mean(G, axis=0)))
    if gnorm == 0.0:
        return d_hat, d_tol, None, None
    ratio = subset_ratio_max(G, cfg)
    top_tol = (float(np.max(sign_sum_slack(S, w, members.astype(np.float64))))
               + 2 * gamma(P + 1) * ratio * n * gnorm)
    return d_hat, d_tol, ratio, MARGIN * (top_tol / (n * gnorm) + 2 * U * ratio)


def constant_bounds(spec, S, weights, snapshots, cfg):
    """{"V_m": (lo, hi), "gamma_prime": (lo, hi)} that estimate_constants must meet.

    V_m is infinite where an oracle D_hat is 0; else each snapshot's
    ||mean grad|| / D_hat lies between its quotients by D_hat + tol and
    D_hat - tol, and gamma' = max(1, ratio) gamma between the ratios' bounds.
    """
    rows = [(float(np.linalg.norm(np.mean(per_sample_grads(spec, w, S), axis=0))),
             *oracle_snapshot(spec, S, w, cfg)) for w in weights]
    if any(d == 0.0 for _, d, *_ in rows):
        v_m = (math.inf, math.inf)
    else:
        v_m = (max(g / (d + t) for g, d, t, *_ in rows) * (1 - 2 * U),
               max(g / (d - t) if d > t else math.inf for g, d, t, *_ in rows) * (1 + 2 * U))
    live = [(r, t) for *_, r, t in rows if r is not None]
    g = max(s.gamma_tilde for s in snapshots if s.gamma_tilde is not None)
    gamma_prime = (max([1.0] + [r - t for r, t in live]) * g * (1 - 2 * U),
                   max([1.0] + [r + t for r, t in live]) * g * (1 + 2 * U))
    return {"V_m": v_m, "gamma_prime": gamma_prime}
