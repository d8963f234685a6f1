"""The linear model's residual-space routes, with the tolerances that bound
their distance from the per-sample oracles.

Two routes take the linear model's snapshot statistics from its residuals
r = X w - y instead of from per-sample gradient matrices or passes over the
rows, and so round differently from the oracles:

1. bounds.estimate_constants forms the mean gradient as (r @ X) / n and each
   per-sample gradient norm as |r_i| ||x_i||. The oracle, per_sample_grads,
   forms the rows g_i = r_i x_i and sums or squares them. r itself is
   bitwise the same on both sides (one forward einsum), and so are the
   batch moments M2 and M4, so only the columns ||mean grad|| and
   max_i ||g_i|| differ, and through them V_m, gamma' and its envelope.

2. trajectory.TrajectoryRecorder takes F_S' and grad F_S' of a linear
   holdout from the triangular factor R of B = [X', -y'] / sqrt(n'): with
   w~ = [w; 1] and u = R w~, F = u.u / 2 and grad = R[:, :d]' u. The oracle
   is the pass over the rows, models.loss_grad_stats.

Derivations (u the unit roundoff, gamma_m = m u / (1 - m u), Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1; s_i =
|x_i| . |w| + |y_i|, the size of the operands of residual i).

Columns. Each side's mean gradient sums the n products r_i x_ip with one
rounding per product, n - 1 additions in any order and one division, so it
is within gamma_{n+1} E_p / n of the exact one, E = |r| @ |X|; a 2-norm of
P squares and a sqrt add a relative gamma_{P+1} on each side. Hence

    | ||g|| - ||g'|| | <= 2 gamma_{n+1} ||E|| / n + 2 gamma_{P+1} ||g||.

The oracle's row norm sqrt(sum_p fl(r_i x_ip)^2) is within gamma_{P+3} of
|r_i| ||x_i|| relatively, the route's |r_i| sqrt(sum_p x_ip^2) within
gamma_{P+2}, so the two differ by at most 2 gamma_{P+3} of either. Each
quotient adds 2u, each max is exact.

Holdout. Forming B adds a relative gamma_2 to each entry (E1). The route's
R is checked a posteriori: with Q the orthogonal-column factor LAPACK
returns with the same R, D = Q R - B and Q'Q - I are measured in long
double, each with its own rounding slack (gamma_{d+2} and gamma_{n'+1} in
the long double unit). Then Q (R w~) = B w~ + (E1 + D) w~, so with
a = ||B w~|| = sqrt(2 F), eps = gamma_2 || |B| |w~| || + sum_j |w~_j| ||D_j||
and eta >= ||Q'Q - I||, ||R w~|| lies within eps + eta (a + eps) of a. The
computed u adds gamma_{d+1} || |R| |w~| || (e3) and the dot product a
relative gamma_{d+1}, so

    |F_route - F| <= delta (a + delta / 2) + gamma_{d+1} F_route,
    delta = eps + eta (a + eps) + e3.

For the gradient R_X' R w~ - B_X' B w~ = B_X' D' w~ + D'_X B w~ + D'_X D' w~
- R_X' (Q'Q - I) R w~, with D' = E1 + D and _X the first d columns; the
computed product adds ||R_X|| e3 + gamma_{d+1} || |R_X|' |u| ||. The pass
forms r_i within gamma_{d+1} s_i, its mean loss within gamma_{n+1} of the
mean of its r_i^2 / 2, and its gradient within (gamma_{n+1} |r| @ |X|
+ gamma_{d+1} s @ |X|) / n. The 2-norms above are bounded by Frobenius
norms. Every bound is first order in u and computed in floating point
itself, so it carries a factor MARGIN for its own roundoff.
"""

import math

import numpy as np

from trajbound.models import per_sample_grads

from linear_sign_sums import MARGIN, U, gamma, oracle_snapshot

U_LONG = float(np.finfo(np.longdouble).eps) / 2


def gamma_long(m):
    return m * U_LONG / (1 - m * U_LONG)


# -- the constants pass's columns -----------------------------------------------

def mean_grad_norm(spec, S, w):
    """(||mean grad|| of the oracle, its bound on the route's distance), at w."""
    G = per_sample_grads(spec, w, S)
    n, P = G.shape
    g = float(np.linalg.norm(np.mean(G, axis=0)))
    r = np.abs(S.features @ w - S.labels)
    spread = np.linalg.norm(r @ np.abs(S.features))
    return g, MARGIN * (2 * gamma(n + 1) * spread / n + 2 * gamma(P + 1) * g)


def constant_bounds(spec, S, weights, snapshots, cfg):
    """{field: (lo, hi)} that estimate_constants' linear route must meet.

    L_hat, gamma_prime_envelope, V_m and gamma_prime, from the oracle's
    columns, the sign-sum tolerances of tests/linear_sign_sums.py and the
    column tolerances above. V_m is infinite where an oracle D_hat is 0.
    The snapshots live on both sides are those of nonzero oracle ||mean
    grad||; gamma is read from the snapshots, as both sides do.
    """
    P = spec.n_params
    rho = MARGIN * 2 * gamma(P + 3)
    rows = []
    for w in weights:
        G = per_sample_grads(spec, w, S)
        l_max = float(np.sqrt(np.einsum("np,np->n", G, G)).max())
        rows.append((l_max, *mean_grad_norm(spec, S, w), *oracle_snapshot(spec, S, w, cfg)))
    lo, hi = 1 - 2 * U, 1 + 2 * U

    def over(num, den):
        return num / den if den > 0 else math.inf

    bounds = {"L_hat": (max(l for l, *_ in rows) * (1 - rho),
                        max(l for l, *_ in rows) * (1 + rho))}
    if any(d == 0.0 for _, _, _, d, *_ in rows):
        bounds["V_m"] = (math.inf, math.inf)
    else:
        bounds["V_m"] = (max((g - tg) / (d + td) for _, g, tg, d, td, *_ in rows) * lo,
                         max(over(g + tg, d - td) for _, g, tg, d, td, *_ in rows) * hi)
    live = [(l, g, tg, r, tr) for l, g, tg, _, _, r, tr in rows if r is not None]
    ratio = ([(r - tr) * g / (g + tg) * lo for _, g, tg, r, tr in live],
             [(r + tr) * over(g, g - tg) * hi for _, g, tg, r, tr in live])
    envelope = ([l * (1 - rho) / (g + tg) * lo for l, g, tg, *_ in live],
                [over(l * (1 + rho), g - tg) * hi for l, g, tg, *_ in live])
    gam = max(s.gamma_tilde for s in snapshots if s.gamma_tilde is not None)
    for key, (low, high) in (("gamma_prime", ratio), ("gamma_prime_envelope", envelope)):
        bounds[key] = (max([1.0] + low) * gam * lo, max([1.0] + high) * gam * hi)
    return bounds


# -- the recorder's holdout factor ----------------------------------------------

def holdout_tolerances(S_prime, w):
    """(F tol, gradient tol): bounds on |F_route - F_pass| and ||g_route - g_pass||.

    F_route and g_route are the recorder's R-factor values at w, F_pass and
    g_pass loss_grad_stats' on S_prime; the route's own F is read from the
    factor the recorder binds (the same LAPACK call on the same B).
    """
    X, y = S_prime.features, S_prime.labels
    n, d = X.shape
    w1 = np.append(w, 1.0)
    B = np.column_stack([X, -y]) / math.sqrt(n)
    Q, R = np.linalg.qr(B)
    assert np.array_equal(R, np.linalg.qr(B, mode="r"))  # the recorder's R
    u = R @ w1
    F_route = 0.5 * float(u @ u)

    ld = np.longdouble
    QR = Q.astype(ld) @ R.astype(ld)
    D = np.abs(QR - B.astype(ld)).astype(np.float64)
    D += gamma_long(d + 2) * (np.abs(Q) @ np.abs(R) + np.abs(B))
    gram = np.abs(Q.T.astype(ld) @ Q.astype(ld) - np.eye(R.shape[0], dtype=ld))
    gram = gram.astype(np.float64) + gamma_long(n + 1) * (np.abs(Q).T @ np.abs(Q) + 1.0)
    eta = float(np.linalg.norm(gram))

    norm = np.linalg.norm
    a = math.sqrt(2 * F_route)
    E1 = gamma(2) * np.abs(B)
    eps = float(norm(E1 @ np.abs(w1)) + np.abs(w1) @ norm(D, axis=0))
    e3 = gamma(d + 1) * float(norm(np.abs(R) @ np.abs(w1)))
    delta = eps + eta * (a + eps) + e3
    route_F = delta * (a + delta / 2) + gamma(d + 1) * F_route
    BX, DX, RX = B[:, :d], (E1 + D)[:, :d], R[:, :d]
    route_g = (norm(BX) * eps + norm(DX) * (a + eps) + norm(RX) * eta * (a + delta)
               + norm(RX) * e3 + gamma(d + 1) * norm(np.abs(RX).T @ np.abs(u)))

    r = np.abs(np.einsum("ni,i->n", X, w) - y)
    s = np.abs(X) @ np.abs(w) + np.abs(y)
    F_pass = float(np.mean(0.5 * r * r))
    pass_F = (float(np.mean(gamma(d + 1) * s * r + gamma(d + 1) ** 2 * s * s))
              + gamma(n + 1) * F_pass)
    pass_g = norm(gamma(n + 1) * (r @ np.abs(X)) + gamma(d + 1) * (s @ np.abs(X))) / n
    return MARGIN * (route_F + pass_F), MARGIN * float(route_g + pass_g)
