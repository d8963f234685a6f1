"""The per-step float64 reference for linear SGD steps, with the tolerance that
bounds the chunked step kernel's distance from it.

models.bind_step_kernel runs a linear block in chunks of m steps: it forms
the chunk's residuals a = X w_c - y at the chunk's first weights w_c, solves
(I + L) r = a, L being the strictly-earlier-step part of X X' with each
column scaled by its step's eta / b, and subtracts the updates
u_s = eta_s r_s X_s / b one at a time. The reference takes the same steps
one by one, w - eta * grad_mean_xy(w), as a block of one step does.

Derivation of the tolerance (u the unit roundoff, gamma = N u with N the
longest sum of one chunk: m b substitution terms, d dot-product terms and b
gradient terms). The dot products, the Gram entries and the triangular back
substitution are backward stable, so the computed residuals are the exact
residuals of a perturbed trajectory: step s moves by an extra
(eta_s / b) X_s' rho_s, with

    ||rho_s|| <= gamma (||X_s|| sigma_s + ||y_s||),
    sigma_s = ||w_c|| + sum over the chunk's steps s' <= s of ||ubar_s'||,
    ubar_s' = (eta_s' / b) |X_s'|' |r_s'|,

sigma_s being the size of the operands the chunk has summed up to step s.
The update's products and the accumulated subtraction add gamma sigma_s.
Step s's exact map is affine with linear part A_s = I - (eta_s / b) X_s' X_s,
so a perturbation already made grows by at most max(1, ||A_s||_2) per step,
and the error after step t is at most e_t = max(1, ||A_t||) e_{t-1} + p_t, with

    p_t = gamma ((eta_t / b) ||X_t|| (||X_t|| sigma_t + ||y_t||) + sigma_t).

The reference's own roundoff obeys the same bound with smaller terms, and
each side's norm adds (d + 2) u ||w_t||, so the tolerance is
2 e_t + 2 (d + 2) u ||w_t||, for the weights' distance in the 2-norm and for
the norms. It is first order in u: it holds until a trajectory overflows.
At rate 0 every step is exact, and a chunk's first step is bitwise the
reference's once their weights agree, so the bound is loose there.
"""

import numpy as np

from trajbound import models
from trajbound.models import grad_mean_xy

U = np.finfo(np.float64).eps / 2


def linear_reference(spec, ws, datasets, batches, rates, blocks=(0,)):
    """Each run's steps one at a time: (weights, norms, tol).

    batches (k, R, b) and rates (k, R) are the steps' rows and sizes, step
    j of run r taking rows batches[j, r] of datasets[r] from ws[r]; blocks
    are the steps at which the kernel's run calls start. weights is
    (k + 1, R, P), every step's reference weights after ws; norms (k, R)
    their norms; tol (k, R) the bound the module docstring derives on the
    kernel's distance from them after each step.
    """
    k, R, b = batches.shape
    d = spec.input_dim
    m = max(1, models.LINEAR_CHUNK_ROWS // b)
    gamma = (m * b + d + b) * U
    blocks = sorted(blocks)
    starts = {s for start, end in zip(blocks, [*blocks[1:], k]) for s in range(start, end, m)}
    weights = np.empty((k + 1, R, spec.n_params))
    weights[0] = ws
    norms, tol = np.empty((k, R)), np.empty((k, R))
    for r, data in enumerate(datasets):
        err = 0.0
        for j in range(k):
            w = weights[j, r]
            X, y = data.features[batches[j, r]], data.labels[batches[j, r]]
            eta = rates[j, r]
            if j in starts:
                sigma = np.linalg.norm(w)
            sigma += np.linalg.norm(eta / b * (np.abs(X @ w - y) @ np.abs(X)))
            x_norm = np.linalg.norm(X)
            gain = np.abs(1.0 - eta / b * np.linalg.eigvalsh(X.T @ X)).max(initial=1.0)
            err = gain * err + gamma * (eta / b * x_norm * (x_norm * sigma + np.linalg.norm(y))
                                        + sigma)
            weights[j + 1, r] = w - eta * grad_mean_xy(spec, w, X, y)
            norms[j, r] = np.sqrt(weights[j + 1, r] @ weights[j + 1, r])
            tol[j, r] = 2 * err + 2 * (d + 2) * U * norms[j, r]
    return weights, norms, tol


def assert_within(W, norms, weights, ref_norms, tol):
    """The kernel's final weights W (R, P) and (k, R) norms are within tol of the reference."""
    k = len(norms)
    assert np.all(np.abs(norms - ref_norms) <= tol)
    assert np.all(np.linalg.norm(W - weights[k], axis=1) <= tol[k - 1])
