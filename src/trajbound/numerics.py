"""Deterministic RNG streams, the Lanczos eigen-solver, and finite differences.

Randomness throughout the package flows through RngStream, a thin wrapper
over numpy's Philox counter-based generator keyed by (master_seed,
stream_id). Distinct stream ids give independent substreams, so estimators
and samplers can be seeded separately and stay bit-reproducible.

power_iteration_top_eig is a Lanczos solve for the top algebraic eigenvalue
of a symmetric operator, such as models.hessian_operator; it stops on its
Ritz residual. Each step forms the norm of its operator product once, as
sqrt(aq @ aq): that norm is both the finiteness check and the operator
scale the breakdown test reads. A cold solve starts from one fixed Gaussian
vector per dimension; a warm solve starts from a caller's vector (one
built from earlier Ritz vectors, when the operator changes little between
solves) plus a WARM_SHARE multiple of that Gaussian vector, so a new top
eigenvector orthogonal to the old one is still reached.
central_diff_gradient is the finite-difference oracle that the tests check
analytic gradients against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError, NumericDomainError

# Conventional stream ids, one per consumer of randomness. Anything that
# draws from a master seed picks its lane here so streams never collide.
STREAM_TEACHER = 0
STREAM_TRAIN_X = 1
STREAM_TEST_X = 2
STREAM_NOISE = 3
STREAM_SPLIT = 4
STREAM_INIT = 5
STREAM_BATCH = 6
STREAM_SUBSET_V = 7
STREAM_SUBSET_GAMMA = 8
STREAM_MOMENT = 9
STREAM_POWER_ITER = 11

# A Lanczos residual this small relative to the operator's scale is a Krylov
# breakdown: the basis spans an invariant subspace.
BREAKDOWN = 1e-12

# The weight of the fixed Gaussian direction in a warm start (against a unit
# start vector): a pure warm start orthogonal to the new top eigenvector
# would stop at the old eigenvalue.
WARM_SHARE = 1e-3


@dataclass
class RngStream:
    """A named substream of a counter-based generator.

    Same (master_seed, stream_id) reproduces the same draw sequence on any
    platform; distinct stream ids are independent. The underlying Generator
    is created lazily and advances as it is consumed.
    """

    master_seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen


def central_diff_gradient(f, w: np.ndarray, h: float) -> np.ndarray:
    """Coordinate-wise centered difference (f(w+h e_i) - f(w-h e_i)) / 2h."""
    if not h > 0:
        raise InvalidArgumentError(f"finite-difference step must be positive, got {h}")
    w = np.asarray(w, dtype=np.float64)
    grad = np.zeros_like(w)
    for i in range(w.size):
        bumped = w.copy()
        bumped.flat[i] = w.flat[i] + h
        fp = f(bumped)
        bumped.flat[i] = w.flat[i] - h
        fm = f(bumped)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericDomainError(
                f"non-finite function value while differencing coordinate {i}"
            )
        grad.flat[i] = (fp - fm) / (2.0 * h)
    return grad


@lru_cache(maxsize=8)
def _gaussian_start(dim: int) -> np.ndarray:
    """The cold start: a unit Gaussian draw from one fixed stream, read-only."""
    q = RngStream(0x9E3779B9, STREAM_POWER_ITER).generator().standard_normal(dim)
    q /= np.linalg.norm(q)
    q.flags.writeable = False
    return q


def power_iteration_top_eig(apply, dim: int, iters: int = 200, tol: float = 1e-9,
                            start: np.ndarray | None = None):
    """Top algebraic eigenvalue and a unit Ritz vector of a symmetric operator.

    Lanczos with full reorthogonalization: `apply` maps a length-dim vector
    to a length-dim vector and is called once per step. After each step the
    tridiagonal matrix T is solved with eigh, and the solve stops when the
    top Ritz pair's residual ||A x - theta x|| = beta_k |s_k| is at most tol,
    at a Krylov breakdown (an invariant subspace: the result is exact), or
    after `iters` applies. Each product is copied, since the step updates it
    in place and `apply` may return its argument or a shared buffer. A
    product whose norm is not finite (a NaN or inf entry, or an overflowing
    norm) raises NumericDomainError naming the step, without an overflow
    warning.
    Without `start` the first Lanczos vector is a Gaussian draw from one
    fixed stream (_gaussian_start), so the solve is deterministic. With it,
    the first vector is start/||start|| + WARM_SHARE * that draw, normalized:
    a start near the top eigenvector converges in fewer applies, and the
    Gaussian share keeps every eigenvector in reach. A start of the wrong
    shape raises DimensionMismatchError; a non-finite or zero one raises
    InvalidArgumentError. The name is kept from the power iteration it
    replaced.
    """
    if dim < 1:
        raise InvalidArgumentError(f"operator dimension must be >= 1, got {dim}")
    if iters < 1:
        raise InvalidArgumentError(f"iters must be >= 1, got {iters}")
    steps = min(iters, dim)
    basis = np.empty((steps, dim))
    tri = np.zeros((steps, steps))  # the Lanczos tridiagonal T
    g = _gaussian_start(dim)
    if start is None:
        basis[0] = g
    else:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (dim,):
            raise DimensionMismatchError(
                f"start vector has shape {start.shape}, expected ({dim},)"
            )
        norm = float(np.linalg.norm(start))
        if not (np.isfinite(norm) and norm > 0.0):
            raise InvalidArgumentError("start vector must be finite and nonzero")
        q = start / norm + WARM_SHARE * g
        basis[0] = q / np.linalg.norm(q)
    scale = 0.0  # largest ||A q_k||, a lower bound on ||A||
    for k in range(steps):
        aq = np.array(apply(basis[k]), dtype=np.float64)  # a copy: updated below
        if aq.shape != (dim,):
            raise DimensionMismatchError(
                f"operator returned shape {aq.shape}, expected ({dim},)"
            )
        with np.errstate(over="ignore"):  # an overflowing norm is reported below
            norm = math.sqrt(aq @ aq)
        if not math.isfinite(norm):
            raise NumericDomainError(
                f"operator product with a non-finite norm at Lanczos step {k}"
            )
        scale = max(scale, norm)
        q = basis[:k + 1]
        tri[k, k] = q[k] @ aq
        for _ in range(2):  # Gram-Schmidt against the whole basis, twice
            aq -= (q @ aq) @ q
        beta = math.sqrt(aq @ aq)
        thetas, s = np.linalg.eigh(tri[:k + 1, :k + 1])
        if beta * abs(s[-1, -1]) <= tol or beta <= BREAKDOWN * scale or k == steps - 1:
            x = s[:, -1] @ q
            return float(thetas[-1]), x / np.linalg.norm(x)
        basis[k + 1] = aq / beta
        tri[k, k + 1] = tri[k + 1, k] = beta
