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
eigenvector orthogonal to the old one is still reached. It takes a stack
of K solves as well, like the stacked Hessian operator it is paired with:
each step is one apply to a (K, dim) stack, Gram-Schmidt as one matmul a
row and one batched eigh, and each row stops on its own test, row k
bitwise the single solve of its operator. A single solve is the stack of
one, on the same loop.
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
# Ids 4 and 10 belonged to retired consumers; they stay unused, since
# renumbering a stream would re-seed every output drawn from it.
STREAM_TEACHER = 0
STREAM_TRAIN_X = 1
STREAM_TEST_X = 2
STREAM_NOISE = 3
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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's a_k @ b_k of two (K, dim) stacks: one BLAS dot a row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def power_iteration_top_eig(apply, dim: int, iters: int = 200, tol: float = 1e-9,
                            start: np.ndarray | None = None, stack: int | None = None):
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

    With `stack` = K the call is K solves run as one: `apply` maps a
    (K, dim) stack of vectors to their K products (the K rows of a stacked
    models.hessian_operator, say), `start` is None or (K, dim), and the
    result is the (K,) eigenvalues, the (K, dim) Ritz vectors and each
    row's (K,) count of steps, its applies. Each step makes one stacked
    apply, Gram-Schmidt as one matmul a row and one batched eigh over the
    rows still running. Each row stops on its own test; a row that stopped
    is then fed its product over an infinite divisor (zero vectors, while
    its products are finite), and its products go unread until the last
    row stops. A non-finite product of a running row raises, naming the
    step and the row. Every product, dot and eigh acts on one row with the
    unstacked call's shapes, so row k is bitwise the single solve of its
    own operator from its own start. A single solve (`stack` None) is the
    stack of one, its vectors given a leading axis of one on the way in
    and its row taken on the way out.
    """
    if stack is None:
        theta, x, _ = power_iteration_top_eig(
            lambda V: np.asarray(apply(V[0]))[None], dim, iters, tol,
            None if start is None else np.asarray(start)[None], stack=1)
        return float(theta[0]), x[0]
    if dim < 1:
        raise InvalidArgumentError(f"operator dimension must be >= 1, got {dim}")
    if iters < 1:
        raise InvalidArgumentError(f"iters must be >= 1, got {iters}")
    if stack < 1:
        raise InvalidArgumentError(f"stack must be >= 1, got {stack}")
    K, shape = stack, (stack, dim)
    g = _gaussian_start(dim)
    if start is None:
        q = np.tile(g, (K, 1))
    else:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != shape:
            raise DimensionMismatchError(
                f"start vector has shape {start.shape}, expected {shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            norm = np.sqrt(_row_dots(start, start))
        if not (np.isfinite(norm) & (norm > 0.0)).all():
            raise InvalidArgumentError("start vector must be finite and nonzero")
        q = start / norm[:, None] + WARM_SHARE * g
        q /= np.sqrt(_row_dots(q, q))[:, None]
    steps = min(iters, dim)
    # The basis grows by doubling, to (steps, K, dim) at most, so that a short
    # solve holds few steps' vectors: at K = 8, dim = 705 a whole basis of 120
    # steps would be 5.4 MB, which numpy backs with huge pages.
    cap = min(steps, 16)
    basis = np.empty((cap, K, dim))
    basis[0] = q
    tri = np.zeros((K, cap, cap))  # each row's Lanczos tridiagonal T
    scale = np.zeros(K)  # each row's largest ||A q_k||, a lower bound on ||A||
    live = np.ones(K, dtype=bool)  # the rows still running
    thetas, vecs, used = np.empty(K), np.empty((K, dim)), np.empty(K, dtype=np.int64)
    for k in range(steps):
        aq = np.array(apply(basis[k]), dtype=np.float64)  # a copy: updated below
        if aq.shape != shape:
            raise DimensionMismatchError(
                f"operator returned shape {aq.shape}, expected {shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            norm = np.sqrt(_row_dots(aq, aq))
        bad = live & ~np.isfinite(norm)
        if bad.any():
            raise NumericDomainError(
                f"operator product with a non-finite norm at Lanczos step {k} "
                f"in row {np.argmax(bad)}"
            )
        np.maximum(scale, norm, out=scale)
        Q = basis[:k + 1].transpose(1, 0, 2)  # (K, k + 1, dim)
        tri[:, k, k] = _row_dots(basis[k], aq)
        for _ in range(2):  # Gram-Schmidt against the whole basis, twice
            aq -= ((Q @ aq[:, :, None]).mT @ Q)[:, 0]
        beta = np.sqrt(_row_dots(aq, aq))
        ritz, s = np.linalg.eigh(tri[live, :k + 1, :k + 1])
        rows = np.flatnonzero(live)
        b = beta[rows]
        done = ((b * np.abs(s[:, -1, -1]) <= tol) | (b <= BREAKDOWN * scale[rows])
                | (k == steps - 1))
        stopped = rows[done]
        for r, s_r in zip(stopped, s[done]):
            # the top Ritz vector: the last column of s, a strided vector as
            # in a single solve, times the row's basis
            x = s_r[:, -1] @ Q[r]
            vecs[r] = x / math.sqrt(x @ x)
        thetas[stopped] = ritz[done, -1]
        used[stopped] = k + 1
        live[stopped] = False
        if not live.any():
            break
        if k + 1 == cap:
            cap = min(steps, 2 * cap)
            basis, tri = np.empty((cap, K, dim)), np.pad(tri, ((0, 0), (0, cap - k - 1),
                                                               (0, cap - k - 1)))
            basis[:k + 1] = Q.transpose(1, 0, 2)
            del Q  # the old basis
        # a stopped row's next vector is its product over an infinite
        # divisor: zero, with no division by its (maybe zero) residual
        np.divide(aq, np.where(live, beta, np.inf)[:, None], out=basis[k + 1])
        tri[:, k, k + 1] = tri[:, k + 1, k] = beta
    return thetas, vecs, used
