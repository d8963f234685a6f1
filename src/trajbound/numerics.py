"""Deterministic RNG streams, power iteration, and finite-difference oracles.

Randomness throughout the package flows through RngStream, a thin wrapper
over numpy's Philox counter-based generator keyed by (master_seed,
stream_id). Distinct stream ids give independent substreams, so estimators
and samplers can be seeded separately and stay bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
STREAM_TRACE_SUBSAMPLE = 10
STREAM_POWER_ITER = 11


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


def rademacher_matrix(rng: RngStream, k: int, n: int) -> np.ndarray:
    """(k, n) array of independent ±1 draws; one row per Monte-Carlo sample."""
    if k < 1 or n < 1:
        raise InvalidArgumentError(f"need k, n >= 1, got k={k}, n={n}")
    bits = rng.generator().integers(0, 2, size=(k, n))
    return (2 * bits - 1).astype(np.int64)


def default_fd_step(w: np.ndarray) -> float:
    """Finite-difference step scaled to the parameter magnitude."""
    w = np.asarray(w, dtype=np.float64)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    return 1e-4 * max(1.0, scale)


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


def power_iteration_top_eig(apply, dim: int, iters: int = 200, tol: float = 1e-9,
                            rng: RngStream | None = None):
    """Dominant eigenvalue and unit eigenvector of a symmetric operator.

    `apply` maps a length-dim vector to a length-dim vector. Iterates until
    the Rayleigh quotient moves by at most tol or `iters` are exhausted. If
    the iterate collapses to (numerically) zero the starting direction was
    degenerate and we restart from a fresh random vector; after a few
    restarts the operator is treated as zero.
    """
    if dim < 1:
        raise InvalidArgumentError(f"operator dimension must be >= 1, got {dim}")
    if rng is None:
        rng = RngStream(0x9E3779B9, STREAM_POWER_ITER)
    gen = rng.generator()

    for _restart in range(4):
        v = gen.standard_normal(dim)
        v /= np.linalg.norm(v)
        lam_prev = np.inf
        collapsed = False
        for _ in range(iters):
            av = np.asarray(apply(v), dtype=np.float64)
            if av.shape != (dim,):
                raise DimensionMismatchError(
                    f"operator returned shape {av.shape}, expected ({dim},)"
                )
            norm_av = np.linalg.norm(av)
            if norm_av <= 1e-300:
                collapsed = True
                break
            lam = float(v @ av)  # Rayleigh quotient, |v| = 1
            v = av / norm_av
            if abs(lam - lam_prev) <= tol:
                return lam, v
            lam_prev = lam
        if not collapsed:
            lam = float(v @ np.asarray(apply(v), dtype=np.float64))
            return lam, v
    # Every restart collapsed: the operator annihilates random vectors.
    v = np.zeros(dim)
    v[0] = 1.0
    return 0.0, v
