"""RNG streams, finite differences, and the Lanczos top-eigenvalue solve."""

import numpy as np
import pytest

from trajbound.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NumericDomainError,
)
from trajbound.numerics import (
    RngStream,
    central_diff_gradient,
    power_iteration_top_eig,
)


def test_same_stream_reproduces_same_draws():
    a = RngStream(42, 3).generator().standard_normal(100)
    b = RngStream(42, 3).generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_give_distinct_draws():
    a = RngStream(42, 0).generator().standard_normal(100)
    b = RngStream(42, 1).generator().standard_normal(100)
    assert not np.array_equal(a, b)


def test_distinct_master_seeds_give_distinct_draws():
    a = RngStream(0, 5).generator().standard_normal(100)
    b = RngStream(1, 5).generator().standard_normal(100)
    assert not np.array_equal(a, b)


def test_generator_is_cached_and_advances():
    rng = RngStream(7, 0)
    first = rng.generator().standard_normal(10)
    second = rng.generator().standard_normal(10)
    assert not np.array_equal(first, second)


def test_central_diff_matches_analytic_gradient_of_quartic():
    # f(w) = sum w_i^4 has gradient 4 w^3; centered differences are O(h^2)
    w = np.array([0.3, -1.2, 0.7])
    g = central_diff_gradient(lambda v: float(np.sum(v ** 4)), w, h=1e-5)
    assert np.allclose(g, 4.0 * w ** 3, atol=1e-8)


def test_central_diff_is_exact_on_quadratics():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    w = np.array([0.4, -0.9])
    g = central_diff_gradient(lambda v: float(0.5 * v @ A @ v), w, h=1e-3)
    # any h differences a quadratic exactly (up to roundoff)
    assert np.allclose(g, A @ w, atol=1e-10)


def test_central_diff_rejects_bad_step_and_nonfinite_values():
    w = np.array([1.0])
    with pytest.raises(InvalidArgumentError):
        central_diff_gradient(lambda v: 0.0, w, h=0.0)
    with pytest.raises(NumericDomainError):
        central_diff_gradient(lambda v: float("nan"), w, h=1e-4)


def counted(A):
    calls = [0]

    def apply(x):
        calls[0] += 1
        return A @ x

    return apply, calls


def test_power_iteration_matches_dense_eigensolver():
    # random symmetric matrices are indefinite: the solve returns the top
    # algebraic eigenvalue, whatever the sign of the largest-magnitude one
    gen = np.random.default_rng(0)
    for _ in range(20):
        d = int(gen.integers(2, 40))
        M = gen.standard_normal((d, d))
        A = M + M.T
        lam, v = power_iteration_top_eig(lambda x: A @ x, dim=d, iters=5000,
                                         tol=1e-10)
        assert lam == pytest.approx(np.linalg.eigvalsh(A)[-1], rel=1e-9)
        # v is a unit eigenvector for lam
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(A @ v - lam * v) <= 1e-6 * max(1.0, abs(lam))


def test_power_iteration_returns_the_top_algebraic_eigenvalue():
    A = np.diag([-5.0, 2.0, 1.0])
    lam, v = power_iteration_top_eig(lambda x: A @ x, dim=3)
    assert lam == pytest.approx(2.0, rel=1e-12)
    assert abs(v[1]) == pytest.approx(1.0, rel=1e-12)


def test_power_iteration_stops_exactly_at_a_krylov_breakdown():
    # tol = 0 leaves only the breakdown (or the iteration cap) to stop it
    gen = np.random.default_rng(1)
    apply, calls = counted(np.eye(6))
    lam, _ = power_iteration_top_eig(apply, dim=6, tol=0.0)
    assert lam == pytest.approx(1.0, rel=1e-15)
    assert calls[0] == 1
    u = gen.standard_normal(6)
    apply, calls = counted(np.outer(u, u))
    lam, v = power_iteration_top_eig(apply, dim=6, tol=0.0)
    assert lam == pytest.approx(float(u @ u), rel=1e-14)
    assert abs(v @ u) == pytest.approx(np.linalg.norm(u), rel=1e-14)
    assert calls[0] <= 2


def test_power_iteration_stops_after_iters_applies():
    gen = np.random.default_rng(2)
    M = gen.standard_normal((30, 30))
    apply, calls = counted(M + M.T)
    power_iteration_top_eig(apply, dim=30, iters=4, tol=0.0)
    assert calls[0] == 4


def test_power_iteration_zero_operator_returns_zero():
    lam, v = power_iteration_top_eig(lambda x: np.zeros_like(x), dim=4)
    assert lam == 0.0
    assert v.shape == (4,)


def test_power_iteration_checks_operator_shape():
    with pytest.raises(DimensionMismatchError):
        power_iteration_top_eig(lambda x: np.zeros(3), dim=4)
    with pytest.raises(InvalidArgumentError):
        power_iteration_top_eig(lambda x: x, dim=0)


def test_power_iteration_rejects_a_non_finite_product():
    with pytest.raises(NumericDomainError):
        power_iteration_top_eig(lambda x: x * np.nan, dim=3)


def test_power_iteration_is_deterministic_by_default():
    gen = np.random.default_rng(3)
    M = gen.standard_normal((25, 25))
    A = M + M.T
    r1 = power_iteration_top_eig(lambda x: A @ x, dim=25)
    r2 = power_iteration_top_eig(lambda x: A @ x, dim=25)
    assert r1[0] == r2[0]
    assert np.array_equal(r1[1], r2[1])
