"""RNG streams, finite differences, and the Lanczos top-eigenvalue solve."""

import warnings

import numpy as np
import pytest

from trajbound.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NumericDomainError,
)
from trajbound.numerics import (
    STREAM_POWER_ITER,
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
    with pytest.raises(InvalidArgumentError):
        power_iteration_top_eig(lambda x: x, dim=3, iters=0)


def test_power_iteration_rejects_a_non_finite_product():
    # a NaN or inf entry, or finite entries whose norm overflows: at 1e160
    # a solve that read inf <= inf as a Krylov breakdown returned 5.37e160
    # for the top eigenvalue 1e161. No overflow warning comes first.
    A = np.diag(np.arange(1.0, 11.0))
    for factor in (np.nan, np.inf, 1e160):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError, match="at Lanczos step 0"):
                power_iteration_top_eig(lambda x: factor * (A @ x), dim=10)
    lam, _ = power_iteration_top_eig(lambda x: 1e150 * (A @ x), dim=10)
    assert lam == pytest.approx(1e151, rel=1e-12)


def test_power_iteration_copies_a_product_that_aliases_its_input():
    # each step updates its product in place: an apply that returns its
    # argument, a row of the Lanczos basis, or one shared buffer must
    # leave the basis as it was
    lam, v = power_iteration_top_eig(lambda x: x, dim=5)
    assert lam == pytest.approx(1.0, rel=1e-15)
    start = RngStream(0x9E3779B9, STREAM_POWER_ITER).generator().standard_normal(5)
    assert v @ start / np.linalg.norm(start) == pytest.approx(1.0, rel=1e-15)
    A = np.diag([1.0, 4.0, 2.0, 3.0, 0.5])
    buf = np.empty(5)
    lam, v = power_iteration_top_eig(lambda x: np.matmul(A, x, out=buf), dim=5)
    assert lam == pytest.approx(4.0, rel=1e-12)
    assert abs(v[1]) == pytest.approx(1.0, rel=1e-12)


def test_power_iteration_is_deterministic_by_default():
    gen = np.random.default_rng(3)
    M = gen.standard_normal((25, 25))
    A = M + M.T
    r1 = power_iteration_top_eig(lambda x: A @ x, dim=25)
    r2 = power_iteration_top_eig(lambda x: A @ x, dim=25)
    assert r1[0] == r2[0]
    assert np.array_equal(r1[1], r2[1])


def test_warm_start_reaches_a_top_eigenvector_orthogonal_to_it():
    # the top eigenvalue moved from e1 (2.0) to e2 (3.0): a pure e1 start
    # spans an invariant subspace after one apply and would return 2.0
    A = np.diag([2.0, 3.0] + [1.0] * 8)
    apply, calls = counted(A)
    lam, v = power_iteration_top_eig(apply, dim=10, start=np.eye(10)[0])
    assert lam == pytest.approx(3.0, rel=1e-14)
    assert abs(v[1]) == pytest.approx(1.0, rel=1e-12)
    assert calls[0] == 3  # three distinct eigenvalues: a breakdown at step 3


def test_warm_start_converges_in_fewer_applies_near_the_eigenvector():
    gen = np.random.default_rng(4)
    M = gen.standard_normal((40, 40))
    A = M + M.T
    _, v = power_iteration_top_eig(lambda x: A @ x, dim=40, iters=5000, tol=1e-10)
    B = A + 1e-3 * np.diag(gen.standard_normal(40))  # a nearby operator
    cold_apply, cold = counted(B)
    warm_apply, warm = counted(B)
    lam_cold, _ = power_iteration_top_eig(cold_apply, dim=40, tol=1e-10)
    lam_warm, _ = power_iteration_top_eig(warm_apply, dim=40, tol=1e-10, start=v)
    assert lam_warm == pytest.approx(lam_cold, rel=1e-12)
    assert warm[0] < cold[0]


def test_warm_start_checks_the_start_vector():
    A = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        power_iteration_top_eig(lambda x: A @ x, dim=3, start=np.ones(4))
    with pytest.raises(DimensionMismatchError):
        power_iteration_top_eig(lambda x: A @ x, dim=3, start=np.ones((3, 1)))
    for bad in ([0.0, 0.0, 0.0], [1.0, np.nan, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(InvalidArgumentError):
            power_iteration_top_eig(lambda x: A @ x, dim=3, start=np.array(bad))


def test_cold_start_is_the_fixed_gaussian_solve_bitwise():
    # start=None is the solve from one normalized draw of the fixed stream,
    # however often it runs: the start vector is cached read-only
    gen = np.random.default_rng(5)
    M = gen.standard_normal((25, 25))
    A = M + M.T
    q = RngStream(0x9E3779B9, STREAM_POWER_ITER).generator().standard_normal(25)
    q = q / np.linalg.norm(q)
    seen = []

    def apply(x):
        seen.append(x.copy())
        return A @ x

    lam, v = power_iteration_top_eig(apply, dim=25)
    assert np.array_equal(seen[0], q)
    again = power_iteration_top_eig(lambda x: A @ x, dim=25, start=None)
    assert again[0] == lam
    assert np.array_equal(again[1], v)


def stacked_matrices(gen, K, dim):
    M = gen.standard_normal((K, dim, dim))
    return M + M.mT


def stacked_apply(A, calls=None):
    """apply of the K operators A (K, dim, dim), one matrix-vector product a row."""
    def apply(V):
        if calls is not None:
            calls.append(V.copy())
        return (A @ V[:, :, None])[:, :, 0]
    return apply


@pytest.mark.parametrize("K, dim, tol", [(1, 12, 1e-9), (4, 30, 1e-8), (7, 25, 1e-10)])
def test_each_row_of_a_stacked_solve_is_its_single_solve(K, dim, tol):
    # each row stops on its own residual test, after as many applies as
    # its single solve from the same start made, and meets tol there
    gen = np.random.default_rng(K)
    A = stacked_matrices(gen, K, dim)
    for start in (None, gen.standard_normal((K, dim))):
        calls = []
        lam, U, used = power_iteration_top_eig(stacked_apply(A, calls), dim, tol=tol,
                                               start=start, stack=K)
        assert lam.shape == (K,) and U.shape == (K, dim) and used.shape == (K,)
        assert len(calls) == used.max()
        for k in range(K):
            apply, applies = counted(A[k])
            one, u = power_iteration_top_eig(apply, dim, tol=tol,
                                             start=None if start is None else start[k])
            assert used[k] == applies[0]
            assert abs(lam[k] - one) <= 1e-12 * abs(one)
            assert np.linalg.norm(U[k] - u) <= 1e-12
            residual = np.linalg.norm(A[k] @ U[k] - lam[k] * U[k])
            assert residual <= tol + 1e-13 * np.abs(np.linalg.eigvalsh(A[k])).max()


def test_a_row_that_stops_early_is_unchanged_by_the_rows_still_running():
    # the zero operator breaks down at once with a zero residual, the
    # identity after one apply; the stack then feeds those rows zero
    # vectors until the last row stops, with no division by their zero
    # residual and no RuntimeWarning
    gen = np.random.default_rng(8)
    dim = 20
    A = np.stack([np.zeros((dim, dim)), np.eye(dim), stacked_matrices(gen, 1, dim)[0]])
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, U, used = power_iteration_top_eig(stacked_apply(A, calls), dim, tol=1e-12,
                                               stack=3)
    assert used.tolist()[:2] == [1, 1] and used[2] > 5
    assert all(not V[:2].any() for V in calls[1:])
    for k in range(3):
        one, u = power_iteration_top_eig(lambda x: A[k] @ x, dim, tol=1e-12)
        assert lam[k] == one and np.array_equal(U[k], u)
    # a stopped row's product is read no more, whatever it holds
    steps = []

    def noisy(V):
        out = (A @ V[:, :, None])[:, :, 0]
        if steps:
            out[0] = np.nan
        steps.append(None)
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam_noisy, _, _ = power_iteration_top_eig(noisy, dim, tol=1e-12, stack=3, start=U)
    lam_clean, _, _ = power_iteration_top_eig(stacked_apply(A), dim, tol=1e-12, stack=3,
                                              start=U)
    assert np.array_equal(lam_noisy[1:], lam_clean[1:])


def test_a_stacked_solve_names_the_step_and_row_of_a_non_finite_product():
    A = np.stack([np.diag(np.arange(1.0, 11.0))] * 3)
    for bad_step, row, value in ((0, 2, np.inf), (3, 1, np.nan), (2, 0, 1e160)):
        calls = []

        def apply(V):
            out = (A @ V[:, :, None])[:, :, 0]
            if len(calls) == bad_step:
                out[row] *= value
            calls.append(None)
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError,
                               match=f"at Lanczos step {bad_step} in row {row}$"):
                power_iteration_top_eig(apply, 10, tol=0.0, stack=3)


def test_a_stacked_solve_checks_its_stack_and_starts():
    apply = stacked_apply(stacked_matrices(np.random.default_rng(9), 2, 3))
    with pytest.raises(InvalidArgumentError):
        power_iteration_top_eig(apply, 3, stack=0)
    for start in (np.ones(3), np.ones((3, 3)), np.ones((2, 4))):
        with pytest.raises(DimensionMismatchError):
            power_iteration_top_eig(apply, 3, start=start, stack=2)
    for bad in ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[np.nan, 1.0, 0.0], [1.0, 0.0, 0.0]]):
        with pytest.raises(InvalidArgumentError):
            power_iteration_top_eig(apply, 3, start=np.array(bad), stack=2)
    with pytest.raises(DimensionMismatchError):
        power_iteration_top_eig(lambda V: V[0], 3, stack=2)
