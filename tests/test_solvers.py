import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repclass.dictionary import build_dictionary, build_projector
from repclass.errors import (
    BadGrid,
    BadSparsity,
    DimensionMismatch,
    FingerprintMismatch,
    NegativeThreshold,
    NonPositiveLambda,
)
from repclass.solvers import (
    AlmParams,
    FistaParams,
    shrink,
    solve_alm_l1res,
    solve_constrained_lp,
    solve_fista_l1,
    solve_omp,
    solve_rls,
)

finite_vec = arrays(
    np.float64,
    st.integers(1, 30),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


# ---------------------------------------------------------------- shrink

@given(finite_vec, st.floats(0, 1e6, allow_nan=False))
def test_shrink_formula(x, a):
    out = shrink(x, a)
    ref = np.sign(x) * np.maximum(np.abs(x) - a, 0.0)
    np.testing.assert_array_equal(out, ref)


@given(finite_vec, st.floats(0, 1e6, allow_nan=False))
def test_shrink_nonexpansive_and_sign(x, a):
    out = shrink(x, a)
    assert np.all(np.abs(out) <= np.abs(x))
    assert np.all(out * x >= 0.0)


def test_shrink_exact_small_case():
    np.testing.assert_array_equal(
        shrink([3.0, -0.5, 0.0, 1.0], 1.0), [2.0, 0.0, 0.0, 0.0]
    )


def test_shrink_rejects_negative_threshold():
    with pytest.raises(NegativeThreshold):
        shrink([1.0], -0.1)


# ---------------------------------------------------------------- ridge

def test_solve_rls_matches_normal_equations():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(5, 40))
        n = int(rng.integers(5, 60))
        lam = float(10 ** rng.uniform(-6, 0))
        X = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        res = solve_rls(X, y, lam)
        ref = np.linalg.solve(X.T @ X + lam * np.eye(n), X.T @ y)
        np.testing.assert_allclose(res.alpha, ref, rtol=1e-10, atol=1e-12)
        r = y - X @ ref
        assert res.objective == pytest.approx(r @ r + lam * ref @ ref, rel=1e-10)


def test_solve_rls_via_projector_matches_matrix_path():
    rng = np.random.default_rng(12)
    samples = [(rng.standard_normal(10), f"c{i % 3}") for i in range(9)]
    d = build_dictionary(samples)
    proj = build_projector(d, 0.02)
    y = rng.standard_normal(10)
    a = solve_rls(proj, y)
    b = solve_rls(d.data, y, 0.02)
    np.testing.assert_allclose(a.alpha, b.alpha, rtol=1e-10)
    assert a.objective == pytest.approx(b.objective, rel=1e-10)


def test_solve_rls_projector_without_source():
    rng = np.random.default_rng(13)
    samples = [(rng.standard_normal(8), "a") for _ in range(4)]
    d = build_dictionary(samples)
    proj = build_projector(d, 0.1)
    orphan = type(proj)(
        matrix=proj.matrix, lam=proj.lam,
        dictionary_fingerprint=proj.dictionary_fingerprint,
    )
    with pytest.raises(FingerprintMismatch):
        solve_rls(orphan, rng.standard_normal(8))


def test_solve_rls_validation():
    X = np.eye(3)
    with pytest.raises(NonPositiveLambda):
        solve_rls(X, np.ones(3), 0.0)
    with pytest.raises(DimensionMismatch):
        solve_rls(X, np.ones(4), 0.1)


# ---------------------------------------------------------------- ALM

def test_alm_scalar_against_grid_oracle():
    # min |e| + |a|^2  s.t. 2 = a + e has the closed form a = 0.5, e = 1.5;
    # confirm with a brute-force grid before trusting the iterate.
    grid = np.linspace(-1, 3, 400001)
    objective = np.abs(2.0 - grid) + grid ** 2
    a_star = grid[np.argmin(objective)]
    assert a_star == pytest.approx(0.5, abs=1e-5)
    res = solve_alm_l1res(np.array([[1.0]]), np.array([2.0]), 1.0)
    assert res.converged
    assert res.alpha[0] == pytest.approx(0.5, abs=1e-4)
    assert res.residual_vec[0] == pytest.approx(1.5, abs=1e-4)


def test_alm_kkt_conditions():
    rng = np.random.default_rng(14)
    for _ in range(10):
        X = rng.standard_normal((15, 30))
        X /= np.linalg.norm(X, axis=0)
        y = rng.standard_normal(15)
        lam = float(rng.uniform(0.05, 1.0))
        res = solve_alm_l1res(X, y, lam)
        a, e, z = res.alpha, res.residual_vec, res.multiplier
        assert res.converged
        feas = np.linalg.norm(y - X @ a - e)
        assert feas <= 1e-6 * np.linalg.norm(y)
        assert np.linalg.norm(2 * lam * a - X.T @ z) <= 1e-4 * (1 + np.linalg.norm(a))
        assert np.max(np.abs(z)) <= 1 + 1e-4
        big = np.abs(e) > 1e-6
        if np.any(big):
            np.testing.assert_allclose(z[big], np.sign(e[big]), atol=1e-3)


def test_alm_zero_query():
    X = np.random.default_rng(15).standard_normal((6, 4))
    res = solve_alm_l1res(X, np.zeros(6), 0.5)
    np.testing.assert_allclose(res.alpha, 0.0, atol=1e-8)
    np.testing.assert_allclose(res.residual_vec, 0.0, atol=1e-8)


def test_alm_params_validation():
    with pytest.raises(ValueError):
        AlmParams(rho=1.0)
    with pytest.raises(ValueError):
        AlmParams(mu0=-1.0)
    with pytest.raises(ValueError):
        AlmParams(mu_max=0.5, mu0=1.0)
    with pytest.raises(NonPositiveLambda):
        solve_alm_l1res(np.eye(2), np.ones(2), 0.0)


# ---------------------------------------------------------------- FISTA

def test_fista_identity_matches_soft_threshold():
    # with X = I the lasso separates; minimizer of (y-a)^2 + lam|a| is
    # shrink(y, lam/2) componentwise
    rng = np.random.default_rng(16)
    y = rng.standard_normal(12)
    for lam in (0.1, 0.5, 2.0):
        res = solve_fista_l1(np.eye(12), y, lam, FistaParams(tol=1e-12, max_iter=2000))
        np.testing.assert_allclose(res.alpha, shrink(y, lam / 2.0), atol=1e-6)


def test_fista_objective_not_worse_than_zero_and_ls():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((20, 8))
    y = rng.standard_normal(20)
    lam = 0.3

    def f(a):
        r = y - X @ a
        return r @ r + lam * np.sum(np.abs(a))

    res = solve_fista_l1(X, y, lam)
    assert res.objective <= f(np.zeros(8)) + 1e-10
    a_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert res.objective <= f(a_ls) + 1e-10
    assert res.objective == pytest.approx(f(res.alpha), rel=1e-10)


def test_fista_agrees_with_alternate_solver():
    # slow ISTA reference with many iterations
    rng = np.random.default_rng(18)
    X = rng.standard_normal((15, 10))
    y = rng.standard_normal(15)
    lam = 0.5
    L = 2 * np.linalg.norm(X, 2) ** 2
    a = np.zeros(10)
    for _ in range(20000):
        grad = 2 * X.T @ (X @ a - y)
        a = shrink(a - grad / L, lam / L)
    res = solve_fista_l1(X, y, lam, FistaParams(tol=1e-14, max_iter=10000))
    np.testing.assert_allclose(res.alpha, a, atol=1e-6)


# ---------------------------------------------------------------- OMP

def test_omp_recovers_sparse_signal():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((30, 50))
    X /= np.linalg.norm(X, axis=0)
    true = np.zeros(50)
    support = [4, 17, 33]
    true[support] = [2.0, -1.5, 1.0]
    y = X @ true
    res = solve_omp(X, y, 3)
    np.testing.assert_allclose(res.alpha, true, atol=1e-8)
    assert res.objective == pytest.approx(0.0, abs=1e-16)


def test_omp_first_atom_is_max_correlation():
    rng = np.random.default_rng(20)
    X = rng.standard_normal((10, 15))
    X /= np.linalg.norm(X, axis=0)
    y = rng.standard_normal(10)
    res = solve_omp(X, y, 1)
    j = int(np.argmax(np.abs(X.T @ y)))
    assert np.flatnonzero(res.alpha).tolist() == [j]
    # refit is the 1-d least squares on that atom
    assert res.alpha[j] == pytest.approx(X[:, j] @ y, rel=1e-12)


def test_omp_residual_decreases_with_k():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((20, 40))
    y = rng.standard_normal(20)
    objs = [solve_omp(X, y, k).objective for k in (1, 3, 6, 12)]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_omp_bad_sparsity():
    with pytest.raises(BadSparsity):
        solve_omp(np.eye(3), np.ones(3), 0)
    with pytest.raises(BadSparsity):
        solve_omp(np.eye(3), np.ones(3), 4)


# ---------------------------------------------------------- budget curves

def test_constrained_lp_curves_monotone():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((12, 20))
    y = rng.standard_normal(12)
    for p, grid in ((0, [1, 2, 4, 8]), (1, [0.01, 0.1, 1.0, 10.0]), (2, [0.01, 0.1, 1.0, 10.0])):
        curve = solve_constrained_lp(X, y, p, grid)
        assert [eps for eps, _ in curve] == grid
        residuals = [r for _, r in curve]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert residuals[0] <= np.linalg.norm(y) + 1e-12


def test_constrained_lp_zero_budget_gives_ynorm():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((8, 5))
    y = rng.standard_normal(8)
    curve = solve_constrained_lp(X, y, 1, [1e-9, 1.0])
    assert curve[0][1] == pytest.approx(np.linalg.norm(y), rel=1e-6)


def test_constrained_lp_bad_grid():
    X, y = np.eye(3), np.ones(3)
    with pytest.raises(BadGrid):
        solve_constrained_lp(X, y, 1, [])
    with pytest.raises(BadGrid):
        solve_constrained_lp(X, y, 1, [1.0, 0.5])
    with pytest.raises(BadGrid):
        solve_constrained_lp(X, y, 3, [1.0, 2.0])
