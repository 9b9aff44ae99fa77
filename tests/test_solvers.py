import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repclass import dictionary as dictionary_mod
from repclass import solvers
from repclass.classifiers import classify_rcrc, classify_src
from repclass.dictionary import build_dictionary
from repclass.errors import (
    BadGrid,
    BadSparsity,
    DimensionMismatch,
    NegativeThreshold,
    NonPositiveLambda,
)
from repclass.solvers import (
    AlmParams,
    FistaParams,
    _power_iteration_sq,
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


# ------------------------------------------------ kernel regression oracles
#
# The solver loops carry SVD coordinates (ALM) and cached X @ alpha products
# (FISTA) to save matrix-vector products. The plain loops below are the
# reference they must reproduce up to rounding: same iteration counts and
# convergence flags, iterates within 1e-9 relative.

def _alm_l1res_reference(U, s, Vt, X, y, lam, mu0, rho, mu_max, tol, max_iter, inner_max):
    """Reference ALM loop in its direct form (three mat-vecs per inner step).

    Augmented-Lagrangian loop for min ||e||_1 + lam*||a||_2^2 s.t. y = X a + e.

    U, s, Vt is the thin SVD of X; the ridge-projection step
    a = (X^T X + c I)^{-1} X^T w is applied as Vt^T diag(s/(s^2+c)) U^T w,
    which realizes the precomputed per-penalty projection family without
    materializing one matrix per penalty value.

    Each multiplier step minimizes the augmented Lagrangian by alternating
    (a, e) updates; the inner loop exits once mu*||de|| is small, which
    bounds the stationarity error 2*lam*a - X^T z of the outer iterate.
    The penalty is capped so the late iterations retain contraction (an
    unbounded schedule freezes the primal iterate off the optimum).
    """
    m = y.shape[0]
    n = X.shape[1]
    alpha = np.zeros(n)
    e = np.zeros(m)
    z = np.zeros(m)
    mu = mu0
    ynorm = np.sqrt(np.sum(y * y))
    if ynorm == 0.0:
        return alpha, e, z, 0, True
    converged = False
    it = 0
    xa = np.zeros(m)
    change = 0.0
    while it < max_iter:
        it += 1
        for _ in range(inner_max):
            w = y - e + z / mu
            t = np.dot(U.T, w)
            c = 2.0 * lam / mu
            t = t * (s / (s * s + c))
            alpha_new = np.dot(Vt.T, t)
            xa = np.dot(X, alpha_new)
            v = y - xa + z / mu
            e_new = np.sign(v) * np.maximum(np.abs(v) - 1.0 / mu, 0.0)
            da = alpha_new - alpha
            de = e_new - e
            change = np.sqrt(np.sum(da * da) + np.sum(de * de))
            de_norm = np.sqrt(np.sum(de * de))
            alpha = alpha_new
            e = e_new
            anorm = np.sqrt(np.sum(alpha * alpha))
            if mu * de_norm <= 10.0 * tol * (1.0 + anorm):
                break
        gap = y - xa - e
        z = z + mu * gap
        grad = 2.0 * lam * alpha - np.dot(X.T, z)
        stat = np.sqrt(np.sum(grad * grad))
        anorm = np.sqrt(np.sum(alpha * alpha))
        scale = np.sqrt(np.sum(alpha * alpha) + np.sum(e * e)) + 1e-30
        feas = np.sqrt(np.sum(gap * gap))
        if (
            feas <= tol * ynorm
            and change <= tol * scale
            and stat <= 100.0 * tol * (1.0 + anorm)
        ):
            converged = True
            break
        mu = min(mu * rho, mu_max)
    return alpha, e, z, it, converged


def _fista_l1_reference(X, Xt, y, lam, step, tol, max_iter):
    """Reference FISTA loop in its direct form (three mat-vecs per step).

    Accelerated proximal gradient for min ||y - X a||_2^2 + lam*||a||_1.

    Momentum is restarted whenever the objective increases.
    """
    n = X.shape[1]
    alpha = np.zeros(n)
    v = alpha.copy()
    tk = 1.0
    r0 = y - np.dot(X, alpha)
    obj = np.sum(r0 * r0) + lam * np.sum(np.abs(alpha))
    converged = False
    it = 0
    while it < max_iter:
        it += 1
        r = np.dot(X, v) - y
        grad = 2.0 * np.dot(Xt, r)
        g = v - step * grad
        alpha_new = np.sign(g) * np.maximum(np.abs(g) - step * lam, 0.0)
        res = y - np.dot(X, alpha_new)
        obj_new = np.sum(res * res) + lam * np.sum(np.abs(alpha_new))
        if obj_new > obj:
            # restart momentum from the last accepted iterate
            v = alpha.copy()
            tk = 1.0
            r = np.dot(X, v) - y
            grad = 2.0 * np.dot(Xt, r)
            g = v - step * grad
            alpha_new = np.sign(g) * np.maximum(np.abs(g) - step * lam, 0.0)
            res = y - np.dot(X, alpha_new)
            obj_new = np.sum(res * res) + lam * np.sum(np.abs(alpha_new))
        tk_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        v = alpha_new + ((tk - 1.0) / tk_new) * (alpha_new - alpha)
        tk = tk_new
        rel = abs(obj - obj_new) / (abs(obj) + 1e-30)
        alpha = alpha_new
        obj = obj_new
        if rel <= tol:
            converged = True
            break
    return alpha, obj, it, converged


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _corrupted_problem(seed=31, m=120, n=30, fraction=0.5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, n))
    X /= np.linalg.norm(X, axis=0)
    y = X @ rng.standard_normal(n)
    idx = rng.choice(m, int(fraction * m), replace=False)
    y[idx] = rng.uniform(-3.0, 3.0, idx.size)
    return X, y


def _seed77_problem():
    rng = np.random.default_rng(77)
    X = rng.standard_normal((12, 20))
    X /= np.linalg.norm(X, axis=0)
    return X, rng.standard_normal(12)


@pytest.mark.parametrize(
    "problem, lam, params",
    [
        (_seed77_problem, 0.3, AlmParams()),
        (_corrupted_problem, 0.01, AlmParams(max_iter=30)),
    ],
    ids=["seed77-converges", "corrupted-capped"],
)
def test_alm_matches_reference_loop(problem, lam, params):
    X, y = problem()
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    alpha, e, z, it, converged = _alm_l1res_reference(
        U, s, Vt, X, y, lam, params.mu0, params.rho, params.mu_max, params.tol,
        params.max_iter, params.inner_max,
    )
    res = solve_alm_l1res(X, y, lam, params)
    assert res.iterations == it
    assert res.converged == converged
    assert converged == (params.max_iter == 500)
    assert _rel(res.alpha, alpha) <= 1e-9
    assert _rel(res.residual_vec, e) <= 1e-9
    assert _rel(res.multiplier, z) <= 1e-9


@pytest.mark.parametrize(
    "seed, shape, lam",
    [(5, (40, 120), 0.01), (77, (12, 20), 0.3)],
    ids=["capped", "seed77-converges"],
)
def test_fista_matches_reference_loop(seed, shape, lam):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(shape)
    X /= np.linalg.norm(X, axis=0)
    y = rng.standard_normal(shape[0])
    Xt = np.ascontiguousarray(X.T)
    step = 1.0 / (2.0 * _power_iteration_sq(X, Xt, 1e-6, 1000))
    params = FistaParams(max_iter=200)
    alpha, obj, it, converged = _fista_l1_reference(
        X, Xt, y, lam, step, params.tol, params.max_iter
    )
    res = solve_fista_l1(X, y, lam, params)
    assert converged == (seed == 77)
    assert res.converged == converged
    assert res.iterations == it
    assert _rel(res.alpha, alpha) <= 1e-9
    assert res.objective == pytest.approx(obj, rel=1e-9)


# ------------------------------------------------- per-dictionary factors

def _factor_counts(monkeypatch):
    """Count the thin SVDs and power iterations run from here on."""
    counts = {"svd": 0, "power": 0}
    svd, power = np.linalg.svd, dictionary_mod._power_iteration_sq

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_power(*args):
        counts["power"] += 1
        return power(*args)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(dictionary_mod, "_power_iteration_sq", counted_power)
    monkeypatch.setattr(solvers, "_power_iteration_sq", counted_power)
    return counts


def _factor_dictionary(seed):
    rng = np.random.default_rng(seed)
    d = build_dictionary([(rng.standard_normal(12), f"c{i % 3}") for i in range(9)])
    return d, [rng.standard_normal(12) for _ in range(2)]


def test_dictionary_factors_equal_direct_computation():
    d, _ = _factor_dictionary(41)
    for got, ref in zip(d.svd, np.linalg.svd(d.data, full_matrices=False)):
        np.testing.assert_array_equal(got, ref)
    Xt = np.ascontiguousarray(d.data.T)
    assert d.sigma_sq == _power_iteration_sq(d.data, Xt, 1e-6, 1000)


@pytest.mark.parametrize(
    "classify, factor",
    [
        (lambda d, y: classify_rcrc(d, y, 0.1, AlmParams(max_iter=3)), "svd"),
        (lambda d, y: classify_src(d, y, 0.1, FistaParams(max_iter=3)), "power"),
    ],
    ids=["rcrc-svd", "src-sigma"],
)
def test_dictionary_factor_computed_once_and_freed(classify, factor, monkeypatch):
    d, queries = _factor_dictionary(42)
    counts = _factor_counts(monkeypatch)
    for y in queries:
        classify(d, y)
    assert counts == {"svd": 0, "power": 0, factor: 1}
    alive = weakref.ref(d)
    del d
    gc.collect()
    assert alive() is None


def test_bare_matrix_factored_on_every_call(monkeypatch):
    d, queries = _factor_dictionary(43)
    counts = _factor_counts(monkeypatch)
    for y in queries:
        solve_alm_l1res(d.data, y, 0.1, AlmParams(max_iter=3))
        solve_fista_l1(d.data, y, 0.1, FistaParams(max_iter=3))
    assert counts == {"svd": 2, "power": 2}


def test_constrained_lp_l1_sweep_runs_one_power_iteration(monkeypatch):
    rng = np.random.default_rng(44)
    X = rng.standard_normal((10, 6))
    counts = _factor_counts(monkeypatch)
    solve_constrained_lp(X, rng.standard_normal(10), 1, [0.1, 1.0])
    assert counts["power"] == 1


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
