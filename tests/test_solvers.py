import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repclass import dictionary as dictionary_mod
from repclass import solvers
from repclass.classifiers import fit
from repclass.dictionary import (
    Dictionary,
    _spectral_norm_sq,
    build_dictionary,
    build_projector,
    default_lambda,
)
from repclass.errors import (
    BadGrid,
    BadSparsity,
    ConfigInvalid,
    DimensionMismatch,
    NegativeThreshold,
    NonFiniteInput,
    NonPositiveLambda,
)
from repclass.harness import ExperimentConfig, run_experiment, synthetic_dataset
from repclass.solvers import (
    AlmParams,
    FistaParams,
    shrink,
    solve_alm_l1res,
    solve_constrained_lp,
    solve_fista_l1,
    solve_omp,
    solve_rls,
    solve_ssnal_l1,
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


_CODERS = [
    pytest.param(lambda X, y: solve_rls(X, y, 0.1), id="rls"),
    pytest.param(lambda X, y: solve_alm_l1res(X, y, 0.1), id="alm"),
    pytest.param(lambda X, y: solve_fista_l1(X, y, 0.1), id="fista"),
    pytest.param(lambda X, y: solve_ssnal_l1(X, y, 0.1), id="ssnal"),
    pytest.param(lambda X, y: solve_omp(X, y, 3), id="omp"),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", _CODERS)
def test_solvers_reject_non_finite_query(solve, bad):
    # such a query used to give a NaN code (rls, fista, omp; fista after
    # running to its cap) or an untyped scipy ValueError (alm)
    rng = np.random.default_rng(16)
    X = rng.standard_normal((30, 60))
    y = rng.standard_normal(30)
    y[4] = bad
    with pytest.raises(NonFiniteInput):
        solve(X, y)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "solve",
    [*_CODERS, pytest.param(lambda X, y: solve_constrained_lp(X, y, 1, [1.0]), id="constrained_lp")],
)
def test_solvers_reject_non_finite_matrix(solve, bad):
    # a bare matrix is checked once, as a query is; with NaN it used to give
    # rls a NaN code marked converged, fista an untyped scipy ValueError and
    # alm, ssnal and omp a LinAlgError
    X = np.eye(3)
    X[0, 1] = bad
    with pytest.raises(NonFiniteInput, match="matrix"):
        solve(X, np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [solve_rls, solve_alm_l1res, solve_ssnal_l1])
def test_solvers_reject_non_finite_dictionary(solve, bad):
    # a Dictionary made directly, not by build_dictionary, used to reach the
    # solvers unscanned: rls returned an all-NaN code marked converged and
    # R-CRC raised an untyped LinAlgError; its own constructor now rejects it
    data = np.eye(3)
    data[0, 1] = bad
    with pytest.raises(NonFiniteInput, match="dictionary"):
        solve(Dictionary(data, ("a", "a", "b")), np.ones(3), 0.1)


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
    # a bad stopping setting is a config error, typed like every other one
    for params in (AlmParams, FistaParams):
        for kwargs in ({"tol": 0}, {"tol": -1e-6}, {"tol": float("nan")}, {"max_iter": 0}):
            with pytest.raises(ConfigInvalid):
                params(**kwargs)
    # lambda must be a finite number > 0: NaN used to give a NaN ridge code
    # with converged=True, 5000 FISTA steps or an untyped scipy ValueError
    d = build_dictionary([(np.eye(2)[i], f"c{i}") for i in range(2)])
    for lam in (0.0, -1.0, np.nan, np.inf, None):
        for solve in (solve_rls, solve_alm_l1res, solve_ssnal_l1, solve_fista_l1):
            with pytest.raises(NonPositiveLambda):
                solve(np.eye(2), np.ones(2), lam)
        with pytest.raises(NonPositiveLambda):
            build_projector(d, lam)


# ---------------------------------------------------------------- FISTA

def test_fista_identity_matches_soft_threshold():
    # with X = I the lasso separates; minimizer of (y-a)^2 + lam|a| is
    # shrink(y, lam/2) componentwise
    rng = np.random.default_rng(16)
    y = rng.standard_normal(12)
    for lam in (0.1, 0.5, 2.0):
        res = solve_fista_l1(np.eye(12), y, lam, FistaParams(tol=1e-12, max_iter=2000))
        np.testing.assert_allclose(res.alpha, shrink(y, lam / 2.0), atol=1e-6)


def test_fista_zero_matrix_gives_zero_code():
    # with X = 0 every code has the objective ||y||^2, and a = 0 is returned
    # without an iteration (the step 1/(2 ||X||^2) does not exist)
    y = np.random.default_rng(18).standard_normal(5)
    res = solve_fista_l1(np.zeros((5, 3)), y, 0.3)
    np.testing.assert_array_equal(res.alpha, np.zeros(3))
    assert res.objective == y @ y and res.iterations == 0 and res.converged


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


@pytest.mark.parametrize(
    "X, y",
    [
        ([[1.0, -1.0]], [1.0]),
        ([[1.0, -1.0, 0.0], [0.0, 0.0, 0.5]], [1.0, 1.0]),
    ],
    ids=["all-ones-start-in-null-space", "ones-start-misses-top-direction"],
)
def test_fista_step_from_exact_norm_matches_ssnal(X, y):
    # a power iteration from the all-ones vector read ||X||^2 as 0 on the
    # first (FISTA returned the zero code as converged) and as 0.25 for 2.0
    # on the second (FISTA overflowed to NaN)
    X, y = np.array(X), np.array(y)
    res = solve_fista_l1(X, y, 0.1)
    assert res.converged and np.all(np.isfinite(res.alpha))
    np.testing.assert_allclose(res.alpha, solve_ssnal_l1(X, y, 0.1).alpha, atol=1e-5)


# ------------------------------------------------ kernel regression oracles
#
# The FISTA loop carries cached X @ alpha products to save matrix-vector
# products. The plain loop below is the reference it must reproduce up to
# rounding: same iteration counts and convergence flags, iterates within
# 1e-9 relative.

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


def _wide_problem():
    """30 x 90, so n > m; with a small lam SSNAL's code fills m, so its m x m
    Newton form runs."""
    rng = np.random.default_rng(78)
    X = rng.standard_normal((30, 90))
    X /= np.linalg.norm(X, axis=0)
    return X, rng.standard_normal(30)


# ------------------------------------------------ ALM optimality oracles
#
# No ALM iterate is pinned: the solver is checked against the optimal value
# of its dual and against its own duality gap.

def _alm_dual(X, y, lam, z):
    """Dual of min ||y - X a||_1 + lam*||a||^2: z^T y - ||X^T z||^2 / (4 lam)."""
    xtz = X.T @ z
    return z @ y - xtz @ xtz / (4.0 * lam)


def _alm_reference_optimum(X, y, lam):
    """Optimal value from the dual box QP, solved by L-BFGS-B over -1 <= z <= 1.

    By strong duality it is the primal optimum. The primal value at
    a* = X^T z* / (2 lam) is not used: it moves to first order with the
    solver's error in z*, the dual value only to second order.
    """
    def negdual(z):
        xtz = X.T @ z
        return xtz @ xtz / (4.0 * lam) - z @ y, X @ xtz / (2.0 * lam) - y

    out = scipy.optimize.minimize(
        negdual, np.zeros(y.shape[0]), jac=True, method="L-BFGS-B",
        bounds=[(-1.0, 1.0)] * y.shape[0],
        options={"ftol": 1e-16, "gtol": 1e-14, "maxiter": 100000, "maxfun": 100000},
    )
    return -float(out.fun)


@pytest.mark.parametrize(
    "problem, lam",
    [(_seed77_problem, 0.3), (_corrupted_problem, 0.01)],
    ids=["seed77", "corrupted"],
)
def test_alm_reaches_dual_reference_optimum(problem, lam):
    X, y = problem()
    res = solve_alm_l1res(X, y, lam)
    assert res.converged
    assert res.objective == pytest.approx(_alm_reference_optimum(X, y, lam), rel=1e-8)
    gap = res.objective - _alm_dual(X, y, lam, res.multiplier)
    assert abs(gap) <= 1e-8 * (1.0 + abs(res.objective))


@pytest.mark.parametrize(
    "problem, lam",
    [(_seed77_problem, 0.3), (_corrupted_problem, 0.01), (_wide_problem, 0.3)],
    ids=["seed77", "corrupted", "wide"],
)
def test_alm_gap_bounds_the_feasible_pair(problem, lam):
    # the gap certifies the feasible pair (a, y - X a), whose value is the
    # reported objective: it used to be ||e||_1 + lam*||a||^2, which read
    # below the optimum
    X, y = problem()
    res = solve_alm_l1res(X, y, lam)
    primal = np.sum(np.abs(y - X @ res.alpha)) + lam * (res.alpha @ res.alpha)
    reference = _alm_reference_optimum(X, y, lam)
    assert res.objective == pytest.approx(primal, rel=1e-14)
    assert res.objective >= reference
    assert res.gap >= 0.0
    assert (primal - reference) / primal <= res.gap + 1e-12


def _benchmark_shape_queries():
    """600 x 80 subspace dictionary; 3 queries with half their entries replaced."""
    data = synthetic_dataset(
        n_classes=10, subspace_dim=4, ambient_dim=600, n_train=8, n_test=1,
        noise_sigma=0.02, seed=9,
    )
    train, labels = data.columns("train")
    queries = data.columns("test")[0][:, :3].copy()
    rng = np.random.default_rng(9)
    s = 3.0 * np.std(train)
    for y in queries.T:
        idx = rng.choice(y.shape[0], y.shape[0] // 2, replace=False)
        y[idx] = rng.uniform(-s, s, idx.size)
    return build_dictionary(zip(train.T, labels)), queries


# objectives of the alternating-inner-loop ALM, which stopped at max_iter=500
_CAPPED_ALM_OBJECTIVES = (46.12685154567569, 48.51614952916065, 44.64629376507167)


def test_alm_converges_on_benchmark_shape():
    d, queries = _benchmark_shape_queries()
    for y, capped in zip(queries.T, _CAPPED_ALM_OBJECTIVES):
        res = solve_alm_l1res(d, y, default_lambda(d.n))
        assert res.converged
        assert res.objective <= capped
        # interior-point iterations: 13 for each of these queries
        assert res.iterations <= 20


def test_alm_converged_only_when_gap_within_tol():
    # criterion 6's data at 0% corruption: queries 5 and 81 used to pass the
    # KKT test with gaps 1.18e-6 and 1.11e-6, above tol, and read converged
    data = synthetic_dataset(
        n_classes=10, subspace_dim=4, ambient_dim=600, n_train=8, n_test=10,
        noise_sigma=0.02, seed=7,
    )
    rep = run_experiment(ExperimentConfig(classifier="rcrc"), data)
    assert rep.n_not_converged == 0
    assert max(rec["gap"] for rec in rep.per_query) <= AlmParams().tol


def test_alm_capped_run_is_not_converged():
    # two iterations leave the gap above tol: the coder says so without
    # raising, and its objective, the value of a feasible pair, is no lower
    # than the optimum
    X, y = _corrupted_problem()
    res = solve_alm_l1res(X, y, 0.01, AlmParams(max_iter=2))
    assert res.iterations == 2 and not res.converged
    assert res.gap > AlmParams().tol
    assert res.objective >= _alm_reference_optimum(X, y, 0.01)


def test_alm_factors_m_by_m_systems_on_a_wide_problem(monkeypatch):
    # with n > m each iteration factors the m x m system in z, once
    X, y = _wide_problem()
    orders, cholesky = [], solvers._cholesky

    def spy(A):
        orders.append(A.shape)
        return cholesky(A)

    monkeypatch.setattr(solvers, "_cholesky", spy)
    res = solve_alm_l1res(X, y, 0.3)
    assert res.converged
    assert len(orders) == res.iterations >= 1
    assert set(orders) == {(30, 30)}


# ---------------------------------------------- R-CRC over a block of queries

def _assert_same_coding(a, b):
    """Two R-CRC results equal bit for bit."""
    for f in ("alpha", "residual_vec", "multiplier"):
        assert getattr(a, f).tobytes() == getattr(b, f).tobytes(), f
    assert (a.objective, a.iterations, a.converged, a.gap) == (b.objective, b.iterations, b.converged, b.gap)


def _corrupted_block(X, q, seed=5):
    """q queries in the span of X with half their entries replaced."""
    rng = np.random.default_rng(seed)
    Y = X @ rng.standard_normal((X.shape[1], q))
    hit = rng.random(Y.shape) < 0.5
    Y[hit] = rng.uniform(-3.0, 3.0, hit.sum())
    return Y


def _l1res_reference(X, y, lam, params):
    """The interior-point loop of solve_l1res_block for one query, written
    for one vector: (alpha, objective, iterations, converged, e, z, gap)."""
    m, n = X.shape
    alpha, z, xa = np.zeros(n), np.zeros(m), np.zeros(m)
    r, wide = 2.0 * lam, n > m
    shift = np.mean(np.abs(y))
    u, w = np.maximum(y, 0.0) + shift, np.maximum(-y, 0.0) + shift

    def gap_of(alpha, xa, z):
        primal = float(np.sum(np.abs(y - xa)) + lam * (alpha @ alpha))
        zc = np.clip(z, -1.0, 1.0)
        xtz = X.T @ zc
        return primal, float((primal - (zc @ y - xtz @ xtz / (4.0 * lam))) / primal)

    obj, gap = gap_of(alpha, xa, z)
    it = 0
    while it < params.max_iter:
        s1, s2 = 1.0 - z, 1.0 + z
        comp = u @ s1 + w @ s2
        if min(gap, comp / obj) <= 1e-4 * params.tol or min(u.min(), w.min(), s1.min(), s2.min()) <= 0.0:
            break
        it += 1
        d = u / s1 + w / s2
        rp, rd = xa + u - w - y, r * alpha - X.T @ z
        if wide:
            A = X @ X.T
            A.flat[:: m + 1] += r * d
        else:
            B = X / np.sqrt(d)[:, None]
            A = B.T @ B
            A.flat[:: n + 1] += r
        c = solvers._cholesky(A)

        def newton_step(c1, c2, eta):
            rho = c1 / s1 - c2 / s2 + rp
            if wide:
                dz = scipy.linalg.lapack.dpotrs(c, X @ rd - r * rho, lower=1)[0]
                da = (X.T @ dz - rd) / r
            else:
                da = scipy.linalg.lapack.dpotrs(c, -rd - X.T @ (rho / d), lower=1)[0]
                dz = -(rho + X @ da) / d
            du, dw = (c1 + u * dz) / s1, (c2 - w * dz) / s2
            worst = max(np.max(-du / u), np.max(-dw / w), np.max(dz / s1), np.max(-dz / s2))
            return da, dz, du, dw, 1.0 if worst <= eta else eta / worst

        mu = comp / (2 * m)
        da, dz, du, dw, t = newton_step(-u * s1, -w * s2, 1.0)
        mu_aff = ((u + t * du) @ (s1 - t * dz) + (w + t * dw) @ (s2 + t * dz)) / (2 * m)
        cm = (mu_aff / mu) ** 3 * mu
        da, dz, du, dw, t = newton_step(cm - u * s1 + du * dz, cm - w * s2 - dw * dz, 0.999)
        alpha, z, u, w = alpha + t * da, z + t * dz, u + t * du, w + t * dw
        xa = X @ alpha
        obj, gap = gap_of(alpha, xa, z)
    return alpha, obj, it, gap <= params.tol, y - xa, z, gap


@pytest.mark.parametrize(
    "shape, lam, max_iter",
    [((30, 12), 0.01, 500), ((120, 30), 0.3, 500), ((12, 30), 0.3, 500), ((120, 30), 0.01, 4)],
    ids=["tall", "tall-lam", "wide", "capped"],
)
def test_block_coder_matches_one_vector_reference(shape, lam, max_iter):
    # the lockstep block rounds as the loop over one vector does, the
    # centring target's cube included (over an array it rounds apart)
    X = np.random.default_rng(sum(shape)).standard_normal(shape)
    X /= np.linalg.norm(X, axis=0)
    Y = _corrupted_block(X, 6, seed=shape[0])
    params = AlmParams(max_iter=max_iter)
    for y, res in zip(Y.T, solvers.solve_l1res_block(X, Y, lam, params)):
        alpha, obj, it, converged, e, z, gap = _l1res_reference(X, y.copy(), lam, params)
        assert (res.objective, res.iterations, res.converged, res.gap) == (obj, it, converged, gap)
        for a, b in ((res.alpha, alpha), (res.residual_vec, e), (res.multiplier, z)):
            assert a.tobytes() == b.tobytes()


def _benchmark_shape_block():
    d, queries = _benchmark_shape_queries()
    return d, np.insert(queries, 1, 0.0, axis=1)


@pytest.mark.parametrize(
    "problem, lam",
    [
        (lambda: (_corrupted_problem()[0], _corrupted_block(_corrupted_problem()[0], 5)), 0.01),
        (lambda: (_wide_problem()[0], _corrupted_block(_wide_problem()[0], 5)), 0.3),
        (_benchmark_shape_block, default_lambda(80)),
    ],
    ids=["tall", "wide", "dictionary"],
)
def test_block_coder_equals_one_query_calls(problem, lam):
    # each column of a block, a zero column among them, is coded as by the
    # one-column call, bit for bit
    X, Y = problem()
    Y[:, 1] = 0.0
    block = solvers.solve_l1res_block(X, Y, lam)
    assert len(block) == Y.shape[1]
    assert block[1].iterations == 0 and not block[1].alpha.any() and block[1].gap == 0.0
    assert all(res.converged for res in block)
    for y, res in zip(Y.T, block):
        _assert_same_coding(res, solve_alm_l1res(X, y.copy(), lam))
    assert solvers.solve_l1res_block(X, Y[:, :0], lam) == []


def test_block_coder_keeps_each_capped_query_where_it_stopped():
    # a cap between the queries' own counts stops some of them at it and
    # leaves the others where their own stop rule put them
    X, _ = _corrupted_problem()
    Y = _corrupted_block(X, 8, seed=6)
    free = solvers.solve_l1res_block(X, Y, 0.01)
    counts = sorted(res.iterations for res in free)
    cap = counts[len(counts) // 2]
    assert counts[0] < cap < counts[-1]
    params = AlmParams(max_iter=cap)
    block = solvers.solve_l1res_block(X, Y, 0.01, params)
    for y, res, own in zip(Y.T, block, free):
        assert res.iterations == min(own.iterations, cap)
        if own.iterations <= cap:
            _assert_same_coding(res, own)
        _assert_same_coding(res, solve_alm_l1res(X, y.copy(), 0.01, params))


def _fail_cholesky_call(monkeypatch, k):
    """Make the k-th call (from 0) of solvers._cholesky fail."""
    calls, cholesky = [], solvers._cholesky

    def spy(A):
        calls.append(A.shape)
        if len(calls) == k + 1:
            raise np.linalg.LinAlgError("injected")
        return cholesky(A)

    monkeypatch.setattr(solvers, "_cholesky", spy)


def test_block_coder_failed_factorization_stops_its_query_alone(monkeypatch):
    # the queries factor in turn, so call 3 + 1 is query 1's second
    # iteration; it stops there, counted, and the others finish as alone
    X, _ = _corrupted_problem()
    Y = _corrupted_block(X, 3)
    alone = [solve_alm_l1res(X, y.copy(), 0.01) for y in Y.T]
    assert min(res.iterations for res in alone) > 2
    with monkeypatch.context() as patch:
        _fail_cholesky_call(patch, 3 + 1)
        block = solvers.solve_l1res_block(X, Y, 0.01)
    with monkeypatch.context() as patch:
        _fail_cholesky_call(patch, 1)
        failed = solve_alm_l1res(X, Y[:, 1].copy(), 0.01)
    assert failed.iterations == 2 and not failed.converged
    _assert_same_coding(block[1], failed)
    for j in (0, 2):
        _assert_same_coding(block[j], alone[j])


def _l1res_query_bytes(m, n):
    """The bytes _l1res_slice counts for one query on an m x n dictionary."""
    return 8 * (min(m, n) ** 2 + 24 * m + 8 * n)


def test_rcrc_codes_a_block_in_slices(monkeypatch):
    # solve_l1res_block feeds its lockstep loop as many queries at a time as
    # fit in _L1RES_BYTES; the results do not depend on the slicing, and a
    # zero query keeps the zero code in any slice
    X, _ = _corrupted_problem()
    Y = _corrupted_block(X, 5)
    Y[:, 3] = 0.0
    whole = solvers.solve_l1res_block(X, Y, 0.05)
    widths, lockstep = [], solvers._l1res_lockstep

    def spy(X, Yt, *args):
        widths.append(Yt.shape[0])
        return lockstep(X, Yt, *args)

    monkeypatch.setattr(solvers, "_L1RES_BYTES", 2 * _l1res_query_bytes(*X.shape))
    monkeypatch.setattr(solvers, "_l1res_lockstep", spy)
    sliced = solvers.solve_l1res_block(X, Y, 0.05)
    assert widths == [2, 2, 1]
    assert len(sliced) == 5
    for a, b in zip(sliced, whole):
        _assert_same_coding(a, b)
    assert sliced[3].iterations == 0 < sliced[2].iterations


def test_rcrc_slice_is_sized_from_the_dictionary_shape():
    # a fixed slice of 64 queries held about 760 MiB of Cholesky factors on
    # raw pixels at Extended Yale B scale (2016 x 1216); the slice now fits
    # the byte budget, and a 100-query block on 600 x 80 stays one slice
    slice_of, budget = solvers._l1res_slice, solvers._L1RES_BYTES
    assert slice_of(2016, 1216) == 10 and 10 * 8 * 1216**2 < budget
    assert min(100, slice_of(600, 80)) == 100
    # a tall, thin dictionary's state rows count, not only its tiny factor
    assert slice_of(10**7, 2) * 10**7 * 8 < budget
    assert slice_of(10**10, 2) == 1


def test_block_coder_holds_one_slice_of_factors_at_a_time(monkeypatch):
    # each query of a lockstep slice holds a min(m, n)^2 factor; a direct
    # call given eight slices' worth of queries peaks near one slice's
    # memory, where coding all 16 at once held 16 factors (4.2 times the
    # two-query peak on this 200 x 100 dictionary)
    X, _ = _corrupted_problem(m=200, n=100)
    Y = _corrupted_block(X, 16)
    monkeypatch.setattr(solvers, "_L1RES_BYTES", 2 * _l1res_query_bytes(*X.shape))

    def peak(Y):
        tracemalloc.start()
        try:
            solvers.solve_l1res_block(X, Y, 0.01)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(Y) < 1.5 * peak(Y[:, :2])


def test_ssnal_counts_its_newton_steps(monkeypatch):
    # inner_iterations is the sum of _newton's steps over the outer steps;
    # the coders without inner steps report 0
    X, y = _seed77_problem()
    steps, newton = [], solvers._newton

    def spy(*args):
        out = newton(*args)
        steps.append(out[-1])
        return out

    monkeypatch.setattr(solvers, "_newton", spy)
    res = solve_ssnal_l1(X, y, 0.3)
    assert len(steps) == res.iterations and sum(steps) == res.inner_iterations
    assert all(1 <= k <= solvers._INNER_MAX for k in steps)
    assert solve_alm_l1res(X, y, 0.3).inner_iterations == 0
    assert solve_fista_l1(X, y, 0.3, FistaParams(max_iter=5)).inner_iterations == 0


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
    step = 1.0 / (2.0 * _spectral_norm_sq(X))
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


# ------------------------------------------------ SSNAL lasso oracles
#
# The semismooth-Newton lasso coder is checked against the optimum that
# L-BFGS-B finds for the same problem, and its converged flag against the
# duality gap it reports.

def _lasso_objective(X, y, lam, a):
    r = y - X @ a
    return r @ r + lam * np.sum(np.abs(a))


def _lasso_reference_optimum(X, y, lam):
    """min ||y - X a||^2 + lam*||a||_1 by L-BFGS-B over a = p - q, p, q >= 0."""
    n = X.shape[1]

    def f(pq):
        r = y - X @ (pq[:n] - pq[n:])
        g = -2.0 * X.T @ r
        return r @ r + lam * np.sum(pq), np.concatenate([g + lam, lam - g])

    out = scipy.optimize.minimize(
        f, np.zeros(2 * n), jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * (2 * n),
        options={"ftol": 1e-16, "gtol": 1e-14, "maxiter": 100000, "maxfun": 100000},
    )
    return float(out.fun)


@pytest.mark.parametrize(
    "problem, lam",
    [(_seed77_problem, 0.3), (_corrupted_problem, 0.01), (_wide_problem, 1e-3)],
    ids=["seed77", "tall", "wide"],
)
def test_ssnal_reaches_lasso_reference_optimum(problem, lam):
    X, y = problem()
    best = _lasso_reference_optimum(X, y, lam)
    for tol in (1e-6, 1e-9):
        res = solve_ssnal_l1(X, y, lam, AlmParams(tol=tol))
        assert res.converged and res.gap <= tol
        assert res.objective == pytest.approx(_lasso_objective(X, y, lam, res.alpha), rel=1e-12)
        # the gap bounds the distance to the optimum; rounding may put the
        # oracle's own value a little above it
        assert best * (1.0 - 1e-9) <= res.objective <= best * (1.0 + tol) + 1e-12
    assert res.objective == pytest.approx(best, rel=1e-9)


def test_ssnal_converged_only_when_gap_within_tol():
    X, y = _wide_problem()
    lam, tol = 1e-3, 1e-6
    best = _lasso_reference_optimum(X, y, lam)
    flags = []
    for cap in range(1, 12):
        res = solve_ssnal_l1(X, y, lam, AlmParams(tol=tol, max_iter=cap))
        assert res.iterations <= cap
        assert res.converged == (res.gap <= tol)
        # the certificate is a real bound: the true relative gap is below it
        assert (res.objective - best) / res.objective <= res.gap + 1e-12
        flags.append(res.converged)
    assert flags[0] is False and flags[-1] is True  # a capped run is not certified


def test_ssnal_stops_when_the_gap_stalls():
    # sparse_src seed 1, query 0: rounding floors the gap near 2e-10, so a
    # tol of 1e-12 used to run all 500 outer steps without progress
    data = synthetic_dataset(
        n_classes=20, subspace_dim=5, ambient_dim=100, n_train=20, n_test=1,
        noise_sigma=0.05, seed=1,
    )
    train, labels = data.columns("train")
    d = build_dictionary(zip(train.T, labels))
    y, lam = data.columns("test")[0][:, 0], default_lambda(d.n)
    res = solve_ssnal_l1(d, y, lam, AlmParams(tol=1e-12))
    assert res.converged is False
    assert res.iterations <= 50  # of max_iter=500
    assert 1e-12 < res.gap < 1e-8
    assert res.objective == pytest.approx(_lasso_objective(d.data, y, lam, res.alpha), rel=1e-12)
    # a tol above the floor is still certified, in the same steps as before
    ok = solve_ssnal_l1(d, y, lam)
    assert ok.converged and ok.gap <= 1e-6 and ok.iterations == 7


def test_ssnal_zero_query_and_identity():
    X = np.random.default_rng(15).standard_normal((6, 4))
    res = solve_ssnal_l1(X, np.zeros(6), 0.5)
    assert res.converged and res.gap == 0.0 and res.objective == 0.0
    np.testing.assert_array_equal(res.alpha, 0.0)
    # a dictionary with no atoms has only the empty code
    res = solve_ssnal_l1(np.zeros((6, 0)), np.ones(6), 0.5)
    assert res.converged and res.gap == 0.0 and res.objective == 6.0
    assert res.alpha.shape == (0,)
    # with X = I the lasso separates into soft thresholds at lam/2, and the
    # objective is 2-strongly convex, so the gap bounds ||a - a*||^2
    y = np.random.default_rng(16).standard_normal(12)
    for lam in (0.1, 0.5, 2.0):
        res = solve_ssnal_l1(np.eye(12), y, lam, AlmParams(tol=1e-9))
        err = res.alpha - shrink(y, lam / 2.0)
        assert res.converged and err @ err <= res.gap * res.objective + 1e-30
    with pytest.raises(NonPositiveLambda):
        solve_ssnal_l1(np.eye(2), np.ones(2), 0.0)


def test_ssnal_zero_code_above_lambda_max():
    # lam >= 2*||X^T y||_inf makes a = 0 optimal: the box holds every row of
    # X^T u, so each Newton system is the empty Woodbury one (|K| = 0)
    X, y = _wide_problem()
    lam = 2.0 * np.max(np.abs(X.T @ y))
    for scale in (1.0, 3.0):
        res = solve_ssnal_l1(X, y, scale * lam)
        assert res.converged and res.gap <= 1e-6
        np.testing.assert_array_equal(res.alpha, 0.0)
        assert res.objective == pytest.approx(y @ y, rel=1e-15)


@pytest.mark.parametrize("unit_columns", [False, True], ids=["raw", "unit-norm"])
def test_ssnal_certifies_the_whole_sweep_grid(unit_columns):
    # the 12 x 20 problem of test_constrained_lp_curves_monotone at every lam
    # of the l1 sweep: a sigma cap that ignores lam leaves the 11 (raw) and
    # 2 (unit-norm) smallest lam uncertified, with gaps up to 1.2e-2
    rng = np.random.default_rng(22)
    X = rng.standard_normal((12, 20))
    y = rng.standard_normal(12)
    if unit_columns:
        X /= np.linalg.norm(X, axis=0)
    for lam in np.logspace(-6, 3, 60):
        res = solve_ssnal_l1(X, y, lam)
        assert res.converged and res.gap <= 1e-6, lam


def test_spd_solve_checks_its_system():
    rng = np.random.default_rng(17)
    B = rng.standard_normal((9, 6))
    A, b = B.T @ B + np.eye(6), rng.standard_normal(6)
    np.testing.assert_allclose(A @ solvers._spd_solve(A, b), b, rtol=1e-12, atol=1e-12)
    assert solvers._spd_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    for A, b in [
        (indefinite, np.ones(2)),
        (np.diag([1.0, np.nan]), np.ones(2)),
        (np.eye(2), np.array([1.0, np.inf])),
    ]:
        with pytest.raises(np.linalg.LinAlgError):
            solvers._spd_solve(A, b)


@pytest.mark.parametrize("order", ["C", "F"])
def test_spd_solve_leaves_its_system_unchanged(order):
    # A is factored from a copy of its transpose: neither a solve nor a
    # failed one changes the caller's A or b
    rng = np.random.default_rng(18)
    B = rng.standard_normal((12, 7))
    A, b = np.array(B.T @ B + np.eye(7), order=order), rng.standard_normal(7)
    A0, b0 = A.copy(), b.copy()
    x = solvers._spd_solve(A, b)
    np.testing.assert_array_equal(A, A0)
    np.testing.assert_array_equal(b, b0)
    np.testing.assert_allclose(x, np.linalg.solve(A0, b0), rtol=1e-12)
    A[0, 0] = -1.0  # indefinite
    A0 = A.copy()
    with pytest.raises(np.linalg.LinAlgError):
        solvers._spd_solve(A, b)
    np.testing.assert_array_equal(A, A0)
    np.testing.assert_array_equal(b, b0)


def test_newton_box_gradient_from_the_active_rows(monkeypatch):
    # _newton forms the box gradient kappa * M^T S(x) from the rows K where
    # S(x) is nonzero and solves M_K^T M_K + (1/kappa) I; on a random problem
    # its first system equals the one built from all of M
    rng = np.random.default_rng(19)
    M = rng.standard_normal((40, 8))
    v, b, x = rng.standard_normal(8), rng.standard_normal(8), 2.0 * rng.standard_normal(40)
    kappa, t = 3.0, 0.5
    systems, solve = [], solvers._spd_solve

    def spy(A, g):
        systems.append((A.copy(), g.copy()))
        return solve(A, g)

    monkeypatch.setattr(solvers, "_spd_solve", spy)
    solvers._newton(M, b, kappa, t, v, x)
    s = shrink(x, t)
    K = s != 0
    assert 8 < K.sum() < 40  # the p x p system, over some of the rows
    A, g = systems[0]
    np.testing.assert_allclose(g, v - b + kappa * (M.T @ s), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(A, M[K].T @ M[K] + (1 / kappa) * np.eye(8), rtol=1e-13, atol=1e-13)


# ------------------------------------------------- per-dictionary factors

def _factor_counts(monkeypatch):
    """Count the thin SVDs and the exact ||X||_2^2 computations (LAPACK's
    largest singular value, squared) run from here on."""
    counts = {"svd": 0, "sigma": 0}
    svd, sigma = np.linalg.svd, dictionary_mod._spectral_norm_sq

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_sigma(*args):
        counts["sigma"] += 1
        return sigma(*args)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(dictionary_mod, "_spectral_norm_sq", counted_sigma)
    monkeypatch.setattr(solvers, "_spectral_norm_sq", counted_sigma)
    return counts


def _factor_dictionary(seed):
    rng = np.random.default_rng(seed)
    d = build_dictionary([(rng.standard_normal(12), f"c{i % 3}") for i in range(9)])
    return d, [rng.standard_normal(12) for _ in range(2)]


def test_dictionary_factors_equal_direct_computation():
    d, _ = _factor_dictionary(41)
    assert d.sigma_sq == scipy.linalg.svdvals(d.data)[0] ** 2


@pytest.mark.parametrize(
    "classify, factors",
    [
        (lambda d, y: fit(d, ExperimentConfig(
            classifier="rcrc", lam=0.1, alm=AlmParams(max_iter=3))).decide_block(y[:, None]), {}),
        (lambda d, y: fit(d, ExperimentConfig(
            classifier="src", lam=0.1, fista=FistaParams(max_iter=3),
            decision_variant="plain_residual")).decide_block(y[:, None]), {"sigma": 1}),
        (lambda d, y: fit(d, ExperimentConfig(
            classifier="src", lam=0.1, alm=AlmParams(max_iter=3))).decide_block(y[:, None]), {}),
    ],
    ids=["rcrc-no-factor", "src-sigma", "src-ssnal-no-factor"],
)
def test_dictionary_factor_computed_once_and_freed(classify, factors, monkeypatch):
    d, queries = _factor_dictionary(42)
    counts = _factor_counts(monkeypatch)
    for y in queries:
        classify(d, y)
    assert counts == {"svd": 0, "sigma": 0, **factors}
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
    assert counts == {"svd": 0, "sigma": 2}


def test_constrained_lp_l1_sweep_runs_no_power_iteration(monkeypatch):
    # the sweep codes by SSNAL, which needs no Lipschitz constant
    rng = np.random.default_rng(44)
    X = rng.standard_normal((10, 6))
    counts = _factor_counts(monkeypatch)
    solve_constrained_lp(X, rng.standard_normal(10), 1, [0.1, 1.0])
    assert counts["sigma"] == 0


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


def test_omp_stops_when_the_residual_is_orthogonal_to_the_unused_atoms():
    # after the first atom the residual e4 has no correlation with e2 and e3,
    # so OMP stops at one atom below k = 3
    X = np.eye(4)[:, :3]
    y = np.array([2.0, 0.0, 0.0, 1.0])
    res = solve_omp(X, y, 3)
    assert res.iterations == 1
    np.testing.assert_array_equal(res.alpha, [2.0, 0.0, 0.0])
    assert res.objective == 1.0


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
    # a budget below one atom selects none
    for grid in ([0.5, 2.0], [-1.0, 0.0, 2.0]):
        curve = solve_constrained_lp(X, y, 0, grid)
        assert [r for _, r in curve[:-1]] == [np.linalg.norm(y)] * (len(grid) - 1)
        assert curve[-1][1] < np.linalg.norm(y)
    # with no atoms every budget gives ||y||
    for p in (0, 1, 2):
        curve = solve_constrained_lp(np.zeros((8, 0)), y, p, [0.5, 2.0])
        assert [r for _, r in curve] == [np.linalg.norm(y)] * 2


def test_constrained_lp_bad_grid():
    X, y = np.eye(3), np.ones(3)
    with pytest.raises(BadGrid):
        solve_constrained_lp(X, y, 1, [])
    with pytest.raises(BadGrid):
        solve_constrained_lp(X, y, 1, [1.0, 0.5])
    with pytest.raises(BadGrid):
        solve_constrained_lp(X, y, 3, [1.0, 2.0])
    # a NaN budget used to pass the order check, as every comparison with it is false
    for p in (0, 1, 2):
        with pytest.raises(BadGrid, match="NaN"):
            solve_constrained_lp(X, y, p, [np.nan, 1.0])
        # an unbounded budget is allowed: it leaves the least-squares residual
        assert solve_constrained_lp(X, y, p, [1.0, np.inf])[-1] == (np.inf, pytest.approx(0.0, abs=1e-9))
