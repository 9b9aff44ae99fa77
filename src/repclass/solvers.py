"""Numerical coders: ridge, l1-residual ALM, l1 semismooth-Newton ALM, l1
proximal gradient, OMP."""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .dictionary import Dictionary, _spectral_norm_sq, check_lambda, is_number
from .errors import (
    BadGrid,
    BadSparsity,
    ConfigInvalid,
    DimensionMismatch,
    NegativeThreshold,
    NonFiniteInput,
)


@dataclass
class CodingResult:
    """Coding coefficients plus solver diagnostics.

    residual_vec is the explicit outlier vector e of l1-residual coding and
    is None for the other solvers; multiplier is the final Lagrange
    multiplier of the ALM solver (diagnostic, used by optimality checks);
    gap is the relative duality gap of alpha for the coders that certify
    their result by one (None for the others).
    """

    alpha: np.ndarray
    objective: float
    iterations: int = 0
    converged: bool = True
    residual_vec: np.ndarray | None = None
    multiplier: np.ndarray | None = None
    gap: float | None = None


# Both ALM coders grow their penalty by _RHO per multiplier step, up to a
# cap. They share it because they share the inner solver, warm started from
# the last step: a larger growth buys fewer outer steps with more Newton
# steps each, and x2 to x3 takes the fewest Newton steps in total (R-CRC on
# the benchmark's 600 x 80 shape: x1.2 took 3.5 times the outer steps and
# 1.4 times the Newton steps of x3; x5 and x10 took 1.1 and 1.2 times the
# Newton steps). Each outer step takes at most _INNER_MAX Newton steps.
_RHO, _INNER_MAX = 3.0, 30
# R-CRC penalty schedule: mu starts at _MU0 and is capped at _MU_MAX.
# R-CRC is convex, so these set the path to the optimum, not the optimum.
_MU0, _MU_MAX = 1.0, 1e4
# SSNAL penalty schedule: sigma, in units of 1 / (mean squared column norm
# of X), starts at _SIGMA0 and is capped at _SIGMA_MAX, times
# lam_max / (lam * _LAM_RATIO) where that is above 1 (see solve_ssnal_l1).
# The coder stops on a duality gap, so these set its cost, not its answer.
_SIGMA0, _SIGMA_MAX, _LAM_RATIO = 1e3, 1e6, 1e5
# At the sigma cap the gap falls until rounding floors it; SSNAL stops, not
# converged, after _STALL_STEPS outer steps there without halving it. Runs
# that do converge plateau there for at most 10 steps on the SRC workloads.
_STALL_STEPS = 20


def _check_stopping(params):
    tol, cap = params.tol, params.max_iter
    if not (is_number(tol) and tol > 0):
        raise ConfigInvalid(f"stopping setting 'tol' must be positive, got {tol!r}")
    if not (is_number(cap, numbers.Integral) and cap >= 1):
        raise ConfigInvalid(f"stopping setting 'max_iter' must be >= 1 and whole, got {cap!r}")


@dataclass(frozen=True)
class AlmParams:
    """Stopping settings of the ALM coders (R-CRC's and SRC's default)."""

    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        _check_stopping(self)


@dataclass(frozen=True)
class FistaParams:
    tol: float = 1e-10
    max_iter: int = 5000

    def __post_init__(self):
        _check_stopping(self)


def _as_matrix(X):
    """X's matrix: a Dictionary's data, finite when it was built or loaded,
    or a bare matrix as floats, which must be finite (else NonFiniteInput)."""
    if isinstance(X, Dictionary):
        return X.data
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("coding matrix contains NaN or inf")
    return X


def _check_dims(X, y):
    """y as a flat float vector, checked as a one-column block."""
    return _check_block(X, np.reshape(y, (-1, 1))).ravel()


def _check_block(X, Y):
    """Y as an m x q float block of queries, checked to match X's rows and to
    be finite."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise DimensionMismatch(f"X has {X.shape[0]} rows but the queries have shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise NonFiniteInput("query contains NaN or inf")
    return Y


def shrink(x, a):
    """Soft-thresholding: sign(x) * max(|x| - a, 0), componentwise."""
    if a < 0:
        raise NegativeThreshold(f"threshold must be nonnegative, got {a}")
    return _soft_threshold(np.asarray(x, dtype=np.float64), float(a))


def _soft_threshold(x, a):
    # x - clip(x, -a, a) equals sign(x) * max(|x| - a, 0) exactly (a zero
    # result may differ in sign) and takes three array passes instead of five
    return x - np.minimum(np.maximum(x, -a), a)


def solve_rls(X, y, lam):
    """Ridge coding: minimize ||y - X a||_2^2 + lam * ||a||_2^2 in closed form.

    X may be a matrix or a Dictionary.
    """
    Xm = _as_matrix(X)
    y = _check_dims(Xm, y)
    lam = check_lambda(lam)
    n = Xm.shape[1]
    gram = Xm.T @ Xm + lam * np.eye(n)
    alpha = np.linalg.solve(gram, Xm.T @ y)
    r = y - Xm @ alpha
    obj = float(r @ r + lam * alpha @ alpha)
    return CodingResult(alpha=alpha, objective=obj, iterations=0, converged=True)


def _spd_solve(A, b):
    """Solve A x = b for a symmetric positive definite A by its Cholesky
    factor: LAPACK potrf and potrs, the routines scipy's cho_factor and
    cho_solve call, without their wrapper cost (about 25 us a call, up to
    two thirds of a solve at the sizes _newton meets). A is factored as A.T,
    which equals A, through its lower triangle: a C-ordered A makes A.T
    Fortran-ordered, so LAPACK's copy of it is a plain one, not a transposing
    one (with OpenBLAS 0.3.31 on one Haswell thread, the lower potrf and
    potrs take about 25 us where the upper pair on A takes 36 us at order
    80, and 35 us where it takes 50 us at order 100). A and b are not changed. Keeps the wrappers' checks:
    LinAlgError (a ValueError) if A or b is not finite or A is not positive
    definite. An empty system has the empty solution.
    """
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise np.linalg.LinAlgError("array must not contain infs or NaNs")
    if A.shape[0] == 0:
        return b.copy()
    c, info = dpotrf(A.T, lower=1, clean=0)
    if info == 0:
        x, info = dpotrs(c, b, lower=1)
        if info == 0:
            return x
    raise np.linalg.LinAlgError(f"Cholesky solve of order {A.shape[0]} failed: info {info}")


def _newton(M, c, b, kappa, t, huber, v, x, tiny):
    """Semismooth Newton for F(v) = c/2*||v||^2 - b^T v + kappa/2 * E(M v + w),
    the inner problem of both ALM coders (Li, Sun & Toh, SIAM J. Optim. 2018).

    With S the soft threshold at t, E(x) = ||x||^2 - ||S(x)||^2 (a Huber
    function) when huber, else ||S(x)||^2 (the squared distance to the box
    [-t, t]). x = M v + w is given and carried along. The generalized Hessian
    is kappa * H with H = M_K^T M_K + (c/kappa) I over the rows K on E's
    quadratic piece (|x_i| <= t for huber, > t for the box), so the step is
    d = -H^{-1} g / kappa for the gradient g, and the p x p product M_K^T M_K
    is never rescaled. H is solved as p x p when p <= |K|, else by the
    |K| x |K| Woodbury system (c/kappa) I + M_K M_K^T; Armijo backtracking
    sizes the step. The box gradient kappa * M^T S(x) is taken over K's rows
    alone, as S(x) is zero off K. Row gathers M[K] are cheapest for a
    C-ordered M. Stops on a full step that keeps every row on its piece (it
    solved F exactly), a step below tiny * (1 + ||v||) if tiny > 0, a failed
    search or _INNER_MAX steps. Returns v, x and S(x).
    """
    p = v.shape[0]
    ridge = c / kappa
    half = (-0.5 if huber else 0.5) * kappa
    s = _soft_threshold(x, t)
    piece = np.sign(s)  # each row's piece: above t, below -t, or inside
    for _ in range(_INNER_MAX):
        cv_b = c * v - b
        if huber:
            Mk = M[piece == 0]
            g = M.T @ (x - s)
        else:
            K = piece != 0
            Mk = M[K]
            g = Mk.T @ s[K]
        g *= kappa
        g += cv_b
        k = Mk.shape[0]
        if p <= k:
            H = Mk.T @ Mk
            H.flat[:: p + 1] += ridge
            d = _spd_solve(H, g) / -kappa
        else:
            W = Mk @ Mk.T
            W.flat[:: k + 1] += ridge
            d = (Mk.T @ _spd_solve(W, Mk @ g) - g) / c
        md = M @ d
        dd = d @ d
        slope, lin, quad = g @ d, cv_b @ d, 0.5 * c * dd
        if huber:
            lin, quad = lin + kappa * (x @ md), quad + 0.5 * kappa * (md @ md)
        step = 1.0
        while step > 1e-10:
            x_new = x + md if step == 1.0 else x + step * md
            s_new = _soft_threshold(x_new, t)
            # F(v + step d) - F(v), summed from small terms so that rounding
            # does not stall the search near the minimum
            drop = step * (lin + step * quad) + half * ((s_new - s) @ (s_new + s))
            if drop <= 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        v, x, s = v + step * d, x_new, s_new
        # a full step that keeps every row on its piece solved F exactly
        stay, piece = piece, np.sign(s)
        if step == 1.0 and np.array_equal(stay, piece):
            break
        if tiny and step * math.sqrt(dd) <= tiny * (1.0 + math.sqrt(v @ v)):
            break
    return v, x, s


def solve_alm_l1res(X, y, lam, params=None):
    """l1-residual ridge coding: min ||e||_1 + lam*||a||_2^2 s.t. y = X a + e.

    Method of multipliers under a geometrically growing penalty mu, capped so
    the late iterations retain contraction (an unbounded schedule freezes
    the primal iterate off the optimum). With w0 = y + z/mu and e minimized
    out, each multiplier step minimizes lam*||a||^2 plus the Huber function
    of w0 - X a by _newton (M = -X, c = 2 lam, kappa = mu, t = 1/mu) from the
    previous a; then e = shrink(w0 - X a, 1/mu) and z += mu*(y - X a - e).
    converged means the infeasibility, the move of (a, e) and the
    stationarity 2 lam a - X^T z passed their tol tests and, checked only
    once they have, gap <= tol: gap is the relative duality gap (P - D)/P of
    the feasible pair (a, y - X a), with D = z^T y - ||X^T z||^2/(4 lam) at
    z clipped into the box [-1, 1]. objective is P, the value of that
    feasible pair, so it never reads below the optimum.
    """
    X = _as_matrix(X)
    y = _check_dims(X, y)
    lam = check_lambda(lam)
    params = params or AlmParams()
    tol = params.tol
    m, n = X.shape
    alpha, e, z = np.zeros(n), np.zeros(m), np.zeros(m)
    mu = _MU0
    ynorm = np.sqrt(y @ y)
    if ynorm == 0.0:
        return CodingResult(alpha=alpha, objective=0.0, residual_vec=e, multiplier=z, gap=0.0)
    converged, it = False, 0
    xa, M = np.zeros(m), -X
    while it < params.max_iter:
        it += 1
        inv_mu = 1.0 / mu
        w0 = y + z * inv_mu
        alpha_prev, e_prev = alpha, e
        alpha = _newton(M, 2.0 * lam, 0.0, mu, inv_mu, True, alpha, w0 - xa, 1e-4 * tol)[0]
        xa = X @ alpha
        e = _soft_threshold(w0 - xa, inv_mu)
        change = np.sqrt(np.sum((alpha - alpha_prev) ** 2) + np.sum((e - e_prev) ** 2))
        infeas = y - xa - e
        z = z + mu * infeas
        grad = 2.0 * lam * alpha - X.T @ z
        stat = np.sqrt(grad @ grad)
        anorm_sq = alpha @ alpha
        scale = np.sqrt(anorm_sq + e @ e) + 1e-30
        feas = np.sqrt(infeas @ infeas)
        if (
            feas <= tol * ynorm
            and change <= tol * scale
            and stat <= 100.0 * tol * (1.0 + np.sqrt(anorm_sq))
            and _l1res_gap(X, y, lam, alpha, xa, z)[1] <= tol
        ):
            converged = True
            break
        mu = min(mu * _RHO, _MU_MAX)
    obj, gap = _l1res_gap(X, y, lam, alpha, xa, z)
    return CodingResult(alpha, obj, it, converged, residual_vec=e, multiplier=z, gap=gap)


def _l1res_gap(X, y, lam, alpha, xa, z):
    """(P, (P - D)/P): the value P = ||y - X a||_1 + lam*||a||^2 of R-CRC's
    feasible pair (a, y - X a), given xa = X a, and its relative duality gap
    against the multiplier z clipped into the box [-1, 1], with
    D = z^T y - ||X^T z||^2/(4 lam)."""
    primal = float(np.sum(np.abs(y - xa)) + lam * (alpha @ alpha))
    zc = np.clip(z, -1.0, 1.0)  # rounding moves z out of the box by up to 3e-14
    xtz = X.T @ zc
    return primal, float((primal - (zc @ y - xtz @ xtz / (4.0 * lam))) / primal)


def solve_ssnal_l1(X, y, lam, params=None):
    """l1-regularized coding: minimize ||y - X a||_2^2 + lam * ||a||_1.

    Dual semismooth-Newton augmented Lagrangian (SSNAL; Li, Sun & Toh, SIAM
    J. Optim. 2018). With t = lam/2 the problem is twice
    min ||y - X a||^2/2 + t*||a||_1, whose dual is
    max y^T u - ||u||^2/2 s.t. ||X^T u||_inf <= t. The method of multipliers
    on the dual, with a the box's multiplier and sigma the penalty, minimizes
    psi(u) = ||u||^2/2 - y^T u + sigma/2 * ||S(w)||^2, w = X^T u + a/sigma,
    in each outer step by _newton (M = X^T, c = 1, b = y, kappa = sigma and
    the box) from the previous u, then sets a = sigma * S(w). sigma grows
    geometrically up to a cap: a = sigma * S(w) multiplies the rounding of w
    by sigma, so an unbounded sigma would put a floor under the gap that the
    coder can reach. The cap is relative to lam: it grows with
    lam_max / lam (lam_max = 2 ||X^T y||_inf, the smallest lam with a zero
    code) once that ratio passes _LAM_RATIO, so that a small lam, whose dual
    box is narrow, is still certified.

    After each outer step the residual r = y - X a, scaled into the dual box
    (by min(1, t / ||X^T r||_inf)), is a dual point; the coder stops when the
    relative duality gap of a is at most params.tol (converged) or after
    params.max_iter outer steps, or once sigma is at its cap and the gap
    has not halved over _STALL_STEPS outer steps (a tol below the gap that
    rounding lets it reach). iterations counts outer steps, and objective is
    the primal value at a.
    """
    X = _as_matrix(X)
    y = _check_dims(X, y)
    lam = check_lambda(lam)
    params = params or AlmParams()
    t = 0.5 * lam
    m, n = X.shape
    alpha = np.zeros(n)
    if n == 0 or not y.any():  # a = 0 is the only code, or optimal
        return CodingResult(alpha=alpha, objective=float(y @ y), gap=0.0)
    unit = n / max(float(np.vdot(X, X)), 1e-300)  # 1 / mean squared column norm
    sigma = _SIGMA0 * unit
    cap = _SIGMA_MAX * unit * max(1.0, np.max(np.abs(X.T @ y)) / (t * _LAM_RATIO))
    best, stalled = np.inf, 0
    u, xtu = np.zeros(m), np.zeros(n)
    Xt = np.ascontiguousarray(X.T)  # C-ordered, for _newton's row gathers
    converged, it = False, 0
    while it < params.max_iter:
        it += 1
        w0 = alpha / sigma
        u, w, s = _newton(Xt, 1.0, y, sigma, t, False, u, xtu + w0, 0.0)
        alpha = sigma * s
        xtu = w - w0
        r = y - X @ alpha
        obj = r @ r + lam * np.sum(np.abs(alpha))
        top = np.max(np.abs(X.T @ r))
        c = min(1.0, t / top) if top > 0 else 1.0
        gap = (obj - c * (2.0 * (r @ y) - c * (r @ r))) / obj
        if gap <= params.tol:
            converged = True
            break
        if gap < 0.5 * best:
            best, stalled = gap, 0
        elif sigma == cap:
            stalled += 1
            if stalled == _STALL_STEPS:
                break
        sigma = min(sigma * _RHO, cap)
    return CodingResult(
        alpha=alpha, objective=float(obj), iterations=it, converged=converged, gap=float(gap)
    )


def solve_fista_l1(X, y, lam, params=None):
    """l1-regularized coding: minimize ||y - X a||_2^2 + lam * ||a||_1.

    Accelerated proximal gradient with step 1/L (L = 2 ||X||_2^2, the
    Lipschitz constant of the smooth gradient, exact from LAPACK) and
    momentum restart on objective increase. A Dictionary keeps its
    ||X||_2^2 (X.sigma_sq); for a bare matrix it is computed on each call.
    The products X a of the accepted iterate and X v of the momentum point
    are carried along (X v is the same combination of X a values as v is of
    a's), so each iteration costs two matrix-vector products.
    """
    Xm = np.ascontiguousarray(_as_matrix(X))
    y = _check_dims(Xm, y)
    lam = check_lambda(lam)
    params = params or FistaParams()
    sigma_sq = X.sigma_sq if isinstance(X, Dictionary) else _spectral_norm_sq(Xm)
    n = Xm.shape[1]
    if sigma_sq == 0.0:
        return CodingResult(alpha=np.zeros(n), objective=float(y @ y))
    Xt = np.ascontiguousarray(Xm.T)
    step = 1.0 / (2.0 * sigma_sq)
    thr = step * lam

    def prox_step(point, x_point):
        # proximal gradient step from point, given x_point = X @ point
        a = _soft_threshold(point - (2.0 * step) * (Xt @ (x_point - y)), thr)
        x_a = Xm @ a
        res = y - x_a
        return a, x_a, res @ res + lam * np.sum(np.abs(a))

    alpha = np.zeros(n)
    xa = np.zeros(y.shape[0])
    v, xv = alpha, xa
    tk = 1.0
    obj = y @ y
    converged = False
    it = 0
    while it < params.max_iter:
        it += 1
        alpha_new, xa_new, obj_new = prox_step(v, xv)
        if obj_new > obj:
            # restart momentum from the last accepted iterate
            tk = 1.0
            alpha_new, xa_new, obj_new = prox_step(alpha, xa)
        tk_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        beta = (tk - 1.0) / tk_new
        v = alpha_new + beta * (alpha_new - alpha)
        xv = xa_new + beta * (xa_new - xa)
        tk = tk_new
        rel = abs(obj - obj_new) / (abs(obj) + 1e-30)
        alpha, xa = alpha_new, xa_new
        obj = obj_new
        if rel <= params.tol:
            converged = True
            break
    return CodingResult(alpha=alpha, objective=float(obj), iterations=it, converged=converged)


def solve_omp(X, y, k):
    """Orthogonal matching pursuit with full least-squares refit per step."""
    Xm = _as_matrix(X)
    y = _check_dims(Xm, y)
    n = Xm.shape[1]
    if not (1 <= k <= n):
        raise BadSparsity(f"need 1 <= k <= {n}, got {k}")
    support = []
    coef = np.zeros(0)
    alpha = np.zeros(n)
    residual = y.copy()
    for _ in range(int(k)):
        corr = np.abs(Xm.T @ residual)
        corr[support] = -1.0
        j = int(np.argmax(corr))
        if corr[j] <= 1e-14:
            break
        support.append(j)
        sub = Xm[:, support]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        residual = y - sub @ coef
    if support:
        alpha[support] = coef
    r = y - Xm @ alpha
    return CodingResult(alpha=alpha, objective=float(r @ r), iterations=len(support))


def solve_constrained_lp(X, y, p, grid):
    """Residual-versus-budget curve for norm-constrained least squares.

    For p=0 the budget is an atom count solved by OMP, and a budget below
    one atom gives ||y||; for p=1 and p=2 a Lagrangian sweep over 60 lam in
    [1e-6, 1e3] builds the Pareto frontier of (||a||_p, ||y - X a||_2) pairs
    (each lam coded by solve_ssnal_l1 at the default AlmParams for p=1, by
    solve_rls for p=2) and each budget reports the smallest attainable
    residual. Curves are nonincreasing in the budget.
    """
    Xm = _as_matrix(X)
    y = _check_dims(Xm, y)
    grid = list(grid)
    if not grid or any(b >= a for a, b in zip(grid[1:], grid)):
        raise BadGrid("grid must be nonempty and strictly increasing")
    if p not in (0, 1, 2):
        raise BadGrid(f"p must be 0, 1, or 2, got {p}")
    ynorm = float(np.linalg.norm(y))
    if p == 0:
        out = []
        for eps in grid:
            k = min(max(int(eps), 0), Xm.shape[1])  # zero atoms leave ||y||
            out.append((eps, float(np.sqrt(solve_omp(Xm, y, k).objective)) if k else ynorm))
        return _monotone(out)
    # Lagrangian sweep; the unregularized least-squares point anchors the
    # large-budget end of the frontier.
    pairs = [(0.0, ynorm)]
    alpha_ls, *_ = np.linalg.lstsq(Xm, y, rcond=None)
    pairs.append(_pair(Xm, y, alpha_ls, p))
    solve = solve_ssnal_l1 if p == 1 else solve_rls
    for lam in np.logspace(-6, 3, 60):
        pairs.append(_pair(Xm, y, solve(Xm, y, lam).alpha, p))
    out = []
    for eps in grid:
        feas = [r for nrm, r in pairs if nrm <= eps + 1e-12]
        out.append((eps, min(feas) if feas else ynorm))
    return _monotone(out)


def _pair(X, y, alpha, p):
    nrm = float(np.sum(np.abs(alpha))) if p == 1 else float(np.linalg.norm(alpha))
    return nrm, float(np.linalg.norm(y - X @ alpha))


def _monotone(curve):
    best = np.inf
    out = []
    for eps, r in curve:
        best = min(best, r)
        out.append((eps, best))
    return out
