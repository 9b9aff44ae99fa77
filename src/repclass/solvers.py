"""Numerical coders: ridge, l1-residual ALM, l1 semismooth-Newton ALM, l1
proximal gradient, OMP."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dictionary import Dictionary, _power_iteration_sq
from .errors import (
    BadGrid,
    BadSparsity,
    ConfigInvalid,
    DimensionMismatch,
    NegativeThreshold,
    NonFiniteInput,
    NonPositiveLambda,
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


# ALM penalty schedule: mu starts at _MU0 and grows by _RHO per multiplier step
# up to _MU_MAX; each multiplier step takes at most _INNER_MAX Newton steps.
# R-CRC is convex, so these set the path to the optimum, not the optimum.
_MU0, _RHO, _MU_MAX, _INNER_MAX = 1.0, 1.2, 1e4, 30
# SSNAL penalty schedule: sigma, in units of 1 / (mean squared column norm
# of X), starts at _SIGMA0 and grows by _SIGMA_RHO per outer step up to
# _SIGMA_MAX; each outer step takes at most _INNER_MAX Newton steps. The
# coder stops on a duality gap, so these set its cost, not its answer.
_SIGMA0, _SIGMA_RHO, _SIGMA_MAX = 1e3, 3.0, 1e6
# At the sigma cap the gap falls until rounding floors it; SSNAL stops, not
# converged, after _STALL_STEPS outer steps there without halving it. Runs
# that do converge plateau there for at most 10 steps on the SRC workloads.
_STALL_STEPS = 20


def _check_stopping(params):
    if not params.tol > 0:
        raise ConfigInvalid(f"stopping setting 'tol' must be positive, got {params.tol!r}")
    if params.max_iter < 1:
        raise ConfigInvalid(f"stopping setting 'max_iter' must be >= 1, got {params.max_iter!r}")


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
    if isinstance(X, Dictionary):
        return X.data
    return np.asarray(X, dtype=np.float64)


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


def solve_rls(X, y, lam=None):
    """Ridge coding: minimize ||y - X a||_2^2 + lam * ||a||_2^2 in closed form.

    X may be a matrix or a Dictionary.
    """
    Xm = _as_matrix(X)
    y = _check_dims(Xm, y)
    if lam is None or lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    n = Xm.shape[1]
    gram = Xm.T @ Xm + lam * np.eye(n)
    alpha = np.linalg.solve(gram, Xm.T @ y)
    r = y - Xm @ alpha
    obj = float(r @ r + lam * alpha @ alpha)
    return CodingResult(alpha=alpha, objective=obj, iterations=0, converged=True)


def solve_alm_l1res(X, y, lam, params=None):
    """l1-residual ridge coding: min ||e||_1 + lam*||a||_2^2 s.t. y = X a + e.

    Method of multipliers under a geometrically growing penalty. Each
    multiplier step minimizes the augmented Lagrangian exactly: with
    w0 = y + z/mu and e = shrink(w0 - X a, 1/mu) minimized out, it is
    phi(a) = lam*||a||^2 + sum H(r), r = w0 - X a, c = clip(r, +-1/mu) and
    the Huber function H(r) = mu*c^2/2 + |r - c|. Semismooth Newton (Li, Sun
    & Toh, SIAM J. Optim. 2018) solves it from the previous step's a, with
    gradient 2*lam*a - mu*X^T c, Hessian 2*lam*I + mu*X_S^T X_S over the rows
    S with |r| < 1/mu, and Armijo backtracking, for at most _INNER_MAX steps.
    It stops on a negligible step, or on a full step that leaves every row on
    its Huber piece (that step solved phi exactly). Then z = mu*c lies in the
    dual box and 2*lam*a - X^T z is phi's gradient, zero up to rounding. The
    outer test's change is the move of (a, e) over the multiplier step. The
    penalty is capped so the late iterations retain contraction (an unbounded
    schedule freezes the primal iterate off the optimum). No factorization of
    X is kept: each Newton step factors its own n x n system.
    """
    X = _as_matrix(X)
    y = _check_dims(X, y)
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    params = params or AlmParams()
    lam, tol = float(lam), params.tol
    m = y.shape[0]
    n = X.shape[1]
    alpha = np.zeros(n)
    e = np.zeros(m)
    z = np.zeros(m)
    mu = _MU0
    ynorm = np.sqrt(y @ y)
    if ynorm == 0.0:
        return CodingResult(alpha=alpha, objective=0.0, residual_vec=e, multiplier=z)
    converged = False
    it = 0
    xa = np.zeros(m)
    ridge = 2.0 * lam * np.eye(n)
    while it < params.max_iter:
        it += 1
        inv_mu = 1.0 / mu
        w0 = y + z * inv_mu
        alpha_prev, e_prev = alpha, e
        r = w0 - xa
        c = np.clip(r, -inv_mu, inv_mu)
        phi = lam * (alpha @ alpha) + 0.5 * mu * (c @ c) + np.sum(np.abs(r - c))
        piece = np.sign(r) * (np.abs(r) >= inv_mu)  # each row's Huber piece
        for _ in range(_INNER_MAX):
            g = 2.0 * lam * alpha - mu * (X.T @ c)
            Xs = X[piece == 0]
            d = -scipy.linalg.cho_solve(scipy.linalg.cho_factor(ridge + mu * (Xs.T @ Xs)), g)
            slope = g @ d
            xd = X @ d
            step = 1.0
            while step > 1e-10:
                a_new = alpha + step * d
                r_new = r - step * xd
                c = np.clip(r_new, -inv_mu, inv_mu)
                phi_new = lam * (a_new @ a_new) + 0.5 * mu * (c @ c) + np.sum(np.abs(r_new - c))
                if phi_new <= phi + 1e-4 * step * slope:
                    break
                step *= 0.5
            else:
                break
            alpha, r, phi = a_new, r_new, phi_new
            # a full step that keeps every row on its Huber piece solved phi exactly
            stay, piece = piece, np.sign(r) * (np.abs(r) >= inv_mu)
            if step == 1.0 and np.array_equal(stay, piece):
                break
            if step * np.sqrt(d @ d) <= 1e-4 * tol * (1.0 + np.sqrt(alpha @ alpha)):
                break
        xa = X @ alpha
        e = _soft_threshold(w0 - xa, inv_mu)
        change = np.sqrt(np.sum((alpha - alpha_prev) ** 2) + np.sum((e - e_prev) ** 2))
        gap = y - xa - e
        z = z + mu * gap
        grad = 2.0 * lam * alpha - X.T @ z
        stat = np.sqrt(grad @ grad)
        anorm_sq = alpha @ alpha
        scale = np.sqrt(anorm_sq + e @ e) + 1e-30
        feas = np.sqrt(gap @ gap)
        if (
            feas <= tol * ynorm
            and change <= tol * scale
            and stat <= 100.0 * tol * (1.0 + np.sqrt(anorm_sq))
        ):
            converged = True
            break
        mu = min(mu * _RHO, _MU_MAX)
    obj = float(np.sum(np.abs(e)) + lam * alpha @ alpha)
    return CodingResult(
        alpha=alpha,
        objective=obj,
        iterations=it,
        converged=converged,
        residual_vec=e,
        multiplier=z,
    )


def solve_ssnal_l1(X, y, lam, params=None):
    """l1-regularized coding: minimize ||y - X a||_2^2 + lam * ||a||_1.

    Dual semismooth-Newton augmented Lagrangian (SSNAL; Li, Sun & Toh, SIAM
    J. Optim. 2018). With t = lam/2 the problem is twice
    min ||y - X a||^2/2 + t*||a||_1, whose dual is
    max y^T u - ||u||^2/2 s.t. ||X^T u||_inf <= t. The method of multipliers
    on the dual, with a the multiplier of the box constraint and sigma the
    penalty, minimizes in each outer step (the box variable minimized out)
    psi(u) = ||u||^2/2 - y^T u + sigma/2 * ||S(w)||^2, w = X^T u + a/sigma,
    S the soft threshold at t, and then sets a = sigma * S(w). psi is
    strongly convex and piecewise quadratic, with gradient
    u - y + sigma * X S(w) and generalized Hessian I + sigma * X_J X_J^T over
    the free set J = {j : |w_j| > t}. Newton steps with Armijo backtracking
    minimize it from the previous u; a full step that keeps every w_j on its
    piece solved psi exactly and ends the outer step. The Newton system is
    solved through the |J| x |J| Woodbury system I/sigma + X_J^T X_J when
    |J| < m, else as the m x m system. sigma grows geometrically up to a cap:
    a = sigma * S(w) multiplies the rounding of w by sigma, so an unbounded
    sigma would put a floor under the gap that the coder can reach.

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
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    params = params or AlmParams()
    lam = float(lam)
    t = 0.5 * lam
    m, n = X.shape
    alpha = np.zeros(n)
    if not y.any():
        return CodingResult(alpha=alpha, objective=0.0, gap=0.0)
    unit = n / max(float(np.vdot(X, X)), 1e-300)  # 1 / mean squared column norm
    sigma, cap = _SIGMA0 * unit, _SIGMA_MAX * unit
    best, stalled = np.inf, 0
    u = np.zeros(m)
    xtu = np.zeros(n)
    converged = False
    it = 0
    while it < params.max_iter:
        it += 1
        w0 = alpha / sigma
        w = xtu + w0
        s = _soft_threshold(w, t)
        piece = np.sign(s)  # each w_j's piece: above t, below -t, or inside
        for _ in range(_INNER_MAX):
            u_y = u - y
            g = u_y + sigma * (X @ s)
            Xf = X[:, piece != 0]
            k = Xf.shape[1]
            if k < m:
                small = Xf.T @ Xf
                small.flat[:: k + 1] += 1.0 / sigma
                d = Xf @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(small), Xf.T @ g) - g
            else:
                big = sigma * (Xf @ Xf.T)
                big.flat[:: m + 1] += 1.0
                d = -scipy.linalg.cho_solve(scipy.linalg.cho_factor(big), g)
            slope, lin, quad = g @ d, u_y @ d, 0.5 * (d @ d)
            xtd = X.T @ d
            step = 1.0
            while step > 1e-10:
                w_new = w + step * xtd
                s_new = _soft_threshold(w_new, t)
                # psi(u + step d) - psi(u), summed from small terms so that
                # rounding does not stall the search near the minimum
                drop = step * (lin + step * quad) + 0.5 * sigma * ((s_new - s) @ (s_new + s))
                if drop <= 1e-4 * step * slope:
                    break
                step *= 0.5
            else:
                break
            u, w, s = u + step * d, w_new, s_new
            # a full step that keeps every w_j on its piece solved psi exactly
            stay, piece = piece, np.sign(s)
            if step == 1.0 and np.array_equal(stay, piece):
                break
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
        sigma = min(sigma * _SIGMA_RHO, cap)
    return CodingResult(
        alpha=alpha, objective=float(obj), iterations=it, converged=converged, gap=float(gap)
    )


def solve_fista_l1(X, y, lam, params=None):
    """l1-regularized coding: minimize ||y - X a||_2^2 + lam * ||a||_1.

    Accelerated proximal gradient with step 1/L (L = Lipschitz constant of
    the smooth gradient, from power iteration) and momentum restart on
    objective increase. A Dictionary keeps its constant (X.sigma_sq); for a
    bare matrix it is computed on this call.
    """
    Xm = np.ascontiguousarray(_as_matrix(X))
    y = _check_dims(Xm, y)
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    Xt = np.ascontiguousarray(Xm.T)
    sigma_sq = X.sigma_sq if isinstance(X, Dictionary) else _power_iteration_sq(Xm, Xt)
    return _fista_l1(Xm, Xt, y, lam, sigma_sq, params or FistaParams())


def _fista_l1(X, Xt, y, lam, sigma_sq, params):
    """FISTA for min ||y - X a||_2^2 + lam*||a||_1, given X, its C-contiguous
    transpose Xt and sigma_sq = ||X||_2^2 (the step is 1 / (2 sigma_sq)).

    Momentum is restarted whenever the objective increases. The products
    X a of the accepted iterate and X v of the momentum point are carried
    along (X v is the same combination of X a values as v is of a's), so
    each iteration costs two matrix-vector products.
    """
    n = X.shape[1]
    if sigma_sq == 0.0:
        return CodingResult(alpha=np.zeros(n), objective=float(y @ y))
    lam = float(lam)
    step = 1.0 / (2.0 * sigma_sq)
    thr = step * lam

    def prox_step(point, x_point):
        # proximal gradient step from point, given x_point = X @ point
        a = _soft_threshold(point - (2.0 * step) * (Xt @ (x_point - y)), thr)
        x_a = X @ a
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

    For p=0 the budget is an atom count solved by OMP; for p=1 and p=2 a
    descending Lagrangian sweep builds the Pareto frontier of
    (||a||_p, ||y - X a||_2) pairs and each budget reports the smallest
    attainable residual. Curves are nonincreasing in the budget.
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
            if eps <= 0:
                out.append((eps, ynorm))
                continue
            k = min(int(eps), Xm.shape[1])
            res = solve_omp(Xm, y, k)
            out.append((eps, float(np.sqrt(res.objective))))
        return _monotone(out)
    # Lagrangian sweep; the unregularized least-squares point anchors the
    # large-budget end of the frontier.
    pairs = [(0.0, ynorm)]
    alpha_ls, *_ = np.linalg.lstsq(Xm, y, rcond=None)
    pairs.append(_pair(Xm, y, alpha_ls, p))
    if p == 1:
        # every lambda of the sweep shares one FISTA step
        Xc = np.ascontiguousarray(Xm)
        Xt = np.ascontiguousarray(Xc.T)
        sigma_sq = _power_iteration_sq(Xc, Xt)
    for lam in np.logspace(-6, 3, 60):
        if p == 2:
            alpha = solve_rls(Xm, y, lam).alpha
        else:
            alpha = _fista_l1(Xc, Xt, y, lam, sigma_sq, FistaParams()).alpha
        pairs.append(_pair(Xm, y, alpha, p))
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
