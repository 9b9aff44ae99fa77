"""Numerical coders: ridge, l1-residual interior point, l1 semismooth-Newton
ALM, l1 proximal gradient, OMP."""

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .dictionary import Dictionary, _cholesky, _spectral_norm_sq, check_lambda, is_number
from .errors import (
    BadGrid,
    BadSparsity,
    ConfigInvalid,
    DimensionMismatch,
    NegativeThreshold,
    NonFiniteInput,
    RankDeficient,
)


@dataclass
class CodingResult:
    """Coding coefficients plus solver diagnostics.

    residual_vec is the explicit outlier vector e of l1-residual coding and
    is None for the other solvers; multiplier is the final dual z of
    l1-residual coding (diagnostic, used by optimality checks);
    gap is the relative duality gap of alpha for the coders that certify
    their result by one (None for the others); inner_iterations counts
    SSNAL's Newton steps over all its outer steps (0 for the others).
    """

    alpha: np.ndarray
    objective: float
    iterations: int = 0
    converged: bool = True
    residual_vec: np.ndarray | None = None
    multiplier: np.ndarray | None = None
    gap: float | None = None
    inner_iterations: int = 0


# SSNAL grows its penalty by _RHO per outer step, up to a cap, and warm
# starts _newton from the last step: a larger growth buys fewer outer steps
# with more Newton steps each. Each outer step takes at most _INNER_MAX
# Newton steps.
_RHO, _INNER_MAX = 3.0, 30
# SSNAL penalty schedule: sigma, in units of 1 / (mean squared column norm
# of X), starts at _SIGMA0 and is capped at _SIGMA_MAX, times
# lam_max / (lam * _LAM_RATIO) where that is above 1 (see solve_ssnal_l1).
# The coder stops on a duality gap, so these set its cost, not its answer.
_SIGMA0, _SIGMA_MAX, _LAM_RATIO = 1e3, 1e6, 1e5
# At the sigma cap the gap falls until rounding floors it; SSNAL stops, not
# converged, after _STALL_STEPS outer steps there without halving it. Runs
# that do converge plateau there for at most 10 steps on the SRC workloads.
_STALL_STEPS = 20
# solve_l1res_block codes a block in slices whose queries hold at most this many bytes together
_L1RES_BYTES = 128 << 20


def _check_stopping(params):
    tol, cap = params.tol, params.max_iter
    if not (is_number(tol) and tol > 0):
        raise ConfigInvalid(f"stopping setting 'tol' must be positive, got {tol!r}")
    if not (is_number(cap, numbers.Integral) and cap >= 1):
        raise ConfigInvalid(f"stopping setting 'max_iter' must be >= 1 and whole, got {cap!r}")


@dataclass(frozen=True)
class AlmParams:
    """Stopping settings of R-CRC's interior-point coder and of SSNAL, SRC's
    default: tol bounds the relative duality gap, and max_iter caps
    interior-point iterations or SSNAL's outer steps."""

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
    """X's matrix: a Dictionary's data, found finite when it was made, or a
    bare matrix as floats, which must be finite (else NonFiniteInput)."""
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
    """Y as an m x q float block of queries, checked to match X's rows, to
    be finite and to have finite squared norms: a query whose squares
    overflow would score inf against every class."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise DimensionMismatch(f"X has {X.shape[0]} rows but the queries have shape {Y.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
        norms_sq = np.vecdot(Y, Y, axis=0)  # NaN or inf for a NaN or inf entry too
    if not np.all(np.isfinite(norms_sq)):
        raise NonFiniteInput("query contains NaN or inf, or its squared norm overflows")
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
    """Solve A x = b for an SPD A by its _cholesky factor and LAPACK potrs; b
    is not changed and must be finite. An empty system has the empty solution."""
    if not np.isfinite(b).all():
        raise np.linalg.LinAlgError("array must not contain infs or NaNs")
    if A.shape[0] == 0:
        return b.copy()
    return dpotrs(_cholesky(A), b, lower=1)[0]


def _newton(M, b, kappa, t, v, x):
    """Semismooth Newton for F(v) = ||v||^2/2 - b^T v + kappa/2 * ||S(M v + w)||^2,
    SSNAL's inner problem (Li, Sun & Toh, SIAM J. Optim. 2018), with S the
    soft threshold at t, so ||S(x)||^2 is the squared distance to the box
    [-t, t]. x = M v + w is given and carried along. The generalized Hessian
    is kappa * H with H = M_K^T M_K + (1/kappa) I over the rows K outside the
    box (|x_i| > t), so the step is d = -H^{-1} g / kappa for the gradient g,
    and the p x p product M_K^T M_K is never rescaled. H is solved as p x p
    when p <= |K|, else by the |K| x |K| Woodbury system
    (1/kappa) I + M_K M_K^T; Armijo backtracking sizes the step. The gradient
    term kappa * M^T S(x) is taken over K's rows alone, as S(x) is zero off
    K. Row gathers M[K] are cheapest for a C-ordered M. Stops on a full step
    that keeps every row on its piece (it solved F exactly), a failed search
    or _INNER_MAX steps. Returns v, x, S(x) and the number of steps (Newton
    systems solved).
    """
    p = v.shape[0]
    ridge = 1.0 / kappa
    half = 0.5 * kappa
    s = _soft_threshold(x, t)
    piece = np.sign(s)  # each row's piece: above t, below -t, or inside
    for steps in range(1, _INNER_MAX + 1):
        v_b = v - b
        K = piece != 0
        Mk = M[K]
        g = Mk.T @ s[K]
        g *= kappa
        g += v_b
        k = Mk.shape[0]
        if p <= k:
            H = Mk.T @ Mk
            H.flat[:: p + 1] += ridge
            d = _spd_solve(H, g) / -kappa
        else:
            W = Mk @ Mk.T
            W.flat[:: k + 1] += ridge
            d = Mk.T @ _spd_solve(W, Mk @ g) - g
        md = M @ d
        slope, lin, quad = g @ d, v_b @ d, 0.5 * (d @ d)
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
    return v, x, s, steps


def solve_alm_l1res(X, y, lam, params=None):
    """R-CRC's coder for one query y: solve_l1res_block on the one-column block."""
    return solve_l1res_block(X, np.reshape(y, (-1, 1)), lam, params)[0]


def solve_l1res_block(X, Y, lam, params=None):
    """l1-residual ridge coding of each column y of the m x q block Y:
    min ||y - X a||_1 + lam*||a||_2^2, one CodingResult per column.

    Mehrotra predictor-corrector interior-point method (Mehrotra, SIAM J.
    Optim. 1992) on the split y - X a = u - w, u, w >= 0, whose multiplier z
    stays strictly inside the box [-1, 1]. With D = u/(1 - z) + w/(1 + z),
    each iteration factors 2 lam I + X^T D^-1 X once (when n > m, the m x m
    X X^T + 2 lam D of the same step in z) and solves by that factor for the
    predictor step, then for the corrector step, taken 0.999 of the way to
    the boundary. gap is the relative duality gap of the feasible pair
    (a, y - X a) against z (_l1res_gap), and converged means gap <= tol. It
    iterates until gap, or the split's own gap u^T(1 - z) + w^T(1 + z) over
    the pair's value (a bound on gap that still falls where rounding floors
    gap), is at most 1e-4 * tol, as a row of e that is zero at the optimum
    shrinks only with the gap (at 1e-3 * tol one read -3.0e-6, its z 1.6e-3
    inside the box); or until max_iter iterations, a failed factorization
    (counted as an iteration) or an iterate that rounding put on the boundary.
    objective is the pair's value, never below the optimum; residual_vec is
    e = y - X a and multiplier is z.

    The queries are coded in slices of _l1res_slice(m, n) columns, so one
    call holds at most _L1RES_BYTES of factors and state, however many
    queries it is given. Within a slice they iterate in lockstep, one per
    row, each leaving when its own stop rule fires. Elementwise work and row
    reductions are batched; the products with X (a GEMM would round apart),
    the factors and the centring target are per query, so each result is
    the one-column call's bit for bit.
    """
    X = _as_matrix(X)
    Yt = np.ascontiguousarray(_check_block(X, Y).T)  # one query per row
    lam = check_lambda(lam)
    params = params or AlmParams()
    size = _l1res_slice(*X.shape)
    return [r for lo in range(0, len(Yt), size) for r in _l1res_lockstep(X, Yt[lo : lo + size], lam, params)]


def _l1res_slice(m, n):
    """How many queries solve_l1res_block codes at once on an m x n dictionary:
    as many as fit in _L1RES_BYTES, at least one. Each holds its min(m, n)^2
    Cholesky factor and its rows of the lockstep state, which tracemalloc put
    at up to 22 m-vectors and 7 n-vectors, so bounded by 24 and 8."""
    return max(1, _L1RES_BYTES // (8 * (min(m, n) ** 2 + 24 * m + 8 * n)))


def _l1res_lockstep(X, Yt, lam, params):
    """solve_l1res_block's loop over the q x m queries Yt, one per row, in lockstep."""
    (m, n), tol = X.shape, params.tol
    out = [CodingResult(np.zeros(n), 0.0, 0, True, np.zeros(m), np.zeros(m), 0.0) for _ in Yt]
    idx = np.flatnonzero(Yt.any(axis=1))  # a zero query keeps the zero code
    if not idx.size:
        return out
    r, wide, Yt = 2.0 * lam, n > m, Yt[idx]
    gram = X @ X.T if wide else None
    shift = np.mean(np.abs(Yt), axis=1)[:, None]  # a start inside the cone, on the split of y
    U, W = np.maximum(Yt, 0.0) + shift, np.maximum(-Yt, 0.0) + shift
    Alpha, Z, XA = np.zeros((idx.size, n)), np.zeros(Yt.shape), np.zeros(Yt.shape)
    obj, gap = _l1res_gap(X, Yt, lam, Alpha, XA, Z)

    def stop(keep, its):  # the rows outside keep stop after its iterations
        nonlocal idx, Yt, Alpha, Z, XA, U, W, obj, gap
        for j in np.flatnonzero(~keep):
            fields = float(obj[j]), its, bool(gap[j] <= tol), Yt[j] - XA[j], Z[j].copy(), float(gap[j])
            out[idx[j]] = CodingResult(Alpha[j].copy(), *fields)
        idx, Yt, Alpha, Z, XA, U, W, obj, gap = (a[keep] for a in (idx, Yt, Alpha, Z, XA, U, W, obj, gap))

    def factor(d):  # the Cholesky factor of one query's system, None if it fails
        B = None if wide else X / np.sqrt(d)[:, None]
        A, ridge = (gram.copy(), r * d) if wide else (B.T @ B, r)
        A.flat[:: A.shape[0] + 1] += ridge
        try:
            return _cholesky(A)
        except np.linalg.LinAlgError:
            return None

    it = 0
    while idx.size and it < params.max_iter:  # a pass that stops queries starts over without them
        S1, S2 = 1.0 - Z, 1.0 + Z
        comp = np.vecdot(U, S1) + np.vecdot(W, S2)  # the split's own gap, at least P - D
        edge = np.minimum.reduce([U.min(axis=1), W.min(axis=1), S1.min(axis=1), S2.min(axis=1)])
        done = (np.minimum(gap, comp / obj) <= 1e-4 * tol) | (edge <= 0.0)
        if done.any():
            stop(~done, it)
            continue
        D = U / S1 + W / S2
        factors = None  # drop the last factors first, so a query holds one factor at a time
        factors = [factor(d) for d in D]
        ok = np.array([c is not None for c in factors])
        if not ok.all():  # a failed factorization stops its query alone
            stop(ok, it + 1)
            continue
        it += 1
        RP, RD = XA + U - W - Yt, r * Alpha - np.array([X.T @ z for z in Z])

        def newton_step(C1, C2, eta):
            # the steps with complementarity rows s1*du - u*dz = c1 and
            # s2*dw + w*dz = c2, each eta of its longest length in the cone, up to 1
            rho = C1 / S1 - C2 / S2 + RP
            if wide:
                rhs = np.array([X @ rd for rd in RD]) - r * rho
                DZ = np.array([dpotrs(c, b, lower=1)[0] for c, b in zip(factors, rhs)])
                DA = (np.array([X.T @ dz for dz in DZ]) - RD) / r
            else:
                rhs = -RD - np.array([X.T @ v for v in rho / D])
                DA = np.array([dpotrs(c, b, lower=1)[0] for c, b in zip(factors, rhs)])
                DZ = -(rho + np.array([X @ da for da in DA])) / D
            DU, DW = (C1 + U * DZ) / S1, (C2 - W * DZ) / S2
            worst = np.maximum.reduce(
                [(-DU / U).max(axis=1), (-DW / W).max(axis=1), (DZ / S1).max(axis=1), (-DZ / S2).max(axis=1)]
            )
            return DA, DZ, DU, DW, (eta / np.maximum(worst, eta))[:, None]  # 1 where worst <= eta

        mu = comp / (2 * m)
        DA, DZ, DU, DW, T = newton_step(-U * S1, -W * S2, 1.0)
        mu_aff = (np.vecdot(U + T * DU, S1 - T * DZ) + np.vecdot(W + T * DW, S2 + T * DZ)) / (2 * m)
        # the centring target sigma * mu, per query: a cube over the array rounds apart
        cm = np.array([(a / b) ** 3 * b for a, b in zip(mu_aff, mu)])[:, None]
        DA, DZ, DU, DW, T = newton_step(cm - U * S1 + DU * DZ, cm - W * S2 - DW * DZ, 0.999)
        Alpha, Z, U, W = Alpha + T * DA, Z + T * DZ, U + T * DU, W + T * DW
        XA = np.array([X @ a for a in Alpha])
        obj, gap = _l1res_gap(X, Yt, lam, Alpha, XA, Z)
    stop(np.zeros(idx.size, bool), it)
    return out


def _l1res_gap(X, Y, lam, Alpha, XA, Z):
    """(P, (P - D)/P) per row: the value P = ||y - X a||_1 + lam*||a||^2 of
    R-CRC's feasible pair (a, y - X a), given the row xa = X a, and its
    relative duality gap against the multiplier z clipped into the box
    [-1, 1], with D = z^T y - ||X^T z||^2/(4 lam)."""
    primal = np.sum(np.abs(Y - XA), axis=1) + lam * np.vecdot(Alpha, Alpha)
    Zc = np.clip(Z, -1.0, 1.0)  # rounding moves z out of the box by up to 3e-14
    XtZ = np.array([X.T @ z for z in Zc])
    return primal, (primal - (np.vecdot(Zc, Y) - np.vecdot(XtZ, XtZ) / (4.0 * lam))) / primal


def solve_ssnal_l1(X, y, lam, params=None):
    """l1-regularized coding: minimize ||y - X a||_2^2 + lam * ||a||_1.

    Dual semismooth-Newton augmented Lagrangian (SSNAL; Li, Sun & Toh, SIAM
    J. Optim. 2018). With t = lam/2 the problem is twice
    min ||y - X a||^2/2 + t*||a||_1, whose dual is
    max y^T u - ||u||^2/2 s.t. ||X^T u||_inf <= t. The method of multipliers
    on the dual, with a the box's multiplier and sigma the penalty, minimizes
    psi(u) = ||u||^2/2 - y^T u + sigma/2 * ||S(w)||^2, w = X^T u + a/sigma,
    in each outer step by _newton (M = X^T, b = y, kappa = sigma and
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
    rounding lets it reach). iterations counts outer steps, inner_iterations
    their Newton steps, and objective is the primal value at a. A Newton
    system that cannot be factored (columns of X that are dependent to
    working precision, met at a lam so small that the penalty's ridge
    1/sigma is below their rounding) raises RankDeficient.
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
    converged, it, inner = False, 0, 0
    while it < params.max_iter:
        it += 1
        w0 = alpha / sigma
        try:
            u, w, s, steps = _newton(Xt, y, sigma, t, u, xtu + w0)
        except np.linalg.LinAlgError as exc:  # a Newton system that _spd_solve cannot factor
            raise RankDeficient(
                f"SSNAL's Newton system singular to working precision at lambda={lam:g}; raise lambda"
            ) from exc
        inner += steps
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
        alpha=alpha, objective=float(obj), iterations=it, converged=converged, gap=float(gap),
        inner_iterations=inner,
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
    if not grid or np.isnan(grid).any() or any(b >= a for a, b in zip(grid[1:], grid)):
        raise BadGrid("grid must be nonempty, free of NaN and strictly increasing")
    if p not in (0, 1, 2):
        raise BadGrid(f"p must be 0, 1, or 2, got {p}")
    ynorm = float(np.linalg.norm(y))
    if p == 0:
        out = []
        for eps in grid:
            k = int(min(max(eps, 0), Xm.shape[1]))  # zero atoms leave ||y||
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
