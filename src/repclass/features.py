"""PCA (eigenface-style) dimensionality reduction and image flattening."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import BadDimension, DimensionMismatch, EmptyImage, NonFiniteInput


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Mean vector plus orthonormal basis of the top principal directions,
    with the fitted training columns' coordinates in that basis."""

    mean: np.ndarray
    basis: np.ndarray  # D x d, orthonormal columns
    train_features: np.ndarray  # d x N, the training columns projected

    @property
    def input_dim(self):
        return self.basis.shape[0]


def _top_eigenvectors(S, d):
    """Eigenvectors of the d largest eigenvalues of a symmetric n x n S, as
    n x d columns in descending order of eigenvalue; S may be overwritten.

    Four LAPACK calls, exact to rounding: a blocked reduction of S to
    tridiagonal form Q T Q^T (dsytrd at its optimal workspace; the default
    workspace selects the unblocked code, about 1.8x slower at n = 1216),
    all eigenpairs of T by divide and conquer (dstevd), and Q applied to
    only the top d eigenvectors of T. Q = H(1)...H(n-1) leaves the first
    row alone, and its reflectors sit below the subdiagonal of the reduced
    S like those of a QR factorization, so dormqr applies them to rows
    1..n-1, which is what LAPACK's dormtr (not wrapped by scipy) does for a
    lower reduction. eigh with an index subset takes dsyevr's bisection and
    inverse-iteration path instead, which costs more than this whole routine.
    """
    n = S.shape[0]
    if n == 1:
        return np.ones((1, 1))
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    _check_info("dsytrd_lwork", info)
    # S is symmetric, so S.T is S in Fortran order and LAPACK makes no copy
    reduced, diag, off, tau, info = lapack.dsytrd(
        S.T, lower=1, lwork=int(lwork), overwrite_a=1
    )
    _check_info("dsytrd", info)
    _, Z, info = lapack.dstevd(diag, off, overwrite_d=1, overwrite_e=1)
    _check_info("dstevd", info)
    # dstevd orders eigenvalues ascending; the n x n Z is freed before the
    # back-transform
    V = np.ascontiguousarray(Z[:, ::-1][:, :d])
    del Z
    reflectors = reduced[1:, : n - 1]
    tail = np.asfortranarray(V[1:])
    work, info = lapack.dormqr("L", "N", reflectors, tau, tail, -1)[1:]
    _check_info("dormqr", info)
    V[1:], _, info = lapack.dormqr(
        "L", "N", reflectors, tau, tail, int(work[0]), overwrite_c=1
    )
    _check_info("dormqr", info)
    return V


def _check_info(routine, info):
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info={info}")


def fit_pca(training, d):
    """Fit a d-dimensional PCA model on the columns of a D x N matrix.

    Only the top d eigenvectors of the smaller of the two scatter matrices
    are computed. When D > N (images with more pixels than training
    samples) they come from the N x N Gram matrix C^T C of the centered data
    C and are mapped back through C (Turk & Pentland's eigenface trick); one
    thin QR of C V keeps the basis orthonormal even for a direction with a
    zero eigenvalue, which centering always leaves at d = N. Otherwise they
    come from the D x D scatter matrix C C^T. Component signs are fixed by
    making each component's largest-magnitude entry nonnegative. Training
    data holding NaN or inf, or whose scatter overflows, raises
    NonFiniteInput.

    The model's train_features are the training columns' coordinates, taken
    from the fit instead of a second pass over C: Q^T C = R V^T for the QR
    C V = Q R (R^T R = V^T C^T C V is diagonal, so Q = C V R^-1 and
    Q^T C = R^-T V^T C^T C = R V^T), within rounding of project_pca; for
    D <= N they are basis^T C, bit for bit project_pca's.
    """
    training = np.asarray(training, dtype=np.float64)
    if training.ndim != 2:
        raise BadDimension("training must be a D x N matrix")
    D, N = training.shape
    if not (1 <= d <= min(D, N)):
        raise BadDimension(f"need 1 <= d <= min(D, N) = {min(D, N)}, got {d}")
    if not np.isfinite(training).all():
        raise NonFiniteInput("training samples contain NaN or inf")
    # an overflowing mean or scatter (inf, or NaN where inf meets -inf) is
    # refused below by the scatter's diagonal
    with np.errstate(over="ignore", invalid="ignore"):
        mean = training.mean(axis=1)
        centered = training - mean[:, None]
        scatter = centered.T @ centered if D > N else centered @ centered.T
    if not np.isfinite(np.diagonal(scatter)).all():
        raise NonFiniteInput("training samples are too large: their scatter overflows")
    V = _top_eigenvectors(scatter, d)
    del scatter  # the reduction overwrote it; free it before the QR
    basis, R = np.linalg.qr(centered @ V) if D > N else (V, None)
    flip = basis[np.argmax(np.abs(basis), axis=0), np.arange(d)] < 0
    basis[:, flip] *= -1
    if R is None:
        return PcaModel(mean=mean, basis=basis, train_features=basis.T @ centered)
    R[flip] *= -1  # a row of R goes with its column of Q
    # R V^T as one triangular product written over V (V's C-order storage
    # is V^T in Fortran order), so no new d x N block is allocated
    return PcaModel(mean=mean, basis=basis, train_features=blas.dtrmm(1.0, R, V.T, overwrite_b=1))


def project_pca(model, x):
    """Project the columns of a D x N matrix into the PCA space (a single
    vector is the D x 1 block); DimensionMismatch for any other shape."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != model.input_dim:
        raise DimensionMismatch(f"input has shape {x.shape}, model expects {model.input_dim} x N")
    return model.basis.T @ (x - model.mean[:, None])


def vectorize_image(image):
    """Flatten an H x W grayscale image column-major into a length H*W vector."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.size == 0:
        raise EmptyImage("image must be a nonempty 2-D array")
    return image.flatten(order="F")
