"""PCA (eigenface-style) dimensionality reduction and image flattening."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import BadDimension, DimensionMismatch, EmptyImage, NonFiniteInput


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Mean vector plus orthonormal basis of the top principal directions."""

    mean: np.ndarray
    basis: np.ndarray  # D x d, orthonormal columns

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
    data holding NaN or inf raises NonFiniteInput.
    """
    training = np.asarray(training, dtype=np.float64)
    if training.ndim != 2:
        raise BadDimension("training must be a D x N matrix")
    D, N = training.shape
    if not (1 <= d <= min(D, N)):
        raise BadDimension(f"need 1 <= d <= min(D, N) = {min(D, N)}, got {d}")
    if not np.isfinite(training).all():
        raise NonFiniteInput("training samples contain NaN or inf")
    mean = training.mean(axis=1)
    centered = training - mean[:, None]
    scatter = centered.T @ centered if D > N else centered @ centered.T
    V = _top_eigenvectors(scatter, d)
    basis = np.linalg.qr(centered @ V)[0] if D > N else V
    for j in range(d):
        i = int(np.argmax(np.abs(basis[:, j])))
        if basis[i, j] < 0:
            basis[:, j] = -basis[:, j]
    return PcaModel(mean=mean, basis=basis)


def project_pca(model, x):
    """Project a vector (or D x N matrix of columns) into the PCA space."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    cols = x[:, None] if single else x
    if cols.shape[0] != model.input_dim:
        raise DimensionMismatch(
            f"input has dimension {cols.shape[0]}, model expects {model.input_dim}"
        )
    out = model.basis.T @ (cols - model.mean[:, None])
    return out[:, 0] if single else out


def vectorize_image(image):
    """Flatten an H x W grayscale image column-major into a length H*W vector."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.size == 0:
        raise EmptyImage("image must be a nonempty 2-D array")
    return image.flatten(order="F")
