"""PCA (eigenface-style) dimensionality reduction and image flattening."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BadDimension, DimensionMismatch, EmptyImage


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Mean vector plus orthonormal basis of the top principal directions."""

    mean: np.ndarray
    basis: np.ndarray  # D x d, orthonormal columns

    @property
    def d(self):
        return self.basis.shape[1]

    @property
    def input_dim(self):
        return self.basis.shape[0]


def fit_pca(training, d):
    """Fit a d-dimensional PCA model on the columns of a D x N matrix.

    Only the top d eigenvectors of the smaller of the two scatter matrices
    are computed. When D > N (images with more pixels than training
    samples) they come from the N x N Gram matrix C^T C of the centered data
    C and are mapped back through C (Turk & Pentland's eigenface trick); one
    thin QR of C V keeps the basis orthonormal even for a direction with a
    zero eigenvalue, which centering always leaves at d = N. Otherwise they
    come from the D x D scatter matrix C C^T. Component signs are fixed by
    making each component's largest-magnitude entry nonnegative.
    """
    training = np.asarray(training, dtype=np.float64)
    if training.ndim != 2:
        raise BadDimension("training must be a D x N matrix")
    D, N = training.shape
    if not (1 <= d <= min(D, N)):
        raise BadDimension(f"need 1 <= d <= min(D, N) = {min(D, N)}, got {d}")
    mean = training.mean(axis=1)
    centered = training - mean[:, None]
    small = min(D, N)
    scatter = centered.T @ centered if D > N else centered @ centered.T
    # eigh returns ascending eigenvalues; reverse to descending variance
    _, V = scipy.linalg.eigh(scatter, subset_by_index=(small - d, small - 1))
    V = V[:, ::-1]
    basis = np.linalg.qr(centered @ V)[0] if D > N else V.copy()
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
