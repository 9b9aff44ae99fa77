import numpy as np
import pytest
import scipy.linalg

from repclass.errors import BadDimension, DimensionMismatch, EmptyImage, NonFiniteInput
from repclass.features import _top_eigenvectors, fit_pca, project_pca, vectorize_image


def _symmetric(n, rank=None):
    """A random symmetric n x n matrix; with rank, a PSD scatter of that rank
    whose other n - rank eigenvalues are all zero."""
    rng = np.random.default_rng(n)
    if rank is None:
        A = rng.standard_normal((n, n))
        return A + A.T
    B = rng.standard_normal((n, rank))
    return B @ B.T


@pytest.mark.parametrize(
    "n, rank",
    [(1, None), (2, None), (3, None), (40, None), (40, 3)],
    ids=["n1", "n2", "n3", "n40", "n40-rank3"],
)
def test_top_eigenvectors_match_eigh(n, rank):
    S = _symmetric(n, rank)
    w, U = scipy.linalg.eigh(S)
    norm = np.linalg.norm(S, 2)
    for d in sorted({1, n // 2, n} - {0}):
        V = _top_eigenvectors(S.copy(), d)
        assert V.shape == (n, d)
        np.testing.assert_allclose(V.T @ V, np.eye(d), atol=1e-12)
        top = w[::-1][:d]
        assert np.linalg.norm(S @ V - V * top, axis=0).max() <= 1e-12 * max(norm, 1.0)
        # the top-d subspace is unique unless the d-th and (d+1)-th
        # eigenvalues coincide, as the zero eigenvalues of the scatter do
        if d == n or w[n - d] - w[n - d - 1] > 1e-8 * norm:
            np.testing.assert_allclose(V @ V.T, U[:, n - d :] @ U[:, n - d :].T, atol=1e-10)


def test_pca_never_calls_eigh(monkeypatch):
    # both branches go through _top_eigenvectors' LAPACK calls
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    rng = np.random.default_rng(9)
    for shape in [(30, 12), (12, 30)]:
        model = fit_pca(rng.standard_normal(shape), 5)
        np.testing.assert_allclose(model.basis.T @ model.basis, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pca_rejects_non_finite_training(bad):
    data = np.random.default_rng(10).standard_normal((20, 8))
    data[3, 5] = bad
    with pytest.raises(NonFiniteInput):
        fit_pca(data, 4)


def test_pca_basis_is_orthonormal():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((50, 30))
    model = fit_pca(data, 8)
    np.testing.assert_allclose(model.basis.T @ model.basis, np.eye(8), atol=1e-12)
    assert model.basis.shape == (50, 8) and model.input_dim == 50


def test_pca_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((20, 200))
    model = fit_pca(data, 5)
    centered = data - data.mean(axis=1, keepdims=True)
    cov = centered @ centered.T
    w, V = np.linalg.eigh(cov)
    top = V[:, np.argsort(w)[::-1][:5]]
    # compare up to per-column sign
    for j in range(5):
        dot = abs(top[:, j] @ model.basis[:, j])
        assert dot == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("shape", [(60, 25), (25, 60), (30, 30)])
def test_pca_matches_svd_oracle(shape):
    # D > N takes the Gram eigenproblem, D <= N the scatter matrix; both must
    # give the leading left singular vectors of the centered data
    rng = np.random.default_rng(7)
    data = rng.standard_normal(shape)
    d = 8
    model = fit_pca(data, d)
    U = np.linalg.svd(data - data.mean(axis=1, keepdims=True), full_matrices=False)[0]
    for j in range(d):
        assert abs(model.basis[:, j] @ U[:, j]) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("shape", [(40, 12), (12, 40), (15, 15)])
def test_pca_full_rank_request_on_rank_deficient_data(shape):
    # centering leaves rank min(D, N) - 1 at most, and the low-rank factor
    # lowers it further; d = min(D, N) still gets an orthonormal basis
    rng = np.random.default_rng(8)
    D, N = shape
    data = rng.standard_normal((D, 5)) @ rng.standard_normal((5, N))
    d = min(D, N)
    model = fit_pca(data, d)
    np.testing.assert_allclose(model.basis.T @ model.basis, np.eye(d), atol=1e-12)
    for j in range(d):
        i = int(np.argmax(np.abs(model.basis[:, j])))
        assert model.basis[i, j] >= 0


def test_pca_captures_low_rank_structure_exactly():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((40, 3))
    data = B @ rng.standard_normal((3, 25))
    model = fit_pca(data, 3)
    proj = project_pca(model, data)
    recon = model.basis @ proj + model.mean[:, None]
    np.testing.assert_allclose(recon, data, atol=1e-9)


def test_pca_variance_ordering():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((30, 100)) * np.linspace(10, 0.1, 30)[:, None]
    model = fit_pca(data, 6)
    proj = project_pca(model, data)
    variances = proj.var(axis=1)
    assert all(b <= a + 1e-9 for a, b in zip(variances, variances[1:]))


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((25, 40))
    m1 = fit_pca(data, 4)
    m2 = fit_pca(data.copy(), 4)
    np.testing.assert_array_equal(m1.basis, m2.basis)
    for j in range(4):
        i = int(np.argmax(np.abs(m1.basis[:, j])))
        assert m1.basis[i, j] >= 0


def test_pca_dimension_validation():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((10, 6))
    for d in (0, 7, 11):
        with pytest.raises(BadDimension):
            fit_pca(data, d)
    with pytest.raises(BadDimension):
        fit_pca(data.ravel(), 2)


def test_project_single_vector_and_matrix_agree():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((15, 20))
    model = fit_pca(data, 4)
    x = rng.standard_normal(15)
    single = project_pca(model, x)
    batch = project_pca(model, x[:, None])
    assert single.shape == (4,)
    np.testing.assert_array_equal(single, batch[:, 0])
    with pytest.raises(DimensionMismatch):
        project_pca(model, rng.standard_normal(16))


def test_vectorize_image_column_major():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vectorize_image(img), [1.0, 3.0, 2.0, 4.0])
    back = vectorize_image(img).reshape(img.shape, order="F")
    np.testing.assert_array_equal(back, img)


def test_vectorize_image_rejects_bad_input():
    with pytest.raises(EmptyImage):
        vectorize_image(np.zeros((0, 3)))
    with pytest.raises(EmptyImage):
        vectorize_image(np.zeros(5))


def test_pca_model_compares_by_identity():
    data = np.random.default_rng(31).standard_normal((12, 9))
    a, b = fit_pca(data, 3), fit_pca(data, 3)
    np.testing.assert_array_equal(a.basis, b.basis)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
