import numpy as np
import pytest

from repclass.dictionary import (
    Dictionary,
    build_dictionary,
    build_projector,
    default_lambda,
    normalize_columns,
)
from repclass.errors import (
    DimensionMismatch,
    EmptyInput,
    MalformedMatrix,
    NonFiniteInput,
    NonPositiveLambda,
    UnknownClass,
    ZeroColumn,
)


def _samples(rng, m=12, per_class=4, classes=("a", "b", "c")):
    out = []
    for lab in classes:
        for _ in range(per_class):
            out.append((rng.standard_normal(m), lab))
    return out


def test_default_lambda_values():
    assert default_lambda(700) == pytest.approx(0.001)
    assert default_lambda(1400) == pytest.approx(0.002)
    assert default_lambda(1) == pytest.approx(0.001 / 700)


def test_normalize_columns_unit_norm():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((10, 7)) * 13.0
    X = normalize_columns(raw)
    np.testing.assert_allclose(np.linalg.norm(X, axis=0), 1.0, rtol=1e-12)
    # direction preserved
    for j in range(7):
        cos = X[:, j] @ raw[:, j] / np.linalg.norm(raw[:, j])
        assert cos == pytest.approx(1.0)


def test_normalize_columns_rejects_zero_column():
    raw = np.ones((5, 3))
    raw[:, 1] = 0.0
    with pytest.raises(ZeroColumn):
        normalize_columns(raw)


def test_build_dictionary_grouping_and_ranges():
    rng = np.random.default_rng(1)
    # interleaved class order; grouping should follow first appearance
    samples = [
        (rng.standard_normal(6), "b"),
        (rng.standard_normal(6), "a"),
        (rng.standard_normal(6), "b"),
        (rng.standard_normal(6), "a"),
    ]
    d = build_dictionary(samples)
    assert d.classes == ["b", "a"]
    assert d.class_ranges["b"] == (0, 2)
    assert d.class_ranges["a"] == (2, 4)
    assert d.m == 6 and d.n == 4 and d.k == 2
    np.testing.assert_allclose(np.linalg.norm(d.data, axis=0), 1.0, rtol=1e-12)


def test_dictionary_class_ranges_come_from_the_labels():
    data = normalize_columns(np.random.default_rng(1).standard_normal((6, 5)))
    d = Dictionary(data, ("b", "b", "a", "c", "c"))
    assert d.class_ranges == {"b": (0, 2), "a": (2, 3), "c": (3, 5)}
    assert d.classes == ["b", "a", "c"] and d.k == 3
    with pytest.raises(MalformedMatrix, match="class 'b' is not one run"):
        Dictionary(data, ("b", "a", "b", "c", "c"))
    with pytest.raises(MalformedMatrix, match="4 labels for 5 columns"):
        Dictionary(data, ("b", "b", "a", "c"))


def test_build_dictionary_empty_input():
    with pytest.raises(EmptyInput):
        build_dictionary([])


def test_build_dictionary_dimension_mismatch():
    rng = np.random.default_rng(8)
    samples = [*_samples(rng, m=15), (rng.standard_normal(9), "a")]
    with pytest.raises(DimensionMismatch, match="dimension 9, expected 15"):
        build_dictionary(samples)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_build_dictionary_rejects_non_finite_column(bad):
    samples = _samples(np.random.default_rng(3))
    samples[5][0][2] = bad
    with pytest.raises(NonFiniteInput):
        build_dictionary(samples)


def test_build_dictionary_normalizes_a_column_whose_squares_overflow():
    # a finite column of 1e200 entries used to overflow np.linalg.norm, warn
    # and raise NonFiniteInput; it is normalized by its largest entry (Tier-1
    # turns the warning into an error), and the other column is divided by
    # its plain norm as before
    raw = np.array([[1e200, 1.0], [1e200, 2.0], [0.0, 3.0]])
    d = build_dictionary(zip(raw.T, ["a", "b"]))
    np.testing.assert_allclose(d.data[:, 0], [2**-0.5, 2**-0.5, 0.0], rtol=1e-15)
    assert d.data[:, 1].tobytes() == (raw[:, 1] / np.linalg.norm(raw[:, 1])).tobytes()
    # a norm above the largest float is still refused
    with pytest.raises(NonFiniteInput):
        normalize_columns(np.full((4, 1), 1e308))


def test_fingerprint_stability_and_sensitivity():
    rng = np.random.default_rng(2)
    samples = _samples(rng)
    d1 = build_dictionary(samples)
    d2 = build_dictionary(samples)
    assert d1.fingerprint == d2.fingerprint
    bumped = [(v + (0.1 if i == 0 else 0.0), lab) for i, (v, lab) in enumerate(samples)]
    d3 = build_dictionary(bumped)
    assert d3.fingerprint != d1.fingerprint


def test_class_block_and_coefficients():
    rng = np.random.default_rng(3)
    d = build_dictionary(_samples(rng, per_class=3))
    blk = d.class_block("b")
    assert blk.shape == (12, 3)
    np.testing.assert_array_equal(blk, d.data[:, 3:6])
    with pytest.raises(UnknownClass):
        d.class_block("zz")


def test_projector_matches_direct_inverse():
    rng = np.random.default_rng(4)
    # n = 12 columns; with m = 5 the projector is factored through X X^T
    for m in (20, 5):
        d = build_dictionary(_samples(rng, m=m, per_class=4))
        lam = 0.05
        proj = build_projector(d, lam)
        X = d.data
        direct = np.linalg.inv(X.T @ X + lam * np.eye(d.n)) @ X.T
        np.testing.assert_allclose(proj.matrix, direct, rtol=1e-10, atol=1e-12)
        assert proj.dictionary_fingerprint == d.fingerprint


def test_projector_rejects_bad_lambda():
    rng = np.random.default_rng(5)
    d = build_dictionary(_samples(rng))
    for lam in (0.0, -1.0):
        with pytest.raises(NonPositiveLambda):
            build_projector(d, lam)


def test_dictionary_is_frozen():
    rng = np.random.default_rng(9)
    d = build_dictionary(_samples(rng))
    with pytest.raises(Exception):
        d.labels = ()


def test_dictionary_compares_by_identity():
    # two dictionaries of the same samples hold equal arrays; == over them
    # used to raise (an array's truth value is ambiguous) and hash failed
    samples = _samples(np.random.default_rng(31))
    a, b = build_dictionary(samples), build_dictionary(samples)
    assert a.fingerprint == b.fingerprint
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_projector_compares_by_identity():
    d = build_dictionary(_samples(np.random.default_rng(32)))
    a, b = build_projector(d, 0.1), build_projector(d, 0.1)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
