import ast
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repclass.classifiers
import repclass.dictionary
from repclass.classifiers import CLASSIFIERS, SCI_CLASSIFIERS, Model, block_sci, fit
from repclass.dictionary import (
    Projector,
    build_dictionary,
    build_projector,
    default_lambda,
)
from repclass.errors import (
    DimensionMismatch,
    FingerprintMismatch,
    MalformedMatrix,
    NonFiniteInput,
    RankDeficient,
    SingleClass,
)
from repclass.harness import ExperimentConfig
from repclass.solvers import AlmParams, FistaParams, solve_l1res_block, solve_ssnal_l1
from repclass.synthetic import make_subspace_dataset


def _toy(seed=0, m=20, per_class=5, classes=("a", "b", "c", "d")):
    rng = np.random.default_rng(seed)
    samples = []
    for lab in classes:
        center = rng.standard_normal(m)
        for _ in range(per_class):
            samples.append((center + 0.1 * rng.standard_normal(m), lab))
    return build_dictionary(samples), rng


def _decide(d, y, classifier="crc_rls", lam="auto", projector=None, **config):
    """fit(...).decide_block on the one-column block of y; a given projector
    fixes lambda."""
    if projector is not None:
        lam = projector.lam
    model = fit(d, ExperimentConfig(classifier=classifier, lam=lam, **config), projector)
    return model.decide_block(np.reshape(y, (-1, 1)))


def test_cells_table():
    # each name is one (residual, coefficient, scope) cell; the names keep
    # their order, so the CLI choices do not move, and the SCI names are the
    # cells with one code over the whole dictionary
    assert repclass.classifiers.CELLS == {
        "src": ("l2", "l1", "collaborative"),
        "crc_rls": ("l2", "l2", "collaborative"),
        "rcrc": ("l1", "l2", "collaborative"),
        "rns_l1": ("l2", "l1", "per-class"),
        "rns_l2": ("l2", "l2", "per-class"),
        "nn": ("l2", None, "nearest"),
        "ns": ("l2", "none", "per-class"),
    }
    assert CLASSIFIERS == ("src", "crc_rls", "rcrc", "rns_l1", "rns_l2", "nn", "ns")
    assert SCI_CLASSIFIERS == ("src", "crc_rls", "rcrc", "ns")


def test_no_classifier_name_outside_the_cells_table():
    # fit and decide_block read the cell, not the name: outside the CELLS
    # literal, no string constant of the module is a classifier name
    tree = ast.parse(Path(repclass.classifiers.__file__).read_text())
    tables = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CELLS"]
    ]
    assert len(tables) == 1
    inside = {id(node) for node in ast.walk(tables[0])}
    found = [
        (node.lineno, node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in CLASSIFIERS and id(node) not in inside
    ]
    assert found == []


def test_crc_rls_matches_manual_computation():
    d, rng = _toy(1)
    lam = default_lambda(d.n)
    proj = build_projector(d, lam)
    y = rng.standard_normal(d.m)
    b = _decide(d, y, projector=proj)
    alpha = np.linalg.solve(d.data.T @ d.data + lam * np.eye(d.n), d.data.T @ y)
    for i, (lo, hi) in enumerate(d.class_ranges.values()):
        ai = alpha[lo:hi]
        ref = np.linalg.norm(y - d.data[:, lo:hi] @ ai) / np.linalg.norm(ai)
        assert b.scores[i, 0] == pytest.approx(ref, rel=1e-10)
    assert b.predicted[0] == np.argmin(b.scores[:, 0])
    assert not np.isinf(b.scores[:, 0]).all()


def test_crc_rls_classifies_clean_subspace_data():
    train, trl, test, tel = make_subspace_dataset(5, 3, 40, 8, 4, 0.01, 3)
    d = build_dictionary([(train[:, i], trl[i]) for i in range(train.shape[1])])
    proj = build_projector(d, default_lambda(d.n))
    hits = sum(
        d.classes[_decide(d, test[:, j], projector=proj).predicted[0]] == tel[j]
        for j in range(test.shape[1])
    )
    assert hits == test.shape[1]


def test_crc_rls_fingerprint_guard():
    d1, rng = _toy(2)
    d2, _ = _toy(3)
    proj = build_projector(d1, 0.01)
    with pytest.raises(FingerprintMismatch):
        _decide(d2, rng.standard_normal(d1.m), projector=proj)


def test_crc_rls_query_dimension_guard():
    d, rng = _toy(4)
    proj = build_projector(d, 0.01)
    with pytest.raises(DimensionMismatch):
        _decide(d, rng.standard_normal(d.m + 1), projector=proj)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_query_rejected(bad):
    # a NaN query used to predict the first class with degenerate=True
    d, rng = _toy(4)
    proj = build_projector(d, 0.01)
    y = rng.standard_normal(d.m)
    y[3] = bad
    for classify in (
        lambda q: _decide(d, q, projector=proj),
        lambda q: _decide(d, q, "src", 0.01, decision_variant="plain_residual"),
        lambda q: _decide(d, q, "rcrc", 0.01),
        lambda q: _decide(d, q, "rns_l2", 0.01),
        lambda q: _decide(d, q, "nn"),
        lambda q: _decide(d, q, "ns"),
    ):
        with pytest.raises(NonFiniteInput):
            classify(y)


def test_scale_invariance_of_argmin():
    d, rng = _toy(5)
    proj = build_projector(d, default_lambda(d.n))
    lam = default_lambda(d.n)
    y = rng.standard_normal(d.m)
    src = fit(d, ExperimentConfig(classifier="src", lam=lam, decision_variant="plain_residual"))
    nn = fit(d, ExperimentConfig(classifier="nn"))
    ns = fit(d, ExperimentConfig(classifier="ns"))
    for c in (0.5, 3.0, 250.0):
        assert _decide(d, c * y, projector=proj).predicted == _decide(d, y, projector=proj).predicted
        assert src.decide_block(c * y[:, None]).predicted == src.decide_block(y[:, None]).predicted
        assert nn.decide_block(c * y[:, None] / c).predicted == nn.decide_block(y[:, None]).predicted
        assert ns.decide_block(c * y[:, None]).predicted == ns.decide_block(y[:, None]).predicted


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_class_permutation_equivariance(classifier):
    # reordering the class blocks permutes the scores and keeps the argmin;
    # the iterative coders agree to their stopping tolerance, not to rounding
    rng = np.random.default_rng(6)
    m = 15
    blocks = {lab: rng.standard_normal((m, 4)) for lab in ("a", "b", "c")}
    y = rng.standard_normal(m)
    lam = 0.01

    def residuals(order):
        """The predicted class and each class's score, by class."""
        d = build_dictionary([(blocks[lab][:, j], lab) for lab in order for j in range(4)])
        b = _decide(d, y, classifier, lam)
        return d.classes[b.predicted[0]], dict(zip(d.classes, b.scores[:, 0]))

    p1, r1 = residuals(("a", "b", "c"))
    p2, r2 = residuals(("c", "a", "b"))
    assert p1 == p2
    rel = 1e-10 if classifier == "crc_rls" else 1e-6
    for lab in ("a", "b", "c"):
        assert r1[lab] == pytest.approx(r2[lab], rel=rel)


# decision variants each classifier reads; the others score without one
_VARIANT_CASES = [
    (clf, variant)
    for clf in CLASSIFIERS
    for variant in (
        ("plain_residual", "regularized_residual")
        if clf in ("crc_rls", "src", "rcrc") else ("regularized_residual",)
    )
]


def _rel_equal(a, b):
    return np.allclose(a, b, rtol=1e-12, atol=0.0)  # inf equals inf


@pytest.mark.parametrize("classifier, variant", _VARIANT_CASES)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 5), zero_col=st.integers(0, 5))
def test_block_decide_equals_single_decide(classifier, variant, seed, q, zero_col):
    # one block call over q queries gives the q one-query decisions; an
    # all-zero column sits among them
    d, _ = _toy(seed % 97)
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((d.m, q + 1))
    zero_col %= q + 1
    Y[:, zero_col] = 0.0
    model = fit(d, ExperimentConfig(classifier=classifier, lam=0.05, decision_variant=variant))
    block = model.decide_block(Y)
    assert block.scores.shape == (d.k, q + 1)
    for j in range(q + 1):
        one = model.decide_block(Y[:, [j]])
        assert block.predicted[j] == one.predicted[0]
        assert _rel_equal(block.scores[:, j], one.scores[:, 0])
        # a solve over q right-hand sides rounds apart from one over a single
        # one, by the conditioning of the class block
        scale = 1e-10 * (1.0 + np.max(np.abs(one.alpha[:, 0])))
        assert np.allclose(block.alpha[:, j], one.alpha[:, 0], rtol=0.0, atol=scale)
        assert _rel_equal(block.objective[j], one.objective[0])
        assert block.iterations[j] == one.iterations[0]
        assert block.converged[j] == one.converged[0]
    if variant == "regularized_residual" and classifier in ("crc_rls", "src", "rcrc"):
        assert np.all(np.isinf(block.scores[:, zero_col]))
        assert np.isinf(model.decide_block(Y[:, [zero_col]]).scores[:, 0]).all()


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_empty_block_gives_empty_decisions(classifier):
    # src used to raise IndexError, rcrc and rns_l1 ValueError
    d, _ = _toy(28)
    block = fit(d, ExperimentConfig(classifier=classifier)).decide_block(np.zeros((d.m, 0)))
    assert block.scores.shape == (d.k, 0) and block.alpha.shape == (d.n, 0)
    for v in (block.predicted, block.iterations, block.converged, block.objective, block.seconds):
        assert v.shape == (0,)


def test_block_decide_times_each_query():
    # src codes query by query: each query's seconds hold its own coding
    # time, and the shares add up to the block's wall time
    d, rng = _toy(24)
    Y = rng.standard_normal((d.m, 4))
    model = fit(d, ExperimentConfig(classifier="src", lam=0.05))
    t0 = time.perf_counter()
    block = model.decide_block(Y)
    wall = time.perf_counter() - t0
    assert np.all(block.seconds > 0)
    assert block.seconds.sum() <= wall
    assert block.gap is not None and np.all(block.gap <= 1e-6)


def test_rns_l2_factors_each_class_once_at_fit(monkeypatch):
    # rns_l2's ridge maps and ns's pseudo-inverses are made once per class at
    # fit; decide_block only multiplies by the stacked code map
    d, rng = _toy(25)
    calls = []
    for module, name in [(repclass.dictionary, "_cholesky"), (np.linalg, "pinv"), (np.linalg, "lstsq")]:
        orig = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _f=orig, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    for rule, factor in [("rns_l2", "_cholesky"), ("ns", "pinv")]:
        calls.clear()
        model = fit(d, ExperimentConfig(classifier=rule, lam=0.05))
        assert calls == [factor] * d.k
        assert model.code_map.shape == (d.n, d.m)
        block = model.decide_block(rng.standard_normal((d.m, 7)))
        model.decide_block(rng.standard_normal((d.m, 1)))
        assert calls == [factor] * d.k
        assert block.scores.shape == (d.k, 7)


def test_block_sci_equals_one_column_block_sci():
    d, rng = _toy(26)
    A = rng.standard_normal((d.n, 5))
    A[:, 1] = 0.0
    A[5:, 2] = 0.0  # all mass in the first class block
    sci = block_sci(d, A)
    for j in range(5):
        assert sci[j] == pytest.approx(_sci(d, A[:, j]), rel=1e-12, abs=1e-15)
    assert sci[1] == 0.0 and sci[2] == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        block_sci(d, A[1:])


def test_block_decide_rejects_bad_blocks():
    d, rng = _toy(27)
    model = fit(d, ExperimentConfig(classifier="nn"))
    with pytest.raises(DimensionMismatch):
        model.decide_block(rng.standard_normal((d.m + 1, 3)))
    Y = rng.standard_normal((d.m, 3))
    Y[2, 1] = np.nan
    with pytest.raises(NonFiniteInput):
        model.decide_block(Y)


def test_tie_break_earliest_class():
    # mirrored geometry: both classes give identical residuals
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    d = build_dictionary([(X[:, 0], "p"), (X[:, 1], "q")])
    proj = build_projector(d, 0.1)
    y = np.array([1.0, 1.0, 0.0])
    b = _decide(d, y, projector=proj)
    assert b.scores[0, 0] == pytest.approx(b.scores[1, 0])
    assert d.classes[b.predicted[0]] == "p"


def test_degenerate_zero_query():
    d, _ = _toy(7)
    proj = build_projector(d, 0.01)
    b = _decide(d, np.zeros(d.m), projector=proj)
    assert np.isinf(b.scores[:, 0]).all()


def test_rcrc_ignores_gross_corruption():
    train, trl, test, tel = make_subspace_dataset(4, 3, 60, 10, 2, 0.01, 8)
    d = build_dictionary([(train[:, i], trl[i]) for i in range(train.shape[1])])
    lam = default_lambda(d.n)
    y = test[:, 0].copy()
    rng = np.random.default_rng(9)
    idx = rng.choice(60, size=15, replace=False)
    y[idx] = rng.uniform(1.0, 2.0, size=15) * rng.choice([-1.0, 1.0], size=15)
    b = _decide(d, y, "rcrc", lam)
    assert d.classes[b.predicted[0]] == tel[0]
    # most of the outlier-estimate mass lands on the corrupted coordinates
    e = solve_l1res_block(d, y[:, None], lam)[0].residual_vec
    mass_in = np.sum(np.abs(e[idx]))
    assert mass_in >= 0.6 * np.sum(np.abs(e))


def test_rns_l2_matches_per_class_ridge_objective():
    # the second dictionary's class blocks have more columns than rows, so
    # each class's ridge map is solved through its m x m Gram matrix
    for d, rng in (_toy(10), _toy(10, m=4, per_class=6)):
        y = rng.standard_normal(d.m)
        lam = 0.05
        b = _decide(d, y, "rns_l2", lam)
        for i, (lo, hi) in enumerate(d.class_ranges.values()):
            B = d.data[:, lo:hi]
            coef = np.linalg.solve(B.T @ B + lam * np.eye(B.shape[1]), B.T @ y)
            r = y - B @ coef
            assert b.scores[i, 0] == pytest.approx(
                float(r @ r + lam * coef @ coef), rel=1e-8
            )


def test_nn_matches_brute_force():
    d, rng = _toy(11)
    y = rng.standard_normal(d.m)
    b = _decide(d, y, "nn")
    dists = np.linalg.norm(d.data - y[:, None], axis=0)
    best_col = int(np.argmin(dists))
    assert d.classes[b.predicted[0]] == d.labels[best_col]
    for i, (lo, hi) in enumerate(d.class_ranges.values()):
        assert b.scores[i, 0] == pytest.approx(float(np.min(dists[lo:hi])))


def test_ns_matches_pseudoinverse():
    d, rng = _toy(12, per_class=3)
    y = rng.standard_normal(d.m)
    b = _decide(d, y, "ns")
    for i, (lo, hi) in enumerate(d.class_ranges.values()):
        B = d.data[:, lo:hi]
        ref = np.linalg.norm(y - B @ np.linalg.pinv(B) @ y)
        assert b.scores[i, 0] == pytest.approx(ref, rel=1e-8)


def test_src_plain_vs_regularized_variant():
    d, rng = _toy(13)
    y = rng.standard_normal(d.m)
    lam = 0.05
    plain = _decide(d, y, "src", lam, decision_variant="plain_residual")
    reg = _decide(d, y, "src", lam, decision_variant="regularized_residual")
    a = plain.alpha[:, 0]
    for i, (lo, hi) in enumerate(d.class_ranges.values()):
        r = np.linalg.norm(y - d.data[:, lo:hi] @ a[lo:hi])
        assert plain.scores[i, 0] == pytest.approx(r, rel=1e-8)
        na = np.linalg.norm(a[lo:hi])
        expect = r / na if na > 1e-12 else np.inf
        assert reg.scores[i, 0] == pytest.approx(expect, rel=1e-8)


# The per-class residual loops as they stood before they sliced alpha and the
# dictionary directly; kept verbatim as the oracle the current loops must
# reproduce bit for bit.
def _plain_residuals_reference(dictionary, y, alpha):
    out = {}
    for lab in dictionary.classes:
        lo, hi = dictionary.class_ranges[lab]
        ai = alpha[lo:hi]
        out[lab] = float(np.linalg.norm(y - dictionary.data[:, lo:hi] @ ai))
    return out


def _regularized_residuals_reference(dictionary, y, alpha, e=None):
    target = y if e is None else y - e
    out = {}
    for lab in dictionary.classes:
        lo, hi = dictionary.class_ranges[lab]
        ai = alpha[lo:hi]
        nai = float(np.linalg.norm(ai))
        if nai < 1e-12:
            out[lab] = np.inf
        else:
            out[lab] = float(np.linalg.norm(target - dictionary.data[:, lo:hi] @ ai)) / nai
    return out


@pytest.mark.parametrize("classifier", ["crc_rls", "src", "rcrc"])
@pytest.mark.parametrize("variant", ["plain_residual", "regularized_residual"])
def test_residuals_bit_equal_to_per_class_reference(classifier, variant):
    d, rng = _toy(20, m=30, per_class=6)
    lam = default_lambda(d.n)
    proj = build_projector(d, lam)
    for _ in range(3):
        y = rng.standard_normal(d.m)
        if classifier == "crc_rls":
            b = _decide(d, y, projector=proj, decision_variant=variant)
        else:
            b = _decide(d, y, classifier, lam, decision_variant=variant)
        # rcrc scores the query less its outlier estimate, which its coder returns
        e = solve_l1res_block(d, y[:, None], lam)[0].residual_vec if classifier == "rcrc" else None
        if variant == "plain_residual":
            target = y if e is None else y - e
            ref = _plain_residuals_reference(d, target, b.alpha[:, 0])
        else:
            ref = _regularized_residuals_reference(d, y, b.alpha[:, 0], e=e)
        assert list(ref) == d.classes
        assert b.scores[:, 0].tolist() == list(ref.values())


def _per_class_reference(B, y, classifier, lam):
    """A per-class or nearest cell's score of one class block B for query y,
    from the definitions, with the relative tolerance it must meet (of the
    query's scale, for a residual that vanishes on a wide block)."""
    if classifier == "rns_l1":
        return solve_ssnal_l1(B, y, lam).objective, 0.0
    if classifier == "rns_l2":
        coef = np.linalg.solve(B.T @ B + lam * np.eye(B.shape[1]), B.T @ y)
        r = y - B @ coef
        return float(r @ r + lam * coef @ coef), 1e-12
    if classifier == "ns":
        return float(np.linalg.norm(y - B @ np.linalg.lstsq(B, y, rcond=None)[0])), 1e-12
    return float(np.min(np.linalg.norm(B - y[:, None], axis=0))), 1e-12


@pytest.mark.parametrize("classifier", ["rns_l1", "rns_l2", "ns", "nn"])
@pytest.mark.parametrize("shape", [dict(m=30, per_class=6), dict(m=5, per_class=7)], ids=["tall", "wide"])
def test_per_class_and_nearest_scores_equal_their_reference(classifier, shape):
    # the per-class cells score each class block by its own coding objective
    # (ns by its residual norm), nearest by the nearest column; the reported
    # objective is the picked class's score (its square for ns)
    d, rng = _toy(26, **shape)
    lam = 0.05
    Y = rng.standard_normal((d.m, 3))
    b = fit(d, ExperimentConfig(classifier=classifier, lam=lam)).decide_block(Y)
    for j, y in enumerate(Y.T):
        for i, (lo, hi) in enumerate(d.class_ranges.values()):
            ref, rel = _per_class_reference(d.data[:, lo:hi], y, classifier, lam)
            assert b.scores[i, j] == pytest.approx(ref, rel=rel, abs=rel * np.linalg.norm(y))
        best = b.scores[b.predicted[j], j]
        assert best == b.scores[:, j].min()
        assert b.objective[j] == (best**2 if classifier == "ns" else best)


# ------------------------------------------------------------------ SCI

def _sci(d, vec):
    """SCI of one code vector: block_sci of the one-column block."""
    return float(block_sci(d, np.asarray(vec, dtype=float)[:, None])[0])


def test_sci_extremes():
    d, _ = _toy(14, per_class=2, classes=("a", "b", "c"))
    one_class = np.zeros(d.n)
    one_class[0:2] = [1.0, -2.0]
    assert _sci(d, one_class) == pytest.approx(1.0)
    assert _sci(d, np.ones(d.n)) == pytest.approx(0.0)
    assert _sci(d, np.zeros(d.n)) == 0.0


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=6, max_size=6))
def test_sci_bounds(vals):
    d, _ = _toy(15, per_class=2, classes=("a", "b", "c"))
    sci = _sci(d, vals)
    assert 0.0 <= sci <= 1.0


def _sci_reference(dictionary, alpha):
    total = np.sum(np.abs(alpha))
    best = max(
        np.sum(np.abs(alpha[lo:hi])) / total for lo, hi in dictionary.class_ranges.values()
    )
    k = dictionary.k
    return min(1.0, max(0.0, (k * best - 1.0) / (k - 1.0)))


def test_sci_matches_per_class_formula():
    d, rng = _toy(21, per_class=4, classes=("a", "b", "c", "d", "e"))
    for _ in range(50):
        alpha = rng.standard_normal(d.n) * rng.uniform(0, 3, size=d.n)
        alpha[rng.random(d.n) < 0.5] = 0.0
        sci = _sci(d, alpha)
        assert sci == pytest.approx(_sci_reference(d, alpha), abs=1e-12)


def test_sci_single_class_error():
    d, _ = _toy(16, classes=("only",))
    with pytest.raises(SingleClass):
        _sci(d, np.ones(d.n))


def test_sci_length_mismatch():
    d, _ = _toy(17)
    with pytest.raises(DimensionMismatch):
        _sci(d, np.ones(d.n + 1))


def test_decide_calls_the_module_solvers(monkeypatch):
    # the solvers are looked up at call time, so a wrapper (a tracer) sees them
    d, rng = _toy(22)
    y = rng.standard_normal(d.m)
    calls = []
    for name in ("solve_l1res_block", "solve_fista_l1", "solve_ssnal_l1"):
        orig = getattr(repclass.classifiers, name)

        def spy(*args, _orig=orig, _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(repclass.classifiers, name, spy)
    _decide(d, y, "rcrc", 0.1, alm=AlmParams(max_iter=3))
    _decide(d, y, "src", 0.1, fista=FistaParams(max_iter=3))
    _decide(d, y, "rns_l1", 0.1, fista=FistaParams(max_iter=3))
    assert calls == ["solve_l1res_block", "solve_fista_l1"] + ["solve_fista_l1"] * d.k
    # without fista settings, src and rns_l1 run the Newton coder
    calls.clear()
    _decide(d, y, "src", 0.1, alm=AlmParams(max_iter=3))
    _decide(d, y, "rns_l1", 0.1)
    assert calls == ["solve_ssnal_l1"] * (1 + d.k)


def test_rcrc_decides_a_block_by_one_coder_call(monkeypatch):
    # rcrc hands its whole block to one solve_l1res_block call, which slices
    # it itself; the decisions do not depend on the slicing, and the call's
    # time goes to the queries in proportion to their iterations, so a zero
    # query gets only its equal share of the time outside the coder
    d, rng = _toy(24)
    Y = rng.standard_normal((d.m, 5))
    Y[:, 3] = 0.0
    model = fit(d, ExperimentConfig(classifier="rcrc", lam=0.05))
    whole = model.decide_block(Y)
    widths, block = [], repclass.classifiers.solve_l1res_block

    def spy(X, R, *args):
        widths.append(R.shape[1])
        return block(X, R, *args)

    monkeypatch.setattr(repclass.solvers, "_L1RES_BYTES", 1)  # one query per slice
    monkeypatch.setattr(repclass.classifiers, "solve_l1res_block", spy)
    sliced = model.decide_block(Y)
    assert widths == [5]
    for f in ("scores", "predicted", "alpha", "iterations", "converged", "objective", "gap"):
        assert getattr(sliced, f).tobytes() == getattr(whole, f).tobytes(), f
    assert sliced.iterations[3] == 0 < sliced.iterations[2]
    assert 0 < sliced.seconds[3] < sliced.seconds[2]


def test_fit_reuses_a_projector_only_at_its_lambda():
    d, _ = _toy(23)
    proj = build_projector(d, 0.01)
    model = fit(d, ExperimentConfig(lam=0.01), proj)
    assert model.code_map is proj.matrix and model.lam == 0.01
    other = fit(d, ExperimentConfig(lam=0.02), proj)
    assert other.lam == 0.02
    np.testing.assert_array_equal(other.code_map, build_projector(d, 0.02).matrix)
    assert isinstance(other, Model)
    assert fit(d, ExperimentConfig(classifier="src"), proj).code_map is None


def _duplicate_column_dictionary():
    """Five columns in two classes, the first two equal."""
    rng = np.random.default_rng(27)
    X = rng.standard_normal((6, 5))
    X[:, 1] = X[:, 0]
    return build_dictionary(zip(X.T, ["a", "a", "b", "b", "b"])), rng.standard_normal(6)


@pytest.mark.parametrize("classifier", ["crc_rls", "rns_l2", "src", "rns_l1"])
def test_a_ridge_or_newton_system_that_cannot_be_factored_is_rank_deficient(classifier):
    # lam = 1e-20 is valid, but below the rounding of a dictionary with two
    # equal columns: fit (crc_rls, rns_l2) and SSNAL's Newton steps (src,
    # rns_l1) used to raise numpy's untyped LinAlgError from the Cholesky
    d, y = _duplicate_column_dictionary()
    with pytest.raises(RankDeficient, match="lambda=1e-20"):
        fit(d, ExperimentConfig(classifier=classifier, lam=1e-20)).decide_block(y[:, None])


def test_model_compares_by_identity():
    d, _ = _toy(31)
    config = ExperimentConfig(classifier="crc_rls", lam=0.1)
    a, b = fit(d, config), fit(d, config)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_fit_refuses_a_projector_of_the_wrong_shape():
    # a 3-row slice of the 4 x 6 projector keeps its fingerprint and lambda;
    # decide used to fail inside numpy's matmul
    rng = np.random.default_rng(33)
    d = build_dictionary([(rng.standard_normal(6), lab) for lab in "aabb"])
    proj = build_projector(d, 0.1)
    cut = Projector(proj.matrix[:3], proj.lam, proj.dictionary_fingerprint)
    with pytest.raises(MalformedMatrix, match=r"3 x 6.*4 x 6"):
        fit(d, ExperimentConfig(classifier="crc_rls", lam=proj.lam), cut)
