import hashlib
import json

import numpy as np
import pytest

from repclass.classifiers import fit
from repclass.dictionary import build_dictionary, build_projector
from repclass.errors import BadLabel, FingerprintMismatch, MalformedMatrix, MissingPath
from repclass.harness import ExperimentConfig, load_dataset, save_dataset, synthetic_dataset
from repclass.io import (
    MAGIC,
    load_dictionary,
    load_projector,
    read_matrix,
    read_pgm,
    save_dictionary,
    save_projector,
    write_matrix,
    write_pgm,
)
from repclass.solvers import solve_rls


def test_matrix_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((13, 7))
    p = tmp_path / "m.rpmat"
    write_matrix(p, M)
    back = read_matrix(p)
    np.testing.assert_array_equal(back, M)
    assert back.dtype == np.float64
    # header layout
    raw = p.read_bytes()
    assert raw[:8] == MAGIC
    assert len(raw) == 24 + 13 * 7 * 8


@pytest.mark.parametrize("shape", [(13, 7), (5, 300_000), (0, 4)], ids=["small", "blocks", "empty"])
def test_read_matrix_in_fortran_order(tmp_path, shape):
    # (5, 300_000) fills the array in two blocks of rows, 3 and 2
    M = np.random.default_rng(1).standard_normal(shape)
    p = tmp_path / "m.rpmat"
    write_matrix(p, M)
    back = read_matrix(p, order="F")
    assert back.flags.f_contiguous and back.dtype == np.float64
    np.testing.assert_array_equal(back, M)


def test_matrix_vector_promoted_to_column(tmp_path):
    p = tmp_path / "v.rpmat"
    write_matrix(p, np.arange(5.0))
    assert read_matrix(p).shape == (5, 1)


def test_read_matrix_error_cases(tmp_path):
    with pytest.raises(MissingPath):
        read_matrix(tmp_path / "absent.rpmat")
    bad = tmp_path / "bad.rpmat"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(MalformedMatrix):
        read_matrix(bad)
    trunc = tmp_path / "trunc.rpmat"
    write_matrix(trunc, np.ones((4, 4)))
    full = trunc.read_bytes()
    for raw in (full[:-8], full + b"\x00", full[:20]):  # short, trailing, header
        trunc.write_bytes(raw)
        with pytest.raises(MalformedMatrix):
            read_matrix(trunc)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = np.round(rng.uniform(0, 255, size=(9, 14)))
    p = tmp_path / "img.pgm"
    write_pgm(p, img)
    np.testing.assert_array_equal(read_pgm(p), img)


def test_pgm_header_comments_and_errors(tmp_path):
    p = tmp_path / "c.pgm"
    body = bytes(range(6))
    p.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + body)
    img = read_pgm(p)
    assert img.shape == (2, 3)
    np.testing.assert_array_equal(img.ravel(), np.arange(6.0))

    notpgm = tmp_path / "x.pgm"
    notpgm.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(MalformedMatrix):
        read_pgm(notpgm)
    deep = tmp_path / "deep.pgm"
    deep.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(MalformedMatrix):
        read_pgm(deep)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(MalformedMatrix):
        read_pgm(short)


def test_pgm_missing_file_is_missing_path(tmp_path):
    with pytest.raises(MissingPath, match="absent.pgm"):
        read_pgm(tmp_path / "absent.pgm")


def test_pgm_header_cut_before_maxval_is_truncated(tmp_path):
    p = tmp_path / "cut.pgm"
    p.write_bytes(b"P5\n# no maxval\n4 4\n")
    with pytest.raises(MalformedMatrix, match="truncated PGM header"):
        read_pgm(p)


def test_pgm_header_token_that_is_not_a_number(tmp_path):
    # used to end in a bare ValueError: invalid literal for int()
    p = tmp_path / "ab.pgm"
    p.write_bytes(b"P5\nab 3\n255\n" + b"\x00" * 9)
    with pytest.raises(MalformedMatrix, match=r"ab\.pgm: PGM header b'ab 3 255' is not three whole"):
        read_pgm(p)


def _dictionary(seed=2):
    rng = np.random.default_rng(seed)
    samples = [(rng.standard_normal(10), f"c{i % 3}") for i in range(12)]
    return build_dictionary(samples)


def test_dictionary_roundtrip(tmp_path):
    d = _dictionary()
    save_dictionary(d, tmp_path / "dict.rpmat")
    back = load_dictionary(tmp_path / "dict.rpmat")
    np.testing.assert_array_equal(back.data, d.data)
    assert back.labels == d.labels
    assert back.class_ranges == d.class_ranges
    assert back.fingerprint == d.fingerprint


def _edit_sidecar(path, **changes):
    sidecar_path = path.with_suffix(path.suffix + ".json")
    sidecar = json.loads(sidecar_path.read_text())
    sidecar.update(changes)
    sidecar_path.write_text(json.dumps(sidecar))


def test_load_dictionary_checks_fingerprint(tmp_path):
    path = tmp_path / "dict.rpmat"
    save_dictionary(_dictionary(), path)
    _edit_sidecar(path, fingerprint="0" * 64)
    with pytest.raises(FingerprintMismatch, match="dict.rpmat"):
        load_dictionary(path)
    # the sidecar keeps only string labels, so an int label is refused at
    # save time, before any file is written
    rng = np.random.default_rng(2)
    ints = build_dictionary([(rng.standard_normal(10), i % 3) for i in range(12)])
    with pytest.raises(BadLabel, match="label 0"):
        save_dictionary(ints, tmp_path / "ints.rpmat")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dict.rpmat", "dict.rpmat.json"]


def test_save_dataset_refuses_a_non_string_label(tmp_path):
    # labels 1 and "1" are two classes in memory and would be one class
    # after a save and load, so an int label is refused before any file is written
    data = synthetic_dataset(n_classes=2, subspace_dim=2, ambient_dim=6, n_train=2, n_test=1)
    data.labels[0] = 1
    with pytest.raises(BadLabel, match="label 1"):
        save_dataset(data, tmp_path / "data.rpmat")
    assert list(tmp_path.iterdir()) == []


def test_load_dictionary_without_sidecar_is_missing_path(tmp_path):
    path = tmp_path / "dict.rpmat"
    save_dictionary(_dictionary(), path)
    (tmp_path / "dict.rpmat.json").unlink()
    with pytest.raises(MissingPath, match="dict.rpmat.json"):
        load_dictionary(path)


def test_load_dictionary_checks_unit_norm_columns(tmp_path):
    d = _dictionary()
    path = tmp_path / "dict.rpmat"
    save_dictionary(d, path)
    data = d.data.copy()
    data[:, 4] *= 1.0 + 1e-8
    write_matrix(path, data)
    with pytest.raises(MalformedMatrix, match="column 4"):
        load_dictionary(path)


def test_load_dictionary_checks_labels(tmp_path):
    d = _dictionary()
    path = tmp_path / "dict.rpmat"
    save_dictionary(d, path)
    # class c0 in two runs, and a label that is not a string, each under a
    # fingerprint that matches data and labels
    for labels, words in [
        (["c0"] * 3 + ["c1"] * 4 + ["c0"] + ["c2"] * 4, "class 'c0' is not one run"),
        ([["c0"]] * 4 + ["c1"] * 8, "labels are not a list of strings"),
    ]:
        h = hashlib.sha256(d.data.tobytes())
        h.update(repr(tuple(labels)).encode())
        _edit_sidecar(path, labels=labels, fingerprint=h.hexdigest())
        with pytest.raises(MalformedMatrix, match=r"dict\.rpmat: " + words):
            load_dictionary(path)


def test_swapped_class_ranges_in_sidecar_change_nothing(tmp_path):
    # a sidecar of an older format lists the class ranges beside the labels;
    # ranges that contradict the labels used to load and swap the answers
    rng = np.random.default_rng(11)
    basis = {lab: rng.standard_normal((10, 2)) for lab in ("a", "b")}
    samples = [(basis[lab] @ rng.standard_normal(2), lab) for lab in "aaaabbbb"]
    d = build_dictionary(samples)
    path = tmp_path / "dict.rpmat"
    save_dictionary(d, path)
    assert "class_ranges" not in json.loads(path.with_suffix(".rpmat.json").read_text())
    _edit_sidecar(path, class_ranges={"a": [4, 8], "b": [0, 4]})
    back = load_dictionary(path)
    assert back.class_ranges == d.class_ranges == {"a": (0, 4), "b": (4, 8)}
    query = basis["a"] @ rng.standard_normal(2)
    config = ExperimentConfig()
    got, want = (fit(x, config).decide_block(query[:, None]) for x in (back, d))
    assert back.classes[got.predicted[0]] == d.classes[want.predicted[0]] == "a"
    assert got.scores.tobytes() == want.scores.tobytes()


def test_projector_roundtrip_and_reattachment(tmp_path):
    d = _dictionary(3)
    proj = build_projector(d, 0.07)
    save_projector(proj, tmp_path / "proj.rpmat")

    loaded = load_projector(tmp_path / "proj.rpmat")
    np.testing.assert_array_equal(loaded.matrix, proj.matrix)
    # in build_projector's Fortran order, so a block decide runs as fast and
    # rounds the same as with the built projector
    assert loaded.matrix.flags.f_contiguous
    Y = np.random.default_rng(3).standard_normal((10, 7))
    config = ExperimentConfig(lam=proj.lam)
    np.testing.assert_array_equal(
        fit(d, config, loaded).decide_block(Y).scores, fit(d, config, proj).decide_block(Y).scores
    )
    assert loaded.lam == proj.lam
    assert loaded.dictionary_fingerprint == d.fingerprint

    # a loaded projector reattaches to its dictionary by fingerprint only
    res = fit(d, config, loaded).decide_block(np.ones((10, 1)))
    ref = solve_rls(d.data, np.ones(10), 0.07)
    np.testing.assert_allclose(res.alpha[:, 0], ref.alpha, rtol=1e-12)
    with pytest.raises(FingerprintMismatch):
        fit(_dictionary(4), config, loaded).decide_block(np.ones((10, 1)))


@pytest.mark.parametrize(
    "entry, lam",
    [(np.nan, 0.07), (np.inf, 0.07), (None, float("nan")), (None, float("inf")),
     (None, 0.0), (None, -1.0), (None, "0.07"), (None, True)],
    ids=["nan-entry", "inf-entry", "nan-lambda", "inf-lambda", "zero-lambda",
         "negative-lambda", "string-lambda", "bool-lambda"],
)
def test_load_projector_rejects_non_finite_input(tmp_path, entry, lam):
    # a NaN entry used to load, and classify printed a prediction from it
    path = tmp_path / "proj.rpmat"
    proj = build_projector(_dictionary(), 0.07)
    if entry is not None:
        proj.matrix[1, 2] = entry
    save_projector(proj, path)
    _edit_sidecar(path, **{"lambda": lam})
    with pytest.raises(MalformedMatrix, match=r"proj\.rpmat: "):
        load_projector(path)


@pytest.mark.parametrize(
    "kind, key",
    [
        ("dictionary", "labels"),
        ("dictionary", "fingerprint"),
        ("projector", "lambda"),
        ("projector", "dictionary_fingerprint"),
    ],
)
def test_sidecar_missing_key_is_malformed(tmp_path, kind, key):
    d = _dictionary()
    path = tmp_path / f"{kind}.rpmat"
    if kind == "dictionary":
        save_dictionary(d, path)
        load = load_dictionary
    else:
        save_projector(build_projector(d, 0.07), path)
        load = load_projector
    sidecar_path = tmp_path / f"{kind}.rpmat.json"
    sidecar = json.loads(sidecar_path.read_text())
    del sidecar[key]
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(MalformedMatrix, match=repr(key)):
        load(path)
    sidecar_path.write_text("[]")
    with pytest.raises(MalformedMatrix):
        load(path)


def test_every_loader_names_a_sidecar_that_is_not_json(tmp_path):
    # a "{" sidecar used to escape as JSONDecodeError
    d = _dictionary()
    saves = [
        (save_dictionary, d, load_dictionary),
        (save_projector, build_projector(d, 0.1), load_projector),
        (save_dataset, synthetic_dataset(n_classes=2, subspace_dim=2, ambient_dim=6), load_dataset),
    ]
    for i, (save, obj, load) in enumerate(saves):
        path = tmp_path / f"f{i}.rpmat"
        save(obj, path)
        path.with_suffix(".rpmat.json").write_text("{")
        with pytest.raises(MalformedMatrix, match=rf"f{i}\.rpmat\.json: sidecar is not valid JSON"):
            load(path)
