"""On-disk interchange: binary matrix files, JSON sidecars, PGM images.

Matrix format: 8-byte magic "RPMATv1\\0", little-endian u64 rows, u64 cols,
then row-major IEEE-754 doubles.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np

from .dictionary import Dictionary, Projector, is_number
from .errors import BadLabel, FingerprintMismatch, MalformedMatrix, MissingPath

MAGIC = b"RPMATv1\x00"
_UNIT_NORM_TOL = 1e-10


def write_matrix(path, matrix):
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", matrix.shape[0], matrix.shape[1]))
        fh.write(matrix.tobytes(order="C"))


def read_matrix(path, order="C"):
    """Read a matrix file into an array in the given memory order ("C" or
    "F"). A Fortran-order array is filled a block of rows at a time, so no
    second full-size copy is held while it is transposed."""
    path = Path(path)
    if not path.exists():
        raise MissingPath(str(path))
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24 or header[:8] != MAGIC:
            raise MalformedMatrix(f"{path}: bad magic or truncated header")
        rows, cols = struct.unpack("<QQ", header[8:])
        expected = 24 + rows * cols * 8
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise MalformedMatrix(f"{path}: expected {expected} bytes, got {size}")
        if order == "C":
            # the payload goes straight into the array, with no bytes copy
            return np.fromfile(fh, dtype="<f8", count=rows * cols).reshape(rows, cols)
        out = np.empty((rows, cols), order="F")
        step = max(1, (1 << 20) // max(cols, 1))  # rows per block of about 8 MB
        for r in range(0, rows, step):
            n = min(step, rows - r)
            out[r : r + n] = np.fromfile(fh, dtype="<f8", count=n * cols).reshape(n, cols)
    return out


def read_pgm(path):
    """Read a binary 8-bit grayscale PGM (P5) image as an H x W float array."""
    path = Path(path)
    if not path.exists():
        raise MissingPath(str(path))
    raw = path.read_bytes()
    if raw[:2] != b"P5":
        raise MalformedMatrix(f"{path}: not a binary PGM (P5) file")
    # header tokens may be separated by whitespace and '#' comments
    tokens = []
    i = 2
    while len(tokens) < 3 and i < len(raw):
        c = raw[i : i + 1]
        if c == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j : j + 1].isspace():
                j += 1
            tokens.append(raw[i:j])
            i = j
    if len(tokens) < 3:
        raise MalformedMatrix(f"{path}: truncated PGM header")
    if not all(t.isdigit() for t in tokens):
        raise MalformedMatrix(f"{path}: PGM header {b' '.join(tokens)!r} is not three whole numbers")
    w, h, maxval = (int(t) for t in tokens)
    if maxval > 255:
        raise MalformedMatrix(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    i += 1  # single whitespace after maxval
    pixels = np.frombuffer(raw[i : i + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise MalformedMatrix(f"{path}: truncated pixel data")
    return pixels.reshape(h, w).astype(np.float64)


def write_pgm(path, image):
    image = np.asarray(image)
    clipped = np.clip(np.round(image), 0, 255).astype(np.uint8)
    h, w = clipped.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(clipped.tobytes())


def _sidecar_path(path):
    path = Path(path)
    return path.with_suffix(path.suffix + ".json")


def write_sidecar(path, obj):
    """Write obj as the JSON sidecar of the matrix file at path: <path>.json."""
    _sidecar_path(path).write_text(json.dumps(obj, indent=2))


def read_sidecar(path, required):
    """The JSON sidecar of a matrix file; MalformedMatrix names a sidecar that
    is not a JSON object or lacks a key, and a missing one raises MissingPath."""
    sidecar_path = _sidecar_path(path)
    if not sidecar_path.exists():
        raise MissingPath(str(sidecar_path))
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise MalformedMatrix(f"{sidecar_path}: sidecar is not valid JSON ({exc})") from None
    if not isinstance(sidecar, dict):
        raise MalformedMatrix(f"{sidecar_path}: sidecar is not a JSON object")
    for key in required:
        if key not in sidecar:
            raise MalformedMatrix(f"{sidecar_path}: sidecar lacks key {key!r}")
    return sidecar


def check_labels_saveable(labels):
    """BadLabel unless every label is a string, the only type a sidecar keeps
    and a report can key by without merging two labels."""
    bad = [lab for lab in labels if not isinstance(lab, str)]
    if bad:
        raise BadLabel(f"non-string label {bad[0]!r}; labels must be strings")


def save_dictionary(dictionary, path):
    """Write a dictionary as matrix file + JSON sidecar (labels, fingerprint).

    Labels must be strings (else BadLabel, before any file is written).
    """
    check_labels_saveable(dictionary.labels)
    write_matrix(path, dictionary.data)
    write_sidecar(path, {"labels": list(dictionary.labels), "fingerprint": dictionary.fingerprint})


def load_dictionary(path):
    """Read a dictionary saved by save_dictionary and check it is one.

    The columns must have unit norm and the labels must be strings, one per
    column, each class one run of columns (else MalformedMatrix). The class
    ranges are derived from the labels, so the "class_ranges" key of older
    sidecars is ignored. The fingerprint recomputed from the loaded data and
    labels must equal the stored one (else FingerprintMismatch).
    """
    path = Path(path)
    data = read_matrix(path)
    sidecar = read_sidecar(path, ("labels", "fingerprint"))
    norms = np.linalg.norm(data, axis=0)
    if not np.all(np.abs(norms - 1.0) <= _UNIT_NORM_TOL):
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise MalformedMatrix(f"{path}: column {bad} has norm {norms[bad]!r}, not 1")
    labels = sidecar["labels"]
    if not (isinstance(labels, list) and all(isinstance(lab, str) for lab in labels)):
        raise MalformedMatrix(f"{path}: labels are not a list of strings")
    try:
        dictionary = Dictionary(data=data, labels=tuple(labels))
    except MalformedMatrix as exc:
        raise MalformedMatrix(f"{path}: {exc}") from None
    if dictionary.fingerprint != sidecar["fingerprint"]:
        raise FingerprintMismatch(
            f"{path}: stored fingerprint differs from the loaded data and labels"
        )
    return dictionary


def save_projector(projector, path):
    write_matrix(path, projector.matrix)
    write_sidecar(path, {
        "lambda": projector.lam,
        "dictionary_fingerprint": projector.dictionary_fingerprint,
    })


def load_projector(path):
    """Read a projector saved by save_projector, in the Fortran order that
    build_projector gives it (a block decide's product is faster on it).
    MalformedMatrix names a matrix with a NaN or infinite entry and a sidecar
    lambda that is not a finite number > 0."""
    path = Path(path)
    matrix = read_matrix(path, order="F")
    sidecar = read_sidecar(path, ("lambda", "dictionary_fingerprint"))
    if not np.isfinite(matrix).all():
        raise MalformedMatrix(f"{path}: projector has a NaN or infinite entry")
    lam = sidecar["lambda"]
    if not (is_number(lam) and 0.0 < lam < np.inf):
        raise MalformedMatrix(f"{path}: sidecar 'lambda' {lam!r} is not finite and positive")
    return Projector(
        matrix=matrix,
        lam=float(lam),
        dictionary_fingerprint=sidecar["dictionary_fingerprint"],
    )

