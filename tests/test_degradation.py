import json

import numpy as np
import pytest

from repclass.degradation import (
    DegradationSpec,
    apply_spec,
    corrupt_pixels,
    derive_seed,
    occlude_block,
)
from repclass.errors import BadFraction, ConfigInvalid, EmptyImage, OccluderTooSmall
from repclass.harness import ExperimentConfig


def test_corrupt_pixels_count_and_range():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 255, size=(24, 21))
    for frac in (0.0, 0.1, 0.37, 1.0):
        out = corrupt_pixels(img, frac, seed=5, low=300.0, high=400.0)
        changed = out != img
        assert changed.sum() == int(round(frac * img.size))
        # replacement values obey the configured range (300+ is distinguishable
        # from every original pixel here)
        assert np.all(out[changed] >= 300.0) and np.all(out[changed] <= 400.0)
        np.testing.assert_array_equal(out[~changed], img[~changed])


def test_corrupt_pixels_deterministic_and_seed_sensitive():
    img = np.zeros((10, 10))
    a = corrupt_pixels(img, 0.3, seed=42)
    b = corrupt_pixels(img, 0.3, seed=42)
    c = corrupt_pixels(img, 0.3, seed=43)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_corrupt_pixels_validation():
    with pytest.raises(BadFraction):
        corrupt_pixels(np.zeros((4, 4)), 1.2, seed=0)
    with pytest.raises(EmptyImage):
        corrupt_pixels(np.zeros((0, 4)), 0.5, seed=0)
    with pytest.raises(EmptyImage):
        corrupt_pixels(np.zeros(16), 0.5, seed=0)


def test_occlude_block_empty_or_flat_image_is_empty_image():
    occluder = np.ones((8, 8))
    for image in (np.zeros((0, 4)), np.zeros(16)):
        with pytest.raises(EmptyImage):
            occlude_block(image, 0.25, occluder, seed=0)


def test_occlude_block_geometry():
    img = np.zeros((20, 30))
    occ = np.full((20, 30), 9.0)
    out, mask = occlude_block(img, 0.25, occ, seed=7)
    s = int(np.floor(np.sqrt(0.25 * img.size)))
    assert mask.sum() == s * s
    # the mask is one solid square
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    assert len(rows) == s and len(cols) == s
    assert np.all(mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1])
    np.testing.assert_array_equal(out[mask], 9.0)
    np.testing.assert_array_equal(out[~mask], 0.0)


def test_occlude_block_zero_fraction_is_identity():
    img = np.arange(12.0).reshape(3, 4)
    out, mask = occlude_block(img, 0.0, np.zeros((3, 4)), seed=0)
    np.testing.assert_array_equal(out, img)
    assert not mask.any()


def test_occlude_block_occluder_too_small():
    img = np.zeros((20, 20))
    with pytest.raises(OccluderTooSmall):
        occlude_block(img, 0.5, np.zeros((5, 5)), seed=0)


def test_occlude_block_fraction_one_rejected():
    with pytest.raises(BadFraction):
        occlude_block(np.zeros((4, 4)), 1.0, np.zeros((4, 4)), seed=0)


def test_derive_seed_order_independent():
    seeds = [derive_seed(123, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert derive_seed(123, 7) == derive_seed(123, 7)
    assert derive_seed(123, 7) != derive_seed(124, 7)


def test_apply_spec_corruption_uses_derived_seed():
    img = np.zeros((8, 8))
    spec = DegradationSpec("pixel_corruption", 0.2, seed=99, low=1.0, high=2.0)
    a = apply_spec(img, spec, index=3)
    b = corrupt_pixels(img, 0.2, derive_seed(99, 3), low=1.0, high=2.0)
    np.testing.assert_array_equal(a, b)
    # different index, different pattern
    c = apply_spec(img, spec, index=4)
    assert not np.array_equal(a, c)


def test_apply_spec_occlusion_draws_its_occluder():
    img = np.random.default_rng(2).uniform(0, 255, size=(12, 10))
    spec = DegradationSpec("block_occlusion", 0.3, seed=1, low=300.0, high=400.0)
    # the occluder is uniform on [low, high] at the image's shape, drawn with
    # the derived seed of index 2**32 + index
    rng = np.random.Generator(np.random.PCG64(derive_seed(1, 2**32 + 5)))
    occluder = rng.uniform(300.0, 400.0, size=img.shape)
    want, mask = occlude_block(img, 0.3, occluder, derive_seed(1, 5))
    out = apply_spec(img, spec, index=5)
    np.testing.assert_array_equal(out, want)
    assert mask.sum() == 36 and np.all(out[mask] >= 300.0)


def test_spec_json_roundtrip():
    spec = DegradationSpec("block_occlusion", 0.4, seed=17, low=-1.0, high=1.0)
    # a spec is written and read as the config's degradation section
    text = json.dumps(ExperimentConfig(degradation=spec).to_json())
    assert ExperimentConfig.from_json(json.loads(text)).degradation == spec
    with pytest.raises(ConfigInvalid):
        DegradationSpec("saltpepper", 0.4, seed=0)
    with pytest.raises(BadFraction):
        DegradationSpec("pixel_corruption", -0.1, seed=0)


def test_whole_image_block_occlusion_refused_when_the_config_is_read():
    # occlude_block needs a fraction below 1; a config of 1.0 used to be
    # accepted and raise only at the first query, after the PCA fit
    obj = {"degradation": {"kind": "block_occlusion", "fraction": 1.0, "seed": 1}}
    with pytest.raises(BadFraction, match=r"\[0, 1\)"):
        ExperimentConfig.from_json(obj)
    obj["degradation"]["kind"] = "pixel_corruption"
    assert ExperimentConfig.from_json(obj).degradation.fraction == 1.0
