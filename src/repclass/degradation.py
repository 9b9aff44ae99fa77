"""Seeded pixel-corruption and block-occlusion simulators.

All randomness goes through numpy's PCG64 generator, so outputs are
bit-identical across platforms for a fixed seed. Per-image seeds for batch
runs are derived with derive_seed so batch order does not matter.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dictionary import is_number
from .errors import BadFraction, ConfigInvalid, EmptyImage, OccluderTooSmall


@dataclass(frozen=True)
class DegradationSpec:
    """What to do to each query: corrupt or occlude `fraction` of its pixels,
    with replacement values drawn uniformly from [low, high]."""

    kind: str  # "pixel_corruption" or "block_occlusion"
    fraction: float
    seed: int
    low: float = 0.0
    high: float = 255.0

    def __post_init__(self):
        if self.kind not in ("pixel_corruption", "block_occlusion"):
            raise ConfigInvalid(f"unknown degradation kind {self.kind!r}")
        for name in ("fraction", "low", "high"):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value)):
                raise ConfigInvalid(f"degradation {name!r} must be a finite number, got {value!r}")
        if not (is_number(self.seed, numbers.Integral) and self.seed >= 0):
            raise ConfigInvalid(f"degradation 'seed' must be a whole number >= 0, got {self.seed!r}")
        if not (0.0 <= self.fraction <= 1.0):
            raise BadFraction(f"fraction must lie in [0, 1], got {self.fraction}")
        if self.kind == "block_occlusion" and self.fraction == 1.0:
            raise BadFraction("block_occlusion's fraction must lie in [0, 1), got 1.0")
        if self.low > self.high:
            raise ConfigInvalid(f"degradation 'low' {self.low} exceeds 'high' {self.high}")


def derive_seed(master_seed, index):
    """Stable per-item seed so batch degradation is order-independent."""
    return int(np.random.SeedSequence([int(master_seed), int(index)]).generate_state(1)[0])


def corrupt_pixels(image, fraction, seed, low=0.0, high=255.0):
    """Replace round(fraction * H * W) random pixels by uniform draws.

    Locations are chosen without replacement; untouched pixels are
    bit-identical to the input. Replacement values are kept as reals.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.size == 0:
        raise EmptyImage("image must be a nonempty 2-D array")
    if not (0.0 <= fraction <= 1.0):
        raise BadFraction(f"fraction must lie in [0, 1], got {fraction}")
    out = image.copy()
    count = int(round(fraction * image.size))
    if count == 0:
        return out
    rng = np.random.Generator(np.random.PCG64(seed))
    flat_idx = rng.choice(image.size, size=count, replace=False)
    out.flat[flat_idx] = rng.uniform(low, high, size=count)
    return out


def occlude_block(image, fraction, occluder, seed):
    """Replace a randomly placed square block by a crop of the occluder.

    Block side is floor(sqrt(fraction * H * W)); the top-left corner is
    uniform over valid positions. Returns (occluded image, boolean mask of
    replaced pixels).
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.size == 0:
        raise EmptyImage("image must be a nonempty 2-D array")
    if not (0.0 <= fraction < 1.0):
        raise BadFraction(f"fraction must lie in [0, 1), got {fraction}")
    H, W = image.shape
    out = image.copy()
    mask = np.zeros((H, W), dtype=bool)
    s = int(np.floor(np.sqrt(fraction * H * W)))
    if s == 0:
        return out, mask
    s = min(s, H, W)
    occluder = np.asarray(occluder, dtype=np.float64)
    if occluder.ndim != 2 or occluder.shape[0] < s or occluder.shape[1] < s:
        raise OccluderTooSmall(
            f"occluder must be at least {s}x{s}, got {occluder.shape}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    r0 = int(rng.integers(0, H - s + 1))
    c0 = int(rng.integers(0, W - s + 1))
    out[r0 : r0 + s, c0 : c0 + s] = occluder[:s, :s]
    mask[r0 : r0 + s, c0 : c0 + s] = True
    return out, mask


def apply_spec(image, spec, index=0):
    """Apply a DegradationSpec to one image, with a per-index derived seed.

    Block occlusion pastes a crop of an occluder of the image's shape, drawn
    uniformly from [low, high] with the derived seed of index 2**32 + index.
    """
    seed = derive_seed(spec.seed, index)
    if spec.kind == "pixel_corruption":
        return corrupt_pixels(image, spec.fraction, seed, low=spec.low, high=spec.high)
    rng = np.random.Generator(np.random.PCG64(derive_seed(spec.seed, 2**32 + index)))
    occluder = rng.uniform(spec.low, spec.high, size=np.shape(image))
    out, _ = occlude_block(image, spec.fraction, occluder, seed)
    return out
