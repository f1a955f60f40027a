"""Dataset ingestion, normalization, augmentation, and the synthetic scale benchmark.

Images travel as float32 arrays in NCHW layout. The binary codec matches the
classic packed format: one label byte (two for the 100-class variant) followed
by 32*32 red, green, then blue planes, row-major.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Tuple

import numpy as np

from .specs import ConfigError, read_config

log = logging.getLogger(__name__)

IMAGE_SIZE = 32
PLANE = IMAGE_SIZE * IMAGE_SIZE
RECORD_BYTES = {"cifar10": 1 + 3 * PLANE, "cifar100": 2 + 3 * PLANE}
LABEL_RANGE = {"cifar10": 10, "cifar100": 100}


class DataFormatError(ValueError):
    """Raised when a dataset, checkpoint or prediction file breaks its layout."""


@dataclass
class Dataset:
    """Images (N,3,H,W) float32, integer labels, and stable per-example ids."""
    images: np.ndarray
    labels: np.ndarray
    ids: np.ndarray
    class_count: int

    def __len__(self) -> int:
        return len(self.labels)


def _check_variant(variant: str) -> None:
    if variant not in RECORD_BYTES:
        raise ValueError(f"unknown variant {variant!r}; expected one of "
                         f"{sorted(RECORD_BYTES)}")


def decode_cifar(buf: bytes, variant: str = "cifar10") -> Tuple[np.ndarray, np.ndarray]:
    """Unpack raw records into (uint8 images (N,3,32,32), labels)."""
    _check_variant(variant)
    record = RECORD_BYTES[variant]
    if len(buf) == 0 or len(buf) % record:
        raise DataFormatError(
            f"{variant} stream of {len(buf)} bytes is not a multiple of the "
            f"{record}-byte record size")
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(-1, record)
    offset = record - 3 * PLANE
    labels = arr[:, offset - 1].astype(np.int64)  # fine label for the 100-class variant
    if labels.max(initial=0) >= LABEL_RANGE[variant]:
        raise DataFormatError(
            f"label {labels.max()} out of range for {variant} "
            f"(must be < {LABEL_RANGE[variant]})")
    images = arr[:, offset:].reshape(-1, 3, IMAGE_SIZE, IMAGE_SIZE)
    return np.ascontiguousarray(images), labels


def encode_cifar(images: np.ndarray, labels: np.ndarray, variant: str = "cifar10") -> bytes:
    """Pack uint8 images and labels back into the binary record layout."""
    _check_variant(variant)
    if images.dtype != np.uint8:
        raise ValueError(f"encode_cifar expects uint8 images, got {images.dtype}")
    n = len(labels)
    record = RECORD_BYTES[variant]
    out = np.empty((n, record), dtype=np.uint8)
    if variant == "cifar100":
        out[:, 0] = 0  # superclass label
        out[:, 1] = labels
        out[:, 2:] = images.reshape(n, -1)
    else:
        out[:, 0] = labels
        out[:, 1:] = images.reshape(n, -1)
    return out.tobytes()


def load_cifar(path, variant: str = "cifar10") -> Dataset:
    """Load one binary batch file.

    Pixels are scaled to [0, 1]; ids number the examples in file order. The
    division casts each byte as it goes, with no float32 copy of the images
    before it, and gives ``images.astype(np.float32) / 255`` bit for bit.
    """
    images, labels = decode_cifar(Path(path).read_bytes(), variant)
    return Dataset(np.divide(images, np.float32(255.0), dtype=np.float32), labels,
                   np.arange(len(labels), dtype=np.int64), LABEL_RANGE[variant])


@dataclass(frozen=True)
class CifarLimits:
    """A CIFAR data section's settings: how many leading examples of the
    training and test splits to keep; 0 keeps a whole split."""
    train_limit: int = 0
    test_limit: int = 0

    def __post_init__(self) -> None:
        for name, limit in asdict(self).items():
            if limit < 0:
                raise ConfigError(f"{name} must be >= 0, got {limit}")


def channel_stats(images: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std over a whole split; zero stds become 1."""
    mean = images.mean(axis=(0, 2, 3))
    std = images.std(axis=(0, 2, 3))
    flat = std == 0
    if flat.any():
        log.warning("channels %s have zero variance; std clamped to 1",
                    np.flatnonzero(flat).tolist())
        std = np.where(flat, 1.0, std)
    return mean.astype(np.float32), std.astype(np.float32)


def apply_channel_stats(ds: Dataset, mean: np.ndarray, std: np.ndarray) -> Dataset:
    """A copy of ``ds`` with float32 images ``(x - mean) / std`` per channel."""
    images = ds.images - mean[None, :, None, None]
    images /= std[None, :, None, None]
    return replace(ds, images=images.astype(np.float32, copy=False))


def normalize_per_channel(train: Dataset, *others: Dataset):
    """Normalize every split with statistics computed on the training split.

    Returns (normalized train, [normalized others...], mean, std).
    """
    mean, std = channel_stats(train.images)
    normed = [apply_channel_stats(ds, mean, std) for ds in (train, *others)]
    return normed[0], normed[1:], mean, std


def augment(image: np.ndarray, rng: np.random.Generator, pad: int = 4) -> np.ndarray:
    """Zero-pad, random-crop back to size, and flip horizontally with p=0.5.

    Operates on one normalized (C,H,W) image. Draw order is fixed: crop row,
    crop column, flip coin; a generator forcing the centre crop and a flip
    value >= 0.5 reproduces the input exactly.
    """
    c, h, w = image.shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=image.dtype)
    padded[:, pad:pad + h, pad:pad + w] = image
    i = int(rng.integers(0, 2 * pad + 1))
    j = int(rng.integers(0, 2 * pad + 1))
    out = padded[:, i:i + h, j:j + w]
    if rng.random() < 0.5:
        out = out[:, :, ::-1]
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# Synthetic scale benchmark: five glyph classes rendered at controlled scales.

GLYPHS = ("disc", "cross", "ring", "bars", "triangle")


@dataclass(frozen=True)
class SynthScaleConfig:
    class_count: int = 5
    image_size: int = 32
    train_scales: Tuple[float, float] = (0.6, 1.0)
    test_scales: Tuple[float, float] = (0.3, 0.5)
    train_per_class: int = 400
    test_per_class: int = 100
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.class_count <= len(GLYPHS):
            raise ConfigError(f"class_count must be in [2, {len(GLYPHS)}], "
                              f"got {self.class_count}")
        if self.image_size < 8:
            raise ConfigError(f"image_size must be >= 8, got {self.image_size}")
        for name, (lo, hi) in (("train_scales", self.train_scales),
                               ("test_scales", self.test_scales)):
            if not (0 < lo <= hi <= 1):
                raise ConfigError(f"{name} must satisfy 0 < lo <= hi <= 1, got ({lo}, {hi})")
        t0, t1 = sorted([self.train_scales, self.test_scales])
        if t0[1] >= t1[0]:
            raise ConfigError("train and test scale ranges must be disjoint")
        r_max = self.image_size / 2.0 - 2.0
        smallest = min(self.train_scales[0], self.test_scales[0])
        if 2.0 * smallest * r_max < 2.0:  # glyph under 2 pixels is unresolvable
            raise ConfigError(f"scale {smallest} renders a glyph under 2 pixels "
                              f"at image_size {self.image_size}")
        for name in ("train_per_class", "test_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.noise < 0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, cfg: dict) -> "SynthScaleConfig":
        """Read a config's JSON form; any fault raises ConfigError."""
        return read_config(cls, cfg, "synth")


def _glyph_mask(glyph: str, dx: np.ndarray, dy: np.ndarray, r: np.ndarray) -> np.ndarray:
    if glyph == "disc":
        return dx * dx + dy * dy <= r * r
    if glyph == "ring":
        d2 = dx * dx + dy * dy
        return (d2 <= r * r) & (d2 >= (0.55 * r) ** 2)
    if glyph == "cross":
        arm = 0.3 * r
        return ((np.abs(dx) <= arm) & (np.abs(dy) <= r)) | \
               ((np.abs(dy) <= arm) & (np.abs(dx) <= r))
    if glyph == "bars":
        half_gap, half_bar = 0.5 * r, 0.22 * r
        return ((np.abs(dx - half_gap) <= half_bar) | (np.abs(dx + half_gap) <= half_bar)) \
            & (np.abs(dy) <= r)
    if glyph == "triangle":
        # downward-pointing edge at the bottom, apex on top
        top, base = -r, 0.8 * r
        inside_y = (dy >= top) & (dy <= base)
        frac = np.clip((dy - top) / (base - top), 0.0, 1.0)
        return inside_y & (np.abs(dx) <= frac * 0.95 * r)
    raise ValueError(f"unknown glyph {glyph!r}")


def render_glyph(glyph: str, size: int, scale, cx, cy, brightness,
                 supersample: int = 3) -> np.ndarray:
    """Anti-aliased coverage maps in [0, brightness], float32.

    ``scale``, ``cx``, ``cy`` and ``brightness`` are scalars, giving one (H,W)
    map, or arrays of one shape S, giving S + (H,W) maps. Element i of an
    array call equals the scalar call with element i, bit for bit.
    """
    scale, cx, cy, brightness = (np.asarray(v, dtype=np.float64)[..., None, None]
                                 for v in (scale, cx, cy, brightness))
    r = scale * (size / 2.0 - 2.0)
    if (2.0 * r < 2.0).any():
        raise ValueError(f"scale {scale.min()} renders a glyph under 2 pixels wide")
    ss = supersample
    coords = (np.arange(size * ss) + 0.5) / ss
    mask = _glyph_mask(glyph, coords - cx, coords[:, None] - cy, r)
    # Hits per pixel as small integers; dividing by ss*ss is the float mean.
    hits = mask.reshape(*mask.shape[:-2], size, ss, size, ss)
    counts = np.zeros(hits.shape[:-4] + (size, size), dtype=np.uint8)
    for i in range(ss):
        for j in range(ss):
            counts += hits[..., i, :, j]
    return (counts / (ss * ss) * brightness).astype(np.float32)


RENDER_CHUNK = 64  # examples drawn, rendered and stored per call


def _permute_in_place(a: np.ndarray, order) -> None:
    """Set ``a[:] = a[order]`` by walking the cycles of ``order``, one row held."""
    done = np.zeros(len(order), dtype=bool)
    for start in range(len(order)):
        if done[start]:
            continue
        held = a[start].copy()
        k = start
        while order[k] != start:
            a[k] = a[order[k]]
            done[k] = True
            k = order[k]
        a[k] = held
        done[k] = True


def _render_split(cfg: SynthScaleConfig, scales: Tuple[float, float],
                  per_class: int, rng: np.random.Generator) -> Dataset:
    """Render ``per_class`` examples of each class, then shuffle them.

    Each example draws its scale, centre x, centre y and brightness, then its
    (3,H,W) noise, in that order, exactly as one example at a time would; the
    examples of a class are then rendered and stored a chunk at a time.
    """
    size = cfg.image_size
    n = per_class * cfg.class_count
    images = np.empty((n, 3, size, size), dtype=np.float32)
    params = np.empty((4, RENDER_CHUNK))  # scale, cx, cy, brightness
    noise = np.empty((RENDER_CHUNK, 3, size, size))
    idx = 0
    for label in range(cfg.class_count):
        for first in range(0, per_class, RENDER_CHUNK):
            m = min(RENDER_CHUNK, per_class - first)
            for i in range(m):
                s = rng.uniform(scales[0], scales[1])
                margin = s * (size / 2.0 - 2.0) + 1.0
                params[:, i] = (s, rng.uniform(margin, size - margin),
                                rng.uniform(margin, size - margin), rng.uniform(0.75, 1.0))
                rng.standard_normal(out=noise[i])
            planes = render_glyph(GLYPHS[label], size, *params[:, :m])
            chunk = noise[:m]
            chunk *= cfg.noise
            chunk += planes[:, None]
            np.clip(chunk, 0.0, 1.0, out=chunk)
            images[idx:idx + m] = chunk
            idx += m
    order = rng.permutation(n)
    _permute_in_place(images, order.tolist())
    labels = np.repeat(np.arange(cfg.class_count, dtype=np.int64), per_class)[order]
    return Dataset(images, labels, np.arange(n, dtype=np.int64), cfg.class_count)


def synth_scale_dataset(cfg: SynthScaleConfig) -> Tuple[Dataset, Dataset, Dataset]:
    """Deterministically generate (train, test_seen, test_held_out) splits.

    The train split and test_seen draw scales from ``train_scales``; the
    held-out split draws from the disjoint ``test_scales`` range.
    """
    rng = np.random.default_rng(cfg.seed)
    train = _render_split(cfg, cfg.train_scales, cfg.train_per_class, rng)
    test_seen = _render_split(cfg, cfg.train_scales, cfg.test_per_class, rng)
    test_held = _render_split(cfg, cfg.test_scales, cfg.test_per_class, rng)
    return train, test_seen, test_held


SPLIT_FILES = {"train": "train.bin", "test_seen": "test_seen.bin",
               "test_held_out": "test_held_out.bin"}


def save_synth(out_dir, cfg: SynthScaleConfig) -> dict:
    """Render the benchmark and persist it in the binary record layout.

    Pixels are quantized to uint8. Returns the manifest dict, which is also
    written to manifest.json next to the split files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = dict(zip(SPLIT_FILES, synth_scale_dataset(cfg)))
    manifest = {"config": asdict(cfg), "splits": {}}
    for split, ds in splits.items():
        pixels = np.clip(np.rint(ds.images * 255.0), 0, 255).astype(np.uint8)
        buf = encode_cifar(pixels, ds.labels, "cifar10")
        path = out_dir / SPLIT_FILES[split]
        path.write_bytes(buf)
        manifest["splits"][split] = {
            "file": SPLIT_FILES[split], "examples": len(ds),
            "sha256": hashlib.sha256(buf).hexdigest()}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest
