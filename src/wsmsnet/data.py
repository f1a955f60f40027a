"""Dataset ingestion, normalization, augmentation, and the synthetic scale benchmark.

Images travel as float32 arrays in NCHW layout. The binary codec matches the
classic packed format: one label byte (two for the 100-class variant) followed
by 32*32 red, green, then blue planes, row-major.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .specs import ConfigError

log = logging.getLogger(__name__)

IMAGE_SIZE = 32
PLANE = IMAGE_SIZE * IMAGE_SIZE
RECORD_BYTES = {"cifar10": 1 + 3 * PLANE, "cifar100": 2 + 3 * PLANE}
LABEL_RANGE = {"cifar10": 10, "cifar100": 100}


class DataFormatError(ValueError):
    """Raised when a dataset file does not match the expected binary layout."""


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


def encode_cifar(images: np.ndarray, labels: np.ndarray, variant: str = "cifar10",
                 coarse: Optional[np.ndarray] = None) -> bytes:
    """Pack uint8 images and labels back into the binary record layout."""
    _check_variant(variant)
    if images.dtype != np.uint8:
        raise ValueError(f"encode_cifar expects uint8 images, got {images.dtype}")
    n = len(labels)
    record = RECORD_BYTES[variant]
    out = np.empty((n, record), dtype=np.uint8)
    if variant == "cifar100":
        out[:, 0] = np.zeros(n, dtype=np.uint8) if coarse is None else coarse
        out[:, 1] = labels
        out[:, 2:] = images.reshape(n, -1)
    else:
        out[:, 0] = labels
        out[:, 1:] = images.reshape(n, -1)
    return out.tobytes()


def load_cifar(path, variant: str = "cifar10") -> Dataset:
    """Load one binary batch file (or every standard batch in a directory).

    Pixels are scaled to [0, 1]; ids number the examples in file order.
    """
    path = Path(path)
    if path.is_dir():
        names = sorted(p.name for p in path.glob("*.bin"))
        if not names:
            raise DataFormatError(f"no .bin files under {path}")
        buf = b"".join((path / name).read_bytes() for name in names)
    else:
        buf = path.read_bytes()
    images, labels = decode_cifar(buf, variant)
    return Dataset(images.astype(np.float32) / 255.0, labels,
                   np.arange(len(labels), dtype=np.int64), LABEL_RANGE[variant])


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
    images = (ds.images - mean[None, :, None, None]) / std[None, :, None, None]
    return replace(ds, images=images.astype(np.float32))


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

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _same_kind(value, f.default):
                raise TypeError(f"{f.name} must be like {f.default!r}, got {value!r}")
        if not 2 <= self.class_count <= len(GLYPHS):
            raise ValueError(f"class_count must be in [2, {len(GLYPHS)}], "
                             f"got {self.class_count}")
        if self.image_size < 8:
            raise ValueError(f"image_size must be >= 8, got {self.image_size}")
        for name, (lo, hi) in (("train_scales", self.train_scales),
                               ("test_scales", self.test_scales)):
            if not (0 < lo <= hi <= 1):
                raise ValueError(f"{name} must satisfy 0 < lo <= hi <= 1, got ({lo}, {hi})")
        t0, t1 = sorted([self.train_scales, self.test_scales])
        if t0[1] >= t1[0]:
            raise ValueError("train and test scale ranges must be disjoint")
        r_max = self.image_size / 2.0 - 2.0
        smallest = min(self.train_scales[0], self.test_scales[0])
        if 2.0 * smallest * r_max < 2.0:  # glyph under 2 pixels is unresolvable
            raise ValueError(f"scale {smallest} renders a glyph under 2 pixels "
                             f"at image_size {self.image_size}")
        if self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, cfg: dict) -> "SynthScaleConfig":
        """Build and validate a config from its JSON form, where the scale
        ranges are lists. Any bad key, type or value raises ConfigError."""
        try:
            config = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()})
            config.validate()
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad synth data section: {err}") from err
        return config


def _same_kind(value, default) -> bool:
    """Whether ``value`` fits a field whose default is ``default``: an integer
    for an integer, any number for a float, a pair of numbers for a pair."""
    if isinstance(default, tuple):
        return (isinstance(value, tuple) and len(value) == 2
                and all(_same_kind(v, 0.0) for v in value))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or not isinstance(default, int)


def _glyph_mask(glyph: str, dx: np.ndarray, dy: np.ndarray, r: float) -> np.ndarray:
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


def render_glyph(glyph: str, size: int, scale: float, cx: float, cy: float,
                 brightness: float, supersample: int = 3) -> np.ndarray:
    """Anti-aliased (H,W) coverage map in [0, brightness]."""
    r = scale * (size / 2.0 - 2.0)
    if 2.0 * r < 2.0:
        raise ValueError(f"scale {scale} renders a glyph under 2 pixels wide")
    ss = supersample
    coords = (np.arange(size * ss) + 0.5) / ss
    ys = coords[:, None] - cy
    xs = coords[None, :] - cx
    mask = _glyph_mask(glyph, np.broadcast_to(xs, (size * ss, size * ss)),
                       np.broadcast_to(ys, (size * ss, size * ss)), r)
    coverage = mask.reshape(size, ss, size, ss).mean(axis=(1, 3))
    return (coverage * brightness).astype(np.float32)


def _render_split(cfg: SynthScaleConfig, scales: Tuple[float, float],
                  per_class: int, rng: np.random.Generator) -> Dataset:
    size = cfg.image_size
    n = per_class * cfg.class_count
    images = np.empty((n, 3, size, size), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    idx = 0
    for label in range(cfg.class_count):
        for _ in range(per_class):
            s = float(rng.uniform(scales[0], scales[1]))
            r = s * (size / 2.0 - 2.0)
            margin = r + 1.0
            cx = float(rng.uniform(margin, size - margin))
            cy = float(rng.uniform(margin, size - margin))
            brightness = float(rng.uniform(0.75, 1.0))
            plane = render_glyph(GLYPHS[label], size, s, cx, cy, brightness)
            noise = rng.normal(0.0, cfg.noise, size=(3, size, size))
            images[idx] = np.clip(plane[None, :, :] + noise, 0.0, 1.0)
            labels[idx] = label
            idx += 1
    order = rng.permutation(n)
    return Dataset(np.ascontiguousarray(images[order]), labels[order],
                   np.arange(n, dtype=np.int64), cfg.class_count)


def synth_scale_dataset(cfg: SynthScaleConfig) -> Tuple[Dataset, Dataset, Dataset]:
    """Deterministically generate (train, test_seen, test_held_out) splits.

    The train split and test_seen draw scales from ``train_scales``; the
    held-out split draws from the disjoint ``test_scales`` range.
    """
    cfg.validate()
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


def load_synth(data_dir) -> Tuple[SynthScaleConfig, dict]:
    """Load a persisted benchmark directory. Returns (config, split datasets)."""
    data_dir = Path(data_dir)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    cfg = SynthScaleConfig.from_dict(manifest["config"])
    splits = {}
    for split, info in manifest["splits"].items():
        ds = load_cifar(data_dir / info["file"], "cifar10")
        splits[split] = replace(ds, class_count=cfg.class_count)
    return cfg, splits
