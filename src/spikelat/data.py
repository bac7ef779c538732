"""Datasets: IDX file IO, synthetic image generators, corruptions, batching.

Images are float64 arrays shaped (N, C, H, W) with values in [0, 1]; labels
are int64 class indices. The IDX reader and writer speak the classic
big-endian ubyte format (magic 0x00000803 for image stacks, 0x00000801 for
label vectors) so externally produced files drop in directly.

Two generator families cover desk-scale experiments: ``synth_blobs`` puts a
bright Gaussian bump at a class-specific position around a circle, and
``synth_digits`` renders ten fixed glyphs with one-pixel jitter and pixel
noise. Both are fully determined by their seed.

``corrupt`` applies one of five image corruptions at severities 0
(identity) through 5, each severity with one fixed strength, for
robustness sweeps.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError

_IMAGES_MAGIC = 0x00000803
_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    images: np.ndarray    # (N, C, H, W) float64 in [0, 1]
    labels: np.ndarray    # (N,) int64
    classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ContractError(f"images must be (N,C,H,W), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ContractError("one label per image required")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.classes):
            raise ContractError(f"labels must lie in [0, {self.classes})")

    def __len__(self):
        return self.images.shape[0]


MAX_SYNTH_COUNT = 1_000_000   # images in one synthetic split: 2 GB of 16x16 float64 digits


def seeded_rng(what, seed, count=0, **values):
    """numpy's generator for ``seed``, once it and every other value are >= 0
    and ``count``, the images a generator will draw, is at most
    ``MAX_SYNTH_COUNT``: checked before anything is allocated."""
    for name, value in {what: seed, "count": count, **values}.items():
        if value < 0:
            raise ContractError(f"{name} must be >= 0, got {value}")
    if count > MAX_SYNTH_COUNT:
        raise ContractError(f"count must be <= {MAX_SYNTH_COUNT}, got {count}")
    return np.random.default_rng(seed)


# -- IDX files ---------------------------------------------------------------


def _read_header(buf, path, expect_magic, expect_ndim):
    if len(buf) < 4:
        raise FormatError(f"{path}: file too short for a magic number", offset=0)
    (magic,) = struct.unpack(">I", buf[:4])
    if magic != expect_magic:
        raise FormatError(
            f"{path}: bad magic 0x{magic:08x}, expected 0x{expect_magic:08x}",
            offset=0,
        )
    header = 4 + 4 * expect_ndim
    if len(buf) < header:
        raise FormatError(f"{path}: truncated dimension header", offset=len(buf))
    dims = struct.unpack(f">{expect_ndim}I", buf[4:header])
    return dims, header


def load_idx(images_path, labels_path) -> Dataset:
    """Read an image stack and its label vector, scaling pixels to [0, 1]."""
    with open(images_path, "rb") as f:
        buf = f.read()
    (n, h, w), header = _read_header(buf, str(images_path), _IMAGES_MAGIC, 3)
    if h * w > 2**24:   # else an empty stack could declare an impossible array
        raise FormatError(f"{images_path}: implausible image size {h}x{w}", offset=8)
    need = n * h * w
    if len(buf) - header != need:
        raise FormatError(
            f"{images_path}: expected {need} pixel bytes, found {len(buf) - header}",
            offset=len(buf) if len(buf) - header < need else header + need,
        )
    images = np.frombuffer(buf, dtype=np.uint8, offset=header).reshape(n, 1, h, w)
    images = images.astype(np.float64) / 255.0

    with open(labels_path, "rb") as f:
        lbuf = f.read()
    (ln,), lheader = _read_header(lbuf, str(labels_path), _LABELS_MAGIC, 1)
    if len(lbuf) - lheader != ln:
        raise FormatError(
            f"{labels_path}: expected {ln} label bytes, found {len(lbuf) - lheader}",
            offset=len(lbuf) if len(lbuf) - lheader < ln else lheader + ln,
        )
    if ln != n:
        raise FormatError(
            f"{labels_path}: {ln} labels for {n} images", offset=4
        )
    labels = np.frombuffer(lbuf, dtype=np.uint8, offset=lheader).astype(np.int64)
    classes = int(labels.max()) + 1 if ln else 0
    return Dataset(images, labels, classes)


def save_idx(ds: Dataset, images_path, labels_path):
    """Write a single-channel dataset as a ubyte IDX pair."""
    n, c, h, w = ds.images.shape
    if c != 1:
        raise ContractError(f"IDX stores single-channel images, have {c} channels")
    if len(ds.labels) and ds.labels.max() > 255:
        raise ContractError("IDX labels are bytes, class index exceeds 255")
    pixels = np.clip(np.round(ds.images * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", _IMAGES_MAGIC, n, h, w))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", _LABELS_MAGIC, n))
        f.write(ds.labels.astype(np.uint8).tobytes())


# -- synthetic sets ----------------------------------------------------------


def synth_blobs(n, classes, size=8, noise=0.10, jitter=0.5, label_noise=0.0,
                seed=0) -> Dataset:
    """Bright Gaussian bumps at class-specific spots around a circle.

    ``seed`` drives the sample draw only; the circle's phase (where the
    classes sit) is drawn from a fixed seed of 0, so train and eval splits
    made with different seeds still describe the same task. ``jitter`` smears
    each sample's bump position; ``label_noise`` reassigns that fraction of
    labels uniformly at random.
    """
    if classes < 2 or classes > 12:
        raise ContractError("synth_blobs supports 2..12 classes")
    if size < 1:
        raise ContractError(f"size must be >= 1, got {size}")
    if not 0.0 <= label_noise <= 1.0:
        raise ContractError(f"label_noise must be in [0, 1], got {label_noise}")
    rng = seeded_rng("seed", seed, count=n, noise=noise, jitter=jitter)
    phase = np.random.default_rng(0).uniform(0, 2 * np.pi)
    center = (size - 1) / 2.0
    radius = size * 0.28
    angles = phase + 2 * np.pi * np.arange(classes) / classes
    cy = center + radius * np.sin(angles)
    cx = center + radius * np.cos(angles)

    labels = rng.integers(0, classes, size=n)
    yy, xx = np.mgrid[0:size, 0:size]
    images = np.empty((n, 1, size, size))
    sigma = size * 0.14
    for i, k in enumerate(labels):
        by = cy[k] + rng.normal(scale=jitter)
        bx = cx[k] + rng.normal(scale=jitter)
        bump = np.exp(-((yy - by) ** 2 + (xx - bx) ** 2) / (2 * sigma**2))
        amp = rng.uniform(0.8, 1.0)
        images[i, 0] = amp * bump + rng.normal(scale=noise, size=(size, size))
    images = np.clip(images, 0.0, 1.0)

    if label_noise > 0.0:
        flip = rng.random(n) < label_noise
        labels[flip] = rng.integers(0, classes, size=int(flip.sum()))
    return Dataset(images, labels, classes)


_GLYPHS = [
    "01110 10001 10011 10101 11001 10001 01110",
    "00100 01100 00100 00100 00100 00100 01110",
    "01110 10001 00001 00010 00100 01000 11111",
    "11111 00010 00100 00010 00001 10001 01110",
    "00010 00110 01010 10010 11111 00010 00010",
    "11111 10000 11110 00001 00001 10001 01110",
    "00110 01000 10000 11110 10001 10001 01110",
    "11111 00001 00010 00100 01000 01000 01000",
    "01110 10001 10001 01110 10001 10001 01110",
    "01110 10001 10001 01111 00001 00010 01100",
]


def _glyph_bitmap(d):
    rows = _GLYPHS[d].split()
    return np.array([[float(ch) for ch in row] for row in rows])


def synth_digits(n, size=16, noise=0.08, seed=0) -> Dataset:
    """Ten fixed digit glyphs, upscaled, shifted by up to one pixel, noised."""
    if size < 16:
        raise ContractError("synth_digits needs size >= 16")
    rng = seeded_rng("seed", seed, count=n, noise=noise)
    labels = rng.integers(0, 10, size=n)
    stamps = [np.kron(_glyph_bitmap(d), np.ones((2, 2))) for d in range(10)]
    gh, gw = stamps[0].shape
    base_y = (size - gh) // 2
    base_x = (size - gw) // 2
    images = np.zeros((n, 1, size, size))
    for i, k in enumerate(labels):
        dy = int(rng.integers(-1, 2))
        dx = int(rng.integers(-1, 2))
        y, x = base_y + dy, base_x + dx
        amp = rng.uniform(0.85, 1.0)
        images[i, 0, y : y + gh, x : x + gw] = amp * stamps[k]
        images[i, 0] += rng.normal(scale=noise, size=(size, size))
    return Dataset(np.clip(images, 0.0, 1.0), labels, 10)


# -- corruptions -------------------------------------------------------------

CORRUPTIONS = ("gaussian", "shot", "brightness", "contrast", "pixelate")

def corrupt(images, kind, severity, seed=0):
    """Apply one corruption at the given severity; 0 returns a clean copy.

    Every kind has one fixed strength per severity s: gaussian noise of
    scale 0.05 s, shot noise at 60 / s photons, brightness +0.09 s,
    contrast times 1 - 0.15 s, and pixelate blocks of 2, 2, 4, 4, 8.
    """
    if kind not in CORRUPTIONS:
        raise ContractError(f"unknown corruption {kind!r}, expected {CORRUPTIONS}")
    if not 0 <= severity <= 5:
        raise ContractError(f"severity must be in 0..5, got {severity}")
    x = np.asarray(images, dtype=np.float64)
    if severity == 0:
        return x.copy()
    rng = seeded_rng("corruption seed", seed)

    if kind == "gaussian":
        out = x + rng.normal(scale=0.05 * severity, size=x.shape)
    elif kind == "shot":
        lam = 60.0 / severity
        out = rng.poisson(np.clip(x, 0, 1) * lam) / lam
    elif kind == "brightness":
        out = x + 0.09 * severity
    elif kind == "contrast":
        out = 0.5 + (x - 0.5) * (1.0 - 0.15 * severity)
    else:  # pixelate
        block = (2, 2, 4, 4, 8)[severity - 1]
        h, w = x.shape[-2:]
        if h % block or w % block:
            raise ContractError(f"pixelate block {block} does not divide {h}x{w}")
        shp = x.shape[:-2] + (h // block, block, w // block, block)
        coarse = x.reshape(shp).mean(axis=(-3, -1))
        out = np.repeat(np.repeat(coarse, block, axis=-2), block, axis=-1)
    return np.clip(out, 0.0, 1.0)


def batches(ds: Dataset, batch_size, seed=0, shuffle=True):
    """Yield (images, labels) minibatches; order fixed by the seed.

    The last batch holds the remainder when ``batch_size`` does not divide
    the dataset.
    """
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    n = len(ds)
    idx = np.arange(n)
    if shuffle:
        idx = seeded_rng("batch order seed", seed).permutation(n)
    for start in range(0, n, batch_size):
        sel = idx[start : start + batch_size]
        yield ds.images[sel], ds.labels[sel]
