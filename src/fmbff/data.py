"""Synthetic dataset generation, augmentation, splits, and PGM/PPM file I/O.

Native formats are binary PPM (P6, maxval 255) for images and binary PGM
(P5, maxval 255) for masks; both are dependency-free to parse and allow
bit-exact golden files.  Directory convention, which ``write_dataset`` writes
(returning these paths) and ``load_dataset`` reads:

    <root>/images/<id>.ppm
    <root>/masks/<id>_mask.pgm
    <root>/manifest.txt          (newline-delimited ids)
"""

from __future__ import annotations

import io
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParseError, ValidationError

ROTATION_STEP = 30
BRIGHTNESS_FACTORS = (1.0, 0.8, 1.2)
TRAIN_FRACTION = 0.8  # share of the ids that `split` puts in the training set
NOISE_PASSES = 3  # box-blur passes that smooth the synthetic background
FOLD_SEED = 0  # seeds the shuffle behind `kfold`, so folds are fixed


@dataclass
class Sample:
    image: np.ndarray  # 3 x H x W, float32 in [0, 1]
    mask: np.ndarray  # 1 x H x W, float32 in {0, 1}
    id: str

    def validate(self):
        if self.image.shape[1:] != self.mask.shape[1:]:
            raise ValidationError(
                f"sample {self.id!r}: image {self.image.shape} and mask "
                f"{self.mask.shape} extents differ"
            )


# ---------------------------------------------------------------------------
# synthetic data


def _smooth_noise(rng, h, w):
    field = rng.random((h, w))
    for _ in range(NOISE_PASSES):
        acc = field.copy()
        acc[1:] += field[:-1]
        acc[:-1] += field[1:]
        acc[:, 1:] += field[:, :-1]
        acc[:, :-1] += field[:, 1:]
        field = acc / 5.0
    field -= field.min()
    span = field.max()
    return field / span if span > 0 else field


def _one_sample(rng, h, w, sample_id):
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    background = 0.35 + 0.12 * _smooth_noise(rng, h, w)
    image = np.stack([background] * 3)
    image += rng.normal(0.0, 0.015, size=(3, h, w))
    mask = np.zeros((h, w), dtype=bool)

    for _ in range(int(rng.integers(1, 4))):
        cy = rng.uniform(0.25 * h, 0.75 * h)
        cx = rng.uniform(0.25 * w, 0.75 * w)
        ry = rng.uniform(0.10 * h, 0.30 * h)
        rx = rng.uniform(0.10 * w, 0.30 * w)
        angle = rng.uniform(0, math.pi)
        contrast = rng.uniform(0.25, 0.45) * (1 if rng.random() < 0.5 else -1)
        ca, sa = math.cos(angle), math.sin(angle)
        u = (xx - cx) * ca + (yy - cy) * sa
        v = -(xx - cx) * sa + (yy - cy) * ca
        dist = (u / rx) ** 2 + (v / ry) ** 2
        inside = dist <= 1.0
        soft = np.clip((1.2 - dist) / 0.4, 0.0, 1.0)  # soft edge band
        image += contrast * soft[None, :, :]
        mask |= inside

    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    return Sample(image=image, mask=mask[None].astype(np.float32), id=sample_id)


def generate_synthetic(n, size=(64, 64), seed=0):
    """Deterministic lesion-analog blobs on a textured low-contrast background.

    Regenerates a sample until its foreground fraction lies in [0.02, 0.6].
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if len(size) != 2 or not all(isinstance(v, int) and v >= 1 for v in size):
        raise ConfigurationError(f"size must be two integers >= 1 (HxW), got {size}")
    if not isinstance(seed, int) or seed < 0:
        raise ConfigurationError(f"seed must be an integer >= 0, got {seed!r}")
    h, w = size
    samples = []
    for i in range(n):
        for attempt in range(64):
            rng = np.random.default_rng([seed, i, attempt])
            sample = _one_sample(rng, h, w, f"synth{i:04d}")
            frac = float(sample.mask.mean())
            if 0.02 <= frac <= 0.6:
                samples.append(sample)
                break
        else:
            raise ConfigurationError(
                f"could not synthesize sample {i} at size {h}x{w}: no foreground "
                "fraction in [0.02, 0.6] in 64 attempts"
            )
    return samples


# ---------------------------------------------------------------------------
# augmentation


def _source_coords(h, w, angle_deg):
    """Source-frame (y, x) of every pixel of an h x w frame rotated about its centre."""
    theta = math.radians(angle_deg)
    ca, sa = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    # inverse map: rotate output coordinates back into the source frame
    sx = (xx - cx) * ca + (yy - cy) * sa + cx
    sy = -(xx - cx) * sa + (yy - cy) * ca + cy
    return sy, sx


def _rotate_bilinear(img, angle_deg):
    c, h, w = img.shape
    sy, sx = _source_coords(h, w, angle_deg)
    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    fx = sx - x0
    fy = sy - y0
    acc = np.zeros((c, h, w), dtype=np.float64)
    for dy, dx, wgt in (
        (0, 0, (1 - fy) * (1 - fx)),
        (0, 1, (1 - fy) * fx),
        (1, 0, fy * (1 - fx)),
        (1, 1, fy * fx),
    ):
        ys, xs = y0 + dy, x0 + dx
        valid = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
        ysc = np.clip(ys, 0, h - 1)
        xsc = np.clip(xs, 0, w - 1)
        # out-of-frame taps contribute zero
        acc += img[:, ysc, xsc] * np.where(valid, wgt, 0.0)[None]
    return acc.astype(img.dtype)


def _rotate_nearest(img, angle_deg):
    c, h, w = img.shape
    sy, sx = _source_coords(h, w, angle_deg)
    xs = np.rint(sx).astype(int)
    ys = np.rint(sy).astype(int)
    valid = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    out = np.zeros((c, h, w), dtype=img.dtype)
    out[:, valid] = img[:, ys[valid], xs[valid]]
    return out


def _rot90_exact(arr, quarter_turns):
    return np.ascontiguousarray(np.rot90(arr, k=quarter_turns, axes=(1, 2)))


def augment(sample: Sample, rotation_deg, brightness) -> Sample:
    """Rotate (bilinear image / nearest mask) and scale brightness with clamp.

    Multiples of 90 degrees are index-exact; out-of-frame regions fill with
    zero (image) and background (mask).
    """
    if rotation_deg % ROTATION_STEP != 0 or not 0 <= rotation_deg < 360:
        raise ConfigurationError(
            f"rotation must be a multiple of {ROTATION_STEP} in [0, 360), got {rotation_deg}"
        )
    if brightness not in BRIGHTNESS_FACTORS:
        raise ConfigurationError(
            f"brightness must be one of {BRIGHTNESS_FACTORS}, got {brightness}"
        )
    if rotation_deg % 90 == 0:
        k = rotation_deg // 90
        image = _rot90_exact(sample.image, k)
        mask = _rot90_exact(sample.mask, k)
    else:
        image = _rotate_bilinear(sample.image, rotation_deg)
        mask = _rotate_nearest(sample.mask, rotation_deg)
    image = np.clip(image * brightness, 0.0, 1.0).astype(np.float32)
    new_id = f"{sample.id}_r{rotation_deg:03d}_b{brightness:.1f}"
    if rotation_deg == 0 and brightness == 1.0:
        new_id = sample.id
    return Sample(image=image, mask=mask.astype(np.float32), id=new_id)


def expand_augmentations(sample: Sample):
    """All 12 rotations x 3 brightness variants of one source sample."""
    out = []
    for rot in range(0, 360, ROTATION_STEP):
        for factor in BRIGHTNESS_FACTORS:
            out.append(augment(sample, rot, factor))
    return out


# ---------------------------------------------------------------------------
# splits


def split(items, seed=0):
    """Shuffle ``items`` and cut them into (train, validation) lists.

    The items may be anything, ids or whole samples: the shuffle depends
    only on their count and ``seed``, so samples split exactly as their ids
    do."""
    items = list(items)
    if not items:
        raise ConfigurationError("split over an empty list")
    rng = np.random.default_rng(seed)
    order = [items[i] for i in rng.permutation(len(items))]
    cut = int(round(len(items) * TRAIN_FRACTION))
    return order[:cut], order[cut:]


def kfold(ids, k=5):
    """Partition ``ids`` into ``k`` folds of near-equal size, as a list of lists."""
    ids = list(ids)
    if not ids:
        raise ConfigurationError("kfold over an empty id list")
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if k > len(ids):
        raise ConfigurationError(f"k={k} exceeds dataset size {len(ids)}")
    order = np.random.default_rng(FOLD_SEED).permutation(len(ids))
    return [[ids[i] for i in part] for part in np.array_split(order, k)]


# ---------------------------------------------------------------------------
# PGM / PPM I/O


_CHANNELS = {b"P6": 3, b"P5": 1}  # PPM image, PGM mask
# The header's four tokens (magic, width, height, maxval), each after any
# whitespace and '#' comments; a token at the end of the file is empty.
_HEADER = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]\S*|)" * 4)


def _read_netpbm(path, magic_expected):
    with open(path, "rb") as fh:
        blob = fh.read()
    header = _HEADER.match(blob)
    magic = header[1]
    if not magic:
        raise ParseError(f"{path}: truncated header", offset=header.end(1))
    if magic != magic_expected:
        raise ParseError(
            f"{path}: bad magic {magic!r}, expected {magic_expected!r}", offset=0
        )
    values = []
    for k in (2, 3, 4):
        if not header[k]:
            raise ParseError(f"{path}: truncated header", offset=header.end(k))
        try:
            values.append(int(header[k]))
        except ValueError:
            raise ParseError(f"{path}: non-numeric header field", offset=header.end(k)) from None
    width, height, maxval = values
    for k, name, value in ((2, "width", width), (3, "height", height)):
        if value < 1:
            raise ParseError(f"{path}: {name} {value} must be at least 1", offset=header.start(k))
    if maxval != 255:
        raise ParseError(f"{path}: unsupported maxval {maxval}", offset=header.end())
    pos = min(header.end() + 1, len(blob))  # single whitespace byte after maxval
    channels = _CHANNELS[magic_expected]
    expected = width * height * channels
    payload = blob[pos:]
    if len(payload) != expected:  # the offset of its end, or of its first stray byte
        raise ParseError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}",
            offset=pos + min(len(payload), expected),
        )
    data = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return data


def _write_netpbm(path, planes, magic):
    """Write a CxHxW map in [0, 1] as a binary PPM or PGM file (maxval 255)."""
    c, h, w = planes.shape
    if c != _CHANNELS[magic]:
        raise ValidationError(f"{magic.decode()} needs {_CHANNELS[magic]} channel(s), got {c}")
    quantized = np.rint(np.clip(planes, 0, 1) * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, w, h))
        fh.write(quantized.transpose(1, 2, 0).tobytes())


def write_image(path, image):
    """Write a 3xHxW float image in [0,1] as binary PPM (P6, maxval 255)."""
    _write_netpbm(path, image, b"P6")


def read_image(path):
    """Read a binary PPM (P6, maxval 255) into 3xHxW floats in [0, 1]."""
    data = _read_netpbm(path, b"P6")
    return (data.transpose(2, 0, 1) / 255.0).astype(np.float32)


def write_mask(path, mask):
    """Write a 1xHxW binary (or probability) map as binary PGM (P5)."""
    _write_netpbm(path, mask, b"P5")


def read_mask(path):
    """Read a PGM mask, thresholding gray levels above 127 to foreground."""
    data = _read_netpbm(path, b"P5")
    return (data[:, :, 0] > 127).astype(np.float32)[None]


# ---------------------------------------------------------------------------
# dataset directories


def _sample_files(sid):
    """A sample's image and mask files, relative to the dataset root."""
    return f"images/{sid}.ppm", f"masks/{sid}_mask.pgm"


def write_dataset(root, samples):
    """Write ``samples`` under ``root``; returns the files written, relative to it."""
    os.makedirs(os.path.join(root, "images"), exist_ok=True)
    os.makedirs(os.path.join(root, "masks"), exist_ok=True)
    written = []
    for s in samples:
        image, mask = _sample_files(s.id)
        write_image(os.path.join(root, image), s.image)
        write_mask(os.path.join(root, mask), s.mask)
        written += [image, mask]
    with open(os.path.join(root, "manifest.txt"), "w") as fh:
        fh.write("".join(f"{s.id}\n" for s in samples))
    return written + ["manifest.txt"]


def load_dataset(root):
    manifest = os.path.join(root, "manifest.txt")
    if os.path.exists(manifest):
        with open(manifest, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{manifest}: not UTF-8 text", exc.start) from None
        first_line = {}  # id -> the manifest line that lists it
        # newline=None splits lines as a text-mode file does
        lines = io.StringIO(text, newline=None)
        for number, sid in enumerate((line.strip() for line in lines), 1):
            if sid and first_line.setdefault(sid, number) != number:
                raise ParseError(f"{manifest}: id {sid!r} on line {number} repeats line "
                                 f"{first_line[sid]}")
        ids = list(first_line)
    else:
        ids = sorted(
            os.path.splitext(name)[0]
            for name in os.listdir(os.path.join(root, "images"))
            if name.endswith(".ppm")
        )
    if not ids:
        raise ParseError(f"{root}: dataset lists no sample ids")
    samples = []
    for sid in ids:
        image, mask = _sample_files(sid)
        sample = Sample(image=read_image(os.path.join(root, image)),
                        mask=read_mask(os.path.join(root, mask)), id=sid)
        sample.validate()
        samples.append(sample)
    return samples
