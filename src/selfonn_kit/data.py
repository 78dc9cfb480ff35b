"""Dataset plumbing: 16-bit PGM images, manifests, folds, normalization.

Images travel as 16-bit grayscale PGM (P5, maxval 65535, big-endian rows).
A manifest is a tab-separated text file, one `relative/path.pgm<TAB>class`
line per sample, resolved against the manifest's own directory.

Cross-validation uses a stratified, order-preserving k-fold: within each
class the samples stay in dataset order and are cut into k contiguous
segments, so repeated runs over the same manifest always see identical
folds.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASS_NAMES = ("healthy", "misalignment", "broken_rotor")

_WHITESPACE = frozenset(b" \t\r\n\f\v")


class PgmError(ValueError):
    """Malformed PGM data; messages carry the offending byte offset."""


class ManifestError(ValueError):
    """Malformed manifest line or unknown class name."""


@dataclass(frozen=True)
class ThermalImage:
    """A single-channel 16-bit image, rows by columns."""

    pixels: np.ndarray

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int, int]:
    """Skip whitespace and # comments, return (token, start, end)."""
    m = _TOKEN.match(data, pos)
    if not m[1]:
        raise PgmError(f"header ends prematurely at byte {m.end()}")
    return m[1], m.start(1), m.end()


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, start, end = _next_token(data, pos)
    if not token.isdigit():
        raise PgmError(f"{what} at byte {start} is not a number: {token!r}")
    return int(token), end


def parse_pgm16(data: bytes) -> ThermalImage:
    """Decode one 16-bit P5 image from raw bytes."""
    token, start, pos = _next_token(data, 0)
    if token != b"P5":
        raise PgmError(f"expected P5 magic at byte {start}, found {token!r}")
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    if width < 1 or height < 1:
        raise PgmError(f"image dimensions {width}x{height} are not positive")
    maxval, pos = _header_int(data, pos, "maxval")
    if maxval != 65535:
        raise PgmError(
            f"only 16-bit images are supported, maxval {maxval} ends at byte {pos}")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PgmError(f"expected single whitespace after maxval at byte {pos}")
    payload = pos + 1
    need = width * height * 2
    have = len(data) - payload
    if have < need:
        raise PgmError(
            f"pixel payload truncated at byte {payload}: need {need} bytes, have {have}")
    if have > need:
        raise PgmError(
            f"{have - need} trailing bytes after pixel payload ending at byte "
            f"{payload + need}")
    pixels = np.frombuffer(data, dtype=">u2", count=width * height,
                           offset=payload).reshape(height, width)
    return ThermalImage(pixels.astype(np.uint16))


def pgm16_bytes(image: ThermalImage) -> bytes:
    """Canonical serialization; parse(pgm16_bytes(i)) round-trips byte-exact."""
    header = f"P5\n{image.width} {image.height}\n65535\n".encode("ascii")
    return header + image.pixels.astype(">u2").tobytes()


def load_pgm16(path) -> ThermalImage:
    with open(path, "rb") as fh:
        return parse_pgm16(fh.read())


def write_pgm16(image: ThermalImage, path) -> None:
    Path(path).write_bytes(pgm16_bytes(image))


def resize_half(image: ThermalImage) -> ThermalImage:
    """Halve both dimensions by 2x2 block averaging, rounding halves up."""
    h, w = image.pixels.shape
    if h % 2 or w % 2:
        raise ValueError(f"cannot halve odd dimensions {h}x{w}")
    blocks = image.pixels.astype(np.uint32).reshape(h // 2, 2, w // 2, 2)
    sums = blocks.sum(axis=(1, 3))
    return ThermalImage(((sums + 2) // 4).astype(np.uint16))


def _rescale(p: np.ndarray) -> np.ndarray:
    """Map float pixels to [0, 1) in place via (p - lo) / (hi - lo + 1e-8)."""
    lo, hi = float(p.min()), float(p.max())
    p -= lo
    p /= hi - lo + 1e-8
    return p


def normalize_minmax(image: ThermalImage) -> np.ndarray:
    """Map pixels to [0, 1) by this image's own extremes.

    A constant image maps to all zeros.
    """
    return _rescale(image.pixels.astype(np.float64))


@dataclass(frozen=True)
class SampleRecord:
    path: str         # relative, forward slashes
    class_name: str

    @property
    def label(self) -> int:
        return CLASS_NAMES.index(self.class_name)


def read_manifest(path) -> list[SampleRecord]:
    """Parse `relative/path<TAB>class` lines; blank lines are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest {path} is not UTF-8: {exc}") from exc
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ManifestError(
                f"line {lineno}: expected 'path<TAB>class', got {line!r}")
        rel, cls = parts
        if not rel or not cls:
            raise ManifestError(f"line {lineno}: empty path or class in {line!r}")
        if cls not in CLASS_NAMES:
            raise ManifestError(
                f"line {lineno}: unknown class {cls!r}, expected one of "
                f"{', '.join(CLASS_NAMES)}")
        records.append(SampleRecord(rel, cls))
    if not records:
        raise ManifestError(f"manifest {path} contains no samples")
    return records


def write_manifest(records: list[SampleRecord], path) -> None:
    lines = [f"{r.path}\t{r.class_name}" for r in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class FoldPlan:
    """k disjoint index groups covering 0..n-1, in dataset order per class."""

    folds: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.folds)


def stratified_ordered_kfold(labels, k: int) -> FoldPlan:
    """Split by class into k contiguous, order-preserving segments.

    Each class contributes floor(n/k) samples to every fold; the n mod k
    leftover samples go to folds offset, offset+1, ... (mod k), where the
    offset for a class is the total size of all earlier classes mod k. This
    staggers the enlarged folds across classes instead of always favoring
    fold 0: the leftovers of all classes walk the folds as one run, so with
    at least k samples no fold is left empty.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if labels.ndim != 1 or len(labels) < k:
        raise ValueError(f"need at least {k} samples, got {len(labels)}")
    folds: list[list[int]] = [[] for _ in range(k)]
    seen_before = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        n = len(idx)
        base, extra = divmod(n, k)
        offset = seen_before % k
        sizes = [base + (1 if (f - offset) % k < extra else 0) for f in range(k)]
        cursor = 0
        for f in range(k):
            folds[f].extend(int(i) for i in idx[cursor:cursor + sizes[f]])
            cursor += sizes[f]
        seen_before += n
    return FoldPlan(tuple(tuple(f) for f in folds))


@dataclass(frozen=True)
class CvSplit:
    """One cross-validation round: held-out test fold plus rotating val fold."""

    test_fold: int
    val_fold: int
    train_indices: tuple[int, ...]
    val_indices: tuple[int, ...]
    test_indices: tuple[int, ...]


def make_cv_splits(plan: FoldPlan) -> list[CvSplit]:
    """Round i tests on fold i, validates on fold (i+1) mod k, trains on the rest."""
    splits = []
    for i in range(plan.k):
        val = (i + 1) % plan.k
        train: list[int] = []
        for f in range(plan.k):
            if f not in (i, val):
                train.extend(plan.folds[f])
        splits.append(CvSplit(i, val, tuple(train), plan.folds[val], plan.folds[i]))
    return splits


@dataclass
class Dataset:
    """Normalized model inputs plus integer labels, in manifest order."""

    images: np.ndarray              # (N, 1, H, W) float64
    labels: np.ndarray              # int64

    def __len__(self) -> int:
        return len(self.images)

    def subset(self, indices) -> tuple[list[np.ndarray], np.ndarray]:
        idx = list(indices)
        return [self.images[i] for i in idx], self.labels[idx]


def load_dataset(manifest_path, half_resolution: bool = False,
                 shared_bounds: bool = False) -> Dataset:
    """Load every manifest entry, optionally downscale, then normalize.

    All images must share one shape after the optional halving; their
    pixels go straight into one (N, 1, H, W) buffer, rescaled in place.
    With `shared_bounds` the min/max are taken over the whole corpus (after
    resizing) so pixel values stay comparable across images.
    """
    manifest_path = Path(manifest_path)
    records = read_manifest(manifest_path)
    root = os.fsencode(manifest_path.parent)
    images = None
    for i, rec in enumerate(records):
        try:
            img = load_pgm16(os.path.join(root, rec.path.encode("utf-8")))
            if half_resolution:
                img = resize_half(img)
        except (OSError, ValueError) as exc:
            raise ManifestError(f"cannot load {rec.path}: {exc}") from exc
        if images is None:
            images = np.empty((len(records), 1, *img.pixels.shape))
        elif img.pixels.shape != images.shape[2:]:
            raise ManifestError(
                f"{rec.path} has shape {img.pixels.shape}, expected "
                f"{images.shape[2:]} like the rest of the corpus")
        images[i, 0] = img.pixels
    for part in [images] if shared_bounds else images:
        _rescale(part)
    labels = np.array([r.label for r in records], dtype=np.int64)
    return Dataset(images, labels)
