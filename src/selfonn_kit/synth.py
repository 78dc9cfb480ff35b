"""Synthetic thermal corpus for the three induction-motor conditions.

Each image is an analytic heat pattern (a motor-body blob plus
class-specific hotspots, a mild ambient gradient, and pixel noise) mapped
onto a per-class temperature envelope, then quantized on a fixed camera
scale. The generator is fully deterministic: every image draws from its
own seed stream, so a corpus is reproducible byte for byte from one seed.

Class signatures: a healthy motor shows one mild core hotspot;
misalignment concentrates heat off-axis near the coupling as a hot pair;
a broken rotor bar produces an elongated lateral hot band.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import CLASS_NAMES, SampleRecord, ThermalImage, write_manifest, write_pgm16

# Camera temperature span in degrees Celsius, mapped linearly onto 0..65535.
CAMERA_RANGE_C = (-40.0, 550.0)


@dataclass(frozen=True)
class ClassTemperatureStats:
    """Temperature envelope a class must respect, in degrees Celsius."""

    t_min: float
    t_max: float
    mean: float
    std: float


DEFAULT_CLASS_STATS: dict[str, ClassTemperatureStats] = {
    "healthy": ClassTemperatureStats(23.00, 82.43, 38.62, 8.86),
    "misalignment": ClassTemperatureStats(25.52, 104.99, 40.31, 12.04),
    "broken_rotor": ClassTemperatureStats(24.86, 83.30, 41.24, 11.09),
}


@dataclass(frozen=True)
class SynthConfig:
    per_class: int = 300
    height: int = 128
    width: int = 160
    seed: int = 0

    def __post_init__(self):
        if self.per_class < 1:
            raise ValueError(f"per_class must be >= 1, got {self.per_class}")
        if self.height < 8 or self.width < 8:
            raise ValueError(f"grid {self.height}x{self.width} is too small")


def temperature_to_pixel(temps: np.ndarray) -> np.ndarray:
    """Quantize Celsius values onto the 16-bit camera scale (half rounds up)."""
    lo, hi = CAMERA_RANGE_C
    scaled = (np.asarray(temps, dtype=np.float64) - lo) / (hi - lo) * 65535.0
    return np.clip(np.floor(scaled + 0.5), 0, 65535).astype(np.uint16)


def pixel_to_temperature(pixels: np.ndarray) -> np.ndarray:
    """Invert the camera scale back to Celsius."""
    lo, hi = CAMERA_RANGE_C
    return np.asarray(pixels, dtype=np.float64) / 65535.0 * (hi - lo) + lo


# Class hotspots on the unit image square, one (cy, cx, sy, sx, amplitude) row
# each; every image jitters the centres and scales the rest.
HOTSPOTS: dict[str, tuple[tuple[float, ...], ...]] = {
    "healthy": ((0.52, 0.50, 0.09, 0.11, 0.35),),
    "misalignment": ((0.42, 0.76, 0.07, 0.09, 1.25),
                     (0.64, 0.68, 0.08, 0.10, 0.70)),
    "broken_rotor": ((0.50, 0.45, 0.055, 0.34, 1.15),),
}


def _gaussian(yy, xx, cy, cx, sy, sx, amp):
    return amp * np.exp(-0.5 * (((yy - cy) / sy) ** 2 + ((xx - cx) / sx) ** 2))


def _render_pattern(class_name: str, height: int, width: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Unitless heat pattern spanning exactly [0, 1], jittered class geometry."""
    yy, xx = np.meshgrid(np.linspace(0.0, 1.0, height),
                         np.linspace(0.0, 1.0, width), indexing="ij")

    def jit(v, span=0.04):
        return v + rng.uniform(-span, span)

    def scale(v):
        return v * rng.uniform(0.85, 1.15)

    # Warm motor body and a floor-to-ceiling ambient drift, shared by all classes.
    pattern = _gaussian(yy, xx, jit(0.55), jit(0.48), scale(0.24), scale(0.30),
                        scale(1.0))
    pattern += scale(0.15) * yy

    for cy, cx, sy, sx, amp in HOTSPOTS[class_name]:
        pattern += _gaussian(yy, xx, jit(cy), jit(cx), scale(sy), scale(sx),
                             scale(amp))

    pattern += rng.normal(0.0, 0.04, size=pattern.shape)
    lo, hi = pattern.min(), pattern.max()
    return (pattern - lo) / (hi - lo)


def _to_temperatures(pattern: np.ndarray,
                     stats: ClassTemperatureStats) -> np.ndarray:
    """Affine-map a pattern spanning [0, 1] onto the class temperature envelope.

    The scale is chosen so the image mean lands exactly on the class mean
    while max and min can never leave [t_min, t_max]; the spread matches
    the class std unless one of the hard bounds caps it first.
    """
    mu = float(pattern.mean())
    spread = float(pattern.std())
    scale = min(stats.std / spread,
                (stats.t_max - stats.mean) / (1.0 - mu),
                (stats.mean - stats.t_min) / mu)
    return stats.mean + scale * (pattern - mu)


def render_image(class_name: str, config: SynthConfig,
                 index: int) -> ThermalImage:
    """One deterministic image; the stream key is (seed, class, index)."""
    if class_name not in DEFAULT_CLASS_STATS:
        raise ValueError(f"unknown class {class_name!r}")
    class_idx = CLASS_NAMES.index(class_name)
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, class_idx, index]))
    pattern = _render_pattern(class_name, config.height, config.width, rng)
    temps = _to_temperatures(pattern, DEFAULT_CLASS_STATS[class_name])
    return ThermalImage(temperature_to_pixel(temps))


def synth_generate(out_dir, config: SynthConfig) -> Path:
    """Write the full corpus as `<out>/<class>/<index>.pgm` plus a manifest.

    Returns the manifest path. Images appear in the manifest grouped by
    class in declaration order, each class's samples in index order, which
    is exactly the layout the contiguous fold splitter expects.
    """
    out = Path(out_dir)
    records = []
    for class_name in CLASS_NAMES:
        class_dir = out / class_name
        class_dir.mkdir(parents=True, exist_ok=True)
        for i in range(config.per_class):
            image = render_image(class_name, config, i)
            rel = f"{class_name}/{i:05d}.pgm"
            write_pgm16(image, out / rel)
            records.append(SampleRecord(rel, class_name))
    manifest = out / "manifest.tsv"
    write_manifest(records, manifest)
    return manifest
