"""Turn grid measures into images.

Output is binary PPM (P6): universally parseable, no codec dependency, and
byte-deterministic for identical inputs.  Cell mass maps to a ramp value in
[0, 1] (log-compressed by default, since invariant mass is typically very
uneven across the Julia set) and then through a small fixed set of color
maps; empty cells always get the exact background color.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .measure import GridMeasure, Viewport, ViewportMismatch, row_bands

__all__ = [
    "ImageSpec",
    "COLORMAPS",
    "SCALES",
    "render_density",
    "encode_ppm",
    "write_image",
]

RGB = tuple[int, int, int]

# Anchor colors, interpolated linearly in ramp order (luminance increasing).
# "mono" is resolved against the spec's background/foreground pair.
COLORMAPS: dict[str, tuple[RGB, ...] | None] = {
    "mono": None,
    "fire": ((0, 0, 0), (120, 20, 0), (230, 120, 20), (255, 220, 130), (255, 255, 255)),
    "ice": ((0, 0, 0), (25, 40, 95), (60, 125, 185), (160, 210, 240), (255, 255, 255)),
}

SCALES = ("linear", "log")

# log ramp: log1p(K * t) / log1p(K) -- roughly four decades of dynamic range
_LOG_GAIN = 1e4


@dataclass(frozen=True)
class ImageSpec:
    """How to color a grid measure; the viewport must match the grid's."""

    viewport: Viewport
    colormap: str = "fire"
    scale: str = "log"
    background: RGB = (0, 0, 0)
    foreground: RGB = (255, 255, 255)

    def __post_init__(self) -> None:
        # a list is unhashable, so test the type before the dict lookup
        if not isinstance(self.colormap, str) or self.colormap not in COLORMAPS:
            raise ValueError(
                f"unknown colormap {self.colormap!r}; choose from {sorted(COLORMAPS)}"
            )
        if self.scale not in SCALES:
            raise ValueError(f"unknown scale {self.scale!r}; choose from {SCALES}")
        for name in ("background", "foreground"):
            rgb = getattr(self, name)
            if not isinstance(rgb, (tuple, list)) or len(rgb) != 3 or not all(
                isinstance(v, numbers.Integral) and not isinstance(v, bool) and 0 <= v <= 255
                for v in rgb
            ):
                raise ValueError(f"{name} must be an RGB triple of 0..255 ints, got {rgb!r}")
            object.__setattr__(self, name, tuple(int(v) for v in rgb))


def _ramp(cells: np.ndarray, mmax: float, scale: str) -> np.ndarray:
    """Normalized monotone intensity in [0, 1] against the grid's largest
    cell mass ``mmax``; all-zero grids stay zero."""
    if mmax <= 0:
        return np.zeros_like(cells)
    t = cells / mmax
    if scale == "log":
        t = np.log1p(_LOG_GAIN * t) / np.log1p(_LOG_GAIN)
    return t


def _apply_colormap(t: np.ndarray, spec: ImageSpec) -> np.ndarray:
    anchors = COLORMAPS[spec.colormap]
    if anchors is None:
        anchors = (spec.background, spec.foreground)
    table = np.asarray(anchors, dtype=float)
    k = len(anchors)
    pos = np.clip(t, 0.0, 1.0) * (k - 1)
    lo = np.minimum(pos.astype(np.int64), k - 2)
    hi = lo + 1
    frac = pos - lo
    rest = 1.0 - frac
    # one channel at a time, so no (ny, nx, 3) float temporary is held
    rgb = np.empty(t.shape + (3,), dtype=np.uint8)
    for c in range(3):
        channel = table[lo, c] * rest + table[hi, c] * frac
        rgb[..., c] = np.clip(np.rint(channel), 0, 255)
    return rgb


def render_density(g: GridMeasure, spec: ImageSpec) -> bytes:
    """Complete PPM image bytes for the grid measure.

    Pure function of its inputs: identical grid and spec give identical
    bytes.  Empty cells are painted the exact background color.
    """
    if spec.viewport != g.viewport:
        raise ViewportMismatch(
            f"image spec viewport {spec.viewport} does not match grid {g.viewport}"
        )
    # the ramp's maximum is the whole grid's; each band of rows is then
    # colored on its own, so the float temporaries are one band wide
    cells = g.cells
    mmax = float(cells.max())
    rgb = np.empty(cells.shape + (3,), dtype=np.uint8)
    background = np.asarray(spec.background, dtype=np.uint8)
    for band in row_bands(g.viewport):
        rgb[band] = _apply_colormap(_ramp(cells[band], mmax, spec.scale), spec)
        rgb[band][cells[band] <= 0] = background
    return encode_ppm(g.viewport.nx, g.viewport.ny, rgb)


def encode_ppm(nx: int, ny: int, rgb: np.ndarray) -> bytes:
    """Binary PPM (P6): magic, dimensions, max value 255, then row-major RGB
    bytes, top row first."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.shape != (ny, nx, 3):
        raise ValueError(f"pixel array shape {rgb.shape} != ({ny}, {nx}, 3)")
    return b"P6\n%d %d\n255\n" % (nx, ny) + rgb.tobytes()


def write_image(data: bytes, path) -> None:
    """Write image bytes to a file, surfacing failures with path context."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"cannot write image to {path}: {exc}") from exc
