"""Points and the chordal metric on the extended complex plane.

A sphere point is either an ordinary Python ``complex`` with finite,
non-NaN coordinates, or the module-level sentinel :data:`INF`.  There is
exactly one representation of the point at infinity; signed float
infinities and NaNs never appear in validated data.
"""
from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

__all__ = [
    "INF", "SpherePoint", "is_inf", "ensure_point", "chordal_distance", "to_arrays", "from_arrays",
    "point_arrays",
]


class _Infinity:
    """Singleton marker for the point at infinity."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()

SpherePoint = Union[complex, _Infinity]

# Beyond this modulus, finite points are indistinguishable from INF at
# double precision in the chordal metric; formulas switch to inverted
# coordinates to avoid overflow.
_HUGE = 1e150


def is_inf(p: SpherePoint) -> bool:
    return p is INF


def ensure_point(p) -> SpherePoint:
    """Coerce a number to a valid sphere point, rejecting NaN/float-inf."""
    if p is INF:
        return INF
    z = complex(p)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"not a finite sphere point: {p!r} (use INF for the point at infinity)")
    return z


def to_arrays(points: Sequence[SpherePoint]) -> tuple[np.ndarray, np.ndarray]:
    """(complex array, at-infinity mask) of a list of points; the array holds
    0 where the mask marks the point at infinity."""
    try:
        return np.asarray(points, dtype=complex), np.zeros(len(points), dtype=bool)
    except TypeError:
        at_inf = np.fromiter((p is INF for p in points), dtype=bool, count=len(points))
        return np.array([0j if p is INF else p for p in points], dtype=complex), at_inf


def point_arrays(zs, at_inf) -> tuple[np.ndarray, np.ndarray]:
    """``(zs, at_inf)`` as arrays, refused unless both are 1-D of one shape
    and every point not marked at infinity is finite."""
    zs = np.asarray(zs, dtype=complex)
    at_inf = np.asarray(at_inf, dtype=bool)
    if zs.ndim != 1 or at_inf.shape != zs.shape:
        raise ValueError(f"points {zs.shape} vs at-infinity mask {at_inf.shape}")
    if not (np.isfinite(zs) | at_inf).all():
        raise ValueError("a point not at infinity must be finite")
    return zs, at_inf


def from_arrays(zs: np.ndarray, at_inf: np.ndarray) -> list[SpherePoint]:
    """The list of points that :func:`to_arrays` maps to (zs, at_inf)."""
    points: list[SpherePoint] = zs.tolist()
    for i in np.flatnonzero(at_inf).tolist():
        points[i] = INF
    return points


def _huge(z: complex) -> bool:
    """Beyond _HUGE in a component (where ``abs(z)`` itself may overflow)."""
    return max(abs(z.real), abs(z.imag)) > _HUGE


def chordal_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Chordal metric 2|p - q| / (sqrt(1+|p|^2) sqrt(1+|q|^2)), extended by
    continuity to infinity.  Symmetric, bounded by 2 (attained by antipodes).
    """
    if q is INF or (p is not INF and _huge(q) and not _huge(p)):
        p, q = q, p  # symmetric: now p is INF or huge wherever q is
    if q is INF:
        return 0.0
    if p is INF or _huge(p):
        # |p - q|^2 and 1 + |p|^2 can overflow; rewrite via w = 1/p, which is
        # 0 at infinity (inversion is a chordal isometry, so this is exact).
        w = 0j if p is INF else 1.0 / p
        if _huge(q):
            v = 1.0 / q
            return 2.0 * abs(w - v) / (math.hypot(1.0, abs(w)) * math.hypot(1.0, abs(v)))
        return 2.0 * abs(1.0 - w * q) / (math.hypot(abs(w), 1.0) * math.hypot(1.0, abs(q)))
    return 2.0 * abs(p - q) / (math.hypot(1.0, abs(p)) * math.hypot(1.0, abs(q)))
