"""Grid-discretized measures, comparison metrics, and convergence diagnostics.

Any finite atomic measure can be binned over a rectangular viewport; mass
falling outside the viewport (including the point at infinity) accumulates
in a dedicated overflow slot so totals stay honest.  Total variation on a
shared grid and Hausdorff distance between point sets are the two computable
surrogates used to compare approximations at fixed resolution.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .backward import BackwardOrbit, EmptyTail, WeightedPointCloud, tree_blocks
from .ratmap import preimages_batch
from .semigroup import Semigroup, validate_assumptions
from .sphere import SpherePoint, ensure_point, is_inf, to_arrays

__all__ = [
    "ViewportMismatch",
    "EmptySet",
    "Viewport",
    "GridMeasure",
    "bin_cloud",
    "full_tree_grid",
    "total_variation",
    "hausdorff_distance",
    "min_distances",
    "apply_transfer_operator",
    "check_invariance",
    "distance_decay_profile",
    "cesaro_average",
    "circle_chordal_distance",
    "default_test_functions",
    "grid_to_text",
    "grid_from_text",
]


class ViewportMismatch(ValueError):
    """Two grid measures live on different viewports or resolutions."""


class EmptySet(ValueError):
    """A point-set argument that must be nonempty is empty."""


@dataclass(frozen=True)
class Viewport:
    """Axis-aligned window in the plane with a grid resolution."""

    center: complex
    width: float
    height: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "height", float(self.height))
        window = (self.center.real, self.center.imag, self.width, self.height)
        if not all(map(math.isfinite, window)):
            raise ValueError("viewport center, width and height must be finite")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("viewport width and height must be positive")
        if not all(
            isinstance(n, numbers.Integral) and not isinstance(n, bool)
            for n in (self.nx, self.ny)
        ):
            raise ValueError(f"grid resolution must be integers, got {self.nx!r}, {self.ny!r}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid resolution must be at least 1x1")

    @property
    def x0(self) -> float:
        return self.center.real - self.width / 2

    @property
    def y_top(self) -> float:
        return self.center.imag + self.height / 2

    @property
    def cell_width(self) -> float:
        return self.width / self.nx

    @property
    def cell_height(self) -> float:
        return self.height / self.ny


@dataclass(eq=False)
class GridMeasure:
    """Mass per grid cell plus the overflow mass outside the viewport.

    Cells are indexed (row, column) with row 0 at the top edge; each cell is
    half-open, containing its left and top edges.
    """

    viewport: Viewport
    cells: np.ndarray
    outside_mass: float = 0.0

    def __post_init__(self) -> None:
        self.cells = np.asarray(self.cells, dtype=float)
        if self.cells.shape != (self.viewport.ny, self.viewport.nx):
            raise ValueError(
                f"cells shape {self.cells.shape} does not match viewport "
                f"({self.viewport.ny}, {self.viewport.nx})"
            )
        if self.cells.size and float(self.cells.min()) < 0:
            raise ValueError("cell masses must be nonnegative")
        if self.outside_mass < 0:
            raise ValueError("outside_mass must be nonnegative")

    @property
    def total_mass(self) -> float:
        return float(self.cells.sum()) + self.outside_mass


def _bin_arrays(
    zs: np.ndarray, at_inf: np.ndarray, masses: np.ndarray, vp: Viewport
) -> tuple[np.ndarray, float]:
    """(cells, overflow mass) of one block of atoms: each atom's mass goes to
    the cell containing its point, summed in atom order; atoms outside the
    viewport or at infinity feed the overflow."""
    colf = np.floor((zs.real - vp.x0) / vp.cell_width)
    rowf = np.floor((vp.y_top - zs.imag) / vp.cell_height)
    inside = (
        ~at_inf & (colf >= 0) & (colf < vp.nx) & (rowf >= 0) & (rowf < vp.ny)
    )
    flat = rowf[inside].astype(np.int64) * vp.nx + colf[inside].astype(np.int64)
    cells = np.bincount(flat, weights=masses[inside], minlength=vp.ny * vp.nx)
    return cells.reshape(vp.ny, vp.nx), float(masses[~inside].sum())


def bin_cloud(cloud: WeightedPointCloud, vp: Viewport) -> GridMeasure:
    """Accumulate each atom's mass into the cell containing its point, in
    atom order; atoms outside the viewport or at infinity feed the overflow
    slot."""
    cells, outside = _bin_arrays(cloud.zs, cloud.at_inf, cloud.masses, vp)
    return GridMeasure(viewport=vp, cells=cells, outside_mass=outside)


def full_tree_grid(
    sg: Semigroup,
    start: SpherePoint,
    depth: int,
    vp: Viewport,
    *,
    chunk: int = 2**16,
    check_start: bool = True,
) -> GridMeasure:
    """Bin the full backward tree of the given depth without materializing it.

    Each block of :func:`tree_blocks` (levels wider than ``chunk`` points are
    split per branch) goes straight into the grid, so live memory stays
    O(chunk * d * n) however large d^n grows.  Equals binning the
    materialized tree up to floating-point summation order.
    """
    start = ensure_point(start)
    if check_start:
        validate_assumptions(sg, start)
    cells = np.zeros((vp.ny, vp.nx))
    outside = 0.0
    for zs, at_inf, masses in tree_blocks(sg, start, depth, chunk):
        block_cells, block_outside = _bin_arrays(zs, at_inf, masses, vp)
        cells += block_cells
        outside += block_outside
        # drop the block before the walker expands the next one
        del zs, at_inf, masses, block_cells
    return GridMeasure(viewport=vp, cells=cells, outside_mass=outside)


def total_variation(g1: GridMeasure, g2: GridMeasure) -> float:
    """Half the L1 distance between cell vectors plus half the overflow
    difference; a metric on measures binned over one shared grid."""
    if g1.viewport != g2.viewport:
        raise ViewportMismatch(
            f"grids live on different viewports: {g1.viewport} vs {g2.viewport}"
        )
    return 0.5 * float(np.abs(g1.cells - g2.cells).sum()) + 0.5 * abs(
        g1.outside_mass - g2.outside_mass
    )


# ---------------------------------------------------------------------------
# chordal geometry on point sets


def _embed(points: Sequence[SpherePoint]) -> np.ndarray:
    """Isometric embedding into R^3: chordal distance = Euclidean distance
    between images on the unit sphere."""
    zs, at_inf = to_arrays(points)
    x = zs.real
    y = zs.imag
    r2 = x * x + y * y
    big = at_inf | (r2 > 1e300)
    s = 1.0 + np.where(big, 1.0, r2)
    out = np.empty((len(points), 3))
    out[:, 0] = np.where(big, 0.0, 2.0 * x / s)
    out[:, 1] = np.where(big, 0.0, 2.0 * y / s)
    out[:, 2] = np.where(big, 1.0, (r2 - 1.0) / s)
    return out


def min_distances(
    points: Sequence[SpherePoint], reference: Sequence[SpherePoint], *, chunk: int = 128
) -> np.ndarray:
    """Chordal distance from each point to the nearest reference point.

    Embedding images are unit vectors, so the nearest reference maximizes the
    dot product; the winning pair is then measured by direct difference, which
    keeps coincident points at exactly zero.  The dot-product screen can
    misrank references closer together than ~1e-8, bounding the result within
    that of the true minimum (from above).
    """
    if len(reference) == 0:
        raise EmptySet("reference set is empty")
    if len(points) == 0:
        return np.empty(0)
    pe = _embed(points)
    re_ = _embed(reference)
    out = np.empty(len(points))
    for i in range(0, len(points), chunk):
        block = pe[i : i + chunk]
        nearest = (block @ re_.T).argmax(axis=1)
        diff = block - re_[nearest]
        out[i : i + chunk] = np.sqrt((diff * diff).sum(axis=1))
    return out


def hausdorff_distance(
    a_points: Sequence[SpherePoint], b_points: Sequence[SpherePoint]
) -> float:
    """max(sup_a dist(a, B), sup_b dist(b, A)) in the chordal metric."""
    if len(a_points) == 0 or len(b_points) == 0:
        raise EmptySet("Hausdorff distance needs two nonempty sets")
    forward = float(min_distances(a_points, b_points).max())
    backward = float(min_distances(b_points, a_points).max())
    return max(forward, backward)


def circle_chordal_distance(p: SpherePoint, radius: float = 1.0) -> float:
    """Exact chordal distance from a point to the full circle |z| = radius
    (no sampling gap; the minimum is attained at the same argument)."""
    if is_inf(p):
        return 2.0 / math.hypot(1.0, radius)
    r = abs(p)
    return 2.0 * abs(r - radius) / (math.hypot(1.0, r) * math.hypot(1.0, radius))


def distance_decay_profile(
    orbit: BackwardOrbit, reference: Sequence[SpherePoint]
) -> np.ndarray:
    """Chordal distance from each orbit point to the reference set, in step
    order.  Diagnostic only: no monotonicity implied, only eventual
    smallness when the reference approximates the Julia set."""
    return min_distances(orbit.points, reference)


# ---------------------------------------------------------------------------
# transfer operator diagnostics


# Test functions take arrays: phi(zs, at_inf) is the value at each point,
# with at_inf marking the points at infinity (their zs entry is ignored).
TestFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Atoms per block of the invariance check.  The degree >= 3 root solver
# keeps a few dozen (block, d) temporaries alive, so the block bounds the
# check's peak memory: with 2**16 a z^3+0.3 chain job's peak RSS went from
# 74 to 124 MB, and the job got slower too (the temporaries left the cache).
_INVARIANCE_BLOCK = 2**14


def _transfer(
    sg: Semigroup, phis: Sequence[TestFunction], zs: np.ndarray, at_inf: np.ndarray
) -> list[np.ndarray]:
    """T phi at every point for each phi, from one batch of preimages per
    generator: the weighted sum of phi over all d preimages, branch i of
    generator j weighted by b_j / d_j, in branch order."""
    fibres = [preimages_batch(g, zs, at_inf) for g in sg.generators]
    out = []
    for phi in phis:
        total = np.zeros(zs.size)
        for g, w, (roots, inf) in zip(sg.generators, sg.b.weights, fibres):
            vals = phi(roots.reshape(-1), inf.reshape(-1)).reshape(roots.shape)
            bw = w / g.degree
            for k in range(g.degree):
                total += bw * vals[:, k]
        out.append(total)
    return out


def apply_transfer_operator(
    sg: Semigroup, phi: TestFunction, zs: np.ndarray, at_inf: np.ndarray
) -> np.ndarray:
    """(T phi)(z) at every point: the weighted average of phi over all d
    preimages of z, branch i weighted by its probability b_j / d_j; uses the
    same branch labelling as the backward engines."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    at_inf = np.asarray(at_inf, dtype=bool).reshape(-1)
    return _transfer(sg, [phi], zs, at_inf)[0]


def sphere_re(zs: np.ndarray, at_inf: np.ndarray) -> np.ndarray:
    return np.where(at_inf, 0.0, zs.real)


def sphere_im(zs: np.ndarray, at_inf: np.ndarray) -> np.ndarray:
    return np.where(at_inf, 0.0, zs.imag)


def modulus_ratio(zs: np.ndarray, at_inf: np.ndarray) -> np.ndarray:
    """|z|^2 / (1 + |z|^2), extended by 1 at infinity; bounded and continuous
    on the whole sphere."""
    r = np.abs(zs)
    big = at_inf | (r > 1e150)
    r2 = np.where(big, 0.0, r) ** 2
    return np.where(big, 1.0, r2 / (1.0 + r2))


def _chordal_to(zs: np.ndarray, at_inf: np.ndarray, c: complex) -> np.ndarray:
    """:func:`chordal_distance` from every point to the finite point c.
    hypot never squares |z|, so no finite z overflows."""
    ac = math.hypot(1.0, abs(c))
    z = np.where(at_inf, 0j, zs)
    near = 2.0 * np.abs(z - c) / (np.hypot(1.0, np.abs(z)) * ac)
    return np.where(at_inf, 2.0 / ac, near)


def _gaussian_bump(center: complex, width: float) -> TestFunction:
    def bump(zs: np.ndarray, at_inf: np.ndarray) -> np.ndarray:
        return np.exp(-((_chordal_to(zs, at_inf, center) / width) ** 2))

    return bump


def default_test_functions(
    bump_centers: Sequence[complex] = (1 + 0j, -1 + 0j), bump_width: float = 0.75
) -> list[tuple[str, TestFunction]]:
    """The standard diagnostic test functions: coordinates, a bounded radial
    function, and chordal Gaussian bumps at the given centers."""
    out: list[tuple[str, TestFunction]] = [
        ("re", sphere_re),
        ("im", sphere_im),
        ("modulus_ratio", modulus_ratio),
    ]
    for c in bump_centers:
        out.append((f"bump@{c.real:g}{c.imag:+g}j", _gaussian_bump(c, bump_width)))
    return out


def check_invariance(
    sg: Semigroup,
    cloud: WeightedPointCloud,
    phis: Sequence[tuple[str, TestFunction]],
    rng: np.random.Generator | None = None,
    *,
    max_atoms: int = 200_000,
) -> dict[str, float]:
    """|<T phi, mu> - <phi, mu>| for each named test function phi, where T
    averages phi over weighted preimages.  Small values certify approximate
    invariance of the empirical measure under the adjoint of T.

    Clouds larger than ``max_atoms`` are subsampled (mass-weighted, with
    replacement) when a generator is supplied; preimages are computed once
    per block of atoms and shared across all test functions.
    """
    n = len(cloud)
    if n == 0:
        raise EmptySet("cannot check invariance of an empty cloud")
    total = cloud.total_mass
    zs, at_inf = cloud.zs, cloud.at_inf
    if rng is not None and n > max_atoms:
        p = cloud.masses / total
        idx = rng.choice(n, size=max_atoms, p=p)
        zs, at_inf = zs[idx], at_inf[idx]
        weights = np.full(max_atoms, total / max_atoms)
    else:
        weights = cloud.masses
    fns = [phi for _, phi in phis]
    acc = np.zeros(len(fns))
    for s in range(0, zs.size, _INVARIANCE_BLOCK):
        z = zs[s : s + _INVARIANCE_BLOCK]
        inf = at_inf[s : s + _INVARIANCE_BLOCK]
        w = weights[s : s + _INVARIANCE_BLOCK]
        for i, (phi, t) in enumerate(zip(fns, _transfer(sg, fns, z, inf))):
            acc[i] += float(np.dot(w, t - phi(z, inf)))
    return {name: abs(v) / total for (name, _), v in zip(phis, acc)}


def cesaro_average(orbit: BackwardOrbit, phi: TestFunction, burn_in: int = 0) -> float:
    """Time average of phi along the orbit after a burn-in prefix."""
    zs, at_inf = orbit.zs[burn_in:], orbit.at_inf[burn_in:]
    if zs.size == 0:
        raise EmptyTail(f"burn_in {burn_in} >= orbit length {len(orbit)}")
    return float(phi(zs, at_inf).sum()) / zs.size


# ---------------------------------------------------------------------------
# stable text export


def _fmt(x: float) -> str:
    return repr(float(x))


def grid_to_text(g: GridMeasure) -> str:
    """Stable plain-text serialization: header lines (viewport, resolution,
    overflow) then one row of cell values per line.  Byte-identical for
    identical grids, suitable for cross-run diffing."""
    vp = g.viewport
    lines = [
        "semijulia-grid 1",
        f"center {_fmt(vp.center.real)} {_fmt(vp.center.imag)}",
        f"size {_fmt(vp.width)} {_fmt(vp.height)}",
        f"resolution {vp.nx} {vp.ny}",
        f"outside {_fmt(g.outside_mass)}",
    ]
    for row in g.cells:
        lines.append(" ".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def grid_from_text(text: str) -> GridMeasure:
    """Inverse of :func:`grid_to_text`."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("semijulia-grid"):
        raise ValueError("not a semijulia grid export")
    header = {}
    for ln in lines[1:5]:
        key, *vals = ln.split()
        header[key] = vals
    cre, cim = (float(v) for v in header["center"])
    w, h = (float(v) for v in header["size"])
    nx, ny = (int(v) for v in header["resolution"])
    outside = float(header["outside"][0])
    vp = Viewport(center=complex(cre, cim), width=w, height=h, nx=nx, ny=ny)
    rows = [[float(v) for v in ln.split()] for ln in lines[5 : 5 + ny]]
    return GridMeasure(viewport=vp, cells=np.asarray(rows), outside_mass=outside)
