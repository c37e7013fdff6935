"""Grid-discretized measures, comparison metrics, and convergence diagnostics.

Any finite atomic measure can be binned over a rectangular viewport; mass
falling outside the viewport (including the point at infinity) accumulates
in a dedicated overflow slot so totals stay honest.  Total variation on a
shared grid and Hausdorff distance between point sets are the two computable
surrogates used to compare approximations at fixed resolution.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .backward import (
    BackwardOrbit,
    EmptyTail,
    WeightedPointCloud,
    expand_level,
    subtree_blocks,
    tree_subtrees,
)
from .semigroup import Semigroup, build_index_distribution, validate_assumptions
from .sphere import SpherePoint, ensure_point, point_arrays
from .workers import run_tasks, shared_array

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
    "cesaro_average",
    "circle_chordal_distance",
    "default_test_functions",
    "grid_to_text",
    "grid_from_text",
    "row_bands",
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
        # a bool is an Integral and a string converts, but neither is a
        # number here; an integer past the largest double has no float
        for name, kind, cast in (
            ("center", numbers.Complex, complex),
            ("width", numbers.Real, float),
            ("height", numbers.Real, float),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"viewport {name} must be a number, got {value!r}")
            try:
                value = cast(value)
            except OverflowError:
                raise ValueError(f"viewport {name} is too large for a float") from None
            if not cmath.isfinite(value):
                raise ValueError(f"viewport {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("viewport width and height must be positive")
        for name in ("nx", "ny"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
                raise ValueError(f"grid resolution must be integers >= 1, got {name}={n!r}")

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


# Atoms, or grid cells, per block of a pass over a whole cloud or grid:
# bin_cloud, the invariance check's subsample cdf, and the row bands of
# grid_to_text and render_density hold temporaries of this size, not of the
# cloud's or the grid's.
_BLOCK = 2**16


def row_bands(vp: Viewport) -> list[slice]:
    """The grid's rows cut into bands of about :data:`_BLOCK` cells (at least
    one row each), top to bottom."""
    rows = max(1, _BLOCK // vp.nx)
    return [slice(r, min(r + rows, vp.ny)) for r in range(0, vp.ny, rows)]


def _bin_into(
    cells: np.ndarray, zs: np.ndarray, at_inf: np.ndarray, masses: np.ndarray, vp: Viewport
) -> np.ndarray:
    """Add one block of atoms into ``cells`` in place and return the masses
    of the block's overflow atoms, in atom order: each atom's mass is added
    to the cell containing its point, in atom order; atoms outside the
    viewport or at infinity feed the overflow.  ``cells`` must be
    C-contiguous, so that its flat view is no copy.

    The flat cell index is built in place over all atoms.  An outside atom
    gets index 0 and weight 0.0: adding +0.0 to a nonnegative partial sum
    leaves its bits unchanged, so cell 0 sums as if the atom were dropped.
    A huge finite point lands at an infinite or NaN coordinate, outside."""
    with np.errstate(over="ignore", invalid="ignore"):
        colf = zs.real - vp.x0
        colf /= vp.cell_width
        np.floor(colf, out=colf)
        rowf = vp.y_top - zs.imag
        rowf /= vp.cell_height
        np.floor(rowf, out=rowf)
        outside = at_inf | ~((colf >= 0) & (colf < vp.nx) & (rowf >= 0) & (rowf < vp.ny))
        flat = rowf
        flat *= vp.nx
        flat += colf
    np.copyto(flat, 0.0, where=outside)
    weights = np.multiply(masses, ~outside, out=colf)
    np.add.at(cells.reshape(-1), flat.astype(np.int64), weights)
    return masses[outside]


def bin_cloud(cloud: WeightedPointCloud, vp: Viewport) -> GridMeasure:
    """Accumulate each atom's mass into the cell containing its point, in
    atom order from 0.0; atoms outside the viewport or at infinity feed the
    overflow slot.  The cloud is walked in blocks of :data:`_BLOCK` atoms,
    and the overflow is one sum over all outside masses in atom order, so
    the grid does not depend on the block size."""
    cells = np.zeros((vp.ny, vp.nx))
    outside = [np.zeros(0)]  # an empty cloud has no block
    for s in range(0, len(cloud), _BLOCK):
        block = slice(s, s + _BLOCK)
        outside.append(
            _bin_into(cells, cloud.zs[block], cloud.at_inf[block], cloud.masses[block], vp)
        )
    return GridMeasure(
        viewport=vp, cells=cells, outside_mass=float(np.concatenate(outside).sum())
    )


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

    The tree is cut into :func:`tree_subtrees` (levels wider than ``chunk``
    points are split per branch).  Each subtree adds its atoms, one by one
    in the order its :func:`subtree_blocks` yields them, straight into its
    own zeroed slot, in forked workers where :func:`run_tasks` can; the
    slots are then added cell by cell in subtree order.  The cut is fixed by
    the tree, not by the CPU count, so the grid is the same, bit for bit, on
    any number of CPUs.  Live memory stays O(chunk * d * n) per worker
    however large d^n grows.  Equals binning the materialized tree up to
    floating-point summation order: dyadic masses (the annulus pair) bin
    exactly, while a grid of non-dyadic masses may differ in its last bits.
    """
    start = ensure_point(start)
    if check_start:
        validate_assumptions(sg, start)
    subtrees = tree_subtrees(sg, start, depth, chunk)
    n = len(subtrees)
    slot_cells = shared_array((n, vp.ny, vp.nx), float)
    slot_outside = shared_array((n,), float)

    def bin_subtree(k: int) -> None:
        outside = 0.0
        for zs, at_inf, masses in subtree_blocks(sg, subtrees[k]):
            outside += float(_bin_into(slot_cells[k], zs, at_inf, masses, vp).sum())
            # drop the block before the walker expands the next one
            del zs, at_inf, masses
        slot_outside[k] = outside

    run_tasks(n, bin_subtree)
    cells = np.zeros((vp.ny, vp.nx))
    outside = 0.0
    for k in range(n):
        cells += slot_cells[k]
        outside += float(slot_outside[k])
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

# a point set as arrays: point k is zs[k], or infinity where at_inf[k] is set
Points = tuple[np.ndarray, np.ndarray]


def _embed(points: Points) -> np.ndarray:
    """Isometric embedding into R^3: chordal distance = Euclidean distance
    between images on the unit sphere."""
    zs, at_inf = points
    x = zs.real
    y = zs.imag
    out = np.empty((zs.size, 3))
    # past |x| ~ 1.3e154 the squares overflow to inf, so those points are
    # huge too; the finite-point formulas are then discarded
    with np.errstate(over="ignore"):
        r2 = x * x + y * y
        big = at_inf | (r2 > 1e300)
        s = 1.0 + np.where(big, 1.0, r2)
        out[:, 0] = np.where(big, 0.0, 2.0 * x / s)
        out[:, 1] = np.where(big, 0.0, 2.0 * y / s)
        out[:, 2] = np.where(big, 1.0, (r2 - 1.0) / s)
    return out


# points per block of min_distances: bounds its (block, reference) dot products
_MIN_DISTANCE_BLOCK = 128


def min_distances(points: Points, reference: Points) -> np.ndarray:
    """Chordal distance from each point to the nearest reference point.

    Embedding images are unit vectors, so the nearest reference maximizes the
    dot product; the winning pair is then measured by direct difference, which
    keeps coincident points at exactly zero.  The dot-product screen can
    misrank references closer together than ~1e-8, bounding the result within
    that of the true minimum (from above).
    """
    if reference[0].size == 0:
        raise EmptySet("reference set is empty")
    pe = _embed(points)
    re_ = _embed(reference)
    out = np.empty(len(pe))
    for i in range(0, len(pe), _MIN_DISTANCE_BLOCK):
        block = pe[i : i + _MIN_DISTANCE_BLOCK]
        nearest = (block @ re_.T).argmax(axis=1)
        diff = block - re_[nearest]
        out[i : i + _MIN_DISTANCE_BLOCK] = np.sqrt((diff * diff).sum(axis=1))
    return out


def hausdorff_distance(a_points: Points, b_points: Points) -> float:
    """max(sup_a dist(a, B), sup_b dist(b, A)) in the chordal metric."""
    if a_points[0].size == 0 or b_points[0].size == 0:
        raise EmptySet("Hausdorff distance needs two nonempty sets")
    forward = float(min_distances(a_points, b_points).max())
    backward = float(min_distances(b_points, a_points).max())
    return max(forward, backward)


def circle_chordal_distance(
    zs: np.ndarray, at_inf: np.ndarray, radius: float = 1.0
) -> np.ndarray:
    """Exact chordal distance from each point to the full circle |z| = radius
    (no sampling gap; the minimum is attained at the same argument)."""
    ar = math.hypot(1.0, radius)
    with np.errstate(over="ignore", invalid="ignore"):
        # |z| is inf where it overflows a double; such points are at infinity
        r = np.abs(zs)
        near = 2.0 * np.abs(r - radius) / (np.hypot(1.0, r) * ar)
    return np.where(at_inf | np.isinf(r), 2.0 / ar, near)


# ---------------------------------------------------------------------------
# transfer operator diagnostics


# Test functions take arrays: phi(zs, at_inf) is the value at each point,
# with at_inf marking the points at infinity (their zs entry is ignored).
TestFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Atoms per block of the invariance check.  The block bounds the check's
# (d, block) children arrays and the test-function values taken on them, and
# so its peak memory; the root solver bounds its own temporaries.
_INVARIANCE_BLOCK = 2**14


def _transfer(
    sg: Semigroup, phis: Sequence[TestFunction], zs: np.ndarray, at_inf: np.ndarray
) -> list[np.ndarray]:
    """T phi at every point for each phi, from one :func:`expand_level` call:
    pi_i phi(branch i) summed from 0.0 in branch order, with pi_i = b_j / d_j
    from :func:`build_index_distribution`, phi taking one branch row at a time."""
    kids, kids_inf = expand_level(sg, zs, at_inf)
    pi = build_index_distribution(sg).probabilities
    out = []
    for phi in phis:
        total = np.zeros(zs.size)
        for p, row, row_inf in zip(pi, kids, kids_inf):
            total += p * phi(row, row_inf)
        out.append(total)
    return out


def apply_transfer_operator(
    sg: Semigroup, phi: TestFunction, zs: np.ndarray, at_inf: np.ndarray
) -> np.ndarray:
    """(T phi)(z) at every point (points checked as a cloud's are): the
    weighted average of phi over all d preimages of z, branch i weighted by
    b_j / d_j, in the branch order and with the weights of a tree level."""
    return _transfer(sg, [phi], *point_arrays(zs, at_inf))[0]


def sphere_re(zs: np.ndarray, at_inf: np.ndarray) -> np.ndarray:
    return np.where(at_inf, 0.0, zs.real)


def sphere_im(zs: np.ndarray, at_inf: np.ndarray) -> np.ndarray:
    return np.where(at_inf, 0.0, zs.imag)


def modulus_ratio(zs: np.ndarray, at_inf: np.ndarray) -> np.ndarray:
    """|z|^2 / (1 + |z|^2), extended by 1 at infinity; bounded and continuous
    on the whole sphere."""
    with np.errstate(over="ignore"):
        r = np.abs(zs)  # inf where |z| overflows a double
    big = at_inf | (r > 1e150)
    r2 = np.where(big, 0.0, r) ** 2
    return np.where(big, 1.0, r2 / (1.0 + r2))


def _chordal_to(zs: np.ndarray, at_inf: np.ndarray, c: complex) -> np.ndarray:
    """:func:`chordal_distance` from every point to the finite point c.
    hypot never squares |z|; where a part of the quotient overflows a double
    anyway (|z| near the largest double), the point takes the value at
    infinity."""
    ac = math.hypot(1.0, abs(c))
    z = np.where(at_inf, 0j, zs)
    with np.errstate(over="ignore", invalid="ignore"):
        num = 2.0 * np.abs(z - c)
        den = np.hypot(1.0, np.abs(z)) * ac
        near = num / den
    return np.where(at_inf | np.isinf(num) | np.isinf(den), 2.0 / ac, near)


def _gaussian_bump(center: complex, width: float) -> TestFunction:
    def bump(zs: np.ndarray, at_inf: np.ndarray) -> np.ndarray:
        return np.exp(-((_chordal_to(zs, at_inf, center) / width) ** 2))

    return bump


# the chordal Gaussian bumps of default_test_functions
_BUMP_CENTERS = (1 + 0j, -1 + 0j)
_BUMP_WIDTH = 0.75


def default_test_functions() -> list[tuple[str, TestFunction]]:
    """The standard diagnostic test functions: coordinates, a bounded radial
    function, and chordal Gaussian bumps of width 0.75 at 1 and -1."""
    out: list[tuple[str, TestFunction]] = [
        ("re", sphere_re),
        ("im", sphere_im),
        ("modulus_ratio", modulus_ratio),
    ]
    for c in _BUMP_CENTERS:
        out.append((f"bump@{c.real:g}{c.imag:+g}j", _gaussian_bump(c, _BUMP_WIDTH)))
    return out


def _mass_weighted_draw(
    masses: np.ndarray, total: float, k: int, rng: np.random.Generator
) -> np.ndarray:
    """``rng.choice(masses.size, k, p=masses / total)``'s indices, from the
    same draws, with the cdf built in blocks of :data:`_BLOCK` atoms.

    np.cumsum adds in order, so pass 1 carries the running sum into each
    block as a prepended element and keeps only the carries; pass 2 rebuilds
    each block the same way, divides it by the last value (choice's
    normalization) and searches the sorted draws that fall in it.  A draw
    below the block's last value falls in it; each block's draws come after
    every earlier block, so its index is the block start plus its count."""
    n = masses.size
    starts = range(0, n, _BLOCK)

    def cdf_block(s: int, carry: float) -> np.ndarray:
        block = np.empty(min(_BLOCK, n - s) + 1)
        block[0] = carry
        np.divide(masses[s : s + _BLOCK], total, out=block[1:])
        return np.cumsum(block, out=block)[1:]

    carries = [0.0]
    for s in starts:
        carries.append(float(cdf_block(s, carries[-1])[-1]))
    last = carries.pop()
    u = rng.random(k)
    order = u.argsort()
    u.sort()
    idx = np.empty_like(order)
    j = 0
    for s, carry in zip(starts, carries):
        cdf = cdf_block(s, carry)
        cdf /= last
        stop = k if s + _BLOCK >= n else int(u.searchsorted(cdf[-1], side="left"))
        idx[order[j:stop]] = s + cdf.searchsorted(u[j:stop], side="right")
        j = stop
    return idx


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
    replacement) when a generator is supplied; each block of atoms is
    expanded once, by the tree's level expansion, for all test functions.
    """
    if max_atoms < 1:
        raise ValueError(f"max_atoms must be >= 1, got {max_atoms}")
    n = len(cloud)
    if n == 0:
        raise EmptySet("cannot check invariance of an empty cloud")
    # a sum past the largest double is inf, and every value would read 0.0
    with np.errstate(over="ignore"):
        total = cloud.total_mass
    if total == 0:
        raise ValueError("cannot check invariance of a cloud of zero total mass")
    if not math.isfinite(total):
        raise ValueError("cannot check invariance of a cloud whose total mass overflows a double")
    zs, at_inf = cloud.zs, cloud.at_inf
    if rng is not None and n > max_atoms:
        idx = _mass_weighted_draw(cloud.masses, total, max_atoms, rng)
        zs, at_inf = zs[idx], at_inf[idx]
        del idx
        weights = np.broadcast_to(total / max_atoms, (max_atoms,))
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
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    zs, at_inf = orbit.zs[burn_in:], orbit.at_inf[burn_in:]
    if zs.size == 0:
        raise EmptyTail(f"burn_in {burn_in} >= orbit length {len(orbit)}")
    return float(phi(zs, at_inf).sum()) / zs.size


# ---------------------------------------------------------------------------
# stable text export


def grid_to_text(g: GridMeasure) -> str:
    """Stable plain-text serialization: header lines (viewport, resolution,
    overflow) then one row of cell values per line.  Byte-identical for
    identical grids, suitable for cross-run diffing."""
    vp = g.viewport
    lines = [
        "semijulia-grid 1",
        f"center {vp.center.real!r} {vp.center.imag!r}",
        f"size {vp.width!r} {vp.height!r}",
        f"resolution {vp.nx} {vp.ny}",
        f"outside {float(g.outside_mass)!r}",
    ]
    # a grid holds few distinct values: each is formatted once per band of
    # rows, keyed by its 64-bit pattern so that -0.0 and every NaN keep their
    # own repr
    for band in row_bands(vp):
        cells = np.ascontiguousarray(g.cells[band], dtype=float)
        keys, which = np.unique(cells.view(np.uint64), return_inverse=True)
        texts = np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)
        lines.extend(" ".join(row) for row in texts[which.reshape(cells.shape)].tolist())
    lines.append("")
    return "\n".join(lines)


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
