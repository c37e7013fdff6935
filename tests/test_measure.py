import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import semijulia.measure as measure
from semijulia.backward import (
    EmptyTail,
    WeightedPointCloud,
    full_backward_tree,
    random_backward_orbit,
    run_chains,
    subtree_blocks,
    tree_subtrees,
)
from semijulia.measure import (
    EmptySet,
    GridMeasure,
    Viewport,
    ViewportMismatch,
    apply_transfer_operator,
    bin_cloud,
    cesaro_average,
    check_invariance,
    circle_chordal_distance,
    default_test_functions,
    full_tree_grid,
    grid_from_text,
    grid_to_text,
    hausdorff_distance,
    min_distances,
    sphere_im,
    sphere_re,
    total_variation,
)
from semijulia.ratmap import SolverDivergence, preimages, quadratic_level, rational_map
from semijulia.render import ImageSpec, render_density
from semijulia.semigroup import ProbabilityVector, Semigroup, make_rng
from semijulia.sphere import INF, chordal_distance, to_arrays


def square_sg():
    return Semigroup((rational_map([0, 0, 1]),))


def annulus_sg():
    return Semigroup(
        (rational_map([0, 0, 1]), rational_map([0, 0, 0.25])),
        ProbabilityVector([0.5, 0.5]),
    )


def vp44(n=4):
    return Viewport(center=0j, width=4.0, height=4.0, nx=n, ny=n)


def cloud(points, masses=None):
    if masses is None:
        masses = np.full(len(points), 1.0 / len(points))
    return WeightedPointCloud(*to_arrays(list(points)), np.asarray(masses, float))


# ---------------------------------------------------------------------------
# binning


def test_bin_single_atom_at_center():
    g = bin_cloud(cloud([0j], [1.0]), vp44())
    assert g.cells.sum() == 1.0
    assert g.cells[2, 2] == 1.0  # center lands in the lower-right of the middle
    assert g.outside_mass == 0.0


@pytest.mark.parametrize(
    "point", [INF, 1.7e308, complex(-1.7e308, -1.7e308), 1.7e308j], ids=repr
)
def test_bin_atom_at_infinity_goes_outside(point):
    # a huge finite point overflows to an infinite cell coordinate, silently
    g = bin_cloud(cloud([point], [1.0]), Viewport(0j, 9.0, 9.0, 512, 512))
    assert g.cells.sum() == 0.0
    assert g.outside_mass == 1.0


def test_bin_additivity_same_cell():
    g = bin_cloud(cloud([0.1 + 0.1j, 0.11 + 0.11j], [0.5, 0.5]), vp44(2))
    assert g.cells.max() == 1.0


def test_bin_half_open_edges():
    vp = vp44(4)  # cells of size 1 over [-2, 2)
    left_top = cloud([complex(-2.0, 2.0)], [1.0])  # left/top edges are inside
    g = bin_cloud(left_top, vp)
    assert g.cells[0, 0] == 1.0
    right = bin_cloud(cloud([complex(2.0, 0.0)], [1.0]), vp)
    assert right.outside_mass == 1.0
    bottom = bin_cloud(cloud([complex(0.0, -2.0)], [1.0]), vp)
    assert bottom.outside_mass == 1.0


def test_bin_conserves_mass():
    rng = np.random.default_rng(5)
    pts = [complex(a, b) for a, b in rng.uniform(-4, 4, (500, 2))]
    masses = rng.uniform(0, 1, 500)
    vp = vp44(8)
    g = bin_cloud(cloud(pts, masses), vp)
    assert abs(g.total_mass - masses.sum()) <= 1e-12
    # the same bits as dropping the outside atoms before summing in atom order
    zs = np.array(pts)
    col = np.floor((zs.real - vp.x0) / vp.cell_width)
    row = np.floor((vp.y_top - zs.imag) / vp.cell_height)
    inside = (col >= 0) & (col < vp.nx) & (row >= 0) & (row < vp.ny)
    assert 0.1 < inside.mean() < 0.9  # about a quarter inside
    flat = row[inside].astype(np.int64) * vp.nx + col[inside].astype(np.int64)
    cells = np.bincount(flat, weights=masses[inside], minlength=vp.ny * vp.nx)
    assert g.cells.tobytes() == cells.reshape(vp.ny, vp.nx).tobytes()
    assert np.float64(g.outside_mass).tobytes() == masses[~inside].sum().tobytes()


# what an atom of the block-edge property is: a point inside the 4x4 window,
# one anywhere in a window three times as wide, the point at infinity, or a
# huge finite point (an infinite cell coordinate)
block_atoms = st.tuples(
    st.sampled_from(["inside", "around", "inf", "huge"]),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
)


def block_edge_cloud(atoms):
    points = [
        INF if kind == "inf" else 1e300 + 1e300j if kind == "huge"
        else complex(x, y) * (2.0 if kind == "inside" else 6.0)
        for kind, x, y, _ in atoms
    ]
    return cloud(points, [m for *_, m in atoms])


def block_outputs(c, vp, block):
    """bin_cloud, grid_to_text and render_density (both scales) with the
    block constant set to ``block``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "_BLOCK", block)
        g = bin_cloud(c, vp)
        return (
            g.cells.tobytes(),
            g.outside_mass.hex(),
            grid_to_text(g),
            *(render_density(g, ImageSpec(vp, scale=scale)) for scale in ("linear", "log")),
        )


@given(
    atoms=st.lists(block_atoms, max_size=300),
    block=st.integers(1, 9),
    nx=st.integers(1, 7),
    ny=st.integers(1, 7),
)
def test_blocks_match_one_pass(atoms, block, nx, ny):
    # bin_cloud in atom blocks, and grid_to_text and render_density in row
    # bands, give the bits of one unblocked pass: non-dyadic masses, atoms
    # outside or at infinity on either side of a block edge, a cloud and a
    # grid that the block does not divide
    c = block_edge_cloud(atoms)
    vp = Viewport(center=0j, width=4.0, height=4.0, nx=nx, ny=ny)
    assert block_outputs(c, vp, block) == block_outputs(c, vp, 2**62)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridMeasure(viewport=vp44(4), cells=np.zeros((3, 4)))
    with pytest.raises(ValueError):
        Viewport(center=0j, width=0.0, height=1.0, nx=2, ny=2)


@pytest.mark.parametrize(
    "window",
    [
        {"width": math.nan},
        {"height": math.nan},
        {"width": math.inf},
        {"height": math.inf},
        {"center": complex(math.inf, 0)},
        {"center": complex(0, -math.inf)},
        {"center": complex(math.nan, 0)},
    ],
)
def test_viewport_refuses_non_finite_window(window):
    # a NaN width passes "width <= 0" and would put all mass outside
    with pytest.raises(ValueError, match="finite"):
        Viewport(**{"center": 0j, "width": 4.0, "height": 4.0, "nx": 2, "ny": 2, **window})


@pytest.mark.parametrize(
    "nx, ny", [(8.7, 8), (8, 8.0), (True, 8), (8, False), ("8", 8), (8, None)]
)
def test_viewport_refuses_non_integer_resolution(nx, ny):
    # unchecked, 8.7 would fail only later, as a cells-shape mismatch
    with pytest.raises(ValueError, match="integers"):
        Viewport(0j, 4.0, 4.0, nx, ny)


@pytest.mark.parametrize(
    "window, name",
    [
        ({"width": True}, "width"),
        ({"height": "9"}, "height"),
        ({"center": "1"}, "center"),
        ({"center": None}, "center"),
        ({"width": 10**400}, "width"),
        ({"center": -(10**400)}, "center"),
    ],
)
def test_viewport_refuses_non_number_window(window, name):
    # float() would make True a 1-wide window and "9" a 9-high one, and
    # raise OverflowError for 10**400
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        Viewport(**{"center": 0j, "width": 4.0, "height": 4.0, "nx": 2, "ny": 2, **window})


# ---------------------------------------------------------------------------
# total variation


def two_cell(a, b):
    vp = Viewport(center=0j, width=2.0, height=1.0, nx=2, ny=1)
    return GridMeasure(viewport=vp, cells=np.array([[a, b]]))


def test_tv_identity():
    g = two_cell(0.3, 0.7)
    assert total_variation(g, g) == 0.0


def test_tv_disjoint_unit_masses():
    assert total_variation(two_cell(1.0, 0.0), two_cell(0.0, 1.0)) == 1.0


def test_tv_partial_overlap():
    assert total_variation(two_cell(0.6, 0.4), two_cell(0.4, 0.6)) == pytest.approx(0.2)


def test_tv_counts_outside_mass():
    vp = Viewport(center=0j, width=2.0, height=1.0, nx=2, ny=1)
    g1 = GridMeasure(viewport=vp, cells=np.array([[1.0, 0.0]]), outside_mass=0.0)
    g2 = GridMeasure(viewport=vp, cells=np.array([[0.0, 0.0]]), outside_mass=1.0)
    assert total_variation(g1, g2) == 1.0


def test_tv_viewport_mismatch():
    g1 = two_cell(1.0, 0.0)
    vp = Viewport(center=0j, width=2.0, height=1.0, nx=1, ny=1)
    g2 = GridMeasure(viewport=vp, cells=np.array([[1.0]]))
    with pytest.raises(ViewportMismatch):
        total_variation(g1, g2)


@given(
    st.lists(st.floats(0, 1), min_size=4, max_size=4),
    st.lists(st.floats(0, 1), min_size=4, max_size=4),
    st.lists(st.floats(0, 1), min_size=4, max_size=4),
)
def test_tv_is_a_metric(a, b, c):
    vp = Viewport(center=0j, width=2.0, height=2.0, nx=2, ny=2)
    ga = GridMeasure(viewport=vp, cells=np.array(a).reshape(2, 2))
    gb = GridMeasure(viewport=vp, cells=np.array(b).reshape(2, 2))
    gc = GridMeasure(viewport=vp, cells=np.array(c).reshape(2, 2))
    assert total_variation(ga, gb) == total_variation(gb, ga)
    assert total_variation(ga, ga) == 0.0
    assert total_variation(ga, gb) <= (
        total_variation(ga, gc) + total_variation(gc, gb) + 1e-12
    )


# ---------------------------------------------------------------------------
# hausdorff / distances


def unit_circle(n):
    return np.exp(2j * math.pi * np.arange(n) / n), np.zeros(n, dtype=bool)


def test_hausdorff_identical_sets():
    pts = to_arrays([0j, 1 + 1j, INF])
    assert hausdorff_distance(pts, pts) <= 1e-12


def test_hausdorff_two_singletons():
    expected = chordal_distance(0j, 1 + 0j)
    got = hausdorff_distance(to_arrays([0j]), to_arrays([1 + 0j]))
    assert got == pytest.approx(expected, abs=1e-9)


def test_hausdorff_empty_raises():
    with pytest.raises(EmptySet):
        hausdorff_distance(to_arrays([]), to_arrays([0j]))


def test_embedding_matches_scalar_chordal():
    rng = np.random.default_rng(3)
    pts = [complex(a, b) for a, b in rng.uniform(-3, 3, (20, 2))] + [INF]
    refs = [complex(a, b) for a, b in rng.uniform(-3, 3, (15, 2))] + [INF]
    d = min_distances(to_arrays(pts), to_arrays(refs))
    for i, p in enumerate(pts):
        expected = min(chordal_distance(p, q) for q in refs)
        assert d[i] == pytest.approx(expected, abs=1e-7)


def test_embedding_of_points_past_the_square_overflow():
    # |z|^2 overflows a double here (and |z| itself for the last point); the
    # embedding must still place each point at the pole, silently
    for z in (2e154, 1e200 + 1e200j, 1.7e308 + 1.7e308j):
        for q in (1 + 0j, 0j, -3 + 4j, INF):
            expected = chordal_distance(z, q)
            there = min_distances(to_arrays([z]), to_arrays([q]))
            back = min_distances(to_arrays([q]), to_arrays([z]))
            assert there[0] == pytest.approx(expected, abs=1e-12)
            assert back[0] == pytest.approx(expected, abs=1e-12)


def test_orbit_approximates_circle_in_hausdorff():
    orbit = random_backward_orbit(square_sg(), 1, 1024, seed=31)
    assert hausdorff_distance((orbit.zs, orbit.at_inf), unit_circle(1024)) <= 0.1


def test_circle_chordal_distance_closed_form():
    z = 1.5 * cmath.exp(0.7j)
    d = circle_chordal_distance(*to_arrays([1 + 0j, 0j, INF, z]))
    assert d[0] == 0.0
    assert d[1] == pytest.approx(2 / math.sqrt(2))
    assert d[2] == pytest.approx(2 / math.sqrt(2))
    brute = min(
        chordal_distance(z, cmath.exp(2j * math.pi * k / 100000)) for k in range(100000)
    )
    assert d[3] == pytest.approx(brute, abs=1e-6)


def test_circle_chordal_distance_radius_and_overflow():
    zs, at_inf = to_arrays([2 + 0j, 1.7e308 + 1.7e308j, INF])
    d = circle_chordal_distance(zs, at_inf, radius=2.0)
    assert d[0] == 0.0
    # |z| overflows a double: the point is at infinity, without a warning
    assert d[1] == d[2] == pytest.approx(chordal_distance(INF, 2 + 0j))


def test_distance_decay_profile_from_outside():
    orbit = random_backward_orbit(square_sg(), 3, 50, seed=7)
    profile = min_distances((orbit.zs, orbit.at_inf), unit_circle(4096))
    gap = 2 * math.pi / 4096
    for m, value in enumerate(profile, start=1):
        bound = abs(3 ** (2.0**-m) - 1) + gap
        assert value <= bound + 1e-9
    assert profile[-1] <= gap


def test_distance_decay_profile_on_reference():
    orbit = random_backward_orbit(square_sg(), 1, 30, seed=7)
    profile = min_distances((orbit.zs, orbit.at_inf), unit_circle(8192))
    assert profile.max() <= 2 * math.pi / 8192


def test_distance_decay_profile_inf_reference_is_just_large():
    orbit = random_backward_orbit(square_sg(), 1, 10, seed=7)
    profile = min_distances((orbit.zs, orbit.at_inf), to_arrays([INF]))
    assert np.all(profile > 1.0)  # diagnostic garbage in, large values out


def test_distance_decay_profile_empty_reference():
    orbit = random_backward_orbit(square_sg(), 1, 10, seed=7)
    with pytest.raises(EmptySet):
        min_distances((orbit.zs, orbit.at_inf), to_arrays([]))


# ---------------------------------------------------------------------------
# transfer operator


def re_part(zs, at_inf):
    return zs.real


def test_transfer_operator_modulus_squared():
    value = apply_transfer_operator(
        square_sg(), lambda zs, at_inf: np.abs(zs) ** 2, [1 + 0j], [False]
    )
    assert value[0] == pytest.approx(1.0, abs=1e-12)


def test_transfer_operator_odd_function_cancels():
    value = apply_transfer_operator(square_sg(), re_part, [1 + 0j], [False])
    assert value[0] == pytest.approx(0.0, abs=1e-12)


def test_transfer_operator_two_generators():
    value = apply_transfer_operator(annulus_sg(), re_part, [1 + 0j], [False])
    assert value[0] == pytest.approx(0.0, abs=1e-12)


def cubic_rational_sg():
    # z^3 + 0.3 and (z^2 + 0.5)/(1.5z): branch masses 1/6 and 1/4, not dyadic
    return Semigroup(
        (rational_map([0.3, 0, 0, 1]), rational_map([0.5, 0, 1], [0, 1.5])),
        ProbabilityVector([0.5, 0.5]),
    )


def annulus_points(n=200):
    rng = np.random.default_rng(0)
    return rng.uniform(1, 4, n) * np.exp(2j * np.pi * rng.random(n))


def depth_one_tree_transfer(sg, phi, zs, at_inf):
    # T phi at each point as its depth-1 tree weighs it: the atoms' masses
    # times phi, summed from 0.0 in branch order
    out = []
    for z, inf in zip(zs.tolist(), at_inf.tolist()):
        level = full_backward_tree(sg, INF if inf else z, 1, check_start=False)
        t = 0.0
        for mass, value in zip(level.masses.tolist(), phi(level.zs, level.at_inf).tolist()):
            t += mass * value
        out.append(t)
    return np.array(out)


def mixed_level():
    # INF, a point past the closed form's range test, and ordinary points
    huge = 1e200 - 3e199j
    assert not quadratic_level(annulus_sg().generators, np.array([huge]))[1].any()
    zs = np.concatenate([[0j, huge, 0.25 + 0j], annulus_points(20)])
    return zs, np.arange(zs.size) == 0


@pytest.mark.parametrize(
    "sg, level",
    [
        (annulus_sg(), lambda: (annulus_points(), np.zeros(200, dtype=bool))),
        # a guard: these rows take preimages_batch in the tree as well
        (cubic_rational_sg(), lambda: (annulus_points(), np.zeros(200, dtype=bool))),
        (annulus_sg(), mixed_level),
    ],
    ids=["annulus", "cubic-rational", "annulus-inf-and-huge"],
)
@pytest.mark.parametrize("phi", [sphere_re, sphere_im], ids=["re", "im"])
def test_transfer_operator_is_a_depth_one_tree_bit_for_bit(sg, level, phi):
    zs, at_inf = level()
    got = apply_transfer_operator(sg, phi, zs, at_inf)
    assert got.tobytes() == depth_one_tree_transfer(sg, phi, zs, at_inf).tobytes()


@pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(math.inf, 0)], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "sg", [square_sg(), Semigroup((rational_map([0.3, 0, 0, 1]),))], ids=["z^2", "z^3+0.3"]
)
def test_transfer_operator_refuses_a_non_finite_point_not_at_infinity(sg, bad):
    zs = np.array([0.5 + 0.5j, bad])
    with pytest.raises(ValueError, match="finite"):
        apply_transfer_operator(sg, sphere_re, zs, np.zeros(2, dtype=bool))
    # the same entry is only a placeholder where the point is at infinity
    assert np.isfinite(apply_transfer_operator(sg, sphere_re, zs, np.array([False, True]))).all()


@pytest.mark.parametrize(
    "zs, at_inf",
    [([1 + 0j, 2j], [False]), ([1 + 0j], [False, False]), ([[1 + 0j]], [[False]]), (1 + 0j, False)],
    ids=["more-points", "more-flags", "two-dimensional", "scalar"],
)
def test_transfer_operator_refuses_point_arrays_of_other_shapes(zs, at_inf):
    with pytest.raises(ValueError, match="at-infinity mask"):
        apply_transfer_operator(square_sg(), sphere_re, zs, at_inf)


def test_invariance_of_regular_polygon():
    pts = [cmath.exp(2j * math.pi * k / 360) for k in range(360)]
    polygon = cloud(pts)
    report = check_invariance(square_sg(), polygon, [("re", re_part)])
    assert report["re"] <= 1e-12


def test_invariance_detects_point_mass():
    atom = cloud([1 + 0j], [1.0])
    report = check_invariance(square_sg(), atom, [("re", re_part)])
    assert report["re"] == pytest.approx(1.0, abs=1e-12)


def test_invariance_subsampling_agrees_with_exact():
    orbit = random_backward_orbit(square_sg(), 1, 30_000, seed=13)
    from semijulia.backward import empirical_measure
    from semijulia.semigroup import make_rng

    c = empirical_measure(orbit, 100)
    exact = check_invariance(square_sg(), c, default_test_functions())
    sampled = check_invariance(
        square_sg(), c, default_test_functions(), rng=make_rng(4), max_atoms=10_000
    )
    for name in exact:
        assert abs(exact[name] - sampled[name]) <= 0.02


def subsample_masses(kind, n):
    rng = np.random.default_rng(n)
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    masses = rng.random(n) ** 3
    if kind == "some zero":
        masses[rng.random(n) < 0.3] = 0.0
        masses[0] = masses[-1] = 0.0  # none at either end of the cdf
        masses[n // 2] = 0.5
        # none on either side of each edge between two blocks of the cdf
        for edge in range(measure._BLOCK, n, measure._BLOCK):
            masses[edge - 3 : edge + 3] = 0.0
    return masses


@pytest.mark.parametrize("kind", ["uniform", "non-uniform", "some zero"])
@pytest.mark.parametrize(
    "n, size", [(5, 4), (1000, 77), (1000, 999), (60_000, 20_000), (200_003, 20_000)]
)
@pytest.mark.parametrize("seed", [0, 4, 2**40 + 1])
def test_invariance_subsample_draws_the_atoms_rng_choice_draws(monkeypatch, kind, n, size, seed):
    # the subsample is rng.choice(n, size, p=masses / total), same indices in
    # the same order, drawn from the same stream: a numpy whose choice draws
    # differently fails here; 200,003 atoms span four blocks of the cdf
    masses = subsample_masses(kind, n)
    c = WeightedPointCloud(np.arange(n, dtype=complex), np.zeros(n, dtype=bool), masses)
    seen, real = [], measure._transfer
    monkeypatch.setattr(
        measure, "_transfer", lambda sg, fns, z, inf: seen.append(z.real.copy()) or real(sg, fns, z, inf)
    )
    rng = make_rng(seed)
    check_invariance(square_sg(), c, [("re", re_part)], rng, max_atoms=size)
    want_rng = make_rng(seed)
    want = want_rng.choice(n, size=size, p=masses / c.total_mass)
    assert np.array_equal(np.concatenate(seen), want)
    assert rng.random() == want_rng.random()


@pytest.mark.parametrize("max_atoms", [0, -5])
def test_invariance_refuses_a_subsample_below_one_atom(max_atoms):
    c = cloud([1 + 0j, -1 + 0j])
    with pytest.raises(ValueError, match="max_atoms"):
        check_invariance(
            square_sg(), c, [("re", re_part)], make_rng(4), max_atoms=max_atoms
        )


@pytest.mark.parametrize("max_atoms", [200_000, 2], ids=["whole", "subsampled"])
def test_invariance_refuses_a_cloud_of_zero_total_mass(max_atoms):
    c = cloud([1 + 0j, -1 + 0j, 1j], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="zero total mass"):
        check_invariance(square_sg(), c, [("re", re_part)], make_rng(4), max_atoms=max_atoms)


@pytest.mark.parametrize("max_atoms", [200_000, 1], ids=["whole", "subsampled"])
def test_invariance_refuses_a_cloud_whose_total_mass_overflows(max_atoms):
    # the total is inf, and every value would read 0.0: abs(v) / inf
    c = cloud([1 + 0j, 1j], [1e308, 1e308])
    with pytest.raises(ValueError, match="overflows a double"):
        check_invariance(
            square_sg(), c, default_test_functions(), make_rng(4), max_atoms=max_atoms
        )


def test_default_test_functions_are_total():
    # 0, 3+4i, INF (its zs entry is ignored) and 1e200
    zs = np.array([0j, 3 + 4j, 0j, 1e200 + 0j])
    at_inf = np.array([False, False, True, False])
    for _, phi in default_test_functions():
        v = phi(zs, at_inf)
        assert np.all(np.isfinite(v))


# ---------------------------------------------------------------------------
# check_invariance against the scalar per-atom loop it replaced (oracle)


def scalar_test_functions():
    """default_test_functions() as scalar functions of one sphere point."""

    def re(z):
        return 0.0 if z is INF else z.real

    def im(z):
        return 0.0 if z is INF else z.imag

    def modulus_ratio(z):
        if z is INF or abs(z) > 1e150:
            return 1.0
        r2 = abs(z) * abs(z)
        return r2 / (1.0 + r2)

    def bump(center):
        return lambda z: math.exp(-((chordal_distance(z, center) / 0.75) ** 2))

    return [
        ("re", re),
        ("im", im),
        ("modulus_ratio", modulus_ratio),
        ("bump@1+0j", bump(1 + 0j)),
        ("bump@-1+0j", bump(-1 + 0j)),
    ]


def test_test_functions_where_the_modulus_overflows_a_double():
    # both parts finite, |z| (or twice it) past the largest double: the
    # bounded test functions take their value at infinity, without a warning
    zs = np.array([1.7e308 + 1.7e308j, -1e308 - 1.5e308j, 1.2e308 + 1.2e308j, 0j])
    at_inf = np.array([False, False, False, True])
    for name, phi in default_test_functions():
        if name not in ("re", "im"):  # the coordinates are unbounded
            values = phi(zs, at_inf)
            assert np.all(values == values[-1]), name
    # a huge modulus whose formulas fit a double keeps the finite-point value
    scalar = dict(scalar_test_functions())
    for z in (1e200 + 1e200j, 1e307 - 1e306j):
        for name, phi in default_test_functions():
            value = phi(np.array([z]), np.array([False]))[0]
            assert value == pytest.approx(scalar[name](z), rel=1e-12), name


def scalar_check_invariance(sg, cloud, phis, rng=None, max_atoms=200_000):
    # the cloud's points as a list, INF where at_inf is set
    listed = [INF if inf else z for z, inf in zip(cloud.zs.tolist(), cloud.at_inf.tolist())]
    n = len(listed)
    total = cloud.total_mass
    if rng is not None and n > max_atoms:
        idx = rng.choice(n, size=max_atoms, p=cloud.masses / total)
        points = [listed[i] for i in idx]
        weights = np.full(max_atoms, total / max_atoms)
    else:
        points, weights = listed, cloud.masses
    acc = {name: 0.0 for name, _ in phis}
    for z, w in zip(points, weights):
        pres = [preimages(g, z) for g in sg.generators]
        for name, phi in phis:
            t = 0.0
            for j, g in enumerate(sg.generators):
                for p in pres[j]:
                    t += sg.b.weights[j] / g.degree * phi(p)
            acc[name] += w * (t - phi(z))
    return {name: abs(v) / total for name, v in acc.items()}


def assert_invariance_matches_oracle(sg, c, **subsample):
    seed = subsample.pop("seed", None)
    rng = (lambda: make_rng(seed)) if seed is not None else (lambda: None)
    got = check_invariance(sg, c, default_test_functions(), rng(), **subsample)
    want = scalar_check_invariance(sg, c, scalar_test_functions(), rng(), **subsample)
    assert list(got) == list(want)
    for name in want:
        assert abs(got[name] - want[name]) <= 1e-12, name


def test_invariance_matches_oracle_on_annulus_chain():
    c = run_chains(annulus_sg(), 1, 3_000, 2, burn_in=100, seeds=[5, 6])
    assert_invariance_matches_oracle(annulus_sg(), c)
    # the subsample is the same draw from the same generator stream
    assert_invariance_matches_oracle(annulus_sg(), c, seed=11, max_atoms=2_000)


def test_invariance_matches_oracle_on_cubic_rational_chain():
    sg = Semigroup(
        (rational_map([0.3, 0, 0, 1]), rational_map([0.5, 0, 1], [0, 1.5])),
        ProbabilityVector([0.5, 0.5]),
    )
    c = run_chains(sg, 0.4 + 0.3j, 1_500, 2, burn_in=100, seeds=[7, 8])
    assert_invariance_matches_oracle(sg, c)


def test_invariance_matches_oracle_with_atoms_at_infinity_and_degree_drop():
    # (z^2+1)/(z^2+2) sends both preimages of 1 to infinity, and the
    # preimages of infinity are the denominator roots
    sg = Semigroup((rational_map([1, 0, 1], [2, 0, 1]),))
    c = cloud([INF, 1 + 0j, 0.3 + 0.2j, -2j, INF], [0.3, 0.2, 0.2, 0.2, 0.1])
    assert_invariance_matches_oracle(sg, c)


# ---------------------------------------------------------------------------
# streaming tree binning


def test_full_tree_grid_matches_materialized():
    sg = annulus_sg()
    vp = Viewport(center=0j, width=5.0, height=5.0, nx=16, ny=16)
    direct = bin_cloud(full_backward_tree(sg, 1, 5), vp)
    streamed = full_tree_grid(sg, 1, 5, vp, chunk=8)  # tiny chunk forces splits
    assert np.allclose(direct.cells, streamed.cells, atol=1e-12)
    assert streamed.outside_mass == pytest.approx(direct.outside_mass, abs=1e-12)


def test_full_tree_grid_block_size_keeps_dyadic_cells():
    # annulus masses are dyadic, so the 4^6 atoms sum to the same bytes in
    # one block or in blocks of 64
    sg, vp = annulus_sg(), Viewport(center=0j, width=9.0, height=9.0, nx=64, ny=64)
    whole = full_tree_grid(sg, 1, 6, vp)
    blocks = full_tree_grid(sg, 1, 6, vp, chunk=64)
    assert blocks.cells.tobytes() == whole.cells.tobytes()
    assert blocks.outside_mass == whole.outside_mass


def test_full_tree_grid_scalar_generators():
    # (z^2+1)/z, and (z^2+1)/(z^2+2), whose tree has INF atoms
    for den in ([0, 1], [2, 0, 1]):
        sg = Semigroup(
            (rational_map([0, 0, 1]), rational_map([1, 0, 1], den)),
            ProbabilityVector([0.5, 0.5]),
        )
        vp = Viewport(center=0j, width=6.0, height=6.0, nx=8, ny=8)
        direct = bin_cloud(full_backward_tree(sg, 1, 3, check_start=False), vp)
        streamed = full_tree_grid(sg, 1, 3, vp, chunk=4, check_start=False)
        assert np.allclose(direct.cells, streamed.cells, atol=1e-12)
        assert streamed.outside_mass == pytest.approx(direct.outside_mass, abs=1e-12)


def test_full_tree_grid_split_across_workers_keeps_dyadic_cells(cpus):
    # chunk 64 cuts the 4^6-atom tree into 4 subtrees of 4^5 atoms; binned
    # in turn or in workers, they add up to the one-block grid's bytes
    sg, vp = annulus_sg(), Viewport(center=0j, width=9.0, height=9.0, nx=64, ny=64)
    split = full_tree_grid(sg, 1, 6, vp, chunk=64)
    count, lookups = cpus
    assert len(lookups) == (count > 1)
    whole = full_tree_grid(sg, 1, 6, vp, chunk=4**6)  # one subtree: no pool
    assert len(lookups) == (count > 1)
    assert split.cells.tobytes() == whole.cells.tobytes()
    assert split.outside_mass == whole.outside_mass


def test_full_tree_grid_same_bytes_on_any_cpu_count(cpus, monkeypatch):
    # non-dyadic masses: the grid depends on the subtree cut, which chunk
    # fixes, and not on where the subtrees were binned
    import semijulia.workers as workers

    sg, vp = cubic_rational_sg(), Viewport(center=0j, width=4.0, height=4.0, nx=16, ny=16)
    grid = full_tree_grid(sg, 0.5, 4, vp, chunk=8)  # 5 subtrees of 5^3 atoms
    assert len(cpus[1]) == (cpus[0] > 1)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
    in_process = full_tree_grid(sg, 0.5, 4, vp, chunk=8)
    assert grid.cells.tobytes() == in_process.cells.tobytes()
    assert grid.outside_mass == in_process.outside_mass
    direct = bin_cloud(full_backward_tree(sg, 0.5, 4), vp)
    assert np.allclose(grid.cells, direct.cells, rtol=1e-13, atol=0)
    assert grid.outside_mass == pytest.approx(direct.outside_mass, rel=1e-13)


def test_full_tree_grid_adds_each_subtree_atom_by_atom(monkeypatch):
    # non-dyadic masses pin the order: each subtree adds its atoms one by one,
    # in the order its blocks are yielded, into its own zeroed slot, and the
    # slots are added in subtree order; no block is summed on its own first
    import semijulia.workers as workers

    # 8x8 cells: many a cell meets several atoms of one block
    sg, vp = cubic_rational_sg(), Viewport(center=0j, width=4.0, height=4.0, nx=8, ny=8)
    subtrees = tree_subtrees(sg, 0.5, 4, 8)
    assert len(subtrees) == 5
    cells, outside = np.zeros((vp.ny, vp.nx)), 0.0
    for subtree in subtrees:
        blocks = list(subtree_blocks(sg, subtree))
        assert len(blocks) == 25
        slot, slot_outside = np.zeros(vp.ny * vp.nx), 0.0
        flats, weights = [], []
        for zs, at_inf, masses in blocks:
            col = np.floor((zs.real - vp.x0) / vp.cell_width)
            row = np.floor((vp.y_top - zs.imag) / vp.cell_height)
            inside = ~at_inf & (col >= 0) & (col < vp.nx) & (row >= 0) & (row < vp.ny)
            flats.append(row[inside].astype(np.int64) * vp.nx + col[inside].astype(np.int64))
            weights.append(masses[inside])
            slot_outside += float(masses[~inside].sum())
        np.add.at(slot, np.concatenate(flats), np.concatenate(weights))
        cells += slot.reshape(vp.ny, vp.nx)
        outside += slot_outside
    grid = full_tree_grid(sg, 0.5, 4, vp, chunk=8)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
    in_process = full_tree_grid(sg, 0.5, 4, vp, chunk=8)
    for g in (grid, in_process):
        assert g.cells.tobytes() == cells.tobytes()
        assert g.outside_mass == outside


def test_full_tree_grid_reraises_worker_solver_divergence(cpus, monkeypatch, circle_start):
    # the subtree roots are solved with the full sweep budget; then a
    # two-sweep budget fails the first cubic fibre of every subtree (from the
    # circle start), inside its worker, and the parent sees the scalar call's
    # error
    import semijulia.ratmap as ratmap

    real, roots = measure.tree_subtrees, []

    def tree_subtrees(*args):
        subtrees = real(*args)
        roots.append(complex(subtrees[0][0][0]))
        monkeypatch.setattr(ratmap, "_MAX_SWEEPS", 2)
        return subtrees

    monkeypatch.setattr(measure, "tree_subtrees", tree_subtrees)
    sg = Semigroup((rational_map([0.3, 0, 0, 1]),))
    with pytest.raises(SolverDivergence) as err:
        full_tree_grid(sg, 0.5, 3, vp44(), chunk=2, check_start=False)  # 3 subtrees
    assert len(cpus[1]) == (cpus[0] > 1)
    with pytest.raises(SolverDivergence) as scalar:
        preimages(sg.generators[0], roots[0])
    assert err.value.coeffs == scalar.value.coeffs


# ---------------------------------------------------------------------------
# memory: every pass over a cloud or a grid holds block-sized temporaries


@pytest.mark.parametrize("log2_atoms", [18, 20])
def test_peak_memory_is_bounded_by_the_block(log2_atoms):
    # tracemalloc counts numpy's allocations.  Each bound is the call's own
    # output plus a few float blocks, the same for 2^18 and 2^20 atoms; one
    # pass over the whole cloud or the 512^2 grid needs more
    n = 2**log2_atoms
    rng = np.random.default_rng(log2_atoms)
    zs = np.sqrt(rng.uniform(1, 16, n)) * np.exp(2j * np.pi * rng.random(n))
    c = WeightedPointCloud(zs, np.zeros(n, dtype=bool), np.broadcast_to(1.0 / n, (n,)))
    vp = Viewport(center=0j, width=9.0, height=9.0, nx=512, ny=512)
    block = 8 * measure._BLOCK  # bytes of one block of floats
    cells = vp.nx * vp.ny
    peaks = {}

    def peak(name, call):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        peaks[name] = tracemalloc.get_traced_memory()[1] - before
        return out

    tracemalloc.start()
    try:
        g = peak("bin_cloud", lambda: bin_cloud(c, vp))
        peak(
            "check_invariance",
            lambda: check_invariance(
                square_sg(), c, [("re", sphere_re)], make_rng(1), max_atoms=2**14
            ),
        )
        # the cubic's and the rational map's fibres go to the batch root
        # solver, whose temporaries its row blocks bound
        peak(
            "check_invariance, cubic-rational",
            lambda: check_invariance(
                cubic_rational_sg(), c, [("re", sphere_re)], make_rng(1), max_atoms=2**14
            ),
        )
        text = peak("grid_to_text", lambda: grid_to_text(g))
        peak("render_density", lambda: render_density(g, ImageSpec(vp)))
    finally:
        tracemalloc.stop()
    bounds = {
        "bin_cloud": 8 * cells + 4 * block,  # the grid
        "check_invariance": 6 * block,
        "check_invariance, cubic-rational": 12 * block,
        "grid_to_text": 2 * len(text) + 2 * block,  # its lines, then the text
        "render_density": 3 * 3 * cells + 8 * block,  # pixels, their bytes, the PPM
    }
    assert g.total_mass == pytest.approx(1.0)
    for name, bound in bounds.items():
        assert peaks[name] <= bound, (name, peaks[name], bound)


# ---------------------------------------------------------------------------
# text export


def test_grid_text_round_trip():
    g = bin_cloud(cloud([0.2 + 0.3j, INF], [0.75, 0.25]), vp44(3))
    text = grid_to_text(g)
    back = grid_from_text(text)
    assert back.viewport == g.viewport
    assert np.array_equal(back.cells, g.cells)
    assert back.outside_mass == g.outside_mass
    assert grid_to_text(back) == text


def test_grid_text_is_stable():
    g = bin_cloud(cloud([0.1 + 0.1j], [1.0]), vp44(2))
    assert grid_to_text(g) == grid_to_text(g)
    assert grid_to_text(g).startswith("semijulia-grid 1\n")


def per_value_text(g):
    # the export's rows as one repr per cell, the reference for each row
    return [" ".join(repr(float(v)) for v in row) for row in g.cells]


def test_grid_text_formats_every_bit_pattern_like_its_value():
    # each distinct value is formatted once, keyed by its bits: -0.0 and the
    # NaNs (two signs, a payload) keep their own repr
    rng = np.random.default_rng(3)
    special = np.array(
        [0.0, -0.0, np.nan, -np.nan, math.inf, 5e-324, 1.7976931348623157e308]
    )
    payload_nan = np.array([0x7FF8000000000123], dtype=np.uint64).view(float)
    values = np.concatenate(
        [special, payload_nan, rng.random(10_000), rng.choice(special, 200)]
    )
    values = np.concatenate([values, np.zeros(100 * 103 - values.size)])
    rng.shuffle(values)
    vp = Viewport(center=0j, width=4.0, height=4.0, nx=103, ny=100)
    g = GridMeasure(viewport=vp, cells=values.reshape(100, 103), outside_mass=0.0)
    lines = grid_to_text(g).split("\n")
    assert lines[5:] == [*per_value_text(g), ""]


@pytest.mark.parametrize("block", [1, 103, 250, 103 * 7 + 5])
def test_grid_text_in_row_bands_matches_one_pass(monkeypatch, block):
    # bands of 1, 1, 2 and 7 rows over 100 rows of 103 cells: each band
    # formats its own distinct values, the text is that of one pass
    rng = np.random.default_rng(4)
    values = np.concatenate([[0.0, -0.0, np.nan, math.inf], rng.random(300)])
    vp = Viewport(center=0j, width=4.0, height=4.0, nx=103, ny=100)
    g = GridMeasure(viewport=vp, cells=rng.choice(values, (100, 103)), outside_mass=0.25)
    whole = grid_to_text(g)
    monkeypatch.setattr(measure, "_BLOCK", block)
    assert grid_to_text(g) == whole
    assert whole.split("\n")[5:] == [*per_value_text(g), ""]


def test_grid_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        grid_from_text("not a grid\n1 2 3\n")


def test_cesaro_average_simple():
    orbit = random_backward_orbit(square_sg(), 1, 50, seed=2)
    avg = cesaro_average(orbit, lambda zs, at_inf: np.abs(zs))
    assert avg == pytest.approx(1.0, abs=1e-9)


def test_cesaro_average_refuses_negative_burn_in():
    orbit = random_backward_orbit(square_sg(), 1, 50, seed=2)
    with pytest.raises(ValueError, match="burn_in"):
        cesaro_average(orbit, lambda zs, at_inf: zs.real, burn_in=-3)


def test_cesaro_average_refuses_burn_in_past_the_orbit():
    orbit = random_backward_orbit(square_sg(), 1, 50, seed=2)
    for burn_in in (50, 51):
        with pytest.raises(EmptyTail, match="burn_in"):
            cesaro_average(orbit, lambda zs, at_inf: zs.real, burn_in=burn_in)


def test_full_vs_random_agree_on_segment_measure():
    # z^2 - 2 carries the arcsine law on [-2, 2]; a depth-16 tree and four
    # 250k-step chains must land on the same 128x128 discretization
    from semijulia.backward import run_chains

    sg = Semigroup((rational_map([-2, 0, 1]),))
    vp = Viewport(center=0j, width=5.0, height=5.0, nx=128, ny=128)
    tree_grid = bin_cloud(full_backward_tree(sg, 0, 16), vp)
    chain_grid = bin_cloud(
        run_chains(sg, 0, 250_000, 4, burn_in=100, seeds=[61, 62, 63, 64]), vp
    )
    assert total_variation(tree_grid, chain_grid) <= 0.05
