import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semijulia.backward import (
    WeightedPointCloud,
    full_backward_tree,
    random_backward_orbit,
    run_chains,
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
    distance_decay_profile,
    full_tree_grid,
    grid_from_text,
    grid_to_text,
    hausdorff_distance,
    min_distances,
    total_variation,
)
from semijulia.ratmap import preimages, rational_map
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


def test_bin_atom_at_infinity_goes_outside():
    g = bin_cloud(cloud([INF], [1.0]), vp44())
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
    g = bin_cloud(cloud(pts, masses), vp44(8))
    assert abs(g.total_mass - masses.sum()) <= 1e-12


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


def test_hausdorff_identical_sets():
    pts = [0j, 1 + 1j, INF]
    assert hausdorff_distance(pts, pts) <= 1e-12


def test_hausdorff_two_singletons():
    expected = chordal_distance(0j, 1 + 0j)
    assert hausdorff_distance([0j], [1 + 0j]) == pytest.approx(expected, abs=1e-9)


def test_hausdorff_empty_raises():
    with pytest.raises(EmptySet):
        hausdorff_distance([], [0j])


def test_embedding_matches_scalar_chordal():
    rng = np.random.default_rng(3)
    pts = [complex(a, b) for a, b in rng.uniform(-3, 3, (20, 2))] + [INF]
    refs = [complex(a, b) for a, b in rng.uniform(-3, 3, (15, 2))] + [INF]
    d = min_distances(pts, refs)
    for i, p in enumerate(pts):
        expected = min(chordal_distance(p, q) for q in refs)
        assert d[i] == pytest.approx(expected, abs=1e-7)


def test_orbit_approximates_circle_in_hausdorff():
    orbit = random_backward_orbit(square_sg(), 1, 1024, seed=31)
    refs = [cmath.exp(2j * math.pi * k / 1024) for k in range(1024)]
    assert hausdorff_distance(orbit.points, refs) <= 0.1


def test_circle_chordal_distance_closed_form():
    assert circle_chordal_distance(1 + 0j) == 0.0
    assert circle_chordal_distance(0j) == pytest.approx(2 / math.sqrt(2))
    assert circle_chordal_distance(INF) == pytest.approx(2 / math.sqrt(2))
    z = 1.5 * cmath.exp(0.7j)
    brute = min(
        chordal_distance(z, cmath.exp(2j * math.pi * k / 100000)) for k in range(100000)
    )
    assert circle_chordal_distance(z) == pytest.approx(brute, abs=1e-6)


def test_distance_decay_profile_from_outside():
    orbit = random_backward_orbit(square_sg(), 3, 50, seed=7)
    refs = [cmath.exp(2j * math.pi * k / 4096) for k in range(4096)]
    profile = distance_decay_profile(orbit, refs)
    gap = 2 * math.pi / 4096
    for m, value in enumerate(profile, start=1):
        bound = abs(3 ** (2.0**-m) - 1) + gap
        assert value <= bound + 1e-9
    assert profile[-1] <= gap


def test_distance_decay_profile_on_reference():
    orbit = random_backward_orbit(square_sg(), 1, 30, seed=7)
    refs = [cmath.exp(2j * math.pi * k / 8192) for k in range(8192)]
    assert distance_decay_profile(orbit, refs).max() <= 2 * math.pi / 8192


def test_distance_decay_profile_inf_reference_is_just_large():
    orbit = random_backward_orbit(square_sg(), 1, 10, seed=7)
    profile = distance_decay_profile(orbit, [INF])
    assert np.all(profile > 1.0)  # diagnostic garbage in, large values out


def test_distance_decay_profile_empty_reference():
    orbit = random_backward_orbit(square_sg(), 1, 10, seed=7)
    with pytest.raises(EmptySet):
        distance_decay_profile(orbit, [])


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


def scalar_check_invariance(sg, cloud, phis, rng=None, max_atoms=200_000):
    n = len(cloud.points)
    total = cloud.total_mass
    if rng is not None and n > max_atoms:
        idx = rng.choice(n, size=max_atoms, p=cloud.masses / total)
        points = [cloud.points[i] for i in idx]
        weights = np.full(max_atoms, total / max_atoms)
    else:
        points, weights = cloud.points, cloud.masses
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


def test_grid_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        grid_from_text("not a grid\n1 2 3\n")


def test_cesaro_average_simple():
    orbit = random_backward_orbit(square_sg(), 1, 50, seed=2)
    avg = cesaro_average(orbit, lambda zs, at_inf: np.abs(zs))
    assert avg == pytest.approx(1.0, abs=1e-9)


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
