import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semijulia.backward import (
    BackwardOrbit,
    EmptyTail,
    WeightedPointCloud,
    empirical_measure,
    expand_level,
    full_backward_tree,
    random_backward_orbit,
    run_chains,
    subtree_blocks,
    tree_atoms,
    tree_subtrees,
)
from semijulia.measure import Viewport, bin_cloud, cesaro_average
from semijulia.ratmap import (
    SolverDivergence,
    evaluate,
    preimages,
    preimages_batch,
    quadratic_level,
    rational_map,
)
from semijulia.semigroup import (
    ProbabilityVector,
    Semigroup,
    build_index_distribution,
    make_rng,
    sample_branch_block,
)
from semijulia.sphere import INF, chordal_distance, to_arrays


def square_sg():
    return Semigroup((rational_map([0, 0, 1]),))


def annulus_sg():
    return Semigroup(
        (rational_map([0, 0, 1]), rational_map([0, 0, 0.25])),
        ProbabilityVector([0.5, 0.5]),
    )


# the second map's preimages are huge, so a level holding them fails the
# bound of the closed form while the first map's small points pass it
SMALL_AND_HUGE = [([0.1 + 0.2j, 0.3, 0.25],), ([0, 0, 1e-10],)]


def sphere_points(a):
    """The points of a cloud or an orbit as a list, INF where ``at_inf`` is set."""
    return [INF if inf else z for z, inf in zip(a.zs.tolist(), a.at_inf.tolist())]


def as_sorted_pairs(points):
    return sorted((round(p.real, 9), round(p.imag, 9)) for p in points)


def assert_multisets_close(xs, ys, tol=1e-9):
    # greedy nearest matching; robust to 1-ulp ties that break sort order
    assert len(xs) == len(ys)
    remaining = list(ys)
    for x in xs:
        dists = [chordal_distance(x, y) for y in remaining]
        k = min(range(len(dists)), key=dists.__getitem__)
        assert dists[k] <= tol, f"{x} has no partner within {tol}"
        remaining.pop(k)


# ---------------------------------------------------------------------------
# full backward tree


def test_tree_depth_one_square():
    cloud = full_backward_tree(square_sg(), 1, 1)
    assert as_sorted_pairs(cloud.zs.tolist()) == [(-1.0, 0.0), (1.0, -0.0)]
    assert np.allclose(cloud.masses, 0.5)


def test_tree_depth_two_square():
    cloud = full_backward_tree(square_sg(), 1, 2)
    assert as_sorted_pairs(cloud.zs.tolist()) == [
        (-1.0, 0.0),
        (-0.0, -1.0),
        (-0.0, 1.0),
        (1.0, -0.0),
    ]
    assert np.allclose(cloud.masses, 0.25)


def test_tree_depth_one_two_generators():
    cloud = full_backward_tree(annulus_sg(), 1, 1)
    assert as_sorted_pairs(cloud.zs.tolist()) == [
        (-2.0, 0.0),
        (-1.0, 0.0),
        (1.0, -0.0),
        (2.0, -0.0),
    ]
    assert np.allclose(cloud.masses, 0.25)


@pytest.mark.parametrize("depth", [0, 1, 3, 6])
def test_tree_mass_conservation(depth):
    sg = Semigroup(
        (rational_map([0, 0, 1]), rational_map([0.1, 0, 0, 1])),
        ProbabilityVector([0.3, 0.7]),
    )
    cloud = full_backward_tree(sg, 1, depth)
    assert len(cloud) == sg.total_degree**depth
    assert abs(cloud.total_mass - 1.0) <= 1e-9


def test_tree_level_recursion():
    # level m+1 is the multiset of all branch preimages of level m
    sg = annulus_sg()
    lvl2 = full_backward_tree(sg, 1, 2)
    lvl3 = full_backward_tree(sg, 1, 3)
    expanded = []
    for p in sphere_points(lvl2):
        for g in sg.generators:
            expanded.extend(preimages(g, p))
    assert_multisets_close(expanded, sphere_points(lvl3))


def test_tree_forward_consistency():
    sg = annulus_sg()
    dist = build_index_distribution(sg)
    d = sg.total_degree
    parents = full_backward_tree(sg, 1, 2)
    children = full_backward_tree(sg, 1, 3)
    parent_points = sphere_points(parents)
    for idx, w in enumerate(sphere_points(children)):
        parent = parent_points[idx // d]
        j, _ = dist.decode[idx % d]
        assert chordal_distance(evaluate(sg.generators[j], w), parent) <= 1e-9


def scalar_level(sg, level):
    """The oracle for one tree level: every branch preimage of every point,
    parent-major, through scalar preimages."""
    return [w for p in level for g in sg.generators for w in preimages(g, p)]


def test_scalar_and_vectorized_expansion_agree():
    # children of each parent must agree as multisets; same-generator
    # branches carry equal mass, so intra-block order is immaterial
    sg = annulus_sg()
    d = sg.total_degree
    pts = [1 + 0j, 0.5 - 0.25j, -2 + 1j, 0.01 + 3j]
    fast, done = quadratic_level(sg.generators, np.asarray(pts, dtype=complex))  # branch-major
    slow = scalar_level(sg, pts)
    assert fast.shape == (d, len(pts)) and done.all()
    for k in range(len(pts)):
        assert_multisets_close(fast[:, k].tolist(), slow[k * d : (k + 1) * d])


@pytest.mark.parametrize(
    "second",
    [([1, 0, 1], [0, 1]), ([1, 0, 1], [2, 0, 1]), ([0.2, 0.3 + 0.7j],)],
    ids=["(z^2+1)/z", "(z^2+1)/(z^2+2), with INF atoms", "0.2+(0.3+0.7i)z"],
)
def test_tree_equals_scalar_level_oracle(second):
    # the batched levels are bitwise the scalar ones, INF atoms included; a
    # degree-1 generator sends every level through preimages_batch as well
    sg = Semigroup(
        (rational_map([0, 0, 1]), rational_map(*second)),
        ProbabilityVector([0.5, 0.5]),
    )
    level = [1 + 0j]
    for _ in range(5):
        level = scalar_level(sg, level)
    tree = full_backward_tree(sg, 1, 5, check_start=False)
    assert repr(sphere_points(tree)) == repr(level)


def test_tree_of_a_map_that_needs_the_rescale_is_the_batch_tree():
    # 1e-200 z^2 over 1e-200: unscaled, the closed form of quadratic_level
    # gives -inf+nanj and 0 with a RuntimeWarning (an error in this suite),
    # where preimages rescales the fibre and gives -1 and 1; the next level
    # meets degree drops
    sg = Semigroup((rational_map([0, 0, 1e-200]),))
    level = [1e-200 + 0j]
    for depth in range(1, 4):
        level = scalar_level(sg, level)
        tree = full_backward_tree(sg, 1e-200, depth, check_start=False)
        assert repr(sphere_points(tree)) == repr(level)
    assert level[0] is INF


def test_level_whose_closed_form_meets_a_zero_q_is_the_batch_level(monkeypatch):
    # 2^-500 z^2 at 1e-200: the fibre passes the closed form's range test,
    # but b = 0 and 4ac underflows, so the closed form meets q = 0 and leaves
    # the point to preimages_batch, which rescales; unmended, c / q divides
    # by zero
    import semijulia.backward as backward

    f = rational_map([0, 0, 2.0**-500])
    tried, real = [], backward.quadratic_level

    def spy(maps, zs):
        kids, done = real(maps, zs)
        tried.append(done.tolist())
        return kids, done

    monkeypatch.setattr(backward, "quadratic_level", spy)
    zs, at_inf = np.array([1e-200 + 0j]), np.zeros(1, dtype=bool)
    kids, kids_inf = expand_level(Semigroup((f,)), zs, at_inf)
    roots, inf = preimages_batch(f, zs, at_inf)
    assert tried == [[False]]
    assert repr(kids.T.tolist()) == repr(roots.tolist())
    assert (kids_inf.T == inf).all()
    assert repr(roots.tolist()) == "[[(-1.8092513943330656e-25+0j), (1.8092513943330656e-25-0j)]]"


def test_annulus_levels_take_the_closed_form(monkeypatch):
    # the closed form finishes every point of every annulus level, so
    # annulus trees keep their bytes
    import semijulia.backward as backward

    levels, real = [], backward.quadratic_level

    def spy(maps, zs):
        kids, done = real(maps, zs)
        levels.append((zs.size, bool(done.all())))
        return kids, done

    monkeypatch.setattr(backward, "quadratic_level", spy)
    full_backward_tree(annulus_sg(), 1, 6)
    assert levels == [(4**k, True) for k in range(6)]


def test_a_point_has_the_same_children_in_any_level():
    # under 2^-500 z^2, 1e-200 meets q = 0 in the closed form (4ac
    # underflows); each point's children are its own children alone, not
    # those of the batch path the zero q once sent its whole level to
    # (887 of these 2,000 points moved)
    sg = Semigroup((rational_map([0, 0, 2.0**-500]),))
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1e-150, 1e-150, 2000) + 1j * rng.uniform(-1e-150, 1e-150, 2000)
    zs = np.append(pts, 1e-200)
    kids, kids_inf = expand_level(sg, zs, np.zeros(zs.size, dtype=bool))
    assert not kids_inf.any()
    moved = 0
    for k in range(zs.size):
        alone, alone_inf = expand_level(sg, zs[k : k + 1], np.zeros(1, dtype=bool))
        moved += alone.tobytes() != kids[:, k].tobytes() or alone_inf.any()
    assert moved == 0


@pytest.mark.parametrize("depth", [2, 3])
def test_tree_atoms_of_a_level_that_meets_a_zero_q_are_the_tree_atoms(depth):
    # from 1e-200 the first map's fibre meets q = 0 in the closed form; the
    # words below the third map's branches, walked by tree_atoms without
    # that point in their level, are the same bytes as in the tree (2 of 12
    # and 6 of 72 differed while a zero q sent its whole level to the batch
    # path)
    sg = Semigroup(tuple(rational_map([0, 0, a]) for a in (2.0**-500, 2.0**499, 1e100)))
    tree = full_backward_tree(sg, 1e-200, depth, check_start=False)
    idx = np.arange(4 * 6 ** (depth - 1), 6**depth)
    zs, at_inf = tree_atoms(sg, 1e-200, depth, idx)
    assert zs.tobytes() == tree.zs[idx].tobytes()
    assert at_inf.tobytes() == tree.at_inf[idx].tobytes()


def scaled(lo, hi):
    """Complex numbers whose parts are 0 or of modulus about 10^lo .. 10^hi."""
    part = st.one_of(
        st.just(0.0),
        st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(lo, hi)),
    )
    return st.builds(complex, part, part)


QUADRATIC = st.one_of(
    st.tuples(scaled(-320, 300), st.one_of(st.just(0j), scaled(-320, 300)), scaled(-320, 300)),
    # constants that break the fibre range on their own, or sit at its ends
    st.sampled_from([(0j, 1e10, 1e-20), (0j, 0j, 2.0**-500), (1 + 0j, 0j, 2.0**499), (0j, 0j, 1e100)]),
).filter(lambda nba: nba[2] != 0)


@st.composite
def mixed_levels(draw):
    """Degree-2 polynomial generators (numerator n0 + b z + a z^2 over a
    constant d0) and a level that mixes INF, points with c0 = 0 under one
    map, points tiny enough that 4 a c0 underflows, points past the fibre
    range and ordinary points."""
    maps = []
    for n0, b, a in draw(st.lists(QUADRATIC, min_size=1, max_size=3)):
        d0 = draw(st.one_of(st.just(1 + 0j), scaled(-20, 20).filter(lambda d: d != 0)))
        maps.append((n0, b, a, d0))
    kinds = st.sampled_from(["inf", "c0 = 0", "tiny", "huge", "ordinary"])
    zs, at_inf = [], []
    for kind in draw(st.lists(kinds, min_size=1, max_size=8)):
        if kind == "inf":  # its zs entry is ignored, and may be non-finite
            z = draw(st.sampled_from([0j, complex(math.inf, 0), 3 + 4j]))
        elif kind == "c0 = 0":
            n0, _, _, d0 = draw(st.sampled_from(maps))
            z = n0 / d0
        else:
            z = draw(scaled(*{"tiny": (-320, -150), "huge": (150, 307), "ordinary": (-3, 3)}[kind]))
        zs.append(z)
        at_inf.append(kind == "inf")
    sg = Semigroup(tuple(rational_map([n0, b, a], [d0]) for n0, b, a, d0 in maps))
    return sg, np.array(zs, dtype=complex), np.array(at_inf)


@given(mixed_levels())
# a zero q at 1e-200 once sent this level to the batch path, which moved the
# other point's children
@example(
    (
        Semigroup((rational_map([0, 0, 2.0**-500]),)),
        np.array([1e-200, -9.669447289429418e-151 - 4.409791020005782e-151j]),
        np.zeros(2, dtype=bool),
    )
)
def test_each_point_has_its_children_alone_in_any_level(level):
    # the rule of the tree's closed form is per point: a point's children do
    # not depend on the other points of its level, bit for bit
    sg, zs, at_inf = level
    kids, kids_inf = expand_level(sg, zs, at_inf)
    for k in range(zs.size):
        alone, alone_inf = expand_level(sg, zs[k : k + 1], at_inf[k : k + 1])
        assert alone.tobytes() == kids[:, k].tobytes(), k
        assert alone_inf.tobytes() == kids_inf[:, k].tobytes(), k


def test_scalar_path_used_for_rational_generators():
    # a genuinely rational generator sends every level through preimages_batch
    sg = Semigroup(
        (rational_map([0, 0, 1]), rational_map([1, 0, 1], [0, 1])),  # (z^2+1)/z
        ProbabilityVector([0.5, 0.5]),
    )
    cloud = full_backward_tree(sg, 1, 2, check_start=False)
    assert len(cloud) == 16
    assert abs(cloud.total_mass - 1.0) <= 1e-9


def test_tree_depth_edge_cases():
    cloud = full_backward_tree(annulus_sg(), 1, 0)
    assert cloud.zs.tolist() == [1 + 0j] and cloud.at_inf.tolist() == [False]
    assert cloud.masses.tolist() == [1.0]
    with pytest.raises(ValueError, match="depth"):
        full_backward_tree(annulus_sg(), 1, -1)


@pytest.mark.parametrize(
    "gens, start, depth, some_inf",
    [
        ([([0, 0, 1],), ([0, 0, 0.25],)], 1, 8, False),
        ([([0, 0, 1],), ([1, 0, 1], [2, 0, 1])], 1, 5, True),
        ([([0.3, 0, 0, 1],), ([0.5, 0, 1], [0, 1.5])], 0.5 + 0.2j, 7, False),  # Aberth
    ],
    ids=["annulus", "(z^2+1)/(z^2+2), with INF atoms", "cubic+rational"],
)
def test_tree_atoms_pick_the_materialized_atoms(gens, start, depth, some_inf):
    # atom k is the word of k's base-d digits: the same bytes as the tree's
    sg = Semigroup(tuple(rational_map(*g) for g in gens))
    tree = full_backward_tree(sg, start, depth, check_start=False)
    idx = np.sort(make_rng(5).choice(len(tree), size=500, replace=False))
    idx[:2] = 0, 1  # the first two siblings
    idx[-1] = len(tree) - 1
    zs, at_inf = tree_atoms(sg, start, depth, idx)
    assert zs.tobytes() == tree.zs[idx].tobytes()
    assert at_inf.tobytes() == tree.at_inf[idx].tobytes()
    assert at_inf.any() == some_inf


@pytest.mark.parametrize(
    "gens, b, start, depth, chunk, some_inf",
    [
        ([([0, 0, 1],), ([0, 0, 0.25],)], (0.5, 0.5), 1, 8, 64, False),
        ([([0, 0, 1],), ([1, 0, 1], [2, 0, 1])], (0.3, 0.7), 1, 6, 16, True),
        ([([0.3, 0, 0, 1],), ([0.5, 0, 1], [0, 1.5])], (0.5, 0.5), 0.5 + 0.2j, 7, 125, False),
        (SMALL_AND_HUGE, (0.5, 0.5), 0.7 + 0.3j, 6, 4, True),
    ],
    ids=[
        "annulus",
        "(z^2+1)/(z^2+2), b=(0.3, 0.7), with INF atoms",
        "cubic+rational",
        "1e-10 z^2, with INF atoms",
    ],
)
def test_subtree_blocks_walk_the_tree_in_word_order(gens, b, start, depth, chunk, some_inf):
    # the blocks of every subtree, in yield order, are the materialized tree
    # read word by word below the level above the cut, each word for every
    # node of that level (W of them): the same bytes, atoms and masses
    sg = Semigroup(tuple(rational_map(*g) for g in gens), ProbabilityVector(b))
    tree = full_backward_tree(sg, start, depth, check_start=False)
    subtrees = tree_subtrees(sg, start, depth, chunk)
    assert len(subtrees) == sg.total_degree and subtrees[0][3] >= 2
    blocks = [block for subtree in subtrees for block in subtree_blocks(sg, subtree)]
    width = subtrees[0][0].size
    for k, name in enumerate(("zs", "at_inf", "masses")):
        walked = np.concatenate([block[k] for block in blocks])
        expected = getattr(tree, name).reshape(width, -1).T.reshape(-1)
        assert walked.tobytes() == expected.tobytes(), name
    assert tree.at_inf.any() == some_inf


def test_tree_atoms_of_small_points_are_the_tree_atoms():
    # the 32 words over the first map's branches: their levels hold only
    # small points, where the tree's levels hold huge ones and INF too, and
    # each point's preimages are the same bytes either way
    sg = Semigroup(tuple(rational_map(*g) for g in SMALL_AND_HUGE))
    tree = full_backward_tree(sg, 0.7 + 0.3j, 5, check_start=False)
    idx = np.array([sum(((k >> i) & 1) * 4**i for i in range(5)) for k in range(32)])
    zs, at_inf = tree_atoms(sg, 0.7 + 0.3j, 5, idx)
    assert zs.tobytes() == tree.zs[idx].tobytes()
    assert not at_inf.any() and tree.at_inf.any()


def test_tree_atoms_edge_cases():
    sg = annulus_sg()
    zs, at_inf = tree_atoms(sg, 1, 0, [0])
    assert zs.tolist() == [1 + 0j] and at_inf.tolist() == [False]
    assert tree_atoms(sg, 1, 3, [])[0].size == 0
    for depth, idx in ((3, [4**3]), (3, [-1]), (-1, [0])):
        with pytest.raises(ValueError, match="atom indices"):
            tree_atoms(sg, 1, depth, idx)


def test_tree_atoms_solve_each_fibre_once_per_level(monkeypatch):
    # compare's 4,096-atom sample of the depth-9 (z^2, (z^2+1)/(z^2+2)) tree
    # from 1: words that share a prefix share its solves.  1 is a degree
    # drop of the second map, so every fibre over 1 is a scalar call
    import semijulia.backward as backward
    import semijulia.ratmap as ratmap
    from semijulia.cli import _sample_indices

    sg = Semigroup((rational_map([0, 0, 1]), rational_map([1, 0, 1], [2, 0, 1])))
    idx = _sample_indices(4**9)
    assert idx.size == 4096
    levels = []
    expand, scalar = backward.expand_level, ratmap.preimages

    def level_spy(sg, zs, at_inf):
        levels.append([])
        return expand(sg, zs, at_inf)

    def scalar_spy(f, z):
        levels[-1].append((id(f), z))
        return scalar(f, z)

    monkeypatch.setattr(backward, "expand_level", level_spy)
    monkeypatch.setattr(ratmap, "preimages", scalar_spy)
    zs, at_inf = tree_atoms(sg, 1, 9, idx)
    monkeypatch.undo()
    assert len(levels) == 9
    for calls in levels:
        assert len(calls) == len(set(calls))
    assert sum(z == 1 for calls in levels for _, z in calls) == 9
    tree = full_backward_tree(sg, 1, 9, check_start=False)
    assert zs.tobytes() == tree.zs[idx].tobytes()
    assert at_inf.tobytes() == tree.at_inf[idx].tobytes()


def test_tree_rejects_exceptional_start():
    from semijulia.semigroup import ExceptionalStartPoint

    with pytest.raises(ExceptionalStartPoint):
        full_backward_tree(square_sg(), 0, 3)


# ---------------------------------------------------------------------------
# random backward orbit


def test_orbit_stays_on_unit_circle():
    orbit = random_backward_orbit(square_sg(), 1, 100, seed=5)
    for z in orbit.zs.tolist():
        assert abs(abs(z) - 1.0) <= 1e-9


def test_orbit_modulus_decay_from_outside():
    orbit = random_backward_orbit(square_sg(), 3, 40, seed=11)
    assert abs(abs(orbit.zs.tolist()[-1]) - 1.0) <= 1e-9


def test_orbit_determinism():
    a = random_backward_orbit(annulus_sg(), 1, 500, seed=42)
    b = random_backward_orbit(annulus_sg(), 1, 500, seed=42)
    assert a.symbols == b.symbols
    assert sphere_points(a) == sphere_points(b)
    c = random_backward_orbit(annulus_sg(), 1, 500, seed=43)
    assert c.symbols != a.symbols


def test_orbit_forward_consistency():
    sg = annulus_sg()
    dist = build_index_distribution(sg)
    orbit = random_backward_orbit(sg, 1, 300, seed=3)
    # the chain's symbols are one block of the seed's stream, which
    # verify's markov-transitions criterion redraws on its own
    assert orbit.symbols == sample_branch_block(dist, make_rng(3), 300).tolist()
    prev = orbit.start
    for sym, z in zip(orbit.symbols, sphere_points(orbit)):
        j, r = dist.decode[sym]
        assert chordal_distance(evaluate(sg.generators[j], z), prev) <= 1e-9
        assert chordal_distance(preimages(sg.generators[j], prev)[r], z) <= 1e-9
        prev = z


def assert_chain_steps_are_batch_preimages(sg, start, n, seed):
    # each step of the scalar chain is, bit for bit, the batch fibre of its
    # predecessor at the decoded branch
    orbit = random_backward_orbit(sg, start, n, seed=seed)
    decode = build_index_distribution(sg).decode
    gen, branch = np.array([decode[s] for s in orbit.symbols]).T
    prev_zs = np.concatenate([[start], orbit.zs[:-1]])
    prev_inf = np.concatenate([[False], orbit.at_inf[:-1]])
    assert not orbit.at_inf.any()
    expected = np.empty(len(orbit), dtype=complex)
    for j, g in enumerate(sg.generators):
        rows = np.flatnonzero(gen == j)
        assert rows.size > n // 4
        roots, inf = preimages_batch(g, prev_zs[rows], prev_inf[rows])
        assert not inf[np.arange(rows.size), branch[rows]].any()
        expected[rows] = roots[np.arange(rows.size), branch[rows]]
    got = [repr(z) for z in orbit.zs.tolist()]
    want = [repr(z) for z in expected.tolist()]
    bad = [k for k in range(len(got)) if got[k] != want[k]]
    assert not bad, (f"{len(bad)} steps differ; first", bad[0], got[bad[0]], want[bad[0]])


def test_cubic_rational_chain_steps_are_batch_preimages():
    sg = Semigroup(
        (rational_map([0.3, 0, 0, 1]), rational_map([0.5, 0, 1], [0, 1.5])),
        ProbabilityVector([0.5, 0.5]),
    )
    assert_chain_steps_are_batch_preimages(sg, 0.3 + 0.2j, 2000, 11)


def test_annulus_chain_steps_are_batch_preimages():
    # the chain walker's inline degree-2 step, step by step
    assert_chain_steps_are_batch_preimages(annulus_sg(), 1.5 + 0.5j, 5000, 7)


def test_annulus_chain_never_calls_scalar_preimages(monkeypatch):
    # every step of an annulus chain from 1.5+0.5i is a common row, which
    # the chain walker steps inline
    import semijulia.ratmap as ratmap

    calls = []
    monkeypatch.setattr(ratmap, "preimages", lambda f, z: calls.append(z))
    orbit = random_backward_orbit(annulus_sg(), 1.5 + 0.5j, 5000, seed=7, check_start=False)
    assert len(orbit) == 5000 and calls == []


def test_cubic_rational_chain_never_calls_scalar_preimages(monkeypatch):
    # the polynomial cubic's steps run on its folded terms and the rational
    # quadratic's on its fibre pairs, both inside the chain walker
    import semijulia.ratmap as ratmap

    sg = Semigroup(
        (rational_map([0.3, 0, 0, 1]), rational_map([0.5, 0, 1], [0, 1.5])),
        ProbabilityVector([0.5, 0.5]),
    )
    calls = []
    monkeypatch.setattr(ratmap, "preimages", lambda f, z: calls.append(z))
    orbit = random_backward_orbit(sg, 0.3 + 0.2j, 5000, seed=7, check_start=False)
    assert len(orbit) == 5000 and calls == []
    assert 0 < sum(s < 3 for s in orbit.symbols) < 5000  # cubic and rational steps


def test_chain_bits_are_pinned():
    # sha1 of the run_chains zs and at_inf bytes, 2 chains x 10,000 steps per
    # pair.  The digests were recorded before preimage_walk existed, when each
    # chain step was one scalar preimages call; they pin every chain point
    # bit for bit.  The cubic-rational digest was recorded again when cubics
    # began to start their iteration at Cardano's roots (the last bits of its
    # points moved), after the scalar and batch cubic rows were checked equal
    # by repr; the annulus digest is the original.  The third pair, with
    # complex lower coefficients and a constant denominator 2, was recorded
    # before the walker took its polynomials' terms without the point once
    # per map, when its cubic steps were preimages calls.
    cubic_rational = Semigroup(
        (rational_map([0.3, 0, 0, 1]), rational_map([0.5, 0, 1], [0, 1.5])),
        ProbabilityVector([0.5, 0.5]),
    )
    polynomials = Semigroup(
        (rational_map([-0.5, 0.3 + 0.1j, 1], [2]), rational_map([0.1j, -0.2, 0, 1])),
        ProbabilityVector([0.5, 0.5]),
    )
    for sg, start, seeds, digest in (
        (annulus_sg(), 1.0, [21, 22], "f367c01d91b38d53d676a733d98eeb1a278ff506"),
        (cubic_rational, 0.3 + 0.2j, [5, 6], "e21c294b0c9d16c07f56f5cd1d18f36c39acdba6"),
        (polynomials, 0.3 + 0.2j, [7, 8], "3b73dfb261c32d09ff10f2c18308f58cb3833c4b"),
    ):
        cloud = run_chains(sg, start, 10_000, 2, burn_in=0, seeds=seeds)
        h = hashlib.sha1(cloud.zs.tobytes())
        h.update(cloud.at_inf.tobytes())
        assert h.hexdigest() == digest


def test_orbit_requires_positive_length():
    with pytest.raises(ValueError):
        random_backward_orbit(square_sg(), 1, 0, seed=1)


# ---------------------------------------------------------------------------
# empirical measure and chain merging


def test_empirical_measure_no_burn_in():
    orbit = random_backward_orbit(square_sg(), 1, 5, seed=1)
    cloud = empirical_measure(orbit, 0)
    assert len(cloud) == 5
    assert np.allclose(cloud.masses, 0.2)


def test_empirical_measure_single_point_tail():
    orbit = random_backward_orbit(square_sg(), 1, 5, seed=1)
    cloud = empirical_measure(orbit, 4)
    assert len(cloud) == 1
    assert cloud.masses[0] == 1.0


def test_empirical_measure_empty_tail():
    orbit = random_backward_orbit(square_sg(), 1, 5, seed=1)
    with pytest.raises(EmptyTail):
        empirical_measure(orbit, 5)


def test_empirical_measure_refuses_negative_burn_in():
    orbit = random_backward_orbit(square_sg(), 1, 5, seed=1)
    with pytest.raises(ValueError, match="burn_in"):
        empirical_measure(orbit, -1)


def test_run_chains_single_chain_degenerate_merge():
    sg = annulus_sg()
    merged = run_chains(sg, 1, 400, 1, burn_in=10, seeds=[17])
    direct = empirical_measure(random_backward_orbit(sg, 1, 400, seed=17), 10)
    assert sphere_points(merged) == sphere_points(direct)
    assert np.array_equal(merged.masses, direct.masses)


def test_run_chains_two_equal_chains_mass():
    merged = run_chains(annulus_sg(), 1, 200, 2, burn_in=50, seeds=[1, 2])
    assert len(merged) == 2 * 150
    assert np.allclose(merged.masses, 1.0 / 300)
    assert abs(merged.total_mass - 1.0) <= 1e-9


def test_run_chains_requires_distinct_seeds():
    with pytest.raises(ValueError):
        run_chains(annulus_sg(), 1, 100, 2, seeds=[3, 3])
    with pytest.raises(ValueError):
        run_chains(annulus_sg(), 1, 100, 2, seeds=[3])


def test_merge_order_permutation_bins_identically():
    sg = annulus_sg()
    vp = Viewport(center=0j, width=6.0, height=6.0, nx=32, ny=32)
    g1 = bin_cloud(run_chains(sg, 1, 300, 2, burn_in=20, seeds=[5, 9]), vp)
    g2 = bin_cloud(run_chains(sg, 1, 300, 2, burn_in=20, seeds=[9, 5]), vp)
    assert np.array_equal(g1.cells, g2.cells)
    assert g1.outside_mass == g2.outside_mass


# ---------------------------------------------------------------------------
# run_chains across worker processes


def inf_visiting_sg():
    # (z^2+1)/(z^2+2) sends its poles +-i*sqrt(2) to infinity, and infinity
    # is a preimage of 1 under it
    return Semigroup((rational_map([0, 0, 1]), rational_map([1, 0, 1], [2, 0, 1])))


@pytest.mark.parametrize(
    "sg, n, burn_in",
    [(annulus_sg(), 3_000, 100), (inf_visiting_sg(), 3_000, 0)],
    ids=["annulus", "visits-infinity"],
)
def test_run_chains_equals_seed_ordered_chains(cpus, sg, n, burn_in):
    seeds = [11, 5, 7]
    merged = run_chains(sg, 1, n, 3, burn_in=burn_in, seeds=seeds)
    count, lookups = cpus
    assert len(lookups) == (count > 1)
    parts = [
        empirical_measure(random_backward_orbit(sg, 1, n, seed=s), burn_in)
        for s in seeds
    ]
    expected = [p for c in parts for p in sphere_points(c)]
    # repr tells -0.0 from 0.0 and INF from any complex
    assert repr(sphere_points(merged)) == repr(expected)
    masses = np.concatenate([c.masses / len(seeds) for c in parts])
    assert merged.masses.tobytes() == masses.tobytes()
    if burn_in == 0:
        assert any(p is INF for p in sphere_points(merged))


def test_run_chains_rejects_before_any_chain_runs(cpus):
    with pytest.raises(EmptyTail):
        run_chains(annulus_sg(), 1, 50, 3, burn_in=50, seeds=[1, 2, 3])
    with pytest.raises(ValueError):
        run_chains(annulus_sg(), 1, 0, 3, burn_in=0, seeds=[1, 2, 3])
    with pytest.raises(ValueError):
        run_chains(annulus_sg(), 1, 50, 3, burn_in=-1, seeds=[1, 2, 3])
    with pytest.raises(ValueError):
        run_chains(annulus_sg(), 1, 50, 3, burn_in=0, seeds=[1, 1, 2])
    # no pool is started for a call that fails validation
    assert cpus[1] == []


def test_no_fork_while_other_threads_run():
    # a fork copies other threads' locks in whatever state they are; the
    # chains then run in this process
    import threading

    import semijulia.workers as workers

    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert workers._fork_context() is None
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_run_chains_reraises_worker_solver_divergence(monkeypatch, circle_start):
    # with a two-sweep budget and the circle start the first cubic preimage
    # of every chain fails inside its worker; the parent sees the same error
    # type and coefficients
    import semijulia.ratmap as ratmap
    import semijulia.workers as workers

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ratmap, "_MAX_SWEEPS", 2)
    sg = Semigroup((rational_map([0.3, 0, 0, 1]),))
    with pytest.raises(SolverDivergence) as scalar:
        preimages(sg.generators[0], 0.5 + 0j)
    with pytest.raises(SolverDivergence) as err:
        run_chains(sg, 0.5, 100, 2, burn_in=10, seeds=[1, 2], check_start=False)
    assert err.value.coeffs == scalar.value.coeffs


# ---------------------------------------------------------------------------
# statistical surrogates (small-scale; the verification suite runs the full
# versions)


def test_markov_surrogate_cell_frequencies():
    sg = annulus_sg()
    dist = build_index_distribution(sg)
    orbit = random_backward_orbit(sg, 1, 20_000, seed=77)
    pts = orbit.zs
    syms = np.asarray(orbit.symbols)
    m = np.arange(100, len(pts) - 1)
    in_cell = (
        (pts.real[m] >= 0.75)
        & (pts.real[m] < 1.25)
        & (np.abs(pts.imag[m]) < 0.25)
    )
    hits = m[in_cell]
    assert hits.size > 200
    freq = np.bincount(syms[hits + 1], minlength=4) / hits.size
    assert np.all(np.abs(freq - 0.25) <= 5 * np.sqrt(0.25 / hits.size))
    # the step out of a visited state lands on one of the state's preimages
    for k in hits[:25]:
        j, r = dist.decode[syms[k + 1]]
        target = preimages(sg.generators[j], pts[k])[r]
        assert chordal_distance(target, pts[k + 1]) <= 1e-9


def test_cesaro_average_of_re_vanishes_on_circle():
    orbit = random_backward_orbit(square_sg(), 1, 1_000_000, seed=2024)
    avg = cesaro_average(orbit, lambda zs, at_inf: zs.real)
    assert abs(avg) <= 0.01


@pytest.mark.parametrize("kind", ["tree", "orbit"])
def test_points_list_matches_the_arrays(kind):
    # the benchmark's predecessor check reads ``points``: INF exactly where
    # at_inf is set, and to_arrays gives back the arrays' bytes
    sg = inf_visiting_sg()
    if kind == "tree":
        a = full_backward_tree(sg, 1, 3, check_start=False)
    else:
        a = random_backward_orbit(sg, 1, 3000, seed=2, check_start=False)  # one INF
    assert a.at_inf.any()
    assert [p is INF for p in a.points] == a.at_inf.tolist()
    zs, at_inf = to_arrays(a.points)
    assert zs.tobytes() == a.zs.tobytes()
    assert at_inf.tobytes() == a.at_inf.tobytes()


def test_cloud_validation():
    with pytest.raises(ValueError):
        WeightedPointCloud(*to_arrays([1 + 0j]), masses=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        WeightedPointCloud(*to_arrays([1 + 0j]), masses=np.array([-0.5]))


NAN, INF_F = float("nan"), float("inf")


@pytest.mark.parametrize(
    "masses",
    [[NAN, 0.5, 0.5], [0.5, INF_F, 0.5], [0.25, 0.25, NAN]],
    ids=["nan-first", "inf", "nan-last"],
)
def test_cloud_refuses_non_finite_masses(masses):
    with pytest.raises(ValueError, match="finite"):
        WeightedPointCloud(*to_arrays([1 + 0j, 2j, 0.5 + 0j]), masses=np.array(masses))


@pytest.mark.parametrize(
    "bad", [complex(NAN, 0), complex(0, NAN), complex(INF_F, 0), complex(1, -INF_F)]
)
@pytest.mark.parametrize("kind", ["cloud", "orbit"])
def test_points_refuse_a_non_finite_point_not_at_infinity(kind, bad):
    # the same entry is only a placeholder where the point is at infinity
    zs = np.array([0.5 + 0.5j, bad, 1j])

    def build(at_inf):
        if kind == "cloud":
            return WeightedPointCloud(zs, at_inf, np.full(3, 1 / 3))
        return BackwardOrbit(start=1 + 0j, symbols=[0, 0, 0], zs=zs, at_inf=at_inf, seed=0)

    with pytest.raises(ValueError, match="finite"):
        build(np.zeros(3, dtype=bool))
    assert len(build(np.array([False, True, False]))) == 3
