import cmath
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semijulia.measure import hausdorff_distance
from semijulia.ratmap import (
    Polynomial,
    SolverDivergence,
    evaluate,
    fibre_polynomial,
    polynomial_roots,
    preimage_walk,
    preimages,
    preimages_batch,
    rational_map,
)
from semijulia.sphere import INF, chordal_distance, is_inf, to_arrays


def square():
    return rational_map([0, 0, 1])


def cheb():
    return rational_map([-2, 0, 1])


# ---------------------------------------------------------------------------
# Polynomial


def test_polynomial_trims_exact_zero_leading_coeffs():
    p = Polynomial([3, 1, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (3 + 0j, 1 + 0j)


def test_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        Polynomial([0, 0])
    with pytest.raises(ValueError):
        Polynomial([])


def test_polynomial_horner():
    p = Polynomial([1, 2, 3])  # 1 + 2z + 3z^2
    assert p(2) == 1 + 4 + 12


def test_rational_map_rejects_common_roots():
    with pytest.raises(ValueError):
        rational_map([-1, 0, 1], [-1, 1])  # (z^2-1)/(z-1)


@pytest.mark.parametrize(
    "num, den",
    [
        ([0, 1j], [0, 0, 0, 0, 0, 0, 1j]),  # z / z^6
        ([-1, 1], [1, -6, 15, -20, 15, -6, 1]),  # (z-1) / (z-1)^6
        ([0, 0, 0, 0, 1j], [0, 0, 0, 0, 0, 0, 1j]),  # z^4 / z^6
        ([0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1, 1]),  # z^4 / (z^6 + z^5)
    ],
    ids=["z/z^6", "(z-1)/(z-1)^6", "z^4/z^6", "z^4/(z^6+z^5)"],
)
def test_rational_map_rejects_root_shared_with_multiple_root(num, den):
    # a root of multiplicity m comes out of a root solver as a cluster about
    # eps**(1/m) wide, and a monomial's relative backward error is 1 at every
    # point; neither hides a common factor from the Sylvester matrix
    with pytest.raises(ValueError, match="share a root"):
        rational_map(num, den)
    with pytest.raises(ValueError, match="share a root"):
        rational_map(den, num)


def test_rational_map_shared_root_test_is_relative_to_scale():
    # the roots 1e-8 and 2e-8 are 1e-8 apart but distinct at their own
    # scale; 1000 and 1000 + 1e-7 are 1e-10 apart relative to theirs
    rational_map([-1e-8, 1], [-2e-8, 1])
    with pytest.raises(ValueError, match="share a root"):
        rational_map([-1000, 1], [-1000 - 1e-7, 1])
    # so is the common root -1 at coefficients whose modulus overflows or
    # that are subnormal
    for c in (1.5e308 + 1.5e308j, 1e-320):
        with pytest.raises(ValueError, match="share a root"):
            rational_map([c, c], [1, 1])


@pytest.mark.parametrize("scale", [1e200, 1e300, 1e-200, 1e-300])
def test_rational_map_accepts_huge_and_tiny_coefficients(scale):
    # (z^2+1)/(scale (z^2+2)): unscaled, b*b - 4ac of the denominator
    # overflows to inf (NaN roots) or underflows to 0 (division by zero)
    f = rational_map([1, 0, 1], [2 * scale, 0, scale])
    poles = [complex(0, -math.sqrt(2)), complex(0, math.sqrt(2))]
    assert_same_multiset(polynomial_roots(f.denominator.coeffs), poles, 1e-12)
    assert_same_multiset(preimages(f, INF), poles, 1e-12)


def test_rational_map_rejects_degree_zero():
    with pytest.raises(ValueError):
        rational_map([2], [1])


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_square_at_3():
    assert evaluate(square(), 3) == 9 + 0j


def test_evaluate_square_at_infinity():
    assert evaluate(square(), INF) is INF


def test_evaluate_cheb_at_0():
    assert evaluate(cheb(), 0) == -2 + 0j


def test_evaluate_at_pole_gives_infinity():
    inv = rational_map([1], [0, 1])  # 1/z
    assert evaluate(inv, 0) is INF
    assert evaluate(inv, INF) == 0j


def test_evaluate_equal_degrees_at_infinity():
    f = rational_map([0, 0, 3], [1, 0, 1])  # 3z^2 / (z^2 + 1)
    assert evaluate(f, INF) == 3 + 0j


def test_evaluate_huge_argument_no_nan():
    f = square()
    w = evaluate(f, 1e200 + 1e200j)
    assert w is INF
    g = rational_map([0, 1], [1, 0, 1])  # z / (z^2+1) -> 0 at infinity
    w = evaluate(g, 1e200 + 0j)
    assert not is_inf(w) and abs(w) <= 1e-150


@pytest.mark.parametrize(
    "z, exact", [(1e151 + 0j, 1e302 + 0j), (1e151 + 1e151j, 2e302j)], ids=["real", "diagonal"]
)
def test_evaluate_in_log_polar_form(z, exact):
    # 2 log10|z| > 300, so z^2 goes through exp(2 log|z|) and the phase: a
    # finite value, but exp(log(.)) costs bits, 9.999999999999573e+301 for
    # 1e302 (4.3e-14 relative) and 1.6e-14 relative on the diagonal
    w = evaluate(square(), z)
    assert not is_inf(w)
    assert abs(w - exact) <= 1e-12 * abs(exact)


def test_evaluate_where_the_modulus_overflows_a_double():
    # both parts are finite but |z| is past the largest double, so abs(z)
    # raises OverflowError
    z = 1.7e308 + 1.7e308j
    assert evaluate(square(), z) is INF
    assert evaluate(rational_map([1, 0, 1], [0, 1]), z) is INF  # (z^2 + 1) / z
    w = evaluate(rational_map([1], [0, 1]), z)  # 1 / z
    assert not is_inf(w) and abs(w) <= 1e-300


# ---------------------------------------------------------------------------
# preimages: pinned examples


def test_preimages_square_of_4():
    assert preimages(square(), 4) == [(-2 + 0j), (2 - 0j)]


def test_preimages_square_of_0_double_root():
    pre = preimages(square(), 0)
    assert len(pre) == 2
    assert all(abs(w) <= 1e-12 for w in pre)


def test_preimages_cheb_of_minus2_double_root():
    pre = preimages(cheb(), -2)
    assert len(pre) == 2
    assert all(abs(w) <= 1e-6 for w in pre)


def test_preimages_scaled_square():
    f = rational_map([0, 0, 1], [4])  # z^2 / 4
    pre = preimages(f, 1)
    assert pre[0] == pytest.approx(-2 + 0j, abs=1e-12)
    assert pre[1] == pytest.approx(2 + 0j, abs=1e-12)


def test_preimages_at_infinity_polynomial():
    assert preimages(square(), INF) == [INF, INF]


def test_preimages_at_infinity_rational():
    f = rational_map([0, 0, 1], [1, 0, 1])  # z^2 / (z^2+1)
    pre = preimages(f, INF)
    assert pre[0] == pytest.approx(-1j, abs=1e-12)
    assert pre[1] == pytest.approx(1j, abs=1e-12)


def test_preimages_degree_drop_pads_infinity():
    f = rational_map([0, 0, 1], [1, 0, 1])  # z^2/(z^2+1); f(inf) = 1
    assert preimages(f, 1) == [INF, INF]


def test_preimages_sorted_with_infinity_last():
    # (z^2 + 1) / z: degree 2, pole at 0, f(inf) = inf
    f = rational_map([1, 0, 1], [0, 1])
    pre = preimages(f, INF)  # solutions: denominator root 0, plus infinity
    assert pre[0] == 0j
    assert pre[1] is INF


# ---------------------------------------------------------------------------
# properties

coeff = st.tuples(
    st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
).map(lambda t: complex(*t))


@st.composite
def random_maps(draw):
    deg = draw(st.integers(1, 6))
    dn = draw(st.integers(0, deg))
    dd = deg if dn < deg else draw(st.integers(0, deg))
    num = draw(st.lists(coeff, min_size=dn + 1, max_size=dn + 1))
    den = draw(st.lists(coeff, min_size=dd + 1, max_size=dd + 1))
    assume(abs(num[-1]) > 0.05 and abs(den[-1]) > 0.05)
    try:
        return rational_map(num, den)
    except ValueError:
        assume(False)


@given(random_maps(), coeff.map(lambda z: 3 * z))
def test_roundtrip_and_count(f, z):
    pre = preimages(f, z)
    assert len(pre) == f.degree
    for w in pre:
        assert chordal_distance(evaluate(f, w), z) <= 1e-9


@given(random_maps())
def test_count_at_infinity_and_critical_values(f):
    assert len(preimages(f, INF)) == f.degree
    # forward image of a preimage of a generic point is a value whose own
    # preimage list must still have full length
    w = preimages(f, 0.3 + 0.1j)[0]
    v = evaluate(f, w)
    assert len(preimages(f, v)) == f.degree


@settings(max_examples=60)
@given(random_maps(), coeff.map(lambda z: 2 * z))
def test_solution_set_varies_continuously(f, z):
    # irrational-ish offset keeps z off exact critical values, where a
    # multiplicity-m cluster legitimately moves like (1e-8)^(1/m)
    z = z + 0.137313 - 0.219427j
    a = preimages(f, z)
    b = preimages(f, z + 1e-8)
    assert hausdorff_distance(to_arrays(a), to_arrays(b)) <= 1e-3


def test_solution_set_holder_branching_at_critical_value():
    # at a totally ramified critical value the solution set splits at the
    # cube-root rate; this is the behavior the generic-z bound must dodge
    f = rational_map([1], [0, 0, 0, 1])  # 1 / z^3
    assert preimages(f, 0) == [INF, INF, INF]
    moved = preimages(f, 1e-8)
    d = hausdorff_distance(to_arrays([INF]), to_arrays(moved))
    assert 1e-3 <= d <= 1e-2


def test_triple_root_cluster():
    # (x - 1)^3 = -1 + 3x - 3x^2 + x^3
    roots = polynomial_roots([-1, 3, -3, 1])
    assert len(roots) == 3
    for r in roots:
        assert abs(r - 1) <= 1e-3


def test_degree_six_roots_of_unity():
    roots = sorted(polynomial_roots([-1, 0, 0, 0, 0, 0, 1]), key=lambda z: cmath.phase(z))
    assert len(roots) == 6
    for r in roots:
        assert abs(r**6 - 1) <= 1e-9


def test_solver_divergence_reports_coefficients():
    err = SolverDivergence([1 + 0j, 2 + 0j], 500)
    assert "500" in str(err)
    assert "(2+0j)" in str(err)
    assert err.coeffs == (1 + 0j, 2 + 0j)


def test_solver_divergence_survives_pickling():
    import pickle

    err = SolverDivergence([1 + 0j, 2j], 500)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is SolverDivergence
    assert back.coeffs == err.coeffs
    assert str(back) == str(err)


def test_preimage_of_huge_point_is_chordally_consistent():
    pre = preimages(square(), 1e200 + 0j)
    assert len(pre) == 2
    for w in pre:
        assert chordal_distance(evaluate(square(), w), 1e200 + 0j) <= 1e-9


# ---------------------------------------------------------------------------
# preimages_batch: the row-vectorized kernel against scalar preimages


def batch_rows(f, points):
    """preimages_batch on a list of sphere points, as lists like preimages'."""
    zs = np.array([0j if is_inf(p) else complex(p) for p in points])
    at_inf = np.array([is_inf(p) for p in points])
    roots, inf = preimages_batch(f, zs, at_inf)
    assert roots.shape == inf.shape == (len(points), f.degree)
    return [
        [INF if inf[n, k] else complex(roots[n, k]) for k in range(f.degree)]
        for n in range(len(points))
    ]


def assert_same_multiset(a, b, tol):
    # greedy nearest matching is enough at this tolerance: distinct roots
    # of one fibre are far apart compared to tol, coincident ones agree
    left = list(b)
    for w in a:
        k = min(range(len(left)), key=lambda i: chordal_distance(w, left[i]))
        assert chordal_distance(w, left[k]) <= tol, (a, b)
        left.pop(k)


points = st.one_of(coeff.map(lambda z: 3 * z), st.just(INF))


@given(random_maps(), st.lists(points, min_size=1, max_size=6))
# numpy's complex sqrt is one ulp off cmath.sqrt at these discriminants
@example(square(), [1j, -1j, -4j])
# b*b - 4ac underflows to 0 unless the fibre polynomial is scaled up
@example(rational_map([1e-200, 0, 1e-200]), [0j, 1e-200 + 0j, INF])
def test_batch_rows_match_scalar_preimages(f, zs):
    for z, row in zip(zs, batch_rows(f, zs)):
        assert len(row) == f.degree
        assert repr(row) == repr(preimages(f, z))
        for w in row:
            assert chordal_distance(evaluate(f, w), z) <= 1e-9


def test_batch_degree_drop_row():
    f = rational_map([1, 0, 1], [2, 0, 1])  # (z^2+1)/(z^2+2)
    assert batch_rows(f, [1 + 0j]) == [[INF, INF]] == [preimages(f, 1 + 0j)]


def test_batch_row_at_infinity_is_denominator_roots():
    f = rational_map([1, 0, 1], [2, 0, 1])
    (row,) = batch_rows(f, [INF])
    r = math.sqrt(2)
    assert_same_multiset(row, [complex(0, -r), complex(0, r)], 1e-12)
    assert row == preimages(f, INF)


def test_batch_row_beyond_1e150_matches_scalar():
    assert batch_rows(square(), [1e200 + 0j]) == [preimages(square(), 1e200 + 0j)]


@pytest.mark.parametrize(
    "z", [1e200 + 0j, 1e300 + 0j, 1.7e308 + 0j, 1.2e308 + 1.2e308j]
)
@pytest.mark.parametrize(
    "f",
    [
        rational_map([1, 0, 1], [2, 0, 1]),  # (z^2+1)/(z^2+2)
        rational_map([1, 2, 0, 3, 0, 1j], [1, 1, 0.5]),
        rational_map([1, 0, 1], [1.2, 0, 0.5]),  # (z^2+1)/(z^2/2+1.2)
    ],
    ids=["(z^2+1)/(z^2+2)", "degree-5 rational", "(z^2+1)/(z^2/2+1.2)"],
)
def test_preimages_of_huge_point_do_not_overflow(f, z):
    # b*b - 4ac of the unscaled preimage polynomial overflows to inf here;
    # from 1.7e308 on num_k - z*den_k, or its modulus, does too
    pre = preimages(f, z)
    assert len(pre) == f.degree
    finite = [w for w in pre if not is_inf(w)]
    assert finite and all(math.isfinite(w.real) and math.isfinite(w.imag) for w in finite)
    for w in pre:
        assert chordal_distance(evaluate(f, w), z) <= 1e-9
    assert repr(batch_rows(f, [z])) == repr([pre])


def test_batch_mixed_degrees_and_infinity_in_one_call():
    # one call mixes full-degree rows, degree-drop rows and infinity
    f = rational_map([1, 0, 1], [2, 0, 1])
    pts = [0.3 + 0.1j, 1 + 0j, INF, -2j, 1 + 0j]
    assert batch_rows(f, pts) == [preimages(f, z) for z in pts]


@pytest.mark.parametrize(
    "f, common, exceptional",
    [
        # (z+1)/(2z+3): f(inf) = 1/2 drops the degree to 0
        (rational_map([1, 1], [3, 2]), [0.3 + 0.1j, -2j], [0.5 + 0j, 1.7e308 + 0j]),
        # (z^2+1)/(z^2+2): f(inf) = 1, and f(0) = 1/2 makes the constant 0
        (
            rational_map([1, 0, 1], [2, 0, 1]),
            [0.3 + 0.1j, -2j, 3 + 1j],
            [1 + 0j, 0.5 + 0j, 1e200 + 0j, 1.7e308 + 0j],
        ),
        # every finite row below 2**-500 or dropped: no common row at all
        (rational_map([1e-200, 0, 1e-200]), [], [0j, 1 + 0j, 1.7e308 + 0j]),
        # (z^3+2)/(z^3+1): f(inf) = 1; a zero constant (z = 2) is common
        (
            rational_map([2, 0, 0, 1], [1, 0, 0, 1]),
            [0.3 + 0.1j, 2 + 0j, -2j],
            [1 + 0j, 1.7e308 + 0j],
        ),
        # cubic over quintic: at f(inf) = 0 and at 1e-20 three finite roots
        # and two at infinity
        (
            rational_map([1, 2, 0, 1], [2, 0, 1, 0, 0, 1]),
            [0.3 + 0.1j, -2j, 3 + 1j],
            [0j, 1e-20 + 0j, 1.7e308 + 0j],
        ),
    ],
    ids=["degree 1", "degree 2", "degree 2 below 2**-500", "degree 3", "degree 5"],
)
def test_batch_sends_each_exceptional_row_to_one_scalar_call(monkeypatch, f, common, exceptional):
    # one call mixes common rows, every exceptional row and infinity; each
    # row is the scalar result, and only the exceptional rows (plus the one
    # shared fibre over infinity) go through scalar preimages
    import semijulia.ratmap as ratmap

    pts = [INF, *common, *exceptional, INF, *common]
    want = [preimages(f, z) for z in pts]
    calls = []
    scalar = ratmap.preimages

    def spy(f, z):
        calls.append(z)
        return scalar(f, z)

    monkeypatch.setattr(ratmap, "preimages", spy)
    assert repr(batch_rows(f, pts)) == repr(want)
    assert calls == [INF, *exceptional]


def test_batch_cubic_rows_follow_scalar_branch_order():
    f = rational_map([0.3, 0, 0, 1])
    pts = [cmath.rect(0.2 + 0.1 * k, 0.7 * k) for k in range(40)]
    assert batch_rows(f, pts) == [preimages(f, z) for z in pts]


def test_batch_raises_divergence_like_scalar(monkeypatch, circle_start):
    # with a two-sweep budget no cubic row converges from the circle start;
    # both paths report the same coefficients
    import semijulia.ratmap as ratmap

    monkeypatch.setattr(ratmap, "_MAX_SWEEPS", 2)
    f = rational_map([0.3, 0, 0, 1])
    with pytest.raises(SolverDivergence) as scalar:
        preimages(f, 0.5 + 0j)
    with pytest.raises(SolverDivergence) as batch:
        batch_rows(f, [0.5 + 0j, 1j])
    assert batch.value.coeffs == scalar.value.coeffs


# ---------------------------------------------------------------------------
# the degree-3 solvers (the chain walker's sweep-0 step and the generic
# loop) against the batch rows, which follow the generic Ehrlich-Aberth loop
# operation by operation


def cubic():
    return rational_map([0.3, 0, 0, 1])  # z^3 + 0.3


def assert_same_reprs(got, want):
    # item by item, so a failure names the first differing entry instead of
    # diffing two long strings
    got, want = [repr(x) for x in got], [repr(x) for x in want]
    assert len(got) == len(want)
    bad = [k for k in range(len(got)) if got[k] != want[k]]
    assert not bad, (f"{len(bad)} of {len(got)} differ; first", bad[0], got[bad[0]], want[bad[0]])


def test_cubic_scalar_matches_batch_rows_on_seeded_points():
    rng = np.random.default_rng(7)
    zs = 3.0 * rng.random(2000) * np.exp(2j * np.pi * rng.random(2000))
    zs[:8] = [0.3, 0.0, -0.3, 1e-9, 1e6, 2j, -0.0, 0.3 + 1e-12j]
    pts = zs.tolist()
    assert_same_reprs([preimages(cubic(), z) for z in pts], batch_rows(cubic(), pts))


def test_cubic_scalar_matches_batch_rows_on_seeded_maps():
    # the fibre polynomials of 2,000 random cubic maps, one batch kernel call
    from semijulia.ratmap import _aberth_rows

    rng = np.random.default_rng(31)
    fibres = []
    while len(fibres) < 2000:
        num = rng.normal(size=(4, 2)) @ [1, 1j]
        den = rng.normal(size=(rng.integers(1, 5), 2)) @ [1, 1j]
        try:
            f = rational_map(num, den)
        except ValueError:  # a shared root, refused
            continue
        fibres.append(fibre_polynomial(f, complex(*rng.normal(size=2))))
    c = np.array(fibres)
    rows = np.empty((len(fibres), 3), dtype=complex)
    rows.real, rows.imag = _aberth_rows(c.real, c.imag)
    assert_same_reprs([polynomial_roots(cs) for cs in fibres], rows.tolist())


@pytest.fixture
def generic_loop_calls(monkeypatch):
    """Every coefficient list the generic loop is called with."""
    import semijulia.ratmap as ratmap

    calls = []
    generic = ratmap._aberth_roots

    def spy(coeffs):
        calls.append(list(coeffs))
        return generic(coeffs)

    monkeypatch.setattr(ratmap, "_aberth_roots", spy)
    return calls


def cubic_start_at(monkeypatch, start):
    """Every cubic's iteration starts from the fixed points ``start``, in the
    scalar solvers and the batch rows alike."""
    import semijulia.ratmap as ratmap

    xs = np.array(start)
    monkeypatch.setattr(ratmap, "_cardano", lambda m0, *terms: start)

    def rows(mr, mi):
        m = mr.shape[0]
        return np.tile(xs.real, (m, 1)), np.tile(xs.imag, (m, 1)), np.ones(m, dtype=bool)

    monkeypatch.setattr(ratmap, "_cubic_start_rows", rows)


@pytest.mark.parametrize(
    "f, z, start",
    [
        # two equal starting points near the double root 1 of z^3 - 3z + 2:
        # the zero difference takes the gap, of opposite signs from either
        # side
        (rational_map([2, -3, 0, 1]), 0j, (1.0000001 + 1e-8j, 1.0000001 + 1e-8j, -1.5 + 0j)),
        # the fibre z^3 + 0.3 - w has no linear term, so its derivative vanishes at 0
        (cubic(), 0.5 + 0.25j, (0j, -0.75 + 1.3j, -0.75 - 1.3j)),
    ],
    ids=["zero pair difference", "zero derivative"],
)
def test_cubic_rare_first_sweep_reruns_generic_loop(monkeypatch, generic_loop_calls, f, z, start):
    # no cubic met in practice reaches either branch; these starts fail the
    # stop test, so the generic loop and the batch rows meet the branch in
    # their first sweep
    cubic_start_at(monkeypatch, start)
    assert repr(preimages(f, z)) == repr(batch_rows(f, [z])[0])
    assert len(generic_loop_calls) == 1


def test_coinciding_iterates_part(monkeypatch, generic_loop_calls):
    # two equal starting points off any multiple root: the zero difference
    # takes a gap of opposite signs from either side, so the pair parts and
    # the solve converges, in the generic loop and the batch rows alike
    p = 1.3 * cmath.exp(0.4j)
    q = 1.3 * cmath.exp(1j * (2 * math.pi / 3 + 0.4))
    cubic_start_at(monkeypatch, (p, p, q))
    z = 0.5 + 0.25j
    roots = preimages(cubic(), z)
    assert repr(roots) == repr(batch_rows(cubic(), [z])[0])
    assert len(generic_loop_calls) == 1
    for w in roots:
        assert abs(w**3 + 0.3 - z) <= 1e-12


def test_cubic_sweep_budget_reruns_generic_loop(monkeypatch, circle_start, generic_loop_calls):
    # from the circle start, the smallest budget that does not raise ends
    # with the last sweep's update, which the stop test at sweep _MAX_SWEEPS
    # accepts; each solve is one generic loop call
    import semijulia.ratmap as ratmap

    z = 0.5 + 0.25j
    full = repr(preimages(cubic(), z))
    assert len(generic_loop_calls) == 1
    for budget in range(1, 60):
        monkeypatch.setattr(ratmap, "_MAX_SWEEPS", budget)
        try:
            roots = preimages(cubic(), z)
        except SolverDivergence as err:
            assert err.sweeps == budget
            assert list(err.coeffs) == generic_loop_calls[-1]
            with pytest.raises(SolverDivergence) as batch:
                batch_rows(cubic(), [z])
            assert batch.value.coeffs == err.coeffs
            continue
        break
    assert budget > 1
    assert len(generic_loop_calls) == budget + 1
    assert repr(roots) == full == repr(batch_rows(cubic(), [z])[0])


def test_cubic_chain_never_runs_the_generic_loop(generic_loop_calls):
    # every cubic fibre of a cubic-rational chain passes the stop test at
    # Cardano's start; a cubic that needs sweeps runs the generic loop once
    # and agrees with the batch rows
    from semijulia.backward import random_backward_orbit
    from semijulia.semigroup import Semigroup

    sg = Semigroup((cubic(), rational_map([0.5, 0, 1], [0, 1.5])))
    orbit = random_backward_orbit(sg, 0.3 + 0.2j, 5000, 1)
    assert sum(s < 3 for s in orbit.symbols) > 2000  # cubic steps
    assert generic_loop_calls == []
    f = rational_map(cubic_with_roots(1e-8, 1e4, -2e4 + 1j))
    assert repr(preimages(f, 0j)) == repr(batch_rows(f, [0j])[0])
    assert len(generic_loop_calls) == 1


def test_nan_residual_never_passes_the_stop_test():
    # Cardano refuses the start (h * h overflows), and from the circle the
    # monic constant 1e300 overflows x^3 in the first sweep; a NaN residual
    # counts as not converged in the generic loop and the batch rows alike,
    # so every solver raises on the same coefficients instead of returning
    # NaN roots
    from semijulia.ratmap import _aberth_roots, _aberth_rows

    cs = [1 + 0j, 0j, 0j, 1e-300 + 0j]
    c = np.array([cs])
    for solve in (
        _aberth_roots,
        polynomial_roots,
        lambda cs: _aberth_rows(c.real, c.imag),
    ):
        with np.errstate(all="ignore"), pytest.raises(SolverDivergence) as err:
            solve(cs)
        assert err.value.coeffs == tuple(cs)
    # the preimages of infinity are the roots of that denominator
    with pytest.raises(SolverDivergence):
        preimages(rational_map([1], [1e300, 0, 0, 1]), INF)


def test_monic_modulus_past_the_largest_double_raises_divergence():
    # finite parts, but |c0 / c_n| = 1.8e308 overflows abs: Cardano refuses
    # the cubic's start, and the generic loop raises on the coefficients
    # instead of an OverflowError
    for cs in ([1.3e150 + 1.3e150j, 0, 0, 1e-158], [1.3e150 + 1.3e150j, 0, 0, 0, 1e-158]):
        with pytest.raises(SolverDivergence) as err:
            polynomial_roots(cs)
        assert err.value.coeffs == tuple(cs)
    # the preimages of infinity are the roots of that denominator; at a
    # finite point the degree-drop cut removes its tiny lead
    f = rational_map([1], [1.3e150 + 1.3e150j, 0, 0, 1e-158])
    with pytest.raises(SolverDivergence) as err:
        preimages(f, INF)
    assert err.value.coeffs == tuple(f.denominator.coeffs)


# ---------------------------------------------------------------------------
# Cardano's start of the cubic iteration: the scalar start against the batch
# start, and whole preimages rows against preimages_batch rows


def cubic_with_roots(*roots):
    """Ascending coefficients of the monic cubic with these roots."""
    return [complex(c) for c in np.poly(roots)[::-1]]


def cubic_edge_rows():
    """(class, num, den, z) rows whose fibre num - z den is a cubic of each
    edge class of Cardano's start, seeded."""
    rng = np.random.default_rng(2113)

    def draw(k, scale=1.0):
        return (scale * rng.normal(size=(k, 2)) @ [1, 1j]).tolist()

    rows = [("p = 0", [0.3, 0, 0, 1], [1], w) for w in [0j, 1 + 0j, *draw(4, 2.0)]]
    # q = 0: t^3 + p t, also shifted by s (x = t - s)
    for p, s in [(-1, 0), (1j, 0), *zip(draw(3), draw(3))]:
        shifted = [s**3 + p * s, 3 * s * s + p, 3 * s, 1]
        rows.append(("q = 0", shifted, [1], 0j))
    # triple roots, A = 0 exactly: the circle start is taken
    rows += [("triple", [0.3, 0, 0, 1], [1], 0.3 + 0j), ("triple", [-1, 3, -3, 1], [1], 0j)]
    # near-triple clusters: (x - a)^3 - eps
    for a, eps in [(1, 1e-12), (1, 1e-15), (draw(1)[0], 1e-10), (draw(1)[0], 1e-13j)]:
        rows.append(("near-triple", [-(a**3), 3 * a * a, -3 * a, 1], [1], eps))
    # a small root among large ones: Cardano's u + v - s cancels in it
    for small, big in [(1e-8, 50), (1e-6, 30j), (1e-5, 80)]:
        rows.append(("small among large", cubic_with_roots(small, big, -2 * big + 1j), [1], 0j))
    # numerator and denominator scaled by 2^k, so that the fibres peak just
    # inside or just outside the 2^+-500 rescale
    for k in (497, 501, -501, -504):
        num, den = draw(4), draw(2)
        rows += [("2^+-500", [2.0**k * c for c in num], [2.0**k * c for c in den], w) for w in draw(2)]
    # rational maps of degree 3, at seeded points
    rows += [("rational", draw(4), draw(3), w) for w in draw(3, 2.0)]
    return rows


CUBIC_EDGE_ROWS = cubic_edge_rows()
CUBIC_EDGE_IDS = [f"{row[0]} {k}" for k, row in enumerate(CUBIC_EDGE_ROWS)]


def monic_fibre(f, z):
    """The monic coefficients the cubic solvers form from preimages' fibre,
    or None where its cubic coefficient is 0."""
    from semijulia.ratmap import _fibre, _normalized

    cs = _normalized(*_fibre(f, z))[0]
    return [c / cs[3] for c in cs] if cs[3] != 0 else None


def batch_start(monic):
    from semijulia.ratmap import _cubic_start_rows

    c = np.array([monic])
    xr, xi, ok = _cubic_start_rows(c.real, c.imag)
    return (xr[0] + 1j * xi[0]).tolist() if ok[0] else None


@pytest.mark.parametrize("cls, num, den, z", CUBIC_EDGE_ROWS, ids=CUBIC_EDGE_IDS)
def test_cubic_edge_rows_start_and_roots_match_batch(cls, num, den, z):
    from semijulia.ratmap import _cubic_start

    f = rational_map(num, den)
    assert f.degree == 3
    monic = monic_fibre(f, z)
    start = _cubic_start(*monic[:3])
    assert repr(None if start is None else list(start)) == repr(batch_start(monic))
    got = preimages(f, z)
    assert repr(batch_rows(f, [z])) == repr([got])
    for w in got:
        assert chordal_distance(evaluate(f, w), z) <= 1e-9
    assert (start is None) == (cls == "triple")


def test_small_root_among_large_ones_iterates_past_cardano():
    # Cardano's small root keeps about 4 digits (u + v - s cancels); the
    # iteration takes it on to full precision before the stop test passes
    from semijulia.ratmap import _cubic_start

    cs = cubic_with_roots(1e-8, 1e4, -2e4 + 1j)
    small_start = min(_cubic_start(*cs[:3]), key=abs)
    small = min(polynomial_roots(cs), key=abs)
    assert abs(small_start - 1e-8) > 1e-6 * 1e-8
    assert abs(small - 1e-8) <= 1e-14 * 1e-8


def test_cubic_start_refuses_non_finite_and_coinciding_points():
    from semijulia.ratmap import _cubic_start

    for monic in (
        [1e300 + 0j, 0j, 0j, 1 + 0j],  # h * h overflows
        [0j, 1e200 + 0j, 0j, 1 + 0j],  # (p/3)^3 overflows
        [0j, 0j, 0j, 1 + 0j],  # A = 0
        # x^3 + 3e8 x^2 + 1: h * h + (p/3)^3 cancels to 0, and both small
        # roots come out as 0
        [1 + 0j, 0j, 3e8 + 0j, 1 + 0j],
    ):
        assert _cubic_start(*monic[:3]) is None
        assert batch_start(monic) is None


scales = st.sampled_from([10.0**k for k in range(-12, 13, 3)] + [2.0**499, 2.0**-501])


@st.composite
def cubic_rows(draw):
    # a cubic map and a point, every coefficient at its own scale
    num = [draw(coeff) * draw(scales) for _ in range(4)]
    den = [draw(coeff) * draw(scales) for _ in range(draw(st.integers(1, 4)))]
    try:
        f = rational_map(num, den)
    except ValueError:
        assume(False)
    assume(f.degree == 3)
    return f, draw(coeff) * draw(scales)


# 100 examples in the suite; CI runs 2,000 under --hypothesis-profile thorough
@given(cubic_rows())
def test_cubic_scalar_matches_batch_on_random_cubics(row):
    from semijulia.ratmap import _cubic_start

    f, z = row
    try:
        got = repr(preimages(f, z))
    except SolverDivergence as err:
        with pytest.raises(SolverDivergence) as batch:
            batch_rows(f, [z])
        assert batch.value.coeffs == err.coeffs
        return
    assert repr(batch_rows(f, [z])[0]) == got
    # the start, wherever the fibre's monic coefficients are finite (a
    # dropped degree may leave them huge or non-finite)
    monic = monic_fibre(f, z)
    if monic is not None and all(cmath.isfinite(m) for m in monic):
        start = _cubic_start(*monic[:3])
        assert repr(None if start is None else list(start)) == repr(batch_start(monic))


# ---------------------------------------------------------------------------
# scalar preimages of degree-2 maps, against the batch rows (an independent,
# vectorized kernel) and against the general path built from public pieces


def quadratics():
    return [
        rational_map([0, 0, 1]),  # z^2
        rational_map([0, 0, 0.25]),  # z^2/4
        rational_map([0.5, 0, 1], [0, 1.5]),  # (z^2+0.5)/(1.5z)
    ]


def batch_rows_all_common(monkeypatch, f, pts):
    """batch_rows, asserting that every row went through the vectorized
    kernel (no scalar preimages call for an exceptional row)."""
    import semijulia.ratmap as ratmap

    def refuse(f, z):
        raise AssertionError(f"row {z!r} is not a common row")

    monkeypatch.setattr(ratmap, "preimages", refuse)
    rows = batch_rows(f, pts)
    monkeypatch.undo()
    return rows


@pytest.mark.parametrize("f", quadratics(), ids=["z^2", "z^2/4", "(z^2+0.5)/(1.5z)"])
def test_quadratic_scalar_matches_batch_rows_on_seeded_points(monkeypatch, f):
    rng = np.random.default_rng(17)
    # the annulus 1 <= |z| <= 4 and well beyond it on either side
    zs = 10.0 ** rng.uniform(-3, 3, 3000) * np.exp(2j * np.pi * rng.random(3000))
    zs[:6] = [1, -1, 1j, 4, 0.25 - 0.5j, 3e-5]
    pts = zs.tolist()
    want = batch_rows_all_common(monkeypatch, f, pts)
    assert_same_reprs([preimages(f, z) for z in pts], want)


def test_quadratic_scalar_matches_batch_rows_on_random_maps(monkeypatch):
    # one random point under each of 2,000 random maps of degree 2, rational
    # ones included
    rng = np.random.default_rng(23)
    got, want = [], []
    while len(got) < 2000:
        dn, dd = rng.integers(0, 3, size=2)
        if max(dn, dd) != 2:
            continue
        num = rng.normal(size=(dn + 1, 2)) @ [1, 1j]
        den = rng.normal(size=(dd + 1, 2)) @ [1, 1j]
        try:
            f = rational_map(num, den)
        except ValueError:  # a shared root, refused
            continue
        z = complex(*(3 * rng.normal(size=2)))
        got.append(preimages(f, z))
        want.append(batch_rows_all_common(monkeypatch, f, [z])[0])
    assert_same_reprs(got, want)


def general_path(f, z):
    """The general path's answer from public pieces: the fibre polynomial
    (scaled by a power of two where it overflows), cut where its leading
    coefficients drop below 1e-14 of the largest, and polynomial_roots of
    the rest, in branch order with infinity last."""
    cs = fibre_polynomial(f, z)
    mags = [abs(c) for c in cs]
    cut = 1e-14 * max(mags)
    top = f.degree
    while top > 0 and mags[top] <= cut:
        top -= 1
    roots = sorted(polynomial_roots(cs[: top + 1]), key=lambda w: (w.real, w.imag))
    return roots + [INF] * (f.degree - top)


_EDGE = 2.0**500
_PAST = 1 + 2.0**-52


# b = 0 and 4ac underflows to 0 although the peak |a| = 2^-500 needs no
# rescale: the closed form meets q = 0 and solves again on scaled
# coefficients, giving +-1.8092513943330656e-25
UNDERFLOW_ROW = ([0, 0, 2.0**-500], [1], 1e-200 + 0j)

# fibres at and just past every rule of the degree-2 path
QUADRATIC_EDGE_ROWS = [
    # c = 0: a zero constant, so a zero root
    ([0, 0, 1], [1], 0j),
    ([0, 1, 1], [1], 0j),
    ([0.5, 0, 1], [0, 1.5], 0.5 - 0j),  # c = 0.5 - 0.5 = 0
    # the lead a = 1 - z just at the degree-drop cut and just above it
    ([1, 1, 1], [2, 0, 1], complex(_PAST)),
    ([1, 1, 1], [2, 0, 1], 1 + 2.0**-44 + 0j),
    ([1, 0, 1], [2, 0, 1], 1 + 0j),  # every coefficient but c vanishes
    # the peak |c| = |z| just inside and just outside 2^500
    ([0, 0, 1], [1], complex(_EDGE)),
    ([0, 0, 1], [1], complex(_EDGE * _PAST)),
    ([0, 0, 1], [1], -1j * _EDGE),
    # the peak |a| = 2^-500 just inside, and just below it
    ([0, 0, 1 / _EDGE], [1], complex(0.5 / _EDGE)),
    ([0, 0, (1 - 2.0**-53) / _EDGE], [1], complex(0.5 / _EDGE)),
    # far outside: unscaled, b*b - 4ac would underflow or overflow
    ([0, 0, 1e-200], [1], 1e-200 + 0j),
    ([1, 0, 1], [2, 0, 1], 1e200 + 0j),
    # |z| overflows a double though both parts are finite
    ([0, 0, 1], [1], 1.5e308 + 1.5e308j),
    ([1, 0, 1], [2, 0, 1], 1.2e308 + 1.2e308j),
    # z * (2+2j) has the real part inf - inf = nan
    ([0, 0, 1], [2 + 2j], 1e308 + 1e308j),
    # signed zeros in the point and in the coefficients
    ([0, 0, 1], [1], complex(-0.0, 0.0)),
    ([0, 0, 1], [1], complex(-0.0, -0.0)),
    ([0, 0, 1], [1], complex(4, -0.0)),
    ([0, 0, 1], [1], complex(-4, -0.0)),
    ([complex(-0.0, 0.5), -0.0, complex(1, -0.0)], [1], complex(-0.0, 0.5)),
    ([complex(0.5, -0.0), complex(-0.0, -0.0), 1], [complex(-0.0, 1.5)], -2 + 0j),
    # roots -2i and 2i: equal real parts, so the imaginary ones swap the pair
    ([0, 0, -1], [1], 4 + 0j),
    UNDERFLOW_ROW,
]


@pytest.mark.parametrize("num, den, z", QUADRATIC_EDGE_ROWS)
def test_quadratic_edge_rows_match_the_general_path(num, den, z):
    f = rational_map(num, den)
    assert f.degree == 2
    got = preimages(f, z)
    assert repr(got) == repr(general_path(f, z))
    assert repr(batch_rows(f, [z])) == repr([got])
    for w in got:
        assert chordal_distance(evaluate(f, w), z) <= 1e-9


def test_underflow_row_roots():
    num, den, z = UNDERFLOW_ROW
    f = rational_map(num, den)
    want = "[(-1.8092513943330656e-25+0j), (1.8092513943330656e-25-0j)]"
    assert repr(preimages(f, z)) == want
    assert repr(polynomial_roots(fibre_polynomial(f, z))) == want


def golden_cases():
    """A polynomial and two rational maps of each degree 1-6, with seeded
    coefficients, at 0, INF, 1e-200, 1.5e308+1.5e308j and three seeded
    points; then the quadratic edge rows."""
    rng = np.random.default_rng(31)
    maps = []
    for d in range(1, 7):
        for dn, dd in ((d, 0), (d, d), (d - 1, d)):
            while True:
                num, den = (rng.normal(size=(k + 1, 2)) @ [1, 1j] for k in (dn, dd))
                try:
                    maps.append(rational_map(num, den))
                    break
                except ValueError:  # a shared root, refused
                    pass
    pts = [0j, INF, 1e-200 + 0j, 1.5e308 + 1.5e308j, *(3 * rng.normal(size=(3, 2)) @ [1, 1j])]
    cases = [(f, z) for f in maps for z in pts]
    # the underflow row raised ZeroDivisionError when the digest was recorded;
    # test_underflow_row_roots pins its roots
    edge = [row for row in QUADRATIC_EDGE_ROWS if row is not UNDERFLOW_ROW]
    return cases + [(rational_map(num, den), z) for num, den, z in edge]


def test_preimages_bits_are_pinned():
    # sha1 of repr of the preimages lists over golden_cases(), 149 calls; it
    # pins every root's bits and the branch order.  The 149 calls were first
    # pinned by one digest, recorded at the commit before scalar preimages
    # lost its separate degree-2 branch.  Cubics now start their iteration at
    # Cardano's roots, which moves the last bits of the 19 lists with three
    # finite roots (every cubic solve; two are degree-4 maps at 0, where the
    # fibre drops to degree 3), so they have their own digest, recorded after
    # the scalar and batch cubic rows were checked equal by repr.  The other
    # 130 lists did not move: their digest was taken at the commit before the
    # Cardano start and holds after it.
    cases = golden_cases()
    rows = [preimages(f, z) for f, z in cases]
    assert len(cases) == 149
    cubic = [r for r in rows if sum(not is_inf(w) for w in r) == 3]
    other = [r for r in rows if sum(not is_inf(w) for w in r) != 3]
    assert len(cubic) == 19
    assert hashlib.sha1(repr(cubic).encode()).hexdigest() == "c31fc7463bf5bddddfa48c88407b2b71b0881f9c"
    assert hashlib.sha1(repr(other).encode()).hexdigest() == "254ea46a5dad5ea78bfe8cec774e10a391ea69e1"


# ---------------------------------------------------------------------------
# the chain walker, step by step against preimages


def walk_and_steps(monkeypatch, maps, start, symbols):
    """preimage_walk over ``symbols`` (all branches of all maps, in order),
    the same steps as one preimages call each, and the points at which the
    walker itself called preimages."""
    import semijulia.ratmap as ratmap

    decode = [(j, r) for j, f in enumerate(maps) for r in range(f.degree)]
    calls = []

    def spy(f, z):
        calls.append(z)
        return preimages(f, z)

    monkeypatch.setattr(ratmap, "preimages", spy)
    walk = preimage_walk(maps, decode, symbols, start)
    monkeypatch.undo()
    z, steps = start, []
    for s in symbols:
        j, r = decode[s]
        z = preimages(maps[j], z)[r]
        steps.append(z)
    return walk, steps, calls


def random_symbols(maps, n, seed):
    return np.random.default_rng(seed).integers(sum(f.degree for f in maps), size=n).tolist()


@pytest.mark.parametrize(
    "maps, start, reaches",
    [
        # INF (under the lead 1 - z) and the degree drops around it
        ([square(), rational_map([1, 0, 1], [2, 0, 1])], 1 + 0j, lambda steps, calls: INF in steps),
        # c = 0 on every step: 0 is a fixed point of both maps
        ([square(), rational_map([0, 0, 0.25])], 0j, lambda steps, calls: len(calls) == len(steps)),
        # |z| overflows a double, then the peak lies past 2^500 for a step
        (
            [square(), rational_map([0, 0, 0.25])],
            1.7e308 + 1.7e308j,
            lambda steps, calls: calls[:2] == [1.7e308 + 1.7e308j, steps[0]],
        ),
        # every fibre of the first map peaks near 1e-200: the rescale
        (
            [rational_map([0, 0, 1e-200], [1e-200]), rational_map([0, 0, 0.25])],
            1 + 1j,
            lambda steps, calls: 0 < len(calls) < len(steps),
        ),
        # a polynomial cubic and a rational quadratic, both stepped inline
        (
            [rational_map([0.3, 0, 0, 1]), rational_map([0.5, 0, 1], [0, 1.5])],
            0.3 + 0.2j,
            lambda steps, calls: calls == [],
        ),
        # a degree-1 map
        ([square(), rational_map([0, 2])], 1 + 1j, lambda steps, calls: 0 < len(calls) < len(steps)),
    ],
    ids=["INF and degree drops", "c = 0", "near 1.7e308", "1e-200 coefficients", "cubic", "degree 1"],
)
def test_walk_steps_are_preimages(monkeypatch, maps, start, reaches):
    symbols = random_symbols(maps, 2000, 5)
    walk, steps, calls = walk_and_steps(monkeypatch, maps, start, symbols)
    assert_same_reprs(walk, steps)
    assert reaches(steps, calls)


@pytest.mark.parametrize(
    "roots, cardano_refuses",
    [
        # z^3 at 0: A = 0, so Cardano refuses the start
        ([0, 0, 0], True),
        # Cardano's start loses the root 1e-8 to cancellation and fails the
        # sweep-0 stop test
        ([1e-8, 1e4, -2e4 + 1j], False),
    ],
    ids=["z^3 (A = 0)", "roots 1e-8, 1e4, -2e4+i"],
)
def test_walk_hands_a_refused_cubic_start_to_preimages(monkeypatch, roots, cardano_refuses):
    # the walker's two cubic fallbacks: _cubic_roots gives None, and the
    # step is the generic loop's, through preimages
    import semijulia.ratmap as ratmap

    f = rational_map(np.polynomial.polynomial.polyfromroots(roots).tolist())
    assert ratmap._walk_step(f)[0] == 3  # the folded cubic step
    _, n1, n2, n3 = f.numerator.coeffs
    consts = ratmap._cubic_consts(n1, n2, n3)
    c0 = f.numerator.coeffs[0]
    assert (ratmap._cardano(c0 / n3, *consts[4:8]) is None) == cardano_refuses
    assert ratmap._cubic_roots(c0, consts) is None
    walk, steps, calls = walk_and_steps(monkeypatch, [f], 0j, [0, 1, 2])
    assert_same_reprs(walk, steps)
    assert calls[0] == 0j


@pytest.mark.parametrize("num, den, z", QUADRATIC_EDGE_ROWS)
def test_walk_steps_from_the_quadratic_edge_rows(monkeypatch, num, den, z):
    f = rational_map(num, den)
    for r in range(2):
        walk, steps, _ = walk_and_steps(monkeypatch, [f], z, [r])
        assert repr(walk) == repr(steps)


@st.composite
def quadratic_maps(draw):
    # degree 2 in the numerator, the denominator or both, at a scale that
    # may need the rescale
    dn, dd = draw(st.sampled_from([(2, 0), (2, 1), (2, 2), (1, 2), (0, 2)]))
    scale = draw(st.sampled_from([1.0, 2.0**-520, 2.0**520, 1e-200]))
    num = draw(st.lists(coeff, min_size=dn + 1, max_size=dn + 1))
    den = draw(st.lists(coeff, min_size=dd + 1, max_size=dd + 1))
    assume(num[-1] != 0 and den[-1] != 0)
    try:
        f = rational_map([scale * c for c in num], den)
    except ValueError:
        assume(False)
    assume(f.degree == 2)
    return f


# 100 examples in the suite; CI runs 2,000 under --hypothesis-profile thorough
@given(
    st.lists(quadratic_maps(), min_size=1, max_size=2),
    st.one_of(points, st.just(0j), coeff.map(lambda z: z * 1e200)),
    st.lists(st.integers(0, 3), min_size=1, max_size=30),
)
def test_walk_matches_preimages_on_random_quadratics(maps, start, picks):
    symbols = [p % (2 * len(maps)) for p in picks]
    decode = [(j, r) for j in range(len(maps)) for r in range(2)]
    z, steps = start, []
    for s in symbols:
        j, r = decode[s]
        z = preimages(maps[j], z)[r]
        steps.append(z)
    assert_same_reprs(preimage_walk(maps, decode, symbols, start), steps)


@st.composite
def polynomial_maps(draw):
    # degree 2 or 3 over a constant denominator (1, 1 - 0j or not 1), complex
    # coefficients, at a scale that may need the rescale, and in half the
    # maps one numerator part set to -0.0
    d = draw(st.sampled_from([2, 3]))
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 2.0**-520, 2.0**520, 1e-200]))
    num = [scale * draw(coeff) for _ in range(d + 1)]
    if draw(st.booleans()):
        k = draw(st.integers(0, d))
        num[k] = draw(st.sampled_from([complex(-0.0, num[k].imag), complex(num[k].real, -0.0)]))
    den = draw(st.sampled_from([1, complex(1, -0.0), 2, 0.5 - 0.25j, complex(-0.0, 1.5)]))
    try:
        f = rational_map(num, [den])
    except ValueError:  # every coefficient underflowed
        assume(False)
    assume(f.degree == d)
    return f


# a -0.0 part: z^2 + (-0.5 - 0j) z + (1 - 0j) at -1 - 0j.  There
# b = n1 - z*0j = (-0.5 + 0j) is not n1, and a step on the folded b would
# give each branch the conjugate of its root, so the walker steps this map
# on its fibre pairs
NEGATIVE_ZERO_MAP = ([complex(1, -0.0), complex(-0.5, -0.0), 1], complex(-1, -0.0))


def test_walk_steps_a_negative_zero_numerator_unfolded(monkeypatch):
    num, z = NEGATIVE_ZERO_MAP
    f = rational_map(num)
    want = "[(0.25+1.3919410907075054j), (0.25000000000000006-1.3919410907075056j)]"
    assert repr(preimages(f, z)) == want
    for r in range(2):
        walk, steps, calls = walk_and_steps(monkeypatch, [f], z, [r])
        assert repr(walk) == repr(steps) and calls == []


# 100 examples in the suite; CI runs 2,000 under --hypothesis-profile thorough
@given(
    st.lists(polynomial_maps(), min_size=1, max_size=2),
    # a finite start: a polynomial's chain from INF stays there
    st.one_of(coeff.map(lambda z: 3 * z), st.just(0j), coeff.map(lambda z: z * 1e200)),
    st.lists(st.integers(0, 5), min_size=1, max_size=30),
)
@example([rational_map(NEGATIVE_ZERO_MAP[0])], NEGATIVE_ZERO_MAP[1], [0, 1, 0])
def test_walk_matches_preimages_on_random_polynomials(maps, start, picks):
    decode = [(j, r) for j, f in enumerate(maps) for r in range(f.degree)]
    symbols = [p % len(decode) for p in picks]
    z, steps = start, []
    try:
        for s in symbols:
            j, r = decode[s]
            z = preimages(maps[j], z)[r]
            steps.append(z)
    except SolverDivergence as err:
        with pytest.raises(SolverDivergence) as walk:
            preimage_walk(maps, decode, symbols, start)
        assert walk.value.coeffs == err.coeffs
        return
    assert_same_reprs(preimage_walk(maps, decode, symbols, start), steps)
