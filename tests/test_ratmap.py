import cmath
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
    polynomial_roots,
    preimages,
    preimages_batch,
    rational_map,
)
from semijulia.sphere import INF, chordal_distance, is_inf


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
    assert hausdorff_distance(a, b) <= 1e-3


def test_solution_set_holder_branching_at_critical_value():
    # at a totally ramified critical value the solution set splits at the
    # cube-root rate; this is the behavior the generic-z bound must dodge
    f = rational_map([1], [0, 0, 0, 1])  # 1 / z^3
    assert preimages(f, 0) == [INF, INF, INF]
    moved = preimages(f, 1e-8)
    d = hausdorff_distance([INF], moved)
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


def test_batch_cubic_rows_follow_scalar_branch_order():
    f = rational_map([0.3, 0, 0, 1])
    pts = [cmath.rect(0.2 + 0.1 * k, 0.7 * k) for k in range(40)]
    assert batch_rows(f, pts) == [preimages(f, z) for z in pts]


def test_batch_raises_divergence_like_scalar(monkeypatch):
    # with a two-sweep budget no cubic row converges; both paths report the
    # same coefficients
    import semijulia.ratmap as ratmap

    monkeypatch.setattr(ratmap, "_MAX_SWEEPS", 2)
    f = rational_map([0.3, 0, 0, 1])
    with pytest.raises(SolverDivergence) as scalar:
        preimages(f, 0.5 + 0j)
    with pytest.raises(SolverDivergence) as batch:
        batch_rows(f, [0.5 + 0j, 1j])
    assert batch.value.coeffs == scalar.value.coeffs
