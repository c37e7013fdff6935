import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semijulia.sphere import INF, chordal_distance, ensure_point, is_inf

finite_points = st.complex_numbers(
    max_magnitude=1e6, allow_nan=False, allow_infinity=False
)
points = st.one_of(finite_points, st.just(INF))


def test_identity_case():
    assert chordal_distance(0j, 0j) == 0.0


def test_antipodal_pairs_attain_diameter():
    assert chordal_distance(0j, INF) == 2.0
    # 2*|1-(-1)| / (sqrt(2)*sqrt(2)) = 2
    assert chordal_distance(1 + 0j, -1 + 0j) == pytest.approx(2.0, abs=1e-12)


def test_inf_to_inf_is_zero():
    assert chordal_distance(INF, INF) == 0.0


def test_distance_to_infinity_formula():
    assert chordal_distance(3 + 4j, INF) == pytest.approx(2.0 / math.sqrt(26))
    assert chordal_distance(INF, 3 + 4j) == pytest.approx(2.0 / math.sqrt(26))


def test_huge_moduli_do_not_overflow():
    a = 1e200 + 0j
    b = -1e200 + 0j
    assert chordal_distance(a, INF) <= 1e-9
    d = chordal_distance(a, b)
    assert 0.0 <= d <= 1e-9  # both are chordally next to infinity
    assert chordal_distance(a, 0j) == pytest.approx(2.0, abs=1e-12)
    # |q| itself exceeds the largest double
    assert chordal_distance(1j, -1.7e308 + 1.7e308j) == pytest.approx(math.sqrt(2), abs=1e-12)


@given(points, points)
def test_symmetry_and_bound(p, q):
    d = chordal_distance(p, q)
    assert 0.0 <= d <= 2.0 + 1e-15
    assert d == chordal_distance(q, p)


@given(points, points, points)
def test_triangle_inequality(p, q, r):
    assert chordal_distance(p, q) <= (
        chordal_distance(p, r) + chordal_distance(r, q) + 1e-12
    )


@given(
    st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False,
                       allow_infinity=False),
    st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False,
                       allow_infinity=False),
)
def test_inversion_is_an_isometry(p, q):
    assert chordal_distance(p, q) == pytest.approx(
        chordal_distance(1 / p, 1 / q), abs=1e-9
    )


def test_ensure_point_accepts_numbers_and_inf():
    assert ensure_point(2) == 2 + 0j
    assert ensure_point(1.5 - 2j) == 1.5 - 2j
    assert ensure_point(INF) is INF
    assert is_inf(ensure_point(INF))


@pytest.mark.parametrize("bad", [complex("inf"), complex("nan"), float("inf"), float("nan")])
def test_ensure_point_rejects_non_finite_floats(bad):
    with pytest.raises(ValueError):
        ensure_point(bad)


def test_single_infinity_representation():
    assert repr(INF) == "INF"
    assert ensure_point(INF) is INF
