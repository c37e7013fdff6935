import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semijulia.backward import random_backward_orbit
from semijulia.ratmap import rational_map
from semijulia.semigroup import (
    ExceptionalStartPoint,
    ProbabilityVector,
    Semigroup,
    build_index_distribution,
    exceptional_candidates,
    make_rng,
    sample_branch_block,
    validate_assumptions,
)
from semijulia.sphere import INF, chordal_distance


def monomial(d):
    return rational_map([0] * d + [1])


def square_sg(b=None):
    return Semigroup((monomial(2),), b)


# ---------------------------------------------------------------------------
# ProbabilityVector


def test_probability_vector_requires_positive_weights():
    with pytest.raises(ValueError):
        ProbabilityVector([0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        ProbabilityVector([1.5, -0.5])
    with pytest.raises(ValueError):
        ProbabilityVector([])


def test_probability_vector_rejects_bad_sum():
    with pytest.raises(ValueError):
        ProbabilityVector([0.45, 0.45])  # sums to 0.9


def test_probability_vector_sum_is_exactly_one():
    pv = ProbabilityVector([1 / 3, 1 / 3, 1 / 3 + 1e-13])
    assert sum(pv.weights) == 1.0
    assert all(w > 0 for w in pv.weights)


def test_uniform_vector():
    assert ProbabilityVector.uniform(4).weights == (0.25, 0.25, 0.25, 0.25)


# ---------------------------------------------------------------------------
# Semigroup


def test_total_degree_is_sum():
    sg = Semigroup((monomial(2), monomial(3)), ProbabilityVector([0.5, 0.5]))
    assert sg.total_degree == 5


def test_default_b_is_uniform():
    sg = Semigroup((monomial(2), monomial(3)))
    assert sg.b.weights == (0.5, 0.5)


def test_semigroup_needs_degree_two_generator():
    mobius = rational_map([0, 1], [1])  # z
    with pytest.raises(ValueError):
        Semigroup((mobius,))


def test_semigroup_b_length_must_match():
    with pytest.raises(ValueError):
        Semigroup((monomial(2),), ProbabilityVector([0.5, 0.5]))


# ---------------------------------------------------------------------------
# index distribution


def test_single_generator_uniform_over_branches():
    dist = build_index_distribution(square_sg())
    assert dist.probabilities == (0.5, 0.5)
    assert dist.decode == ((0, 0), (0, 1))


def test_two_generator_block_weights():
    sg = Semigroup((monomial(2), monomial(3)), ProbabilityVector([0.5, 0.5]))
    dist = build_index_distribution(sg)
    assert dist.probabilities == (0.25, 0.25, 1 / 6, 1 / 6, 1 / 6)
    assert dist.decode == ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2))


def test_degree_proportional_weights_give_uniform():
    sg = Semigroup((monomial(2), monomial(3)), ProbabilityVector([2 / 5, 3 / 5]))
    dist = build_index_distribution(sg)
    assert all(abs(p - 0.2) <= 1e-15 for p in dist.probabilities)


def test_cumulative_ends_at_one():
    sg = Semigroup((monomial(2), monomial(3)), ProbabilityVector([0.3, 0.7]))
    dist = build_index_distribution(sg)
    assert dist.cumulative[-1] == 1.0


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_distribution_sums_to_one_with_blockwise_equality(degrees, seed):
    if max(degrees) < 2:
        degrees[0] = 2
    rng = make_rng(seed)
    raw = rng.uniform(0.1, 1.0, len(degrees))
    b = ProbabilityVector(raw / raw.sum())
    sg = Semigroup(tuple(monomial(d) for d in degrees), b)
    dist = build_index_distribution(sg)
    assert abs(sum(dist.probabilities) - 1.0) <= 1e-12
    for i, (j, r) in enumerate(dist.decode):
        assert dist.probabilities[i] == b.weights[j] / degrees[j]
        assert 0 <= r < degrees[j]


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic_per_seed():
    sg = Semigroup((monomial(2), monomial(3)), ProbabilityVector([0.5, 0.5]))
    dist = build_index_distribution(sg)
    rng = make_rng(7)
    a = sample_branch_block(dist, rng, 200)
    assert sample_branch_block(dist, make_rng(7), 200).tolist() == a.tolist()
    # the supplied generator advances: its next block differs
    assert sample_branch_block(dist, rng, 200).tolist() != a.tolist()


def test_empirical_frequencies_match_distribution():
    sg = Semigroup((monomial(2), monomial(3)), ProbabilityVector([0.5, 0.5]))
    dist = build_index_distribution(sg)
    n = 1_000_000
    draws = sample_branch_block(dist, make_rng(1234), n)
    freq = np.bincount(draws, minlength=5) / n
    pi = np.asarray(dist.probabilities)
    assert np.abs(freq - pi).max() <= 0.003
    assert np.all(np.abs(freq - pi) <= 5 * np.sqrt(pi / n))


# ---------------------------------------------------------------------------
# assumption validation


def test_square_map_exceptional_start_rejected():
    with pytest.raises(ExceptionalStartPoint):
        validate_assumptions(square_sg(), 0)


def test_square_map_generic_start_passes():
    report = validate_assumptions(square_sg(), 1)
    assert report.has_degree_two_generator
    assert not report.start_is_exceptional
    assert len(report.unverified) == 2


def test_square_map_candidates_are_zero_and_infinity():
    cands = exceptional_candidates(square_sg())
    assert any(c is INF for c in cands)
    assert any(c is not INF and abs(c) <= 1e-9 for c in cands)
    assert len(cands) == 2


def test_cheb_map_zero_is_not_exceptional():
    sg = Semigroup((rational_map([-2, 0, 1]),))
    report = validate_assumptions(sg, 0)
    assert not report.start_is_exceptional
    # only infinity survives the totally-ramified scan for z^2 - 2
    assert [c for c in report.candidates if c is not INF] == []


def test_annulus_pair_shares_zero_and_infinity():
    sg = Semigroup(
        (monomial(2), rational_map([0, 0, 0.25])), ProbabilityVector([0.5, 0.5])
    )
    cands = exceptional_candidates(sg)
    assert len(cands) == 2
    with pytest.raises(ExceptionalStartPoint):
        validate_assumptions(sg, 1e-12j)


def assert_trapped_on_zero_and_infinity(sg):
    # the chain from 0, let through unchecked, never leaves {0, INF}
    orbit = random_backward_orbit(sg, 0, 2_000, seed=3, check_start=False)
    assert all(inf or z == 0 for z, inf in zip(orbit.zs.tolist(), orbit.at_inf.tolist()))
    cands = exceptional_candidates(sg)
    assert len(cands) == 2
    assert any(c is INF for c in cands)
    assert any(c is not INF and abs(c) <= 1e-9 for c in cands)
    with pytest.raises(ExceptionalStartPoint):
        validate_assumptions(sg, 0)


def test_mobius_generator_breaks_total_ramification():
    # 1/z is not totally ramified anywhere, but it swaps 0 and infinity, so
    # {0, INF} stays backward invariant under the pair
    sg = Semigroup(
        (monomial(2), rational_map([1], [0, 1])),  # z^2 and 1/z
        ProbabilityVector([0.5, 0.5]),
    )
    assert_trapped_on_zero_and_infinity(sg)


def test_inverse_square_exceptional_two_cycle():
    # 1/z^2 swaps 0 and infinity: neither is fixed, both are exceptional
    assert_trapped_on_zero_and_infinity(Semigroup((rational_map([1], [0, 0, 1]),)))


@pytest.mark.parametrize(
    "generators, expected",
    [
        # M z^3 M^-1 for M(w) = (w+1)/(w-2): E = M({0, INF}), two finite points
        ([rational_map([0, 3, 3, 3], [1, 0, 6, 2])], [1, -0.5]),
        # a critical point of multiplicity 5: the candidate is a root cluster
        ([monomial(6)], [0, INF]),
        # the fibre of 0 under z/(z^2+1) splits into {0, INF}
        ([monomial(2), rational_map([0, 1], [1, 0, 1])], []),
        # a degree-1 generator
        ([monomial(2), rational_map([0, 2])], [0, INF]),
    ],
    ids=["mobius-conjugate-of-z3", "z6", "split-fibre", "degree-1-generator"],
)
def test_exceptional_set_table(generators, expected):
    sg = Semigroup(tuple(generators))
    cands = exceptional_candidates(sg)
    assert len(cands) == len(expected)
    for e in expected:
        assert any(chordal_distance(c, e) <= 1e-9 for c in cands)
        with pytest.raises(ExceptionalStartPoint):
            validate_assumptions(sg, e)
    validate_assumptions(sg, 0.3 + 0.7j)
    if not expected:
        validate_assumptions(sg, 0)


def test_report_text_mentions_unverified_conditions():
    text = validate_assumptions(square_sg(), 2).as_text()
    assert "UNVERIFIED" in text
    assert "PASS" in text
