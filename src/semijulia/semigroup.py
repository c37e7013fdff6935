"""Finitely generated rational semigroups, branch-index distributions, and
start-point validation.

The d = d_1 + ... + d_k preimage branches of the k generators are labelled
by a single index with block structure: branches of generator j occupy one
contiguous block and all carry probability b_j / d_j.  Equal weights within
a block are structural here (the type cannot represent anything else);
unequal same-map weights would wreck the continuity the sampling theory
rests on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .ratmap import RationalMap, evaluate, fibre_polynomial, polynomial_roots
from .sphere import INF, SpherePoint, chordal_distance, ensure_point

__all__ = [
    "ExceptionalStartPoint",
    "ProbabilityVector",
    "Semigroup",
    "IndexDistribution",
    "build_index_distribution",
    "make_rng",
    "sample_branch_block",
    "exceptional_candidates",
    "validate_assumptions",
    "AssumptionsReport",
]


class ExceptionalStartPoint(ValueError):
    """The requested start point has a finite total backward orbit; every
    backward iteration from it is trapped and approximates nothing."""


@dataclass(frozen=True)
class ProbabilityVector:
    """Strictly positive weights summing to 1 (renormalized to an exact
    floating-point sum on construction; input must already sum to 1 within
    1e-12)."""

    weights: tuple[float, ...]

    def __init__(self, weights: Sequence[float]):
        ws = [float(w) for w in weights]
        if not ws:
            raise ValueError("probability vector must be nonempty")
        if any(not math.isfinite(w) or w <= 0 for w in ws):
            raise ValueError(f"weights must be strictly positive, got {ws}")
        total = sum(ws)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, expected 1 within 1e-12")
        ws = [w / total for w in ws]
        # pin the float sum to exactly 1.0
        ws[-1] = 1.0 - sum(ws[:-1])
        object.__setattr__(self, "weights", tuple(ws))

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def uniform(cls, k: int) -> "ProbabilityVector":
        return cls([1.0 / k] * k)


@dataclass
class Semigroup:
    """Generators with an attached probability vector (default uniform).

    At least one generator must have degree two or more; the total degree d
    is the sum of the generator degrees.
    """

    generators: tuple[RationalMap, ...]
    b: ProbabilityVector | None = None
    total_degree: int = field(init=False)

    def __post_init__(self) -> None:
        self.generators = tuple(self.generators)
        if not self.generators:
            raise ValueError("semigroup needs at least one generator")
        if self.b is None:
            self.b = ProbabilityVector.uniform(len(self.generators))
        if len(self.b) != len(self.generators):
            raise ValueError(
                f"probability vector has {len(self.b)} weights for "
                f"{len(self.generators)} generators"
            )
        if max(g.degree for g in self.generators) < 2:
            raise ValueError("semigroup must contain a generator of degree >= 2")
        self.total_degree = sum(g.degree for g in self.generators)


@dataclass(frozen=True)
class IndexDistribution:
    """Distribution over the d branch indices with its decoding table.

    ``decode[i]`` is the pair (generator index, branch within generator),
    both 0-based; ``cumulative`` is the running-sum table used for sampling
    (last entry pinned to 1.0).
    """

    probabilities: tuple[float, ...]
    decode: tuple[tuple[int, int], ...]
    cumulative: tuple[float, ...]


def build_index_distribution(sg: Semigroup) -> IndexDistribution:
    """Block-structured branch distribution: probability b_j / d_j for each
    of the d_j branches of generator j.  When b_j = d_j / d for all j this
    is the uniform distribution 1/d."""
    probs: list[float] = []
    decode: list[tuple[int, int]] = []
    for j, g in enumerate(sg.generators):
        w = sg.b.weights[j] / g.degree
        for r in range(g.degree):
            probs.append(w)
            decode.append((j, r))
    cum: list[float] = []
    acc = 0.0
    for p in probs:
        acc += p
        cum.append(acc)
    cum[-1] = 1.0
    return IndexDistribution(tuple(probs), tuple(decode), tuple(cum))


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide generator: counter-based Philox keyed by the seed.
    All sampling goes through instances of this, never a global state."""
    return np.random.Generator(np.random.Philox(seed))


def sample_branch_block(
    dist: IndexDistribution, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Vector of n branch indices (0-based), index i with probability
    dist.probabilities[i]: one uniform draw each against the cumulative
    table, equivalent to picking a generator with probability b_j and then
    one of its branches uniformly.  Advances the supplied generator state."""
    u = rng.random(n)
    idx = np.searchsorted(np.asarray(dist.cumulative), u, side="right")
    return np.minimum(idx, len(dist.probabilities) - 1)


# ---------------------------------------------------------------------------
# start-point validation


# chordal distance within which two points of the sphere count as one
_SAME_POINT = 1e-9
# ... and within which a sole preimage counts as a point of the set: the mean
# of a fibre's roots carries the rounding of the critical values it came from
# (on 2,000 seeded semigroups, sole preimages of exceptional points lay up to
# 2.1e-7 from the set, those of other candidates at least 0.10)
_IN_SET = 1e-6


def _near(p: SpherePoint | None, pts: Sequence[SpherePoint], tol: float) -> bool:
    """True when p is a point within chordal tol of a point of pts."""
    return p is not None and any(chordal_distance(p, q) <= tol for q in pts)


def _sole_preimage(f: RationalMap, w: SpherePoint) -> SpherePoint | None:
    """The single preimage of w under f when w is totally ramified, else None.

    The only candidate is the mean of the fibre's roots, p = -c_{d-1}/(d c_d),
    or INF when the leading coefficient vanishes (within 1e-12 of the
    largest).  It is returned when the fibre polynomial equals c_d (x - p)^d,
    or a nonzero constant for INF, within a relative 1e-6 per coefficient
    (root clusters of high multiplicity make a root-based comparison far too
    blunt).
    """
    d = f.degree
    coeffs = fibre_polynomial(f, w)
    maxmag = max(abs(c) for c in coeffs)
    if maxmag == 0.0:
        return None
    if abs(coeffs[d]) <= 1e-12 * maxmag:
        p = INF
        target = [coeffs[0]] + [0j] * d
    else:
        p = -coeffs[d - 1] / (d * coeffs[d])
        target = [coeffs[d]]
        for _ in range(d):
            # multiply the ascending coefficient list by (x - p)
            target = [a - p * b for a, b in zip([0j] + target, target + [0j])]
    tol = 1e-6 * max(maxmag, max(abs(t) for t in target))
    if all(abs(c - t) <= tol for c, t in zip(coeffs, target)):
        return p
    return None


def _critical_values(f: RationalMap) -> list[SpherePoint]:
    """Images of the finite critical points of f (roots of the Wronskian
    num'*den - num*den') and the image of infinity.  Infinity's image is
    listed whether or not infinity is critical: it is only a candidate."""
    num = np.asarray(f.numerator.coeffs)
    den = np.asarray(f.denominator.coeffs)
    wronskian = P.polysub(
        P.polymul(P.polyder(num), den), P.polymul(num, P.polyder(den))
    ).tolist()
    maxmag = max(abs(c) for c in wronskian)
    while len(wronskian) > 1 and abs(wronskian[-1]) <= 1e-14 * maxmag:
        wronskian.pop()
    points = polynomial_roots(wronskian) if len(wronskian) > 1 else []
    return [evaluate(f, c) for c in points] + [evaluate(f, INF)]


def exceptional_candidates(sg: Semigroup) -> list[SpherePoint]:
    """The exceptional set E(G): the points whose backward orbit under the
    semigroup is finite, decided exactly.

    E(G) lies inside the totally ramified values of any generator g0 of
    degree >= 2, and there are at most two of those (Riemann-Hurwitz); they
    are among g0's critical values.  Starting from those values, a point is
    kept while every generator gives it a sole preimage that lies in the
    set; what remains is backward invariant, hence E(G).  Sole preimages
    suffice: if S is finite and g^-1(S) is inside S, then g maps g^-1(S)
    onto S, so the |S| disjoint, nonempty fibres over S are single points.
    """
    g0 = next(g for g in sg.generators if g.degree >= 2)
    out: list[SpherePoint] = []
    for v in _critical_values(g0):
        if not _near(v, out, _SAME_POINT):
            out.append(v)
    dropped = True
    while dropped:
        keep = [
            w
            for w in out
            if all(_near(_sole_preimage(g, w), out, _IN_SET) for g in sg.generators)
        ]
        dropped = len(keep) < len(out)
        out = keep
    return out


@dataclass
class AssumptionsReport:
    """What could and could not be checked about a semigroup/start pair."""

    has_degree_two_generator: bool
    candidates: tuple[SpherePoint, ...]
    start: SpherePoint
    start_is_exceptional: bool
    unverified: tuple[str, ...]

    def as_text(self) -> str:
        lines = [
            f"degree >= 2 generator present: {'PASS' if self.has_degree_two_generator else 'FAIL'}",
            f"exceptional set: {list(self.candidates)!r}",
            f"start point {self.start!r} exceptional: "
            + ("YES" if self.start_is_exceptional else "no"),
        ]
        for item in self.unverified:
            lines.append(f"UNVERIFIED (user-asserted): {item}")
        return "\n".join(lines)


_UNVERIFIED = (
    "exceptional set contained in the Fatou set",
    "inverses of degree-one elements form a family normal on the Julia set",
)


def validate_assumptions(sg: Semigroup, start: SpherePoint) -> AssumptionsReport:
    """Check what is decidable about the standing assumptions and the start
    point; raises :class:`ExceptionalStartPoint` if the start is within
    chordal 1e-9 of a point of the exceptional set (its backward orbit would
    be trapped forever)."""
    start = ensure_point(start)
    candidates = exceptional_candidates(sg)
    hit = _near(start, candidates, _SAME_POINT)
    report = AssumptionsReport(
        has_degree_two_generator=max(g.degree for g in sg.generators) >= 2,
        candidates=tuple(candidates),
        start=start,
        start_is_exceptional=hit,
        unverified=_UNVERIFIED,
    )
    if hit:
        raise ExceptionalStartPoint(
            f"start point {start!r} lies in the exceptional set "
            f"{list(candidates)!r}; backward orbits from it are trapped"
        )
    return report
