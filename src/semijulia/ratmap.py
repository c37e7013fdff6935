"""Rational maps on the sphere: evaluation and preimage computation.

A map is a ratio of complex polynomials with no common root.  Its degree-d
preimage list of any sphere point always has exactly d entries (multiple
roots repeated, the point at infinity padded in when the preimage equation
drops degree), ordered deterministically by (real, imag) with infinity last.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import zip_longest
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .sphere import INF, SpherePoint, is_inf, to_arrays

__all__ = [
    "SolverDivergence",
    "Polynomial",
    "RationalMap",
    "polynomial_roots",
    "evaluate",
    "fibre_polynomial",
    "preimages",
    "preimages_batch",
]

# Relative threshold below which a leading coefficient is considered to have
# cancelled (degree drop; the missing roots sit at infinity).
_LEAD_DROP = 1e-14

_RESIDUAL_TOL = 1e-12
# Smallest over largest singular value of the Sylvester matrix of a map's
# unit-scaled numerator and denominator at or below which the two count as
# sharing a root (a common factor).
_SHARED_ROOT_TOL = 1e-10
_MAX_SWEEPS = 500

# A polynomial whose largest |coefficient| lies above 2**_RESCALE_EXP or
# below 2**-_RESCALE_EXP is scaled by a power of two to just below
# 2**_RESCALE_EXP, so that products of two coefficients (b*b - 4ac) neither
# overflow nor underflow; the roots are unchanged, and so are their bits
# wherever the unscaled arithmetic neither overflowed nor underflowed.
_RESCALE_EXP = 500
_RESCALE_ABOVE = 2.0**_RESCALE_EXP
_RESCALE_BELOW = 2.0**-_RESCALE_EXP

# Rows per block of :func:`preimages_batch`.  The degree >= 3 root solver
# keeps a few dozen (rows, d) temporaries alive, about 900 bytes a row for
# z^3+0.3, so the block bounds its peak memory.  Each row is computed on its
# own, so the block size moves no bit.  On 2**14 chain points of z^3+0.3,
# blocks of 2**14, 2**13, 2**12, 2**11 and 2**10 rows took tracemalloc peaks
# of 14.4, 8.3, 4.6, 2.8 and 1.9 MB; on 79,600 chain points, z^3+0.3 and
# (z^2+0.5)/(1.5z) together took 3.52, 3.49, 3.43, 3.72 and 4.48 us a point
# (median of 5; 2-core Xeon, L2 2 MiB a core).  2**12 is the knee: no
# slower than larger blocks, where smaller ones pay per-block overhead.
# Against 2**14 it takes a cubic-rational job's peak RSS from 60.1 to 50.0 MB.
_BATCH_ROWS = 2**12


class SolverDivergence(RuntimeError):
    """Simultaneous root iteration failed to reach residual tolerance."""

    def __init__(self, coeffs: Sequence[complex], sweeps: int):
        self.coeffs = tuple(coeffs)
        self.sweeps = sweeps
        super().__init__(
            f"root finder did not converge within {sweeps} sweeps; "
            f"ill-conditioned polynomial with coefficients {list(coeffs)!r}"
        )

    def __reduce__(self):
        # rebuilt from the constructor's own arguments, so the error survives
        # the trip back from a worker process with its type and coefficients
        return type(self), (self.coeffs, self.sweeps)


@dataclass(frozen=True)
class Polynomial:
    """Complex polynomial, coefficients in ascending order, leading one nonzero."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Sequence[complex]):
        cs = [complex(c) for c in coeffs]
        for c in cs:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite polynomial coefficient {c!r}")
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs or cs == [0j]:
            raise ValueError("polynomial must have a nonzero coefficient")
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        return _horner(self.coeffs, z)


def _horner(coeffs: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _quadratic_roots(a: complex, b: complex, c: complex) -> list[complex]:
    """Both roots of a z^2 + b z + c (a != 0), numerically stable form."""
    if c == 0:
        return [0j, -b / a]
    s = cmath.sqrt(b * b - 4 * a * c)
    # pick the sign that avoids cancellation in b + s
    if b.real * s.real + b.imag * s.imag >= 0:
        q = -0.5 * (b + s)
    else:
        q = -0.5 * (b - s)
    try:
        return [q / a, c / q]
    except ZeroDivisionError:
        # q = 0 with c != 0: b*b - 4ac underflowed, so solve again on the
        # coefficients scaled by the power of two that takes the largest
        # modulus to just below 2**_RESCALE_EXP
        k = _RESCALE_EXP - math.frexp(max(abs(a), abs(b), abs(c)))[1]
        a, b, c = (complex(math.ldexp(x.real, k), math.ldexp(x.imag, k)) for x in (a, b, c))
        return _quadratic_roots(a, b, c)


# the primitive cube root of unity exp(2 pi i / 3) and its conjugate
_OMEGA = complex(-0.5, 0.8660254037844386)
_OMEGA_BAR = complex(-0.5, -0.8660254037844386)


def _cubic_start(m0: complex, m1: complex, m2: complex) -> tuple[complex, complex, complex] | None:
    """Cardano's three roots of the monic cubic x^3 + m2 x^2 + m1 x + m0, the
    start of its Ehrlich-Aberth iteration, or None where the circle start is
    taken instead: A = 0 (a triple root), or a start that is non-finite or has
    two equal points.

    On x = t - s, s = m2/3, the cubic is t^3 + p t + q; with h = -q/2 and
    A = h + sqrt(h^2 + (p/3)^3), the sign picked as in
    :func:`_quadratic_roots`, u = A^(1/3) and v = -(p/3)/u the roots are
    t = u + v, w u + w' v and w' u + w v, w = exp(2 pi i / 3).  The cube root
    is taken of B = A 2^(-3k), whose larger part lies in [1/2, 4), from
    sqrt(sqrt(B)) by a fixed five Newton steps in + - * /, so that
    :func:`_cubic_start_rows` repeats every operation bit for bit (numpy's
    cbrt, power and arctan2 differ from libm's).
    """
    return _cardano(m0, *_cardano_consts(m1, m2))


def _cardano_consts(m1: complex, m2: complex) -> tuple[complex, ...]:
    """The terms of :func:`_cubic_start` without m0: s, -p/3, s (m1/2 - s^2), (p/3)^3."""
    s = m2 / 3
    ss = s * s
    p3 = m1 / 3 - ss
    return s, -p3, s * (m1 / 2 - ss), p3 * p3 * p3


def _cardano(
    m0: complex, s: complex, neg_p3: complex, hs: complex, p3_cubed: complex
) -> tuple[complex, complex, complex] | None:
    """:func:`_cubic_start` from m0 and the terms of :func:`_cardano_consts`."""
    h = hs - m0 / 2
    r = cmath.sqrt(h * h + p3_cubed)
    a = h + r if h.real * r.real + h.imag * r.imag >= 0 else h - r
    if a == 0 or not cmath.isfinite(a):
        return None
    k = math.frexp(max(abs(a.real), abs(a.imag)))[1] // 3
    b = complex(math.ldexp(a.real, -3 * k), math.ldexp(a.imag, -3 * k))
    x = cmath.sqrt(cmath.sqrt(b))
    for _ in range(5):
        xx = x * x
        x = x - (xx * x - b) / (3 * xx)
    u = complex(math.ldexp(x.real, k), math.ldexp(x.imag, k))
    v = neg_p3 / u
    x0, x1, x2 = u + v - s, _OMEGA * u + _OMEGA_BAR * v - s, _OMEGA_BAR * u + _OMEGA * v - s
    if not (cmath.isfinite(x0) and cmath.isfinite(x1) and cmath.isfinite(x2)):
        return None
    if x0 == x1 or x0 == x2 or x1 == x2:
        return None
    return x0, x1, x2


def _aberth_roots(coeffs: Sequence[complex]) -> list[complex]:
    """All roots of a degree >= 3 polynomial by simultaneous (Ehrlich-Aberth)
    iteration with one Newton polish per root.

    This is the generic loop, the one scalar solver of degree >= 3, and the
    reference every other form follows operation by operation:
    :func:`_cubic_roots` (the chain walker's cubic step, sweep 0 only) and
    :func:`_aberth_rows` (every row of an array).  A cubic starts from
    Cardano's roots (:func:`_cubic_start`), where they are usable, and every
    other polynomial from points on a circle of radius 1 + max |c_k / c_n|.
    Each sweep first tests every residual; the sweep where all pass gives
    the polish its residuals, and a polynomial that fails the test at sweep
    ``_MAX_SWEEPS``, or whose monic coefficients have a modulus beyond the
    largest double, raises :class:`SolverDivergence`.  Multiple roots come
    out as tight clusters of repeated values, which is exactly what callers
    counting preimages with multiplicity need.
    """
    n = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    deriv = [k * monic[k] for k in range(1, n + 1)]
    try:
        coeff_mag = [abs(c) for c in monic]
    except OverflowError:  # finite parts, modulus beyond the largest double
        raise SolverDivergence(coeffs, 0) from None
    radius = 1.0 + max(coeff_mag[:-1])
    start = _cubic_start(*monic[:3]) if n == 3 else None
    if start is None:
        xs = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    else:
        xs = list(start)

    for sweep in range(_MAX_SWEEPS + 1):
        ps = [_horner(monic, x) for x in xs]
        all_small = True
        for x, p in zip(xs, ps):
            # backward-error residual scale: sum |c_k| |x|^k
            ax = abs(x)
            scale = 0.0
            for m in reversed(coeff_mag):
                scale = scale * ax + m
            if not abs(p) <= _RESIDUAL_TOL * max(scale, 1.0):  # NaN included
                all_small = False
                break
        if all_small:
            break
        if sweep == _MAX_SWEEPS:
            raise SolverDivergence(coeffs, _MAX_SWEEPS)
        offsets = []
        for i in range(n):
            x = xs[i]
            dp = _horner(deriv, x)
            if dp == 0:
                offsets.append(radius * 1e-6)
                continue
            newton = ps[i] / dp
            acc = 0j
            for j in range(n):
                if j != i:
                    diff = x - xs[j]
                    if diff == 0:  # a gap of opposite signs from either side
                        diff = (1e-12 if i < j else -1e-12) * (1 + abs(x))
                    acc += 1.0 / diff
            denom = 1.0 - newton * acc
            offsets.append(newton if denom == 0 else newton / denom)
        xs = [x - w for x, w in zip(xs, offsets)]

    polished = []
    for x, p in zip(xs, ps):
        dp = _horner(deriv, x)
        polished.append(x if dp == 0 else x - p / dp)
    return polished


def _cubic_consts(c1: complex, c2: complex, c3: complex) -> tuple:
    """The terms of the cubic c0 + c1 z + c2 z^2 + c3 z^3 without c0, as
    :func:`_cubic_roots` takes them: c3, the monic m1, m2, m3, Cardano's
    terms, the derivative's coefficients and |m1|, |m2|, |m3|.  The chain
    walker forms them once per map."""
    m1, m2, m3 = c1 / c3, c2 / c3, c3 / c3
    return (c3, m1, m2, m3, *_cardano_consts(m1, m2), 1 * m1, 2 * m2, 3 * m3, abs(m1), abs(m2), abs(m3))


def _cubic_roots(c0: complex, consts: tuple) -> list[complex] | None:
    """The roots of the cubic from c0 and the terms of :func:`_cubic_consts`
    where Cardano's start passes the stop test at sweep 0: the sweep 0 and
    polish of :func:`_aberth_roots`, the same floating-point operations in
    the same order (Horner from 0j, a NaN residual not converged), so the
    same roots bit for bit.  None where Cardano refuses the start or the
    start fails the test, so that the generic loop must run."""
    c3, m1, m2, m3, s, neg_p3, hs, p3_cubed, d0, d1, d2, g1, g2, g3 = consts
    m0 = c0 / c3
    start = _cardano(m0, s, neg_p3, hs, p3_cubed)
    if start is None:
        return None
    g0 = abs(m0)
    polished = []
    for x in start:
        p = (((0j * x + m3) * x + m2) * x + m1) * x + m0
        a = abs(x)
        s = (((0.0 * a + g3) * a + g2) * a + g1) * a + g0
        if not abs(p) <= _RESIDUAL_TOL * (1.0 if 1.0 > s else s):  # max(s, 1.0), NaN included
            return None
        dp = ((0j * x + d2) * x + d1) * x + d0
        polished.append(x if dp == 0 else x - p / dp)
    return polished


def _normalized(coeffs: list[complex], peak: float) -> tuple[list[complex], float]:
    """Coefficients and their largest modulus ``peak``, rescaled as above
    (ldexp on the parts: for tiny peaks a factor 2**k would overflow)."""
    if not 0.0 < peak < math.inf or _RESCALE_BELOW <= peak <= _RESCALE_ABOVE:
        return coeffs, peak
    k = _RESCALE_EXP - math.frexp(peak)[1]
    coeffs = [complex(math.ldexp(c.real, k), math.ldexp(c.imag, k)) for c in coeffs]
    return coeffs, max(map(abs, coeffs))


def polynomial_roots(coeffs: Sequence[complex]) -> list[complex]:
    """All complex roots of the polynomial with the given ascending
    coefficients, repeated with multiplicity.  Closed forms for degree <= 2,
    simultaneous iteration above that, on coefficients normalized by a power
    of two (see :func:`_normalized`).
    """
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return []
    try:
        peak = max(map(abs, cs))
    except OverflowError:  # finite parts, modulus beyond the largest double
        peak = math.inf
    return _roots(_normalized(cs, peak)[0])


def _roots(cs: list[complex]) -> list[complex]:
    """:func:`polynomial_roots` of degree >= 1 coefficients whose leading one
    is nonzero, as they stand."""
    n = len(cs) - 1
    if n == 1:
        return [-cs[0] / cs[1]]
    if n == 2:
        return _quadratic_roots(cs[2], cs[1], cs[0])
    return _aberth_roots(cs)


def _unit_scaled(coeffs: Sequence[complex]) -> np.ndarray:
    """The coefficients divided by their largest modulus: first their real
    and imaginary parts by the largest part, so no modulus overflows and no
    subnormal divisor is inverted."""
    c = np.array(coeffs, dtype=complex)
    parts = c.view(float)
    parts /= np.abs(parts).max()
    return c / np.abs(c).max()


@dataclass
class RationalMap:
    """Ratio of two polynomials sharing no root; degree = max of the two."""

    numerator: Polynomial
    denominator: Polynomial
    degree: int = field(init=False)

    def __post_init__(self) -> None:
        dn = self.numerator.degree
        dd = self.denominator.degree
        self.degree = max(dn, dd)
        if self.degree < 1:
            raise ValueError("rational map must have degree >= 1")
        # the two share a root exactly when their Sylvester matrix is
        # singular, and lie near a common factor when it is nearly so
        # (relative to coefficients of unit size on both sides)
        num = _unit_scaled(self.numerator.coeffs)
        den = _unit_scaled(self.denominator.coeffs)
        sylvester = np.zeros((dn + dd, dn + dd), dtype=complex)
        for i in range(dd):
            sylvester[i, i : i + dn + 1] = num
        for i in range(dn):
            sylvester[dd + i, i : i + dd + 1] = den
        sv = np.linalg.svd(sylvester, compute_uv=False)
        if sv[-1] <= _SHARED_ROOT_TOL * sv[0]:
            raise ValueError("numerator and denominator share a root")
        # (num_k, den_k) for k = 0..degree: the fibre over w is num_k - w*den_k
        self._fibre_pairs = tuple(
            zip_longest(self.numerator.coeffs, self.denominator.coeffs, fillvalue=0j)
        )


def rational_map(num_coeffs: Sequence[complex], den_coeffs: Sequence[complex] = (1,)) -> RationalMap:
    """Convenience constructor from raw coefficient lists (ascending order)."""
    return RationalMap(Polynomial(num_coeffs), Polynomial(den_coeffs))


def evaluate(f: RationalMap, z: SpherePoint) -> SpherePoint:
    """Apply f as a map of the sphere.

    At infinity the value is decided by the degree comparison of numerator
    and denominator; a vanishing denominator at finite z gives infinity
    (legitimate: the two polynomials share no root).  Large finite arguments
    are evaluated through u = 1/z so overflow never produces NaN.
    """
    if is_inf(z):
        dn = f.numerator.degree
        dd = f.denominator.degree
        if dn > dd:
            return INF
        if dn < dd:
            return 0j
        return f.numerator.coeffs[-1] / f.denominator.coeffs[-1]
    try:
        az = abs(z)
    except OverflowError:
        # |z| passes the largest double though both parts are finite: a point
        # chordally within 1e-308 of INF, so a growing f sends it to INF
        az = math.inf
    if az <= 1.0:
        den = _horner(f.denominator.coeffs, z)
        if den == 0:
            return INF
        num = _horner(f.numerator.coeffs, z)
        w = num / den
        if math.isfinite(w.real) and math.isfinite(w.imag):
            return w
        return INF
    u = 1.0 / z
    rnum = _horner(f.numerator.coeffs[::-1], u)
    rden = _horner(f.denominator.coeffs[::-1], u)
    if rden == 0:
        return INF
    val = rnum / rden
    diff = f.numerator.degree - f.denominator.degree
    if diff == 0:
        w = val
    elif diff > 0:
        if val == 0:
            return 0j
        if az == math.inf:
            return INF
        try:
            w = z**diff * val
            direct = math.isfinite(w.real) and math.isfinite(w.imag)
        except OverflowError:
            direct = False
        if not direct:
            # z**diff or its product with val overflowed; go through log-polar
            # form, which costs bits, so only here
            m = diff * math.log(az) + math.log(abs(val))
            if m > 709.0:
                return INF
            theta = diff * cmath.phase(z) + cmath.phase(val)
            w = cmath.rect(math.exp(m), theta)
    else:
        w = u ** (-diff) * val
    if math.isfinite(w.real) and math.isfinite(w.imag):
        return w
    return INF


_branch_key = attrgetter("real", "imag")


def _sorted_with_padding(finite: list[SpherePoint], degree: int) -> list[SpherePoint]:
    """``finite`` itself, sorted in branch order and padded with INF to
    ``degree`` entries."""
    finite.sort(key=_branch_key)
    finite.extend([INF] * (degree - len(finite)))
    return finite


def fibre_polynomial(f: RationalMap, w: SpherePoint) -> list[complex]:
    """The degree(f)+1 ascending coefficients whose roots are the preimages
    of w: num - w*den, or den for w at infinity; each leading coefficient
    that vanishes puts one preimage at infinity.  Where some |num_k - w*den_k|
    overflows, all come from w and num scaled by one power of two instead."""
    return [c for _, c in f._fibre_pairs] if w is INF else _fibre(f, w)[0]


def _fibre(f: RationalMap, w: complex) -> tuple[list[complex], float]:
    """:func:`fibre_polynomial` of a finite w, with its largest |coefficient|."""
    coeffs = [n - w * c for n, c in f._fibre_pairs]
    try:
        peak = max(map(abs, coeffs))
    except OverflowError:  # finite parts, modulus beyond the largest double
        peak = math.inf
    if peak < math.inf:
        return coeffs, peak
    # 2**-e takes every |coefficient| below 2**(_RESCALE_EXP + 3)
    nc, dc = zip(*f._fibre_pairs)
    cmax = max(max(abs(c.real), abs(c.imag)) for c in nc + dc)
    e = math.frexp(max(abs(w.real), abs(w.imag), 1.0))[1] + math.frexp(cmax)[1] - _RESCALE_EXP
    ws, *ns = [complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)) for c in (w, *nc)]
    coeffs = [n - ws * c for n, c in zip(ns, dc)]
    return coeffs, max(map(abs, coeffs))


def preimages(f: RationalMap, z: SpherePoint) -> list[SpherePoint]:
    """All degree(f) solutions w of f(w) = z, with multiplicity.

    Solves numerator(w) - z * denominator(w) = 0; each leading coefficient
    that cancels moves one solution to infinity.  For z at infinity the
    solutions are the denominator roots, padded with infinity.  The list
    order (sorted by real then imaginary part, infinity last) is the fixed
    branch labelling used everywhere else.

    The fibre coefficients come from the map's (num_k, den_k) pairs, stored
    at construction, and each |coefficient| is taken once, for both the
    largest modulus and the degree-drop cut.  Coefficients that overflow or
    need the power-of-two normalization are formed again by
    :func:`_fibre` and :func:`_normalized`.  Every degree takes this one
    path to :func:`_roots`; the chain's common degree-2 step is stepped
    inline by :func:`preimage_walk`.
    """
    d = f.degree
    if z is INF:
        return _sorted_with_padding(polynomial_roots(f.denominator.coeffs), d)
    coeffs = [n - z * c for n, c in f._fibre_pairs]
    try:
        mags = [abs(c) for c in coeffs]
        peak = max(mags)
    except OverflowError:  # finite parts, modulus beyond the largest double
        peak = math.inf
    if not _RESCALE_BELOW <= peak <= _RESCALE_ABOVE:
        coeffs, peak = _normalized(*_fibre(f, z))
        mags = [abs(c) for c in coeffs]
    cut = _LEAD_DROP * peak
    top = d
    while top > 0 and mags[top] <= cut:
        top -= 1
    return _sorted_with_padding(_roots(coeffs if top == d else coeffs[: top + 1]) if top else [], d)


def _walk_step(f: RationalMap) -> tuple[int, tuple | None]:
    """How :func:`preimage_walk` steps f: a kind and its terms without the point.

    Kind 2 or 3 is a polynomial of that degree whose numerator has no -0.0
    part.  For finite z its fibre is n0 - z d0 followed by the n_k of k >= 1
    as they stand, bit for bit: n - z*0j == n for such n, and
    n0 - z*(1+0j) == n0 - z, so d0 = 1 is kept as None.  The terms are n0,
    d0, |lead|, max |n_k| over k >= 1, and b, a, b*b, 4*a and b's parts for
    a quadratic or :func:`_cubic_consts` for a cubic.  Kind 1 is any other
    quadratic, with its fibre pairs; kind 0 any other map, every step a
    :func:`preimages` call."""
    (n0, d0), *upper = f._fibre_pairs
    ns = [n for n, _ in upper]
    if len(f.denominator.coeffs) == 1 and len(ns) in (2, 3) and all(
        x != 0 or math.copysign(1.0, x) > 0 for n in (n0, *ns) for x in (n.real, n.imag)
    ):
        try:
            mags = [abs(n) for n in ns]
            if len(ns) == 3:
                fold = _cubic_consts(*ns)
            else:
                b, a = ns
                fold = b, a, b * b, 4 * a, b.real, b.imag
            return len(ns), (n0, None if d0 == 1 else d0, mags[-1], max(mags), fold)
        except OverflowError:  # a modulus past the largest double
            pass
    return (1, f._fibre_pairs) if f.degree == 2 else (0, None)


def preimage_walk(
    maps: Sequence[RationalMap],
    decode: Sequence[tuple[int, int]],
    symbols: Iterable[int],
    start: SpherePoint,
) -> list[SpherePoint]:
    """The backward chain from ``start``: point k is ``preimages(maps[j], z)[r]``
    of the point before it, (j, r) = ``decode[symbols[k]]``, bit for bit.  The
    common row of a degree-2 map, with c != 0, is stepped inline by a copy of
    that closed form (``max`` as the builtin compares, the pair's order as plain
    comparisons), and a polynomial cubic's by :func:`_cubic_roots`; the terms
    without the point come from :func:`_walk_step`, once per map.  Tests pin
    the walk to :func:`preimages` by ``repr``.  Every other step, one whose
    b*b - 4ac underflows and one whose cubic runs the generic loop, is one
    :func:`preimages` call."""
    sqrt, below, above, drop = cmath.sqrt, _RESCALE_BELOW, _RESCALE_ABOVE, _LEAD_DROP
    steps = [_walk_step(f) for f in maps]
    # per symbol: the map, its branch, its kind and its terms without the point
    table = [(maps[j], r, *steps[j]) for j, r in decode]
    out: list[SpherePoint] = []
    append = out.append
    z = start
    for f, r, kind, k in map(table.__getitem__, symbols):
        if kind == 1 and z is not INF:
            (n0, d0), (n1, d1), (n2, d2) = k
            c, b, a = n0 - z * d0, n1 - z * d1, n2 - z * d2
            try:
                lead, mc, mb = abs(a), abs(c), abs(b)
            except OverflowError:
                lead = mc = mb = math.inf
            peak = mb if mb > mc else mc
            peak = lead if lead > peak else peak
            bb, a4 = b * b, 4 * a
            br, bi = b.real, b.imag
        elif kind and z is not INF:
            n0, d0, lead, top, fold = k
            c = n0 - z if d0 is None else n0 - z * d0
            try:
                mc = abs(c)
            except OverflowError:
                mc = math.inf
            peak = top if top > mc else mc
            if kind == 3:
                roots = _cubic_roots(c, fold) if below <= peak <= above and lead > drop * peak else None
                z = preimages(f, z)[r] if roots is None else sorted(roots, key=_branch_key)[r]
                append(z)
                continue
            b, a, bb, a4, br, bi = fold
        else:
            z = preimages(f, z)[r]
            append(z)
            continue
        if below <= peak <= above and lead > drop * peak and mc != 0.0:
            s = sqrt(bb - a4 * c)
            q = -0.5 * (b + s) if br * s.real + bi * s.imag >= 0 else -0.5 * (b - s)
            try:
                w1, w2 = q / a, c / q
            except ZeroDivisionError:  # b*b - 4ac underflowed: preimages rescales
                pass
            else:
                swap = w2.real < w1.real or (w2.real == w1.real and w2.imag < w1.imag)
                z = w2 if swap != r else w1
                append(z)
                continue
        z = preimages(f, z)[r]
        append(z)
    return out


# ---------------------------------------------------------------------------
# row-vectorized preimages
#
# numpy's complex multiply, divide and abs round differently from Python's
# complex type, and near a multiple root one ulp grows to ~1e-7 in the roots.
# The kernel therefore works on (real, imag) float64 pairs and spells out
# CPython's own complex arithmetic, one rounding per operation, so every row
# is the same floating-point computation as the scalar path.


def _mul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


def _div(ar, ai, br, bi):
    """CPython's complex quotient: scaled by whichever of b.real, b.imag is
    larger in magnitude, with no reciprocal."""
    real_major = np.abs(br) >= np.abs(bi)
    big = np.where(real_major, br, bi)
    small = np.where(real_major, bi, br)
    u = np.where(real_major, ar, ai)
    v = np.where(real_major, ai, ar)
    ratio = small / big
    denom = big + small * ratio
    t = u * ratio
    return (u + v * ratio) / denom, np.where(real_major, v - t, t - v) / denom


def _horner_rows(cr, ci, xr, xi):
    """Row r of the ascending coefficients (cr, ci) evaluated at every entry
    of row r of (xr, xi)."""
    ar = np.zeros_like(xr)
    ai = np.zeros_like(xi)
    for k in range(cr.shape[1] - 1, -1, -1):
        ar, ai = _mul(ar, ai, xr, xi)
        ar, ai = ar + cr[:, k, None], ai + ci[:, k, None]
    return ar, ai


def _sqrt(ar, ai):
    """CPython's ``cmath.sqrt`` on finite input; numpy's complex sqrt is one
    ulp off it on about half of all pure-imaginary arguments."""
    ax, ay = np.abs(ar), np.abs(ai)
    tiny = np.maximum(ax, ay) < np.finfo(float).tiny
    sx = np.ldexp(ax, 53)
    s_tiny = np.ldexp(np.sqrt(sx + np.hypot(sx, np.ldexp(ay, 53))), -27)
    s = np.where(tiny, s_tiny, 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0)))
    d = ay / (2.0 * s)
    zero = (ar == 0) & (ai == 0)
    re = np.where(zero, 0.0, np.where(ar >= 0, s, d))
    im = np.where(zero, ai, np.copysign(np.where(ar >= 0, d, s), ai))
    return re, im


def _quadratic_rows(ar, ai, br, bi, cr, ci):
    """:func:`_quadratic_roots` on every row: the two roots of
    a z^2 + b z + c (c != 0) as (m, 2) real and imaginary parts."""
    fr, fi = _mul(*_mul(4.0, 0.0, ar, ai), cr, ci)
    dr, di = _mul(br, bi, br, bi)
    sr, si = _sqrt(dr - fr, di - fi)
    # pick the sign that avoids cancellation in b + s
    plus = br * sr + bi * si >= 0
    qr, qi = _mul(
        -0.5,
        0.0,
        np.where(plus, br + sr, br - sr),
        np.where(plus, bi + si, bi - si),
    )
    (r1r, r1i), (r2r, r2i) = _div(qr, qi, ar, ai), _div(cr, ci, qr, qi)
    return np.stack([r1r, r2r], axis=1), np.stack([r1i, r2i], axis=1)


def _plain_fibre(m, b: complex, a: complex):
    """Whether the fibre c0 + b w + a w^2 of a point whose c0 has parts of
    modulus at most m needs none of the rescale, overflow or degree-drop
    rules of :func:`preimages`; m is a float or an array of them.  A modulus
    lies between the larger |part| and twice it, so the largest |coefficient|
    lies in [peak / 2, peak): the tests hold with a factor of 2 to spare."""
    pa = max(abs(a.real), abs(a.imag))
    peak = 2 * np.maximum(m, max(pa, abs(b.real), abs(b.imag)))
    return (peak >= 2 * _RESCALE_BELOW) & (peak <= _RESCALE_ABOVE) & (pa > _LEAD_DROP * peak)


def quadratic_level(maps: Sequence[RationalMap], zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both preimages of every point under each map, all polynomials of
    degree 2, in numpy's complex arithmetic, as ``(kids, done)``: row 2j + r
    of ``kids`` holds root r of map j, the branch order of :func:`preimages`,
    of every point marked ``done``; the other columns hold anything.

    A point is done where, under every map, its fibre c0 + b w + a w^2
    (c0 = n0 - z d0) passes :func:`_plain_fibre` and the closed form's q is
    nonzero (it is 0 where c0 = b = 0 or b*b - 4 a c0 underflowed).  The
    level's largest |part| of c0 is tested first, and each point's only where
    that fails, so a point gets the same column alone or in any level.

    The roots are not bitwise those of :func:`preimages_batch` (ROADMAP.md,
    open item 8): on 100,000 points drawn uniformly in modulus from the
    annulus 1 <= |z| <= 4 under (z^2, z^2/4), 44,077 points differ, each root
    by at most 2.2e-16 relative, in the same branch order.  The closed form
    runs in place, on two complex temporaries per map where the formula as
    written makes over a dozen: every fresh temporary as wide as a level costs
    page faults.
    """
    kids = np.empty((2 * len(maps), zs.size), dtype=complex)
    done = np.ones(zs.shape, dtype=bool)
    with np.errstate(all="ignore"):  # the columns not done may overflow or divide by 0
        for j, f in enumerate(maps):
            n0, b, a = f.numerator.coeffs
            c0 = np.multiply(zs, f.denominator.coeffs[0])
            np.subtract(n0, c0, out=c0)
            parts = c0.view(float)
            m = max(-parts.min(initial=0.0), parts.max(initial=0.0))  # NaN fails the test
            # each of its tests moves one way with m, so passing at 0 and at m
            # passes at every m between
            if not (_plain_fibre(0.0, b, a) and _plain_fibre(m, b, a)):
                done &= _plain_fibre(np.maximum(abs(c0.real), abs(c0.imag)), b, a)
            s = np.multiply(4.0 * a, c0)
            np.subtract(b * b, s, out=s)
            np.sqrt(s, out=s)
            flip = b.real * s.real
            flip += b.imag * s.imag
            np.negative(s, out=s, where=flip < 0)
            q = np.add(b, s, out=s)
            np.multiply(-0.5, q, out=q)
            done &= q != 0
            lo, hi = kids[2 * j], kids[2 * j + 1]
            r1 = np.divide(q, a, out=lo)  # lo holds r1 until the sort below
            r2 = np.divide(c0, q, out=q)
            # sort each pair by (real, imag) in place
            swap = (r2.real < r1.real) | ((r2.real == r1.real) & (r2.imag < r1.imag))
            np.copyto(hi, r2)
            np.copyto(hi, r1, where=swap)
            np.copyto(lo, r2, where=swap)
    return kids, done


def _aberth_sums(xr, xi):
    """sum over j != i of 1 / (x_i - x_j), for every root i of every row,
    added in the scalar solver's order (j ascending).

    1 / (x_j - x_i) is exactly -(1 / (x_i - x_j)) in CPython's division, so
    each pair is divided once.  Coinciding roots use 1e-12 (1 + |x_i|) for
    x_i - x_j with i < j, and its negative for i > j, so the pair parts.
    """
    n = xr.shape[1]
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            dr = xr[:, i] - xr[:, j]
            di = xi[:, i] - xi[:, j]
            coincide = (dr == 0) & (di == 0)
            if coincide.any():
                dr = np.where(coincide, 1e-12 * (1 + np.hypot(xr[:, i], xi[:, i])), dr)
            tr, ti = _div(1.0, 0.0, dr, di)
            terms[i, j], terms[j, i] = (tr, ti), (-tr, -ti)
    acc_r = np.zeros_like(xr)
    acc_i = np.zeros_like(xi)
    for i in range(n):
        for j in range(n):
            if j != i:
                acc_r[:, i] += terms[i, j][0]
                acc_i[:, i] += terms[i, j][1]
    return acc_r, acc_i


def _cubic_start_rows(mr, mi):
    """:func:`_cubic_start` on every row of an (m, 4) monic cubic's parts, the
    same operations spelled out on (real, imag) pairs: the starts as (m, 3)
    real and imaginary parts, and the mask of rows that take them (the other
    rows' entries are meaningless)."""
    m0, m1, m2 = (mr[:, 0], mi[:, 0]), (mr[:, 1], mi[:, 1]), (mr[:, 2], mi[:, 2])
    with np.errstate(all="ignore"):  # the refused rows may overflow or divide by 0
        sr, si = _div(*m2, 3.0, 0.0)
        ssr, ssi = _mul(sr, si, sr, si)
        tr, ti = _div(*m1, 3.0, 0.0)
        p3r, p3i = tr - ssr, ti - ssi
        tr, ti = _div(*m1, 2.0, 0.0)
        tr, ti = _mul(sr, si, tr - ssr, ti - ssi)
        hr, hi = _div(*m0, 2.0, 0.0)
        hr, hi = tr - hr, ti - hi
        tr, ti = _mul(*_mul(p3r, p3i, p3r, p3i), p3r, p3i)
        rr, ri = _mul(hr, hi, hr, hi)
        rr, ri = _sqrt(rr + tr, ri + ti)
        plus = hr * rr + hi * ri >= 0
        ar, ai = np.where(plus, hr + rr, hr - rr), np.where(plus, hi + ri, hi - ri)
        ok = ((ar != 0) | (ai != 0)) & np.isfinite(ar) & np.isfinite(ai)
        k = np.frexp(np.maximum(np.abs(ar), np.abs(ai)))[1] // 3
        br, bi = np.ldexp(ar, -3 * k), np.ldexp(ai, -3 * k)
        xr, xi = _sqrt(*_sqrt(br, bi))
        for _ in range(5):
            xxr, xxi = _mul(xr, xi, xr, xi)
            nr, ni = _mul(xxr, xxi, xr, xi)
            qr, qi = _div(nr - br, ni - bi, *_mul(3.0, 0.0, xxr, xxi))
            xr, xi = xr - qr, xi - qi
        ur, ui = np.ldexp(xr, k), np.ldexp(xi, k)
        vr, vi = _div(-p3r, -p3i, ur, ui)
        w, w_bar = (_OMEGA.real, _OMEGA.imag), (_OMEGA_BAR.real, _OMEGA_BAR.imag)
        starts = [(ur + vr - sr, ui + vi - si)]
        for a, b in ((w, w_bar), (w_bar, w)):
            (aur, aui), (bvr, bvi) = _mul(*a, ur, ui), _mul(*b, vr, vi)
            starts.append((aur + bvr - sr, aui + bvi - si))
        xr = np.stack([x for x, _ in starts], axis=1)
        xi = np.stack([y for _, y in starts], axis=1)
    ok &= np.isfinite(xr).all(axis=1) & np.isfinite(xi).all(axis=1)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        ok &= (xr[:, i] != xr[:, j]) | (xi[:, i] != xi[:, j])
    return xr, xi, ok


def _aberth_rows(cr, ci):
    """:func:`_aberth_roots` on every row of an (m, n+1) coefficient array at
    once.  Each row starts from the same points (for a cubic, Cardano's roots
    from :func:`_cubic_start_rows` where the scalar start takes them), stops
    on the same residual test and gets the same Newton polish, from the
    residuals of the sweep it converged in, as the scalar solver; a row
    leaves the active set the sweep it converges."""
    m, n = cr.shape[0], cr.shape[1] - 1
    mr, mi = _div(cr, ci, cr[:, -1:], ci[:, -1:])
    k = np.arange(1, n + 1, dtype=float)
    dr, di = _mul(k, 0.0, mr[:, 1:], mi[:, 1:])
    coeff_mag = np.hypot(mr, mi)
    radius = 1.0 + coeff_mag[:, :-1].max(axis=1)
    unit = np.array([cmath.exp(1j * (2 * math.pi * j / n + 0.4)) for j in range(n)])
    xr, xi = _mul(radius[:, None], 0.0, unit.real, unit.imag)
    if n == 3:
        sr, si, ok = _cubic_start_rows(mr, mi)
        xr, xi = np.where(ok[:, None], sr, xr), np.where(ok[:, None], si, xi)

    # the active rows' working copies; a converged row's roots and residuals
    # go to (xr, xi) and (res_r, res_i), and the row leaves every working array
    res_r, res_i = np.empty_like(xr), np.empty_like(xi)
    rows = np.arange(m)
    live = (mr, mi, dr, di, coeff_mag, radius[:, None], xr.copy(), xi.copy())
    for sweep in range(_MAX_SWEEPS + 1):
        a_mr, a_mi, a_dr, a_di, a_mag, a_rad, x_r, x_i = live
        pr, pi = _horner_rows(a_mr, a_mi, x_r, x_i)
        scale = np.zeros_like(x_r)
        ax = np.hypot(x_r, x_i)
        for j in range(n, -1, -1):
            scale = scale * ax + a_mag[:, j, None]
        done = (np.hypot(pr, pi) <= _RESIDUAL_TOL * np.maximum(scale, 1.0)).all(axis=1)
        del ax, scale  # else the first sweep's (m, n) arrays live on into the polish
        if done.any():
            xr[rows[done]], xi[rows[done]] = x_r[done], x_i[done]
            res_r[rows[done]], res_i[rows[done]] = pr[done], pi[done]
            keep = ~done
            rows, pr, pi = rows[keep], pr[keep], pi[keep]
            live = tuple(a[keep] for a in live)
            a_mr, a_mi, a_dr, a_di, a_mag, a_rad, x_r, x_i = live
        if rows.size == 0:
            break
        if sweep == _MAX_SWEEPS:
            bad = rows[0]
            raise SolverDivergence((cr[bad] + 1j * ci[bad]).tolist(), _MAX_SWEEPS)
        dpr, dpi = _horner_rows(a_dr, a_di, x_r, x_i)
        zero_dp = (dpr == 0) & (dpi == 0)
        nr, ni = _div(pr, pi, np.where(zero_dp, 1.0, dpr), dpi)
        acc_r, acc_i = _aberth_sums(x_r, x_i)
        er, ei = _mul(nr, ni, acc_r, acc_i)
        er, ei = 1.0 - er, 0.0 - ei
        zero_denom = (er == 0) & (ei == 0)
        qr, qi = _div(nr, ni, np.where(zero_denom, 1.0, er), ei)
        off_r = np.where(zero_dp, a_rad * 1e-6, np.where(zero_denom, nr, qr))
        off_i = np.where(zero_dp, 0.0, np.where(zero_denom, ni, qi))
        live = (a_mr, a_mi, a_dr, a_di, a_mag, a_rad, x_r - off_r, x_i - off_i)

    dpr, dpi = _horner_rows(dr, di, xr, xi)
    zero_dp = (dpr == 0) & (dpi == 0)
    sr, si = _div(res_r, res_i, np.where(zero_dp, 1.0, dpr), dpi)
    return np.where(zero_dp, xr, xr - sr), np.where(zero_dp, xi, xi - si)


def preimages_batch(
    f: RationalMap, zs: np.ndarray, at_inf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`preimages` of N points at once.

    ``zs`` holds the points (entries where ``at_inf`` is set are ignored and
    stand for the point at infinity).  Returns ``(roots, inf)``, both of
    shape (N, degree(f)): row n lists the preimages of point n in the same
    branch order as :func:`preimages`, with ``inf`` marking the entries at
    infinity (their ``roots`` entry is 0).

    Only the common row is vectorized: a finite point whose fibre
    coefficients have their largest modulus in [2^-500, 2^500], a leading
    coefficient above the degree-drop cut and, for degree 2, a nonzero
    constant.  Its roots come from the same closed forms (degree <= 2) or
    Ehrlich-Aberth iteration (above) as the scalar path, with the same
    floating-point operations, on all such rows together; any row that does
    not converge raises :class:`SolverDivergence`.  Every other finite row,
    and a degree <= 2 row whose roots come out non-finite, is one
    :func:`preimages` call, and the rows at infinity share one.  Rows go
    through in blocks of ``_BATCH_ROWS``.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    at_inf = np.asarray(at_inf, dtype=bool).reshape(-1)
    d = f.degree
    roots = np.zeros((zs.size, d), dtype=complex)
    inf = np.zeros((zs.size, d), dtype=bool)
    if at_inf.any():
        # the fibre over infinity is one fixed list, shared by every such row
        roots[at_inf], inf[at_inf] = to_arrays(preimages(f, INF))
    # the (real, imag) parts of each root, written in place
    parts = roots.view(float).reshape(zs.size, d, 2)
    num, den = np.array(f._fibre_pairs).T
    finite = np.flatnonzero(~at_inf)
    for s in range(0, finite.size, _BATCH_ROWS):
        rows = finite[s : s + _BATCH_ROWS]
        with np.errstate(all="ignore"):
            pr, pi = _mul(zs.real[rows, None], zs.imag[rows, None], den.real, den.imag)
            cr, ci = num.real - pr, num.imag - pi
            mag = np.hypot(cr, ci)
            peak = mag.max(axis=1)  # NaN or inf for a non-finite row
            common = (peak >= _RESCALE_BELOW) & (peak <= _RESCALE_ABOVE)
            common &= mag[:, d] > _LEAD_DROP * peak
            if d == 2:
                common &= mag[:, 0] > 0.0
            for r in rows[~common].tolist():
                roots[r], inf[r] = to_arrays(preimages(f, complex(zs[r])))
            rows, cr, ci = rows[common], cr[common], ci[common]
            if rows.size == 0:  # the solver would run every sweep on no rows
                continue
            if d == 1:
                re, im = _div(-cr[:, :1], -ci[:, :1], cr[:, 1:], ci[:, 1:])
            elif d == 2:
                re, im = _quadratic_rows(cr[:, 2], ci[:, 2], cr[:, 1], ci[:, 1], cr[:, 0], ci[:, 0])
            else:
                re, im = _aberth_rows(cr, ci)
        order = np.lexsort((im, re), axis=1)
        parts[rows, :, 0] = np.take_along_axis(re, order, axis=1)
        parts[rows, :, 1] = np.take_along_axis(im, order, axis=1)
        if d <= 2:  # a non-finite root: b*b - 4ac underflowed, which preimages rescales
            for r in rows[~(np.isfinite(re) & np.isfinite(im)).all(axis=1)].tolist():
                roots[r], inf[r] = to_arrays(preimages(f, complex(zs[r])))
    return roots, inf
