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
from typing import Sequence

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
    # q == 0 would force c == 0, handled above
    return [q / a, c / q]


def _aberth_roots(coeffs: Sequence[complex]) -> list[complex]:
    """All roots of a degree >= 3 polynomial by simultaneous (Ehrlich-Aberth)
    iteration with one Newton polish per root.

    Multiple roots come out as tight clusters of repeated values, which is
    exactly what callers counting preimages with multiplicity need.
    """
    n = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    deriv = [k * monic[k] for k in range(1, n + 1)]
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    xs = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]

    coeff_mag = [abs(c) for c in monic]
    converged = False
    for _ in range(_MAX_SWEEPS):
        offsets = []
        all_small = True
        for i in range(n):
            x = xs[i]
            p = _horner(monic, x)
            # backward-error residual scale: sum |c_k| |x|^k
            ax = abs(x)
            scale = 0.0
            for m in reversed(coeff_mag):
                scale = scale * ax + m
            if abs(p) > _RESIDUAL_TOL * max(scale, 1.0):
                all_small = False
            dp = _horner(deriv, x)
            if dp == 0:
                offsets.append(radius * 1e-6)
                continue
            newton = p / dp
            acc = 0j
            for j in range(n):
                if j != i:
                    diff = x - xs[j]
                    if diff == 0:
                        diff = 1e-12 * (1 + abs(x))
                    acc += 1.0 / diff
            denom = 1.0 - newton * acc
            offsets.append(newton if denom == 0 else newton / denom)
        if all_small:
            converged = True
            break
        xs = [x - w for x, w in zip(xs, offsets)]
    if not converged:
        # final residual check; the loop may have exited right at the budget
        for x in xs:
            ax = abs(x)
            scale = 0.0
            for m in reversed(coeff_mag):
                scale = scale * ax + m
            if abs(_horner(monic, x)) > _RESIDUAL_TOL * max(scale, 1.0):
                raise SolverDivergence(coeffs, _MAX_SWEEPS)

    polished = []
    for x in xs:
        dp = _horner(deriv, x)
        if dp != 0:
            x = x - _horner(monic, x) / dp
        polished.append(x)
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
        pad = self.degree + 1
        nc = list(self.numerator.coeffs) + [0j] * (pad - len(self.numerator.coeffs))
        dc = list(self.denominator.coeffs) + [0j] * (pad - len(self.denominator.coeffs))
        self._num_padded = tuple(nc)
        self._den_padded = tuple(dc)
        # reversed coefficients for evaluation at large |z| via u = 1/z
        self._num_rev = tuple(reversed(self.numerator.coeffs))
        self._den_rev = tuple(reversed(self.denominator.coeffs))


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
    az = abs(z)
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
    rnum = _horner(f._num_rev, u)
    rden = _horner(f._den_rev, u)
    if rden == 0:
        return INF
    val = rnum / rden
    diff = f.numerator.degree - f.denominator.degree
    if diff == 0:
        w = val
    elif diff > 0:
        if val == 0:
            return 0j
        if diff * math.log10(az) > 300.0:
            # z**diff would overflow on its own; go through log-polar form
            m = diff * math.log(az) + math.log(abs(val))
            if m > 709.0:
                return INF
            theta = diff * cmath.phase(z) + cmath.phase(val)
            w = cmath.rect(math.exp(m), theta)
        else:
            w = z**diff * val
    else:
        w = u ** (-diff) * val
    if math.isfinite(w.real) and math.isfinite(w.imag):
        return w
    return INF


def _sorted_with_padding(finite: list[complex], degree: int) -> list[SpherePoint]:
    finite.sort(key=lambda w: (w.real, w.imag))
    out: list[SpherePoint] = list(finite)
    out.extend([INF] * (degree - len(finite)))
    return out


def fibre_polynomial(f: RationalMap, w: SpherePoint) -> list[complex]:
    """The degree(f)+1 ascending coefficients whose roots are the preimages
    of w: num - w*den, or den for w at infinity; each leading coefficient
    that vanishes puts one preimage at infinity.  Where some |num_k - w*den_k|
    overflows, all come from w and num scaled by one power of two instead."""
    return list(f._den_padded) if w is INF else _fibre(f, w)[0]


def _fibre(f: RationalMap, w: complex) -> tuple[list[complex], float]:
    """:func:`fibre_polynomial` of a finite w, with its largest |coefficient|."""
    nc = f._num_padded
    dc = f._den_padded
    coeffs = [nc[k] - w * dc[k] for k in range(f.degree + 1)]
    try:
        peak = max(map(abs, coeffs))
    except OverflowError:  # finite parts, modulus beyond the largest double
        peak = math.inf
    if peak < math.inf:
        return coeffs, peak
    # 2**-e takes every |coefficient| below 2**(_RESCALE_EXP + 3)
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
    """
    d = f.degree
    if is_inf(z):
        return _sorted_with_padding(polynomial_roots(f.denominator.coeffs), d)
    coeffs, maxmag = _normalized(*_fibre(f, z))
    top = len(coeffs) - 1
    if maxmag == 0.0:
        # cannot happen for a genuine degree >= 1 map; guard for totality
        return [INF] * d
    cut = _LEAD_DROP * maxmag
    while top > 0 and abs(coeffs[top]) <= cut:
        top -= 1
    if top == 0 or abs(coeffs[top]) <= cut:
        return [INF] * d
    return _sorted_with_padding(_roots(coeffs[: top + 1]), d)


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
    a z^2 + b z + c as (m, 2) real and imaginary parts."""
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
    # c == 0: the roots are 0 and -b/a
    zero_c = (cr == 0) & (ci == 0)
    r1 = _div(qr, qi, ar, ai)
    r2 = _div(cr, ci, np.where(zero_c, 1.0, qr), np.where(zero_c, 0.0, qi))
    r2_zero_c = _div(-br, -bi, ar, ai)
    first = [np.where(zero_c, 0.0, part) for part in r1]
    second = [np.where(zero_c, p0, part) for p0, part in zip(r2_zero_c, r2)]
    return np.stack([first[0], second[0]], axis=1), np.stack([first[1], second[1]], axis=1)


def _aberth_sums(xr, xi):
    """sum over j != i of 1 / (x_i - x_j), for every root i of every row,
    added in the scalar solver's order (j ascending).

    1 / (x_j - x_i) is exactly -(1 / (x_i - x_j)) in CPython's division, so
    each pair is divided once.  Coinciding roots use 1e-12 (1 + |x_i|) for
    their difference, the same from either side.
    """
    n = xr.shape[1]
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            dr = xr[:, i] - xr[:, j]
            di = xi[:, i] - xi[:, j]
            coincide = (dr == 0) & (di == 0)
            if coincide.any():
                gap = 1e-12 * (1 + np.hypot(xr[:, i], xi[:, i]))
                dr = np.where(coincide, gap, dr)
                tr, ti = _div(1.0, 0.0, dr, di)
                terms[j, i] = np.where(coincide, tr, -tr), np.where(coincide, ti, -ti)
            else:
                tr, ti = _div(1.0, 0.0, dr, di)
                terms[j, i] = -tr, -ti
            terms[i, j] = tr, ti
    acc_r = np.zeros_like(xr)
    acc_i = np.zeros_like(xi)
    for i in range(n):
        for j in range(n):
            if j != i:
                acc_r[:, i] += terms[i, j][0]
                acc_i[:, i] += terms[i, j][1]
    return acc_r, acc_i


def _aberth_rows(cr, ci):
    """:func:`_aberth_roots` on every row of an (m, n+1) coefficient array at
    once.  Each row starts from the same points, stops on the same residual
    test and gets the same Newton polish as the scalar solver; a row leaves
    the active set the sweep it converges."""
    m, n = cr.shape[0], cr.shape[1] - 1
    mr, mi = _div(cr, ci, cr[:, -1:], ci[:, -1:])
    k = np.arange(1, n + 1, dtype=float)
    dr, di = _mul(k, 0.0, mr[:, 1:], mi[:, 1:])
    coeff_mag = np.hypot(mr, mi)
    radius = 1.0 + coeff_mag[:, :-1].max(axis=1)
    unit = np.array([cmath.exp(1j * (2 * math.pi * j / n + 0.4)) for j in range(n)])
    xr, xi = _mul(radius[:, None], 0.0, unit.real, unit.imag)

    def residual_small(mr, mi, mag, x_r, x_i):
        pr, pi = _horner_rows(mr, mi, x_r, x_i)
        scale = np.zeros_like(x_r)
        ax = np.hypot(x_r, x_i)
        for j in range(n, -1, -1):
            scale = scale * ax + mag[:, j, None]
        return np.hypot(pr, pi) <= _RESIDUAL_TOL * np.maximum(scale, 1.0), pr, pi

    # the active rows' working copies; a converged row's roots go back to
    # (xr, xi) and the row leaves every working array
    rows = np.arange(m)
    live = (mr, mi, dr, di, coeff_mag, radius[:, None], xr.copy(), xi.copy())
    for _ in range(_MAX_SWEEPS):
        a_mr, a_mi, a_dr, a_di, a_mag, a_rad, x_r, x_i = live
        small, pr, pi = residual_small(a_mr, a_mi, a_mag, x_r, x_i)
        done = small.all(axis=1)
        if done.any():
            xr[rows[done]], xi[rows[done]] = x_r[done], x_i[done]
            keep = ~done
            rows, pr, pi = rows[keep], pr[keep], pi[keep]
            live = tuple(a[keep] for a in live)
            a_mr, a_mi, a_dr, a_di, a_mag, a_rad, x_r, x_i = live
            if rows.size == 0:
                break
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
    else:
        # rows still active ran the whole budget; the last sweep may have
        # brought them within tolerance
        a_mr, a_mi, _, _, a_mag, _, x_r, x_i = live
        small, _, _ = residual_small(a_mr, a_mi, a_mag, x_r, x_i)
        failed = rows[~small.all(axis=1)]
        if failed.size:
            bad = failed[0]
            raise SolverDivergence((cr[bad] + 1j * ci[bad]).tolist(), _MAX_SWEEPS)
        xr[rows], xi[rows] = x_r, x_i

    dpr, dpi = _horner_rows(dr, di, xr, xi)
    zero_dp = (dpr == 0) & (dpi == 0)
    sr, si = _div(*_horner_rows(mr, mi, xr, xi), np.where(zero_dp, 1.0, dpr), dpi)
    return np.where(zero_dp, xr, xr - sr), np.where(zero_dp, xi, xi - si)


def preimages_batch(
    f: RationalMap, zs: np.ndarray, at_inf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`preimages` of N points at once.

    ``zs`` holds the points (entries where ``at_inf`` is set are ignored and
    stand for the point at infinity).  Returns ``(roots, inf)``, both of
    shape (N, degree(f)): row n lists the preimages of point n in the same
    branch order as :func:`preimages`, with ``inf`` marking the entries at
    infinity (their ``roots`` entry is 0).  Row by row it applies the same
    degree-drop rule, the same closed forms for degree <= 2 and the same
    Ehrlich-Aberth iteration above that, with the same floating-point
    operations, on all rows together; any row that does not converge raises
    :class:`SolverDivergence`.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    at_inf = np.asarray(at_inf, dtype=bool).reshape(-1)
    d = f.degree
    roots = np.zeros((zs.size, d), dtype=complex)
    inf = np.ones((zs.size, d), dtype=bool)
    if at_inf.any():
        # the fibre over infinity is one fixed list, shared by every such row
        roots[at_inf], inf[at_inf] = to_arrays(preimages(f, INF))
    rows = np.flatnonzero(~at_inf)
    if rows.size == 0:
        return roots, inf
    num = np.array(f._num_padded)
    den = np.array(f._den_padded)
    with np.errstate(all="ignore"):
        pr, pi = _mul(zs.real[rows, None], zs.imag[rows, None], den.real, den.imag)
        cr, ci = num.real - pr, num.imag - pi
        mag = np.hypot(cr, ci)
        # the rare rows whose largest |coefficient| overflows, or needs the
        # power-of-two normalization, take the scalar path's coefficients
        peak = mag.max(axis=1)
        rare = ~((peak >= _RESCALE_BELOW) & (peak <= _RESCALE_ABOVE) | (peak == 0.0))
        for r in np.flatnonzero(rare).tolist():
            c = np.array(_normalized(*_fibre(f, complex(zs[rows[r]])))[0])
            cr[r], ci[r], mag[r] = c.real, c.imag, np.hypot(c.real, c.imag)
        above = mag[:, 1:] > (_LEAD_DROP * mag.max(axis=1))[:, None]
        # effective degree: highest k >= 1 whose coefficient survives the cut
        # (0, all preimages at infinity, when none does)
        top = np.where(above.any(axis=1), d - np.argmax(above[:, ::-1], axis=1), 0)
        for t in np.unique(top[top > 0]).tolist():
            sel = top == t
            c_r, c_i = cr[sel, : t + 1], ci[sel, : t + 1]
            if t == 1:
                re, im = _div(-c_r[:, :1], -c_i[:, :1], c_r[:, 1:], c_i[:, 1:])
            elif t == 2:
                re, im = _quadratic_rows(
                    c_r[:, 2], c_i[:, 2], c_r[:, 1], c_i[:, 1], c_r[:, 0], c_i[:, 0]
                )
            else:
                re, im = _aberth_rows(c_r, c_i)
            order = np.lexsort((im, re), axis=1)
            block = roots[rows[sel], :t]
            block.real = np.take_along_axis(re, order, axis=1)
            block.imag = np.take_along_axis(im, order, axis=1)
            roots[rows[sel], :t] = block
            inf[rows[sel], :t] = False
    return roots, inf
