"""Index at the origin of the asymptotic line field of a hyperbolic
quadratic differential form, exact for certification and sampled for the
trace.

Lines live in RP^1, so a line angle theta is only defined mod pi.  Where
A dx^2 + 2B dxdy + C dy^2 is hyperbolic its null lines satisfy
2 theta = arg(A - C, 2B) +- arccos(-(A + C)/2R), R = |((A - C)/2, B)|, and
the arccos term stays inside (0, pi).  So the index of either branch is
half the winding number of the pair (A - C, 2B) on the circle.

origin_index reads that winding exactly; ``index``, census rows and
``certify`` use it.  Where one Fourier term h_K z^K of (A - C) + 2iB on the
circle outweighs the sum of all the others, the winding is K by Rouche's
theorem, an integer test on the exact Fourier data below; that decides
every census model.  Otherwise the winding is a Cauchy index from one
Sturm chain of the integer kernel (Basu, Pollack and Roy, Algorithms in
Real Algebraic Geometry, ch. 2; compare Eisenbud and Levine 1977).
index_at_origin samples the winding of
one fixed branch, 2 theta = arg(A - C, 2B) + arccos(-(A + C)/2R), along the
circle at a fixed density of max(1024, 8 * degree) samples, so no branch is
ever chosen.  It is the toolkit's float layer: the source of
``index --trace`` and of the leaves that ``foliation.trace_foliation``
draws, and an independent oracle for the exact index in the tests.  Its
rounding residual is recorded and gated.

The float layer evaluates forms on the unit circle in the Fourier basis.
All the forms one call reads (A, B and C, or the alignment form) are
converted together, once and exactly, to the coefficients of their
trigonometric polynomials (:func:`_exact_fourier`: the forms packed into
one integer per coefficient, one pair of Taylor shifts for all), and
rounded once (:func:`_float_coeffs`), keeping only the nonzero powers.  A
value is then one complex Horner pass over the gaps between those powers
of e^(2i phi).  The fixed grids, the index grid
here and the separatrix scan of ``foliation``, are evaluated in one loop
per call over a table of roots of unity built for that call, from which
every power of a grid point is read, rounded once (:func:`_grid_abc`);
bisection midpoints and root refinement read single points
(:func:`_eval_abc`).  The monomial basis cancels: its binomial
coefficients reach 2^d while the values stay near 1, which cost the index
at degree 112 and the separatrix count at 86.  In the Fourier basis the
saddle family is one term, so a saddle of any degree costs O(1) complex
operations per sample, and the float layer is right for every saddle the
CLI accepts (m <= 1024).
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .classify import SturmChain, _taylor_shift, count_real_roots
from .errors import DomainError, NotHyperbolicHere, RefinementLimit
from .polyalg import HomoPoly, _numerators
from .quadform import QuadForm

_MAX_DEPTH = 20


def _fourier_halves(c: list[int]) -> list[tuple[int, int]]:
    """Exact Horner coefficients of p = sum c_j x^(d-j) y^j on the circle.

    On |z| = 1, 2x = z + 1/z and 2y = -i(z - 1/z), so 2^d p is
    sum F_k z^(2k-d) with F(u, v) = p(u + v, -i(u - v)) = sum F_k u^k v^(d-k).
    F_(d-k) is the conjugate of F_k, since p is real, so half of F is
    enough.  Returns g_0, g_1, ... as (real, imaginary) int pairs such that
    2^d p = Re(z^(d mod 2) sum g_i z^(2i)): the real F_(d/2) first when d
    is even, then 2F_k for every k > d/2.

    Split p(x, -iy) = E + iO, E holding the terms of even j and O those of
    odd j.  The real substitution T: q -> q(u + v, u - v) gives
    F = T(E) + iT(O), where T(E) is a palindrome and T(O) an antipalindrome,
    so S = T(E + O) holds both: 2 Re F_k = S_k + S_(d-k) and
    2 Im F_k = S_k - S_(d-k).  T is two Taylor shifts by 1: q(1, 1 + y),
    then y -> -2 and x -> u + 1.
    """
    d = len(c) - 1
    e = _taylor_shift([v * (1, -1, -1, 1)[j % 4] for j, v in enumerate(c)])
    s = _taylor_shift([(-2) ** j * v for j, v in enumerate(e)][::-1])
    half = [(s[k] + s[d - k], s[k] - s[d - k]) for k in range(d // 2 + 1, d + 1)]
    return ([(s[d // 2], 0)] if d % 2 == 0 else []) + half


def _exact_fourier(degree: int, *forms: HomoPoly) -> list[list[tuple[int, int]]]:
    """Per form of ``forms`` (each of ``degree`` or zero), its exact
    Fourier data as :func:`_fourier_halves` lays it out, all forms scaled
    by one common positive denominator.

    The forms are converted together, by one pair of Taylor shifts: form
    i's numerators sit in a balanced slot of K bits at bit K i of one
    integer per coefficient.  The conversion is linear over Z, so the
    packed result is exactly sum_i F_i 2^(K i) for the forms' own results
    F_i, however wide the intermediate values grow; only the final values
    must fit their slots for the unpacking (balanced residues mod 2^K of
    the low slots, the rest for the top one) to be exact.  Each is
    S_j +- S_(d-j) (or S_(d/2)) for the coefficients S of the real
    substitution, and sum_j |S_j| <= 2^d sum |c| <= 2^d (d + 1) max|c|,
    since a monomial of degree d maps to one of absolute coefficient sum
    2^d.  With max|c| < 2^bits, K = bits + d + bitlen(d + 1) + 3 keeps
    every value below 2^(K - 3), well inside the slot's
    [-2^(K - 1), 2^(K - 1)).  Costs O(degree^2) additions of integers of
    k K bits for k forms.
    """
    size = degree + 1
    nums, _ = _numerators(
        [c for p in forms for c in (p.coeffs if not p.is_zero else (0,) * size)]
    )
    width = max(map(abs, nums)).bit_length() + degree + size.bit_length() + 3
    half, mask = 1 << (width - 1), (1 << width) - 1
    packed = nums[:size]
    for i in range(1, len(forms)):
        packed = [p + (v << width * i) for p, v in zip(packed, nums[i * size:(i + 1) * size])]
    series = _fourier_halves(packed)
    # per form, its (real, imaginary) pairs by power of w: the balanced
    # residues of the low slots, what is left for the top one
    exact: list[list[tuple[int, int]]] = []
    for _ in forms[1:]:
        low = [(((re + half) & mask) - half, ((im + half) & mask) - half) for re, im in series]
        exact.append(low)
        series = [((re - lo) >> width, (im - li) >> width)
                  for (re, im), (lo, li) in zip(series, low)]
    exact.append(series)
    return exact


def _float_coeffs(degree: int, *forms: HomoPoly) -> tuple[list[tuple], int]:
    """The float form of ``forms`` (each of ``degree`` or zero) that every
    sampled evaluation reads, as Horner data in w = z^2 for
    :func:`_eval_abc`, :func:`_grid_abc` and their kin: a pair (steps, tail).

    ``steps`` lists the powers of w at which some form has a nonzero
    coefficient, highest first, each as (gap, c_1, ..., c_k): its power gap
    to the previous kept power (1 for the first, whose coefficients seed
    the pass) and one complex per form.  ``tail`` is the power of the last
    kept term.  A dense form has every gap 1 and tail 0; a saddle of any
    degree has one term.

    The Fourier coefficients are exact integers (:func:`_exact_fourier`),
    after one common denominator; they are rounded to floats once, all
    scaled by one power of two.  A common positive factor changes neither
    a line direction nor a sign.
    """
    exact = _exact_fourier(degree, *forms)
    bits = max(abs(v).bit_length() for series in exact for pair in series for v in pair)
    scale = 1 << max(bits - 1, 0)
    steps, prev = [], None
    for power in range(len(exact[0]) - 1, -1, -1):
        pairs = [series[power] for series in exact]
        if any(map(any, pairs)):
            gap = 1 if prev is None else prev - power
            steps.append((gap, *(complex(re / scale, im / scale) for re, im in pairs)))
            prev = power
    return steps, prev or 0


def _eval_abc(terms, odd: bool, z: complex) -> tuple[float, float, float]:
    """A, B and C at the unit point z, up to one common positive factor, in
    one Horner pass over the gaps of ``terms`` (from :func:`_float_coeffs`
    on a, b, c of a form of odd or even degree): s = s * w^gap + c, with
    w^gap computed again only where the gap changes."""
    steps, tail = terms
    w = z * z
    wg, last = w, 1
    sa = sb = sc = 0j
    for gap, a, b, c in steps:
        if gap != last:
            wg, last = w ** gap, gap
        sa = sa * wg + a
        sb = sb * wg + b
        sc = sc * wg + c
    if tail:
        wt = w ** tail
        sa, sb, sc = sa * wt, sb * wt, sc * wt
    if odd:
        sa, sb, sc = sa * z, sb * z, sc * z
    return sa.real, sb.real, sc.real


def _grid_abc(terms, odd: bool, roots: list[complex]) -> list[tuple[float, float, float]]:
    """A, B and C at every unit point z_i = roots[i], where ``roots`` lists
    the m-th roots of unity in order, as :func:`_eval_abc` reads them one
    point at a time.  Every power of a grid point is a table entry,
    z_i^e = roots[e i mod m], rounded once, so the pass over the gaps of
    ``terms`` raises no power: it starts from the first step's
    coefficients, multiplies by roots[2 gap i mod m] at each later step and
    by the entry of z^(2 tail + odd) once at the end."""
    steps, tail = terms
    m = len(roots)
    (_, a0, b0, c0), *rest = steps or [(1, 0j, 0j, 0j)]
    rest = [(2 * gap, a, b, c) for gap, a, b, c in rest]
    end = 2 * tail + odd
    values = []
    for i in range(m):
        sa, sb, sc, last = a0, b0, c0, 0
        for e, a, b, c in rest:
            if e != last:
                wg, last = roots[e * i % m], e
            sa = sa * wg + a
            sb = sb * wg + b
            sc = sc * wg + c
        zt = roots[end * i % m]
        values.append(((sa * zt).real, (sb * zt).real, (sc * zt).real))
    return values


def _positive_disc(A: float, B: float, C: float, x: float, y: float) -> float:
    """B^2 - AC of A dx^2 + 2B dxdy + C dy^2.  Raises NotHyperbolicHere
    when it is not positive; (x, y) only names the point in the error."""
    disc = B * B - A * C
    if disc <= 0.0:
        raise NotHyperbolicHere(
            f"discriminant {disc:.3e} is not positive at ({x:.6g}, {y:.6g})"
        )
    return disc


ROUCHE = "rouche-dominant-term"
CAUCHY_CHAIN = "cauchy-index-chain"


@dataclass(frozen=True)
class HalfIndex:
    """Index value numerator/2 plus the distance of the raw winding to it
    (0 for the exact index), and the method that read it: ``ROUCHE`` or
    ``CAUCHY_CHAIN`` for :func:`origin_index`, the sampled winding of
    :func:`index_at_origin` otherwise."""

    numerator: int
    residual: float
    method: str = "sampled-winding"

    def __post_init__(self) -> None:
        if not self.residual < 0.05:
            raise RefinementLimit(
                f"winding residual {self.residual:.4f} exceeds the 0.05 gate"
            )

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, 2)

    def __str__(self) -> str:
        return str(self.value)


@dataclass
class DirectionTrace:
    """The sampled fixed branch along the circle: (angle phi, line angle
    theta mod pi) pairs plus the cumulative doubled-angle track."""

    samples: list[tuple[float, float]]
    unwrapped: list[float]
    refinement_depth: int

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["phi", "line_angle", "doubled_angle_unwrapped"])
            for (phi, theta), psi in zip(self.samples, self.unwrapped):
                writer.writerow([f"{phi:.12g}", f"{theta:.12g}", f"{psi:.12g}"])


def index_at_origin(w: QuadForm) -> tuple[HalfIndex, DirectionTrace]:
    """Index of the asymptotic line field of ``w`` at the origin, sampled.

    Follows one fixed branch along the unit circle (homogeneity makes any
    radius valid): at each sample its doubled angle is
    2 theta = arg(A - C, 2B) + arccos(-(A + C)/2R), read as
    atan2(2B, A - C) + atan2(sqrt(B^2 - AC), -(A + C)/2).  The steps are
    unwrapped mod 2 pi and the total change divided by 4 pi is rounded to
    the nearest half-integer.  The other branch has the same index.  A step
    whose doubled angle moves by more than pi/2 is bisected, up to depth 20.

    Like any sampled winding this has a Nyquist limit: a step that turns
    the doubled angle by nearly a full turn (more than 3 pi/2) aliases to a
    small step and silently loses that turn.  So the sampling density is
    fixed from the degree: N = max(1024, 8 * degree) grid points
    phi_i = 2 pi i / N.  The doubled angle of II of saddle_family(m) turns
    by 2 pi (m - 2) in all, so no step of a saddle up to m = 1024 turns it
    by more than pi/4.

    The grid is evaluated first, in one complex Horner pass per point over
    a table of the N-th roots of unity built for this call
    (:func:`_grid_abc`); the walk then reads it in order.  Bisection
    midpoints, and grid points whose discriminant is not positive, are
    evaluated one at a time by :func:`_eval_abc` as the walk reaches them,
    so a NotHyperbolicHere or RefinementLimit names the first failing point
    in walk order.  Certification does not depend on this function; it
    reads the index from origin_index.
    """
    n = max(1024, 8 * w.degree)
    terms = _float_coeffs(w.degree, w.a, w.b, w.c)
    odd = w.degree % 2 == 1
    two_pi = 2.0 * math.pi
    half_pi = math.pi / 2.0
    atan2, sqrt, remainder = math.atan2, math.sqrt, math.remainder

    def doubled_angle(phi: float) -> float:
        x, y = math.cos(phi), math.sin(phi)
        A, B, C = _eval_abc(terms, odd, complex(x, y))
        root = sqrt(_positive_disc(A, B, C, x, y))
        return atan2(2.0 * B, A - C) + atan2(root, -0.5 * (A + C))

    grid = _grid_abc(terms, odd, [cmath.rect(1.0, two_pi * i / n) for i in range(n)])
    prev = doubled_angle(0.0)
    samples = [(0.0, (prev % two_pi) / 2.0)]
    unwrapped = [0.0]
    psi = 0.0
    max_depth = 0
    phi_prev = 0.0
    # a step of more than pi/2 is bisected depth first: the point waits on
    # ``todo`` while the midpoint towards the last accepted sample is settled
    todo: list[tuple[float, int, float]] = []
    for i in range(1, n + 1):
        # the last point, phi = 2 pi, is the first point of the table again
        phi, depth = two_pi * i / n, 0
        A, B, C = grid[i % n]
        disc = B * B - A * C
        if disc > 0.0:
            cur = atan2(2.0 * B, A - C) + atan2(sqrt(disc), -0.5 * (A + C))
        else:
            cur = doubled_angle(phi)
        while True:
            step = remainder(cur - prev, two_pi)
            if abs(step) > half_pi:
                if depth >= _MAX_DEPTH:
                    raise RefinementLimit(
                        f"bisection depth {_MAX_DEPTH} reached near phi={phi:.6f}"
                    )
                depth += 1
                todo.append((phi, depth, cur))
                phi = (phi_prev + phi) / 2.0
                cur = doubled_angle(phi)
                continue
            if depth > max_depth:
                max_depth = depth
            psi += step
            prev, phi_prev = cur, phi
            samples.append((phi, (cur % two_pi) / 2.0))
            unwrapped.append(psi)
            if not todo:
                break
            phi, depth, cur = todo.pop()

    raw = psi / (2.0 * two_pi)
    numerator = round(2.0 * raw)
    residual = abs(raw - numerator / 2.0)
    return HalfIndex(numerator, residual), DirectionTrace(samples, unwrapped, max_depth)


def _dominant_winding(w: QuadForm) -> Optional[int]:
    """The winding number K of F = (A - C) + 2iB around the unit circle
    when one Fourier term of F outweighs all the others, else None.

    One exact conversion of A - C and B (:func:`_exact_fourier`) gives,
    up to one positive factor, A - C = Re sum_e g_e z^e and
    B = Re sum_e g'_e z^e on |z| = 1, over e >= 0.  As Re(g z^e) =
    (g z^e + conj(g) z^-e)/2 there, twice that factor times F is
    sum_e h_e z^e with the Gaussian integers h_e = g_e + 2i g'_e and
    h_-e = conj(g_e) + 2i conj(g'_e) for e > 0, and h_0 = 2 g_0 + 4i g'_0
    (g_0 and g'_0 are real).  If |h_K| > sum_(e != K) |h_e|, then
    |F - h_K z^K| < |h_K z^K| on the circle, so F has no zero there and
    winds K times, as h_K z^K does (Rouche's theorem).  The test is on
    integers: isqrt(|h_K|^2) <= |h_K| and isqrt(n - 1) + 1 >= sqrt(n) for
    n >= 1.
    """
    odd = w.degree % 2
    diff, b = _exact_fourier(w.degree, w.a - w.c, w.b)
    norms = {}
    for i, ((re, im), (bre, bim)) in enumerate(zip(diff, b)):
        e = 2 * i + odd
        if e:  # |h_e|^2 and |h_-e|^2
            norms[e] = (re - 2 * bim) ** 2 + (im + 2 * bre) ** 2
            norms[-e] = (re + 2 * bim) ** 2 + (2 * bre - im) ** 2
        else:
            norms[0] = 4 * re * re + 16 * bre * bre
    top = max(norms, key=norms.get)
    rest = sum(math.isqrt(n - 1) + 1 for e, n in norms.items() if n and e != top)
    return top if math.isqrt(norms[top]) > rest else None


def _cauchy_index(w: QuadForm) -> int:
    """Twice the index at the origin of a hyperbolic ``w``, as a Cauchy
    index read from one Sturm chain; see :func:`origin_index`."""
    d = w.degree

    def vec(poly):
        return [0] * (d + 1) if poly.is_zero else poly.coeffs

    a, b, c = vec(w.a), vec(w.b), vec(w.c)
    p = [x - z for x, z in zip(a, c)]
    if b[d] != 0:
        chain, sign = SturmChain.of(b, p), 1
    elif p[d] != 0:
        chain, sign = SturmChain.of(p, b), -1
    else:
        raise DomainError("A - C and B both vanish at the direction (0, 1)")
    gcd = chain.polys[-1]
    if len(gcd) > 1 and count_real_roots(gcd):
        raise DomainError("A - C and B vanish together in a real direction")
    return sign * (chain.variations_at_minus_inf() - chain.variations_at_plus_inf())


def origin_index(w: QuadForm) -> HalfIndex:
    """Exact index at the origin of the line field of a hyperbolic ``w``.

    The index is half the winding of F = (A - C) + 2iB over the circle.
    That winding is first read from a dominant Fourier term of F
    (:func:`_dominant_winding`, method ``ROUCHE``), which decides every
    census model.  Otherwise it is a Cauchy index (``CAUCHY_CHAIN``): by
    homogeneity the winding is the angle change over the half circle that
    the slice (1, t) covers, divided by pi, which is a Cauchy index of
    p(t) = (A - C)(1, t) and q(t) = 2B(1, t).  When B(0, 1) != 0 the index
    is Ind(p/q)/2, read as V(-inf) - V(+inf) of the chain q, p, ...;
    otherwise q/p has no pole at t = inf and it is -Ind(q/p)/2.  The value
    equals the line-field index when w is hyperbolic, which this function
    does not check again.  Raises DomainError when A - C and B vanish
    together in a real direction: at (0, 1), or at a real root of the
    chain's last entry, which is their gcd.
    """
    winding = _dominant_winding(w)
    if winding is not None:
        return HalfIndex(winding, 0.0, ROUCHE)
    return HalfIndex(_cauchy_index(w), 0.0, CAUCHY_CHAIN)
