"""Index at the origin of the asymptotic line field of a hyperbolic
quadratic differential form, exact for certification and sampled for the
trace.

Lines live in RP^1, so a line angle theta is only defined mod pi.  Where
A dx^2 + 2B dxdy + C dy^2 is hyperbolic its null lines satisfy
2 theta = arg(A - C, 2B) +- arccos(-(A + C)/2R), R = |((A - C)/2, B)|, and
the arccos term stays inside (0, pi).  So the index of either branch is
half the winding number of the pair (A - C, 2B) on the circle.

One function reads that winding exactly: hyperbolic_index(f), for
``index``, census rows and the forms ``certify`` joins.  One conversion of
f to its Fourier data proves f hyperbolic (``classify.is_hyperbolic``'s
verdict) and gives the Fourier terms of (A - C) + 2iB = 4 f_zbarzbar, with
no II_f built.  Where one term h_K z^K outweighs the sum of all the
others on the circle, the winding is K by Rouche's theorem, one integer
test (:func:`_dominant_term`); that decides every census model.
Otherwise the winding is a Cauchy index from one Sturm chain of the
integer kernel on II_f (:func:`_cauchy_index`), which is built only then
(Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 2;
compare Eisenbud and Levine 1977).
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
trigonometric polynomials (``classify._exact_fourier``: the forms packed
into one integer per coefficient, one pair of Taylor shifts for all), and
rounded once (:func:`_float_coeffs`), keeping only the nonzero powers.  A
value is then one complex Horner pass over the gaps between those powers
of e^(2i phi), and one pair of evaluators serves every form count: the
fixed grids, the index grid here and the separatrix scan of
``foliation``, are evaluated by :func:`_grid` over a table of roots of
unity, from which every power of a grid point is read, rounded once;
bisection midpoints and root refinement read single points
(:func:`_at`).  The monomial basis cancels: its binomial coefficients
reach 2^d while the values stay near 1, which cost the index at degree 112
and the separatrix count at 86.  In the Fourier basis the
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

from .classify import (
    SignCertificate,
    SturmChain,
    Verdict,
    _ceil_sqrt,
    _exact_fourier,
    _hyperbolic_verdict,
)
from .errors import NotHyperbolicHere, RefinementLimit
from .polyalg import HomoPoly
from .quadform import QuadForm, second_fundamental_form

_MAX_DEPTH = 20


def _float_coeffs(degree: int, *forms: HomoPoly) -> tuple[list[tuple], int]:
    """The float form of ``forms`` (each of ``degree`` or zero) that every
    sampled evaluation reads, as Horner data in w = z^2 for :func:`_at` and
    :func:`_grid`: a pair (steps, tail).

    ``steps`` lists the powers of w at which some form has a nonzero
    coefficient, highest first, each as (gap, c_1, ..., c_k): its power gap
    to the previous kept power (1 for the first, whose coefficients seed
    the pass) and one complex per form.  ``tail`` is the power of the last
    kept term.  A dense form has every gap 1 and tail 0; a saddle of any
    degree has one term.  When every form is zero, one zero step
    (1, 0j, ..., 0j) with tail 0 keeps the number of forms.

    The Fourier coefficients are exact integers
    (``classify._exact_fourier``), after one common denominator; they are
    rounded to floats once, all scaled by one power of two.  A common
    positive factor changes neither a line direction nor a sign.
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
    # all forms zero: one zero step still says how many forms there are
    return steps or [(1, *[0j] * len(forms))], prev or 0


def _at(terms, odd: bool, z: complex) -> list[float]:
    """Every form of ``terms`` (from :func:`_float_coeffs`, of odd or even
    degree) at the unit point z, up to their common positive factor, in
    one Horner pass over the gaps: it starts from the top step's
    coefficients and computes s * w^gap + c for each later step, with
    w^gap = (z^2)^gap computed again only where the gap changes, then
    multiplies by w^tail and by z when the degree is odd."""
    steps, tail = terms
    w = z * z
    (_, *acc), *rest = steps
    wg, last = w, 1
    for gap, *cs in rest:
        if gap != last:
            wg, last = w ** gap, gap
        acc = [s * wg + c for s, c in zip(acc, cs)]
    if tail:
        wt = w ** tail
        acc = [s * wt for s in acc]
    if odd:
        acc = [s * z for s in acc]
    return [s.real for s in acc]


def _grid(
    terms, odd: bool, roots: list[complex], count: int, offset: float = 0.0
) -> list[list[float]]:
    """Per form of ``terms``, its values at the unit points
    e^(i offset) z_j, j < ``count``, where z_j = roots[j] and ``roots``
    lists the m-th roots of unity in order, as :func:`_at` reads them one
    point at a time.  A power of such a point is e^(i e offset)
    roots[e j mod m], so the offset turns each coefficient once and the
    pass raises no power: it starts from the top step's coefficients,
    computes s * roots[2 gap j mod m] + c for each later step, over all
    points at once, and multiplies by the entry of z^(2 tail + odd) at the
    end."""
    steps, tail = terms
    m = len(roots)
    if offset:
        # the power of w of each step, read down from the top one's (the
        # first gap is 1)
        power = tail + sum(step[0] for step in steps)
        turned = []
        for gap, *cs in steps:
            power -= gap
            turn = cmath.rect(1.0, (2 * power + odd) * offset)
            turned.append((gap, *(c * turn for c in cs)))
        steps = turned
    (_, *seed), *rest = steps
    values = [[s] * count for s in seed]
    last = 0
    for gap, *cs in rest:
        if gap != last:
            e, last = 2 * gap, gap
            wg = [roots[e * j % m] for j in range(count)]
        values = [[s * w + c for s, w in zip(row, wg)] for row, c in zip(values, cs)]
    end = 2 * tail + odd
    zt = [roots[end * j % m] for j in range(count)]
    return [[(s * w).real for s, w in zip(row, zt)] for row in values]


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
    ``CAUCHY_CHAIN`` for the one exact reader, :func:`hyperbolic_index`,
    the sampled winding of :func:`index_at_origin` otherwise."""

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

    The grid is evaluated first, by :func:`_grid` over a table of the N-th
    roots of unity built for this call (its size depends on the degree);
    the walk then reads it in order.  Bisection midpoints, and grid points
    whose discriminant is not positive, are evaluated one at a time by
    :func:`_at` as the walk reaches them,
    so a NotHyperbolicHere or RefinementLimit names the first failing point
    in walk order.  Certification does not depend on this function; it
    reads the index from hyperbolic_index.
    """
    n = max(1024, 8 * w.degree)
    terms = _float_coeffs(w.degree, w.a, w.b, w.c)
    odd = w.degree % 2 == 1
    two_pi = 2.0 * math.pi
    half_pi = math.pi / 2.0
    atan2, sqrt, remainder = math.atan2, math.sqrt, math.remainder

    def doubled_angle(phi: float) -> float:
        x, y = math.cos(phi), math.sin(phi)
        A, B, C = _at(terms, odd, complex(x, y))
        root = sqrt(_positive_disc(A, B, C, x, y))
        return atan2(2.0 * B, A - C) + atan2(root, -0.5 * (A + C))

    roots = [cmath.rect(1.0, two_pi * i / n) for i in range(n)]
    grid = list(zip(*_grid(terms, odd, roots, n)))
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


def _dominant_term(norms: dict[int, int]) -> Optional[int]:
    """The exponent K of F = sum_e h_e z^e on the unit circle, given every
    |h_e|^2 in ``norms``, when |h_K| > sum_(e != K) |h_e|, else None.

    Then |F - h_K z^K| < |h_K z^K| on the circle, so F has no zero there
    and winds K times, as h_K z^K does (Rouche's theorem).  The test is on
    integers: isqrt(|h_K|^2) <= |h_K|, and ``classify._ceil_sqrt`` bounds
    every other |h_e| from above.
    """
    top = max(norms, key=norms.get)
    rest = sum(_ceil_sqrt(n) for e, n in norms.items() if e != top)
    return top if math.isqrt(norms[top]) > rest else None


def _cauchy_index(w: QuadForm) -> int:
    """Twice the index at the origin of the line field of a hyperbolic
    ``w``, as a Cauchy index read from one Sturm chain.

    The index is half the winding of F = (A - C) + 2iB over the circle.  By
    homogeneity that winding is the angle change over the half circle that
    the slice (1, t) covers, divided by pi, which is a Cauchy index of
    p(t) = (A - C)(1, t) and q(t) = 2B(1, t).  When B(0, 1) != 0 the index
    is Ind(p/q)/2, read as V(-inf) - V(+inf) of the chain q, p, ...;
    otherwise q/p has no pole at t = inf and it is -Ind(q/p)/2.  The value
    equals the line-field index because ``w`` is hyperbolic, which this
    function does not check again.
    """
    d = w.degree

    def vec(poly):
        return [0] * (d + 1) if poly.is_zero else poly.coeffs

    a, b, c = vec(w.a), vec(w.b), vec(w.c)
    p = [x - z for x, z in zip(a, c)]
    # where A - C and B both vanished in a real direction, disc II would be
    # B^2 - AC = -A^2 <= 0 there, so on a hyperbolic w they never do: they
    # are not both 0 at (0, 1), and the chain's last entry, their gcd, has
    # no real root, so neither case is checked
    chain, sign = (SturmChain.of(b, p), 1) if b[d] else (SturmChain.of(p, b), -1)
    return sign * (chain.variations_at_minus_inf() - chain.variations_at_plus_inf())


def hyperbolic_index(f: HomoPoly) -> tuple[SignCertificate, Optional[HalfIndex]]:
    """(cert, index) from one exact conversion of f: cert as
    ``classify.is_hyperbolic`` returns it, and the exact origin index of
    II_f when cert is POSITIVE, else None.

    The verdict converts f to its (z, zbar) coefficients G_k, f =
    sum_k G_k z^k conj(z)^(d-k), and the index is read from the same
    data: A - C + 2iB = 4 f_zbarzbar, which on |z| = 1 is
    4 sum_k (d-k)(d-k-1) G_k z^(2k-d+2), so the Fourier term h_e of F at
    e = 2k - d + 2 is (d-k)(d-k-1) G_k up to one positive factor, one k
    per e, and only the nonzero G_k enter the Rouche test.  A hyperbolic
    f has one with k <= d - 2, as f_zbarzbar = 0 would make disc II_f =
    -f_zzbar^2 <= 0.  When one term dominates (:func:`_dominant_term`)
    the index is half its exponent (``ROUCHE``), and no II_f is built;
    otherwise it is :func:`_cauchy_index` of II_f (``CAUCHY_CHAIN``),
    built here unless the verdict's sign kernel did, with no second
    conversion for a Rouche test on II_f's own data, which reads the same
    terms.
    """
    cert, w, g = _hyperbolic_verdict(f)
    if cert.verdict is not Verdict.POSITIVE:
        return cert, None
    d = f.degree
    # a hyperbolic f passed the verdict's end check, so g holds 2 F_k
    norms = {2 * k - d + 2: ((d - k) * (d - k - 1)) ** 2 * (re * re + im * im)
             for k, (re, im) in enumerate(g[:d - 1]) if re or im}
    winding = _dominant_term(norms)
    if winding is not None:
        return cert, HalfIndex(winding, 0.0, ROUCHE)
    if w is None:
        w = second_fundamental_form(f)
    return cert, HalfIndex(_cauchy_index(w), 0.0, CAUCHY_CHAIN)
