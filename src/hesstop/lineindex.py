"""Index at the origin of the asymptotic line field of a hyperbolic
quadratic differential form, exact for certification and sampled for the
trace.

Lines live in RP^1, so a line angle theta is only defined mod pi.  Where
A dx^2 + 2B dxdy + C dy^2 is hyperbolic its null lines satisfy
2 theta = arg(A - C, 2B) +- arccos(-(A + C)/2R), R = |((A - C)/2, B)|, and
the arccos term stays inside (0, pi).  So the index of either branch is
half the winding number of the pair (A - C, 2B) on the circle.

origin_index reads that winding exactly as a Cauchy index from one Sturm
chain of the integer kernel (Basu, Pollack and Roy, Algorithms in Real
Algebraic Geometry, ch. 2; compare Eisenbud and Levine 1977); ``index``,
census rows and ``certify`` use it.  index_at_origin samples the winding of
one fixed branch, 2 theta = arg(A - C, 2B) + arccos(-(A + C)/2R), along the
circle at a fixed density of max(1024, 8 * degree) samples, so no branch is
ever chosen.  It is the toolkit's float layer: the source of
``index --trace`` and of the leaves that ``foliation.trace_foliation``
draws, and an independent oracle for the exact index in the tests.  Its
rounding residual is recorded and gated.

The float layer evaluates forms on the unit circle in the Fourier basis:
each form is converted once, exactly, to the coefficients of its
trigonometric polynomial (:func:`_float_coeffs`), which keeps only the
nonzero powers, and A, B and C are then read in one complex Horner pass
over the gaps between those powers of e^(2i phi) (:func:`_eval_abc`).  The
monomial basis cancels: its binomial coefficients reach 2^d while the
values stay near 1, which cost the index at degree 112 and the separatrix
count at 86.  In the Fourier basis the saddle family is one term, so a
saddle of any degree costs O(1) complex operations per sample, and the
float layer is right for every saddle the CLI accepts (m <= 1024).
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

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


def _float_coeffs(degree: int, *forms: HomoPoly) -> tuple[list[tuple], int]:
    """The float form of ``forms`` (each of ``degree`` or zero) that every
    sampled evaluation reads, as Horner data in w = z^2 for
    :func:`_eval_abc` and its kin: a pair (steps, tail).

    ``steps`` lists the powers of w at which some form has a nonzero
    coefficient, highest first, each as (gap, c_1, ..., c_k): its power gap
    to the previous kept power (1 for the first, which multiplies zero) and
    one complex per form.  ``tail`` is the power of the last kept term.  A
    dense form has every gap 1 and tail 0; a saddle of any degree has one
    term.  An evaluation costs O(len(steps)) complex operations plus a
    power of w wherever the gap changes.

    The Fourier coefficients are exact integers (:func:`_fourier_halves`),
    after one common denominator; they are rounded to floats once, all
    scaled by one power of two.  A common positive factor changes neither
    a line direction nor a sign.  Costs O(degree^2) integer additions.
    """
    nums, _ = _numerators(
        [c for p in forms for c in (p.coeffs if not p.is_zero else (0,) * (degree + 1))]
    )
    exact = [
        _fourier_halves(nums[i * (degree + 1):(i + 1) * (degree + 1)])
        for i in range(len(forms))
    ]
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


def _positive_disc(A: float, B: float, C: float, x: float, y: float) -> float:
    """B^2 - AC of A dx^2 + 2B dxdy + C dy^2.  Raises NotHyperbolicHere
    when it is not positive; (x, y) only names the point in the error."""
    disc = B * B - A * C
    if disc <= 0.0:
        raise NotHyperbolicHere(
            f"discriminant {disc:.3e} is not positive at ({x:.6g}, {y:.6g})"
        )
    return disc


@dataclass(frozen=True)
class HalfIndex:
    """Index value numerator/2 plus the distance of the raw winding to it
    (0 for the exact index)."""

    numerator: int
    residual: float

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
    fixed from the degree: max(1024, 8 * degree) initial samples.  The
    doubled angle of II of saddle_family(m) turns by 2 pi (m - 2) in all,
    so no step of a saddle up to m = 1024 turns it by more than pi/4.
    Certification does not depend on this function; it reads the index
    from origin_index.
    """
    n_initial = max(1024, 8 * w.degree)
    terms = _float_coeffs(w.degree, w.a, w.b, w.c)
    odd = w.degree % 2 == 1
    two_pi = 2.0 * math.pi

    def doubled_angle(phi: float) -> float:
        x, y = math.cos(phi), math.sin(phi)
        A, B, C = _eval_abc(terms, odd, complex(x, y))
        root = math.sqrt(_positive_disc(A, B, C, x, y))
        return math.atan2(2.0 * B, A - C) + math.atan2(root, -0.5 * (A + C))

    prev = doubled_angle(0.0)
    samples = [(0.0, (prev % two_pi) / 2.0)]
    unwrapped = [0.0]
    psi = 0.0
    max_depth = 0
    phi_prev = 0.0
    pending: deque[tuple[float, int]] = deque(
        (two_pi * i / n_initial, 0) for i in range(1, n_initial + 1)
    )
    while pending:
        phi, depth = pending.popleft()
        max_depth = max(max_depth, depth)
        cur = doubled_angle(phi)
        step = math.remainder(cur - prev, two_pi)
        if abs(step) > math.pi / 2.0:
            if depth >= _MAX_DEPTH:
                raise RefinementLimit(
                    f"bisection depth {_MAX_DEPTH} reached near phi={phi:.6f}"
                )
            pending.appendleft((phi, depth + 1))
            pending.appendleft(((phi_prev + phi) / 2.0, depth + 1))
            continue
        psi += step
        prev = cur
        phi_prev = phi
        samples.append((phi, (cur % two_pi) / 2.0))
        unwrapped.append(psi)

    raw = psi / (2.0 * two_pi)
    numerator = round(2.0 * raw)
    residual = abs(raw - numerator / 2.0)
    return HalfIndex(numerator, residual), DirectionTrace(samples, unwrapped, max_depth)


def origin_index(w: QuadForm) -> HalfIndex:
    """Exact index at the origin of the line field of a hyperbolic ``w``.

    The index is half the winding of (A - C, 2B) over the circle.  By
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
    return HalfIndex(
        sign * (chain.variations_at_minus_inf() - chain.variations_at_plus_inf()), 0.0
    )
