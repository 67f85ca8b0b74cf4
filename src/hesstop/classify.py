"""Exact sign certification of homogeneous polynomials on the punctured
plane, and the hyperbolic/elliptic classification read off it.  A form f
of degree >= 2 is hyperbolic when disc II_f is positive off the origin and
elliptic when it is negative there: both are read off one sign
certificate on disc II_f, which :func:`is_hyperbolic` returns together
with II_f.

is_hyperbolic first tries a test that finds no root.  On the unit circle
disc II_f = 4 (|f_zz|^2 - f_zzbar^2) is a trigonometric polynomial, and
its exact Gaussian-integer Fourier coefficients come from f's own
(z, zbar) coefficients, one pair of Taylor shifts away
(:func:`_exact_fourier`).  When the constant term outweighs the sum of
all the others, disc II_f has that term's sign off the origin
(``fourier-dominant-constant``).  This decides every census model
P_m (x^2 + y^2)^k with n = m + 2k < m^2, all 627 rows for n = 3..60, and
the elliptic radial powers.  Every other form has disc II_f multiplied
out in the monomial basis and signed by the kernel below.

A homogeneous p of even degree d has its sign pattern on R^2 \\ {0}
determined by the slice u(t) = p(1, t) and the value p(0, 1): a direction
(x, y) with x != 0 rescales to (1, y/x) by the positive factor x^d.
Odd-degree nonzero forms always change sign under (x, y) -> (-x, -y).  A
slice is read once into the primitive int vector that is a positive
multiple of it, which keeps every sign, root and multiplicity.

One algorithm finds real roots: the Vincent-Collins-Akritas recursion in
its continued-fraction form, which reads Descartes' rule of signs off the
coefficients (Collins and Akritas 1976; Akritas, Strzebonski and Vigklas
2008), one side of 0 at a time.  An even slice u(t) = g(t^2) with
u(0) != 0, as the census models P_m (x^2 + y^2)^k and every form built
from them have, is rootless iff g has no positive root, so the recursion
first runs on g over s > 0 only: half the degree, a quarter of the work
per Taylor shift and one side instead of two.  That run answers only
that u is rootless, since roots +-sqrt s would give intervals with
irrational ends, so it may make at most one split per 12 degrees of u:
the budget bounds the work thrown away on a slice that has real roots,
or whose proof needs more splits.  Any other slice, and an even one not
proved rootless, is first made squarefree: the heuristic gcd (Char,
Geddes and Gonnet 1989) gives gcd(u, u') from one integer gcd, proved by
two exact divisions, and the recursion isolates u / gcd(u, u') once,
with no limit, an empty list proving u rootless.  A Sturm chain, a
primitive remainder sequence (Collins 1967, Brown 1971) with a
sign-preserving pseudo-remainder, gives that gcd only if every heuristic
try is rejected.  Chains count roots and give Cauchy indexes; none is
evaluated at a finite point.

Both kinds of sign question take the same route.  A slice with real roots
is probed at the isolating intervals' ends and the midpoints between them,
which meets every open interval between adjacent distinct roots, and at
+-B beyond every root.  u has one sign off its roots exactly when no probe
has the sign opposite to a nonzero sample, so p >= 0 with zeros allowed is
read off the strict sign certificate (Basu, Pollack and Roy, Algorithms in
Real Algebraic Geometry, ch. 2 and 10).  The probes, the rational-root
search and the sign of a returned witness run on integers: Horner passes
at numerator/denominator pairs, reduced or not, so a Fraction is built
only for an interval end and for a point that is returned.
SignCertificate answers strict sign questions and NonnegativityCertificate
p >= 0 questions, including the hessian pairing's p <= 0 read as -p >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from operator import ne
from typing import Optional

from .errors import DomainError
from .polyalg import HomoPoly, _numerators
from .quadform import QuadForm, discriminant, hessian_pairing, second_fundamental_form

Point = tuple[Fraction, Fraction]

# ---------------------------------------------------------------------------
# dense univariate polynomials over Z, ascending powers


def _trim(u: list) -> list:
    while u and u[-1] == 0:
        u.pop()
    return u


def _primitive(u: list[int]) -> list[int]:
    g = math.gcd(*u)
    return [c // g for c in u] if g > 1 else u


def _ints(u) -> list[int]:
    """The primitive int vector that is a positive multiple of the rational
    vector u, trailing zeros dropped ([] for the zero polynomial)."""
    return _primitive(_trim(_numerators(u)[0]))


def _eval_at(u: list[int], p: int, q: int = 1) -> int:
    """q^deg(u) * u(p/q) for integers p and q > 0, p/q in lowest terms or
    not: an integer with the sign of u(p/q)."""
    acc, qk = 0, 1
    for c in reversed(u):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _at_power_of_two(u: list[int], k: int) -> int:
    """u(2^k) for the int vector u (0 for []), by shifts and adds.

    Horner's scheme runs on blocks of 16 coefficients, and then
    neighbouring block values are joined, v_(2j) + v_(2j+1) 2^(16 k), which
    halves the list and doubles the shift until one value is left.  Horner
    alone costs O(d^2 k) bit operations for degree d and the joins
    O(d k log d); the blocks keep the short vectors at Horner's few steps.
    """
    values = []
    for i in range(0, len(u), 16):
        acc = 0
        for c in reversed(u[i:i + 16]):
            acc = (acc << k) + c
        values.append(acc)
    k *= 16
    while len(values) > 1:
        values = [a + (b << k) for a, b in zip(values[::2], values[1::2] + [0])]
        k *= 2
    return values[0] if values else 0


def _deriv(u: list[int]) -> list[int]:
    return [u[j] * j for j in range(1, len(u))]


def _taylor_shift(a: list[int]) -> list[int]:
    """Coefficients of a(t + 1), both lists indexed by the power of t.

    Horner's scheme as running sums over the coefficients from the top,
    each one shorter than the last: d(d + 1)/2 additions in C loops.
    """
    b = a[::-1]
    for k in range(len(b), 1, -1):
        b[:k] = accumulate(b[:k])
    b.reverse()
    return b


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


def _ceil_sqrt(n: int) -> int:
    """ceil(sqrt(n)) for an integer n >= 0: isqrt(n - 1) + 1 >= sqrt(n)
    for n >= 1, so it bounds |h| from above when n = |h|^2."""
    return math.isqrt(n - 1) + 1 if n else 0


def _prem(f: list[int], g: list[int]) -> list[int]:
    """A positive multiple of the remainder of f by g.

    Each step scales f by |lc(g)| before it cancels the leading term, so the
    result is |lc(g)|^e times the rational remainder for some e >= 0.
    """
    f = f[:]
    dg = len(g) - 1
    scale = abs(g[-1])
    sign = 1 if g[-1] > 0 else -1
    while len(f) > dg:
        c = sign * f.pop()
        shift = len(f) - dg
        if scale != 1:
            f = [scale * a for a in f]
        for i in range(dg):
            f[shift + i] -= c * g[i]
        _trim(f)
    return f


def _divexact(f: list[int], g: list[int]) -> list[int]:
    """f / g for an exact divisor g over Z."""
    f = f[:]
    dg = len(g) - 1
    lead = g[-1]
    out = [0] * (len(f) - dg)
    while len(f) > dg:
        q, r = divmod(f.pop(), lead)
        if r:
            raise ArithmeticError("division was not exact")
        shift = len(f) - dg
        out[shift] = q
        for i in range(dg):
            f[shift + i] -= q * g[i]
        _trim(f)
    if f:
        raise ArithmeticError("division was not exact")
    return out


def _heu_gcd(
    u: list[int], v: list[int]
) -> Optional[tuple[list[int], list[int]]]:
    """(g, u / g) for g = gcd(u, v) of nonzero primitive int polynomials,
    primitive with a positive lead, or None when every try is rejected.

    The heuristic gcd (Char, Geddes and Gonnet 1989): the integer
    gcd(u(xi), v(xi)), read as balanced base-xi digits, gives a candidate
    G.  For primitive u and v and xi >= 2 min(|u|_inf, |v|_inf) + 2, pp(G)
    is gcd(u, v) if it divides both u and v (Geddes, Czapor and Labahn,
    Algorithms for Computer Algebra, 1992, Thm 7.7), so the two exact
    divisions prove an accepted candidate; the division of u is the
    quotient returned.  A candidate 1 needs no division: a unit divides
    both, and the quotient is u itself.  xi = 2^k is the least power of
    two >= 2 min + 29, so the evaluations (:func:`_at_power_of_two`) and
    the digits are shifts and masks; a rejected candidate raises k by
    half, at most 6 tries.
    """
    k = (2 * min(max(map(abs, u)), max(map(abs, v))) + 28).bit_length()
    for _ in range(6):
        # gamma > 0: a common root of u and v has modulus below
        # 1 + min(|u|_inf, |v|_inf) < xi, so u(xi) and v(xi) are not both 0
        gamma, g = math.gcd(_at_power_of_two(u, k), _at_power_of_two(v, k)), []
        mask, half = (1 << k) - 1, 1 << (k - 1)
        while gamma:  # balanced digits in [-2^(k-1), 2^(k-1))
            c = ((gamma + half) & mask) - half
            g.append(c)
            gamma = (gamma - c) >> k
        g = _primitive(g)  # gamma > 0, so its top digit is positive
        if g == [1]:  # a unit divides u and v: nothing to prove
            return g, u
        try:
            quotient = _divexact(u, g)
            _divexact(v, g)
            return g, quotient
        except ArithmeticError:
            k += k // 2
    return None


def _sign_variations(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(map(ne, signs, signs[1:]))


@dataclass(frozen=True)
class SturmChain:
    """Canonical Sturm chain of a univariate slice, as a primitive PRS.

    Each entry is a positive multiple of the rational chain's entry, so the
    sign variations at +-inf are the same.  The terminal entry is a multiple
    of gcd(u, v), so the chain counts distinct real roots also for
    non-squarefree input.  Chains count roots and give Cauchy indexes;
    roots are isolated by :func:`_descartes`, and the sign kernel takes
    gcd(u, u') from :func:`_heu_gcd`, falling back to a chain only when
    every heuristic try is rejected.
    """

    polys: tuple[list[int], ...]

    @classmethod
    def of(cls, u, v=None) -> "SturmChain":
        """The chain u, v, -rem(u, v), ...; v defaults to u'.

        V(-inf) - V(+inf) is the Cauchy index Ind(v/u) over the real line,
        which for v = u' is the number of distinct real roots of u.
        """
        u = _ints(u)
        if not u:
            raise DomainError("Sturm chain of the zero polynomial")
        v = _primitive(_deriv(u)) if v is None else _ints(v)
        chain = [u, v] if v else [u]
        while len(chain) > 1 and (r := _prem(chain[-2], chain[-1])):
            chain.append(_primitive([-c for c in r]))
        return cls(tuple(chain))

    def variations_at_minus_inf(self) -> int:
        return _sign_variations(p[-1] if len(p) % 2 else -p[-1] for p in self.polys)

    def variations_at_plus_inf(self) -> int:
        return _sign_variations(p[-1] for p in self.polys)

    def count_real_roots(self) -> int:
        return self.variations_at_minus_inf() - self.variations_at_plus_inf()


def count_real_roots(u) -> int:
    """Distinct real roots of a nonzero univariate polynomial, from one
    Sturm chain.

    The chain stays because it is the fast count where the roots are many
    and real: on the slices of the saddle forms P_m, all of whose roots are
    real, it counts P_120 in 0.005 s and P_300 in 0.03 s, against 0.19 s
    and 3.96 s for :func:`_heu_gcd` plus :func:`_descartes`, which has to
    separate every root (in-process, once each).
    """
    u = _ints(u)
    if not u:
        raise DomainError("root count of the zero polynomial")
    return SturmChain.of(u).count_real_roots()


def _fujiwara_exponent(u: list[int]) -> int:
    """A k with 2^k strictly above |r| for every complex root r of u.

    Fujiwara (1916): |r| <= 2 max_i |c_(d-i) / c_d|^(1/i).  With bit lengths
    |c_(d-i) / c_d| < 2^(bitlen c_(d-i) - bitlen c_d + 1), so every term is
    below 2^e and the bound below 2^(e+1).  On the reversal of u, 2^-k is
    strictly below every root's modulus.
    """
    d, lead = len(u) - 1, u[-1].bit_length()
    # e = max over i of ceil((bitlen c_(d-i) - bitlen c_d + 1) / i)
    e = max((-((lead - 1 - u[d - i].bit_length()) // i)
             for i in range(1, d + 1) if u[d - i]), default=0)
    return e + 1


# splits the even route's budgeted run on g(s) = u(sqrt s) may make: one
# per this many degrees of the slice u
_DEGREES_PER_DESCARTES_SPLIT = 12


def _descartes(u: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Sorted isolating intervals of the distinct real roots of the
    squarefree int slice u.

    An interval (lo, hi) with lo < hi holds one simple root and neither end
    is a root; a root hit exactly comes as (r, r), and no interval touches
    it, so the probes between intervals see every gap between roots.

    The real roots are 0 and the positive roots of u(t) and of u(-t), which
    :func:`_positive_roots` isolates one side after the other, with no
    limit on its splits.
    """
    out: list[tuple[Fraction, Fraction]] = []
    zero_root = not u[0]
    if zero_root:
        u = u[next(j for j, c in enumerate(u) if c):]
    for side, g in ((1, u), (-1, [-c if j % 2 else c for j, c in enumerate(u)])):
        roots, _ = _positive_roots(g, None, zero_root)
        out += [(lo, hi) if side > 0 else (-hi, -lo) for lo, hi in roots]
    if zero_root:
        out.append((Fraction(0), Fraction(0)))
    return sorted(out)


def _positive_roots(
    g: list[int], splits: Optional[int], zero_root: bool
) -> Optional[tuple[list[tuple[Fraction, Fraction]], Optional[int]]]:
    """Isolating intervals of the positive roots of the int polynomial g,
    g(0) != 0, and the splits left over, or None once ``splits`` splits are
    spent (no limit when None).  ``zero_root`` says the caller has a root at
    0, which no interval may touch.

    The nodes are polynomials h on (0, inf) whose Moebius map
    x = (a t + b) / (c t + d) sends (0, inf) onto the node's interval.  By
    Descartes' rule of signs a node with no sign variation has no positive
    root, and one with one variation has one.  Any other node is shifted
    past 2^k when that bounds its roots' moduli from below (Fujiwara on
    the reversal of h), then split at t = 1 into h(t + 1) and the reversal
    of h shifted by 1, a root at 1 first recorded and divided out.  A split
    costs two Taylor shifts, O(d^2) integer additions each.
    """
    out: list[tuple[Fraction, Fraction]] = []
    # exact roots, which no interval may touch
    hits: set[Fraction] = {Fraction(0)} if zero_root else set()
    # (node, a, b, c, d, shift): a child is shifted only when it is reached,
    # so running out of splits skips the shifts still waiting
    stack = [(g, 1, 0, 0, 1, False)]
    while stack:
        h, a, b, c, d, shift = stack.pop()
        if shift:
            h = _taylor_shift(h)
        v = _sign_variations(h)
        if v == 0:
            continue
        if v == 1:
            top = Fraction(a, c) if c else Fraction(2) ** _fujiwara_exponent(g)
            lo, hi = sorted((Fraction(b, d), top))
            if lo not in hits and hi not in hits:
                out.append((lo, hi))
                continue
        if splits == 0:
            return None
        if splits is not None:
            splits -= 1
        k = -_fujiwara_exponent(h[::-1])  # 2^k < every root's modulus
        if k >= 0:  # h(t + 2^k), read off h(2^k (t + 1))
            h = _taylor_shift([x << (k * j) for j, x in enumerate(h)])
            h = [x >> (k * j) for j, x in enumerate(h)]
            b, d = b + (a << k), d + (c << k)
        if not sum(h):
            hits.add(Fraction(a + b, c + d))
            while not sum(h):
                h = _divexact(h, [-1, 1])
        # h(t + 1) on t > 1, and the reversal of h shifted by 1 on (0, 1)
        stack += ((h, a, a + b, c, c + d, True),
                  (h[::-1], b, a + b, d, c + d, True))
    hits.discard(Fraction(0))
    return out + [(r, r) for r in hits], splits


# ---------------------------------------------------------------------------
# certificates


class Verdict(str, Enum):
    POSITIVE = "positive-on-punctured-plane"
    NEGATIVE = "negative-on-punctured-plane"
    MIXED = "mixed"
    ZERO = "identically-zero"


@dataclass(frozen=True)
class SignCertificate:
    """Exact verdict for a homogeneous polynomial on R^2 minus the origin.

    ``witness`` accompanies Mixed verdicts: a rational point whose value has
    the violating sign (strict violations always yield one; when the only
    violations are zeros at irrational directions no rational witness can
    exist and the field stays None, with ``method`` recording why).
    """

    verdict: Verdict
    witness: Optional[Point] = None
    method: str = ""

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict.value, "method": self.method}
        if self.witness is not None:
            out["witness"] = [str(self.witness[0]), str(self.witness[1])]
        return out


@dataclass(frozen=True)
class NonnegativityCertificate:
    """Verdict for p >= 0 on the whole plane (zeros allowed).

    ``strict`` means p > 0 off the origin.  On failure ``witness`` is a
    rational point with p < 0.
    """

    nonnegative: bool
    strict: bool
    witness: Optional[Point] = None
    method: str = ""

    def to_json(self) -> dict:
        out: dict = {
            "nonnegative": self.nonnegative,
            "strict": self.strict,
            "method": self.method,
        }
        if self.witness is not None:
            out["witness"] = [str(self.witness[0]), str(self.witness[1])]
        return out


def _odd_degree_witness(u: list[int]) -> Point:
    """A point where an odd-degree form with slice u is negative."""
    t, v = _nonzero_sample(u)
    return (Fraction(1), t) if v < 0 else (Fraction(-1), -t)


def _nonzero_sample(u: list[int]) -> tuple[Fraction, int]:
    """(t, v) with v of the sign of u(t) != 0; scans d+1 integers, one must
    miss all roots."""
    for k in range(len(u) + 1):
        v = _eval_at(u, k)
        if v != 0:
            return Fraction(k), v
    raise AssertionError("nonzero polynomial vanished on more points than its degree")


def _strict_violation_witness(
    u: list[int], want_sign: int, intervals: list[tuple[Fraction, Fraction]]
) -> Optional[Point]:
    """A rational t with sign(u(t)) == want_sign, as the point (1, t);
    ``intervals`` isolate the real roots of u.

    The sorted candidates are probed first, then the midpoints between
    neighbours a/b < c/d, each as the unreduced pair (a d + b c, 2 b d).
    """
    bound = Fraction(2) ** _fujiwara_exponent(u)
    candidates = [0, 1, -1, bound, -bound]
    for iv in intervals:
        candidates.extend(iv)
    mids = [(t.numerator, t.denominator) for t in sorted(set(candidates))]
    probes = mids + [(a * d + b * c, 2 * b * d)
                     for (a, b), (c, d) in zip(mids, mids[1:])]
    positive = want_sign > 0
    for p, q in probes:
        v = _eval_at(u, p, q)
        if v != 0 and (v > 0) == positive:
            return (Fraction(1), Fraction(p, q))
    return None


def _rootless_verdict(at_infinity, ref: int, method: str) -> SignCertificate:
    """The verdict for a slice with no real root and nonzero sample ``ref``,
    given the value at the direction (0, 1)."""
    if at_infinity > 0 and ref > 0:
        return SignCertificate(Verdict.POSITIVE, method=method)
    if at_infinity < 0 and ref < 0:
        return SignCertificate(Verdict.NEGATIVE, method=method)
    # slice is definite but the (0, 1) direction vanishes
    return SignCertificate(
        Verdict.MIXED, (Fraction(0), Fraction(1)), "vanishes-at-vertical-direction"
    )


def _rational_root(g: list[int], lo: Fraction, hi: Fraction) -> Optional[Fraction]:
    """The root of g in (lo, hi), where g changes sign once, if rational.

    A rational root p/q in lowest terms has q | lc(g), so it is P / |lc(g)|
    for an integer P with lo |lc(g)| < P < hi |lc(g)|.  P is bisected on
    integers between floor(lo |lc(g)|) and ceil(hi |lc(g)|), g read at
    P / |lc(g)| unreduced; every P tested lies strictly inside, so g has
    the sign of g(lo) below the root and the other sign above it.  An open
    gap with no integer left in it holds no rational root.
    """
    lead = abs(g[-1])
    low_positive = _eval_at(g, lo.numerator, lo.denominator) > 0
    a = lo.numerator * lead // lo.denominator
    b = -(-hi.numerator * lead // hi.denominator)
    while b - a > 1:
        m = (a + b) // 2
        v = _eval_at(g, m, lead)
        if v == 0:
            return Fraction(m, lead)
        if (v > 0) == low_positive:
            a = m
        else:
            b = m
    return None


def sign_on_punctured_plane(p: HomoPoly) -> SignCertificate:
    """Exact sign verdict for p on R^2 minus the origin.

    An even slice u(t) = g(t^2) with u(0) != 0 is first tested on g over
    s > 0 (:func:`_positive_roots`) with a budget of deg // 12 splits: no
    positive root of g means no real root of u and answers
    ``descartes-no-real-roots``.  That test answers only the rootless
    question, since the roots +-sqrt s would give intervals with irrational
    ends.  Any other outcome, and every slice that is not even, takes
    g = gcd(u, u') from :func:`_heu_gcd` (from a Sturm chain's last entry
    only when every heuristic try is rejected), and one :func:`_descartes`
    run isolates the squarefree part u / g with no limit; an empty list
    answers ``descartes-no-real-roots``.  The probes at the intervals'
    ends, the midpoints between them, 0, +-1 and +-bound find a sign
    opposite to the slice's nonzero sample whenever u takes one
    (``descartes-sign-change``).  Otherwise u is semidefinite, each real
    root of even multiplicity in u and odd in g, and the witness is the
    least rational root that :func:`_rational_root` finds
    (``semidefinite-zeros``), or None when every real zero is irrational
    (``semidefinite-irrational-zeros``).
    """
    if p.is_zero:
        return SignCertificate(Verdict.ZERO, method="all-coefficients-zero")
    # u(t) = p(1, t) as a primitive int vector; the coefficient of y^j is
    # the coefficient of t^j
    u = _ints(p.coeffs)
    if p.degree % 2 == 1:
        return SignCertificate(
            Verdict.MIXED, _odd_degree_witness(u), "odd-degree-sign-flip"
        )

    at_infinity = p.coeffs[p.degree]  # value at the direction (0, 1)
    _, ref = _nonzero_sample(u)
    if u[0] and not any(u[1::2]):
        # u(t) = g(t^2) with g(0) != 0 is rootless iff g has no positive root
        splits = (len(u) - 1) // _DEGREES_PER_DESCARTES_SPLIT
        found = _positive_roots(u[::2], splits, False)
        if found is not None and not found[0]:
            return _rootless_verdict(at_infinity, ref, "descartes-no-real-roots")
    # g = gcd(u, u'); a slice of degree 0, which has no derivative, is even
    # and rootless, so it never gets here
    found = _heu_gcd(u, _primitive(_deriv(u)))
    if found is None:  # every heuristic try was rejected
        g = SturmChain.of(u).polys[-1]
        found = g, _divexact(u, g)
    g, squarefree = found
    intervals = _descartes(squarefree)
    if not intervals:
        return _rootless_verdict(at_infinity, ref, "descartes-no-real-roots")

    # the slice has real zeros: decide strict sign change vs semidefinite
    witness = _strict_violation_witness(u, -1 if ref > 0 else 1, intervals)
    if witness is not None:
        return SignCertificate(Verdict.MIXED, witness, "descartes-sign-change")
    if at_infinity == 0:
        return SignCertificate(
            Verdict.MIXED, (Fraction(0), Fraction(1)), "semidefinite-zeros"
        )
    for lo, hi in intervals:
        t = lo if lo == hi else _rational_root(g, lo, hi)
        if t is not None:
            return SignCertificate(
                Verdict.MIXED, (Fraction(1), t), "semidefinite-zeros"
            )
    return SignCertificate(Verdict.MIXED, None, "semidefinite-irrational-zeros")


def _sign_at(p: HomoPoly, u: list[int], point: Point) -> int:
    """A number with the sign of p at ``point``, for the int slice u of
    p: x^d u(y/x) when x != 0, with y/x read as the unreduced pair
    (y_n x_d sign(x), y_d |x_n|), and p(0, 1) y^d when x = 0."""
    x, y = point
    if not x:
        return p.coeffs[p.degree] * (-1 if y < 0 and p.degree % 2 else 1)
    v = _eval_at(u, y.numerator * x.denominator * (1 if x > 0 else -1),
                 y.denominator * abs(x.numerator))
    return -v if x < 0 and p.degree % 2 else v


def certify_nonnegative(p: HomoPoly) -> NonnegativityCertificate:
    """Certify p >= 0 on the whole plane, zeros allowed, read off
    :func:`sign_on_punctured_plane`.

    When p is not definite, the sign certificate has probed the slice
    u(t) = p(1, t) in every open interval between adjacent distinct real
    roots and beyond both ends, looking for the sign opposite to the slice's
    nonzero sample.  So p >= 0 iff that witness is not negative, the sample
    is positive and p(0, 1) >= 0; a failure's witness is the certificate's
    own or the sample point.  Builds no Sturm chain of its own.
    """
    if p.is_zero:
        return NonnegativityCertificate(True, False, method="identically-zero")
    if p.degree % 2 == 0 and p.coeffs[p.degree] < 0:
        return NonnegativityCertificate(
            False, False, (Fraction(0), Fraction(1)), "negative-at-vertical-direction"
        )
    cert = sign_on_punctured_plane(p)
    if cert.verdict is Verdict.POSITIVE:
        return NonnegativityCertificate(True, True, None, cert.method)
    u = _ints(p.coeffs)
    if cert.witness is not None and _sign_at(p, u, cert.witness) < 0:
        return NonnegativityCertificate(False, False, cert.witness, cert.method)
    t, v = _nonzero_sample(u)
    if v < 0:
        return NonnegativityCertificate(
            False, False, (Fraction(1), t), "negative-at-sample"
        )
    return NonnegativityCertificate(True, False, None, "no-negative-probe")


FOURIER_CONSTANT = "fourier-dominant-constant"


def _dominant_constant_sign(f: HomoPoly) -> tuple[int, Optional[list[tuple[int, int]]]]:
    """(sign, g): sign is 1 or -1, the sign of disc II_f off the origin,
    when the constant Fourier term of disc II_f on the unit circle
    outweighs all the others, and 0 when it does not; g lists 2 F_k for
    k = 0..d, as (real, imaginary) int pairs, or is None when nothing was
    converted.

    With z = x + iy, f = sum_k G_k z^k conj(z)^(d-k) and G_(d-k) =
    conj(G_k).  Then disc II_f = 4 (|f_zz|^2 - f_zzbar^2), where
    f_zz = sum k(k-1) G_k z^(k-2) conj(z)^(d-k) and
    f_zzbar = sum k(d-k) G_k z^(k-1) conj(z)^(d-k-1) is real; on |z| = 1
    they are a = sum a_k z^(2k-d-2) and c = sum c_k z^(2k-d).  One exact
    conversion (:func:`_exact_fourier`) gives F_k = 2^d G_k times one
    positive factor, a Gaussian integer per k, and disc II_f is a positive
    multiple of D = |a|^2 - c^2 = sum_s D_s z^(2s), D_-s = conj(D_s), with
    D_s = sum_k a_(k+s) conj(a_k) - sum_k c_k c_(d+s-k).  D_0 =
    sum |a_k|^2 - sum |c_k|^2 by Parseval, as c_(d-k) = conj(c_k).  When
    |D_0| > 2 sum_(s>0) |D_s|, D has the sign of D_0 on the whole circle,
    and so has the homogeneous disc II_f off the origin.  Every D_s is
    summed at once over the pairs of nonzero a_k and of nonzero c_k
    (:func:`_disc_terms`), O(d^2) products for a dense f and at most
    eight for a census model, and the test is on integers, each |D_s|
    bounded above by :func:`_ceil_sqrt`.  For the census models
    P_m (x^2 + y^2)^k, D is linear in cos 2m phi and the test decides
    exactly when n = m + 2k < m^2 (see ``census.CensusRow``).

    A dominant constant term forces one strict sign everywhere, so f is
    converted only when disc II_f has one at (1, 0) and (0, 1):
    (d-1)^2 c_1^2 - 2d(d-1) c_0 c_2 there for f = sum c_j x^(d-j) y^j, and
    the same on c_d, c_(d-1), c_(d-2).  A hyperbolic or elliptic f always
    passes, so g is None only for a form that is neither.
    """
    d = f.degree
    ends = [(d - 1) ** 2 * u1 * u1 - 2 * d * (d - 1) * u0 * u2
            for u0, u1, u2 in (f.coeffs[:3], f.coeffs[:-4:-1])]
    if ends[0] * ends[1] <= 0:
        return 0, None
    (top,) = _exact_fourier(d, f)
    # top holds F_(d/2) = 2^d G_(d/2) first when d is even, then 2 F_k for
    # k > d/2; with the first doubled too, the conjugates of the upper half
    # and then that half give 2 F_k for k = 0..d
    if d % 2 == 0:
        top[0] = (2 * top[0][0], 0)
    doubled = [(re, -im) for re, im in reversed(top[1 - d % 2:])] + top
    a, c = {}, {}
    for k, (re, im) in enumerate(doubled):
        if re or im:
            if k > 1:
                a[k] = (k * (k - 1) * re, k * (k - 1) * im)
            if 0 < k < d:
                c[k] = (k * (d - k) * re, k * (d - k) * im)
    re_s, im_s = _disc_terms(a, c, d)
    d0 = re_s[0]
    # |D - D_0| <= 2 sum_(s>0) |D_s|
    bound = 2 * sum(_ceil_sqrt(re * re + im_s[s] ** 2) for s, re in re_s.items() if s)
    if bound >= abs(d0):
        return 0, doubled
    return (1 if d0 > 0 else -1), doubled


def _disc_terms(
    a: dict[int, tuple[int, int]], c: dict[int, tuple[int, int]], d: int
) -> tuple[dict[int, int], dict[int, int]]:
    """The real and the imaginary parts of D_s by s >= 0, from the nonzero
    a_k and c_k of :func:`_dominant_constant_sign`, as (re, im) pairs by
    k: D_s = sum a_k conj(a_k') over the pairs with k - k' = s, less
    sum c_k c_k' over those with k + k' - d = s.  The keys are the s that
    some pair reaches, none beyond d - 2, as 2 <= k' and k <= d for a and
    0 < k, k' < d for c.  s = 0 is one: G_(d-k) = conj(G_k), so a nonzero
    f has a nonzero G_k with k >= 2, or d = 2 and G_1 != 0.  D_0 =
    sum |a_k|^2 - sum |c_k|^2 is real."""
    re_s: dict[int, int] = {}
    im_s: dict[int, int] = {}
    for k, (ar, ai) in a.items():
        for kk, (br, bi) in a.items():
            if k >= kk:
                s = k - kk
                re_s[s] = re_s.get(s, 0) + ar * br + ai * bi
                im_s[s] = im_s.get(s, 0) + ai * br - ar * bi
    for k, (cr, ci) in c.items():
        for kk, (er, ei) in c.items():
            if k + kk >= d:
                s = k + kk - d
                re_s[s] = re_s.get(s, 0) - cr * er + ci * ei
                im_s[s] = im_s.get(s, 0) - cr * ei - ci * er
    return re_s, im_s


def _hyperbolic_verdict(
    f: HomoPoly,
) -> tuple[SignCertificate, Optional[QuadForm], Optional[list[tuple[int, int]]]]:
    """(cert, II_f, g) for :func:`is_hyperbolic` and
    ``lineindex.hyperbolic_index``: the verdict on disc II_f, the II_f
    whose discriminant the sign kernel signed (None when the Fourier test
    decided, which reads no II_f), and the Fourier data g of f that
    :func:`_dominant_constant_sign` converted (None only when cert is
    neither POSITIVE nor NEGATIVE)."""
    if f.degree < 2:
        raise DomainError(f"hyperbolicity needs degree >= 2, got {f.degree}")
    sign, g = _dominant_constant_sign(f)
    if sign:
        verdict = Verdict.POSITIVE if sign > 0 else Verdict.NEGATIVE
        return SignCertificate(verdict, method=FOURIER_CONSTANT), None, g
    w = second_fundamental_form(f)
    return sign_on_punctured_plane(discriminant(w)), w, g


def is_hyperbolic(f: HomoPoly) -> tuple[bool, SignCertificate, QuadForm]:
    """(ok, cert, II_f): cert is the exact sign verdict on the discriminant
    of II_f, and ok says it is POSITIVE, f hyperbolic.  The same verdict
    NEGATIVE says f is elliptic.  II_f is returned for a caller that goes
    on to its line field, built once either way.

    The verdict is first read from a dominant constant Fourier term of
    disc II_f on the unit circle (:func:`_dominant_constant_sign`, method
    ``fourier-dominant-constant``, no witness), which needs no II_f, nor
    the discriminant's monomial coefficients or a root of it, and decides
    every census row; II_f is built after it.  Where no such term
    dominates, II_f and its discriminant are multiplied out and
    :func:`sign_on_punctured_plane` decides."""
    cert, w, _ = _hyperbolic_verdict(f)
    if w is None:
        w = second_fundamental_form(f)
    return cert.verdict is Verdict.POSITIVE, cert, w


def certify_pairing_nonpositive(p: HomoPoly, q: HomoPoly) -> NonnegativityCertificate:
    """Certify hessian_pairing(p, q) <= 0 at every point of the plane, as
    the certificate of -hessian_pairing(p, q) >= 0.

    The inequality is non-strict, so semidefinite cases (zeros along lines)
    are accepted.  A zero pairing gets the ``identically-zero`` certificate;
    on failure the witness is a point where the pairing is positive.
    """
    return certify_nonnegative(-hessian_pairing(p, q))
