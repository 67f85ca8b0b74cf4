"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately avoid the library code paths they check:
dict-based convolution for products, repeated complex multiplication for
the saddle family, an interval-Descartes bisection isolator for real
root counts, the identity sums of combinat written term by term, and a
character-scanning polynomial parser.  discriminant_expansion_residual is
a reference identity over the library's forms, kept for the tests, and
path_discriminant_coeffs multiplies out the path discriminants whose
identities the isotopy certificates check unexpanded.
isolate_real_roots runs the library's own Descartes recursion on the
squarefree part one Sturm chain gives, the isolation entry the root
tests check against the oracles above.  The reflection model
(``hopf_model_form`` and its kin) lives here, since only the tests use
it.
``reference_origin_index`` reads the exact origin index of any
hyperbolic form w from w alone, by a dominant Fourier term of II's own
data or by a Cauchy index chain that refuses a common real zero of A - C
and B; it is the oracle of ``lineindex.hyperbolic_index``, which reads the
index from f's Fourier data, and of the indexes isotopy certificates
carry.
The per-sample float layer (``reference_index_at_origin``,
``reference_separatrix_scan``, ``reference_float_coeffs``) is the oracle of
the grid evaluators and the packed Fourier conversion.  The sign kernel's
probes on Fractions (``reference_rational_root``,
``reference_strict_violation_witness``, ``reference_sign_at``) are the
oracle of its probes on integer pairs, over the seeded forms of known sign
class that ``random_sign_class_form`` builds.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction

from hesstop.classify import (
    NonnegativityCertificate,
    SignCertificate,
    SturmChain,
    Verdict,
    _descartes,
    _divexact,
    _exact_fourier,
    _fujiwara_exponent,
    _ints,
    count_real_roots,
)
from hesstop.combinat import binom
from hesstop.errors import (
    DomainError,
    NotHomogeneousError,
    PolynomialSyntaxError,
    excerpt,
)
from hesstop.isotopy import IsotopyCertificate
from hesstop.lineindex import CAUCHY_CHAIN, ROUCHE, HalfIndex, _dominant_term
from hesstop.polyalg import (
    MAX_DEGREE,
    HomoPoly,
    _numerators,
    complex_power_parts,
    multiply,
    partial,
    product_family,
    radial_family,
    saddle_family,
)
from hesstop.quadform import (
    QuadForm,
    discriminant,
    gradient_forms,
    hessian_pairing,
    second_fundamental_form,
)


def random_homopoly(
    rng: random.Random,
    degree: int,
    max_abs: int = 9,
    denominators=(1, 1, 1, 2, 3),
) -> HomoPoly:
    """Random nonzero homogeneous polynomial with small rational coefficients."""
    while True:
        coeffs = [
            Fraction(rng.randint(-max_abs, max_abs), rng.choice(denominators))
            for _ in range(degree + 1)
        ]
        if any(c != 0 for c in coeffs):
            return HomoPoly(degree, tuple(coeffs))


def fourier_constant_forms() -> list[HomoPoly]:
    """The seeded forms on which the dominant constant Fourier term of
    disc II_f is checked against the kernel: dense random forms of degree
    2 to 24, products of definite quadratics, and census models plus a
    small dense perturbation, which the test often decides."""
    rng = random.Random(29)
    forms = [random_homopoly(rng, d, max_abs=9) for d in range(2, 25) for _ in range(8)]
    for _ in range(60):
        f = HomoPoly.constant(1)
        for _ in range(rng.randint(1, 4)):
            a, c = rng.randint(1, 9), rng.randint(1, 9)
            f = multiply(f, HomoPoly(2, (a, rng.randint(-2, 2), c)))
        forms.append(f)
    for _ in range(60):
        m = rng.randint(3, 9)
        f = product_family(m, rng.randint(0, (m * m - m) // 2 + 2))
        noise = HomoPoly(f.degree, tuple(rng.randint(-3, 3) for _ in range(f.degree + 1)))
        forms.append(f * rng.randint(2, 40) + noise)
    return forms


def disc_term_inputs(g: list[tuple[int, int]], d: int) -> tuple[dict, dict]:
    """The nonzero a_k = k(k-1) 2F_k (k >= 2) and c_k = k(d-k) 2F_k
    (0 < k < d) of ``classify._dominant_constant_sign``, by k, from its
    converted data g = [2F_0, ..., 2F_d]."""
    a = {k: (k * (k - 1) * re, k * (k - 1) * im)
         for k, (re, im) in enumerate(g) if k > 1 and (re or im)}
    c = {k: (k * (d - k) * re, k * (d - k) * im)
         for k, (re, im) in enumerate(g) if 0 < k < d and (re or im)}
    return a, c


def reference_disc_terms(a: dict, c: dict, d: int) -> dict[int, tuple[int, int]]:
    """D_s as (re, im) for every s = 0..d-2, one s at a time: D_0 by
    Parseval, then D_s = sum_k a_k conj(a_(k-s)) - sum_k c_k c_(d+s-k),
    each sum over the k whose partner is nonzero too."""
    terms = {0: (sum(re * re + im * im for re, im in a.values())
                 - sum(re * re + im * im for re, im in c.values()), 0)}
    for s in range(1, d - 1):
        re = im = 0
        for k, (ar, ai) in a.items():
            if (k - s) in a:
                br, bi = a[k - s]
                re += ar * br + ai * bi
                im += ai * br - ar * bi
        for k, (cr, ci) in c.items():
            if (d + s - k) in c:
                er, ei = c[d + s - k]
                re -= cr * er - ci * ei
                im -= cr * ei + ci * er
        terms[s] = (re, im)
    return terms


def reference_dominant_sign(a: dict, c: dict, d: int) -> int:
    """The sign of D_0 when |D_0| > 2 sum_(s>0) ceil(|D_s|), else 0, the
    bound summed one s at a time and the test stopped at the first s where
    it reaches |D_0|."""
    terms = reference_disc_terms(a, c, d)
    d0 = terms[0][0]
    if not d0:
        return 0
    bound = 0
    for s in range(1, d - 1):
        re, im = terms[s]
        bound += 2 * (math.isqrt(re * re + im * im - 1) + 1 if re or im else 0)
        if bound >= abs(d0):
            return 0
    return 1 if d0 > 0 else -1


def dense_perturbed_models(count: int = 200) -> list[HomoPoly]:
    """Seeded dense forms that the dominant-constant test converts: a
    census model P_m (x^2 + y^2)^k or a radial power (x^2 + y^2)^k, scaled,
    plus dense noise with every coefficient nonzero, so every G_k is
    nonzero as a rule and the test decides some of them."""
    rng = random.Random(31)
    forms = []
    while len(forms) < count:
        if rng.random() < 0.3:
            f = radial_family(rng.randint(1, 12))
        else:
            m = rng.randint(3, 10)
            f = product_family(m, rng.randint(0, m + 3))
        noise = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(f.degree + 1)]
        forms.append(f * rng.choice((1, 4, 16, 64, 256)) + HomoPoly(f.degree, tuple(noise)))
    return forms


def dict_multiply(p: HomoPoly, q: HomoPoly) -> dict[tuple[int, int], Fraction]:
    """Independent convolution: exponent-dict product of two polynomials."""
    out: dict[tuple[int, int], Fraction] = {}
    dp, dq = p.degree, q.degree
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            if a == 0 or b == 0:
                continue
            key = (dp - i + dq - j, i + j)
            out[key] = out.get(key, Fraction(0)) + a * b
    return {k: v for k, v in out.items() if v != 0}


def poly_as_dict(p: HomoPoly) -> dict[tuple[int, int], Fraction]:
    d = p.degree
    return {(d - j, j): c for j, c in enumerate(p.coeffs) if c != 0}


def complex_power_oracle(m: int) -> tuple[dict, dict]:
    """(Re, Im) of (x+iy)^m as exponent dicts, by repeated multiplication of
    coefficient dicts (no HomoPoly arithmetic involved)."""
    re: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    im: dict[tuple[int, int], Fraction] = {}

    def mul(d1, d2):
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in d1.items():
            for (a2, b2), c2 in d2.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return {k: v for k, v in out.items() if v != 0}

    def add(d1, d2):
        out = dict(d1)
        for k, v in d2.items():
            out[k] = out.get(k, Fraction(0)) + v
        return {k: v for k, v in out.items() if v != 0}

    def neg(d):
        return {k: -v for k, v in d.items()}

    x = {(1, 0): Fraction(1)}
    y = {(0, 1): Fraction(1)}
    for _ in range(m):
        re, im = add(mul(re, x), neg(mul(im, y))), add(mul(re, y), mul(im, x))
    return re, im


# --- interval-Descartes bisection root isolator (independent of Sturm) ----


def _uni_eval(u: list[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(u):
        acc = acc * t + c
    return acc


def _taylor_shift(u: list[Fraction], c: Fraction) -> list[Fraction]:
    """Coefficients of u(t + c)."""
    out = list(u)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return out


def _descartes_bound_on_interval(u: list[Fraction], a: Fraction, b: Fraction) -> int:
    """Descartes sign-variation bound for roots of u in (a, b)."""
    v = _taylor_shift(u, a)
    scale = b - a
    v = [c * scale**i for i, c in enumerate(v)]
    w = list(reversed(v))
    w = _taylor_shift(w, Fraction(1))
    signs = [c for c in w if c != 0]
    changes = 0
    for s1, s2 in zip(signs, signs[1:]):
        if (s1 > 0) != (s2 > 0):
            changes += 1
    return changes


def descartes_count_roots(u: list[Fraction], a: Fraction, b: Fraction) -> int:
    """Exact count of distinct real roots of squarefree u in (a, b)."""
    if _uni_eval(u, a) == 0 or _uni_eval(u, b) == 0:
        raise ValueError("endpoints must not be roots")
    bound = _descartes_bound_on_interval(u, a, b)
    if bound == 0:
        return 0
    if bound == 1:
        return 1
    # pick a split point that is not a root (finitely many roots, so some
    # ratio from this list works)
    for num, den in ((1, 2), (17, 37), (19, 41), (23, 47), (29, 61), (31, 67)):
        mid = a + (b - a) * Fraction(num, den)
        if _uni_eval(u, mid) != 0:
            return descartes_count_roots(u, a, mid) + descartes_count_roots(u, mid, b)
    raise AssertionError("could not find a non-root split point")


def cauchy_radius(u: list[Fraction]) -> Fraction:
    lead = abs(u[-1])
    if len(u) == 1:
        return Fraction(1)
    return 1 + max(abs(c) for c in u[:-1]) / lead


def squarefree_with_known_roots(
    rng: random.Random, n_real: int, n_complex_pairs: int
) -> tuple[list[Fraction], int]:
    """Random squarefree polynomial with exactly n_real known rational roots."""
    roots: set[Fraction] = set()
    while len(roots) < n_real:
        roots.add(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3))))
    u = [Fraction(rng.choice((1, 2, -1, 3)))]

    def mul_lin(poly, r):
        out = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            out[i] += -r * c
            out[i + 1] += c
        return out

    for r in roots:
        u = mul_lin(u, r)
    for _ in range(n_complex_pairs):
        p = Fraction(rng.randint(-4, 4))
        q = p * p / 4 + Fraction(rng.randint(1, 9))  # forces no real root
        quad = [q, p, Fraction(1)]
        out = [Fraction(0)] * (len(u) + 2)
        for i, c in enumerate(u):
            for j, d in enumerate(quad):
                out[i + j] += c * d
        u = out
    return u, n_real


def isolate_real_roots(u) -> list[tuple[Fraction, Fraction]]:
    """Sorted isolating intervals of the distinct real roots of u, as the
    library's ``_descartes`` gives them for the squarefree part
    u / gcd(u, u'), which one Sturm chain provides."""
    u = _ints(u)
    if len(u) <= 1:
        return []
    return _descartes(_divexact(u, SturmChain.of(u).polys[-1]))


def line_distance(t1: float, t2: float) -> float:
    """RP^1 distance: the angle between two lines, in [0, pi/2]."""
    return abs(math.remainder(t1 - t2, math.pi))


def _null_q(A: float, B: float, C: float, x: float, y: float) -> float:
    """q of the cancellation-free quadratic branch: with s = sign(B) and
    q = B + s*sqrt(B^2 - AC), the solution lines of
    A dx^2 + 2B dxdy + C dy^2 = 0 are (-q, A) and (-C, q) in homogeneous
    direction coordinates, which stays stable when A or C is small.
    Raises NotHyperbolicHere when the discriminant is not positive."""
    from hesstop.lineindex import _positive_disc

    root = math.sqrt(_positive_disc(A, B, C, x, y))
    return B + root if B >= 0.0 else B - root


def _directions_from_values(
    A: float, B: float, C: float, x: float, y: float
) -> tuple[float, float]:
    """The two solution lines of A dx^2 + 2B dxdy + C dy^2 = 0 at (x, y),
    as angles in [0, pi), sorted, from the null vectors of :func:`_null_q`.
    """
    q = _null_q(A, B, C, x, y)
    t1 = math.atan2(A, -q) % math.pi
    t2 = math.atan2(q, -C) % math.pi
    return (t1, t2) if t1 <= t2 else (t2, t1)


def asymptotic_lines(w, x: float, y: float) -> tuple[float, float]:
    """The two asymptotic lines of ``w`` at (x, y), as the float layer reads
    them: the Fourier coefficients, one Horner pass at the unit point, then
    the quadratic."""
    from hesstop.lineindex import _at, _float_coeffs

    terms = _float_coeffs(w.degree, w.a, w.b, w.c)
    r = math.hypot(x, y)
    A, B, C = _at(terms, w.degree % 2 == 1, complex(x / r, y / r))
    return _directions_from_values(A, B, C, x, y)


def dense_horner_abc(terms, odd: bool, z: complex) -> tuple[float, float, float]:
    """A, B and C from the ``_float_coeffs`` data of three forms by a plain
    Horner pass over every power of w = z^2, the skipped powers filled in
    with zeros: the reference that the gap evaluator ``_at`` must
    match bit for bit on dense forms."""
    steps, tail = terms
    dense = []
    for gap, a, b, c in steps:
        dense += [(0j, 0j, 0j)] * (gap - 1) + [(a, b, c)]
    dense += [(0j, 0j, 0j)] * tail
    w = z * z
    sa = sb = sc = 0j
    for a, b, c in dense:
        sa = sa * w + a
        sb = sb * w + b
        sc = sc * w + c
    if odd:
        sa, sb, sc = sa * z, sb * z, sc * z
    return sa.real, sb.real, sc.real


def circle_samples(p: HomoPoly, n: int = 401) -> list[float]:
    """Float values of p along the unit circle."""
    out = []
    for i in range(n):
        phi = 2 * math.pi * i / n
        out.append(float(p.evaluate(math.cos(phi), math.sin(phi))))
    return out


def discriminant_expansion_residual(p: HomoPoly, q: HomoPoly) -> HomoPoly:
    """Discriminant of q*II_p + 2 dp dq minus its closed-form expansion.

    The expansion is -q^2 det(Hess p) + (p_x q_y - p_y q_x)^2
    - 2 q * hessian_pairing(p, q).  The residual is identically zero; this
    reference exists so the identity can be checked coefficient by
    coefficient over random inputs, with det(Hess p) written out here
    rather than read from disc II_p.
    """
    if p.degree < 2 or q.degree < 1:
        raise DomainError("needs deg p >= 2 and deg q >= 1")
    form = second_fundamental_form(p).scale(q) + gradient_forms(p, q)[0]
    lhs = discriminant(form)

    px, py = partial(p, "x"), partial(p, "y")
    qx, qy = partial(q, "x"), partial(q, "y")
    pxx, pxy, pyy = partial(px, "x"), partial(px, "y"), partial(py, "y")
    det_hess = multiply(pxx, pyy) - multiply(pxy, pxy)
    jac = multiply(px, qy) - multiply(py, qx)
    rhs = (
        -multiply(multiply(q, q), det_hess)
        + multiply(jac, jac)
        - 2 * multiply(q, hessian_pairing(p, q))
    )
    return lhs - rhs


def path_discriminant_coeffs(
    w: QuadForm, d: QuadForm
) -> tuple[HomoPoly, HomoPoly, HomoPoly]:
    """Coefficients (a0, a1, a2) of the discriminant of w + t*d as a
    quadratic in t, multiplied out: the oracle of the isotopy identities,
    which the library checks at one power of two without expanding them.

    a0 = w.b^2 - w.a w.c, a1 = 2 w.b d.b - w.a d.c - w.c d.a (the bilinear
    polarization of the discriminant), a2 = d.b^2 - d.a d.c.
    """
    a0 = discriminant(w)
    a1 = 2 * multiply(w.b, d.b) - multiply(w.a, d.c) - multiply(w.c, d.a)
    a2 = discriminant(d)
    return a0, a1, a2


def hypotheses_hold(cert: IsotopyCertificate) -> bool:
    """Every hypothesis of an isotopy certificate holds as named: q_elliptic
    is a negative discriminant, every other sign certificate is positive,
    every nonnegativity certificate is nonnegative, and a nested leg holds
    the same way."""
    for name, v in cert.verdicts.items():
        if isinstance(v, IsotopyCertificate):
            ok = hypotheses_hold(v)
        elif isinstance(v, NonnegativityCertificate):
            ok = v.nonnegative
        elif isinstance(v, SignCertificate):
            want = Verdict.NEGATIVE if name == "q_elliptic" else Verdict.POSITIVE
            ok = v.verdict is want
        else:
            ok = False
        if not ok:
            return False
    return bool(cert.verdicts)


# --- angle-based reference tracer --------------------------------------------

# RK4 step of the reference tracer and the most steps per curve.
_REF_STEP = 1e-3
_REF_MAX_STEPS = 20000


def _reference_direction(terms, odd, x: float, y: float, vref) -> tuple[float, float]:
    """Unit vector along the branch line nearest to vref, oriented with it,
    chosen by line angles: solve both lines as angles, keep the one nearer
    to the angle of vref in RP^1, and turn it back into a vector."""
    from hesstop.errors import NotHyperbolicHere
    from hesstop.lineindex import _at

    r = math.hypot(x, y)
    if not r:
        raise NotHyperbolicHere("the line field is not sampled at the origin")
    A, B, C = _at(terms, odd, complex(x / r, y / r))
    pair = _directions_from_values(A, B, C, x, y)
    ref_angle = math.atan2(vref[1], vref[0]) % math.pi
    d0 = line_distance(pair[0], ref_angle)
    d1 = line_distance(pair[1], ref_angle)
    theta = pair[0] if d0 <= d1 else pair[1]
    ux, uy = math.cos(theta), math.sin(theta)
    if ux * vref[0] + uy * vref[1] < 0.0:
        ux, uy = -ux, -uy
    return ux, uy


def reference_trace(w, seeds: int) -> list[list[tuple[float, float]]]:
    """Leaves of the branch that ``trace_foliation(w, seeds)`` draws, by RK4
    steps of 1e-3 up to 20000 steps, with :func:`_reference_direction` at
    every stage: the same seeds and annulus, two curves per seed.

    Each seed starts on the line of :func:`_directions_from_values` nearest
    to the fixed branch 2 theta = arg(A - C, 2B) + arccos(-(A + C)/2R) that
    ``index_at_origin`` samples; the stages then follow that line."""
    from hesstop.foliation import R_MAX, R_MIN
    from hesstop.lineindex import _at, _float_coeffs

    terms = _float_coeffs(w.degree, w.a, w.b, w.c)
    odd = w.degree % 2 == 1

    def leaf(x, y, v):
        pts = [(x, y)]
        for _ in range(_REF_MAX_STEPS):
            k1 = _reference_direction(terms, odd, x, y, v)
            k2 = _reference_direction(
                terms, odd, x + 0.5 * _REF_STEP * k1[0], y + 0.5 * _REF_STEP * k1[1], k1)
            k3 = _reference_direction(
                terms, odd, x + 0.5 * _REF_STEP * k2[0], y + 0.5 * _REF_STEP * k2[1], k2)
            k4 = _reference_direction(
                terms, odd, x + _REF_STEP * k3[0], y + _REF_STEP * k3[1], k3)
            dx = (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
            dy = (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
            norm = math.hypot(dx, dy)
            dx, dy = dx / norm, dy / norm
            nx, ny = x + _REF_STEP * dx, y + _REF_STEP * dy
            if not R_MIN <= math.hypot(nx, ny) <= R_MAX:
                break
            x, y = nx, ny
            v = (dx, dy)
            pts.append((x, y))
        return pts

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    curves = []
    for i in range(seeds):
        phi = 2.0 * math.pi * ((i + golden * 0.5) / seeds)
        x, y = math.cos(phi), math.sin(phi)
        A, B, C = _at(terms, odd, complex(x, y))
        fixed = (math.atan2(2.0 * B, A - C)
                 + math.atan2(math.sqrt(B * B - A * C), -0.5 * (A + C))) / 2.0
        theta = min(_directions_from_values(A, B, C, x, y),
                    key=lambda t: line_distance(t, fixed))
        for sign in (1.0, -1.0):
            curves.append(leaf(x, y, (sign * math.cos(theta), sign * math.sin(theta))))
    return curves


# Literal identity sums: the term-by-term bodies the combinat module used
# before it moved its hot loops onto ints, with Fraction for the 1/m factor,
# (-1) ** k for the signs and the range-guarded binom for every binomial.
# They are the reference the rewritten sums must match cell by cell.


def _literal_require_even(m: int, minimum: int) -> None:
    if m < minimum or m % 2 != 0:
        raise DomainError(f"needs even m >= {minimum}, got {m}")


def literal_raw_coeff_head(m: int, j: int) -> int:
    _literal_require_even(m, 2)
    if not 0 <= j <= (m - 2) // 2:
        raise DomainError(f"j out of range for m={m}: {j}")
    inner = sum(
        binom(m - 1, 2 * k) * binom(m - 1, 2 * j - 2 * k)
        - binom(m - 1, 2 * k + 1) * binom(m - 1, 2 * j - 2 * k - 1)
        for k in range(j)
    )
    return (-1) ** j * (binom(m - 1, 2 * j) + inner)


def literal_raw_coeff_middle(m: int) -> int:
    _literal_require_even(m, 2)
    inner = sum(
        binom(m - 1, 2 * k + 1) * (binom(m - 1, 2 * k + 2) - binom(m - 1, 2 * k))
        for k in range(m // 2 - 1)
    )
    return (-1) ** (m // 2) * (1 - m + inner)


def literal_raw_coeff_tail(m: int, j: int) -> int:
    _literal_require_even(m, 4)
    if not 1 <= j <= (m - 2) // 2:
        raise DomainError(f"j out of range for m={m}: {j}")
    inner = sum(
        binom(m - 1, 2 * k + 2 * j) * binom(m - 1, 2 * k + 1)
        - binom(m - 1, 2 * k) * binom(m - 1, 2 * k + 2 * j - 1)
        for k in range(m // 2 - j)
    )
    return (-1) ** (m // 2 + j - 1) * (-binom(m - 1, 2 * j - 1) + inner)


def literal_vanishing_alternating_sum(m: int, j: int) -> Fraction:
    if m < 1 or j < 0 or j > m - 1:
        raise DomainError(f"needs m >= 1 and 0 <= j <= m-1, got m={m}, j={j}")
    total = Fraction(0)
    for k in range(1, j + 1):
        total += (
            (-1) ** k
            * binom(m, j + k)
            * (1 + Fraction(1 - 2 * k, m) * binom(m, j - k + 1))
        )
    return total


def literal_weighted_convolution_sum(m: int, j: int) -> int:
    return sum(
        (-1) ** (k + 1) * (2 * k - 1) * binom(m, k + j) * binom(m, j - k + 1)
        for k in range(1, j + 2)
    )


def literal_square_convolution_sum(m: int, j: int) -> int:
    return binom(m, j) ** 2 + 2 * sum(
        (-1) ** k * binom(m, j - k) * binom(m, j + k) for k in range(1, j + 1)
    )


def literal_alternating_sum_identity_holds(m: int, r: int) -> bool:
    return (-1) ** r * binom(m - 1, r) == sum(
        (-1) ** k * binom(m, k) for k in range(r + 1)
    )


# Reference parser: the character scanner polyalg.parse used before it
# moved to one regex match per term, kept verbatim.  The rewritten parser
# must accept the same strings, raise the same exception classes and build
# the same polynomials.


def _reference_parse_term(term: str) -> tuple[int | Fraction, int, int]:
    """Parse one unsigned term into (coefficient, x-exponent, y-exponent)."""
    i, n = 0, len(term)
    coef = None

    def read_int(pos: int) -> tuple[int, int]:
        j = pos
        while j < n and term[j].isdigit():
            j += 1
        if j == pos:
            raise PolynomialSyntaxError(
                f"expected digits at position {pos} in term {excerpt(term)}"
            )
        try:
            return int(term[pos:j]), j
        except ValueError:  # over the interpreter's int-string digit limit
            raise PolynomialSyntaxError(
                f"integer literal of {j - pos} digits is too long"
            ) from None

    if i < n and term[i].isdigit():
        num, i = read_int(i)
        if i < n and term[i] == "/":
            den, i = read_int(i + 1)
            if den == 0:
                raise PolynomialSyntaxError(f"zero denominator in term {excerpt(term)}")
            coef = Fraction(num, den)
        else:
            coef = num
        if i < n and term[i] == "*" and i + 1 < n and term[i + 1] in "xy":
            i += 1

    def read_var(pos: int) -> tuple[int, int]:
        exp = 1
        pos += 1
        if pos < n and term[pos] == "^":
            exp, pos = read_int(pos + 1)
        return exp, pos

    xexp = yexp = 0
    seen_x = seen_y = False
    if i < n and term[i] == "x":
        xexp, i = read_var(i)
        seen_x = True
        if i < n and term[i] == "*" and i + 1 < n and term[i + 1] == "y":
            i += 1
    if i < n and term[i] == "y":
        yexp, i = read_var(i)
        seen_y = True
    if i != n:
        raise PolynomialSyntaxError(
            f"unexpected character {term[i]!r} at position {i} in term {excerpt(term)}"
        )
    if coef is None and not seen_x and not seen_y:
        raise PolynomialSyntaxError("empty term")
    if coef is None:
        coef = 1
    return coef, xexp, yexp


def reference_parse(text: str) -> HomoPoly:
    """Parse polynomial text; rejects non-homogeneous input.

    Raises PolynomialSyntaxError on bad tokens, NotHomogeneousError
    naming the two offending term degrees on a degree mismatch, and
    DomainError on a degree above MAX_DEGREE.
    """
    s = "".join(text.split())
    if not s:
        raise PolynomialSyntaxError("empty input")
    pieces: list[tuple[int, str]] = []
    sign = 1
    start = 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        start = 1
    cur = start
    term_start = start
    while cur <= len(s):
        if cur == len(s) or s[cur] in "+-":
            chunk = s[term_start:cur]
            if not chunk:
                raise PolynomialSyntaxError(
                    f"empty term at position {term_start} in {excerpt(text)}"
                )
            pieces.append((sign, chunk))
            if cur < len(s):
                sign = -1 if s[cur] == "-" else 1
                term_start = cur + 1
        cur += 1

    parsed = [(sgn, *_reference_parse_term(chunk)) for sgn, chunk in pieces]
    degree = parsed[0][2] + parsed[0][3]
    for sgn, coef, a, b in parsed:
        if a + b != degree:
            raise NotHomogeneousError(degree, a + b)
    if degree > MAX_DEGREE:
        raise DomainError(f"degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}")
    coeffs = [0] * (degree + 1)
    for sgn, coef, a, b in parsed:
        coeffs[b] += sgn * coef
    return HomoPoly(degree, tuple(coeffs))


# --- reflection model ----------------------------------------------------------


def swap_xy(p: HomoPoly) -> HomoPoly:
    """The polynomial p(y, x); reverses the coefficient vector."""
    return HomoPoly(p.degree, tuple(reversed(p.coeffs)))


def hopf_model_form(m: int) -> QuadForm:
    """The reference form Im((dx + i dy)^2 (x + i y)^(m-2)).

    With U + iV = (x + i y)^(m-2) the coefficients are (V, U, -V).  Its
    alignment function on the unit circle is sin(m phi), so its separatrix
    count is m: the model the saddle family is isotopic to.
    """
    if m < 2:
        raise DomainError(f"model form needs m >= 2, got {m}")
    re, im = complex_power_parts(m - 2)
    return QuadForm(im, re, -im)


def reflected_form(w: QuadForm) -> QuadForm:
    """Pullback under the reflection (x, y) -> (y, x): swaps dx and dy and
    composes each coefficient with the swap."""
    return QuadForm(swap_xy(w.c), swap_xy(w.b), swap_xy(w.a))


def reflection_identity_holds(m: int) -> bool:
    """For odd m, the reflected second fundamental form of saddle_family(m)
    equals (-1)^((m-1)/2) * m(m-1) times the degree-m model form, exactly.

    The sign alternates with m mod 4 because composing the saddle with the
    swap gives (-1)^((m-1)/2) Im((x+iy)^m); both signs define the same
    foliation.
    """
    if m < 3 or m % 2 == 0:
        raise DomainError(f"reflection identity needs odd m >= 3, got {m}")
    lhs = reflected_form(second_fundamental_form(saddle_family(m)))
    sign = (-1) ** ((m - 1) // 2)
    rhs = hopf_model_form(m).scale(sign * m * (m - 1))
    return lhs == rhs


# --- per-sample float layer ------------------------------------------------------
#
# The sampled layer as it read one point at a time: one form converted per
# pair of Taylor shifts, and every sample through the scalar evaluators, each
# power of e^(2i phi) raised by complex **.  The grid evaluators and the
# packed conversion must reproduce these.


def reference_float_coeffs(degree: int, *forms: HomoPoly) -> tuple[list[tuple], int]:
    """The (steps, tail) Horner data of ``forms``, converting each form by
    its own call of ``_fourier_halves``."""
    from hesstop.classify import _fourier_halves

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
    return steps or [(1, *[0j] * len(forms))], prev or 0


def reference_index_at_origin(w: QuadForm):
    """``index_at_origin`` one sample at a time: every grid point and every
    bisection midpoint through the scalar ``_at``, in the order of a
    work queue."""
    from hesstop.errors import RefinementLimit
    from hesstop.lineindex import (
        _MAX_DEPTH,
        DirectionTrace,
        HalfIndex,
        _at,
        _float_coeffs,
        _positive_disc,
    )

    n_initial = max(1024, 8 * w.degree)
    terms = _float_coeffs(w.degree, w.a, w.b, w.c)
    odd = w.degree % 2 == 1
    two_pi = 2.0 * math.pi

    def doubled_angle(phi: float) -> float:
        x, y = math.cos(phi), math.sin(phi)
        A, B, C = _at(terms, odd, complex(x, y))
        root = math.sqrt(_positive_disc(A, B, C, x, y))
        return math.atan2(2.0 * B, A - C) + math.atan2(root, -0.5 * (A + C))

    prev = doubled_angle(0.0)
    samples = [(0.0, (prev % two_pi) / 2.0)]
    unwrapped = [0.0]
    psi = 0.0
    max_depth = 0
    phi_prev = 0.0
    pending = deque((two_pi * i / n_initial, 0) for i in range(1, n_initial + 1))
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


def reference_dominant_winding(w: QuadForm):
    """The winding number of F = (A - C) + 2iB of any form ``w`` around
    the unit circle when one Fourier term of F outweighs all the others
    (``lineindex._dominant_term``), else None, from II's own Fourier data
    rather than from f's.

    One exact conversion of A - C and B (``classify._exact_fourier``) gives,
    up to one positive factor, A - C = Re sum_e g_e z^e and
    B = Re sum_e g'_e z^e on |z| = 1, over e >= 0.  As Re(g z^e) =
    (g z^e + conj(g) z^-e)/2 there, twice that factor times F is
    sum_e h_e z^e with the Gaussian integers h_e = g_e + 2i g'_e and
    h_-e = conj(g_e) + 2i conj(g'_e) for e > 0, and h_0 = 2 g_0 + 4i g'_0
    (g_0 and g'_0 are real).
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
    return _dominant_term(norms)


def reference_cauchy_index(w: QuadForm) -> int:
    """Twice the origin index of ``w`` as the Cauchy index of
    (A - C)(1, t) over 2B(1, t), read from one Sturm chain as
    ``lineindex._cauchy_index`` reads it, but on any form: it raises
    DomainError when A - C and B vanish together in a real direction, at
    (0, 1) or at a real root of the chain's last entry, their gcd, which
    a hyperbolic form never has."""
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


def reference_origin_index(w: QuadForm) -> HalfIndex:
    """The exact origin index of the line field of any hyperbolic form
    ``w``, read from ``w`` alone: from its dominant Fourier term
    (``ROUCHE``) when one outweighs the rest, else from its Cauchy index
    chain (``CAUCHY_CHAIN``).  The oracle of ``lineindex.hyperbolic_index``,
    which reads the same index from f's Fourier data."""
    winding = reference_dominant_winding(w)
    if winding is not None:
        return HalfIndex(winding, 0.0, ROUCHE)
    return HalfIndex(reference_cauchy_index(w), 0.0, CAUCHY_CHAIN)


def reference_separatrix_scan(w: QuadForm) -> tuple[int, list[float]]:
    """``count_separatrices`` one sample at a time: every grid point and
    every regula falsi point through the scalar ``_at``."""
    from hesstop.foliation import _ALIGN_TOL, _SCAN_SAMPLES, alignment_form
    from hesstop.lineindex import _at, _float_coeffs

    h = alignment_form(w)
    terms = _float_coeffs(h.degree, h)
    odd = h.degree % 2 == 1

    def _alignment(phi: float) -> float:
        return _at(terms, odd, complex(math.cos(phi), math.sin(phi)))[0]
    offset = 1e-3
    grid = [offset + math.pi * i / _SCAN_SAMPLES for i in range(_SCAN_SAMPLES + 1)]
    values = [_alignment(phi) for phi in grid]
    lines: list[float] = []
    for i in range(_SCAN_SAMPLES):
        h0, h1 = values[i], values[i + 1]
        if h0 == 0.0:
            root = grid[i]
        elif h0 * h1 < 0.0:
            lo, hi = grid[i], grid[i + 1]
            flo, fhi = h0, h1
            root, best = (lo, abs(h0)) if abs(h0) < abs(h1) else (hi, abs(h1))
            kept = 0
            while hi - lo > _ALIGN_TOL:
                mid = (lo * fhi - hi * flo) / (fhi - flo)
                if not lo < mid < hi:
                    mid = (lo + hi) / 2.0
                fmid = _alignment(mid)
                if abs(fmid) < best:
                    root, best = mid, abs(fmid)
                if fmid == 0.0:
                    break
                if flo * fmid < 0.0:
                    hi, fhi = mid, fmid
                    if kept < 0:
                        flo /= 2.0
                    kept = -1
                else:
                    lo, flo = mid, fmid
                    if kept > 0:
                        fhi /= 2.0
                    kept = 1
        else:
            continue
        line = root % math.pi
        lines.append(0.0 if math.pi - line < 1e-6 else line)
    lines.sort()
    return len(lines), lines + [line + math.pi for line in lines]


# --- sign kernel probes on Fractions -----------------------------------------
#
# The witness search, the rational-root search and the check of a returned
# witness as the sign kernel ran them on Fractions: every probe a reduced
# Fraction, read by Fraction Horner or HomoPoly.evaluate.  The integer
# probes must give == certificates.

SIGN_CLASSES = ("definite", "rational_double", "irrational_double", "two_lines")


def random_sign_class_form(rng: random.Random, kind: str, degree: int, bits: int) -> HomoPoly:
    """A form of even ``degree`` >= 4 whose sign class is known by
    construction, a product of factors with ``bits``-bit coefficients:

    - definite: positive definite quadratics only;
    - rational_double: (r x + s y)^2 times definite quadratics;
    - irrational_double: (a x^2 + e xy - c y^2)^2, two real lines of
      irrational slope, times definite quadratics;
    - two_lines: two distinct rational lines times definite quadratics.
    """
    low, high = 1 << (bits - 1), (1 << bits) - 1

    def line() -> list[int]:
        return [rng.randint(low, high), rng.choice((-1, 1)) * rng.randint(low, high)]

    if kind == "definite":
        factors = []
    elif kind == "rational_double":
        factors = [line()] * 2
    elif kind == "irrational_double":
        while True:
            a, c = rng.randint(low, high), rng.randint(low, high)
            e = rng.choice((-1, 1)) * rng.randint(low, high)
            if math.isqrt(e * e + 4 * a * c) ** 2 != e * e + 4 * a * c:
                break
        factors = [[a, e, -c]] * 2
    elif kind == "two_lines":
        first, second = line(), line()
        while first[0] * second[1] == first[1] * second[0]:
            second = line()
        factors = [first, second]
    else:
        raise ValueError(f"unknown sign class {kind!r}")
    # a x^2 + e xy + c y^2 with a, c >= 2^(bits-1) and |e| < 2^bits has
    # e^2 < 4^bits <= 4ac
    while sum(len(f) - 1 for f in factors) < degree:
        factors.append([rng.randint(low, high), rng.randint(-high, high),
                        rng.randint(low, high)])
    coeffs = [1]
    for f in factors:
        out = [0] * (len(coeffs) + len(f) - 1)
        for i, x in enumerate(coeffs):
            for j, y in enumerate(f):
                out[i + j] += x * y
        coeffs = out
    return HomoPoly(degree, tuple(Fraction(c) for c in coeffs))


def reference_strict_violation_witness(u, want_sign, intervals):
    """``_strict_violation_witness`` on Fractions: the sorted candidates,
    then the reduced midpoints between neighbours."""
    bound = Fraction(2) ** _fujiwara_exponent(u)
    candidates = [Fraction(0), Fraction(1), Fraction(-1), bound, -bound]
    for iv in intervals:
        candidates.extend(iv)
    mids = sorted(set(candidates))
    probes = mids + [(a + b) / 2 for a, b in zip(mids, mids[1:])]
    for t in probes:
        v = _uni_eval(u, t)
        if v != 0 and (v > 0) == (want_sign > 0):
            return (Fraction(1), t)
    return None


def reference_rational_root(g, lo, hi):
    """``_rational_root`` on Fractions: bisect (lo, hi) until it is
    narrower than 1/|lc(g)|, then test the one multiple of 1/|lc(g)| left
    inside."""
    lead = abs(g[-1])
    low_positive = _uni_eval(g, lo) > 0
    while (hi - lo) * lead >= 1:
        mid = (lo + hi) / 2
        v = _uni_eval(g, mid)
        if v == 0:
            return mid
        if (v > 0) == low_positive:
            lo = mid
        else:
            hi = mid
    t = Fraction(math.ceil(lo * lead), lead)
    return t if t < hi and _uni_eval(g, t) == 0 else None


def reference_sign_at(p: HomoPoly, u, point) -> Fraction:
    """p at ``point`` by HomoPoly.evaluate on Fractions; the int slice u is
    not read."""
    return p.evaluate(*point)
