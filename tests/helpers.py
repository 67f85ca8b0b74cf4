"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately avoid the library code paths they check:
dict-based convolution for products, repeated complex multiplication for
the saddle family, and an interval-Descartes bisection isolator for real
root counts.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hesstop.classify import NonnegativityCertificate, SignCertificate, Verdict
from hesstop.isotopy import IsotopyCertificate
from hesstop.polyalg import HomoPoly


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
    from hesstop.lineindex import _eval_abc, _float_coeffs

    terms = _float_coeffs(w.degree, w.a, w.b, w.c)
    r = math.hypot(x, y)
    A, B, C = _eval_abc(terms, w.degree % 2 == 1, complex(x / r, y / r))
    return _directions_from_values(A, B, C, x, y)


def dense_horner_abc(terms, odd: bool, z: complex) -> tuple[float, float, float]:
    """A, B and C from the ``_float_coeffs`` data of three forms by a plain
    Horner pass over every power of w = z^2, the skipped powers filled in
    with zeros: the reference that the gap evaluator ``_eval_abc`` must
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
    from hesstop.lineindex import _eval_abc

    r = math.hypot(x, y)
    if not r:
        raise NotHyperbolicHere("the line field is not sampled at the origin")
    A, B, C = _eval_abc(terms, odd, complex(x / r, y / r))
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
    from hesstop.lineindex import _eval_abc, _float_coeffs

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
        A, B, C = _eval_abc(terms, odd, complex(x, y))
        fixed = (math.atan2(2.0 * B, A - C)
                 + math.atan2(math.sqrt(B * B - A * C), -0.5 * (A + C))) / 2.0
        theta = min(_directions_from_values(A, B, C, x, y),
                    key=lambda t: line_distance(t, fixed))
        for sign in (1.0, -1.0):
            curves.append(leaf(x, y, (sign * math.cos(theta), sign * math.sin(theta))))
    return curves
