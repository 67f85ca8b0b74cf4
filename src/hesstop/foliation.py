"""Asymptotic-curve tracing, separatrix counting, and figure output.

A ray through the origin is invariant for the foliation of a homogeneous
hyperbolic form exactly when one of the two asymptotic lines at a circle
point is radial, i.e. when the alignment function

    h(phi) = A(p) cos^2 phi + 2 B(p) cos phi sin phi + C(p) sin^2 phi,
    p = (cos phi, sin phi)

vanishes.  Zeros come in antipodal pairs, so the separatrix count reported
here is the number of invariant LINES (ray pairs); for the saddle family of
degree m that count is m, with each of the two branch foliations owning m
of the 2m rays.  The angles list carries all rays in [0, 2pi).

Curve tracing is fixed-step RK4 on one branch of the line field, in the
annulus R_MIN <= r <= R_MAX that the SVG figure frames.  Each stage works
on direction vectors only: of the two null vectors of the form it keeps the
one nearer to the previous direction's line and orients it by their inner
product, with no angle taken.  Quality is qualitative by design: sector
counting never depends on the integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import lineindex
from .errors import DomainError, NotHyperbolicHere
from .lineindex import _directions_from_values, _eval_abc, _null_q
from .polyalg import HomoPoly, complex_power_parts, swap_xy
from .quadform import QuadForm

# Separatrix scan: grid points on the half turn (the density of 4096 on the
# full circle) and the bracket width each root is refined to.
_SCAN_SAMPLES = 2048
_ALIGN_TOL = 1e-8

# Curve tracing: the annulus every curve stays in, which the SVG frames, the
# RK4 step and the most steps per curve.
R_MIN, R_MAX = 0.05, 2.0
_STEP = 1e-3
_MAX_STEPS = 20000

# Most integral curves trace_foliation draws; each seed traces two curves of
# up to _MAX_STEPS points.
MAX_SEEDS = 4096


@dataclass
class CurveSet:
    """Traced polylines plus the invariant-ray data of the same form."""

    curves: list[list[tuple[float, float]]]
    separatrix_angles: list[float]
    sector_count: int


def alignment_form(w: QuadForm) -> HomoPoly:
    """a x^2 + 2b xy + c y^2, exactly: h(phi) is its value at
    (cos phi, sin phi)."""
    d = w.degree
    h = [0] * (d + 3)
    for shift, factor, p in ((0, 1, w.a), (1, 2, w.b), (2, 1, w.c)):
        if not p.is_zero:
            for j, v in enumerate(p.coeffs):
                h[j + shift] += factor * v
    return HomoPoly(d + 2, tuple(h))


def _alignment(terms, odd: bool, phi: float) -> float:
    """h(phi) up to a positive factor, from the :func:`_float_coeffs` terms
    of the alignment form: one Horner pass over e^(2i phi)."""
    z = complex(math.cos(phi), math.sin(phi))
    w = z * z
    acc = 0j
    for (g,) in terms:
        acc = acc * w + g
    return (acc * z).real if odd else acc.real


def count_separatrices(w: QuadForm) -> tuple[int, list[float]]:
    """Invariant lines of the foliation and the ray angles carrying them.

    h(phi + pi) = (-1)^deg h(phi), so the zeros of one half turn give every
    line.  Scans the alignment function on an offset grid of the half turn
    (so that zeros at round angles never land exactly on grid nodes),
    narrows each sign change by Illinois regula falsi (Dowell and Jarratt
    1971; the midpoint when the secant point leaves the bracket) to a
    bracket of 1e-8, and reads its midpoint as a line angle in [0, pi); a
    line within 1e-6 below pi is the line at 0.  Returns (number of lines,
    sorted ray angles in [0, 2pi)), the rays being each line and its
    antipode.  Tangential zeros without sign change are invisible to
    this scan, and so are two zeros closer than the grid step; the
    supported form families only have transversal alignment zeros.  The
    scan reads the exact alignment form, converted once to the Fourier
    basis, so it does not cancel: saddle_family(m) gets m lines for every m
    up to the degree cap of 1024 (the monomial basis miscounted from m = 86
    on).  The exact count is the number of distinct real linear factors of
    f, since the alignment form of II_f is n(n-1)f; ``foliate`` checks
    against it.
    """
    h = alignment_form(w)
    terms = lineindex._float_coeffs(h.degree, h)
    odd = h.degree % 2 == 1
    offset = 1e-3
    grid = [offset + math.pi * i / _SCAN_SAMPLES for i in range(_SCAN_SAMPLES + 1)]
    values = [_alignment(terms, odd, phi) for phi in grid]
    lines: list[float] = []
    for i in range(_SCAN_SAMPLES):
        h0, h1 = values[i], values[i + 1]
        if h0 == 0.0:
            root = grid[i]
        elif h0 * h1 < 0.0:
            lo, hi = grid[i], grid[i + 1]
            flo, fhi = h0, h1
            # Illinois: halve the value kept at an end that stays put twice
            # running, so that both ends close in on the root
            kept = 0
            while hi - lo > _ALIGN_TOL:
                mid = (lo * fhi - hi * flo) / (fhi - flo)
                if not lo < mid < hi:
                    mid = (lo + hi) / 2.0
                fmid = _alignment(terms, odd, mid)
                if fmid == 0.0:
                    lo = hi = mid
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
            root = (lo + hi) / 2.0
        else:
            continue
        line = root % math.pi
        lines.append(0.0 if math.pi - line < 1e-6 else line)
    lines.sort()
    return len(lines), lines + [line + math.pi for line in lines]


def _branch_vector(
    terms, odd, x: float, y: float, vx: float, vy: float
) -> tuple[float, float]:
    """Unit vector at (x, y) along the branch line nearest to the line of
    (vx, vy), oriented with it.

    Of the null vectors u0 = (-q, A) and u1 = (-C, q) (:func:`_null_q`), u0
    is at least as near to v when (u0.v)^2 |u1|^2 >= (u1.v)^2 |u0|^2, which
    compares the squared cosines without a square root.
    """
    r = math.hypot(x, y)
    if not r:
        raise NotHyperbolicHere("the line field is not sampled at the origin")
    A, B, C = _eval_abc(terms, odd, complex(x / r, y / r))
    q = _null_q(A, B, C, x, y)
    d0 = A * vy - q * vx
    d1 = q * vy - C * vx
    n0 = q * q + A * A
    n1 = C * C + q * q
    if d0 * d0 * n1 >= d1 * d1 * n0:
        ux, uy, d, n = -q, A, d0, n0
    else:
        ux, uy, d, n = -C, q, d1, n1
    s = math.sqrt(n)
    if d < 0.0:
        s = -s
    return ux / s, uy / s


def _trace_leaf(terms, odd, start, v0) -> list[tuple[float, float]]:
    pts = [start]
    x, y = start
    vx, vy = v0
    half = 0.5 * _STEP
    for _ in range(_MAX_STEPS):
        ax, ay = _branch_vector(terms, odd, x, y, vx, vy)
        bx, by = _branch_vector(terms, odd, x + half * ax, y + half * ay, ax, ay)
        cx, cy = _branch_vector(terms, odd, x + half * bx, y + half * by, bx, by)
        ex, ey = _branch_vector(terms, odd, x + _STEP * cx, y + _STEP * cy, cx, cy)
        dx = (ax + 2.0 * bx + 2.0 * cx + ex) / 6.0
        dy = (ay + 2.0 * by + 2.0 * cy + ey) / 6.0
        norm = math.hypot(dx, dy)
        vx, vy = dx / norm, dy / norm
        nx, ny = x + _STEP * vx, y + _STEP * vy
        r = math.hypot(nx, ny)
        if r < R_MIN or r > R_MAX:
            break
        x, y = nx, ny
        pts.append((x, y))
    return pts


def trace_foliation(w: QuadForm, seeds: int = 12) -> CurveSet:
    """Integrate one asymptotic branch from ``seeds`` points on the unit
    circle, both directions, by RK4 steps of 1e-3, each curve clipped to the
    annulus R_MIN <= r <= R_MAX and to 20000 steps."""
    if not 1 <= seeds <= MAX_SEEDS:
        raise DomainError(f"seeds must lie in 1..{MAX_SEEDS}, got {seeds}")
    terms = lineindex._float_coeffs(w.degree, w.a, w.b, w.c)
    odd = w.degree % 2 == 1
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    curves: list[list[tuple[float, float]]] = []
    for i in range(seeds):
        phi = 2.0 * math.pi * ((i + golden * 0.5) / seeds)
        x, y = math.cos(phi), math.sin(phi)
        A, B, C = _eval_abc(terms, odd, complex(x, y))
        theta = _directions_from_values(A, B, C, x, y)[0]
        v0 = (math.cos(theta), math.sin(theta))
        for sign in (1.0, -1.0):
            vdir = (sign * v0[0], sign * v0[1])
            curves.append(_trace_leaf(terms, odd, (x, y), vdir))
    count, angles = count_separatrices(w)
    return CurveSet(curves, angles, count)


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
    from .polyalg import saddle_family
    from .quadform import second_fundamental_form

    lhs = reflected_form(second_fundamental_form(saddle_family(m)))
    sign = (-1) ** ((m - 1) // 2)
    rhs = hopf_model_form(m).scale(sign * m * (m - 1))
    return lhs == rhs


def curves_to_svg(cs: CurveSet, path: str) -> None:
    """One path element per curve; separatrix rays highlighted.  The
    picture frames the traced annulus, out to R_MAX."""
    size = 640
    margin = 1.1
    scale = size / (2.0 * R_MAX * margin)

    def sx(x: float) -> float:
        return size / 2.0 + x * scale

    def sy(y: float) -> float:
        return size / 2.0 - y * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for curve in cs.curves:
        if len(curve) < 2:
            continue
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in curve)
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="#336699" '
            f'stroke-width="1"/>'
        )
    for phi in cs.separatrix_angles:
        x0, y0 = R_MIN * math.cos(phi), R_MIN * math.sin(phi)
        x1, y1 = R_MAX * math.cos(phi), R_MAX * math.sin(phi)
        lines.append(
            f'<line x1="{sx(x0):.2f}" y1="{sy(y0):.2f}" x2="{sx(x1):.2f}" '
            f'y2="{sy(y1):.2f}" stroke="#cc3333" stroke-width="2"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def curves_to_csv(cs: CurveSet, path: str) -> None:
    """curve_id, x, y rows."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["curve_id", "x", "y"])
        for cid, curve in enumerate(cs.curves):
            for x, y in curve:
                writer.writerow([cid, f"{x:.9g}", f"{y:.9g}"])
