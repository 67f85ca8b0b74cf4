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

Curves are leaves of the branch that lineindex.index_at_origin samples, in
the annulus R_MIN <= r <= R_MAX that the SVG figure frames.  The line field
is invariant under dilation, so with psi = theta(phi) - phi a leaf has
d(log r)/d phi = cot psi, and between two rays of the branch (sin psi = 0)
every leaf is a dilate of one curve, log r = G(phi) + c.  Sector counting
never depends on the tracer.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import chain

from . import lineindex
from .errors import DomainError
from .polyalg import HomoPoly
from .quadform import QuadForm

# Separatrix scan: grid points on the half turn (the density of 4096 on the
# full circle, so the scan reads every power of a point from
# lineindex._ROOTS, the 4096-th roots of unity) and the bracket width each
# root is refined to.
_SCAN_SAMPLES = 2048
_ALIGN_TOL = 1e-8
_SCAN_STEP = math.pi / _SCAN_SAMPLES

# Curve tracing: the annulus every curve stays in, which the SVG frames.
R_MIN, R_MAX = 0.05, 2.0

# Most integral curves trace_foliation draws; each seed traces two curves of
# at most one point per sample of the branch, plus their ends.
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


def count_separatrices(w: QuadForm) -> tuple[int, list[float]]:
    """Invariant lines of the foliation and the ray angles carrying them.

    h(phi + pi) = (-1)^deg h(phi), so the zeros of one half turn give every
    line.  Scans the alignment function on an offset grid of the half turn
    (so that zeros at round angles never land exactly on grid nodes),
    narrows each sign change by Illinois regula falsi (Dowell and Jarratt
    1971; the midpoint when the secant point leaves the bracket) to a
    bracket of 1e-8.  The line angle in [0, pi) is the evaluated point of
    smallest |h| (the bracket ends included), a secant point within rounding
    noise of the root, not the bracket's midpoint, which lies up to 5e-9
    from it; a line within 1e-6 below pi is the line at 0.  Returns (number
    of lines, sorted ray angles in [0, 2pi)), the rays being each line and
    its antipode.  Tangential zeros without sign change are invisible to
    this scan, and so are two zeros closer than the grid step; the
    supported form families only have transversal alignment zeros.

    The scan reads the exact alignment form, converted once to the Fourier
    basis, so it does not cancel: saddle_family(m) gets m lines for every m
    up to the degree cap of 1024 (the monomial basis miscounted from m = 86
    on).  The grid is evaluated in one pass (:func:`lineindex._grid`) over
    ``lineindex._ROOTS``, the 4096-th roots of unity, with the offset
    folded into the Fourier coefficients.  The brackets are then narrowed
    in lockstep rounds: each round evaluates the next regula falsi point of
    every open bracket in one call of :func:`lineindex._at`, which gives
    each point the values it would get alone, so every bracket takes the
    steps it would take by itself.  Either way a sample reads only the
    nonzero Fourier powers, one for a saddle of any degree.  The exact
    count is the number of distinct real linear factors of f, since the
    alignment form of II_f is n(n-1)f; ``foliate`` checks against it.
    """
    h = alignment_form(w)
    terms = lineindex._float_coeffs(h.degree, h)
    odd = h.degree % 2 == 1
    offset, step = 1e-3, _SCAN_STEP
    (values,) = lineindex._grid(terms, odd, lineindex._ROOTS, _SCAN_SAMPLES + 1, offset)
    # one root per grid node that is zero or opens a sign change, in scan
    # order; a bracket's slot is filled when its refinement ends
    roots: list[float] = []
    live = []
    for i, (h0, h1) in enumerate(zip(values, values[1:])):
        if h0 == 0.0:
            roots.append(offset + step * i)
        elif h0 * h1 < 0.0:
            refine = _illinois(offset + step * i, offset + step * (i + 1), h0, h1)
            live.append((len(roots), refine, next(refine)))
            roots.append(0.0)
    while live:
        points = [complex(math.cos(mid), math.sin(mid)) for _, _, mid in live]
        (fmids,) = lineindex._at(terms, odd, points)
        still = []
        for (slot, refine, _), fmid in zip(live, fmids):
            try:
                still.append((slot, refine, refine.send(fmid)))
            except StopIteration as done:
                roots[slot] = done.value
        live = still
    # a line within 1e-6 below pi is the line at 0
    lines = sorted(0.0 if math.pi - line < 1e-6 else line
                   for line in (root % math.pi for root in roots))
    return len(lines), lines + [line + math.pi for line in lines]


def _illinois(lo: float, hi: float, flo: float, fhi: float):
    """Illinois regula falsi on the sign change flo * fhi < 0 of [lo, hi],
    as a generator: it yields each point it needs, is sent the alignment
    value there, and returns the evaluated point of smallest |h| once the
    bracket is narrower than _ALIGN_TOL or a value is exactly zero."""
    root, best = (lo, abs(flo)) if abs(flo) < abs(fhi) else (hi, abs(fhi))
    # Illinois: halve the value kept at an end that stays put twice
    # running, so that both ends close in on the root
    kept = 0
    while hi - lo > _ALIGN_TOL:
        mid = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < mid < hi:
            mid = (lo + hi) / 2.0
        fmid = yield mid
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
    return root


def _log_rise(dphi: float, psi0: float, psi1: float, s0: float, s1: float):
    """Change of log r along a leaf over an angle step ``dphi`` in which psi
    moves linearly from psi0 to psi1 (sines s0, s1), or None when sin psi
    vanishes or changes sign in the step, which then reaches a ray.

    The integral of cot psi is dphi log(s1/s0)/(psi1 - psi0), exact for
    straight leaves.  s1/s0 is read as 1 + 2 cos(psi_mid) sin(dpsi/2)/s0
    through log1p, which keeps its accuracy as dpsi -> 0 (a log spiral).
    """
    if s0 * s1 <= 0.0:
        return None
    half = 0.5 * (psi1 - psi0)
    if not half:
        return dphi * math.cos(psi0) / s0
    ratio = 2.0 * math.cos(psi0 + half) * math.sin(half) / s0
    return dphi * math.log1p(ratio) / (2.0 * half) if ratio > -1.0 else None


def _half_leaf(phi: float, psi: float, path) -> list[tuple[float, float]]:
    """The half-leaf from the unit point at angle ``phi`` through the
    (angle, psi) nodes of ``path``, up to a ray or the annulus boundary."""
    radii = (R_MIN, R_MAX)
    bounds = [math.log(r) for r in radii]
    pts = [(math.cos(phi), math.sin(phi))]
    log_r = 0.0
    s = math.sin(psi)
    for phi1, psi1 in path:
        dphi = phi1 - phi
        s1 = math.sin(psi1)
        rise = _log_rise(dphi, psi, psi1, s, s1)
        if rise is not None and bounds[0] <= log_r + rise <= bounds[1]:
            log_r += rise
            phi, psi, s = phi1, psi1, s1
            r = math.exp(log_r)
            pts.append((r * math.cos(phi), r * math.sin(phi)))
            continue
        if rise is None:
            # the ray psi = k pi: out to R_MAX when log r grows towards it
            ray = round(psi1 / math.pi) * math.pi
            t = (ray - psi) / (psi1 - psi) if psi1 != psi else 0.0
            r = radii[(psi - ray) * dphi > 0.0]
        else:
            # bisect the step's closed form for the exit angle
            r = radii[log_r + rise > bounds[1]]
            lo, t = 0.0, 1.0
            while t - lo > 1e-12:
                mid = 0.5 * (lo + t)
                psi_t = psi + mid * (psi1 - psi)
                part = _log_rise(mid * dphi, psi, psi_t, s, math.sin(psi_t))
                if part is not None and bounds[0] <= log_r + part <= bounds[1]:
                    lo = mid
                else:
                    t = mid
        end = phi + t * dphi
        x, y = r * math.cos(end), r * math.sin(end)
        while math.hypot(x, y) < R_MIN:
            # rounding can put the point an ulp inside the inner circle
            r = math.nextafter(r, R_MAX)
            x, y = r * math.cos(end), r * math.sin(end)
        pts.append((x, y))
        break
    return pts


def trace_foliation(w: QuadForm, seeds: int) -> CurveSet:
    """Leaves of the branch that :func:`lineindex.index_at_origin` samples
    through ``seeds`` points of the unit circle, two half-leaves each, one
    towards growing and one towards falling angle.

    psi = theta - phi is lifted from the sampled trace, read as linear
    between samples and extended past a turn by its change over one turn.
    A half-leaf steps from sample to sample by :func:`_log_rise`.  It ends
    on a ray where sin psi changes sign, on the boundary circle where log r
    leaves the annulus R_MIN <= r <= R_MAX, or after one turn.
    """
    if not 1 <= seeds <= MAX_SEEDS:
        raise DomainError(f"seeds must lie in 1..{MAX_SEEDS}, got {seeds}")
    _, trace = lineindex.index_at_origin(w)
    phis = [phi for phi, _ in trace.samples]
    psis = [trace.samples[0][1] + u / 2.0 - phi for phi, u in zip(phis, trace.unwrapped)]
    n = len(phis) - 1
    turn = psis[n] - psis[0]

    def node(k: int) -> tuple[float, float]:
        q, i = divmod(k, n)
        return phis[i] + 2.0 * math.pi * q, psis[i] + turn * q

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    curves: list[list[tuple[float, float]]] = []
    for i in range(seeds):
        phi = 2.0 * math.pi * ((i + golden * 0.5) / seeds)
        j = bisect.bisect_right(phis, phi) - 1
        psi = psis[j] + (phi - phis[j]) / (phis[j + 1] - phis[j]) * (psis[j + 1] - psis[j])
        ahead = map(node, range(j + 1, j + n + 1))
        back = map(node, range(j, j - n, -1))
        curves.append(_half_leaf(phi, psi, chain(ahead, [(phi + 2.0 * math.pi, psi + turn)])))
        curves.append(_half_leaf(phi, psi, chain(back, [(phi - 2.0 * math.pi, psi - turn)])))
    count, angles = count_separatrices(w)
    return CurveSet(curves, angles, count)


def curves_to_svg(cs: CurveSet, path: str) -> None:
    """One path element per curve; separatrix rays highlighted.  The
    picture frames the traced annulus, out to R_MAX."""
    size = 640
    margin = 1.1
    scale = size / (2.0 * R_MAX * margin)
    c = size / 2.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for curve in cs.curves:
        if len(curve) < 2:
            continue
        points = " ".join(f"{c + x * scale:.2f},{c - y * scale:.2f}" for x, y in curve)
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="#336699" '
            f'stroke-width="1"/>'
        )
    for phi in cs.separatrix_angles:
        x0, y0 = R_MIN * math.cos(phi), R_MIN * math.sin(phi)
        x1, y1 = R_MAX * math.cos(phi), R_MAX * math.sin(phi)
        lines.append(
            f'<line x1="{c + x0 * scale:.2f}" y1="{c - y0 * scale:.2f}" '
            f'x2="{c + x1 * scale:.2f}" y2="{c - y1 * scale:.2f}" '
            f'stroke="#cc3333" stroke-width="2"/>'
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
