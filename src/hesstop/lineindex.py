"""Numerical index at the origin of the asymptotic line field of a
hyperbolic quadratic differential form.

Lines live in RP^1, so a line angle theta is only defined mod pi.  Tracking
the doubled angle 2*theta turns the field along the unit circle into a
circle-valued map whose winding is twice the index; this is the only clean
way to land on half-integer indexes without choosing a global orientation
that may not exist.  This module is the toolkit's single deliberate use of
floating point: the index is a discrete invariant, so the numerics only
need to land in the right half-integer basin, and the residual of the
rounding is recorded and gated.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbiguousBranch, DomainError, NotHyperbolicHere, RefinementLimit
from .quadform import QuadForm

_MAX_DEPTH = 20
_AMBIGUITY_TOL = 1e-9


def _float_coeffs(w: QuadForm):
    """Per-coefficient float vectors for fast repeated evaluation."""
    d = w.degree

    def vec(p):
        if p.is_zero:
            return [0.0] * (d + 1)
        return [float(c) for c in p.coeffs]

    return d, vec(w.a), vec(w.b), vec(w.c)


def _eval_vec(coeffs, x: float, y: float) -> float:
    acc = coeffs[0]
    ypow = 1.0
    for j in range(1, len(coeffs)):
        ypow *= y
        acc = acc * x + coeffs[j] * ypow
    return acc


def asymptotic_directions(w: QuadForm, x: float, y: float) -> tuple[float, float]:
    """The two solution lines of A dx^2 + 2B dxdy + C dy^2 = 0 at (x, y),
    as angles in [0, pi), sorted.

    Uses the cancellation-free quadratic branch: with s = sign(B) and
    q = B + s*sqrt(B^2 - AC), the lines are (-q, A) and (-C, q) in
    homogeneous direction coordinates, which stays stable when A or C is
    small.  Raises NotHyperbolicHere when the discriminant is not positive.
    """
    A = float(w.a.evaluate(x, y))
    B = float(w.b.evaluate(x, y))
    C = float(w.c.evaluate(x, y))
    return _directions_from_values(A, B, C, x, y)


def _directions_from_values(
    A: float, B: float, C: float, x: float, y: float
) -> tuple[float, float]:
    disc = B * B - A * C
    if disc <= 0.0:
        raise NotHyperbolicHere(
            f"discriminant {disc:.3e} is not positive at ({x:.6g}, {y:.6g})"
        )
    root = math.sqrt(disc)
    q = B + root if B >= 0.0 else B - root
    t1 = math.atan2(A, -q) % math.pi
    t2 = math.atan2(q, -C) % math.pi
    return (t1, t2) if t1 <= t2 else (t2, t1)


def line_distance(t1: float, t2: float) -> float:
    """RP^1 distance: the angle between two lines, in [0, pi/2]."""
    return abs(math.remainder(t1 - t2, math.pi))


def branch_continuation(prev: float, pair: tuple[float, float]) -> float:
    """The candidate line closer to ``prev`` in the mod-pi metric.

    Raises AmbiguousBranch when the two candidates are equidistant within
    1e-9, which signals a near-parabolic degeneracy and triggers bisection
    upstream.
    """
    d0 = line_distance(pair[0], prev)
    d1 = line_distance(pair[1], prev)
    if abs(d0 - d1) < _AMBIGUITY_TOL:
        raise AmbiguousBranch(
            f"candidates {pair[0]:.9f} and {pair[1]:.9f} are equidistant from {prev:.9f}"
        )
    return pair[0] if d0 < d1 else pair[1]


@dataclass(frozen=True)
class HalfIndex:
    """Index value numerator/2 plus the distance of the raw winding to it."""

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
    """Sampled branch along the circle: (angle phi, line angle theta mod pi)
    pairs plus the cumulative doubled-angle track."""

    samples: list[tuple[float, float]]
    unwrapped: list[float]
    refinement_depth: int

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["phi", "line_angle", "doubled_angle_unwrapped"])
            for (phi, theta), psi in zip(self.samples, self.unwrapped):
                writer.writerow([f"{phi:.12g}", f"{theta:.12g}", f"{psi:.12g}"])


def index_at_origin(
    w: QuadForm,
    n_initial: int = 1024,
    branch: int = 0,
    radius: float = 1.0,
) -> tuple[HalfIndex, DirectionTrace]:
    """Index of one asymptotic branch of ``w`` at the origin.

    Samples a continuously-chosen branch along the circle of the given
    radius (homogeneity makes any radius valid), unwraps the doubled angle,
    and returns the total change divided by 4*pi rounded to the nearest
    half-integer.  Steps whose doubled-angle jump exceeds pi/2, or whose
    selected line moved more than a quarter of the local branch separation,
    are bisected adaptively up to depth 20.

    Like any sampled continuation this has a Nyquist limit: a step that
    jumps at least three quarters of the branch separation can silently
    select the wrong branch, so n_initial should comfortably exceed eight
    times the coefficient degree.  Float cancellation in the large binomial
    coefficients sets a lower limit than sampling does: saddle_family(m)
    certifies up to m = 111 (coefficient degree 109) and raises
    RefinementLimit for every m from 112 on.
    """
    if n_initial < 64:
        raise DomainError(f"n_initial must be at least 64, got {n_initial}")
    if branch not in (0, 1):
        raise DomainError("branch selector must be 0 or 1")
    d, va, vb, vc = _float_coeffs(w)

    def pair_at(phi: float) -> tuple[float, float]:
        x = radius * math.cos(phi)
        y = radius * math.sin(phi)
        return _directions_from_values(
            _eval_vec(va, x, y), _eval_vec(vb, x, y), _eval_vec(vc, x, y), x, y
        )

    theta = pair_at(0.0)[branch]
    samples = [(0.0, theta)]
    unwrapped = [0.0]
    psi = 0.0
    max_depth = 0
    phi_prev = 0.0
    two_pi = 2.0 * math.pi
    pending: deque[tuple[float, int]] = deque(
        (two_pi * i / n_initial, 0) for i in range(1, n_initial + 1)
    )
    while pending:
        phi, depth = pending.popleft()
        max_depth = max(max_depth, depth)

        def refine() -> None:
            if depth >= _MAX_DEPTH:
                raise RefinementLimit(
                    f"bisection depth {_MAX_DEPTH} reached near phi={phi:.6f}"
                )
            pending.appendleft((phi, depth + 1))
            pending.appendleft(((phi_prev + phi) / 2.0, depth + 1))

        pair = pair_at(phi)
        try:
            cand = branch_continuation(theta, pair)
        except AmbiguousBranch:
            refine()
            continue
        # nearest-candidate continuation is only trustworthy when the step
        # stays well inside half the branch separation; a jump past that
        # midpoint would silently select the wrong branch with a small
        # measured distance, so the acceptance margin is separation / 4
        separation = line_distance(pair[0], pair[1])
        dpsi = 2.0 * math.remainder(cand - theta, math.pi)
        if abs(dpsi) > math.pi / 2.0 or line_distance(cand, theta) > separation / 4.0:
            refine()
            continue
        psi += dpsi
        theta = cand
        phi_prev = phi
        samples.append((phi, cand))
        unwrapped.append(psi)

    raw = psi / (2.0 * two_pi)
    numerator = round(2.0 * raw)
    residual = abs(raw - numerator / 2.0)
    return HalfIndex(numerator, residual), DirectionTrace(samples, unwrapped, max_depth)
