"""Quadratic differential forms a dx^2 + 2b dxdy + c dy^2 with polynomial
coefficients.

The stored ``b`` is the off-diagonal entry, so the discriminant is literally
``b^2 - a*c`` with no factor bookkeeping.  Everything here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .polyalg import HomoPoly, multiply, partial


@dataclass(frozen=True)
class QuadForm:
    """a dx^2 + 2b dxdy + c dy^2; nonzero coefficients share one degree."""

    a: HomoPoly
    b: HomoPoly
    c: HomoPoly

    def __post_init__(self) -> None:
        degs = {p.degree for p in (self.a, self.b, self.c) if not p.is_zero}
        if len(degs) > 1:
            raise DomainError(
                f"coefficient degrees differ: {sorted(degs)}"
            )

    @property
    def degree(self) -> int:
        """Common degree of the nonzero coefficients (tag of a if all zero)."""
        for p in (self.a, self.b, self.c):
            if not p.is_zero:
                return p.degree
        return self.a.degree

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero and self.c.is_zero

    def __add__(self, other: "QuadForm") -> "QuadForm":
        return QuadForm(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "QuadForm") -> "QuadForm":
        return QuadForm(self.a - other.a, self.b - other.b, self.c - other.c)

    def scale(self, factor) -> "QuadForm":
        """Multiply all three coefficients by a polynomial or a rational."""
        if isinstance(factor, HomoPoly):
            return QuadForm(
                multiply(self.a, factor),
                multiply(self.b, factor),
                multiply(self.c, factor),
            )
        return QuadForm(self.a * factor, self.b * factor, self.c * factor)


def second_fundamental_form(f: HomoPoly) -> QuadForm:
    """(f_xx, f_xy, f_yy) packed as a QuadForm; needs deg f >= 2."""
    if f.degree < 2:
        raise DomainError(f"second fundamental form needs degree >= 2, got {f.degree}")
    fx = partial(f, "x")
    fy = partial(f, "y")
    return QuadForm(partial(fx, "x"), partial(fx, "y"), partial(fy, "y"))


def discriminant(w: QuadForm) -> HomoPoly:
    """b^2 - a*c, exactly."""
    return multiply(w.b, w.b) - multiply(w.a, w.c)


def gradient_forms(p: HomoPoly, q: HomoPoly) -> tuple[QuadForm, HomoPoly, HomoPoly]:
    """(2 dp dq, hessian pairing, Jacobian p_x q_y - p_y q_x) over the four
    products p_x q_x, p_x q_y, p_y q_x, p_y q_y, each computed once.

    2 dp dq has (a, b, c) = (2 p_x q_x, p_x q_y + p_y q_x, 2 p_y q_y) and
    discriminant jac^2; the pairing is p_xx p_y q_y + p_yy p_x q_x - p_xy b.
    """
    if p.degree < 1 or q.degree < 1:
        raise DomainError("gradient forms need both degrees >= 1")
    px, py = partial(p, "x"), partial(p, "y")
    qx, qy = partial(q, "x"), partial(q, "y")
    xx, yy = multiply(px, qx), multiply(py, qy)
    xy, yx = multiply(px, qy), multiply(py, qx)
    b = xy + yx
    pxx, pxy, pyy = partial(px, "x"), partial(px, "y"), partial(py, "y")
    pairing = multiply(pxx, yy) + multiply(pyy, xx) - multiply(pxy, b)
    return QuadForm(2 * xx, b, 2 * yy), pairing, xy - yx


def hessian_pairing(p: HomoPoly, q: HomoPoly) -> HomoPoly:
    """grad(p) . Hess(p) . grad(q)^t, of degree 2 deg p + deg q - 4 when nonzero."""
    if p.degree < 2:
        raise DomainError("first argument needs degree >= 2")
    if q.degree < 1:
        raise DomainError("second argument needs degree >= 1")
    return gradient_forms(p, q)[1]
