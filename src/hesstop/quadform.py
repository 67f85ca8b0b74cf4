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

    def __neg__(self) -> "QuadForm":
        return QuadForm(-self.a, -self.b, -self.c)

    def scale(self, factor) -> "QuadForm":
        """Multiply all three coefficients by a polynomial or a rational."""
        if isinstance(factor, HomoPoly):
            return QuadForm(
                multiply(self.a, factor),
                multiply(self.b, factor),
                multiply(self.c, factor),
            )
        return QuadForm(self.a * factor, self.b * factor, self.c * factor)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadForm):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c

    def __hash__(self) -> int:
        return hash(("QuadForm", self.a, self.b, self.c))


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


def gradient_product_form(p: HomoPoly, q: HomoPoly) -> QuadForm:
    """The symmetric gradient product 2 dp dq as a QuadForm.

    Stored coefficients: a = 2 p_x q_x, b = p_x q_y + p_y q_x, c = 2 p_y q_y.
    Its discriminant is (p_x q_y - p_y q_x)^2.
    """
    if p.degree < 1 or q.degree < 1:
        raise DomainError("gradient product needs both degrees >= 1")
    px, py = partial(p, "x"), partial(p, "y")
    qx, qy = partial(q, "x"), partial(q, "y")
    return QuadForm(
        2 * multiply(px, qx),
        multiply(px, qy) + multiply(py, qx),
        2 * multiply(py, qy),
    )


def hessian_pairing(p: HomoPoly, q: HomoPoly) -> HomoPoly:
    """The contraction grad(p) . Hess(p) . grad(q)^t.

    Expanded: p_xx p_y q_y + p_yy p_x q_x - p_xy (p_x q_y + p_y q_x).
    Degree 2*deg(p) + deg(q) - 4 when nonzero.
    """
    if p.degree < 2:
        raise DomainError("first argument needs degree >= 2")
    if q.degree < 1:
        raise DomainError("second argument needs degree >= 1")
    px, py = partial(p, "x"), partial(p, "y")
    qx, qy = partial(q, "x"), partial(q, "y")
    pxx, pxy, pyy = partial(px, "x"), partial(px, "y"), partial(py, "y")
    return (
        multiply(pxx, multiply(py, qy))
        + multiply(pyy, multiply(px, qx))
        - multiply(pxy, multiply(px, qy) + multiply(py, qx))
    )


def discriminant_expansion_residual(p: HomoPoly, q: HomoPoly) -> HomoPoly:
    """Discriminant of q*II_p + 2 dp dq minus its closed-form expansion.

    The expansion is -q^2 det(Hess p) + (p_x q_y - p_y q_x)^2
    - 2 q * hessian_pairing(p, q).  The residual is identically zero; this
    operation exists so the identity can be certified coefficient by
    coefficient over random inputs.
    """
    if p.degree < 2 or q.degree < 1:
        raise DomainError("needs deg p >= 2 and deg q >= 1")
    form = second_fundamental_form(p).scale(q) + gradient_product_form(p, q)
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
    quadratic in t.

    a0 = w.b^2 - w.a w.c, a1 = 2 w.b d.b - w.a d.c - w.c d.a (the bilinear
    polarization of the discriminant), a2 = d.b^2 - d.a d.c.  Downstream
    isotopy certificates analyse the sign of each coefficient.
    """
    a0 = discriminant(w)
    a1 = (
        2 * multiply(w.b, d.b)
        - multiply(w.a, d.c)
        - multiply(w.c, d.a)
    )
    a2 = discriminant(d)
    return a0, a1, a2
