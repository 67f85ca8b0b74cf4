"""Exact bivariate homogeneous polynomial arithmetic over big rationals.

A degree-d polynomial is stored densely: ``coeffs[j]`` is the coefficient of
``x^(d-j) * y^j``.  Every coefficient is an exact rational in one canonical
form: an ``int`` when it is integral, a ``fractions.Fraction`` only when its
denominator is greater than 1.  The :class:`HomoPoly` constructor alone
decides that form, and it refuses floats, so nothing in this module ever
touches floating point.  ``int`` and ``Fraction`` agree on ``==``, ``hash``,
``str``, ``.numerator`` and ``.denominator``, so readers of ``coeffs`` need
not tell them apart.  Integer forms, the paper's models among them, stay on
Python ints end to end.  :func:`multiply` works on integers: it convolves the
numerators over each factor's common denominator and divides by the product
of the two denominators once, and only when that product is not 1.

Text grammar accepted by :func:`parse`, read after all whitespace is
dropped::

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := [coef] [x-part] [y-part], not empty, with an optional '*'
              between two parts that are both present
    coef   := integer ['/' integer]
    x-part := 'x' ['^' integer]
    y-part := 'y' ['^' integer]

The pattern :data:`_TERM` is this grammar, one signed term per match.

The canonical formatter (``str(p)``) emits terms in descending powers of x,
for example ``x^3 - 3*x*y^2``, and round-trips through :func:`parse`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NotHomogeneousError, PolynomialSyntaxError, excerpt

# Largest degree accepted from user input (parse, CLI families and --n):
# a dense form stores degree + 1 coefficients, so text like x^100000000
# would otherwise allocate that many before any check runs.
MAX_DEGREE = 1024

# One signed term of the grammar above.  Only '?' applies to a group, so no
# repetition nests and a match takes time linear in its length.  A '*' is
# matched only where another part of the same term follows it.
_TERM = re.compile(
    r"""(?P<sign>[+-]?)
        (?P<body>
          (?: (?P<num>\d+) (?: / (?P<den>\d+) )? (?: \* (?=[xy]) )? )?
          (?: (?P<x>x) (?: \^ (?P<xe>\d+) )? (?: \* (?=y) )? )?
          (?: (?P<y>y) (?: \^ (?P<ye>\d+) )? )?
        )""",
    re.VERBOSE,
)


def _exact(c) -> int | Fraction:
    """The canonical form of one coefficient: an int when it is integral."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise DomainError(f"coefficient {c!r} is not an int or a Fraction")


@dataclass(frozen=True)
class HomoPoly:
    """Homogeneous polynomial in x, y with exact rational coefficients.

    ``coeffs`` holds ints and Fractions in canonical form: a coefficient is
    an ``int`` exactly when it is integral, so ``Fraction(3)`` is stored as
    ``3``.  Any other type, float included, raises DomainError.

    The zero polynomial keeps a degree tag so that degree-checked addition
    stays total; equality and hashing ignore the tag on zero.
    """

    degree: int
    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise DomainError(f"degree must be nonnegative, got {self.degree}")
        if len(self.coeffs) != self.degree + 1:
            raise DomainError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )
        # A tuple of plain ints is already canonical and is kept as it is.
        # Tuples here are built from lists, never from generators: CPython
        # resizes a tuple built from a generator, and when such a tuple is
        # freed it joins the free list of its size without one being taken
        # from it, so those free lists (and the peak RSS) grow with every
        # call until they are full.
        coeffs = self.coeffs
        if type(coeffs) is not tuple or set(map(type, coeffs)) != {int}:
            object.__setattr__(self, "coeffs", tuple([_exact(c) for c in coeffs]))

    @classmethod
    def zero(cls, degree: int = 0) -> "HomoPoly":
        return cls(degree, (0,) * (degree + 1))

    @classmethod
    def constant(cls, value) -> "HomoPoly":
        return cls(0, (value,))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomoPoly):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self.is_zero:
            return hash(("HomoPoly", "zero"))
        return hash(("HomoPoly", self.degree, self.coeffs))

    def __add__(self, other: "HomoPoly") -> "HomoPoly":
        if not isinstance(other, HomoPoly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise DomainError(
                f"cannot add homogeneous polynomials of degrees "
                f"{self.degree} and {other.degree}"
            )
        return HomoPoly(
            self.degree,
            tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]),
        )

    def __neg__(self) -> "HomoPoly":
        return HomoPoly(self.degree, tuple([-c for c in self.coeffs]))

    def __sub__(self, other: "HomoPoly") -> "HomoPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HomoPoly):
            return multiply(self, other)
        if isinstance(other, (int, Fraction)):
            return HomoPoly(self.degree, tuple([c * other for c in self.coeffs]))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "HomoPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("exponent must be a nonnegative integer")
        result = HomoPoly.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, x, y):
        """Exact Horner-style evaluation; mixed float input yields floats."""
        acc = self.coeffs[0]
        ypow = 1
        for j in range(1, self.degree + 1):
            ypow = ypow * y
            acc = acc * x + self.coeffs[j] * ypow
        return acc

    __call__ = evaluate

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"HomoPoly({self.degree}, {format_poly(self)!r})"


def partial(p: HomoPoly, var: str) -> HomoPoly:
    """Partial derivative along ``'x'`` or ``'y'``; degree drops by one."""
    if var not in ("x", "y"):
        raise DomainError(f"axis selector must be 'x' or 'y', got {var!r}")
    d = p.degree
    if d == 0:
        return HomoPoly.zero(0)
    if var == "x":
        coeffs = tuple([p.coeffs[j] * (d - j) for j in range(d)])
    else:
        coeffs = tuple([p.coeffs[j + 1] * (j + 1) for j in range(d)])
    return HomoPoly(d - 1, coeffs)


def _numerators(coeffs) -> tuple[list[int], int]:
    """(n, den): coeffs[j] == n[j] / den with den the lcm of denominators."""
    if set(map(type, coeffs)) == {int}:
        return list(coeffs), 1
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer coefficient vectors; zero terms are skipped."""
    terms = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def multiply(p: HomoPoly, q: HomoPoly) -> HomoPoly:
    """Exact convolution product; degrees add (also for tagged zeros)."""
    a, da = _numerators(p.coeffs)
    b, db = _numerators(q.coeffs)
    den = da * db
    out = _convolve(a, b)
    if den != 1:
        out = [Fraction(c, den) for c in out]
    return HomoPoly(len(out) - 1, tuple(out))


def swap_xy(p: HomoPoly) -> HomoPoly:
    """The polynomial p(y, x); reverses the coefficient vector."""
    return HomoPoly(p.degree, tuple(reversed(p.coeffs)))


def saddle_family(m: int) -> HomoPoly:
    """The degree-m generalized saddle: the real part of (x + i y)^m.

    Expanded as the alternating binomial sum over even powers of y.  The
    m = 3 member is the monkey saddle x^3 - 3*x*y^2.
    """
    if m < 2:
        raise DomainError(f"saddle family needs m >= 2, got {m}")
    coeffs = [0] * (m + 1)
    for j in range(m // 2 + 1):
        coeffs[2 * j] = (-1) ** j * math.comb(m, 2 * j)
    return HomoPoly(m, tuple(coeffs))


def radial_family(k: int) -> HomoPoly:
    """The radial power (x^2 + y^2)^k; k = 0 gives the constant 1."""
    if k < 0:
        raise DomainError(f"radial family needs k >= 0, got {k}")
    coeffs = [0] * (2 * k + 1)
    for j in range(k + 1):
        coeffs[2 * j] = math.comb(k, j)
    return HomoPoly(2 * k, tuple(coeffs))


def product_family(m: int, k: int) -> HomoPoly:
    """saddle_family(m) * radial_family(k), the degree m + 2k product."""
    return multiply(saddle_family(m), radial_family(k))


def complex_power_parts(n: int) -> tuple[HomoPoly, HomoPoly]:
    """(Re, Im) of (x + i y)^n, built by repeated exact multiplication."""
    if n < 0:
        raise DomainError("exponent must be nonnegative")
    re = HomoPoly.constant(1)
    im = HomoPoly.zero(0)
    x = HomoPoly(1, (1, 0))
    y = HomoPoly(1, (0, 1))
    for _ in range(n):
        re, im = re * x - im * y, re * y + im * x
    return re, im


def parse(text: str) -> HomoPoly:
    """Parse polynomial text; rejects non-homogeneous input.

    Reads one :data:`_TERM` match per signed term of the text with its
    whitespace dropped; positions in messages index that text.  Raises
    PolynomialSyntaxError on bad tokens, then NotHomogeneousError naming
    two term degrees that differ, then DomainError on a degree above
    MAX_DEGREE.
    """
    s = "".join(text.split())
    if not s:
        raise PolynomialSyntaxError("empty input")
    terms: list[tuple[int | Fraction, int, int]] = []
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        pos = m.end()
        if pos < len(s) and s[pos] not in "+-":
            raise PolynomialSyntaxError(
                f"unexpected character {s[pos]!r} at position {pos} in {excerpt(s)}"
            )
        if not m["body"]:
            raise PolynomialSyntaxError(f"empty term at position {pos} in {excerpt(s)}")
        literals = m.group("num", "den", "xe", "ye")
        try:
            num, den, a, b = [int(g or 1) for g in literals]
        except ValueError:  # over the interpreter's int-string digit limit
            digits = max(len(g or "") for g in literals)
            raise PolynomialSyntaxError(
                f"integer literal of {digits} digits is too long"
            ) from None
        if den == 0:
            raise PolynomialSyntaxError(f"zero denominator in term {excerpt(m['body'])}")
        coef = num if den == 1 else Fraction(num, den)
        a, b = (a if m["x"] else 0), (b if m["y"] else 0)
        terms.append((-coef if m["sign"] == "-" else coef, a, b))

    degree = terms[0][1] + terms[0][2]
    for _, a, b in terms:
        if a + b != degree:
            raise NotHomogeneousError(degree, a + b)
    if degree > MAX_DEGREE:
        raise DomainError(f"degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}")
    coeffs = [0] * (degree + 1)
    for coef, _, b in terms:
        coeffs[b] += coef
    return HomoPoly(degree, tuple(coeffs))


def format_poly(p: HomoPoly) -> str:
    """Canonical text form, descending powers of x."""
    if p.is_zero:
        return "0"
    d = p.degree
    parts: list[tuple[bool, str]] = []
    for j, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mono = []
        if d - j > 0:
            mono.append("x" if d - j == 1 else f"x^{d - j}")
        if j > 0:
            mono.append("y" if j == 1 else f"y^{j}")
        mag = abs(c)
        if mono and mag == 1:
            body = "*".join(mono)
        elif mono:
            body = "*".join([str(mag)] + mono)
        else:
            body = str(mag)
        parts.append((c < 0, body))
    first_neg, first_body = parts[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out
