"""Exact bivariate homogeneous polynomial arithmetic over big rationals.

A degree-d polynomial is stored densely: ``coeffs[j]`` is the coefficient of
``x^(d-j) * y^j``.  All arithmetic is exact (``fractions.Fraction``); nothing
in this module ever touches floating point.

Text grammar accepted by :func:`parse` (whitespace insignificant)::

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := [coef] ['*'] [x-part] ['*'] [y-part]
    coef   := integer | integer '/' integer
    x-part := 'x' ['^' integer]
    y-part := 'y' ['^' integer]

The canonical formatter (``str(p)``) emits terms in descending powers of x,
for example ``x^3 - 3*x*y^2``, and round-trips through :func:`parse`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NotHomogeneousError, PolynomialSyntaxError

Rational = Fraction

# Largest degree accepted from user input (parse, CLI families and --n):
# a dense form stores degree + 1 coefficients, so text like x^100000000
# would otherwise allocate that many before any check runs.
MAX_DEGREE = 1024


@dataclass(frozen=True)
class HomoPoly:
    """Homogeneous polynomial in x, y with exact rational coefficients.

    The zero polynomial keeps a degree tag so that degree-checked addition
    stays total; equality and hashing ignore the tag on zero.
    """

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise DomainError(f"degree must be nonnegative, got {self.degree}")
        if len(self.coeffs) != self.degree + 1:
            raise DomainError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )

    @classmethod
    def zero(cls, degree: int = 0) -> "HomoPoly":
        return cls(degree, (Fraction(0),) * (degree + 1))

    @classmethod
    def constant(cls, value) -> "HomoPoly":
        return cls(0, (Fraction(value),))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

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
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "HomoPoly":
        return HomoPoly(self.degree, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "HomoPoly") -> "HomoPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HomoPoly):
            return multiply(self, other)
        if isinstance(other, (int, Fraction)):
            return HomoPoly(self.degree, tuple(c * other for c in self.coeffs))
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
        coeffs = tuple(p.coeffs[j] * (d - j) for j in range(d))
    else:
        coeffs = tuple(p.coeffs[j + 1] * (j + 1) for j in range(d))
    return HomoPoly(d - 1, coeffs)


def multiply(p: HomoPoly, q: HomoPoly) -> HomoPoly:
    """Exact convolution product; degrees add (also for tagged zeros)."""
    d = p.degree + q.degree
    out = [Fraction(0)] * (d + 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            if b != 0:
                out[i + j] += a * b
    return HomoPoly(d, tuple(out))


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
    coeffs = [Fraction(0)] * (m + 1)
    for j in range(m // 2 + 1):
        coeffs[2 * j] = Fraction((-1) ** j * math.comb(m, 2 * j))
    return HomoPoly(m, tuple(coeffs))


def radial_family(k: int) -> HomoPoly:
    """The radial power (x^2 + y^2)^k; k = 0 gives the constant 1."""
    if k < 0:
        raise DomainError(f"radial family needs k >= 0, got {k}")
    coeffs = [Fraction(0)] * (2 * k + 1)
    for j in range(k + 1):
        coeffs[2 * j] = Fraction(math.comb(k, j))
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
    x = HomoPoly(1, (Fraction(1), Fraction(0)))
    y = HomoPoly(1, (Fraction(0), Fraction(1)))
    for _ in range(n):
        re, im = re * x - im * y, re * y + im * x
    return re, im


def _parse_term(term: str) -> tuple[Fraction, int, int]:
    """Parse one unsigned term into (coefficient, x-exponent, y-exponent)."""
    i, n = 0, len(term)
    coef = None

    def read_int(pos: int) -> tuple[int, int]:
        j = pos
        while j < n and term[j].isdigit():
            j += 1
        if j == pos:
            raise PolynomialSyntaxError(
                f"expected digits at position {pos} in term {term!r}"
            )
        return int(term[pos:j]), j

    if i < n and term[i].isdigit():
        num, i = read_int(i)
        if i < n and term[i] == "/":
            den, i = read_int(i + 1)
            if den == 0:
                raise PolynomialSyntaxError(f"zero denominator in term {term!r}")
            coef = Fraction(num, den)
        else:
            coef = Fraction(num)
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
            f"unexpected character {term[i]!r} at position {i} in term {term!r}"
        )
    if coef is None and not seen_x and not seen_y:
        raise PolynomialSyntaxError("empty term")
    if coef is None:
        coef = Fraction(1)
    return coef, xexp, yexp


def parse(text: str) -> HomoPoly:
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
                    f"empty term at position {term_start} in {text!r}"
                )
            pieces.append((sign, chunk))
            if cur < len(s):
                sign = -1 if s[cur] == "-" else 1
                term_start = cur + 1
        cur += 1

    parsed = [(sgn, *_parse_term(chunk)) for sgn, chunk in pieces]
    degree = parsed[0][2] + parsed[0][3]
    for sgn, coef, a, b in parsed:
        if a + b != degree:
            raise NotHomogeneousError(degree, a + b)
    if degree > MAX_DEGREE:
        raise DomainError(f"degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}")
    coeffs = [Fraction(0)] * (degree + 1)
    for sgn, coef, a, b in parsed:
        coeffs[b] += sgn * coef
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
