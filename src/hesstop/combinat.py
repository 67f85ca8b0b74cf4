"""Big-integer combinatorics behind the bracket closed form.

For even m the expansion of -hessian_pairing(saddle_family(m), radial)
collapses because three alternating binomial double sums each reduce to a
single binomial coefficient.  This module evaluates the raw sums literally,
their closed forms, the vanishing alternating sum that drives the
reduction, and the two recurrent functions whose initial-value argument
proves it.  Everything is exact integer or rational arithmetic.

Convention: C(a, b) = 0 whenever b < 0 or b > a, which makes every sum
total without index guards.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .polyalg import radial_family, saddle_family
from .quadform import hessian_pairing


def binom(n: int, k: int) -> int:
    """C(n, k) with the zero-outside-range convention."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def _require_even(m: int, minimum: int) -> None:
    if m < minimum or m % 2 != 0:
        raise DomainError(f"needs even m >= {minimum}, got {m}")


def raw_coeff_head(m: int, j: int) -> int:
    """Literal double sum for the head-block coefficient, 0 <= j <= (m-2)/2.

    (-1)^j [ C(m-1,2j) + sum_{k=0}^{j-1} ( C(m-1,2k) C(m-1,2j-2k)
                                           - C(m-1,2k+1) C(m-1,2j-2k-1) ) ]
    Reduces to C(m-1, j).
    """
    _require_even(m, 2)
    if not 0 <= j <= (m - 2) // 2:
        raise DomainError(f"j out of range for m={m}: {j}")
    inner = sum(
        binom(m - 1, 2 * k) * binom(m - 1, 2 * j - 2 * k)
        - binom(m - 1, 2 * k + 1) * binom(m - 1, 2 * j - 2 * k - 1)
        for k in range(j)
    )
    return (-1) ** j * (binom(m - 1, 2 * j) + inner)


def raw_coeff_middle(m: int) -> int:
    """Literal sum for the middle coefficient.

    (-1)^(m/2) ( 1 - m + sum_{k=0}^{m/2-2} C(m-1,2k+1)
                 [ C(m-1,2k+2) - C(m-1,2k) ] )
    Reduces to C(m-1, m/2).
    """
    _require_even(m, 2)
    inner = sum(
        binom(m - 1, 2 * k + 1) * (binom(m - 1, 2 * k + 2) - binom(m - 1, 2 * k))
        for k in range(m // 2 - 1)
    )
    return (-1) ** (m // 2) * (1 - m + inner)


def raw_coeff_tail(m: int, j: int) -> int:
    """Literal double sum for the tail-block coefficient, 1 <= j <= (m-2)/2.

    (-1)^(m/2+j-1) [ -C(m-1,2j-1) + sum_{k=0}^{m/2-j-1}
        ( C(m-1,2k+2j) C(m-1,2k+1) - C(m-1,2k) C(m-1,2k+2j-1) ) ]
    Reduces to C(m-1, j + m/2 - 1).
    """
    _require_even(m, 4)
    if not 1 <= j <= (m - 2) // 2:
        raise DomainError(f"j out of range for m={m}: {j}")
    inner = sum(
        binom(m - 1, 2 * k + 2 * j) * binom(m - 1, 2 * k + 1)
        - binom(m - 1, 2 * k) * binom(m - 1, 2 * k + 2 * j - 1)
        for k in range(m // 2 - j)
    )
    return (-1) ** (m // 2 + j - 1) * (-binom(m - 1, 2 * j - 1) + inner)


def binomial_reduction_check(m: int) -> bool:
    """All three raw sums equal their single-binomial closed forms."""
    _require_even(m, 4)
    for j in range((m - 2) // 2 + 1):
        if raw_coeff_head(m, j) != binom(m - 1, j):
            return False
    if raw_coeff_middle(m) != binom(m - 1, m // 2):
        return False
    for j in range(1, (m - 2) // 2 + 1):
        if raw_coeff_tail(m, j) != binom(m - 1, j + m // 2 - 1):
            return False
    return True


def vanishing_alternating_sum(m: int, j: int) -> Fraction:
    """sum_{k=1}^{j} (-1)^k C(m,j+k) [ 1 + (1-2k)/m * C(m,j-k+1) ].

    Computed over exact rationals to absorb the 1/m factor; the value is 0
    for every 0 <= j <= m-1 (empty sum at j=0).
    """
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


def weighted_convolution_sum(m: int, j: int) -> int:
    """sum_{k=1}^{j+1} (-1)^(k+1) (2k-1) C(m,k+j) C(m,j-k+1).

    Equals (j+1) C(m, j+1); defined (and zero) at j = -1 as an empty sum.
    """
    return sum(
        (-1) ** (k + 1) * (2 * k - 1) * binom(m, k + j) * binom(m, j - k + 1)
        for k in range(1, j + 2)
    )


def square_convolution_sum(m: int, j: int) -> int:
    """C(m,j)^2 + 2 sum_{k=1}^{j} (-1)^k C(m,j-k) C(m,j+k).

    Equals C(m, j).
    """
    return binom(m, j) ** 2 + 2 * sum(
        (-1) ** k * binom(m, j - k) * binom(m, j + k) for k in range(1, j + 1)
    )


def weighted_sum_recurrence_holds(m: int, j: int) -> bool:
    """T(m,j) = T(m-1,j) + T(m-1,j-1) + F(m-1,j), both sides from raw sums."""
    lhs = weighted_convolution_sum(m, j)
    rhs = (
        weighted_convolution_sum(m - 1, j)
        + weighted_convolution_sum(m - 1, j - 1)
        + square_convolution_sum(m - 1, j)
    )
    return lhs == rhs


def square_sum_recurrence_holds(m: int, j: int) -> bool:
    """F(m,j) = F(m-1,j) + F(m-1,j-1), both sides from raw sums."""
    lhs = square_convolution_sum(m, j)
    rhs = square_convolution_sum(m - 1, j) + square_convolution_sum(m - 1, j - 1)
    return lhs == rhs


def absorption_identity_holds(m: int, k: int) -> bool:
    """(m-k) C(m,k) = m C(m-1,k)."""
    return (m - k) * binom(m, k) == m * binom(m - 1, k)


def alternating_sum_identity_holds(m: int, r: int) -> bool:
    """(-1)^r C(m-1,r) = sum_{k=0}^{r} (-1)^k C(m,k)."""
    return (-1) ** r * binom(m - 1, r) == sum(
        (-1) ** k * binom(m, k) for k in range(r + 1)
    )


def bracket_closed_form_check(m: int, k: int) -> bool:
    """hessian_pairing(saddle_family(m), radial_family(k)) equals
    -2 k m^2 (m-1) (x^2+y^2)^(k+m-2) as an exact polynomial identity.

    Exercises both parities of m; the combinatorial reductions above are
    only stated for even m, so this symbolic route is what covers odd m.
    """
    if m < 2 or k < 1:
        raise DomainError(f"needs m >= 2 and k >= 1, got m={m}, k={k}")
    lhs = hessian_pairing(saddle_family(m), radial_family(k))
    rhs = (-2 * k * m * m * (m - 1)) * radial_family(k + m - 2)
    return (lhs - rhs).is_zero
