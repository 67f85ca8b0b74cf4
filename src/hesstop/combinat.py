"""Big-integer combinatorics behind the bracket closed form.

For even m the expansion of -hessian_pairing(saddle_family(m), radial)
collapses because three alternating binomial double sums each reduce to a
single binomial coefficient.  This module evaluates the raw sums literally,
their closed forms, the vanishing alternating sum that drives the
reduction, and the two recurrent functions whose initial-value argument
proves it.  Everything is exact integer or rational arithmetic.

Convention: C(a, b) = 0 whenever b < 0 or b > a, which makes every sum
total without index guards.  The sums keep that convention by their index
ranges: each loop visits only the terms the convention leaves nonzero, calls
math.comb on in-range arguments, and takes the sign (-1)^k from the parity
of k.  The vanishing sum, whose terms carry a 1/m, is added up on ints as m
times the sum and divided by m once at the end.
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
    n = m - 1
    comb = math.comb
    inner = sum(
        comb(n, 2 * k) * comb(n, 2 * j - 2 * k)
        - comb(n, 2 * k + 1) * comb(n, 2 * j - 2 * k - 1)
        for k in range(j)
    )
    total = comb(n, 2 * j) + inner
    return -total if j % 2 else total


def raw_coeff_middle(m: int) -> int:
    """Literal sum for the middle coefficient.

    (-1)^(m/2) ( 1 - m + sum_{k=0}^{m/2-2} C(m-1,2k+1)
                 [ C(m-1,2k+2) - C(m-1,2k) ] )
    Reduces to C(m-1, m/2).
    """
    _require_even(m, 2)
    n = m - 1
    comb = math.comb
    inner = sum(
        comb(n, 2 * k + 1) * (comb(n, 2 * k + 2) - comb(n, 2 * k))
        for k in range(m // 2 - 1)
    )
    total = 1 - m + inner
    return -total if (m // 2) % 2 else total


def raw_coeff_tail(m: int, j: int) -> int:
    """Literal double sum for the tail-block coefficient, 1 <= j <= (m-2)/2.

    (-1)^(m/2+j-1) [ -C(m-1,2j-1) + sum_{k=0}^{m/2-j-1}
        ( C(m-1,2k+2j) C(m-1,2k+1) - C(m-1,2k) C(m-1,2k+2j-1) ) ]
    Reduces to C(m-1, j + m/2 - 1).
    """
    _require_even(m, 4)
    if not 1 <= j <= (m - 2) // 2:
        raise DomainError(f"j out of range for m={m}: {j}")
    n = m - 1
    comb = math.comb
    inner = sum(
        comb(n, 2 * k + 2 * j) * comb(n, 2 * k + 1)
        - comb(n, 2 * k) * comb(n, 2 * k + 2 * j - 1)
        for k in range(m // 2 - j)
    )
    total = -comb(n, 2 * j - 1) + inner
    return -total if (m // 2 + j - 1) % 2 else total


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

    Added up on ints as m times the sum, each term being
    (-1)^k C(m,j+k) [ m + (1-2k) C(m,j-k+1) ], and returned as that total
    over m, an exact Fraction.  Terms with k > m-j vanish (C(m,j+k) = 0) and
    are not visited.  The value is 0 for every 0 <= j <= m-1 (empty sum at
    j=0).
    """
    if m < 1 or j < 0 or j > m - 1:
        raise DomainError(f"needs m >= 1 and 0 <= j <= m-1, got m={m}, j={j}")
    comb = math.comb
    total = 0
    for k in range(1, min(j, m - j) + 1):
        term = comb(m, j + k) * (m + (1 - 2 * k) * comb(m, j - k + 1))
        if k & 1:
            total -= term
        else:
            total += term
    return Fraction(total, m)


def weighted_convolution_sum(m: int, j: int) -> int:
    """sum_{k=1}^{j+1} (-1)^(k+1) (2k-1) C(m,k+j) C(m,j-k+1).

    Equals (j+1) C(m, j+1); defined (and zero) at j = -1 as an empty sum.
    Visits k from max(1, j+1-m) to min(j+1, m-j), where both binomials are
    in range.
    """
    comb = math.comb
    total = 0
    for k in range(max(1, j + 1 - m), min(j + 1, m - j) + 1):
        term = (2 * k - 1) * comb(m, k + j) * comb(m, j - k + 1)
        if k & 1:
            total += term
        else:
            total -= term
    return total


def square_convolution_sum(m: int, j: int) -> int:
    """C(m,j)^2 + 2 sum_{k=1}^{j} (-1)^k C(m,j-k) C(m,j+k).

    Equals C(m, j).  Visits k from max(1, j-m) to min(j, m-j), where both
    binomials are in range.
    """
    comb = math.comb
    total = 0
    for k in range(max(1, j - m), min(j, m - j) + 1):
        term = comb(m, j - k) * comb(m, j + k)
        if k & 1:
            total -= term
        else:
            total += term
    return binom(m, j) ** 2 + 2 * total


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
    """(-1)^r C(m-1,r) = sum_{k=0}^{r} (-1)^k C(m,k).

    The sum visits k up to min(r, m), where C(m, k) is in range.
    """
    comb = math.comb
    rhs = 0
    for k in range(min(r, m) + 1):
        if k & 1:
            rhs -= comb(m, k)
        else:
            rhs += comb(m, k)
    lhs = binom(m - 1, r)
    return (-lhs if r % 2 else lhs) == rhs


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
