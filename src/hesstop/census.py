"""The degree census: one hyperbolic representative per realizable
origin index, giving the connected-component lower bound floor((n-1)/2)
for the space of hyperbolic homogeneous polynomials of degree n.

For degree n the rows are the pure saddle (k = 0, m = n) together with
every product saddle_family(m) * radial_family(k) with k >= 1,
m = n - 2k > max(2, k).  Each row's asymptotic line field has origin index
(2 - m)/2; the indexes are pairwise distinct, so the rows land in pairwise
distinct connected components.  certify_row proves every row in one way,
from one exact conversion of f = product_family(m, k) to its Fourier data
(lineindex.hyperbolic_index): f is hyperbolic, from a dominant constant
Fourier term of disc II_f, which decides every row as :class:`CensusRow`
derives, and the origin index of II_f is exactly (2 - m)/2, read with no
floating point from one dominant Fourier term of the line field in the
same data, which decides every row up to n = 120 without a Sturm chain.
Neither proof multiplies out II_f, so no row builds it.  No isotopy is
needed, since distinct indexes already put the rows in distinct
components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PreconditionFailed
from .lineindex import hyperbolic_index
from .polyalg import product_family


@dataclass(frozen=True)
class CensusRow:
    """One census row: f = product_family(m, k) = P_m (x^2 + y^2)^k of
    degree n = m + 2k, its origin index (2 - m)/2 and the bound of degree n.

    f is hyperbolic exactly when n < m^2.  On the unit circle, z = e^(i phi),
    disc II_f = 4 (|f_zz|^2 - f_zzbar^2).  With a = (m + k)(m + k - 1),
    b = k(k - 1) and c = k(m + k), f_zz = (a z^(m-2) + b z^(-m-2))/2 and
    f_zzbar = c cos(m phi), so
    |f_zz|^2 - f_zzbar^2 = (a^2 + b^2)/4 - c^2/2 + (ab - c^2) cos(2m phi)/2
    is linear in cos(2m phi).  At cos = -1 it is (a - b)^2/4 > 0, and at
    cos = +1 it is ((a + b)/2)^2 - c^2, positive exactly when a + b > 2c;
    a + b - 2c = m^2 - n.  The smaller end value is the constant term less
    the other two, so the dominant-constant test of classify.is_hyperbolic
    decides f exactly when n < m^2.  The guard m > max(2, k) keeps every
    row there: n < 3m <= m^2.
    """

    n: int
    k: int
    m: int
    index: Fraction
    lower_bound: int

    def __post_init__(self) -> None:
        if 2 * self.k + self.m != self.n:
            raise DomainError(f"2k + m must equal n: {self}")
        if self.k == 0 and self.m != self.n:
            raise DomainError(f"k = 0 forces m = n: {self}")
        if self.k >= 1 and self.m <= max(2, self.k):
            raise DomainError(f"k >= 1 needs m > max(2, k): {self}")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "index": str(self.index),
            "lower_bound": self.lower_bound,
        }


def _admissible_pairs(n: int) -> list[tuple[int, int]]:
    pairs = []
    k = 1
    while True:
        m = n - 2 * k
        if m <= max(2, k):
            break
        pairs.append((k, m))
        k += 1
    return pairs


def lower_bound(n: int) -> int:
    """The certified component bound for degree n: one component per census
    row.

    Equals floor((n - 1) / 2) for degrees 3 through 8 (and 10).  For some
    larger degrees the product family cannot reach that formula: at n = 9
    the top pair (k, m) = (3, 3) has n = m^2 = 9, which sits on the
    boundary of the hyperbolic products n < m^2 (derived in
    :class:`CensusRow`: disc II_f is linear in cos(2m phi) on the circle
    and vanishes at cos = +1 when n = m^2), so its product has parabolic
    rays and no sound admissibility rule can include it.  The bound
    reported here is the one the enumerated rows actually certify.
    """
    if n < 3:
        raise DomainError(f"census needs degree n >= 3, got {n}")
    return 1 + len(_admissible_pairs(n))


def enumerate_rows(n: int) -> list[CensusRow]:
    """All census rows for degree n >= 3, in ascending k."""
    bound = lower_bound(n)
    rows = [CensusRow(n, 0, n, Fraction(2 - n, 2), bound)]
    for k, m in _admissible_pairs(n):
        rows.append(CensusRow(n, k, m, Fraction(2 - m, 2), bound))
    return rows


def certify_row(row: CensusRow) -> dict:
    """Certify one census row; the bundle is {"row", "product_hyperbolic",
    "index"}, each certificate once.

    Both come from one conversion of f = product_family(m, k) to its
    Fourier data (lineindex.hyperbolic_index).  "product_hyperbolic"
    proves f hyperbolic (for k = 0 that is the saddle itself), and "index"
    is the exact origin index of II_f (from a dominant Fourier term of the
    same data, or a Cauchy index chain on II_f where none dominates; its
    ``method`` says which), which must equal the theoretical
    (2 - m)/2.  Raises PreconditionFailed naming the failing certificate,
    product_hyperbolic or index_matches.
    """
    hyp_cert, half = hyperbolic_index(product_family(row.m, row.k))
    if half is None:
        raise PreconditionFailed("product_hyperbolic", f"row {row}")
    if half.value != row.index:
        raise PreconditionFailed(
            "index_matches",
            f"measured {half.value}, expected {row.index} for row {row}",
        )
    return {"row": row, "product_hyperbolic": hyp_cert, "index": half}
