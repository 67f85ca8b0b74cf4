"""The degree census: one hyperbolic representative per realizable
origin index, giving the connected-component lower bound floor((n-1)/2)
for the space of hyperbolic homogeneous polynomials of degree n.

For degree n the rows are the pure saddle (k = 0, m = n) together with
every product saddle_family(m) * radial_family(k) with k >= 1,
m = n - 2k > max(2, k).  Each row's asymptotic line field has origin index
(2 - m)/2; the indexes are pairwise distinct, so the rows land in pairwise
distinct connected components.  certify_row proves every row in one way:
product_family(m, k) is hyperbolic (classify.is_hyperbolic), and the
origin index of the II_f that verdict signed is exactly (2 - m)/2, read
with no floating point from one dominant Fourier term of the line field
(lineindex.origin_index), which decides every row up to n = 120 without a
Sturm chain.  No isotopy is needed, since distinct indexes already put the
rows in distinct components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import is_hyperbolic
from .errors import DomainError, PreconditionFailed
from .lineindex import origin_index
from .polyalg import product_family


@dataclass(frozen=True)
class CensusRow:
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
    boundary of the hyperbolic products n < m^2, so its product has
    parabolic rays and no sound admissibility rule can include it.  The
    bound reported here is the one the enumerated rows actually certify.
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

    "product_hyperbolic" proves f = product_family(m, k) hyperbolic (for
    k = 0 that is the saddle itself), and "index" is the exact origin
    index of the II_f that proof signed (from a dominant Fourier term, or a
    Cauchy index chain where none dominates; its ``method`` says which),
    which must equal the theoretical (2 - m)/2.  Raises PreconditionFailed
    naming the failing certificate, product_hyperbolic or index_matches.
    """
    hyp_ok, hyp_cert, w = is_hyperbolic(product_family(row.m, row.k))
    if not hyp_ok:
        raise PreconditionFailed("product_hyperbolic", f"row {row}")
    half = origin_index(w)
    if half.value != row.index:
        raise PreconditionFailed(
            "index_matches",
            f"measured {half.value}, expected {row.index} for row {row}",
        )
    return {"row": row, "product_hyperbolic": hyp_cert, "index": half}
