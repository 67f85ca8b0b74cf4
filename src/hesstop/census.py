"""The degree census: one hyperbolic representative per realizable
origin index, giving the connected-component lower bound floor((n-1)/2)
for the space of hyperbolic homogeneous polynomials of degree n.

For degree n the rows are the pure saddle (k = 0, m = n) together with
every product saddle_family(m) * radial_family(k) with k >= 1,
m = n - 2k > max(2, k).  Each row's asymptotic line field has origin index
(2 - m)/2; the indexes are pairwise distinct, so the rows land in pairwise
distinct connected components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import is_hyperbolic
from .errors import DomainError, PreconditionFailed
from .isotopy import certify_product_isotopy
from .lineindex import index_at_origin
from .polyalg import multiply, radial_family, saddle_family
from .quadform import second_fundamental_form


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
    the top pair (k, m) = (3, 3) sits exactly on the hyperbolicity boundary
    (the polar criterion value is 0), so its product has parabolic rays and
    no sound admissibility rule can include it.  The bound reported here is
    the one the enumerated rows actually certify.
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
    """Run the full certificate bundle for one census row.

    For k = 0 checks hyperbolicity of the saddle; for k >= 1 runs the
    product isotopy once, which certifies the product hyperbolic, the radial
    factor elliptic and the hessian pairing nonpositive, and fills those
    bundle entries from its verdicts.  Finally the numerical origin index
    must equal the theoretical (2 - m)/2.  Raises PreconditionFailed naming
    the first failing certificate.
    """
    p = saddle_family(row.m)
    bundle: dict = {"row": row}

    if row.k >= 1:
        q = radial_family(row.k)
        f = multiply(p, q)
        isotopy = certify_product_isotopy(p, q)
        bundle["product_hyperbolic"] = isotopy.verdicts["product_hyperbolic"]
        bundle["radial_elliptic"] = isotopy.verdicts["q_elliptic"]
        bundle["pairing_nonpositive"] = isotopy.verdicts["pairing_nonpositive"]
        bundle["isotopy"] = isotopy
    else:
        f = p
        hyp_ok, hyp_cert = is_hyperbolic(f)
        bundle["product_hyperbolic"] = hyp_cert
        if not hyp_ok:
            raise PreconditionFailed("product_hyperbolic", f"row {row}")

    half, trace = index_at_origin(second_fundamental_form(f))
    bundle["index"] = half
    bundle["samples_used"] = len(trace.samples)
    if half.value != row.index:
        raise PreconditionFailed(
            "index_matches",
            f"measured {half.value}, expected {row.index} for row {row}",
        )
    return bundle
