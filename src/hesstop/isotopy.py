"""Certified hyperbolic isotopies between quadratic differential forms.

Two linear paths are certified.  The gradient-term path joins q*II_p to
q*II_p + 2 dp dq; its discriminant, as a quadratic in t, has all three
coefficients nonnegative with the constant one strictly positive.  The
affine path joins a form w to w + delta when delta is nowhere hyperbolic;
there positivity on t in [0, 1] follows from positivity at both endpoints
plus concavity (the t^2 coefficient is nonpositive).

The three hyperbolicity hypotheses are proved where every other command
proves them, from the Fourier data of one form each: p hyperbolic and pq
hyperbolic by ``lineindex.hyperbolic_index``, which reads the exact origin
index of II_p and II_{pq} in the same pass, and q elliptic as the NEGATIVE
verdict of ``classify.is_hyperbolic``, the II_q of which the isotopy
takes.  Two more signs are proved by one kernel call each: q positive by
sign_on_punctured_plane and the hessian pairing nonpositive by
certify_nonnegative of its negative.  Every other sign is read from an
exact polynomial identity that writes the coefficient as a product of
proved signs and squares: a0 = q^2 disc II_p, a1 = -2q * pairing and
a2 = (p_x q_y - p_y q_x)^2 on the gradient-term path; on the affine path
the start is a0 + a1 + a2, the t^2 coefficient is p^2 disc II_q and the
end is disc II_{pq}.  These right-hand sides are the certificate's
t-coefficients.  The path discriminants on the left are never multiplied
out, and neither is delta = p*II_q: each identity, and the split
II_{pq} = q*II_p + 2 dp dq + p*II_q, is checked at run time on the same
objects the proofs read, exactly, by integer evaluation at one xi = 2^k
per leg (:func:`_check_identities`).  It holds for every input, so a
failure is an internal error.

The isotopy builds each of its forms once: II_p, II_{pq}, the four
products p_x q_x, p_x q_y, p_y q_x, p_y q_y and over them 2 dp dq, the
hessian pairing and the Jacobian (quadform.gradient_forms), q*II_p and the
discriminants of II_p, II_q and II_{pq}.  A verdict that has to sign
disc II_f with the kernel, or an index that needs the Cauchy chain, builds
its own II_f inside ``classify`` or ``lineindex``; the Fourier tests
decide every saddle and census pair without one.

Certificates are data, not booleans: every proved hypothesis is carried as
the exact SignCertificate or NonnegativityCertificate that proved it, and
``index`` carries the exact origin index of the first form in ``joins``,
so the CLI can emit an auditable trail with no second index reader.  A
failing hypothesis raises PreconditionFailed with its name, so every
returned certificate holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classify import (
    SignCertificate,
    Verdict,
    _at_power_of_two,
    certify_nonnegative,
    is_hyperbolic,
    sign_on_punctured_plane,
)
from .errors import PreconditionFailed
from .lineindex import HalfIndex, hyperbolic_index
from .polyalg import HomoPoly, _numerators, format_poly, multiply
from .quadform import QuadForm, discriminant, gradient_forms, second_fundamental_form

GRADIENT_TERM_PATH = "gradient-term-path"
AFFINE_PATH = "affine-path"
PRODUCT_COMPOSITE = "product-composite"


@dataclass(frozen=True)
class IsotopyCertificate:
    """Evidence that a one-parameter family of forms stays hyperbolic for
    t in [0, 1].

    ``t_coefficients`` are (a0, a1, a2) of the path discriminant as a
    quadratic in t; ``branch`` names the sufficient condition that closed
    the argument; ``verdicts`` maps each proved hypothesis to its exact
    certificate; ``joins`` are the two forms whose line fields it connects,
    and ``index`` is the exact origin index of the first, read in the proof
    that it is hyperbolic.
    """

    kind: str
    t_coefficients: tuple[HomoPoly, HomoPoly, HomoPoly]
    branch: str
    verdicts: dict
    conclusion: str
    joins: tuple[QuadForm, QuadForm]
    index: HalfIndex

    def to_json(self) -> dict:
        a0, a1, a2 = self.t_coefficients
        return {
            "kind": self.kind,
            "branch": self.branch,
            "coefficients": {
                "a0": format_poly(a0),
                "a1": format_poly(a1),
                "a2": format_poly(a2),
            },
            "hypotheses": [
                {"name": name, **v.to_json()} for name, v in self.verdicts.items()
            ],
            "conclusion": self.conclusion,
        }


def _require(name: str, holds: bool, detail: str) -> None:
    if not holds:
        raise PreconditionFailed(name, detail)


# A side of an identity is a list of terms (c, f_1, ..., f_r): the int c
# times the product of the forms f_i, which is never multiplied out.


def _check_identities(identities: list[tuple[str, list, list]]) -> None:
    """Refuse by name the first identity (name, lhs, rhs) whose sides do
    not sum to equal forms, all decided exactly at one xi = 2^k.

    A form is read as its numerator vector u at (x, y) = (1, t), over its
    denominator.  Each identity becomes D = lhs - rhs times the least
    common denominator of its terms, an int polynomial in t whose
    coefficients are bounded by |uv|_inf <= |u|_1 |v|_inf: a term by |c|
    times the l1 norms of its factors but the last, times the last one's
    largest |entry|.  The sides are homogeneous of one degree (terms with a
    zero factor dropped), else they are not equal forms even where they
    agree at every (1, t), and the identity is refused.  k is the bit
    length of the largest bound, so every coefficient of every D lies below
    xi.  A nonzero such D does not vanish at xi: its lowest nonzero
    coefficient c_i has 0 < |c_i| < xi, and D(xi) = xi^i (c_i + xi m) for an
    integer m.  So D(xi) == 0 proves D == 0, with every product of the
    sides left unexpanded; each form is evaluated once.
    """
    rows: dict[int, list] = {}  # id of a form: [u, denominator, l1, largest]
    checks, top = [], 0
    for name, lhs, rhs in identities:
        terms, degrees = [], set()
        for sign, side in ((1, lhs), (-1, rhs)):
            for c, *forms in side:
                factors = []
                for f in forms:
                    row = rows.get(id(f))
                    if row is None:
                        u, den = _numerators(f.coeffs)
                        sizes = list(map(abs, u))
                        row = rows[id(f)] = [u, den, sum(sizes), max(sizes)]
                    factors.append(row)
                if all([row[3] for row in factors]):
                    degrees.add(sum([f.degree for f in forms]))
                    terms.append((sign * c, math.prod([row[1] for row in factors]), factors))
        common = math.lcm(*[den for _, den, _ in terms])
        terms = [(c * (common // den), factors) for c, den, factors in terms]
        checks.append((name, terms, len(degrees) < 2))
        bound = sum(abs(c) * math.prod([row[2] for row in factors[:-1]], start=factors[-1][3])
                    for c, factors in terms)
        top = max(top, bound)
    k = top.bit_length()
    for row in rows.values():
        row.append(_at_power_of_two(row[0], k))
    for name, terms, homogeneous in checks:
        holds = homogeneous and not sum(
            math.prod([row[4] for row in factors], start=c) for c, factors in terms
        )
        _require(name, holds, "an exact identity did not hold (internal error)")


def _path_discriminant(w, d) -> tuple[list, list, list]:
    """The coefficients (a0, a1, a2) of disc(w + t d) as a quadratic in t,
    as sides: a0 = w_b^2 - w_a w_c, a1 = 2 w_b d_b - w_a d_c - w_c d_a (the
    bilinear polarization of the discriminant) and a2 = d_b^2 - d_a d_c.
    w and d are given entrywise, (a, b, c), each entry a tuple of forms
    whose product it is."""
    (wa, wb, wc), (da, db, dc) = w, d
    return (
        [(1, *wb, *wb), (-1, *wa, *wc)],
        [(2, *wb, *db), (-1, *wa, *dc), (-1, *wc, *da)],
        [(1, *db, *db), (-1, *da, *dc)],
    )


def _entries(w: QuadForm) -> tuple:
    return (w.a,), (w.b,), (w.c,)


def _prove_hyperbolic(name: str, f: HomoPoly, detail: str) -> tuple[SignCertificate, HalfIndex]:
    cert, half = hyperbolic_index(f)
    _require(name, half is not None, detail)
    return cert, half


def certify_gradient_term_path(p: HomoPoly, q: HomoPoly) -> IsotopyCertificate:
    """Certify that q*II_p + 2t dp dq is hyperbolic off the origin for all
    t in [0, 1]; the certificate joins II_p and q*II_p + 2 dp dq, and
    carries the index of II_p.

    Proved, in this order: p hyperbolic, with its index
    (``lineindex.hyperbolic_index``), q positive on the punctured plane,
    and hessian_pairing(p, q) <= 0 everywhere.  Read from identities: a0 =
    q^2 (disc II_p) is strictly positive, a1 = -2 q hessian_pairing(p, q)
    is nonnegative and a2 = (p_x q_y - p_y q_x)^2 is a square.
    """
    p_hyp, p_index = _prove_hyperbolic("p_hyperbolic", p, "first argument is not hyperbolic")
    q_pos = sign_on_punctured_plane(q)
    _require("q_positive", q_pos.verdict is Verdict.POSITIVE,
             "second argument is not positive on the punctured plane")
    dpdq, pairing, jac = gradient_forms(p, q)
    pairing_cert = certify_nonnegative(-pairing)
    _require("pairing_nonpositive", pairing_cert.nonnegative, "hessian pairing is positive")

    ii_p = second_fundamental_form(p)
    q_ii_p = ii_p.scale(q)
    a0 = multiply(multiply(q, q), discriminant(ii_p))
    a1 = -2 * multiply(q, pairing)
    a2 = multiply(jac, jac)
    path = _path_discriminant(_entries(q_ii_p), _entries(dpdq))
    names = ("a0_identity", "a1_identity", "a2_identity")
    _check_identities([
        (name, side, [(1, rhs)]) for name, side, rhs in zip(names, path, (a0, a1, a2))
    ])
    return IsotopyCertificate(
        kind=GRADIENT_TERM_PATH,
        t_coefficients=(a0, a1, a2),
        branch="all-t-coefficients-nonnegative",
        verdicts={
            "p_hyperbolic": p_hyp,
            "q_positive": q_pos,
            "pairing_nonpositive": pairing_cert,
        },
        conclusion="q*II_p + 2t dp dq is hyperbolic off the origin for t in [0,1]",
        joins=(ii_p, q_ii_p + dpdq),
        index=p_index,
    )


def certify_product_isotopy(p: HomoPoly, q: HomoPoly) -> IsotopyCertificate:
    """Certify that II_{pq} and II_p, the forms in ``joins``, are joined by
    hyperbolic isotopies.

    Five hypotheses are proved, each once, in this order: q elliptic
    (``classify.is_hyperbolic``); then the gradient-term leg, which proves
    p hyperbolic, q positive off the origin and the hessian pairing
    nonpositive; then pq hyperbolic (``lineindex.hyperbolic_index``).  The
    first failing hypothesis is named by the PreconditionFailed raised.
    The certificate carries the index of II_{pq} and its gradient leg that
    of II_p, both exact.

    The affine leg deforms II_{pq} to w = q*II_p + 2 dp dq, the gradient
    leg's end form, using the exact split II_{pq} = p*II_q + q*II_p +
    2 dp dq with delta = p*II_q.  Its signs are read from identities: the
    start is the gradient-term leg at t = 1, a0 + a1 + a2 > 0; the t^2
    coefficient is p^2 disc II_q <= 0 as q is elliptic; the end is
    disc II_{pq} > 0 as pq is hyperbolic.  A concave quadratic in t
    positive at both ends stays positive between.  The gradient-term leg
    then removes the 2 dp dq summand.  Finally q*II_p has the same null
    directions as II_p because q is positive.
    """
    _, q_ell, ii_q = is_hyperbolic(q)
    _require("q_elliptic", q_ell.verdict is Verdict.NEGATIVE, "second factor is not elliptic")
    gradient_leg = certify_gradient_term_path(p, q)
    ii_p, omega = gradient_leg.joins
    pq = multiply(p, q)
    pq_hyp, pq_index = _prove_hyperbolic("product_hyperbolic", pq, "the product is not hyperbolic")
    ii_f = second_fundamental_form(pq)
    disc_q, disc_f = discriminant(ii_q), discriminant(ii_f)

    # delta = p*II_q, entrywise, left unexpanded
    delta = tuple((p, e) for (e,) in _entries(ii_q))
    g0, g1, g2 = gradient_leg.t_coefficients
    a0 = g0 + g1 + g2
    a2 = multiply(multiply(p, p), disc_q)
    a1 = disc_f - a0 - a2
    path = _path_discriminant(_entries(omega), delta)
    _check_identities([
        *[("product_form_split", [(1, f)], [(1, o), (1, *d)])
          for (f,), (o,), d in zip(_entries(ii_f), _entries(omega), delta)],
        ("affine_a0_identity", path[0], [(1, a0)]),
        ("affine_a2_identity", path[2], [(1, a2)]),
        # with the two above, a0 + a1 + a2 = disc II_{pq}
        ("affine_end_identity", path[1], [(1, a1)]),
    ])

    leg = gradient_leg.verdicts
    verdicts = {
        "p_hyperbolic": leg["p_hyperbolic"],
        "q_elliptic": q_ell,
        "q_positive": leg["q_positive"],
        "product_hyperbolic": pq_hyp,
        "pairing_nonpositive": leg["pairing_nonpositive"],
        "gradient_term_leg": gradient_leg,
    }
    return IsotopyCertificate(
        kind=PRODUCT_COMPOSITE,
        t_coefficients=(a0, a1, a2),
        branch=f"{AFFINE_PATH} then {GRADIENT_TERM_PATH}",
        verdicts=verdicts,
        conclusion=(
            "II of the product and II of the first factor are hyperbolic "
            "isotopic; their origin indexes coincide"
        ),
        joins=(ii_f, ii_p),
        index=pq_index,
    )
