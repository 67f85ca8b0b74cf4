"""Certified hyperbolic isotopies between quadratic differential forms.

Two linear paths are certified.  The gradient-term path joins q*II_p to
q*II_p + 2 dp dq; its discriminant, as a quadratic in t, has all three
coefficients nonnegative with the constant one strictly positive.  The
affine path joins a form w to w + delta when delta is nowhere hyperbolic;
there positivity on t in [0, 1] follows from positivity at both endpoints
plus concavity (the t^2 coefficient is nonpositive).

Certificates are data, not booleans: every hypothesis is carried as the
exact SignCertificate or NonnegativityCertificate that proved it, so the
CLI can emit an auditable trail.  A failing hypothesis raises
PreconditionFailed with its name, so every returned certificate holds.
Each sign question is one kernel call on one Sturm chain per slice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import (
    NonnegativityCertificate,
    SignCertificate,
    Verdict,
    certify_nonnegative,
    certify_pairing_nonpositive,
    is_elliptic,
    is_hyperbolic,
    sign_on_punctured_plane,
)
from .errors import PreconditionFailed
from .polyalg import HomoPoly, format_poly, multiply
from .quadform import (
    gradient_product_form,
    path_discriminant_coeffs,
    second_fundamental_form,
)

GRADIENT_TERM_PATH = "gradient-term-path"
AFFINE_PATH = "affine-path"
PRODUCT_COMPOSITE = "product-composite"


@dataclass(frozen=True)
class IsotopyCertificate:
    """Evidence that a one-parameter family of forms stays hyperbolic for
    t in [0, 1].

    ``t_coefficients`` are (a0, a1, a2) of the path discriminant as a
    quadratic in t; ``branch`` names the sufficient condition that closed
    the argument; ``verdicts`` maps each checked condition to its exact
    certificate.
    """

    kind: str
    t_coefficients: tuple[HomoPoly, HomoPoly, HomoPoly]
    branch: str
    verdicts: dict
    conclusion: str

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


def _positive(name: str, p: HomoPoly, detail: str) -> SignCertificate:
    cert = sign_on_punctured_plane(p)
    _require(name, cert.verdict is Verdict.POSITIVE, detail)
    return cert


def _nonnegative(name: str, p: HomoPoly, detail: str) -> NonnegativityCertificate:
    cert = certify_nonnegative(p)
    _require(name, cert.nonnegative, detail)
    return cert


def certify_path_positivity(a0: HomoPoly, a1: HomoPoly, a2: HomoPoly) -> dict:
    """Certify a0 + t a1 + t^2 a2 > 0 on the punctured plane for t in [0,1].

    Sufficient conditions, checked in this order: a2 <= 0, a0 > 0 and
    a0 + a1 + a2 > 0.  With a nonpositive quadratic coefficient the path is
    concave in t, so interior positivity follows from the endpoints.
    Returns the three certificates by name; the first failing condition
    raises PreconditionFailed with its name.
    """
    return {
        "quadratic_term_nonpositive": _nonnegative(
            "quadratic_term_nonpositive", -a2, "t^2 coefficient takes positive values"
        ),
        "start_positive": _positive("start_positive", a0, "not positive at t=0"),
        "end_positive": _positive("end_positive", a0 + a1 + a2, "not positive at t=1"),
    }


def certify_gradient_term_path(p: HomoPoly, q: HomoPoly) -> IsotopyCertificate:
    """Certify that q*II_p + 2t dp dq is hyperbolic off the origin for all
    t in [0, 1].

    Hypotheses: p hyperbolic, q positive on the punctured plane, and
    hessian_pairing(p, q) <= 0 everywhere.  Then a0 = q^2 (disc II_p) is
    strictly positive, a1 = -2 q hessian_pairing(p, q) is nonnegative and
    a2 = (p_x q_y - p_y q_x)^2 is a square, which is stronger than the
    concavity route needs.
    """
    hyp_ok, hyp_cert = is_hyperbolic(p)
    _require("p_hyperbolic", hyp_ok, "first argument is not hyperbolic")
    q_pos = _positive(
        "q_positive", q, "second argument is not positive on the punctured plane"
    )
    pairing = certify_pairing_nonpositive(p, q)
    _require("pairing_nonpositive", pairing.nonnegative, "hessian pairing is positive")

    omega = second_fundamental_form(p).scale(q)
    delta = gradient_product_form(p, q)
    a0, a1, a2 = path_discriminant_coeffs(omega, delta)
    verdicts = {
        "p_hyperbolic": hyp_cert,
        "q_positive": q_pos,
        "pairing_nonpositive": pairing,
        "a0_positive": _positive("a0_positive", a0, "not positive at t=0"),
        "a1_nonnegative": _nonnegative("a1_nonnegative", a1, "t coefficient negative"),
        "a2_nonnegative": _nonnegative("a2_nonnegative", a2, "t^2 coefficient negative"),
    }
    return IsotopyCertificate(
        kind=GRADIENT_TERM_PATH,
        t_coefficients=(a0, a1, a2),
        branch="all-t-coefficients-nonnegative",
        verdicts=verdicts,
        conclusion="q*II_p + 2t dp dq is hyperbolic off the origin for t in [0,1]",
    )


def certify_product_isotopy(p: HomoPoly, q: HomoPoly) -> IsotopyCertificate:
    """Certify that II_{pq} and II_p are joined by hyperbolic isotopies.

    All hypotheses are checked and certified internally, each once, in this
    order: q elliptic; then the gradient-term leg, which proves p
    hyperbolic, q positive off the origin and the hessian pairing
    nonpositive; then pq hyperbolic; then the affine leg.  The first
    failing hypothesis is named by the PreconditionFailed raised.

    The affine leg deforms II_{pq} to w = q*II_p + 2 dp dq using the exact
    split II_{pq} = p*II_q + q*II_p + 2 dp dq with delta = p*II_q nowhere
    hyperbolic (its discriminant is p^2 disc II_q <= 0 by ellipticity of q).
    The gradient-term leg then removes the 2 dp dq summand.  Finally
    q*II_p has the same null directions as II_p because q is positive.
    """
    ell_ok, q_cert = is_elliptic(q)
    _require("q_elliptic", ell_ok, "second factor is not elliptic")
    gradient_leg = certify_gradient_term_path(p, q)
    f = multiply(p, q)
    prod_ok, f_cert = is_hyperbolic(f)
    _require("product_hyperbolic", prod_ok, "the product is not hyperbolic")

    omega = second_fundamental_form(p).scale(q) + gradient_product_form(p, q)
    delta = second_fundamental_form(q).scale(p)
    _require(
        "product_form_split",
        (second_fundamental_form(f) - (omega + delta)).is_zero,
        "II_{pq} did not split exactly (internal error)",
    )

    a0, a1, a2 = path_discriminant_coeffs(omega, delta)
    affine_verdicts = certify_path_positivity(a0, a1, a2)

    leg = gradient_leg.verdicts
    verdicts = {
        "p_hyperbolic": leg["p_hyperbolic"],
        "q_elliptic": q_cert,
        "q_positive": leg["q_positive"],
        "product_hyperbolic": f_cert,
        "pairing_nonpositive": leg["pairing_nonpositive"],
        "affine_start_positive": affine_verdicts["start_positive"],
        "affine_end_positive": affine_verdicts["end_positive"],
        "affine_quadratic_term_nonpositive": affine_verdicts[
            "quadratic_term_nonpositive"
        ],
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
    )
