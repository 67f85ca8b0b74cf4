"""Certified hyperbolic isotopies between quadratic differential forms.

Two linear paths are certified.  The gradient-term path joins q*II_p to
q*II_p + 2 dp dq; its discriminant, as a quadratic in t, has all three
coefficients nonnegative with the constant one strictly positive.  The
affine path joins a form w to w + delta when delta is nowhere hyperbolic;
there positivity on t in [0, 1] follows from positivity at both endpoints
plus concavity (the t^2 coefficient is nonpositive).

Certificates are data, not booleans: every sign decision is carried as an
exact certificate so the CLI can emit an auditable trail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import (
    NonnegativityCertificate,
    PairingCertificate,
    SignCertificate,
    Verdict,
    certify_nonpositive,
    certify_nonnegative,
    certify_pairing_nonpositive,
    is_elliptic,
    is_hyperbolic,
    sign_on_punctured_plane,
)
from .errors import PreconditionFailed
from .polyalg import HomoPoly, format_poly, multiply
from .quadform import (
    QuadForm,
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
    verdicts: dict = field(default_factory=dict)
    conclusion: str = ""

    @property
    def valid(self) -> bool:
        return all(_conclusive(v) for v in self.verdicts.values())

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
                {"name": name, **_cert_json(v)} for name, v in self.verdicts.items()
            ],
            "conclusion": self.conclusion,
        }


def _conclusive(v) -> bool:
    if isinstance(v, SignCertificate):
        return v.verdict in (Verdict.POSITIVE, Verdict.NEGATIVE, Verdict.ZERO)
    if isinstance(v, NonnegativityCertificate):
        return v.nonnegative
    if isinstance(v, PairingCertificate):
        return v.holds
    if isinstance(v, IsotopyCertificate):
        return v.valid
    return bool(v)


def _cert_json(v) -> dict:
    if hasattr(v, "to_json"):
        return v.to_json()
    return {"holds": bool(v)}


def certify_path_positivity(
    a0: HomoPoly, a1: HomoPoly, a2: HomoPoly
) -> tuple[bool, dict]:
    """Certify a0 + t a1 + t^2 a2 > 0 on the punctured plane for t in [0,1].

    Sufficient conditions: a0 > 0, a0 + a1 + a2 > 0 and a2 <= 0.  With a
    nonpositive quadratic coefficient the path is concave in t, so interior
    positivity follows from the endpoints.
    """
    start = sign_on_punctured_plane(a0)
    end = sign_on_punctured_plane(a0 + a1 + a2)
    quad = certify_nonpositive(a2)
    verdicts = {
        "start_positive": start,
        "end_positive": end,
        "quadratic_term_nonpositive": quad,
    }
    ok = (
        start.verdict is Verdict.POSITIVE
        and end.verdict is Verdict.POSITIVE
        and quad.nonnegative
    )
    return ok, verdicts


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
    if not hyp_ok:
        raise PreconditionFailed("p_hyperbolic", "first argument is not hyperbolic")
    q_pos = sign_on_punctured_plane(q)
    if q_pos.verdict is not Verdict.POSITIVE:
        raise PreconditionFailed(
            "q_positive", "second argument is not positive on the punctured plane"
        )
    pairing = certify_pairing_nonpositive(p, q)
    if not pairing.holds:
        raise PreconditionFailed(
            "pairing_nonpositive", "hessian pairing takes positive values"
        )

    omega = second_fundamental_form(p).scale(q)
    delta = gradient_product_form(p, q)
    a0, a1, a2 = path_discriminant_coeffs(omega, delta)
    verdicts = {
        "p_hyperbolic": hyp_cert,
        "q_positive": q_pos,
        "pairing_nonpositive": pairing,
        "a0_positive": sign_on_punctured_plane(a0),
        "a1_nonnegative": certify_nonnegative(a1),
        "a2_nonnegative": certify_nonnegative(a2),
    }
    if verdicts["a0_positive"].verdict is not Verdict.POSITIVE:
        raise PreconditionFailed("a0_positive", "path discriminant not positive at t=0")
    if not verdicts["a1_nonnegative"].nonnegative:
        raise PreconditionFailed("a1_nonnegative", "linear coefficient not nonnegative")
    if not verdicts["a2_nonnegative"].nonnegative:
        raise PreconditionFailed("a2_nonnegative", "quadratic coefficient not a square")
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
    if not ell_ok:
        raise PreconditionFailed("q_elliptic", "second factor is not elliptic")
    gradient_leg = certify_gradient_term_path(p, q)
    f = multiply(p, q)
    prod_ok, f_cert = is_hyperbolic(f)
    if not prod_ok:
        raise PreconditionFailed("product_hyperbolic", "the product is not hyperbolic")

    omega = second_fundamental_form(p).scale(q) + gradient_product_form(p, q)
    delta = second_fundamental_form(q).scale(p)
    split_residual = second_fundamental_form(f) - (omega + delta)
    if not split_residual.is_zero:
        raise PreconditionFailed(
            "product_form_split", "II_{pq} did not split exactly (internal error)"
        )

    a0, a1, a2 = path_discriminant_coeffs(omega, delta)
    affine_ok, affine_verdicts = certify_path_positivity(a0, a1, a2)
    if not affine_ok:
        failing = next(
            name for name, v in affine_verdicts.items() if not _conclusive(v)
        )
        raise PreconditionFailed(failing, "affine path positivity failed")

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
