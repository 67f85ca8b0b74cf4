import math

import pytest

from hesstop.classify import Verdict
from hesstop.errors import PreconditionFailed
from hesstop.isotopy import (
    certify_gradient_term_path,
    certify_path_positivity,
    certify_product_isotopy,
)
from hesstop.polyalg import (
    HomoPoly,
    multiply,
    parse,
    partial,
    radial_family,
    saddle_family,
)
from hesstop.quadform import (
    discriminant,
    gradient_product_form,
    hessian_pairing,
    second_fundamental_form,
)

from helpers import hypotheses_hold, random_homopoly


class TestPathPositivity:
    def test_constant_positive_path(self):
        one = HomoPoly.constant(1)
        zero = HomoPoly.zero(0)
        verdicts = certify_path_positivity(one, zero, zero)
        assert verdicts["start_positive"].verdict is Verdict.POSITIVE

    def test_positive_quadratic_term_rejected(self):
        one = HomoPoly.constant(1)
        with pytest.raises(PreconditionFailed) as exc:
            certify_path_positivity(one, HomoPoly.constant(-3), one)
        assert exc.value.hypothesis == "quadratic_term_nonpositive"

    def test_negative_start_is_named(self):
        minus_one, zero = HomoPoly.constant(-1), HomoPoly.zero(0)
        with pytest.raises(PreconditionFailed) as exc:
            certify_path_positivity(minus_one, zero, zero)
        assert exc.value.hypothesis == "start_positive"

    def test_product_pair_data(self):
        p, q = saddle_family(3), radial_family(1)
        from hesstop.quadform import path_discriminant_coeffs

        omega = second_fundamental_form(p).scale(q) + gradient_product_form(p, q)
        delta = second_fundamental_form(q).scale(p)
        a0, a1, a2 = path_discriminant_coeffs(omega, delta)
        verdicts = certify_path_positivity(a0, a1, a2)
        assert verdicts["quadratic_term_nonpositive"].nonnegative


class TestGradientTermPath:
    def test_monkey_saddle_pair(self):
        cert = certify_gradient_term_path(saddle_family(3), radial_family(1))
        assert hypotheses_hold(cert)
        assert cert.branch == "all-t-coefficients-nonnegative"

    @pytest.mark.parametrize("m", range(2, 9))
    def test_family_grid(self, m):
        for k in range(1, 5):
            cert = certify_gradient_term_path(saddle_family(m), radial_family(k))
            assert hypotheses_hold(cert)

    def test_non_hyperbolic_first_argument_rejected(self):
        with pytest.raises(PreconditionFailed) as exc:
            certify_gradient_term_path(radial_family(1), radial_family(1))
        assert exc.value.hypothesis == "p_hyperbolic"

    def test_t_coefficient_identities(self):
        # a1 = -2 q * pairing, a2 = discriminant of the gradient form, exactly
        for m, k in [(3, 1), (4, 2), (5, 1), (6, 3)]:
            p, q = saddle_family(m), radial_family(k)
            cert = certify_gradient_term_path(p, q)
            a0, a1, a2 = cert.t_coefficients
            assert a1 == (-2) * multiply(q, hessian_pairing(p, q))
            assert a2 == discriminant(gradient_product_form(p, q))
            assert a0 == multiply(
                multiply(q, q), discriminant(second_fundamental_form(p))
            )


class TestProductIsotopy:
    def test_monkey_saddle_times_circle(self):
        cert = certify_product_isotopy(saddle_family(3), radial_family(1))
        assert hypotheses_hold(cert)
        assert cert.kind == "product-composite"
        assert "gradient_term_leg" in cert.verdicts

    def test_degree_six_pair(self):
        cert = certify_product_isotopy(saddle_family(4), radial_family(1))
        assert hypotheses_hold(cert)

    def test_non_elliptic_factor_rejected(self):
        with pytest.raises(PreconditionFailed) as exc:
            certify_product_isotopy(saddle_family(3), parse("x^2 - y^2"))
        assert exc.value.hypothesis == "q_elliptic"

    def test_negative_elliptic_factor_rejected(self):
        with pytest.raises(PreconditionFailed) as exc:
            certify_product_isotopy(saddle_family(3), parse("-x^2 - y^2"))
        assert exc.value.hypothesis == "q_positive"

    def test_json_schema(self):
        cert = certify_product_isotopy(saddle_family(3), radial_family(1))
        data = cert.to_json()
        assert set(data) == {"kind", "branch", "coefficients", "hypotheses", "conclusion"}
        assert set(data["coefficients"]) == {"a0", "a1", "a2"}
        names = {h["name"] for h in data["hypotheses"]}
        assert "q_elliptic" in names and "product_hyperbolic" in names

    def test_sampled_path_discriminant_positive(self):
        # float consistency of the exact certificates: the path discriminant
        # stays positive on a 21-point t-grid x 360-point circle grid
        for m, k in [(3, 1), (4, 1), (5, 2)]:
            cert = certify_product_isotopy(saddle_family(m), radial_family(k))
            a0, a1, a2 = cert.t_coefficients
            for it in range(21):
                t = it / 20.0
                for ia in range(360):
                    phi = 2 * math.pi * ia / 360.0
                    x, y = math.cos(phi), math.sin(phi)
                    value = (
                        float(a0.evaluate(x, y))
                        + t * float(a1.evaluate(x, y))
                        + t * t * float(a2.evaluate(x, y))
                    )
                    assert value > 0.0


class TestProductFormSplit:
    def test_split_identity_on_random_pairs(self, rng):
        # II_{pq} = p II_q + q II_p + 2 dp dq, coefficient-exact
        for _ in range(100):
            p = random_homopoly(rng, rng.randint(2, 6))
            q = random_homopoly(rng, rng.randint(2, 6))
            lhs = second_fundamental_form(multiply(p, q))
            rhs = (
                second_fundamental_form(q).scale(p)
                + second_fundamental_form(p).scale(q)
                + gradient_product_form(p, q)
            )
            assert (lhs - rhs).is_zero

    def test_split_identity_componentwise(self):
        p, q = saddle_family(3), radial_family(2)
        lhs = second_fundamental_form(multiply(p, q))
        rhs = (
            second_fundamental_form(q).scale(p)
            + second_fundamental_form(p).scale(q)
            + gradient_product_form(p, q)
        )
        assert lhs.a == rhs.a and lhs.b == rhs.b and lhs.c == rhs.c
