import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from hesstop.errors import DomainError
from hesstop.polyalg import HomoPoly, multiply, parse, partial, radial_family, saddle_family
from hesstop.quadform import (
    QuadForm,
    discriminant,
    discriminant_expansion_residual,
    gradient_product_form,
    hessian_pairing,
    path_discriminant_coeffs,
    second_fundamental_form,
)

from conftest import homopolys
from helpers import random_homopoly

F = Fraction


class TestSecondFundamentalForm:
    def test_xy(self):
        w = second_fundamental_form(parse("x*y"))
        assert w.a.is_zero
        assert w.b == HomoPoly.constant(1)
        assert w.c.is_zero

    def test_circle(self):
        w = second_fundamental_form(parse("x^2+y^2"))
        assert (w.a, w.b, w.c) == (
            HomoPoly.constant(2),
            HomoPoly.zero(0),
            HomoPoly.constant(2),
        )

    def test_monkey_saddle(self):
        w = second_fundamental_form(saddle_family(3))
        assert w.a == parse("6*x")
        assert w.b == parse("-6*y")
        assert w.c == parse("-6*x")

    def test_degree_guard(self):
        with pytest.raises(DomainError):
            second_fundamental_form(parse("x"))

    @given(homopolys(min_degree=2))
    @settings(max_examples=50)
    def test_coefficients_satisfy_euler_identity(self, f):
        x = HomoPoly(1, (F(1), F(0)))
        y = HomoPoly(1, (F(0), F(1)))
        w = second_fundamental_form(f)
        d = f.degree - 2
        for coeff in (w.a, w.b, w.c):
            lhs = multiply(x, partial(coeff, "x")) + multiply(y, partial(coeff, "y"))
            assert lhs == d * coeff


class TestDiscriminant:
    def test_xy(self):
        assert discriminant(second_fundamental_form(parse("x*y"))) == HomoPoly.constant(1)

    def test_circle(self):
        w = second_fundamental_form(parse("x^2+y^2"))
        assert discriminant(w) == HomoPoly.constant(-4)

    def test_monkey_saddle(self):
        w = second_fundamental_form(saddle_family(3))
        assert discriminant(w) == parse("36*x^2 + 36*y^2")


class TestGradientProductForm:
    def test_x_and_y(self):
        w = gradient_product_form(parse("x"), parse("y"))
        assert w.a.is_zero and w.c.is_zero
        assert w.b == HomoPoly.constant(1)

    def test_parallel_gradients_have_zero_discriminant(self):
        q = radial_family(1)
        w = gradient_product_form(q, q)
        assert w.a == parse("8*x^2")
        assert w.b == parse("8*x*y")
        assert w.c == parse("8*y^2")
        assert discriminant(w).is_zero

    def test_saddle_radial_pair(self):
        w = gradient_product_form(saddle_family(2), radial_family(1))
        assert w.a == parse("8*x^2")
        assert w.b.is_zero
        assert w.c == parse("-8*y^2")

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            gradient_product_form(HomoPoly.constant(3), parse("x"))

    @given(homopolys(min_degree=1, max_degree=6), homopolys(min_degree=1, max_degree=6))
    @settings(max_examples=60)
    def test_discriminant_is_jacobian_squared(self, p, q):
        jac = multiply(partial(p, "x"), partial(q, "y")) - multiply(
            partial(p, "y"), partial(q, "x")
        )
        assert discriminant(gradient_product_form(p, q)) == multiply(jac, jac)


class TestHessianPairing:
    def test_closed_form_small_pairs(self):
        assert hessian_pairing(saddle_family(2), radial_family(1)) == parse(
            "-8*x^2 - 8*y^2"
        )
        expected = (-36) * (radial_family(1) ** 2)
        assert hessian_pairing(saddle_family(3), radial_family(1)) == expected

    def test_flat_hessian_direction(self):
        assert hessian_pairing(parse("x^2"), parse("x")).is_zero

    def test_degree_guards(self):
        with pytest.raises(DomainError):
            hessian_pairing(parse("x"), parse("x"))
        with pytest.raises(DomainError):
            hessian_pairing(parse("x^2"), HomoPoly.constant(2))

    def test_linear_in_second_argument(self, rng):
        for _ in range(40):
            p = random_homopoly(rng, rng.randint(2, 6))
            deg_q = rng.randint(1, 5)
            q1 = random_homopoly(rng, deg_q)
            q2 = random_homopoly(rng, deg_q)
            lhs = hessian_pairing(p, q1 + q2)
            rhs = hessian_pairing(p, q1) + hessian_pairing(p, q2)
            assert lhs == rhs


class TestExpansionResidual:
    @pytest.mark.parametrize(
        "p, q",
        [
            (saddle_family(3), radial_family(1)),
            (parse("x^2"), parse("x^2+y^2")),
            (parse("x*y"), parse("x^2")),
        ],
    )
    def test_named_pairs_vanish(self, p, q):
        assert discriminant_expansion_residual(p, q).is_zero

    def test_random_pairs_vanish(self, rng):
        for _ in range(50):
            p = random_homopoly(rng, rng.randint(2, 8))
            q = random_homopoly(rng, rng.randint(1, 6))
            assert discriminant_expansion_residual(p, q).is_zero


class TestPathCoefficients:
    def test_zero_deformation(self):
        w = second_fundamental_form(saddle_family(3))
        zero = QuadForm(HomoPoly.zero(1), HomoPoly.zero(1), HomoPoly.zero(1))
        a0, a1, a2 = path_discriminant_coeffs(w, zero)
        assert a0 == discriminant(w)
        assert a1.is_zero and a2.is_zero

    def test_self_deformation_scales_quadratically(self):
        w = second_fundamental_form(saddle_family(4))
        a0, a1, a2 = path_discriminant_coeffs(w, w)
        disc = discriminant(w)
        assert a0 == disc and a1 == 2 * disc and a2 == disc

    def test_sum_of_coefficients_is_endpoint_discriminant(self, rng):
        # the polarization reading of the t-coefficient is certified by
        # requiring the t=1 value to reproduce the endpoint discriminant
        for _ in range(40):
            p = random_homopoly(rng, rng.randint(2, 5))
            q = random_homopoly(rng, rng.randint(2, 5))
            w = second_fundamental_form(p).scale(q) + gradient_product_form(p, q)
            d = second_fundamental_form(q).scale(p)
            a0, a1, a2 = path_discriminant_coeffs(w, d)
            assert a0 + a1 + a2 == discriminant(w + d)

    def test_product_pair_quadratic_coefficient_nonpositive(self):
        from hesstop.classify import certify_nonnegative

        p, q = saddle_family(3), radial_family(1)
        omega = second_fundamental_form(p).scale(q) + gradient_product_form(p, q)
        delta = second_fundamental_form(q).scale(p)
        a0, a1, a2 = path_discriminant_coeffs(omega, delta)
        assert a2 == multiply(multiply(p, p), discriminant(second_fundamental_form(q)))
        assert certify_nonnegative(-a2).nonnegative


class TestFormAlgebra:
    def test_mixed_degree_coefficients_rejected(self):
        with pytest.raises(DomainError):
            QuadForm(parse("x"), parse("x^2"), parse("x"))


def product_poly():
    return multiply(saddle_family(3), radial_family(2))
