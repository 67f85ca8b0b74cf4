import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesstop.errors import ECHO_CHARS, DomainError, NotHomogeneousError, PolynomialSyntaxError
from hesstop.quadform import second_fundamental_form
from hesstop.polyalg import (
    MAX_DEGREE,
    HomoPoly,
    complex_power_parts,
    format_poly,
    multiply,
    parse,
    partial,
    product_family,
    radial_family,
    saddle_family,
)

from conftest import homopolys
from helpers import (
    complex_power_oracle,
    dict_multiply,
    poly_as_dict,
    random_homopoly,
    reference_parse,
    swap_xy,
)


F = Fraction
X = HomoPoly(1, (F(1), F(0)))
Y = HomoPoly(1, (F(0), F(1)))


class TestParse:
    def test_difference_of_squares(self):
        assert parse("x^2 - y^2") == HomoPoly(2, (F(1), F(0), F(-1)))

    def test_monkey_saddle(self):
        assert parse("x^3 - 3*x*y^2") == saddle_family(3)

    def test_rational_coefficient(self):
        p = parse("3/2*x^2*y - y^3")
        assert p.coeffs == (F(0), F(3, 2), F(0), F(-1))

    def test_whitespace_insignificant(self):
        assert parse(" x ^ 2 + 2* x * y + y^2 ") == parse("x^2+2*x*y+y^2")

    def test_repeated_monomials_accumulate(self):
        assert parse("x^2 + x^2") == parse("2*x^2")

    def test_leading_minus(self):
        assert parse("-x^2 + y^2") == -parse("x^2 - y^2")

    def test_not_homogeneous_names_both_degrees(self):
        with pytest.raises(NotHomogeneousError) as exc:
            parse("x + x*y")
        assert exc.value.degrees == (1, 2)

    def test_degree_cap(self):
        assert parse(f"x^{MAX_DEGREE - 1}*y").degree == MAX_DEGREE
        with pytest.raises(DomainError):
            parse(f"x^{MAX_DEGREE}*y")
        with pytest.raises(DomainError):
            parse("x^100000000 - y^100000000")

    @pytest.mark.parametrize(
        "bad",
        [
            "bogus(", "x^", "2//3", "x**2", "", "3*", "x^-2", "1/0*x",
            pytest.param("1" * 5000 + "*x^2 + y^2", id="long-coefficient"),
            pytest.param("x^" + "1" * 5000, id="long-exponent"),
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(PolynomialSyntaxError):
            parse(bad)

    @pytest.mark.parametrize("bad", ["x*" * 3000 + "x", "x^2 ++ y^2" + " + x*y" * 2000])
    def test_syntax_error_message_is_bounded(self, bad):
        with pytest.raises(PolynomialSyntaxError) as info:
            parse(bad)
        assert "characters)" in str(info.value)
        assert len(str(info.value)) < 2 * ECHO_CHARS + 100

    @given(homopolys())
    @settings(max_examples=150)
    def test_format_parse_round_trip(self, p):
        assert parse(format_poly(p)) == p


def parse_outcome(parser, text):
    """The polynomial a parser builds, coefficient types included, or the
    class of the exception it raises."""
    try:
        p = parser(text)
    except Exception as exc:
        return type(exc)
    return p.degree, [(type(c), c) for c in p.coeffs]


class TestParseMatchesReference:
    def test_random_strings(self):
        rng = random.Random(1301)
        accepted = 0
        for _ in range(20000):
            n = rng.randint(1, 12)
            text = "".join(rng.choice("xy0123456789^*/+- ") for _ in range(n))
            got = parse_outcome(parse, text)
            assert got == parse_outcome(reference_parse, text), text
            accepted += isinstance(got, tuple)
        assert accepted > 1000  # the draw reaches the accepting paths

    @pytest.mark.parametrize(
        "text",
        [
            "", "   ", "+", "-", "x+", "++x", "*x", "x*", "3*", "x^", "2//3", "1/2/3",
            "x*x", "3*yx", "3xy", "3 x * y", "x^0*y", "0/5*y^3", "1/0*x",
            "x + y^2 + *", "x + x*y", "x^100000000 - y^100000000",
            "\u0663x", "\u00b2x", "1\u00b2x", "3/\u0660*x",
            pytest.param("1" * 5000 + "*x^2 + y^2", id="long-coefficient"),
            pytest.param("x^" + "1" * 5000, id="long-exponent"),
            pytest.param("1/" + "2" * 5000 + "*x", id="long-denominator"),
        ],
    )
    def test_edge_cases(self, text):
        assert parse_outcome(parse, text) == parse_outcome(reference_parse, text)


class TestArithmetic:
    def test_partial_x(self):
        assert partial(parse("x^2 - y^2"), "x") == parse("2*x")

    def test_partial_y(self):
        assert partial(saddle_family(3), "y") == parse("-6*x*y")

    def test_partial_kills_pure_other_variable(self):
        d = partial(parse("y^3"), "x")
        assert d.is_zero and d.degree == 2

    def test_multiply_difference_times_sum(self):
        assert multiply(parse("x^2-y^2"), parse("x^2+y^2")) == parse("x^4 - y^4")

    def test_multiply_saddle_by_radial(self):
        # frozen from the independent dict-convolution oracle
        prod = multiply(saddle_family(3), radial_family(1))
        assert prod == parse("x^5 - 2*x^3*y^2 - 3*x*y^4")
        assert poly_as_dict(prod) == dict_multiply(saddle_family(3), radial_family(1))

    def test_multiply_by_zero(self):
        z = multiply(parse("x^2+y^2"), HomoPoly.zero(3))
        assert z.is_zero and z.degree == 5

    def test_add_degree_mismatch_is_error(self):
        with pytest.raises(DomainError):
            parse("x") + parse("x^2")

    def test_add_with_tagged_zero_is_total(self):
        assert HomoPoly.zero(7) + parse("x^2") == parse("x^2")

    def test_zero_polynomials_equal_across_degree_tags(self):
        assert HomoPoly.zero(3) == HomoPoly.zero(0)
        assert hash(HomoPoly.zero(3)) == hash(HomoPoly.zero(0))

    def test_evaluate(self):
        assert parse("x^2-y^2").evaluate(3, 2) == 5
        assert saddle_family(3).evaluate(1, 1) == -2
        assert parse("x^3").evaluate(0, 0) == 0
        assert parse("1/2*x*y").evaluate(F(2, 3), F(3)) == 1

    def test_swap_xy(self):
        assert swap_xy(parse("x^3 - 3*x*y^2")) == parse("y^3 - 3*x^2*y")

    @given(homopolys(), homopolys())
    @settings(max_examples=60)
    def test_multiply_commutative(self, p, q):
        assert multiply(p, q) == multiply(q, p)

    @given(homopolys(max_degree=4), homopolys(max_degree=4), homopolys(max_degree=4))
    @settings(max_examples=40)
    def test_multiply_associative(self, p, q, r):
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))

    @given(homopolys(), homopolys())
    @settings(max_examples=60)
    def test_multiply_matches_dict_oracle(self, p, q):
        assert poly_as_dict(multiply(p, q)) == dict_multiply(p, q)

    @given(homopolys())
    @settings(max_examples=100)
    def test_euler_identity(self, p):
        # x p_x + y p_y = deg(p) * p, coefficient-exact
        lhs = multiply(X, partial(p, "x")) + multiply(Y, partial(p, "y"))
        assert lhs == p.degree * p

    @given(homopolys(min_degree=1), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=60)
    def test_euler_identity_pointwise(self, p, x, y):
        lhs = x * partial(p, "x").evaluate(x, y) + y * partial(p, "y").evaluate(x, y)
        assert lhs == p.degree * p.evaluate(x, y)


class TestFamilies:
    def test_saddle_small_members(self):
        assert saddle_family(2) == parse("x^2 - y^2")
        assert saddle_family(3) == parse("x^3 - 3*x*y^2")
        assert saddle_family(4) == parse("x^4 - 6*x^2*y^2 + y^4")

    @pytest.mark.parametrize("m", range(2, 21))
    def test_saddle_equals_real_part_oracle(self, m):
        re, _ = complex_power_oracle(m)
        assert poly_as_dict(saddle_family(m)) == re

    def test_complex_power_parts_match_oracle(self):
        for n in range(0, 12):
            re, im = complex_power_parts(n)
            ore, oim = complex_power_oracle(n)
            assert poly_as_dict(re) == ore
            assert poly_as_dict(im) == oim

    def test_radial_small_members(self):
        assert radial_family(1) == parse("x^2 + y^2")
        assert radial_family(2) == parse("x^4 + 2*x^2*y^2 + y^4")
        assert radial_family(0) == HomoPoly.constant(1)

    def test_radial_is_power_of_circle(self):
        assert radial_family(5) == parse("x^2+y^2") ** 5

    def test_product_family_degree(self):
        assert product_family(4, 3).degree == 10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            saddle_family(1)
        with pytest.raises(DomainError):
            radial_family(-1)


def assert_canonical(p: HomoPoly) -> None:
    """Each coefficient is an int exactly when it is integral, else a
    Fraction with denominator above 1; never a float."""
    for c in p.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def as_fractions(p: HomoPoly) -> tuple[Fraction, ...]:
    return tuple([Fraction(c) for c in p.coeffs])


scalars = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=4))
points = st.fractions(min_value=-5, max_value=5, max_denominator=7)


class TestCanonicalCoefficients:
    @given(homopolys())
    @settings(max_examples=100)
    def test_parse_and_format(self, p):
        assert_canonical(p)
        assert_canonical(parse(format_poly(p)))

    @pytest.mark.parametrize("m", range(2, 12))
    def test_families_are_ints(self, m):
        for p in (saddle_family(m), radial_family(m), product_family(m, 2),
                  *complex_power_parts(m), HomoPoly.zero(m), HomoPoly.constant(m)):
            assert_canonical(p)
            assert all(type(c) is int for c in p.coeffs)

    def test_integral_fractions_collapse_to_ints(self):
        p = parse("1/2*x^2 + 1/2*x^2 - 4/2*y^2")
        assert p.coeffs == (1, 0, -2)
        assert all(type(c) is int for c in p.coeffs)
        assert HomoPoly.constant(F(6, 3)).coeffs == (2,)
        assert type(HomoPoly.constant(True).coeffs[0]) is int

    @given(homopolys(), homopolys())
    @settings(max_examples=80)
    def test_sum_difference_product(self, p, q):
        for r in (multiply(p, q), p * q):
            assert_canonical(r)
        if p.degree == q.degree:
            assert_canonical(p + q)
            assert_canonical(p - q)
            assert_canonical(p - p)
        assert_canonical(-p)

    @given(homopolys(), scalars)
    @settings(max_examples=80)
    def test_scalar_product(self, p, c):
        assert_canonical(p * c)
        assert_canonical(c * p)
        assert_canonical(p * Fraction(c))

    @given(homopolys(max_degree=5), st.integers(0, 3))
    @settings(max_examples=60)
    def test_partial_and_power(self, p, e):
        assert_canonical(partial(p, "x"))
        assert_canonical(partial(p, "y"))
        assert_canonical(p ** e)

    @given(homopolys(min_degree=2), scalars)
    @settings(max_examples=60)
    def test_quadform_scale(self, p, c):
        w = second_fundamental_form(p)
        for v in (w.scale(c), w.scale(p)):
            for poly in (v.a, v.b, v.c):
                assert_canonical(poly)

    @given(homopolys())
    @settings(max_examples=100)
    def test_fraction_built_form_equals_int_built_form(self, p):
        q = HomoPoly(p.degree, as_fractions(p))
        assert q == p
        assert hash(q) == hash(p)
        assert q.coeffs == p.coeffs
        assert [type(c) for c in q.coeffs] == [type(c) for c in p.coeffs]

    @pytest.mark.parametrize("text", [
        "x^3 - 3*x*y^2",
        "-x^2 + 3/2*x*y - 7*y^2",
        "-1/3*x^4 + 2*x^2*y^2 - y^4",
        "5",
        "-2/7*y",
    ])
    def test_format_strings_unchanged(self, text):
        p = parse(text)
        assert format_poly(p) == text
        assert str(p) == text
        assert repr(p) == f"HomoPoly({p.degree}, {text!r})"

    @given(homopolys(), points, points)
    @settings(max_examples=100)
    def test_evaluate_exact_at_fraction_points(self, p, x, y):
        value = p.evaluate(x, y)
        assert type(value) in (int, Fraction)
        d = p.degree
        expected = sum(Fraction(c) * x ** (d - j) * y ** j for j, c in enumerate(p.coeffs))
        assert value == expected

    @pytest.mark.parametrize("bad", [1.0, 0.5, float("nan"), "3", None, 1j])
    def test_non_rational_coefficients_refused(self, bad):
        with pytest.raises(DomainError):
            HomoPoly(1, (1, bad))
        with pytest.raises(DomainError):
            HomoPoly.constant(bad)

    def test_float_scalar_refused(self):
        with pytest.raises(TypeError):
            parse("x^2 + y^2") * 0.5


def test_random_homopoly_respects_degree(rng):
    p = random_homopoly(rng, 6)
    assert p.degree == 6 and not p.is_zero
