from fractions import Fraction

import pytest

from hesstop.combinat import (
    absorption_identity_holds,
    alternating_sum_identity_holds,
    binom,
    binomial_reduction_check,
    bracket_closed_form_check,
    raw_coeff_head,
    raw_coeff_middle,
    raw_coeff_tail,
    square_convolution_sum,
    square_sum_recurrence_holds,
    vanishing_alternating_sum,
    weighted_convolution_sum,
    weighted_sum_recurrence_holds,
)
from hesstop.errors import DomainError

from helpers import (
    literal_alternating_sum_identity_holds,
    literal_raw_coeff_head,
    literal_raw_coeff_middle,
    literal_raw_coeff_tail,
    literal_square_convolution_sum,
    literal_vanishing_alternating_sum,
    literal_weighted_convolution_sum,
)


class TestBinom:
    def test_zero_outside_range(self):
        assert binom(5, -1) == 0
        assert binom(5, 6) == 0
        assert binom(5, 0) == 1


class TestRawSums:
    def test_head_values(self):
        assert raw_coeff_head(4, 1) == 3
        assert raw_coeff_head(4, 0) == 1
        assert raw_coeff_head(6, 2) == 10

    def test_middle_values(self):
        assert raw_coeff_middle(2) == 1
        assert raw_coeff_middle(4) == 3
        assert raw_coeff_middle(6) == 10

    def test_tail_values(self):
        assert raw_coeff_tail(6, 2) == 5
        assert raw_coeff_tail(4, 1) == 3
        assert raw_coeff_tail(8, 3) == 7

    def test_tail_at_j_one_retrieves_middle(self):
        for m in range(4, 21, 2):
            assert raw_coeff_tail(m, 1) == raw_coeff_middle(m)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            raw_coeff_head(5, 0)
        with pytest.raises(DomainError):
            raw_coeff_head(4, 2)
        with pytest.raises(DomainError):
            raw_coeff_tail(4, 0)

    @pytest.mark.parametrize("m", [4, 6, 10, 20, 40])
    def test_reduction_to_single_binomials(self, m):
        assert binomial_reduction_check(m)
        for j in range((m - 2) // 2 + 1):
            assert raw_coeff_head(m, j) == binom(m - 1, j)
        assert raw_coeff_middle(m) == binom(m - 1, m // 2)
        for j in range(1, (m - 2) // 2 + 1):
            assert raw_coeff_tail(m, j) == binom(m - 1, j + m // 2 - 1)


class TestVanishingSum:
    def test_examples(self):
        assert vanishing_alternating_sum(5, 2) == 0
        assert vanishing_alternating_sum(12, 4) == 0
        assert vanishing_alternating_sum(7, 0) == 0  # empty sum

    def test_intermediate_terms_are_not_integers(self):
        # the 1/m factor matters: a single summand need not be an integer
        m, j, k = 4, 2, 1
        term = Fraction(1 - 2 * k, m) * binom(m, j - k + 1)
        assert term == Fraction(-3, 2)

    @pytest.mark.parametrize("m", range(1, 41))
    def test_vanishes_everywhere(self, m):
        for j in range(m):
            assert vanishing_alternating_sum(m, j) == 0


class TestConvolutionSums:
    def test_examples(self):
        assert square_convolution_sum(4, 2) == 6
        assert weighted_convolution_sum(5, 1) == 20
        for m in range(1, 20):
            assert weighted_convolution_sum(m, 0) == m

    def test_empty_boundary(self):
        assert weighted_convolution_sum(9, -1) == 0
        assert square_convolution_sum(9, -1) == 0

    @pytest.mark.parametrize("m", range(2, 41))
    def test_closed_forms(self, m):
        for j in range(m):
            assert weighted_convolution_sum(m, j) == (j + 1) * binom(m, j + 1)
            assert square_convolution_sum(m, j) == binom(m, j)

    @pytest.mark.parametrize("m", range(2, 41))
    def test_recurrences(self, m):
        for j in range(m):
            assert weighted_sum_recurrence_holds(m, j)
            assert square_sum_recurrence_holds(m, j)


class TestClassicalIdentities:
    def test_absorption(self):
        for m in range(0, 61):
            for k in range(m + 1):
                assert absorption_identity_holds(m, k)

    def test_alternating_sum(self):
        for m in range(1, 61):
            for r in range(m):
                assert alternating_sum_identity_holds(m, r)


def _outcome(fn, *args):
    """The value and its type, or the exception type, of fn(*args)."""
    try:
        value = fn(*args)
    except DomainError as exc:
        return ("raises", type(exc))
    return ("value", value, type(value))


# m in -2..60 and j in -3..m+3: the empty sum at j = -1, out-of-range j on
# both sides and the domain guards of the raw sums and the vanishing sum
LITERAL_GRID = [(m, j) for m in range(-2, 61) for j in range(-3, m + 4)]


class TestLiteralReference:
    """The int sums of combinat against the literal term-by-term sums."""

    @pytest.mark.parametrize("fn,literal", [
        (raw_coeff_head, literal_raw_coeff_head),
        (raw_coeff_tail, literal_raw_coeff_tail),
        (vanishing_alternating_sum, literal_vanishing_alternating_sum),
        (weighted_convolution_sum, literal_weighted_convolution_sum),
        (square_convolution_sum, literal_square_convolution_sum),
        (alternating_sum_identity_holds, literal_alternating_sum_identity_holds),
    ], ids=lambda f: f.__name__)
    def test_matches_literal_sum_on_grid(self, fn, literal):
        for m, j in LITERAL_GRID:
            assert _outcome(fn, m, j) == _outcome(literal, m, j), (m, j)

    def test_middle_matches_literal_sum(self):
        for m in range(-2, 61):
            assert _outcome(raw_coeff_middle, m) == _outcome(literal_raw_coeff_middle, m), m

    def test_vanishing_sum_stays_a_fraction(self):
        for m, j in LITERAL_GRID:
            if 1 <= m and 0 <= j <= m - 1:
                assert type(vanishing_alternating_sum(m, j)) is Fraction


class TestBracketClosedForm:
    @pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (7, 3)])
    def test_examples(self, m, k):
        assert bracket_closed_form_check(m, k)

    def test_even_and_odd_coverage(self):
        for m in range(2, 13):
            for k in (1, 3, 6):
                assert bracket_closed_form_check(m, k)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            bracket_closed_form_check(2, 0)
