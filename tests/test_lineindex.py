import math
from fractions import Fraction

import pytest

from hesstop.errors import AmbiguousBranch, DomainError, NotHyperbolicHere
from hesstop.classify import is_hyperbolic
from hesstop.lineindex import (
    HalfIndex,
    _eval_abc,
    _float_coeffs,
    _directions_from_values,
    _fourier_halves,
    branch_continuation,
    index_at_origin,
    line_distance,
    origin_index,
)
from hesstop.polyalg import (
    HomoPoly,
    _numerators,
    multiply,
    parse,
    product_family,
    radial_family,
    saddle_family,
)
from hesstop.foliation import count_separatrices
from hesstop.quadform import second_fundamental_form

from helpers import asymptotic_lines, random_homopoly

# (m, k) of the benchmark's product ladder, total degrees 5 to 110
PRODUCT_LADDER = ((3, 1), (8, 2), (12, 5), (20, 6), (30, 10), (40, 12), (50, 20), (40, 35))


# rational points (x, y) of the unit circle, from t by (1 - t^2, 2t)/(1 + t^2)
CIRCLE_T = (Fraction(0), Fraction(1, 2), Fraction(-3), Fraction(5, 7), Fraction(1), Fraction(-2, 9))


def _circle_point(t):
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


class TestFourierConversion:
    """The Fourier data of a form against exact HomoPoly.evaluate on the
    unit circle, with Gaussian rationals: no float anywhere."""

    @staticmethod
    def _forms(rng, d):
        yield HomoPoly.zero(d)
        yield random_homopoly(rng, d, max_abs=9)  # Fraction coefficients
        yield HomoPoly(d, tuple([rng.randint(-(2**40), 2**40) for _ in range(d + 1)]))

    @pytest.mark.parametrize("d", range(13))
    def test_halves_are_exact(self, rng, d):
        for p in self._forms(rng, d):
            nums, den = _numerators(p.coeffs)
            halves = _fourier_halves(nums)
            for t in CIRCLE_T:
                z = _circle_point(t)
                w = _gmul(z, z)
                acc = (Fraction(0), Fraction(0))
                for g in reversed(halves):
                    acc = _gmul(acc, w)
                    acc = (acc[0] + g[0], acc[1] + g[1])
                if d % 2:
                    acc = _gmul(acc, z)
                assert acc[0] == 2**d * den * p.evaluate(*z), (p, t)

    @pytest.mark.parametrize("d", range(13))
    def test_float_forms_share_one_positive_factor(self, rng, d):
        forms = list(self._forms(rng, d))
        odd = d % 2 == 1
        terms = _float_coeffs(d, *forms)
        assert len(terms) == d // 2 + 1
        for t in CIRCLE_T:
            x, y = _circle_point(t)
            got = _eval_abc(terms, odd, complex(float(x), float(y)))
            exact = [p.evaluate(x, y) for p in forms]
            assert got[0] == 0.0 and exact[0] == 0
            ratios = [g / float(e) for g, e in zip(got[1:], exact[1:]) if e != 0]
            assert all(r > 0 for r in ratios)
            assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


class TestAsymptoticDirections:
    def test_xy_gives_coordinate_axes(self):
        w = second_fundamental_form(parse("x*y"))
        t1, t2 = asymptotic_lines(w, 0.3, -0.9)
        assert t1 == pytest.approx(0.0, abs=1e-12)
        assert t2 == pytest.approx(math.pi / 2, abs=1e-12)

    def test_monkey_saddle_slopes(self):
        # at (1, 1) the equation reduces to s^2 + 2s - 1 = 0, s = -1 +- sqrt(2)
        w = second_fundamental_form(saddle_family(3))
        slopes = sorted(math.tan(t) for t in asymptotic_lines(w, 1.0, 1.0))
        assert slopes[0] == pytest.approx(-1 - math.sqrt(2), rel=1e-12)
        assert slopes[1] == pytest.approx(-1 + math.sqrt(2), rel=1e-12)

    def test_elliptic_point_rejected(self):
        w = second_fundamental_form(radial_family(1))
        with pytest.raises(NotHyperbolicHere):
            asymptotic_lines(w, 1.0, 0.0)

    def test_near_degenerate_quadratic_is_stable(self):
        # a is tiny: must solve for the dominant slope without cancellation
        w = second_fundamental_form(parse("x*y"))
        t1, t2 = asymptotic_lines(w, 1e-8, 1.0)
        for t in (t1, t2):
            assert 0.0 <= t < math.pi
        # C is tiny on exact values: the slope quadratic 3 + 2s + Cs^2
        # degenerates, and one line is vertical
        t1, t2 = _directions_from_values(3.0, 1.0, 1e-20, 1.0, 0.0)
        assert t1 == pytest.approx(math.pi / 2, abs=1e-12)
        assert math.tan(t2) == pytest.approx(-1.5, rel=1e-12)


class TestBranchContinuation:
    def test_picks_closest(self):
        assert branch_continuation(0.0, (0.1, 1.5)) == 0.1

    def test_wraparound_aware(self):
        assert branch_continuation(3.0, (0.05, 1.6)) == 0.05
        assert line_distance(3.0, 0.05) < 0.25

    def test_equidistant_raises(self):
        mid = 0.5
        pair = (mid + 0.3, mid - 0.3)
        with pytest.raises(AmbiguousBranch):
            branch_continuation(mid, pair)


class TestHalfIndex:
    def test_value_and_format(self):
        assert str(HalfIndex(-1, 1e-12)) == "-1/2"
        assert str(HalfIndex(-2, 0.0)) == "-1"
        assert HalfIndex(3, 0.0).value == Fraction(3, 2)

    def test_residual_gate(self):
        from hesstop.errors import RefinementLimit

        with pytest.raises(RefinementLimit):
            HalfIndex(0, 0.3)


class TestIndexAtOrigin:
    def test_constant_field_has_index_zero(self):
        half, trace = index_at_origin(second_fundamental_form(parse("x*y")))
        assert half.numerator == 0
        assert half.residual < 1e-9

    @pytest.mark.parametrize("m", range(3, 11))
    def test_saddle_index_law(self, m):
        w = second_fundamental_form(saddle_family(m))
        half, trace = index_at_origin(w)
        assert half.value == Fraction(2 - m, 2)
        assert half.residual < 0.01

    def test_product_index_matches_saddle_factor(self):
        for m, k in [(3, 1), (4, 1), (3, 2), (5, 2)]:
            f = multiply(saddle_family(m), radial_family(k))
            half, _ = index_at_origin(second_fundamental_form(f))
            assert half.value == Fraction(2 - m, 2)

    def test_trace_closes_up(self):
        w = second_fundamental_form(saddle_family(5))
        _, trace = index_at_origin(w)
        phi0, theta0 = trace.samples[0]
        phi1, theta1 = trace.samples[-1]
        assert phi0 == 0.0
        assert phi1 == pytest.approx(2 * math.pi)
        assert line_distance(theta0, theta1) < 1e-6

    def test_trace_jumps_bounded_after_refinement(self):
        w = second_fundamental_form(product_family(40, 35))
        _, trace = index_at_origin(w)
        psi = trace.unwrapped
        jumps = [abs(b - a) for a, b in zip(psi, psi[1:])]
        assert max(jumps) <= math.pi / 2 + 1e-12

    def test_trace_csv(self, tmp_path):
        w = second_fundamental_form(saddle_family(3))
        _, trace = index_at_origin(w)
        out = tmp_path / "trace.csv"
        trace.to_csv(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "phi,line_angle,doubled_angle_unwrapped"
        assert len(lines) == len(trace.samples) + 1

    def test_residual_tight_at_high_sampling(self):
        for m in range(3, 11):
            w = second_fundamental_form(saddle_family(m))
            half, _ = index_at_origin(w)
            assert half.residual < 1e-9

    def test_refinement_engages_on_fast_winding(self):
        # the ladder form whose default sampling steps close to the branch
        # separation; the margin rule must bisect and still land on the
        # true index
        w = second_fundamental_form(product_family(40, 35))
        half, trace = index_at_origin(w)
        assert half.value == Fraction(2 - 40, 2)
        assert trace.refinement_depth >= 1

    def test_high_degree_at_default_sampling(self):
        w = second_fundamental_form(saddle_family(30))
        half, _ = index_at_origin(w)
        assert half.value == Fraction(-28, 2)


class TestOriginIndex:
    @pytest.mark.parametrize("m", range(3, 101))
    def test_saddle_agrees_with_float(self, m):
        w = second_fundamental_form(saddle_family(m))
        exact = origin_index(w)
        assert exact.value == index_at_origin(w)[0].value == Fraction(2 - m, 2)
        assert exact.residual == 0

    @pytest.mark.parametrize("m,k", PRODUCT_LADDER)
    def test_product_ladder_agrees_with_float(self, m, k):
        w = second_fundamental_form(product_family(m, k))
        assert origin_index(w).value == index_at_origin(w)[0].value == Fraction(2 - m, 2)

    def test_random_hyperbolic_forms_agree_with_float(self, rng):
        checked = 0
        while checked < 200:
            f = random_homopoly(rng, rng.randint(2, 9), max_abs=5)
            if not is_hyperbolic(f)[0]:
                continue
            w = second_fundamental_form(f)
            assert origin_index(w).value == index_at_origin(w)[0].value, f
            checked += 1

    @pytest.mark.parametrize("m", [86, 90, 112, 120, 200])
    def test_float_layer_past_the_old_cliffs(self, m):
        # the monomial basis miscounted lines from m = 86 and lost the index
        # from m = 112 on
        w = second_fundamental_form(saddle_family(m))
        assert count_separatrices(w)[0] == m
        assert index_at_origin(w)[0].value == origin_index(w).value

    @pytest.mark.parametrize("m", [112, 120, 200])
    def test_saddle_past_the_float_cliff(self, m):
        assert origin_index(second_fundamental_form(saddle_family(m))).value == Fraction(2 - m, 2)

    def test_constant_field(self):
        assert origin_index(second_fundamental_form(parse("x*y"))).numerator == 0

    def test_common_zero_at_vertical_direction_raises(self):
        # II of x^4 is 12x^2 dx^2: A - C and B both vanish at (0, 1)
        with pytest.raises(DomainError):
            origin_index(second_fundamental_form(parse("x^4")))

    def test_common_zero_off_vertical_direction_raises(self):
        # II of y^4 is 12y^2 dy^2: A - C and B both vanish at (1, 0)
        with pytest.raises(DomainError):
            origin_index(second_fundamental_form(parse("y^4")))
