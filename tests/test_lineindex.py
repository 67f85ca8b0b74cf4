import cmath
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from hesstop.errors import DomainError, NotHyperbolicHere
from hesstop import classify, lineindex
from hesstop.classify import (
    FOURIER_CONSTANT,
    _fourier_halves,
    _hyperbolic_verdict,
    is_hyperbolic,
)
from hesstop.census import enumerate_rows
from hesstop.lineindex import (
    CAUCHY_CHAIN,
    ROUCHE,
    HalfIndex,
    _cauchy_index,
    _dominant_term,
    _float_coeffs,
    _grid,
    hyperbolic_index,
    index_at_origin,
)
from hesstop.isotopy import certify_product_isotopy
from hesstop.polyalg import (
    HomoPoly,
    _numerators,
    multiply,
    parse,
    product_family,
    radial_family,
    saddle_family,
)
from hesstop.foliation import alignment_form, count_separatrices
from hesstop.quadform import QuadForm, second_fundamental_form

from helpers import (
    _directions_from_values,
    asymptotic_lines,
    dense_horner_abc,
    fourier_constant_forms,
    line_distance,
    random_homopoly,
    reference_dominant_winding,
    reference_at,
    reference_float_coeffs,
    reference_grid_index_at_origin,
    reference_grid_separatrices,
    reference_index_at_origin,
    reference_origin_index,
    reference_separatrix_scan,
)

# (m, k) of the benchmark's product ladder, total degrees 5 to 110
PRODUCT_LADDER = ((3, 1), (8, 2), (12, 5), (20, 6), (30, 10), (40, 12), (50, 20), (40, 35))


def _at(terms, odd, z):
    """``lineindex._at`` at the one unit point z: each form's value there."""
    return [row[0] for row in lineindex._at(terms, odd, [z])]


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
        # one term per nonzero Fourier power, the powers read back from the
        # gaps and the tail
        halves = [_fourier_halves(_numerators(p.coeffs)[0]) for p in forms]
        nonzero = [i for i in range(d // 2 + 1) if any(any(h[i]) for h in halves)]
        steps, tail = terms
        powers = [tail]
        for gap, *_ in steps[:0:-1]:
            powers.append(powers[-1] + gap)
        assert powers == nonzero
        for t in CIRCLE_T:
            x, y = _circle_point(t)
            got = _at(terms, odd, complex(float(x), float(y)))
            exact = [p.evaluate(x, y) for p in forms]
            assert got[0] == 0.0 and exact[0] == 0
            ratios = [g / float(e) for g, e in zip(got[1:], exact[1:]) if e != 0]
            assert all(r > 0 for r in ratios)
            assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


def _exact_on_circle(p, t):
    """p at the rational unit point of t, exactly: the integer form at
    (q^2 - r^2, 2qr) over (q^2 + r^2)^degree, for t = r/q."""
    r, q = t.numerator, t.denominator
    return Fraction(p.evaluate(q * q - r * r, 2 * q * r), (q * q + r * r) ** p.degree)


class TestSparseEvaluation:
    """_at and _grid read only the nonzero Fourier powers."""

    @pytest.mark.parametrize("m", [3, 7, 120, 1024])
    def test_saddle_alignment_is_one_term(self, m):
        h = alignment_form(second_fundamental_form(saddle_family(m)))
        steps, tail = _float_coeffs(h.degree, h)
        assert len(steps) == 1 and tail == h.degree // 2

    @pytest.mark.parametrize("m,k", PRODUCT_LADDER)
    def test_product_abc_has_at_most_three_terms(self, m, k):
        w = second_fundamental_form(product_family(m, k))
        steps, _ = _float_coeffs(w.degree, w.a, w.b, w.c)
        assert 1 <= len(steps) <= 3

    @pytest.mark.parametrize("d", [0, 1, 2, 7, 40])
    def test_zero_form_evaluates_to_zero(self, d):
        # all-zero forms keep one zero step, which says how many forms
        # there are, so both shapes evaluate to one zero per form
        zero = HomoPoly.zero(d)
        z = complex(math.cos(0.7), math.sin(0.7))
        odd = d % 2 == 1
        terms = _float_coeffs(d, zero, zero, zero)
        assert terms == ([(1, 0j, 0j, 0j)], 0)
        assert _at(terms, odd, z) == [0.0, 0.0, 0.0]
        align = _float_coeffs(d, zero)
        assert _at(align, odd, z) == [0.0]
        # and at every point of both grids
        roots = _index_roots(d)
        grid = _grid(terms, odd, roots, len(roots))
        assert len(grid) == 3 and all(v == 0.0 for row in grid for v in row)
        (values,) = _grid(align, odd, _scan_roots(), 2049, 1e-3)
        assert len(values) == 2049 and all(v == 0.0 for v in values)

    @pytest.mark.parametrize("d", [*range(13), 40, 61, 200])
    def test_dense_forms_match_the_dense_horner_pass_bit_for_bit(self, rng, d):
        forms = [HomoPoly(d, tuple(rng.randint(-(2**40), 2**40) for _ in range(d + 1)))
                 for _ in range(3)]
        terms = _float_coeffs(d, *forms)
        steps, tail = terms
        assert tail == 0 and all(gap == 1 for gap, *_ in steps)
        assert len(steps) == d // 2 + 1
        for _ in range(50):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            z = complex(math.cos(phi), math.sin(phi))
            got = _at(terms, d % 2 == 1, z)
            want = dense_horner_abc(terms, d % 2 == 1, z)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize(
        "f",
        [saddle_family(m) for m in (3, 7, 120, 1024)]
        + [product_family(m, k) for m, k in ((12, 5), (40, 35), (50, 20), (1000, 12))]
        + [saddle_family(16) + product_family(4, 6) * 5,
           saddle_family(300) + product_family(20, 140) * 7],
        ids=["P3", "P7", "P120", "P1024", "f12,5", "f40,35", "f50,20", "f1000,12",
             "P16+5f4,6", "P300+7f20,140"],
    )
    def test_sparse_forms_match_exact_values(self, f):
        # A, B, C and the alignment form at the rational circle points, each
        # set up to its one positive factor, to 1e-12 of its largest value;
        # the two sums have gaps other than 1 between their kept powers
        w = second_fundamental_form(f)
        h = alignment_form(w)
        odd = w.degree % 2 == 1
        points = [_circle_point(t) for t in CIRCLE_T]
        abc = _float_coeffs(w.degree, w.a, w.b, w.c)
        align = _float_coeffs(h.degree, h)
        got = [_at(abc, odd, complex(float(x), float(y))) for x, y in points]
        got_h = [_at(align, odd, complex(float(x), float(y))) for x, y in points]
        for forms, values in (([w.a, w.b, w.c], got), ([h], got_h)):
            exact = [[float(_exact_on_circle(p, t)) for p in forms] for t in CIRCLE_T]
            flat = [(g, e) for row_g, row_e in zip(values, exact) for g, e in zip(row_g, row_e)]
            g0, e0 = max(flat, key=lambda pair: abs(pair[1]))
            factor = g0 / e0
            assert factor > 0.0
            for g, e in flat:
                assert abs(g - factor * e) <= 1e-12 * abs(g0), (g, e)


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
        # (A - C, 2B) = (2x, 2e-9 y) turns by pi within about 1e-9 rad of
        # phi = pi/2, so the step across it moves the doubled angle by more
        # than pi/2 and must be bisected
        x, y = parse("x"), parse("y")
        w = QuadForm(x, y * Fraction(1, 10**9), -x)
        half, trace = index_at_origin(w)
        assert half.value == reference_origin_index(w).value == Fraction(1, 2)
        assert trace.refinement_depth >= 1

    @pytest.mark.parametrize(
        "f",
        [saddle_family(m) for m in range(3, 11)] + [product_family(12, 5), parse("x*y")],
        ids=[f"P{m}" for m in range(3, 11)] + ["f12,5", "xy"],
    )
    def test_trace_follows_an_asymptotic_line(self, f):
        _assert_valid_trace(second_fundamental_form(f))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_trace_follows_an_asymptotic_line(self, seed):
        rng = random.Random(seed)
        while True:
            f = random_homopoly(rng, rng.randint(3, 8))
            if is_hyperbolic(f)[0]:
                break
        _assert_valid_trace(second_fundamental_form(f))

    def test_high_degree_at_default_sampling(self):
        w = second_fundamental_form(saddle_family(30))
        half, _ = index_at_origin(w)
        assert half.value == Fraction(-28, 2)


def _assert_valid_trace(w):
    """Every traced line is one of the two asymptotic lines at its sample,
    and the unwrapped doubled angle closes on 4 pi times the exact index."""
    _, trace = index_at_origin(w)
    for phi, theta in trace.samples:
        pair = asymptotic_lines(w, math.cos(phi), math.sin(phi))
        assert min(line_distance(theta, t) for t in pair) < 1e-9, (phi, theta, pair)
    assert abs(trace.unwrapped[-1] - 4 * math.pi * reference_origin_index(w).value) < 1e-9


def _exact_index(f):
    """hyperbolic_index(f)'s index, checked against the oracle that reads
    it from II_f alone."""
    half = hyperbolic_index(f)[1]
    assert half == reference_origin_index(second_fundamental_form(f)), f
    return half


class TestOriginIndex:
    """The exact index of hyperbolic_index against its oracle and against
    the sampled winding; the oracle's refusals off the hyperbolic forms."""

    @pytest.mark.parametrize("m", range(3, 101))
    def test_saddle_agrees_with_float(self, m):
        w = second_fundamental_form(saddle_family(m))
        exact = _exact_index(saddle_family(m))
        assert exact.value == index_at_origin(w)[0].value == Fraction(2 - m, 2)
        assert exact.residual == 0

    @pytest.mark.parametrize("m,k", PRODUCT_LADDER)
    def test_product_ladder_agrees_with_float(self, m, k):
        f = product_family(m, k)
        w = second_fundamental_form(f)
        assert _exact_index(f).value == index_at_origin(w)[0].value == Fraction(2 - m, 2)

    def test_random_hyperbolic_forms_agree_with_float(self, rng):
        checked = 0
        while checked < 200:
            f = random_homopoly(rng, rng.randint(2, 9), max_abs=5)
            if not is_hyperbolic(f)[0]:
                continue
            w = second_fundamental_form(f)
            assert _exact_index(f).value == index_at_origin(w)[0].value, f
            checked += 1

    @pytest.mark.parametrize("m", [86, 90, 112, 120, 200])
    def test_float_layer_past_the_old_cliffs(self, m):
        # the monomial basis miscounted lines from m = 86 and lost the index
        # from m = 112 on
        w = second_fundamental_form(saddle_family(m))
        assert count_separatrices(w)[0] == m
        assert index_at_origin(w)[0].value == _exact_index(saddle_family(m)).value

    @pytest.mark.parametrize("m", [112, 120, 200])
    def test_saddle_past_the_float_cliff(self, m):
        assert _exact_index(saddle_family(m)).value == Fraction(2 - m, 2)

    def test_constant_field(self):
        assert _exact_index(parse("x*y")).numerator == 0

    def test_common_zero_at_vertical_direction_raises(self):
        # II of x^4 is 12x^2 dx^2: A - C and B both vanish at (0, 1), which
        # no hyperbolic form allows, so only the oracle meets it
        assert hyperbolic_index(parse("x^4"))[1] is None
        with pytest.raises(DomainError):
            reference_origin_index(second_fundamental_form(parse("x^4")))

    def test_common_zero_off_vertical_direction_raises(self):
        # II of y^4 is 12y^2 dy^2: A - C and B both vanish at (1, 0)
        assert hyperbolic_index(parse("y^4"))[1] is None
        with pytest.raises(DomainError):
            reference_origin_index(second_fundamental_form(parse("y^4")))


class TestDominantWinding:
    """The oracle's index read from one dominant Fourier term of II's own
    (A - C) + 2iB against the Cauchy index chain, wherever the term
    decides."""

    def test_census_joins_up_to_n_60(self):
        # both forms every census row joins: II of the product and II of
        # the saddle factor (the only form of a k = 0 row)
        factors = {(row.m, row.k) for n in range(3, 61) for row in enumerate_rows(n)}
        forms = {product_family(m, k) for m, k in factors} | {saddle_family(m) for m, _ in factors}
        assert len(forms) == 627
        for f in forms:
            w = second_fundamental_form(f)
            assert reference_dominant_winding(w) == _cauchy_index(w), f

    def test_random_hyperbolic_forms_where_it_decides(self, rng):
        decided = checked = 0
        while checked < 300:
            f = random_homopoly(rng, rng.randint(2, 9), max_abs=5)
            ok, _, w = is_hyperbolic(f)
            if not ok:
                continue
            checked += 1
            winding = reference_dominant_winding(w)
            if winding is not None:
                decided += 1
                assert winding == _cauchy_index(w), f
                assert reference_origin_index(w) == HalfIndex(winding, 0.0, ROUCHE)
        assert 200 <= decided < checked

    def test_undecided_product_of_lines_falls_back_to_the_chain(self):
        # five integer lines: no Fourier term outweighs the others
        f = _line_product([(-5, 3), (-8, -7), (8, -6), (2, 9), (-8, 7)])
        ok, _, w = is_hyperbolic(f)
        assert ok and reference_dominant_winding(w) is None
        half = reference_origin_index(w)
        assert half == HalfIndex(-3, 0.0, CAUCHY_CHAIN)
        sampled = index_at_origin(w)[0]
        assert half.value == sampled.value == Fraction(-3, 2)
        assert sampled.method == "sampled-winding"

    def test_a_tie_does_not_decide(self):
        # II of y^4 is 12 y^2 dy^2, and A - C = -12 sin^2 = 6 (cos 2phi - 1)
        # has terms 6, 3 and 3: the constant ties with the rest, and F
        # vanishes at phi = 0
        w = second_fundamental_form(parse("y^4"))
        assert reference_dominant_winding(w) is None
        with pytest.raises(DomainError):
            reference_origin_index(w)


class TestHyperbolicIndex:
    """The index read from f's own Fourier data G_k, the terms of
    (A - C) + 2iB = 4 f_zbarzbar, against the Rouche test on II_f's own
    conversion and the Cauchy index chain."""

    @staticmethod
    def check(f):
        """hyperbolic_index(f) against is_hyperbolic, and its index against
        the oracle's Rouche test and _cauchy_index of II_f; the index, or
        None when f is not hyperbolic.  Where the verdict's kernel built II_f, it is
        second_fundamental_form(f), and so is is_hyperbolic's."""
        cert, half = hyperbolic_index(f)
        ok, want, w = is_hyperbolic(f)
        assert cert == want and w == second_fundamental_form(f), f
        _, built, _ = _hyperbolic_verdict(f)
        assert built is None if cert.method == FOURIER_CONSTANT else built == w, f
        if not ok:
            assert half is None, f
            return None
        winding = reference_dominant_winding(w)
        assert half.method == (CAUCHY_CHAIN if winding is None else ROUCHE), f
        assert half.numerator == _cauchy_index(w), f
        assert half == reference_origin_index(w), f
        return half

    def test_census_rows_up_to_n_60(self):
        rows = [row for n in range(3, 61) for row in enumerate_rows(n)]
        for row in rows:
            half = self.check(product_family(row.m, row.k))
            assert half == HalfIndex(2 - row.m, 0.0, ROUCHE), row

    def test_seeded_forms_of_the_constant_test(self):
        methods = [half.method for f in fourier_constant_forms()
                   if (half := self.check(f)) is not None]
        assert methods.count(ROUCHE) == 52 and methods.count(CAUCHY_CHAIN) == 8, methods

    def test_isotopy_joins(self):
        # the two forms a product isotopy joins are II_{pq} and II_p, so
        # their indexes are read from pq and p themselves
        pairs = [(row.m, row.k) for n in range(5, 16) for row in enumerate_rows(n) if row.k]
        pairs += [(5, 5), (6, 10), (20, 6), (11, 50), (112, 1)]
        for m, k in pairs:
            p, q = saddle_family(m), radial_family(k)
            cert = certify_product_isotopy(p, q)
            for f, w in zip((multiply(p, q), p), cert.joins):
                assert w == second_fundamental_form(f)
                half = self.check(f)
                assert half == HalfIndex(2 - m, 0.0, ROUCHE), (m, k)

    def test_clustered_product_falls_back_to_the_chain(self):
        # the 41 clustered integer lines of the CI classify step: no term
        # of f_zbarzbar dominates, and the chain reads the index
        lines = [(64, 1)] + [(j, 1) if j % 3 == 0 else (1, j) for j in range(-20, 21) if j]
        f = _line_product(lines)
        half = self.check(f)
        assert half == HalfIndex(-39, 0.0, CAUCHY_CHAIN)

    @pytest.mark.parametrize(
        "text", ["x^2 + y^2", "x^6 + 3*x^4*y^2 + 3*x^2*y^4 + y^6", "x^4 - y^4", "x^2*y^2"]
    )
    def test_no_index_off_the_hyperbolic_forms(self, text):
        assert self.check(parse(text)) is None

    def test_ii_built_only_for_the_chain(self, monkeypatch):
        # hyperbolic_index builds II_f only where neither the verdict nor
        # the index is read from the Fourier data: for the chain, or for
        # the sign kernel, which then hands it on
        built = []

        def counted(f):
            built.append(f)
            return second_fundamental_form(f)

        for module in (classify, lineindex):
            monkeypatch.setattr(module, "second_fundamental_form", counted)
        lines = [(64, 1)] + [(j, 1) if j % 3 == 0 else (1, j) for j in range(-20, 21) if j]
        forms = fourier_constant_forms() + [_line_product(lines), saddle_family(85)]
        chains = 0
        for f in forms:
            built.clear()
            cert, half = hyperbolic_index(f)
            chained = half is not None and half.method == CAUCHY_CHAIN
            chains += chained
            assert len(built) == (cert.method != FOURIER_CONSTANT or chained), f
            assert built in ([], [f]), f
        assert chains == 9

    def test_zero_terms_between_the_nonzero_ones(self, monkeypatch):
        # the Rouche norms hold only the nonzero G_k, k <= d - 2: for
        # P_m (x^2 + y^2)^k at e = 2k - d + 2 and, when k >= 2, at e = m + 2
        # (G_(m+k)), with zero terms between them, and for P_m at 2 - m
        # only; never empty, each norm nonzero, and with the zero terms put
        # back the test still gives the same winding, the index of II_f
        seen = []

        def spy(norms):
            seen.append(norms)
            return _dominant_term(norms)

        monkeypatch.setattr(lineindex, "_dominant_term", spy)
        for m, k in ((5, 2), (7, 3), (38, 1), (9, 0), (40, 35)):
            f = product_family(m, k)
            d = f.degree
            seen.clear()
            _, half = hyperbolic_index(f)
            (norms,) = seen
            want = {2 * k - d + 2} | ({m + 2} if k >= 2 else set())
            assert set(norms) == want and all(norms.values()), (m, k)
            dense = dict.fromkeys(range(2 - d, d - 1, 2), 0) | norms
            assert _dominant_term(dense) == half.numerator == 2 - m, (m, k)
            assert half == reference_origin_index(second_fundamental_form(f)), (m, k)

    def test_dominant_term_is_strict(self):
        # |h_0| = 2 against |h_1| + |h_-1| = 2 ties and does not decide;
        # one unit more decides
        assert _dominant_term({0: 4, 1: 1, -1: 1}) is None
        assert _dominant_term({0: 9, 1: 1, -1: 1}) == 0
        assert _dominant_term({3: 10 ** 6, -3: 0, 5: 1}) == 3


# --- grids, packing and the per-sample oracle --------------------------------

# the benchmark's saddle ladder
SADDLE_LADDER = (
    3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 56, 64, 72, 80, 84, 85,
    86, 88, 90, 95, 100, 105, 110, 111, 112, 115, 120,
)


def _line_product(pairs):
    """The product of the linear forms a x + b y."""
    f = HomoPoly(0, (1,))
    for a, b in pairs:
        f = multiply(f, HomoPoly(1, (a, b)))
    return f


def _fan(n):
    """n distinct integer lines spread over the half turn: the product is
    hyperbolic with index (2 - n)/2, and its A, B, C are dense."""
    angles = [math.pi * (k + 0.3) / n for k in range(n)]
    return _line_product((round(64 * math.cos(t)), round(64 * math.sin(t))) for t in angles)


def _index_roots(degree):
    n = max(1024, 8 * degree)
    return [cmath.rect(1.0, 2.0 * math.pi * i / n) for i in range(n)]


def _scan_roots():
    return [cmath.rect(1.0, 2.0 * math.pi * j / 4096) for j in range(4096)]


class TestPackedConversion:
    """The packed conversion gives exactly the data of converting each form
    by itself."""

    @pytest.mark.parametrize("d", [0, 1, 2, 7, 40, 700, 1022])
    def test_packed_equals_per_form(self, rng, d):
        rational = random_homopoly(rng, d, max_abs=9)
        big = HomoPoly(d, tuple(rng.randint(-(2**260), 2**260) for _ in range(d + 1)))
        small = HomoPoly(d, tuple(rng.randint(-9, 9) for _ in range(d + 1)))
        forms = [rational, HomoPoly.zero(d), big, small]
        assert _float_coeffs(d, *forms) == reference_float_coeffs(d, *forms)
        assert _float_coeffs(d, big, small) == reference_float_coeffs(d, big, small)
        assert _float_coeffs(d, rational) == reference_float_coeffs(d, rational)

    @pytest.mark.parametrize(
        "f",
        [saddle_family(m) for m in (3, 24, 85, 120, 1024)]
        + [product_family(m, k) for m, k in PRODUCT_LADDER] + [_fan(43)],
        ids=[f"P{m}" for m in (3, 24, 85, 120, 1024)]
        + [f"f{m},{k}" for m, k in PRODUCT_LADDER] + ["fan43"],
    )
    def test_line_field_forms(self, f):
        w = second_fundamental_form(f)
        h = alignment_form(w)
        forms = (w.a, w.b, w.c)
        assert _float_coeffs(w.degree, *forms) == reference_float_coeffs(w.degree, *forms)
        assert _float_coeffs(h.degree, h) == reference_float_coeffs(h.degree, h)


class TestGridEvaluators:
    """The grid evaluators against the scalar ones at every grid point."""

    @staticmethod
    def _forms(rng, d):
        dense = [HomoPoly(d, tuple(rng.randint(-(2**40), 2**40) for _ in range(d + 1)))
                 for _ in range(3)]
        # II of a product has the parity of d and at most three Fourier terms
        w = second_fundamental_form(product_family(d, 3))
        return [dense, [w.a, w.b, w.c]]

    @staticmethod
    def _close(got, want):
        top = max(abs(v) for row in want for v in row)
        assert all(abs(g - v) <= 1e-12 * top for rg, rw in zip(got, want) for g, v in zip(rg, rw))

    def _check_grids(self, rng, d, pack):
        # the packs that pack(forms) makes, on the full index grid and on the
        # half-turn scan, with and without an offset
        odd = d % 2 == 1
        for forms in self._forms(rng, d):
            deg = forms[0].degree
            grids = ((_index_roots(deg), max(1024, 8 * deg)), (_scan_roots(), 2049))
            for group in pack(forms):
                terms = _float_coeffs(deg, *group)
                for (roots, count), offset in product(grids, (0.0, 1e-3)):
                    got = _grid(terms, odd, roots, count, offset)
                    assert len(got) == len(group) and all(len(row) == count for row in got)
                    step = 2.0 * math.pi / len(roots)
                    want = [_at(terms, odd, cmath.rect(1.0, offset + step * j))
                            for j in range(count)]
                    self._close(got, [list(row) for row in zip(*want)])

    @pytest.mark.parametrize("d", [7, 8, 41, 140])
    def test_abc_grid_matches_eval_abc(self, rng, d):
        # three forms in one pack, as the index walk evaluates A, B and C
        self._check_grids(rng, d, lambda forms: [forms])

    @pytest.mark.parametrize("d", [7, 8, 41, 140])
    def test_alignment_grid_matches_alignment(self, rng, d):
        # one form per pack, as the separatrix scan evaluates the alignment form
        self._check_grids(rng, d, lambda forms: [[p] for p in forms])

    @pytest.mark.parametrize("d", [0, 2, 8, 40])
    def test_even_forms_with_tail_zero(self, rng, d):
        # the final power z^(2 tail + odd) is z^0 = 1 at every point
        forms = [HomoPoly(d, tuple(rng.randint(-9, 9) or 1 for _ in range(d + 1)))
                 for _ in range(3)]
        terms = _float_coeffs(d, *forms)
        assert terms[1] == 0
        for offset in (0.0, 1e-3):
            roots = _scan_roots()
            got = _grid(terms, False, roots, 2049, offset)
            want = [_at(terms, False, cmath.rect(1.0, offset + math.pi * j / 2048))
                    for j in range(2049)]
            self._close(got, [list(row) for row in zip(*want)])


_ORACLE_FORMS = (
    [(f"P{m}", saddle_family(m)) for m in SADDLE_LADDER + (1024,)]
    + [(f"f{m},{k}", product_family(m, k)) for m, k in PRODUCT_LADDER]
    + [(f"fan{n}", _fan(n)) for n in (42, 43, 135, 140)]
)


class TestPerSampleOracle:
    """index_at_origin and count_separatrices against the per-sample layer
    they replace: the same walk, samples and lines, to rounding."""

    @staticmethod
    def _compare(w):
        ref_half, ref = reference_index_at_origin(w)
        half, trace = index_at_origin(w)
        assert half.numerator == ref_half.numerator
        assert len(trace.samples) == len(ref.samples)
        assert trace.refinement_depth == ref.refinement_depth
        assert [phi for phi, _ in trace.samples] == [phi for phi, _ in ref.samples]
        # the line angles to 1e-9; the running sum of up to 8176 steps (near
        # 6400 at P1024) also carries the rounding of its additions
        for (_, theta), (_, ref_theta) in zip(trace.samples, ref.samples):
            assert line_distance(theta, ref_theta) < 1e-9
        for psi, ref_psi in zip(trace.unwrapped, ref.unwrapped):
            assert abs(psi - ref_psi) < 1e-9 + 1e-12 * abs(ref_psi)
        ref_count, ref_rays = reference_separatrix_scan(w)
        count, rays = count_separatrices(w)
        assert count == ref_count
        assert max((abs(a - b) for a, b in zip(rays, ref_rays)), default=0.0) < 1e-9
        return half, count

    @pytest.mark.parametrize("name,f", _ORACLE_FORMS, ids=[name for name, _ in _ORACLE_FORMS])
    def test_line_field_forms(self, name, f):
        w = second_fundamental_form(f)
        half, count = self._compare(w)
        lines = f.degree if name.startswith("fan") else int(name[1:].split(",")[0])
        assert half.value == Fraction(2 - lines, 2) and count == lines

    @pytest.mark.parametrize("n", [42, 43, 135, 140])
    def test_fans_are_dense(self, n):
        w = second_fundamental_form(_fan(n))
        steps, tail = _float_coeffs(w.degree, w.a, w.b, w.c)
        assert len(steps) >= 20 and tail == 0
        if n > 130:
            # II degree > 128: the index grid of 8 * degree points is not a
            # power of two
            grid = max(1024, 8 * w.degree)
            assert grid & (grid - 1)

    def test_bisected_walk(self):
        # the fast winding near phi = pi/2 is bisected on both sides alike
        x, y = parse("x"), parse("y")
        half, _ = self._compare(QuadForm(x, y * Fraction(1, 10**9), -x))
        assert half.value == Fraction(1, 2)


class TestErrorPath:
    """Where the grid's discriminant is not positive the point is evaluated
    again in walk order, so the error is the per-sample layer's."""

    @staticmethod
    def _error(fn, w):
        with pytest.raises(NotHyperbolicHere) as info:
            fn(w)
        return str(info.value)

    @pytest.mark.parametrize("text,k", [("x^3 + 3*x^2*y + y^3", 91), ("x^3 + x^2*y + 2*y^3", 9)])
    def test_fails_on_a_grid_point(self, text, k):
        w = second_fundamental_form(parse(text))
        message = self._error(index_at_origin, w)
        assert message == self._error(reference_index_at_origin, w)
        phi = 2.0 * math.pi * k / 1024
        assert message.endswith(f"at ({math.cos(phi):.6g}, {math.sin(phi):.6g})")

    def test_clustered_lines_fail_at_the_same_midpoint(self):
        # 136 lines packed near the axes: the discriminant rounds to below
        # zero at a bisection midpoint before the first grid step settles
        pairs = [(j, 1) if j % 3 == 0 else (1, j) for j in range(-68, 68)]
        w = second_fundamental_form(_line_product(pairs))
        message = self._error(index_at_origin, w)
        assert message == self._error(reference_index_at_origin, w)
        assert message.endswith("at (1, 0.000732647)")


# --- whole-grid passes against the per-point loops ---------------------------

def _bisected_forms():
    """Two forms whose walk is bisected: the odd one of
    test_refinement_engages_on_fast_winding, and an even one that winds fast
    near phi = pi/2 and again at its antipode."""
    x, y, a = parse("x"), parse("y"), parse("x^2") - parse("y^2") * Fraction(1, 10**9)
    return [QuadForm(x, y * Fraction(1, 10**9), -x), QuadForm(a, parse("x*y"), -a)]


_GRID_FORMS = (
    [(f"P{m}", second_fundamental_form(saddle_family(m)))
     for m in SADDLE_LADDER + (131, 258, 1024)]
    + [(f"f{m},{k}", second_fundamental_form(product_family(m, k))) for m, k in PRODUCT_LADDER]
    + [(f"fan{n}", second_fundamental_form(_fan(n))) for n in (42, 43, 135, 140)]
    + list(zip(("bisected-odd", "bisected-even"), _bisected_forms()))
)


def _hexes(rows):
    return [[v.hex() for v in row] for row in rows]


class TestWholeGridPasses:
    """index_at_origin and count_separatrices give bit for bit what the
    grid walk and the scan loop gave one grid point and one bracket at a
    time, and the shared table, the half turn and the batched evaluator
    are exact."""

    @pytest.mark.parametrize("name,w", _GRID_FORMS, ids=[name for name, _ in _GRID_FORMS])
    def test_index_walk_is_bit_identical(self, name, w):
        half, trace = index_at_origin(w)
        ref_half, ref = reference_grid_index_at_origin(w)
        assert half == ref_half
        assert trace.samples == ref.samples
        assert trace.unwrapped == ref.unwrapped
        assert trace.refinement_depth == ref.refinement_depth

    @pytest.mark.parametrize("name,w", _GRID_FORMS, ids=[name for name, _ in _GRID_FORMS])
    def test_separatrix_scan_is_bit_identical(self, name, w):
        assert count_separatrices(w) == reference_grid_separatrices(w)

    def test_grid_sizes_take_both_table_paths(self):
        # P131: N = 1032 does not divide 4096 (a table for the call, odd
        # degree, full turn); P258: N = 2048 (the table at stride 2, even
        # degree, half turn)
        forms = dict(_GRID_FORMS)
        for name, n, odd in (("P131", 1032, True), ("P258", 2048, False)):
            w = forms[name]
            assert max(1024, 8 * w.degree) == n and (w.degree % 2 == 1) == odd
            _, trace = index_at_origin(w)
            assert len(trace.samples) == n + 1

    def test_bisected_forms_are_bisected(self):
        for w in _bisected_forms():
            assert index_at_origin(w)[1].refinement_depth >= 1

    @pytest.mark.parametrize("text,k", [("x^3 + 3*x^2*y + y^3", 91), ("x^3 + x^2*y + 2*y^3", 9)])
    def test_grid_point_error_is_the_loops(self, text, k):
        w = second_fundamental_form(parse(text))
        message = TestErrorPath._error(index_at_origin, w)
        assert message == TestErrorPath._error(reference_grid_index_at_origin, w)

    def test_midpoint_error_is_the_loops(self):
        pairs = [(j, 1) if j % 3 == 0 else (1, j) for j in range(-68, 68)]
        w = second_fundamental_form(_line_product(pairs))
        message = TestErrorPath._error(index_at_origin, w)
        assert message == TestErrorPath._error(reference_grid_index_at_origin, w)

    @pytest.mark.parametrize("n", [1024, 2048, 4096])
    def test_table_at_stride_is_the_per_call_table(self, n):
        got = lineindex._ROOTS[::4096 // n]
        want = [cmath.rect(1.0, 2.0 * math.pi * i / n) for i in range(n)]
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [
            (z.real.hex(), z.imag.hex()) for z in want]

    @pytest.mark.parametrize("d", [0, 2, 8, 40, 118])
    def test_even_grid_repeats_at_the_antipode(self, rng, d):
        dense = [HomoPoly(d, tuple(rng.randint(-(2**40), 2**40) for _ in range(d + 1)))
                 for _ in range(3)]
        # II of a product of even degree d + 6: at most three Fourier terms
        sparse = second_fundamental_form(product_family(d + 2, 3))
        for degree, forms in ((d, dense), (d, dense[:1]),
                              (sparse.degree, [sparse.a, sparse.b, sparse.c])):
            terms = _float_coeffs(degree, *forms)
            for n in (1024, 1032, 2048):
                roots = [cmath.rect(1.0, 2.0 * math.pi * i / n) for i in range(n)]
                half = _grid(terms, False, roots, n // 2)
                assert _hexes(_grid(terms, False, roots, n)) == _hexes(
                    [row + row for row in half])

    @pytest.mark.parametrize("m", [16, 17, 40, 41])
    def test_batched_at_is_the_scalar_at(self, m):
        rng = random.Random(m)
        points = [cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi)) for _ in range(200)]
        # a sum of a saddle and a product: power gaps other than 1
        w = second_fundamental_form(saddle_family(m) + product_family(m - 12, 6) * 5)
        h = alignment_form(w)
        dense = HomoPoly(w.degree, tuple(rng.randint(-(2**40), 2**40)
                                         for _ in range(w.degree + 1)))
        for degree, forms, gaps in ((w.degree, (w.a, w.b, w.c), True), (h.degree, (h,), True),
                                    (w.degree, (dense,), False)):
            terms = _float_coeffs(degree, *forms)
            assert any(gap > 1 for gap, *_ in terms[0]) == gaps
            odd = degree % 2 == 1
            got = lineindex._at(terms, odd, points)
            want = [reference_at(terms, odd, z) for z in points]
            assert _hexes(got) == _hexes([list(row) for row in zip(*want)])
