import math
import random
from fractions import Fraction

import pytest

from hesstop import lineindex
from hesstop.classify import count_real_roots, is_hyperbolic
from hesstop.errors import DomainError, NotHyperbolicHere
from hesstop.foliation import (
    _ALIGN_TOL,
    MAX_SEEDS,
    R_MAX,
    R_MIN,
    alignment_form,
    count_separatrices,
    curves_to_csv,
    curves_to_svg,
    hopf_model_form,
    reflected_form,
    reflection_identity_holds,
    trace_foliation,
)
from hesstop.polyalg import multiply, parse, product_family, radial_family, saddle_family
from hesstop.quadform import QuadForm, second_fundamental_form

from helpers import asymptotic_lines, line_distance, random_homopoly, reference_trace


class TestSeparatrices:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_saddle_line_count(self, m):
        count, rays = count_separatrices(second_fundamental_form(saddle_family(m)))
        assert count == m
        assert len(rays) == 2 * m  # rays come in antipodal pairs

    @pytest.mark.parametrize("m,k", [(3, 1), (4, 1), (3, 2)])
    def test_product_keeps_saddle_count(self, m, k):
        f = multiply(saddle_family(m), radial_family(k))
        count, _ = count_separatrices(second_fundamental_form(f))
        assert count == m

    def test_xy_axes(self):
        # both axis lines are leaves: 4 ray angles, 2 invariant lines
        count, rays = count_separatrices(second_fundamental_form(parse("x*y")))
        assert count == 2
        assert len(rays) == 4
        expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        for got, want in zip(sorted(rays), expected):
            assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize(
        "f", [parse("x*y"), saddle_family(7), product_family(12, 5)], ids=["xy", "P7", "f12,5"]
    )
    def test_rays_are_lines_and_their_antipodes(self, f):
        # the scan covers a half turn; the second half of the rays is the
        # first half plus pi, exactly
        count, rays = count_separatrices(second_fundamental_form(f))
        lines = rays[:count]
        assert all(0.0 <= t < math.pi for t in lines)
        assert lines == sorted(lines)
        assert rays[count:] == [t + math.pi for t in lines]

    def test_random_hyperbolic_forms_match_the_exact_count(self, rng):
        # 8- to 20-bit coefficients, some of them Fractions; the exact count
        # is the distinct real roots of the alignment form's slice, plus the
        # line x = 0 when the form vanishes at (0, 1)
        checked = 0
        while checked < 60:
            f = random_homopoly(rng, rng.randint(2, 9), max_abs=2 ** rng.randint(8, 20))
            if not is_hyperbolic(f)[0]:
                continue
            w = second_fundamental_form(f)
            h = alignment_form(w)
            exact = count_real_roots(h.coeffs) + (h.coeffs[h.degree] == 0)
            assert count_separatrices(w)[0] == exact, f
            checked += 1

    @pytest.mark.parametrize("m", [3, 7, 40, 120, 1024])
    def test_saddle_rays_are_exact_to_the_bracket(self, m):
        # f = Re (x + iy)^m vanishes on the rays (k + 1/2) pi / m
        _, rays = count_separatrices(second_fundamental_form(saddle_family(m)))
        exact = [(k + 0.5) * math.pi / m for k in range(2 * m)]
        assert len(rays) == len(exact)
        assert max(abs(got - want) for got, want in zip(rays, exact)) <= _ALIGN_TOL

    def test_alignment_form_of_second_fundamental_form(self):
        # Euler: x^2 f_xx + 2xy f_xy + y^2 f_yy = n(n - 1) f
        f = parse("3*x^5 - 2/3*x^2*y^3 + x*y^4 - 7*y^5")
        assert alignment_form(second_fundamental_form(f)) == 20 * f

    def test_rays_are_actually_radial(self):
        w = second_fundamental_form(saddle_family(4))
        _, rays = count_separatrices(w)
        for phi in rays:
            x, y = math.cos(phi), math.sin(phi)
            pair = asymptotic_lines(w, x, y)
            radial = phi % math.pi
            assert min(line_distance(t, radial) for t in pair) < 1e-6


class TestFloatEntryPoint:
    def test_every_float_path_reads_float_coeffs(self, monkeypatch):
        # the census test refuses this one function to prove that nothing
        # in certification samples, so every sampler must go through it
        def refuse(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(lineindex, "_float_coeffs", refuse)
        w = second_fundamental_form(saddle_family(3))
        for sampler in (count_separatrices, lineindex.index_at_origin, trace_foliation):
            with pytest.raises(AssertionError, match="sampled"):
                sampler(w)


class TestHopfModel:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_model_separatrix_count(self, m):
        count, _ = count_separatrices(hopf_model_form(m))
        assert count == m

    def test_model_alignment_is_sine(self):
        w = hopf_model_form(5)
        for i in range(24):
            phi = 2 * math.pi * i / 24 + 0.05
            c, s = math.cos(phi), math.sin(phi)
            A, B, C = (float(p.evaluate(c, s)) for p in (w.a, w.b, w.c))
            h = A * c * c + 2 * B * c * s + C * s * s
            assert h == pytest.approx(math.sin(5 * phi), abs=1e-12)

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_odd_reflection_identity(self, m):
        assert reflection_identity_holds(m)

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_reflection_identity_exact_form(self, m):
        lhs = reflected_form(second_fundamental_form(saddle_family(m)))
        sign = (-1) ** ((m - 1) // 2)
        rhs = hopf_model_form(m).scale(Fraction(sign * m * (m - 1)))
        assert lhs.a == rhs.a and lhs.b == rhs.b and lhs.c == rhs.c


class TestTracing:
    def test_xy_traces_are_straight(self):
        cs = trace_foliation(second_fundamental_form(parse("x*y")), seeds=4)
        for curve in cs.curves:
            xs = {round(x, 9) for x, _ in curve}
            ys = {round(y, 9) for _, y in curve}
            assert len(xs) == 1 or len(ys) == 1

    @pytest.mark.parametrize(
        "f,seeds",
        [(saddle_family(7), 24), (product_family(12, 5), 6), (parse("x*y"), 6)],
        ids=["P7", "f12,5", "xy"],
    )
    def test_matches_the_angle_based_reference(self, f, seeds):
        _assert_same_curves(second_fundamental_form(f), seeds)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_forms_match_the_angle_based_reference(self, seed):
        rng = random.Random(seed)
        while True:
            f = random_homopoly(rng, rng.randint(3, 8))
            if is_hyperbolic(f)[0]:
                break
        _assert_same_curves(second_fundamental_form(f), 4)

    def test_elliptic_form_is_not_traced(self):
        with pytest.raises(NotHyperbolicHere, match="discriminant"):
            trace_foliation(second_fundamental_form(parse("x^2 + y^2")), seeds=1)

    def test_curves_stay_in_annulus(self):
        cs = trace_foliation(second_fundamental_form(saddle_family(3)), seeds=6)
        for curve in cs.curves:
            for x, y in curve:
                r = math.hypot(x, y)
                assert R_MIN <= r <= R_MAX + 1e-9

    def test_distinct_seed_curves_do_not_collide(self):
        cs = trace_foliation(second_fundamental_form(saddle_family(3)), seeds=4)
        # curves come in +/- pairs per seed; join them per seed
        per_seed = [
            cs.curves[2 * i][::10] + cs.curves[2 * i + 1][::10]
            for i in range(len(cs.curves) // 2)
        ]
        for i in range(len(per_seed)):
            for j in range(i + 1, len(per_seed)):
                dmin = min(
                    math.hypot(x1 - x2, y1 - y2)
                    for x1, y1 in per_seed[i]
                    for x2, y2 in per_seed[j]
                )
                assert dmin > 1e-3

    def test_sector_count_attached(self):
        cs = trace_foliation(second_fundamental_form(saddle_family(4)), seeds=2)
        assert cs.sector_count == 4

    @pytest.mark.parametrize("seeds", [0, -5, MAX_SEEDS + 1])
    def test_seed_count_outside_range_is_refused(self, seeds):
        with pytest.raises(DomainError, match=str(MAX_SEEDS)):
            trace_foliation(second_fundamental_form(saddle_family(3)), seeds=seeds)


def _assert_same_curves(w, seeds):
    # direction vectors and line angles pick the same branch and differ
    # only by rounding: about 1e-15 at most, against a bound of 1e-9
    got = trace_foliation(w, seeds=seeds).curves
    want = reference_trace(w, seeds)
    assert [len(c) for c in got] == [len(c) for c in want]
    for curve, ref in zip(got, want):
        for (x, y), (rx, ry) in zip(curve, ref):
            assert abs(x - rx) <= 1e-9 and abs(y - ry) <= 1e-9


class TestFigures:
    def test_svg_output(self, tmp_path):
        cs = trace_foliation(second_fundamental_form(saddle_family(3)), seeds=3)
        path = tmp_path / "out.svg"
        curves_to_svg(cs, str(path))
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == len(cs.curves)
        assert text.count("<line") == len(cs.separatrix_angles)

    def test_csv_output(self, tmp_path):
        cs = trace_foliation(second_fundamental_form(saddle_family(3)), seeds=2)
        path = tmp_path / "out.csv"
        curves_to_csv(cs, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "curve_id,x,y"
        assert len(lines) == 1 + sum(len(c) for c in cs.curves)
