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
    trace_foliation,
)
from hesstop.polyalg import (
    HomoPoly,
    multiply,
    parse,
    product_family,
    radial_family,
    saddle_family,
)
from hesstop.quadform import QuadForm, second_fundamental_form

from helpers import (
    asymptotic_lines,
    hopf_model_form,
    line_distance,
    random_homopoly,
    reference_trace,
    reflected_form,
    reflection_identity_holds,
)


def _random_hyperbolic(seed):
    rng = random.Random(seed)
    while True:
        f = random_homopoly(rng, rng.randint(3, 8))
        if is_hyperbolic(f)[0]:
            return f


def _rotation_field(c, s):
    """The line field whose branch keeps the angle psi = (alpha + pi)/2 to
    the radius, (c, s) = (cos alpha, sin alpha): its leaves are the log
    spirals log r = -tan(alpha/2) (phi - phi_seed)."""
    return QuadForm(HomoPoly(2, (-s, -2 * c, s)), HomoPoly(2, (c, -2 * s, -c)),
                    HomoPoly(2, (s, 2 * c, -s)))


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

    @pytest.mark.parametrize("m", [7, 120, 1024])
    def test_saddle_rays_are_the_roots_to_rounding(self, m):
        # the ray is the evaluated point of smallest |h|, a secant point at
        # the root, not the midpoint of the final 1e-8 bracket
        _, rays = count_separatrices(second_fundamental_form(saddle_family(m)))
        exact = [(2 * k + 1) * math.pi / (2 * m) for k in range(2 * m)]
        assert len(rays) == len(exact)
        assert max(abs(got - want) for got, want in zip(rays, exact)) <= 1e-12

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

        def trace(w):
            return trace_foliation(w, seeds=12)

        monkeypatch.setattr(lineindex, "_float_coeffs", refuse)
        w = second_fundamental_form(saddle_family(3))
        for sampler in (count_separatrices, lineindex.index_at_origin, trace):
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
        [(saddle_family(7), 8), (product_family(12, 5), 6), (parse("x*y"), 6)],
        ids=["P7", "f12,5", "xy"],
    )
    def test_matches_the_angle_based_reference(self, f, seeds):
        _assert_same_leaves(second_fundamental_form(f), seeds)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_forms_match_the_angle_based_reference(self, seed):
        _assert_same_leaves(second_fundamental_form(_random_hyperbolic(seed)), 4)

    @pytest.mark.parametrize(
        "f,seeds",
        [
            (saddle_family(7), 24),
            (product_family(12, 5), 12),
            (_random_hyperbolic(0), 8),
            (_random_hyperbolic(1), 8),
        ],
        ids=["P7", "f12,5", "random0", "random1"],
    )
    def test_one_foliation_per_figure(self, f, seeds):
        # leaves of one branch never cross, while leaves of the two
        # branches cross transversally
        cs = trace_foliation(second_fundamental_form(f), seeds=seeds)
        leaves = [cs.curves[i:i + 2] for i in range(0, len(cs.curves), 2)]
        assert _crossing_leaf_pairs(leaves) == set()

    @pytest.mark.parametrize("c,s,one_turn", [(Fraction(3, 5), Fraction(4, 5), 0),
                                              (Fraction(399, 401), Fraction(40, 401), 12)])
    def test_constant_rotation_field_gives_log_spirals(self, c, s, one_turn):
        # the branch keeps the angle psi = (alpha + pi)/2 to the radius,
        # (c, s) = (cos alpha, sin alpha), so each leaf is the log spiral
        # log r = -tan(alpha/2) (phi - phi_seed); the flatter one changes
        # log r by 0.05 * 2 pi < log R_MAX in a turn, and every half-leaf
        # takes the one-turn exit
        w = _rotation_field(c, s)
        slope = -float(s / (1 + c))
        ends = []
        for curve in trace_foliation(w, seeds=6).curves:
            phi0 = math.atan2(curve[0][1], curve[0][0])
            phi = phi0
            for x, y in curve[1:]:
                phi += math.remainder(math.atan2(y, x) - phi, 2.0 * math.pi)
                assert math.log(math.hypot(x, y)) / (phi - phi0) == pytest.approx(
                    slope, abs=1e-9)
            r = math.hypot(*curve[-1])
            on_boundary = min(abs(r - R_MIN), abs(r - R_MAX)) < 1e-12
            assert on_boundary or abs(abs(phi - phi0) - 2.0 * math.pi) < 1e-12
            ends.append(on_boundary)
        assert ends.count(False) == one_turn

    def test_elliptic_form_is_not_traced(self):
        with pytest.raises(NotHyperbolicHere, match="discriminant"):
            trace_foliation(second_fundamental_form(parse("x^2 + y^2")), seeds=1)

    def test_curves_stay_in_annulus(self):
        # no leaf of P3 reaches the inner circle, and every leaf of the log
        # spiral field ends on it in one of its two directions
        for w, seeds, inner_ends in (
            (second_fundamental_form(saddle_family(3)), 6, 0),
            (_rotation_field(Fraction(3, 5), Fraction(4, 5)), 64, 64),
        ):
            cs = trace_foliation(w, seeds=seeds)
            for curve in cs.curves:
                for x, y in curve:
                    r = math.hypot(x, y)
                    assert R_MIN <= r <= R_MAX + 1e-9
            ends = [math.hypot(*curve[-1]) - R_MIN < 1e-12 for curve in cs.curves]
            assert ends.count(True) == inner_ends

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


# 0.02 is about 3 px of the 640-px figure
_LEAF_TOLERANCE = 0.02


def _assert_same_leaves(w, seeds):
    # every point of a seed's leaf lies near the RK4 leaf of the same seed,
    # and every point of the RK4 leaf (every 5th, 5e-3 apart) near the leaf
    got = trace_foliation(w, seeds=seeds).curves
    want = reference_trace(w, seeds)
    for i in range(0, 2 * seeds, 2):
        leaf, ref = got[i:i + 2], want[i:i + 2]
        assert _farthest([p for c in leaf for p in c], ref) <= _LEAF_TOLERANCE
        assert _farthest([p for c in ref for p in c[::5]], leaf) <= _LEAF_TOLERANCE


def _segment_distance(p, a, b):
    dx, dy = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    n = dx * dx + dy * dy
    t = min(max((px * dx + py * dy) / n, 0.0), 1.0) if n else 0.0
    return math.hypot(px - t * dx, py - t * dy)


def _grid(curves, cell, pad):
    """Cells of side ``cell`` mapped to the (curve index, segment) pairs
    whose bounding box, widened by ``pad``, meets them."""
    cells = {}
    for k, curve in enumerate(curves):
        for a, b in zip(curve, curve[1:]):
            x0, x1 = sorted((a[0], b[0]))
            y0, y1 = sorted((a[1], b[1]))
            for i in range(math.floor((x0 - pad) / cell), math.floor((x1 + pad) / cell) + 1):
                for j in range(math.floor((y0 - pad) / cell), math.floor((y1 + pad) / cell) + 1):
                    cells.setdefault((i, j), []).append((k, a, b))
    return cells


def _farthest(points, curves):
    """Largest distance from ``points`` to the polylines ``curves``, exact
    up to _LEAF_TOLERANCE; above it, some point is farther than that."""
    cell = _LEAF_TOLERANCE
    cells = _grid(curves, cell, cell)
    worst = 0.0
    for p in points:
        near = cells.get((math.floor(p[0] / cell), math.floor(p[1] / cell)), ())
        worst = max(worst, min((_segment_distance(p, a, b) for _, a, b in near), default=math.inf))
    return worst


def _crossing_leaf_pairs(leaves):
    """Pairs of leaves (each a list of polylines) with a proper segment
    crossing farther than 1e-9 from every end point of both leaves."""
    owner = [k for k, leaf in enumerate(leaves) for _ in leaf]
    ends = [[c[0] for c in leaf] + [c[-1] for c in leaf] for leaf in leaves]
    pairs = set()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    for segs in _grid([c for leaf in leaves for c in leaf], 0.05, 0.0).values():
        for n, (k1, a, b) in enumerate(segs):
            for k2, c, d in segs[n + 1:]:
                i, j = sorted((owner[k1], owner[k2]))
                if i == j or (i, j) in pairs:
                    continue
                o1, o2 = cross(a, b, c), cross(a, b, d)
                o3, o4 = cross(c, d, a), cross(c, d, b)
                if o1 * o2 >= 0.0 or o3 * o4 >= 0.0:
                    continue
                t = o3 / (o3 - o4)
                p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                if all(math.dist(p, e) > 1e-9 for e in ends[i] + ends[j]):
                    pairs.add((i, j))
    return pairs


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
