import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hesstop.classify import (
    SturmChain,
    Verdict,
    certify_nonnegative,
    certify_pairing_nonpositive,
    count_real_roots,
    is_hyperbolic,
    sign_on_punctured_plane,
    _descartes,
    _fujiwara_exponent,
    _positive_roots,
)
from hesstop import classify
from hesstop.census import enumerate_rows
from hesstop.errors import DomainError
from hesstop.polyalg import (
    HomoPoly,
    _convolve,
    multiply,
    parse,
    product_family,
    radial_family,
    saddle_family,
)
from hesstop.quadform import discriminant, hessian_pairing, second_fundamental_form

from conftest import homopolys
from helpers import (
    SIGN_CLASSES,
    _uni_eval,
    cauchy_radius,
    circle_samples,
    descartes_count_roots,
    isolate_real_roots,
    random_homopoly,
    random_sign_class_form,
    reference_rational_root,
    reference_sign_at,
    reference_strict_violation_witness,
    squarefree_with_known_roots,
)

F = Fraction


class TestSturm:
    def test_known_root_counts(self):
        assert count_real_roots([F(-2), F(0), F(1)]) == 2  # t^2 - 2
        assert count_real_roots([F(1), F(0), F(1)]) == 0  # t^2 + 1
        assert count_real_roots([F(0), F(1)]) == 1  # t
        assert count_real_roots([F(5)]) == 0

    def test_multiple_roots_counted_once(self):
        # (t - 1)^2 (t + 2)
        u = [F(2), F(-3), F(0), F(1)]
        assert count_real_roots(u) == 2

    def test_chain_terminal_relates_to_gcd(self):
        u = [F(2), F(-3), F(0), F(1)]
        chain = SturmChain.of(u)
        degrees = [len(p) - 1 for p in chain.polys]
        assert degrees == sorted(degrees, reverse=True)

    def test_interval_count(self):
        u = [F(-2), F(0), F(1)]  # roots at +-sqrt(2)
        intervals = isolate_real_roots(u)
        assert len(intervals) == 2
        assert all(descartes_count_roots(u, lo, hi) == 1 for lo, hi in intervals)
        (a, b), (c, d) = intervals
        bound = 2 ** _fujiwara_exponent([-2, 0, 1])
        assert -bound <= a and d <= bound and b <= c
        assert descartes_count_roots(u, -bound, bound) == 2
        assert descartes_count_roots(u, F(2), F(3)) == 0

    def test_agrees_with_descartes_isolator(self, rng):
        # 100 random squarefree slices with known real-root counts
        for _ in range(100):
            n_real = rng.randint(0, 4)
            n_pairs = rng.randint(0, 2)
            u, expected = squarefree_with_known_roots(rng, n_real, n_pairs)
            assert count_real_roots(u) == expected
            radius = cauchy_radius(u) + 1
            assert descartes_count_roots(u, -radius, radius) == expected

    def test_isolation_brackets_each_root_once(self, rng):
        for _ in range(30):
            u, expected = squarefree_with_known_roots(
                rng, rng.randint(1, 4), rng.randint(0, 1)
            )
            intervals = isolate_real_roots(u)
            assert len(intervals) == expected
            for lo, hi in intervals:
                assert lo <= hi
                if lo < hi:
                    assert descartes_count_roots(u, lo, hi) == 1
                else:
                    assert _eval(u, lo) == 0


class TestCauchyIndex:
    """SturmChain.of(u, v) reads Ind(v/u) as V(-inf) - V(+inf)."""

    @staticmethod
    def index(u, v):
        chain = SturmChain.of(u, v)
        return chain.variations_at_minus_inf() - chain.variations_at_plus_inf()

    def test_simple_poles(self):
        assert self.index([F(0), F(1)], [F(1)]) == 1  # 1/t jumps -inf -> +inf
        assert self.index([F(0), F(1)], [F(-1)]) == -1
        assert self.index([F(1), F(0), F(1)], [F(1)]) == 0  # no real pole
        assert self.index([F(0), F(0), F(1)], [F(1)]) == 0  # even pole

    def test_agrees_with_residue_signs(self, rng):
        # u with simple integer roots r: Ind(v/u) = sum of sign(v(r) u'(r))
        for _ in range(40):
            roots = rng.sample(range(-6, 7), rng.randint(1, 5))
            u = [F(1)]
            for r in roots:  # u *= (t - r)
                u = [a - r * b for a, b in zip([F(0)] + u, u + [F(0)])]
            v = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 7))]
            du = [u[j] * j for j in range(1, len(u))]
            values = [(_uni_eval(v, F(r)), _uni_eval(du, F(r))) for r in roots]
            if not any(v) or any(a == 0 for a, _ in values):
                continue
            expected = sum(1 if a * b > 0 else -1 for a, b in values)
            assert self.index(u, v) == expected


class TestSignCertificates:
    def test_positive_definite(self):
        cert = sign_on_punctured_plane(parse("36*x^2 + 36*y^2"))
        assert cert.verdict is Verdict.POSITIVE

    def test_negative_constant(self):
        cert = sign_on_punctured_plane(HomoPoly.constant(-4))
        assert cert.verdict is Verdict.NEGATIVE

    def test_mixed_with_witness(self):
        p = parse("x^2 - y^2")
        cert = sign_on_punctured_plane(p)
        assert cert.verdict is Verdict.MIXED
        assert cert.witness is not None
        wx, wy = cert.witness
        assert p.evaluate(wx, wy) < 0

    def test_identically_zero(self):
        assert sign_on_punctured_plane(HomoPoly.zero(4)).verdict is Verdict.ZERO

    def test_odd_degree_is_mixed_with_negative_witness(self):
        p = saddle_family(3)
        cert = sign_on_punctured_plane(p)
        assert cert.verdict is Verdict.MIXED
        assert p.evaluate(*cert.witness) < 0

    def test_semidefinite_rational_zero_line(self):
        cert = sign_on_punctured_plane(parse("8*x^2"))
        assert cert.verdict is Verdict.MIXED
        assert cert.witness == (F(0), F(1))
        assert parse("8*x^2").evaluate(*cert.witness) == 0

    def test_semidefinite_irrational_zeros_have_no_witness(self):
        # (y^2 - 2 x^2)^2 vanishes only on irrational directions
        p = multiply(parse("y^2 - 2*x^2"), parse("y^2 - 2*x^2"))
        cert = sign_on_punctured_plane(p)
        assert cert.verdict is Verdict.MIXED
        assert cert.witness is None
        assert "semidefinite" in cert.method

    @pytest.mark.parametrize("line", [
        [-3, 1], [-2, 1], [5, 7], [-1, 12], [-1000003, 1000], [0, 1],
    ])
    def test_semidefinite_rational_zeros_have_a_witness(self, line):
        # (line)^2 times a definite quadratic, alone and beside the
        # irrational double zeros of (t^2 - 2)^2; the coefficient of t^j in
        # a line is that of y^j
        for extra in ([[1, 1, 3]], [[-2, 0, 1], [-2, 0, 1]]):
            p = _form(_int_product([line, line] + extra))
            cert = sign_on_punctured_plane(p)
            assert cert.verdict is Verdict.MIXED
            assert cert.method == "semidefinite-zeros"
            assert cert.witness is not None and p.evaluate(*cert.witness) == 0

    @given(homopolys(max_degree=8))
    @settings(max_examples=60, deadline=None)
    def test_definite_verdicts_never_contradicted_by_sampling(self, p):
        cert = sign_on_punctured_plane(p)
        values = circle_samples(p, 401)
        if cert.verdict is Verdict.POSITIVE:
            assert all(v > 0 for v in values)
        elif cert.verdict is Verdict.NEGATIVE:
            assert all(v < 0 for v in values)
        elif cert.verdict is Verdict.ZERO:
            assert all(v == 0 for v in values)

    def test_plane_grid_sampler_consistency(self):
        # a denser plane-grid cross-check on two known certificates
        for p, expect_pos in [(parse("x^4 + x^2*y^2 + y^4"), True),
                              (parse("-2*x^4 - y^4"), False)]:
            cert = sign_on_punctured_plane(p)
            want = Verdict.POSITIVE if expect_pos else Verdict.NEGATIVE
            assert cert.verdict is want
            for i in range(-20, 21):
                for j in range(-20, 21):
                    if i == 0 and j == 0:
                        continue
                    v = p.evaluate(F(i, 10), F(j, 10))
                    assert (v > 0) == expect_pos


class TestNonnegativity:
    def test_strict_positive(self):
        cert = certify_nonnegative(radial_family(2))
        assert cert.nonnegative and cert.strict

    def test_semidefinite_square(self):
        p = saddle_family(3)
        cert = certify_nonnegative(4 * multiply(p, p))
        assert cert.nonnegative and not cert.strict

    def test_fails_with_witness(self):
        p = parse("x^2 - y^2")
        cert = certify_nonnegative(p)
        assert not cert.nonnegative
        assert p.evaluate(*cert.witness) < 0

    def test_vertical_direction_violation(self):
        p = parse("x^4 - y^4")
        cert = certify_nonnegative(p)
        assert not cert.nonnegative
        assert p.evaluate(*cert.witness) < 0

    def test_odd_degree_fails(self):
        cert = certify_nonnegative(parse("x^3"))
        assert not cert.nonnegative
        assert parse("x^3").evaluate(*cert.witness) < 0

    def test_zero_polynomial(self):
        cert = certify_nonnegative(HomoPoly.zero(2))
        assert cert.nonnegative and not cert.strict

    def test_nonpositive_mirror(self):
        cert = certify_nonnegative(-parse("-3*x^2 - y^2"))
        assert cert.nonnegative and cert.strict

    @given(homopolys(max_degree=8))
    @settings(max_examples=60, deadline=None)
    def test_never_contradicted_by_sampling(self, p):
        cert = certify_nonnegative(p)
        values = circle_samples(p, 201)
        if cert.nonnegative:
            assert all(v > -1e-9 for v in values)
        else:
            wx, wy = cert.witness
            assert p.evaluate(wx, wy) < 0


class TestClassification:
    def test_monkey_saddle_hyperbolic(self):
        # the verdict hands back the II_f whose discriminant it signed; the
        # dominant Fourier term proves it, and the kernel on disc II_f agrees
        ok, cert, w = is_hyperbolic(saddle_family(3))
        assert ok and cert.verdict is Verdict.POSITIVE
        assert cert.method == classify.FOURIER_CONSTANT and cert.witness is None
        assert w == second_fundamental_form(saddle_family(3))
        assert cert.verdict is sign_on_punctured_plane(discriminant(w)).verdict

    def test_circle_not_hyperbolic_but_elliptic(self):
        ok, cert, _ = is_hyperbolic(radial_family(1))
        assert not ok and cert.verdict is Verdict.NEGATIVE

    def test_degree_five_product_hyperbolic(self):
        ok, _, _ = is_hyperbolic(multiply(saddle_family(3), radial_family(1)))
        assert ok

    @pytest.mark.parametrize("k", range(1, 7))
    def test_radial_powers_elliptic(self, k):
        assert is_hyperbolic(radial_family(k))[1].verdict is Verdict.NEGATIVE

    def test_xy_not_elliptic(self):
        ok, cert, _ = is_hyperbolic(parse("x*y"))
        assert ok and cert.verdict is not Verdict.NEGATIVE

    def test_anisotropic_ellipse(self):
        assert is_hyperbolic(parse("x^2 + 2*y^2"))[1].verdict is Verdict.NEGATIVE

    def test_degree_guard(self):
        with pytest.raises(DomainError):
            is_hyperbolic(parse("x"))

    def test_quartic_with_parabolic_axes_not_hyperbolic(self):
        # x^4 - y^4: the discriminant of its second form vanishes on the axes
        ok, cert, _ = is_hyperbolic(parse("x^4 - y^4"))
        assert not ok
        assert cert.verdict is Verdict.MIXED


def _kernel_verdict(f):
    return sign_on_punctured_plane(discriminant(second_fundamental_form(f))).verdict


class TestFourierDominantConstant:
    """The constant Fourier term of disc II_f on the circle decides exactly
    the census models below the boundary n = m^2, and never disagrees with
    the sign kernel where it decides."""

    dominant = staticmethod(classify._dominant_constant_sign)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_models_decided_exactly_below_the_boundary(self, m):
        # P_m (x^2 + y^2)^k for n = m + 2k up to m^2 + 4, both sides
        for k in range((m * m - m) // 2 + 3):
            n = m + 2 * k
            f = product_family(m, k)
            assert self.dominant(f) == (1 if n < m * m else 0), (m, k)
            if n == m * m:
                # the constant term only equals the rest, and the kernel
                # finds the parabolic rays
                ok, cert, _ = is_hyperbolic(f)
                assert not ok and cert.verdict is Verdict.MIXED
                assert cert.method != classify.FOURIER_CONSTANT

    @pytest.mark.parametrize("k", range(1, 9))
    def test_radial_powers_negative(self, k):
        assert self.dominant(radial_family(k)) == -1
        ok, cert, w = is_hyperbolic(radial_family(k))
        assert not ok and cert.verdict is Verdict.NEGATIVE
        assert cert.method == classify.FOURIER_CONSTANT and cert.witness is None
        assert w == second_fundamental_form(radial_family(k))

    @pytest.mark.parametrize("text", ["x^2", "y^2", "2*x + 3*y", "x - 5*y", "x + y"])
    def test_parabolic_forms_left_to_the_kernel(self, text):
        # x^2 and the powers of a line have disc II_f = 0: every Fourier
        # term is 0, and the kernel answers
        base = parse(text)
        for n in (1, 2, 3, 5, 8):
            f = base ** n
            if f.degree < 2:
                continue
            assert self.dominant(f) == 0
            ok, cert, _ = is_hyperbolic(f)
            assert not ok and cert.verdict is Verdict.ZERO
            assert cert.method != classify.FOURIER_CONSTANT

    def test_every_census_row_to_60(self):
        for n in range(3, 61):
            for row in enumerate_rows(n):
                f = product_family(row.m, row.k)
                assert self.dominant(f) == 1, row
                assert _kernel_verdict(f) is Verdict.POSITIVE, row

    def test_agrees_with_the_kernel_on_random_forms(self):
        rng = random.Random(29)
        forms = [random_homopoly(rng, d, max_abs=9) for d in range(2, 25) for _ in range(8)]
        # products of definite quadratics, and census models plus a small
        # dense perturbation, which the test often decides
        for _ in range(60):
            f = HomoPoly.constant(1)
            for _ in range(rng.randint(1, 4)):
                a, c = rng.randint(1, 9), rng.randint(1, 9)
                f = multiply(f, HomoPoly(2, (a, rng.randint(-2, 2), c)))
            forms.append(f)
        for _ in range(60):
            m = rng.randint(3, 9)
            f = product_family(m, rng.randint(0, (m * m - m) // 2 + 2))
            noise = HomoPoly(f.degree, tuple(rng.randint(-3, 3) for _ in range(f.degree + 1)))
            forms.append(f * rng.randint(2, 40) + noise)
        decided = {1: 0, -1: 0}
        for f in forms:
            sign = self.dominant(f)
            if sign:
                decided[sign] += 1
                want = Verdict.POSITIVE if sign > 0 else Verdict.NEGATIVE
                assert _kernel_verdict(f) is want, f
                ok, cert, _ = is_hyperbolic(f)
                assert ok == (sign > 0) and cert.verdict is want
                assert cert.method == classify.FOURIER_CONSTANT
        assert decided[1] >= 10 and decided[-1] >= 10, decided


class TestPolarCriterion:
    """In polar coordinates P_m (x^2 + y^2)^k is r^n cos(m phi), n = m + 2k,
    and its hyperbolicity functional peaks at 4k(m + k) - m^2 (m + 2k - 1)
    = n (n - m^2): the product is hyperbolic iff n < m^2.  The exact kernel
    reads the same boundary from disc II on both sides."""

    def test_boundary_pair_not_certified(self):
        # n = m^2: parabolic rays, the discriminant vanishes on lines
        for m, k in ((2, 1), (3, 3)):
            ok, cert, _ = is_hyperbolic(product_family(m, k))
            assert not ok and cert.verdict is Verdict.MIXED

    @pytest.mark.parametrize("m", range(2, 31))
    def test_agrees_with_sturm_route(self, m):
        # all 225 pairs m >= 2, k >= 0 with m + 2k <= 30, both sides
        for k in range((30 - m) // 2 + 1):
            n = m + 2 * k
            assert is_hyperbolic(product_family(m, k))[0] == (n < m * m), (m, k)


class TestPairingCertificate:
    @pytest.mark.parametrize("m", range(2, 11))
    def test_saddle_radial_pairs_hold(self, m):
        for k in range(1, 6):
            cert = certify_pairing_nonpositive(saddle_family(m), radial_family(k))
            assert cert.nonnegative and cert.strict

    def test_hand_expanded_pair(self):
        cert = certify_pairing_nonpositive(saddle_family(2), parse("x^2+y^2"))
        assert cert.nonnegative
        assert hessian_pairing(saddle_family(2), parse("x^2+y^2")) == parse(
            "-8*x^2-8*y^2"
        )

    def test_identically_zero_pairing(self):
        cert = certify_pairing_nonpositive(parse("x^2"), parse("y^2"))
        assert cert.nonnegative and cert.method == "identically-zero"

    def test_semidefinite_pairing(self):
        # pairing(x^2 - y^2, x^2) = -8 x^2: nonpositive with a zero line
        cert = certify_pairing_nonpositive(parse("x^2 - y^2"), parse("x^2"))
        assert cert.nonnegative and not cert.strict

    def test_violated_pairing_has_witness(self):
        # pairing(x^2 + y^2, x^2) = 8 x^2 > 0 off the y-axis
        cert = certify_pairing_nonpositive(parse("x^2 + y^2"), parse("x^2"))
        assert not cert.nonnegative
        b = hessian_pairing(parse("x^2 + y^2"), parse("x^2"))
        assert b.evaluate(*cert.witness) > 0


@pytest.fixture
def chains(monkeypatch):
    """The slices of every SturmChain.of call, in order."""
    built = []
    of = SturmChain.of.__func__

    def counted(cls, u):
        built.append(u)
        return of(cls, u)

    monkeypatch.setattr(SturmChain, "of", classmethod(counted))
    return built


class TestOneChainPerSlice:
    """Each sign question takes at most one squarefree part: a slice that
    the even route does not prove rootless calls _heu_gcd once and builds
    no Sturm chain, and certify_nonnegative adds no call of its own."""

    @pytest.fixture
    def gcds(self, monkeypatch):
        calls = []
        heu_gcd = classify._heu_gcd

        def counted(u, v):
            calls.append(u)
            return heu_gcd(u, v)

        monkeypatch.setattr(classify, "_heu_gcd", counted)
        return calls

    @pytest.fixture
    def runs(self, monkeypatch):
        """The slices each Descartes run isolates."""
        calls = []
        descartes = classify._descartes

        def counted(u):
            calls.append(u)
            return descartes(u)

        monkeypatch.setattr(classify, "_descartes", counted)
        return calls

    def test_sign_on_a_square_builds_one_chain(self, chains, gcds):
        # (x^2 - 2y^2)^2: the heuristic gcd gives the squarefree part, which
        # the Descartes recursion isolates, and certify_nonnegative takes no
        # more than that
        p = parse("x^4 - 4*x^2*y^2 + 4*y^4")
        assert sign_on_punctured_plane(p).method == "semidefinite-irrational-zeros"
        assert len(gcds) == 1 and chains == []
        gcds.clear()
        cert = certify_nonnegative(p)
        assert cert.nonnegative and not cert.strict
        assert len(gcds) == 1 and chains == []

    def test_nonnegative_on_a_squarefree_slice_builds_one_chain(self, chains, gcds):
        # (x^2 - y^2)(x^2 - 3y^2): the odd part is the slice itself
        p = parse("x^4 - 4*x^2*y^2 + 3*y^4")
        cert = certify_nonnegative(p)
        assert not cert.nonnegative and p.evaluate(*cert.witness) < 0
        assert len(gcds) == 1 and chains == []

    def test_early_returns_build_no_chain(self, chains):
        certify_nonnegative(parse("x^3"))
        certify_nonnegative(parse("x^4 - y^4"))
        sign_on_punctured_plane(parse("x^3"))
        assert chains == []

    def test_constant_slice_takes_no_gcd(self, gcds):
        # a slice of degree 0 has no derivative; it is even with u(0) != 0,
        # so the even test answers it before the gcd
        assert sign_on_punctured_plane(HomoPoly(0, (5,))).verdict is Verdict.POSITIVE
        assert sign_on_punctured_plane(HomoPoly(0, (-5,))).verdict is Verdict.NEGATIVE
        cert = sign_on_punctured_plane(parse("x^2"))
        assert cert.method == "vanishes-at-vertical-direction"
        assert gcds == []

    def test_descartes_proof_builds_no_chain(self, chains):
        # is_hyperbolic proves this row from a Fourier term, so the kernel
        # is asked directly
        f = product_family(20, 1)
        cert = sign_on_punctured_plane(discriminant(second_fundamental_form(f)))
        assert cert.verdict is Verdict.POSITIVE
        assert cert.method == "descartes-no-real-roots"
        assert chains == []

    @pytest.mark.parametrize(
        "text, method",
        [
            ("x^2 - 4*x*y + 3*y^2", "descartes-sign-change"),  # roots 1/3 and 1
            ("x^4 - 2*x^2*y^2 + y^4", "semidefinite-zeros"),  # double roots -1, 1
        ],
    )
    def test_one_gcd_and_one_descartes_run(
        self, chains, gcds, runs, monkeypatch, text, method
    ):
        # times a radial power the slice has degree 24 and real roots: the
        # first is not even and the second is even but has roots, so each
        # goes to the heuristic gcd once and isolates its squarefree part
        # in one Descartes run, whatever the even route's budget
        f = parse(text)
        p = f * radial_family((24 - f.degree) // 2)
        cert = sign_on_punctured_plane(p)
        assert cert.method == method and chains == []
        assert len(gcds) == 1 and len(runs) == 1
        gcds.clear()
        runs.clear()
        monkeypatch.setattr(classify, "_DEGREES_PER_DESCARTES_SPLIT", 10**9)
        assert sign_on_punctured_plane(p) == cert
        assert len(gcds) == 1 and len(runs) == 1 and chains == []


def test_origin_not_separately_tested():
    # homogeneity forces every positive-degree pairing to vanish at the
    # origin, so certificates only ever speak about the punctured plane
    b = hessian_pairing(saddle_family(4), radial_family(2))
    assert b.evaluate(0, 0) == 0


def _mul_uni(f, g):
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


class TestKernelOracles:
    """The integer kernel against the independent Descartes isolator and
    against sympy, on inputs with repeated factors."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        power=st.integers(min_value=1, max_value=3),
        scale=st.fractions(min_value=F(-7), max_value=F(7), max_denominator=9),
        double=st.fractions(min_value=F(-8), max_value=F(8), max_denominator=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_repeated_factors_agree_with_descartes(self, seed, power, scale, double):
        assume(scale != 0)
        rng = random.Random(seed)
        base, n_real = squarefree_with_known_roots(
            rng, rng.randint(0, 4), rng.randint(0, 2)
        )
        # u = scale * base^power * (t - double)^2: its distinct roots are
        # those of base, plus `double` when it is not already one of them
        linear = [-double, F(1)]
        u = [scale * c for c in _mul_uni(_mul_uni(linear, linear), base)]
        for _ in range(power - 1):
            u = _mul_uni(u, base)
        squarefree = base if _eval(base, double) == 0 else _mul_uni(base, linear)
        radius = cauchy_radius(squarefree) + 1
        expected = descartes_count_roots(squarefree, -radius, radius)
        assert expected == n_real + (_eval(base, double) != 0)

        assert count_real_roots(u) == expected
        intervals = isolate_real_roots(u)
        assert len(intervals) == expected
        for lo, hi in intervals:
            if lo == hi:
                assert _eval(squarefree, lo) == 0
            else:
                assert descartes_count_roots(squarefree, lo, hi) == 1

    def test_bisection_point_on_a_multiple_root(self):
        # (t - 1)(t - 1/2)^2: the recursion's split point 1 is a root, and
        # 1/2 a double one; each comes exactly or in an interval of its own
        u = _mul_uni(_mul_uni([F(-1), F(1)], [F(-1, 2), F(1)]), [F(-1, 2), F(1)])
        intervals = isolate_real_roots(u)
        assert len(intervals) == 2
        for (lo, hi), root in zip(intervals, (F(1, 2), F(1))):
            assert lo == hi == root or (
                lo < root < hi and _eval(u, lo) != 0 and _eval(u, hi) != 0
            )
        assert intervals[0][1] < intervals[1][0]
        # y^2 (x + y)^2: semidefinite, zero on rational lines
        p = parse("x^2*y^2 + 2*x*y^3 + y^4")
        cert = sign_on_punctured_plane(p)
        assert cert.verdict is Verdict.MIXED
        assert p.evaluate(*cert.witness) == 0

    @given(st.lists(st.integers(min_value=-(10**6), max_value=10**6),
                    min_size=2, max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_fujiwara_bound_is_strict(self, coeffs):
        assume(coeffs[-1] != 0 and len(SturmChain.of(coeffs).polys[-1]) == 1)
        bound = F(2) ** _fujiwara_exponent(coeffs)
        u = [F(c) for c in coeffs]
        assert _eval(u, bound) != 0 and _eval(u, -bound) != 0
        assert descartes_count_roots(u, -bound, bound) == count_real_roots(u)

    def test_nonnegativity_agrees_with_sympy(self):
        # products of rational lines and irrational line pairs of
        # multiplicity 1-4, times definite quadratics, of either sign
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(15)
        triple_roots, seen = 0, set()
        for _ in range(150):
            factors = []
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.5:
                    line = [rng.randint(-3, 3), rng.randint(0, 3)]
                    if line == [0, 0]:
                        line = [1, 1]
                else:  # a x^2 + e xy - c y^2 with a, c > 0 and e^2 + 4ac no square
                    a, e, c = rng.randint(1, 3), rng.randint(-3, 3), rng.randint(1, 3)
                    square = math.isqrt(e * e + 4 * a * c) ** 2 == e * e + 4 * a * c
                    line = [1, 0, -2] if square else [a, e, -c]
                factors += [line] * rng.randint(1, 4)
            for _ in range(rng.randint(0, 2)):
                b = rng.randint(-3, 3)
                factors.append([rng.randint(1, 4), b, b * b + rng.randint(1, 4)])
            coeffs = [rng.choice([-1, 1]) * rng.randint(1, 3)]
            for f in factors:  # y^j coefficients, x^(d-j) implied
                coeffs = [int(c) for c in _mul_uni(coeffs, f)]
            p = HomoPoly(len(coeffs) - 1, tuple(F(c) for c in coeffs))
            u = sympy.Poly(list(reversed(coeffs)), t)
            roots = {}
            for r in u.real_roots():
                roots[r] = roots.get(r, 0) + 1
            triple_roots += 3 in roots.values()
            at_vertical = coeffs[-1]
            nonnegative = (p.degree % 2 == 0 and at_vertical >= 0 and u.LC() > 0
                           and all(m % 2 == 0 for m in roots.values()))
            cert = certify_nonnegative(p)
            assert cert.nonnegative == nonnegative
            assert cert.strict == (nonnegative and not roots and at_vertical > 0)
            assert (cert.witness is None) == nonnegative
            if not nonnegative:
                assert p.evaluate(*cert.witness) < 0
            seen.add((cert.nonnegative, cert.strict))
        assert triple_roots > 0 and len(seen) == 3

    @pytest.mark.parametrize("n", [40, 60])
    def test_census_discriminants_agree_with_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for row in enumerate_rows(n):
            f = product_family(row.m, row.k) if row.k else saddle_family(row.m)
            u = discriminant(second_fundamental_form(f)).coeffs
            want = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(u)], t).count_roots()
            assert count_real_roots(list(u)) == want


def _int_product(factors):
    out = [1]
    for f in factors:
        product = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                product[i + j] += a * b
        out = product
    return out


def _definite_quadratic(rng):
    # a t^2 + b t + c with b^2 < 4ac, its roots anywhere from near the real
    # axis to far from it
    a, b = rng.randint(1, 12), rng.randint(-12, 12)
    return [(b * b) // (4 * a) + rng.randint(1, 12), b, a]


def _descartes_slice(rng, kind):
    """An int slice of even degree 12-24 of the given kind."""
    factors = []
    if kind == "double":  # (q t - p)^2, a double real root
        line = [-rng.randint(-9, 9), rng.randint(1, 9)]
        factors = [line, line]
    elif kind == "simple":  # two simple real roots, maybe on one side of 0
        factors = [[-rng.randint(-9, 9), rng.randint(1, 9)] for _ in range(2)]
    elif kind == "near-axis":  # roots p/q +- i/q, q large
        p, q = rng.randint(-50, 50), rng.randint(30, 100)
        factors = [[p * p + 1, -2 * p * q, q * q]]
    elif kind == "zero-at-origin":
        factors = [[0, 1], [0, 1]]
    degree = rng.choice((12, 16, 20, 24))
    while sum(len(f) - 1 for f in factors) < degree:
        factors.append(_definite_quadratic(rng))
    return _int_product(factors)


def _rootless(u):
    """The proof of sign_on_punctured_plane on a slice that is not even:
    one Descartes run on the squarefree part from the heuristic gcd."""
    found = classify._heu_gcd(u, classify._primitive(classify._deriv(u)))
    assert found is not None
    return _descartes(found[1]) == []


EVEN_KINDS = ("rootless", "semidefinite", "sign-change")


def _even_slice(rng, kind):
    """An even int slice u(t) = g(t^2) with u(0) != 0 and g of degree 6-13
    with no positive root, a double one or a simple one."""
    factors = []
    if kind == "semidefinite":
        line = [-rng.randint(1, 9), rng.randint(1, 9)]
        factors = [line, line]
    elif kind == "sign-change":
        factors = [[-rng.randint(1, 9), rng.randint(1, 9)]]
    degree = rng.choice((6, 8, 10, 12))
    while sum(len(f) - 1 for f in factors) < degree:
        negative_root = [rng.randint(1, 9), rng.randint(1, 9)]
        factors.append(rng.choice((negative_root, _definite_quadratic(rng))))
    g = _int_product(factors)
    u = [0] * (2 * len(g) - 1)
    u[::2] = g
    return u


def _sheared(f):
    """f(x + y, y)."""
    out = HomoPoly.zero(f.degree)
    for j, c in enumerate(f.coeffs):
        out = out + c * HomoPoly(1, (1, 1)) ** (f.degree - j) * HomoPoly(1, (0, 1)) ** j
    return out


class TestDescartesRootless:
    """The Descartes recursion proves only true rootlessness, and the even
    route's budget changes no certificate."""

    KINDS = ("rootless", "double", "simple", "near-axis", "zero-at-origin")

    def test_proofs_agree_with_sturm_and_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(16)
        proved = dict.fromkeys(self.KINDS, 0)
        for _ in range(60):
            for kind in self.KINDS:
                u = _descartes_slice(rng, kind)
                if _rootless(u):
                    proved[kind] += 1
                    assert SturmChain.of(u).count_real_roots() == 0
                    assert sympy.Poly(list(reversed(u)), t).count_roots() == 0
        assert proved["double"] == proved["simple"] == proved["zero-at-origin"] == 0
        assert proved["rootless"] > 0

    def test_small_cases(self):
        assert _descartes([1]) == []
        assert _descartes([1, 0, 1]) == []  # 1 + t^2: no variation either side
        assert _descartes([0, 1, 0, 1]) == [(0, 0)]  # t (1 + t^2): a root at 0
        # t^2 - 1: one variation a side, so one interval each, and no split
        assert len(_descartes([-1, 0, 1])) == 2
        roots, left = _positive_roots([-1, 1], 0, False)  # t - 1 needs none
        assert len(roots) == 1 and left == 0
        # 1 - t + t^2 needs a split, which a budget of 0 does not buy
        assert _descartes([1, -1, 1]) == []
        assert _positive_roots([1, -1, 1], 0, False) is None
        assert _positive_roots([1, -1, 1], 1, False) == ([], 0)
        assert count_real_roots([1, -1, 1]) == 0

    def test_exhausted_budget_falls_back_to_sturm(self, monkeypatch):
        rng = random.Random(61)
        forms = [_descartes_slice(rng, kind) for kind in self.KINDS for _ in range(8)]
        forms.append(discriminant(second_fundamental_form(product_family(14, 1))).coeffs)
        forms = [HomoPoly(len(c) - 1, tuple(F(x) for x in c)) for c in forms]
        # even slices, which the even route tests at half degree: census
        # discriminants, and semidefinite and sign-changing ones
        forms += [discriminant(second_fundamental_form(product_family(m, k)))
                  for m, k in ((7, 1), (9, 2), (14, 1), (13, 3), (20, 6))]
        forms += [_form(_even_slice(rng, kind)) for kind in EVEN_KINDS for _ in range(4)]
        forms += [-f for f in forms]
        with_budget = [sign_on_punctured_plane(f) for f in forms]
        monkeypatch.setattr(classify, "_DEGREES_PER_DESCARTES_SPLIT", 10**9)
        methods, fell_back = set(), set()
        for f, cert in zip(forms, with_budget):
            fallback = sign_on_punctured_plane(f)
            methods.add(cert.method)
            assert fallback == cert
            u = classify._ints(f.coeffs)
            if u[0] and not any(u[1::2]) and _positive_roots(u[::2], 0, False) is None:
                fell_back.add(cert.method)
        # even rootless slices were proved by the squarefree part's recursion
        # with no limit as well as by the budgeted run on g
        assert "descartes-no-real-roots" in fell_back
        assert {"descartes-sign-change", "semidefinite-zeros",
                "semidefinite-irrational-zeros"} <= methods

    def test_budget_scales_with_degree(self, monkeypatch):
        # the degree-14 slice of P_7 (x^2 + y^2) needs a split on each side,
        # and its budget is 14 // 12 = 1; it is even, so its half-degree
        # g(s) = u(sqrt s) is tested on s > 0 only, and one split proves it
        # (is_hyperbolic proves this form from a dominant Fourier term, so
        # the kernel is asked directly, here and for the sheared form)
        disc = discriminant(second_fundamental_form(product_family(7, 1)))
        u = [int(c) for c in disc.coeffs]
        flip = [-c if j % 2 else c for j, c in enumerate(u)]
        assert _positive_roots(u, 1, False) == _positive_roots(flip, 1, False) == ([], 0)
        assert _positive_roots(u[::2], 1, False) == ([], 0)
        cert = sign_on_punctured_plane(disc)
        assert cert.verdict is Verdict.POSITIVE
        assert cert.method == "descartes-no-real-roots"
        # sheared by (x, y) -> (x + y, y) the form is still hyperbolic, but
        # its degree-14 slice is not even: the recursion runs on both sides
        # of its squarefree part with no budget, and answers
        budgets = []
        positive_roots = classify._positive_roots

        def spy(g, splits, zero_root):
            budgets.append(splits)
            return positive_roots(g, splits, zero_root)

        monkeypatch.setattr(classify, "_positive_roots", spy)
        disc = discriminant(second_fundamental_form(_sheared(product_family(7, 1))))
        assert any(disc.coeffs[1::2])
        cert = sign_on_punctured_plane(disc)
        assert cert.verdict is Verdict.POSITIVE
        assert cert.method == "descartes-no-real-roots"
        assert budgets == [None, None]

    def test_degree_236_slice(self):
        f = product_family(118, 1)
        cert = sign_on_punctured_plane(discriminant(second_fundamental_form(f)))
        assert cert.verdict is Verdict.POSITIVE
        assert cert.method == "descartes-no-real-roots"


class TestEvenRoute:
    """An even slice u(t) = g(t^2) with u(0) != 0 is proved rootless by the
    recursion on g over s > 0 alone; every other slice, and every even one
    it does not prove rootless, takes the route of any other slice."""

    @pytest.fixture
    def sides(self, monkeypatch):
        """The polynomials each call of the per-side recursion starts from."""
        seen = []
        positive_roots = classify._positive_roots

        def spy(g, splits, zero_root):
            seen.append(g)
            return positive_roots(g, splits, zero_root)

        monkeypatch.setattr(classify, "_positive_roots", spy)
        return seen

    def test_zero_at_origin_is_left_to_both_sides(self, sides):
        # t^2 (1 + t^2)^3: u(0) = 0, so both sides run on the squarefree
        # part t (1 + t^2), with t divided out
        p = parse("y^2") * radial_family(3)
        cert = sign_on_punctured_plane(p)
        assert cert == classify.SignCertificate(
            Verdict.MIXED, (F(1), F(0)), "semidefinite-zeros")
        assert sides == [[1, 0, 1], [1, 0, 1]]

    def test_vertical_direction_still_vanishes(self, sides):
        # x^2 (x^2 + y^2)^2: the slice (1 + t^2)^2 is even and rootless,
        # but p(0, 1) = 0
        cert = sign_on_punctured_plane(parse("x^2") * radial_family(2))
        assert cert.verdict is Verdict.MIXED
        assert cert.witness == (F(0), F(1))
        assert cert.method == "vanishes-at-vertical-direction"
        assert sides == [[1, 2, 1]]

    def test_even_semidefinite_slice(self):
        # (t^2 - 2)^2 (t^2 + 1): the zeros +-sqrt 2 are irrational
        p = _form(_int_product([[-2, 0, 1], [-2, 0, 1], [1, 0, 1]]))
        cert = sign_on_punctured_plane(p)
        assert cert == classify.SignCertificate(
            Verdict.MIXED, None, "semidefinite-irrational-zeros")
        assert certify_nonnegative(p).nonnegative

    def test_even_sign_changing_slice(self):
        # (t^2 - 2)(t^2 + 1) is negative between -sqrt 2 and sqrt 2, and
        # the witness has the sign opposite to u(0) = -2
        p = _form(_int_product([[-2, 0, 1], [1, 0, 1]]))
        cert = sign_on_punctured_plane(p)
        assert cert.verdict is Verdict.MIXED and cert.method == "descartes-sign-change"
        assert p.evaluate(*cert.witness) > 0
        nonnegative = certify_nonnegative(p)
        assert not nonnegative.nonnegative and p.evaluate(*nonnegative.witness) < 0

    @pytest.mark.parametrize("k", [1, 2, 7, 30])
    def test_radial_power_needs_no_split(self, sides, monkeypatch, k):
        monkeypatch.setattr(classify, "_DEGREES_PER_DESCARTES_SPLIT", 10**9)
        cert = sign_on_punctured_plane(radial_family(k))
        assert cert == classify.SignCertificate(
            Verdict.POSITIVE, method="descartes-no-real-roots")
        assert len(sides) == 1 and len(sides[0]) == k + 1

    @given(
        g=st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=13),
        scale=st.sampled_from((1, -1, 3)),
    )
    @settings(max_examples=120, deadline=None)
    def test_rootless_verdicts_agree_with_oracles(self, g, scale):
        assume(g[0] != 0 and g[-1] != 0)
        u = [0] * (2 * len(g) - 1)
        u[::2] = [scale * c for c in g]
        # the oracle counts the roots of a squarefree polynomial
        assume(len(SturmChain.of(u).polys[-1]) == 1)
        found = classify._positive_roots(
            u[::2], (len(u) - 1) // classify._DEGREES_PER_DESCARTES_SPLIT, False)
        radius = cauchy_radius([F(c) for c in u])
        real_roots = descartes_count_roots([F(c) for c in u], -radius, radius)
        if found is not None:
            # each positive root s of g gives the two real roots +-sqrt s of u
            assert 2 * len(found[0]) == real_roots
        cert = sign_on_punctured_plane(_form(u))
        if found is not None and not found[0]:
            assert cert.method == "descartes-no-real-roots"
            want = Verdict.POSITIVE if u[-1] > 0 else Verdict.NEGATIVE
            assert cert.verdict is want
        else:
            assert cert.method != "descartes-no-real-roots" or real_roots == 0
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        assert sympy.Poly(list(reversed(u)), t).count_roots() == real_roots


def _check_isolation(u, intervals):
    """intervals isolate the distinct real roots of the int polynomial u,
    by the Fraction Descartes oracle and by sympy."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    poly = sympy.Poly(list(reversed(u)), t)
    roots = sorted(set(poly.real_roots()))
    assert len(intervals) == len(roots)
    squarefree = [F(int(c)) for c in reversed(poly.sqf_part().all_coeffs())]
    for (lo, hi), root in zip(intervals, roots):
        if lo == hi:
            assert root == sympy.Rational(lo.numerator, lo.denominator)
            continue
        assert sympy.Rational(lo.numerator, lo.denominator) < root
        assert root < sympy.Rational(hi.numerator, hi.denominator)
        assert descartes_count_roots(squarefree, lo, hi) == 1
    for (_, b), (c, _) in zip(intervals, intervals[1:]):
        # intervals may share an end only when it is not a root
        assert b < c or (b == c and _eval(u, b) != 0)


def _form(u):
    """The form whose slice p(1, t) is the int polynomial u."""
    return HomoPoly(len(u) - 1, tuple(F(c) for c in u))


def _eval(u, t):
    acc = F(0)
    for c in reversed(u):
        acc = acc * t + c
    return acc


class TestDescartesIsolation:
    """The helpers' isolate_real_roots and _descartes against the Fraction Descartes
    oracle and sympy, on roots that land on the recursion's split points,
    sit far from 1 or close together, or repeat."""

    @staticmethod
    def product(*roots, quadratics=()):
        """The int polynomial with these rational roots (repeats kept)
        times the given definite quadratics."""
        factors = [[-F(r).numerator, F(r).denominator] for r in roots]
        return _int_product(factors + list(quadratics))

    @pytest.mark.parametrize("roots", [
        (0,), (1,), (-1,), (0, 1, -1), (0, 0, 1, 1, -1),
        (1, F(3, 4)), (1, F(5, 4)), (-1, F(-3, 4), 2),  # split root beside a simple one
        (F(99, 100), 1, F(101, 100)),
        (10**30,), (F(1, 10**30),), (-(10**30), F(-1, 10**30), 10**30),
        (10**30, 10**30 + 1),
        (1, 1 + F(1, 2**60)), (1 + F(1, 2**60), 1 + F(1, 2**59)),
        (2, 2, 2, F(1, 3), F(1, 3)), (F(-7, 3), F(-7, 3), 5),
    ])
    def test_isolation_agrees_with_oracles(self, roots):
        u = self.product(*roots, quadratics=[[1, 0, 1], [5, -2, 1]])
        intervals = isolate_real_roots(u)
        _check_isolation(u, intervals)
        assert len(intervals) == len(set(roots))

    def test_squarefree_recursion_agrees_with_oracles(self, rng):
        # roots on the small dyadic and integer points the recursion splits
        # and shifts at, beside random rationals and definite quadratics
        points = [0, 1, -1, 2, F(1, 2), F(3, 2), 4, F(1, 4), -2, F(-1, 2)]
        for _ in range(60):
            roots = set(rng.sample(points, rng.randint(0, 4)))
            for _ in range(rng.randint(0, 3)):
                roots.add(F(rng.randint(-40, 40), rng.randint(1, 9)))
            quads = [_definite_quadratic(rng) for _ in range(rng.randint(0, 2))]
            u = self.product(*roots, quadratics=quads)
            if len(u) < 2:
                continue
            _check_isolation(u, _descartes(u))

    def test_budget_gives_the_unlimited_answer_or_none(self, rng):
        # the budgeted run of the even route, on either side of 0
        for _ in range(40):
            roots = {F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)} - {0}
            u = self.product(*roots, quadratics=[_definite_quadratic(rng)])
            for g in (u, [-c if j % 2 else c for j, c in enumerate(u)]):
                full, _ = _positive_roots(g, None, False)
                for splits in range(4):
                    found = _positive_roots(g, splits, False)
                    assert found is None or found[0] == full

    def test_split_root_between_simple_roots_changes_sign(self):
        # (100y - 99x)(y - x)^2(100y - 101x): its slice's squarefree part has
        # the root 1 on the recursion's first split, between the simple
        # roots 99/100 and 101/100, and is negative only between them
        line = [-1, 1]
        p = _form(_int_product([[-99, 100], line, line, [-101, 100]]))
        u = _int_product([[-99, 100], line, [-101, 100]])
        assert (F(1), F(1)) in _descartes(u)
        cert = sign_on_punctured_plane(p)
        assert cert.verdict is Verdict.MIXED and cert.method == "descartes-sign-change"
        assert p.evaluate(*cert.witness) < 0
        assert not certify_nonnegative(p).nonnegative


class TestIntegerProbes:
    """The probes of the sign kernel on integer pairs against the Fraction
    probes kept in helpers."""

    @staticmethod
    def certificates(forms, monkeypatch):
        """(sign, nonnegativity) certificates of every form, with the
        integer probes and then with the Fraction probes, and the results of
        the Fraction rational-root searches."""
        ints = [(sign_on_punctured_plane(p), certify_nonnegative(p)) for p in forms]
        searched = []

        def rational_root(g, lo, hi):
            searched.append(reference_rational_root(g, lo, hi))
            return searched[-1]

        monkeypatch.setattr(classify, "_rational_root", rational_root)
        monkeypatch.setattr(
            classify, "_strict_violation_witness", reference_strict_violation_witness
        )
        monkeypatch.setattr(classify, "_sign_at", reference_sign_at)
        fractions = [(sign_on_punctured_plane(p), certify_nonnegative(p)) for p in forms]
        monkeypatch.undo()
        assert ints == fractions
        for (a, b), (c, d) in zip(ints, fractions):
            assert (a.to_json(), b.to_json()) == (c.to_json(), d.to_json())
        return ints, searched

    @pytest.mark.parametrize("seed", range(3))
    def test_certificates_equal_fraction_probes(self, seed, monkeypatch):
        rng = random.Random(seed)
        forms = [
            random_sign_class_form(rng, kind, degree, bits)
            for degree in (8, 12, 16, 20, 24)
            for bits in (2, 4, 6, 8)
            for kind in SIGN_CLASSES
        ]
        ints, searched = self.certificates(forms, monkeypatch)
        # every probing route ran: a sign change, a rational root found by
        # bisection, irrational zeros, and a negative witness
        assert {a.method for a, _ in ints} >= {
            "descartes-sign-change", "semidefinite-zeros", "semidefinite-irrational-zeros",
        }
        assert any(t is not None for t in searched) and None in searched
        assert any(not b.nonnegative and b.method == "descartes-sign-change"
                   for _, b in ints)

    def test_root_bound_below_one(self, monkeypatch):
        # slices whose roots all lie in (-1/8, 1/8): 2^k with k < 0 bounds
        # them, and the probes still equal the Fraction probes
        forms = [parse(text) for text in (
            "1000*y^2 - x^2",
            "x^4 - 2000*x^3*y + 2000000*x^2*y^2 - 2000000000*x*y^3 + 1000000000000*y^4",
            "x^4 - 4000*x^2*y^2 + 4000000*y^4",
            "x^4 + 400*x^3*y + 790000*x^2*y^2 + 400000000*x*y^3 - 210000000000*y^4",
        )]
        assert all(_fujiwara_exponent(classify._ints(p.coeffs)) < 0 for p in forms)
        ints, _ = self.certificates(forms, monkeypatch)
        assert [a.method for a, _ in ints] == [
            "descartes-sign-change", "semidefinite-zeros",
            "semidefinite-irrational-zeros", "descartes-sign-change",
        ]

    @pytest.mark.parametrize("g, lo, hi, root", [
        ([-5, 7], F(0), F(1), F(5, 7)),  # lo |lc| and hi |lc| are integers
        ([-2, 3], F(1, 3), F(1), F(2, 3)),  # the root sits next to lo |lc|
        ([-1, 3], F(1, 7), F(1, 2), F(1, 3)),  # neither end times |lc| is
        ([-5, 1], F(0), F(8), F(5)),  # lead 1
        ([-2, 0, 1], F(1), F(2), None),  # lead 1, irrational: no integer inside
        ([-(2**60 - 1), 2**60 + 1], F(0), F(1), F(2**60 - 1, 2**60 + 1)),
        ([-2, 0, 2**60 + 3], F(0), F(1), None),  # lead near 2^60, irrational
        ([2, 3], F(-1), F(0), F(-2, 3)),  # below 0
        ([5, 7], F(-1), F(-1, 3), F(-5, 7)),
        ([-2, 0, 1], F(-2), F(-1), None),
        ([-3, 0, 1], F(-7, 4), F(-3, 2), None),  # below 0, irrational
        ([-1, 2, 0, 1], F(0), F(1), None),  # t^3 + 2t - 1: a cubic irrationality
        ([1, -2, 0, -4, 6], F(1, 2), F(1), None),
    ])
    def test_rational_root_search(self, g, lo, hi, root):
        assert classify._rational_root(g, lo, hi) == root
        assert reference_rational_root(g, lo, hi) == root

    @pytest.fixture
    def probes(self, monkeypatch):
        """The (p, q) pairs the evaluator is called at, in order."""
        seen = []
        evaluate = classify._eval_at

        def spy(u, p, q=1):
            seen.append((p, q))
            return evaluate(u, p, q)

        monkeypatch.setattr(classify, "_eval_at", spy)
        return seen

    def test_rational_root_hit_by_the_first_midpoint(self, probes):
        # 3t - 1 on (0, 1): P runs over (0, 3), whose first midpoint 1 gives
        # the root 1/3 after one probe beside the sign at lo
        assert classify._rational_root([-1, 3], F(0), F(1)) == F(1, 3)
        assert probes == [(0, 1), (1, 3)]

    def test_rational_root_probes_stay_inside(self, rng, probes):
        # every P / |lc| tested lies strictly inside (lo, hi), whichever of
        # lo |lc| and hi |lc| is an integer
        for _ in range(200):
            q = rng.randint(1, 40)
            r = F(rng.randint(-60, 60), q)
            g = _int_product([[-r.numerator, r.denominator], [rng.randint(1, 9), 0, 1]])
            lo = r - F(rng.randint(1, 30), rng.choice((1, q, 2 * q, 7)))
            hi = r + F(rng.randint(1, 30), rng.choice((1, q, 3 * q, 5)))
            probes.clear()
            assert classify._rational_root(g, lo, hi) == r == reference_rational_root(g, lo, hi)
            points = [F(p, q) for p, q in probes]
            assert points[0] == lo and all(lo < t < hi for t in points[1:])

    def test_witness_is_the_leftmost_midpoint(self):
        # (4t - 1)(4t - 3)(4t - 5)(4t - 7) with its roots hit exactly: every
        # candidate is a root or positive, and u < 0 at the midpoints 1/2
        # and 3/2; the search returns the left one
        u = _int_product([[-1, 4], [-3, 4], [-5, 4], [-7, 4]])
        hits = [(F(k, 4), F(k, 4)) for k in (1, 3, 5, 7)]
        for want_sign, v in ((-1, u), (1, [-c for c in u])):
            assert classify._strict_violation_witness(v, want_sign, hits) == (F(1), F(1, 2))
            assert reference_strict_violation_witness(v, want_sign, hits) == (F(1), F(1, 2))
        # a positive probe is the leftmost candidate, -2^k below every root
        bound = F(2) ** _fujiwara_exponent(u)
        assert classify._strict_violation_witness(u, 1, hits) == (F(1), -bound)

    def test_evaluator_on_unreduced_pairs(self, rng):
        for _ in range(200):
            u = [rng.randint(-2**20, 2**20) for _ in range(rng.randint(1, 12))]
            p, q, k = rng.randint(-500, 500), rng.randint(1, 300), rng.randint(1, 50)
            deg = len(u) - 1
            assert classify._eval_at(u, k * p, k * q) == (k * q) ** deg * _uni_eval(u, F(p, q))
            assert classify._eval_at(u, p) == _uni_eval(u, F(p))

    def test_witness_sign_off_the_slice(self):
        # the sign of p at a point with x < 0 and at x = 0 reads the int slice
        # and p(0, 1); odd and even degree, and slices of degree below p's
        for text in ("x^3 - 2*x*y^2 + y^3", "x^4 - 3*x^2*y^2 + y^4", "-y^4 + x*y^3",
                     "2*x^2 - y^2", "x^3*y - 2*x^4", "x^2*y - 3*x^3"):
            p = parse(text)
            u = classify._ints(p.coeffs)
            for point in ((F(-3, 2), F(5, 7)), (F(0), F(-2)), (F(0), F(1)),
                          (F(2), F(-1, 3)), (F(-1), F(0))):
                value = p.evaluate(*point)
                sign = classify._sign_at(p, u, point)
                assert (sign > 0) == (value > 0) and (sign < 0) == (value < 0)


GCD_KINDS = ("squarefree", "line-power", "quadratic-power", "cubes")


def _gcd_slice(rng, kind):
    """A primitive int slice of the given kind, its factors of 2- to 32-bit
    coefficients: up to 8 random lines and 4 quadratics with irrational
    real roots, a line to a power up to 238, such a quadratic to a power up
    to 119, or the cubes of a line and such a quadratic; up to two more
    lines ride along."""
    bits = rng.choice((2, 4, 8, 16, 32))
    low, high = 1 << (bits - 1), (1 << bits) - 1

    def line():
        return [rng.choice((-1, 1)) * rng.randint(0, high), rng.randint(low, high)]

    def quadratic():
        while True:
            a, c, e = rng.randint(low, high), rng.randint(low, high), rng.randint(-high, high)
            if math.isqrt(e * e + 4 * a * c) ** 2 != e * e + 4 * a * c:
                return [a, e, -c]

    factors = [line() for _ in range(rng.randint(0, 2))]
    if kind == "squarefree":
        factors += [line() for _ in range(rng.randint(1, 8))]
        factors += [quadratic() for _ in range(rng.randint(0, 4))]
    elif kind == "line-power":
        factors += [line()] * rng.randint(2, 238)
    elif kind == "quadratic-power":
        factors += [quadratic()] * rng.randint(2, 119)
    else:
        factors += [line()] * 3 + [quadratic()] * 3
    return classify._ints(_int_product(factors))


def _clustered_lines(n):
    """The product of the line 64 x + y and the lines x + j y, or j x + y
    where 3 | j, for 0 < |j| <= n: 2n + 1 distinct real lines, most of
    them bunched near the x-axis, so disc II has large coefficients."""
    lines = [(64, 1)] + [(j, 1) if j % 3 == 0 else (1, j)
                         for j in range(-n, n + 1) if j]
    return functools.reduce(multiply, (HomoPoly(1, line) for line in lines))


class TestHeuristicGcd:
    """_heu_gcd(u, pp(u')) is the gcd a Sturm chain ends in, and the chain
    fallback gives the same certificates."""

    @pytest.fixture(scope="class")
    def slices(self):
        rng = random.Random(25)
        return [_gcd_slice(rng, kind) for _ in range(50) for kind in GCD_KINDS]

    @staticmethod
    def heu_gcd(u):
        g, quotient = classify._heu_gcd(u, classify._primitive(classify._deriv(u)))
        assert _convolve(g, quotient) == u
        return g

    def test_equals_the_chain_gcd(self, slices):
        gcd_degrees = set()
        for u in slices:
            g, last = self.heu_gcd(u), SturmChain.of(u).polys[-1]
            assert g == (last if last[-1] > 0 else [-c for c in last])
            gcd_degrees.add(len(g) - 1)
        degrees = [len(u) - 1 for u in slices]
        assert len(slices) == 200 and max(degrees) >= 200 and min(degrees) <= 8
        assert 0 in gcd_degrees and max(gcd_degrees) >= 200

    def test_equals_sympy_gcd(self, slices):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        # sympy takes seconds a slice from degree 120 on
        checked = [u for u in slices if len(u) <= 120]
        assert len(checked) >= 100
        for u in checked:
            v = classify._primitive(classify._deriv(u))
            g = sympy.gcd(sympy.Poly(u[::-1], t), sympy.Poly(v[::-1], t))
            want = [int(c) for c in reversed(g.all_coeffs())]
            assert self.heu_gcd(u) == (want if want[-1] > 0 else [-c for c in want])

    def test_candidate_must_divide_both(self):
        # u = t^2 + 1 and v = 3 t^2 - 32 t + 2 have v(32) = 2 u(32), so at
        # the first xi = 32 the integer gcd is u(32) and the candidate is u,
        # which divides u but not v: gcd(u, v) = 1 comes on a later try
        u, v = [1, 0, 1], [2, -32, 3]
        assert classify._heu_gcd(u, v) == ([1], u)
        assert classify._heu_gcd(v, u) == ([1], v)

    def test_rejected_candidates_fall_back_to_the_chain(self, chains, monkeypatch):
        # the forms of two seeds, as in TestIntegerProbes
        forms = []
        for seed in (1, 2):
            rng = random.Random(seed)
            forms += [random_sign_class_form(rng, kind, degree, bits)
                      for degree in (8, 12, 16, 20, 24)
                      for bits in (2, 4, 6, 8)
                      for kind in SIGN_CLASSES]
        heuristic = [(sign_on_punctured_plane(p), certify_nonnegative(p)) for p in forms]
        assert chains == []
        monkeypatch.setattr(classify, "_heu_gcd", lambda u, v: None)
        fallback = [(sign_on_punctured_plane(p), certify_nonnegative(p)) for p in forms]
        assert fallback == heuristic and len(chains) >= len(forms)

    def test_clustered_lines_proved_without_a_chain(self, chains):
        f = _clustered_lines(20)
        ok, cert, _ = is_hyperbolic(f)
        assert f.degree == 41 and ok and cert.method == "descartes-no-real-roots"
        assert chains == []
