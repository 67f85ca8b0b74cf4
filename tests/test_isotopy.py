import math
from fractions import Fraction

import pytest

from hesstop import classify, isotopy, lineindex, polyalg, quadform
from hesstop.census import enumerate_rows
from hesstop.classify import certify_nonnegative, is_hyperbolic
from hesstop.errors import PreconditionFailed
from hesstop.isotopy import certify_gradient_term_path, certify_product_isotopy
from hesstop.lineindex import CAUCHY_CHAIN, ROUCHE, index_at_origin
from hesstop.polyalg import (
    multiply,
    parse,
    partial,
    radial_family,
    saddle_family,
)
from hesstop.quadform import (
    discriminant,
    gradient_forms,
    hessian_pairing,
    second_fundamental_form,
)

from helpers import (
    hypotheses_hold,
    path_discriminant_coeffs,
    random_homopoly,
    reference_origin_index,
)


def checked_t_coefficients(p, q):
    """(a0, a1, a2) of the gradient-term leg and of the affine leg for the
    pair, after asserting the identities the certificates read their signs
    from: a0 = q^2 disc II_p, a1 = -2q * pairing, a2 = (p_x q_y - p_y q_x)^2;
    then A0 = a0 + a1 + a2, A2 = p^2 disc II_q, A0 + A1 + A2 = disc II_{pq}."""
    ii_p, ii_q = second_fundamental_form(p), second_fundamental_form(q)
    dpdq = gradient_forms(p, q)[0]
    a0, a1, a2 = path_discriminant_coeffs(ii_p.scale(q), dpdq)
    jac = multiply(partial(p, "x"), partial(q, "y")) - multiply(
        partial(p, "y"), partial(q, "x")
    )
    assert a0 == multiply(multiply(q, q), discriminant(ii_p))
    assert a1 == (-2) * multiply(q, hessian_pairing(p, q))
    assert a2 == multiply(jac, jac)

    A0, A1, A2 = path_discriminant_coeffs(ii_p.scale(q) + dpdq, ii_q.scale(p))
    assert A0 == a0 + a1 + a2
    assert A2 == multiply(multiply(p, p), discriminant(ii_q))
    assert A0 + A1 + A2 == discriminant(second_fundamental_form(multiply(p, q)))
    return (a0, a1, a2), (A0, A1, A2)


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

    def test_t_coefficient_identities(self, rng):
        for m, k in [(3, 1), (4, 2), (5, 1), (6, 3)]:
            p, q = saddle_family(m), radial_family(k)
            gradient, affine = checked_t_coefficients(p, q)
            assert certify_gradient_term_path(p, q).t_coefficients == gradient
            assert certify_product_isotopy(p, q).t_coefficients == affine
            # on product data (q elliptic) the affine t^2 coefficient is <= 0
            assert certify_nonnegative(-affine[2]).nonnegative
        for _ in range(60):
            p = random_homopoly(rng, rng.randint(2, 6))
            checked_t_coefficients(p, random_homopoly(rng, rng.randint(2, 6)))


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

    @pytest.mark.parametrize(
        "leg, slot, name",
        [
            (0, 0, "a0_identity"),
            (0, 1, "a1_identity"),
            (0, 2, "a2_identity"),
            (1, 0, "affine_a0_identity"),
            (1, 1, "affine_end_identity"),
            (1, 2, "affine_a2_identity"),
            (1, None, "product_form_split"),
        ],
    )
    def test_broken_identity_is_named(self, monkeypatch, leg, slot, name):
        # the signs read from identities hold only while each identity is
        # checked: the right-hand side of the identity that proves t^slot's
        # coefficient on either leg (or of the split of II_{pq}) is doubled,
        # and the check refuses it by name
        check = isotopy._check_identities
        seen = []

        def tampered(identities):
            seen.extend(label for label, _, _ in identities)
            check([
                (label, lhs, [(2 * c, *forms) for c, *forms in rhs] if label == name else rhs)
                for label, lhs, rhs in identities
            ])

        monkeypatch.setattr(isotopy, "_check_identities", tampered)
        with pytest.raises(PreconditionFailed) as exc:
            certify_product_isotopy(saddle_family(3), radial_family(1))
        assert exc.value.hypothesis == name and name in seen

    def test_each_hypothesis_proved_once(self, monkeypatch):
        # q is proved elliptic by is_hyperbolic, p and pq hyperbolic by
        # hyperbolic_index, from one Fourier conversion each; the sign kernel
        # runs twice, on q (q_positive) and, inside certify_nonnegative, on
        # -pairing (pairing_nonpositive), and never on a discriminant; every
        # other sign is read from an identity, and no wrapper proves a
        # hypothesis a second time
        kernels = {"sign_on_punctured_plane": [], "certify_nonnegative": []}
        wrappers = {"is_hyperbolic": [], "hyperbolic_index": [],
                    "certify_pairing_nonpositive": [], "_exact_fourier": []}

        def counted(fn, seen):
            def wrapper(*args):
                seen.append(args)
                return fn(*args)

            return wrapper

        # each function is counted in every module that holds it, so a
        # hidden proof through classify or lineindex shows too
        for module in (classify, lineindex, isotopy):
            for name, seen in (kernels | wrappers).items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name), seen))
        p, q = saddle_family(5), radial_family(1)
        pq = multiply(p, q)
        certify_product_isotopy(p, q)
        pairing = -hessian_pairing(p, q)
        assert kernels == {
            "sign_on_punctured_plane": [(q,), (pairing,)],
            "certify_nonnegative": [(pairing,)],
        }
        assert wrappers == {
            "is_hyperbolic": [(q,)],
            "hyperbolic_index": [(p,), (pq,)],
            "certify_pairing_nonpositive": [],
            "_exact_fourier": [(2, q), (5, p), (7, pq)],
        }

    def test_census_pairs(self):
        # the paper's argument on the census pairs: P_m and P_m Q_k are
        # joined by an isotopy, and both ends have origin index (2 - m)/2,
        # which the certificate carries as the oracle reads it from the joins
        rows = [row for n in range(5, 26) for row in enumerate_rows(n) if row.k >= 1]
        assert len(rows) == 91
        for row in rows:
            cert = certify_product_isotopy(saddle_family(row.m), radial_family(row.k))
            assert isinstance(cert, isotopy.IsotopyCertificate)
            indexes = (cert.index, cert.verdicts["gradient_term_leg"].index)
            assert indexes == tuple(map(reference_origin_index, cert.joins))
            assert [half.value for half in indexes] == [Fraction(2 - row.m, 2)] * 2

    def test_each_form_built_once(self, monkeypatch):
        # one certificate builds each II and discriminant once and the four
        # first-order products once, through the shared builder; the proofs
        # and the identity checks read the same objects, and the builder's
        # public view hessian_pairing does not run
        builders = ("second_fundamental_form", "discriminant", "gradient_forms")
        views = ("hessian_pairing",)
        calls = {name: [] for name in builders + views}

        def counted(fn, seen):
            def wrapper(*args):
                seen.append(args)
                return fn(*args)

            return wrapper

        for module in (classify, isotopy, quadform):
            for name, seen in calls.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name), seen))
        certify_product_isotopy(saddle_family(5), radial_family(1))
        for name in builders:
            seen = calls[name]
            assert seen, name
            repeats = [args for i, args in enumerate(seen) if args in seen[:i]]
            assert repeats == [], name
        assert len(calls["gradient_forms"]) == 1
        assert {name: calls[name] for name in views} == {name: [] for name in views}

    def test_no_product_computed_twice(self, monkeypatch):
        # every multiply of one certificate has its own arguments: the
        # first-order products p_x q_x, p_x q_y, p_y q_x, p_y q_y are shared
        # by 2 dp dq, the pairing and the Jacobian.  P_20 * Q_6 has no two
        # products that coincide by symmetry (P_5 * Q_1 has)
        seen = []

        def counted(a, b):
            seen.append((a, b))
            return multiply(a, b)

        for module in (polyalg, quadform, isotopy, classify):
            if hasattr(module, "multiply"):
                monkeypatch.setattr(module, "multiply", counted)
        certify_product_isotopy(saddle_family(20), radial_family(6))
        assert seen
        repeats = [args for i, args in enumerate(seen) if args in seen[:i]]
        assert repeats == []

    def test_joins_name_the_connected_forms(self):
        p, q = saddle_family(5), radial_family(2)
        leg = certify_gradient_term_path(p, q)
        ii_p = second_fundamental_form(p)
        assert leg.joins == (ii_p, ii_p.scale(q) + gradient_forms(p, q)[0])
        cert = certify_product_isotopy(p, q)
        assert cert.joins == (second_fundamental_form(multiply(p, q)), ii_p)
        # the product's II_p is the one its gradient leg built
        assert cert.joins[1] is cert.verdicts["gradient_term_leg"].joins[0]

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


class TestChainIndexPairs:
    """Pairs whose indexes need the Cauchy chain: the certificate carries the
    index the oracle and the float walk read from each joined form, and
    proves each hyperbolicity hypothesis as is_hyperbolic does."""

    @pytest.mark.parametrize(
        "p, q, value, methods",
        [
            ("x^4 + 4*x^3*y - 8*x*y^3 - 4*y^4", "x^2 + y^2", Fraction(-1),
             (CAUCHY_CHAIN, CAUCHY_CHAIN)),
            ("x^3 + 6*x^2*y + 9*x*y^2 + 2*y^3", "x^2 + x*y + y^2", Fraction(-1, 2),
             (CAUCHY_CHAIN, ROUCHE)),
        ],
    )
    def test_indexes_and_methods(self, p, q, value, methods):
        p, q = parse(p), parse(q)
        cert = certify_product_isotopy(p, q)
        assert hypotheses_hold(cert)
        indexes = (cert.index, cert.verdicts["gradient_term_leg"].index)
        assert tuple(half.method for half in indexes) == methods
        assert indexes == tuple(map(reference_origin_index, cert.joins))
        for half, w in zip(indexes, cert.joins):
            assert half.value == index_at_origin(w)[0].value == value
        for name, f in (("p_hyperbolic", p), ("q_elliptic", q),
                        ("product_hyperbolic", multiply(p, q))):
            assert cert.verdicts[name] == is_hyperbolic(f)[1], name
        leg = cert.verdicts["gradient_term_leg"].verdicts
        assert leg["p_hyperbolic"] is cert.verdicts["p_hyperbolic"]


class TestIdentityCheck:
    """The identity check at one power of two agrees with polynomial
    equality of the multiplied-out sides, and needs all of its bound."""

    @staticmethod
    def agrees(lhs, rhs):
        try:
            isotopy._check_identities([("identity", lhs, rhs)])
        except PreconditionFailed as exc:
            assert exc.hypothesis == "identity"
            return False
        return True

    @staticmethod
    def expand(side, degree):
        total = polyalg.HomoPoly.zero(degree)
        for c, *forms in side:
            term = polyalg.HomoPoly.constant(c)
            for f in forms:
                term = multiply(term, f)
            total = total + term
        return total

    def test_agrees_with_polynomial_equality(self, rng):
        # random sides of products of up to three forms, Fractions included;
        # the right side is the left multiplied out, and then changed in
        # one coefficient half of the time
        outcomes = set()
        for _ in range(200):
            degree = rng.randint(0, 8)
            lhs = []
            for _ in range(rng.randint(1, 3)):
                parts = sorted(rng.randint(0, degree) for _ in range(rng.randint(0, 2)))
                degrees = [b - a for a, b in zip([0] + parts, parts + [degree])]
                lhs.append((rng.choice([-2, -1, 1, 3]),
                            *[random_homopoly(rng, d) for d in degrees]))
            total = self.expand(lhs, degree)
            coeffs = list(total.coeffs)
            if rng.random() < 0.5:
                coeffs[rng.randrange(degree + 1)] += rng.choice([1, -1, Fraction(1, 6)])
            rhs_form = polyalg.HomoPoly(degree, tuple(coeffs))
            rhs = [(1, rhs_form)] if rng.random() < 0.5 else [(2, rhs_form), (-1, rhs_form)]
            want = total == rhs_form
            assert self.agrees(lhs, rhs) is want
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_sides_of_different_degrees_are_not_equal(self):
        # x and x^2 agree at every (1, t), but they are not equal forms
        assert not self.agrees([(1, parse("x"))], [(1, parse("x^2"))])
        assert self.agrees([(1, parse("x"), parse("x"))], [(1, parse("x^2"))])

    def test_one_bit_below_the_bound_is_unsound(self, monkeypatch):
        # y and 2^40 x differ, and every coefficient of their difference
        # lies below 2^41 = xi, so the check refuses them; at 2^40 they
        # agree, so no smaller power of two proves the identity
        lhs, rhs = [(1, parse("y"))], [(1, parse(f"{2**40}*x"))]
        assert not self.agrees(lhs, rhs)
        evaluate = isotopy._at_power_of_two
        monkeypatch.setattr(isotopy, "_at_power_of_two", lambda u, k: evaluate(u, k - 1))
        assert self.agrees(lhs, rhs)


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
                + gradient_forms(p, q)[0]
            )
            assert (lhs - rhs).is_zero

    def test_split_identity_componentwise(self):
        p, q = saddle_family(3), radial_family(2)
        lhs = second_fundamental_form(multiply(p, q))
        rhs = (
            second_fundamental_form(q).scale(p)
            + second_fundamental_form(p).scale(q)
            + gradient_forms(p, q)[0]
        )
        assert lhs.a == rhs.a and lhs.b == rhs.b and lhs.c == rhs.c
