from fractions import Fraction

import pytest

from hesstop import census, classify, isotopy
from hesstop.census import CensusRow, certify_row, enumerate_rows, lower_bound
from hesstop.errors import DomainError, PreconditionFailed
from hesstop.polyalg import product_family
from hesstop.quadform import discriminant, second_fundamental_form

F = Fraction

# (n, k, m, index, bound) reference rows for degrees 3 through 8
REFERENCE = {
    3: [(3, 0, 3, F(-1, 2), 1)],
    4: [(4, 0, 4, F(-1), 1)],
    5: [(5, 0, 5, F(-3, 2), 2), (5, 1, 3, F(-1, 2), 2)],
    6: [(6, 0, 6, F(-2), 2), (6, 1, 4, F(-1), 2)],
    7: [(7, 0, 7, F(-5, 2), 3), (7, 1, 5, F(-3, 2), 3), (7, 2, 3, F(-1, 2), 3)],
    8: [(8, 0, 8, F(-3), 3), (8, 1, 6, F(-2), 3), (8, 2, 4, F(-1), 3)],
}


class TestEnumerate:
    @pytest.mark.parametrize("n", sorted(REFERENCE))
    def test_reference_rows(self, n):
        rows = [(r.n, r.k, r.m, r.index, r.lower_bound) for r in enumerate_rows(n)]
        assert rows == REFERENCE[n]

    @pytest.mark.parametrize("n", list(range(3, 9)) + [10])
    def test_bound_formula(self, n):
        assert lower_bound(n) == (n - 1) // 2
        assert len(enumerate_rows(n)) == lower_bound(n)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_bound_equals_certified_row_count(self, n):
        assert len(enumerate_rows(n)) == lower_bound(n)

    @pytest.mark.xfail(
        reason="the product family cannot realize floor((n-1)/2) for every "
        "n up to 20: at n = 9 the top pair (k, m) = (3, 3) sits exactly on "
        "the hyperbolicity boundary (4k(m+k) = m^2(m+2k-1) = 72), so the "
        "product has parabolic rays and is excluded by any sound guard",
        strict=True,
    )
    def test_reference_bound_formula_full_range(self):
        for n in range(3, 21):
            assert lower_bound(n) == (n - 1) // 2

    @pytest.mark.parametrize("n", range(3, 21))
    def test_indexes_pairwise_distinct(self, n):
        indexes = [r.index for r in enumerate_rows(n)]
        assert len(set(indexes)) == len(indexes)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_index_value_is_k_plus_one_minus_half_n(self, n):
        for r in enumerate_rows(n):
            assert r.index == F(2 - r.m, 2) == r.k + 1 - F(n, 2)

    def test_small_degree_rejected(self):
        with pytest.raises(DomainError):
            enumerate_rows(2)


class TestRowValidation:
    def test_guard_rejects_m_not_exceeding_max(self):
        # (n, k, m) = (6, 2, 2) violates m > max(2, k)
        with pytest.raises(DomainError):
            CensusRow(6, 2, 2, F(0), 2)

    def test_guard_rejects_inconsistent_total_degree(self):
        with pytest.raises(DomainError):
            CensusRow(7, 1, 4, F(-1), 3)

    def test_guard_rejects_k_zero_with_wrong_m(self):
        with pytest.raises(DomainError):
            CensusRow(7, 0, 5, F(-3, 2), 3)


class TestCertifyRow:
    def test_pure_saddle_row(self):
        row = enumerate_rows(4)[0]
        bundle = certify_row(row)
        assert bundle["index"].value == F(-1)
        assert "isotopy" not in bundle

    def test_product_row_degree_five(self):
        row = enumerate_rows(5)[1]
        assert (row.k, row.m) == (1, 3)
        bundle = certify_row(row)
        assert set(bundle) == {"row", "product_hyperbolic", "index"}
        assert bundle["product_hyperbolic"].verdict is classify.Verdict.POSITIVE
        assert bundle["index"].value == F(-1, 2)

    def test_product_row_degree_six(self):
        row = enumerate_rows(6)[1]
        assert (row.k, row.m) == (1, 4)
        bundle = certify_row(row)
        assert bundle["index"].value == F(-1)

    @staticmethod
    def counted(fn, seen):
        def wrapper(*args):
            seen.append(args)
            return fn(*args)

        return wrapper

    def test_each_hypothesis_proved_once(self, monkeypatch):
        # a saddle row and a product row each prove f = product_family(m, k)
        # hyperbolic once, from a dominant Fourier term of disc II_f, with
        # no sign kernel call, and reach no isotopy: the kernels are counted
        # in classify, where is_hyperbolic would call them, and every name
        # is counted wherever it lives.  The kernel, asked directly on
        # disc II_f, gives the same verdict.
        kernel = classify.sign_on_punctured_plane

        def refuse(*args):
            raise AssertionError("certify_row ran the product isotopy")

        for module in (census, isotopy):
            if hasattr(module, "certify_product_isotopy"):
                monkeypatch.setattr(module, "certify_product_isotopy", refuse)
        names = ("sign_on_punctured_plane", "certify_nonnegative", "is_hyperbolic",
                 "certify_pairing_nonpositive")
        calls = {name: [] for name in names}
        for module in (census, classify):
            for name, seen in calls.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, self.counted(getattr(module, name), seen))
        rows = enumerate_rows(7)[:2]
        assert [(row.k, row.m) for row in rows] == [(0, 7), (1, 5)]
        for row in rows:
            for seen in calls.values():
                seen.clear()
            bundle = certify_row(row)
            assert set(bundle) == {"row", "product_hyperbolic", "index"}
            f = product_family(row.m, row.k)
            assert {name: len(seen) for name, seen in calls.items()} == {
                "sign_on_punctured_plane": 0,
                "certify_nonnegative": 0,
                "is_hyperbolic": 1,
                "certify_pairing_nonpositive": 0,
            }
            cert = bundle["product_hyperbolic"]
            assert cert.method == classify.FOURIER_CONSTANT
            assert cert.verdict is kernel(discriminant(second_fundamental_form(f))).verdict
            assert calls["is_hyperbolic"] == [(f,)]

    def test_index_read_from_the_verdict_form(self, monkeypatch):
        # a row reads its index from the II_f its hyperbolicity verdict
        # returned; census builds no II of its own
        verdicts, read = [], []
        hyperbolic = census.is_hyperbolic

        def verdict(f):
            verdicts.append(hyperbolic(f))
            return verdicts[-1]

        monkeypatch.setattr(census, "is_hyperbolic", verdict)
        monkeypatch.setattr(census, "origin_index", self.counted(census.origin_index, read))
        assert not hasattr(census, "second_fundamental_form")
        rows = [enumerate_rows(13)[i] for i in (0, 3)]
        assert [(row.k, row.m) for row in rows] == [(0, 13), (3, 7)]
        for row in rows:
            verdicts.clear()
            read.clear()
            bundle = certify_row(row)
            ((_, cert, w),) = verdicts
            ((read_w,),) = read
            assert read_w is w
            assert bundle["product_hyperbolic"] is cert
            assert set(bundle) == {"row", "product_hyperbolic", "index"}
            assert bundle["index"].value == row.index

    def test_tampered_row_fails_by_name(self):
        row = CensusRow(8, 1, 6, F(-5, 2), 3)  # wrong theoretical index
        with pytest.raises(PreconditionFailed) as exc:
            certify_row(row)
        assert exc.value.hypothesis == "index_matches"

    def test_row_json(self):
        row = enumerate_rows(7)[2]
        assert row.to_json() == {
            "n": 7,
            "k": 2,
            "m": 3,
            "index": "-1/2",
            "lower_bound": 3,
        }


class TestCertifyRowExactIndex:
    @pytest.mark.parametrize("n", [112, 120])
    def test_saddle_row_past_the_float_cliff(self, n):
        row = enumerate_rows(n)[0]
        assert (row.k, row.m) == (0, n)
        bundle = certify_row(row)
        assert bundle["index"].value == F(2 - n, 2)
        assert bundle["index"].residual == 0
        assert "samples_used" not in bundle

    def test_census_does_not_sample(self, monkeypatch):
        from hesstop import lineindex

        def refuse(*args, **kwargs):
            raise AssertionError("certify_row sampled the float tracer")

        # the tracer reads its float coefficients first, under any import name
        monkeypatch.setattr(lineindex, "_float_coeffs", refuse)
        for row in enumerate_rows(9):
            certify_row(row)

    def test_no_chain_up_to_n_60(self, monkeypatch):
        # every sign and every index of the census up to n = 60, and of
        # n = 119 and 120 at the top, is proved without a Sturm chain: the
        # index from a dominant Fourier term
        from hesstop.lineindex import ROUCHE

        built = []
        of = classify.SturmChain.of.__func__

        def counted(cls, *args):
            built.append(args)
            return of(cls, *args)

        monkeypatch.setattr(classify.SturmChain, "of", classmethod(counted))
        methods = {certify_row(row)["index"].method
                   for n in [*range(3, 61), 119, 120] for row in enumerate_rows(n)}
        assert built == [] and methods == {ROUCHE}
