from fractions import Fraction

import pytest

from hesstop import census, isotopy
from hesstop.census import CensusRow, certify_row, enumerate_rows, lower_bound
from hesstop.errors import DomainError, PreconditionFailed

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
        assert bundle["index"].value == F(-1, 2)
        assert bundle["isotopy"].valid
        assert bundle["pairing_nonpositive"].holds

    def test_product_row_degree_six(self):
        row = enumerate_rows(6)[1]
        assert (row.k, row.m) == (1, 4)
        bundle = certify_row(row)
        assert bundle["index"].value == F(-1)

    def test_each_hypothesis_proved_once(self, monkeypatch):
        calls = {"is_hyperbolic": [], "is_elliptic": [], "certify_pairing_nonpositive": []}

        def counted(fn, seen):
            def wrapper(*args):
                seen.append(args)
                return fn(*args)

            return wrapper

        for module in (census, isotopy):
            for name, seen in calls.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name), seen))
        row = enumerate_rows(7)[1]
        assert (row.k, row.m) == (1, 5)
        certify_row(row)
        assert {name: len(seen) for name, seen in calls.items()} == {
            "is_hyperbolic": 2,
            "is_elliptic": 1,
            "certify_pairing_nonpositive": 1,
        }
        (first,), (second,) = calls["is_hyperbolic"]
        assert first != second

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
