import json

import pytest

from hesstop import census
from hesstop.cli import main
from hesstop.errors import RefinementLimit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_elliptic_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--poly", "x^2+y^2")
        assert code == 0
        assert out.strip() == "elliptic"

    def test_hyperbolic_family(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "P:3")
        assert code == 0
        assert out.strip() == "hyperbolic"

    def test_neither(self, capsys):
        code, out, _ = run(capsys, "classify", "--poly", "x^4 - y^4")
        assert code == 0
        assert out.strip() == "neither"

    def test_json_certificate_schema(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "Q:2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["classification"] == "elliptic"
        assert set(data["certificate"]) <= {"verdict", "witness", "method"}

    def test_both_inputs_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "--poly", "x^2", "--family", "P:3")
        assert code == 2
        assert "usage error" in err


class TestIndex:
    def test_saddle_index(self, capsys):
        code, out, _ = run(capsys, "index", "--family", "P:5", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["index"] == "-3/2"
        assert data["residual"] < 0.01
        assert data["samples_used"] >= 1024

    def test_bad_polynomial_is_usage_error(self, capsys):
        code, _, err = run(capsys, "index", "--poly", "bogus(")
        assert code == 2
        assert "usage error" in err

    def test_trace_dump(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "index", "--family", "P:3", "--trace", str(path))
        assert code == 0
        assert path.read_text().startswith("phi,line_angle")


class TestCensus:
    def test_degree_seven_table(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + three rows
        assert lines[1].split() == ["7", "0", "7", "-5/2", "3"]
        assert lines[2].split() == ["7", "1", "5", "-3/2", "3"]
        assert lines[3].split() == ["7", "2", "3", "-1/2", "3"]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "8", "--json")
        assert code == 0
        data = json.loads(out)
        assert [row["index"] for row in data] == ["-3", "-2", "-1"]

    def test_certified_run(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "5", "--certify")
        assert code == 0
        assert out.count("certified") == 2

    def test_threaded_certified_run(self, capsys, monkeypatch):
        # HESSTOP_THREADS once chose a thread pool; the census is now always
        # sequential and the variable must not change the result
        monkeypatch.setenv("HESSTOP_THREADS", "3")
        code, out, _ = run(capsys, "census", "--n", "6", "--certify")
        assert code == 0
        assert out.count("certified") == 2

    def test_row_error_is_reported_per_row(self, capsys, monkeypatch):
        certify_row = census.certify_row

        def flaky(row):
            if row.k == 1:
                raise RefinementLimit("depth cap")
            return certify_row(row)

        monkeypatch.setattr(census, "certify_row", flaky)
        code, out, _ = run(capsys, "census", "--n", "7", "--certify")
        assert code == 1
        assert "(k=1, m=5): FAILED (RefinementLimit)" in out
        assert "(k=0, m=7): certified" in out
        assert "(k=2, m=3): certified" in out


class TestVerifyIdentities:
    def test_small_range_passes(self, capsys):
        code, out, _ = run(capsys, "verify-identities", "--m-max", "10")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 7

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify-identities", "--m-max", "8", "--json")
        assert code == 0
        data = json.loads(out)
        assert all(data.values())


class TestVerifyIneq:
    def test_family_pair_holds(self, capsys):
        code, out, _ = run(capsys, "verify-ineq", "--family", "f:4,2")
        assert code == 0
        assert "holds" in out

    def test_explicit_pair_violated(self, capsys):
        code, out, _ = run(capsys, "verify-ineq", "--p", "x^2+y^2", "--q", "x^2")
        assert code == 1
        assert "VIOLATED" in out

    def test_missing_pair_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify-ineq", "--p", "x^2")
        assert code == 2


class TestCertify:
    def test_family_pair(self, capsys):
        code, out, _ = run(capsys, "certify", "--family", "f:3,1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["certified"] is True
        assert data["index_product"] == data["index_factor"] == "-1/2"

    def test_failing_pair_reports_hypothesis(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--p", "x^3 - 3*x*y^2", "--q", "x^2 - y^2", "--json"
        )
        assert code == 1
        data = json.loads(out)
        assert data == {"certified": False, "failed_hypothesis": "q_elliptic"}


class TestFoliate:
    def test_counts_only(self, capsys):
        code, out, _ = run(capsys, "foliate", "--family", "P:4")
        assert code == 0
        assert out.strip().startswith("4 separatrix lines")

    def test_svg_and_csv(self, capsys, tmp_path):
        svg = tmp_path / "f.svg"
        csv = tmp_path / "f.csv"
        code, out, _ = run(
            capsys,
            "foliate",
            "--family",
            "P:3",
            "--svg",
            str(svg),
            "--csv",
            str(csv),
            "--seeds",
            "3",
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")
        assert csv.read_text().startswith("curve_id,x,y")

    def test_neither_form_is_refused(self, capsys):
        # parabolic on the axes: no line field to count separatrices of
        code, out, err = run(capsys, "foliate", "--poly", "x^4 - y^4")
        assert code == 1
        assert out == ""
        assert err.startswith("error: hyperbolic")

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "foliate", "--family", "Q:1", "--json")
        # elliptic form has no asymptotic lines anywhere: the alignment
        # function never vanishes
        assert code == 0
        data = json.loads(out)
        assert data["separatrix_lines"] == 0


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("index", "--poly", "x^100000000"),
            ("index", "--family", "P:100000000"),
            ("classify", "--family", "Q:600"),
            ("certify", "--family", "f:1000,20"),
            ("census", "--n", "1025", "--certify"),
        ],
    )
    def test_degree_above_cap(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "usage error" in err and "1024" in err
