import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

from hesstop import census, classify, cli, isotopy, lineindex, quadform
from hesstop.cli import MAX_POLY_TEXT, main
from hesstop.foliation import MAX_SEEDS, count_separatrices
from hesstop.polyalg import (
    MAX_DEGREE,
    HomoPoly,
    format_poly,
    multiply,
    radial_family,
    saddle_family,
)
from hesstop.errors import ECHO_CHARS, RefinementLimit


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

    def test_overlong_literal_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "--poly", "1" * 5000 + "*x^2 + y^2")
        assert code == 2
        assert "usage error" in err and "5000 digits" in err

    @pytest.mark.parametrize(
        "text, error",
        [
            # one 6001-character term: the parser's echo, the only one, is cut
            ("x*" * 3000 + "x", "unexpected character"),
            ("x^2 ++ y^2" + " + x*y" * 2000, "empty term"),
        ],
    )
    def test_error_echo_is_bounded(self, capsys, text, error):
        code, _, err = run(capsys, "classify", "--poly", text)
        assert code == 2
        # the parser quotes the text with its whitespace dropped
        echoed = "".join(text.split())
        assert error in err and f"({len(echoed)} characters)" in err
        assert len(err) < 4 * ECHO_CHARS + 200

    @pytest.mark.parametrize("flag", ["--poly", "--p"])
    def test_overlong_text_is_refused(self, capsys, flag):
        text = "x^2" + " + x^2" * (MAX_POLY_TEXT // 6)
        assert len(text) > MAX_POLY_TEXT
        argv = ["classify", "--poly", text]
        if flag == "--p":
            argv = ["verify-ineq", "--p", text, "--q", "x^2 + y^2"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"{len(text)} characters" in err and str(MAX_POLY_TEXT) in err
        assert len(err) < 200

    def test_longest_family_text_is_accepted(self):
        text = format_poly(saddle_family(MAX_DEGREE))
        assert len(text) <= MAX_POLY_TEXT
        assert cli._parse(text) == saddle_family(MAX_DEGREE)


class TestIndex:
    def test_saddle_index(self, capsys):
        code, out, _ = run(capsys, "index", "--family", "P:5", "--json")
        assert code == 0
        assert json.loads(out) == {"index": "-3/2", "method": "rouche-dominant-term"}

    def test_index_names_the_chain_where_no_term_dominates(self, capsys):
        # five integer lines: no Fourier term of f_zbarzbar outweighs the rest
        f = HomoPoly(0, (1,))
        for line in ((-5, 3), (-8, -7), (8, -6), (2, 9), (-8, 7)):
            f = multiply(f, HomoPoly(1, line))
        code, out, _ = run(capsys, "index", "--poly", format_poly(f), "--json")
        assert code == 0
        assert json.loads(out) == {"index": "-3/2", "method": "cauchy-index-chain"}

    def test_index_does_not_sample(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("index sampled the float tracer")

        # the tracer reads its float coefficients first, under any import name
        monkeypatch.setattr(lineindex, "_float_coeffs", refuse)
        code, out, _ = run(capsys, "index", "--family", "f:9,2")
        assert code == 0
        assert out.strip() == "index -7/2"

    @pytest.mark.parametrize("poly", ["x^2+y^2", "x^4 - y^4"])
    def test_non_hyperbolic_form_is_refused(self, capsys, poly):
        code, out, err = run(capsys, "index", "--poly", poly)
        assert code == 1
        assert out == ""
        assert "hyperbolic" in err

    def test_saddle_past_the_old_float_cliff(self, capsys):
        code, out, _ = run(capsys, "index", "--family", "P:112", "--json")
        assert code == 0
        assert json.loads(out)["index"] == "-55"

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

    def test_certified_json_names_each_row(self, capsys, monkeypatch):
        certify_row = census.certify_row

        def flaky(row):
            if row.k == 1:
                raise RefinementLimit("depth cap")
            return certify_row(row)

        monkeypatch.setattr(census, "certify_row", flaky)
        code, out, _ = run(capsys, "census", "--n", "7", "--certify", "--json")
        assert code == 1
        data = json.loads(out)
        assert [(r["k"], r["certified"]) for r in data] == [
            (0, True), (1, False), (2, True)
        ]
        assert data[1]["failed"] == "RefinementLimit"
        assert "failed" not in data[0] and "failed" not in data[2]

    def test_certified_json_all_pass(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "5", "--certify", "--json")
        assert code == 0
        assert all(r["certified"] for r in json.loads(out))


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


    @pytest.mark.parametrize("m_max", [0, 3, 161, MAX_DEGREE + 1])
    def test_m_max_outside_range_is_usage_error(self, capsys, m_max):
        code, out, err = run(capsys, "verify-identities", "--m-max", str(m_max))
        assert code == 2
        assert out == ""
        assert "usage error" in err and str(MAX_DEGREE) in err


class TestVerifyIneq:
    def test_family_pair_holds(self, capsys):
        code, out, _ = run(capsys, "verify-ineq", "--family", "f:4,2")
        assert code == 0
        assert "holds" in out

    def test_explicit_pair_violated(self, capsys):
        code, out, _ = run(capsys, "verify-ineq", "--p", "x^2+y^2", "--q", "x^2")
        assert code == 1
        assert "VIOLATED" in out

    def test_json_holds(self, capsys):
        code, out, _ = run(capsys, "verify-ineq", "--family", "f:4,2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["pairing_nonpositive"] is True
        assert data["certificate"]["nonnegative"] is True
        assert data["certificate"]["strict"] is True
        assert "witness" not in data["certificate"]

    def test_json_violated(self, capsys):
        code, out, _ = run(
            capsys, "verify-ineq", "--p", "x^2+y^2", "--q", "x^2", "--json"
        )
        assert code == 1
        data = json.loads(out)
        assert data["pairing_nonpositive"] is False
        assert data["certificate"]["nonnegative"] is False
        # the pairing 8x^2 is positive at the witness, so x != 0 there
        x, _ = (Fraction(c) for c in data["certificate"]["witness"])
        assert x != 0

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
        hypotheses = data["certificate"]["hypotheses"]
        assert {h["name"] for h in hypotheses} == {
            "q_elliptic",
            "p_hyperbolic",
            "q_positive",
            "pairing_nonpositive",
            "product_hyperbolic",
            "gradient_term_leg",
        }
        (leg,) = [h for h in hypotheses if h["name"] == "gradient_term_leg"]
        assert {h["name"] for h in leg["hypotheses"]} == {
            "p_hyperbolic",
            "q_positive",
            "pairing_nonpositive",
        }

    def test_rational_pair(self, capsys):
        # rational coefficients: the identities are checked over one common
        # denominator, and the certificate's coefficients stay exact
        code, out, _ = run(capsys, "certify", "--p", "x^3 - 3*x*y^2",
                           "--q", "x^2 + 1/3*x*y + y^2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["certified"] is True
        assert data["certificate"]["coefficients"] == {
            "a0": "109*x^6 + 108*x^5*y + 662*x^4*y^2 + 168*x^3*y^3 + 121*x^2*y^4"
                  " + 60*x*y^5 + 144*y^6",
            "a1": "-70/3*x^6 - 4*x^5*y + 416/3*x^4*y^2 + 8*x^3*y^3 - 206*x^2*y^4 + 12*x*y^5",
            "a2": "-35/9*x^6 + 70/3*x^4*y^2 - 35*x^2*y^4",
        }

    def test_indexes_read_from_the_certificate(self, capsys, monkeypatch):
        # f's Fourier data is converted three times, once each for q, p and
        # pq inside the isotopy, and both origin indexes are read from the
        # certificate, with no conversion after the isotopy returns; that
        # certify builds no form of its own is counted in
        # TestSecondFundamentalFormBuiltOnce
        converted, returned = [], []
        certify_product_isotopy = cli.certify_product_isotopy

        def certify(p, q):
            cert = certify_product_isotopy(p, q)
            returned.append(len(converted))
            return cert

        def counted(fn):
            def wrapper(*args):
                converted.append(args)
                return fn(*args)

            return wrapper

        for module in (classify, lineindex):
            monkeypatch.setattr(module, "_exact_fourier", counted(module._exact_fourier))
        monkeypatch.setattr(cli, "certify_product_isotopy", certify)
        code, out, _ = run(capsys, "certify", "--family", "f:3,1", "--json")
        assert code == 0
        p, q = saddle_family(3), radial_family(1)
        assert converted == [(2, q), (3, p), (5, multiply(p, q))]
        assert returned == [3]
        data = json.loads(out)
        assert data["index_product"] == data["index_factor"] == "-1/2"
        methods = data["index_product_method"], data["index_factor_method"]
        assert methods == (lineindex.ROUCHE,) * 2

    def test_indexes_read_by_the_chain(self, capsys):
        # no Fourier term of II_p or II_pq dominates, and the JSON names the
        # Cauchy index chain for both
        code, out, _ = run(capsys, "certify", "--p", "x^4 + 4*x^3*y - 8*x*y^3 - 4*y^4",
                           "--q", "x^2 + y^2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["certified"] is True
        assert data["index_product"] == data["index_factor"] == "-1"
        methods = data["index_product_method"], data["index_factor_method"]
        assert methods == (lineindex.CAUCHY_CHAIN,) * 2

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


    @pytest.mark.parametrize("flag", ["--svg", "--csv"])
    def test_elliptic_figure_is_refused(self, capsys, tmp_path, flag):
        # no asymptotic line to trace: refused by name before any sampling
        path = tmp_path / "f.out"
        code, out, err = run(capsys, "foliate", "--poly", "x^2+y^2", flag, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: hyperbolic")
        assert not path.exists()

    def test_float_miscount_is_refused(self, capsys, monkeypatch):
        # a float scan that finds nine lines too many is not reported
        def miscount(w):
            count, rays = count_separatrices(w)
            return count + 9, rays

        monkeypatch.setattr(cli, "count_separatrices", miscount)
        code, out, err = run(capsys, "foliate", "--family", "P:90")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "99" in err and "90" in err

    def test_counts_past_the_old_float_cliff(self, capsys):
        code, out, _ = run(capsys, "foliate", "--family", "P:120", "--json")
        assert code == 0
        assert json.loads(out)["separatrix_lines"] == 120

    def test_printed_rays_are_correctly_rounded(self, capsys):
        code, out, _ = run(capsys, "foliate", "--family", "P:120", "--json")
        assert code == 0
        rays = json.loads(out)["ray_angles"]
        exact = [(2 * k + 1) * math.pi / 240 for k in range(240)]
        assert len(rays) == 240
        assert ["%.9f" % a for a in rays] == ["%.9f" % a for a in exact]


class TestCertifyExactIndex:
    def test_family_pair_past_the_float_cliff(self, capsys):
        code, out, _ = run(capsys, "certify", "--family", "f:112,1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["certified"] is True
        assert data["index_product"] == data["index_factor"] == "-55"


class TestSecondFundamentalFormBuiltOnce:
    """II_f is built at most once per form: a census row and index --json
    build none, since their verdict and index are read from f's Fourier
    data; index --trace builds one for the tracer and foliate reads one
    from the hyperbolicity verdict; certify builds only the II_q, II_p and
    II_{pq} its isotopy proves and joins.  The builder is counted in every
    module that holds it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        seen = []

        def counted(fn):
            def wrapper(f):
                seen.append(f)
                return fn(f)

            return wrapper

        for module in (census, classify, cli, isotopy, quadform):
            if hasattr(module, "second_fundamental_form"):
                fn = module.second_fundamental_form
                monkeypatch.setattr(module, "second_fundamental_form", counted(fn))
        return seen

    def test_census_saddle_row(self, builds):
        row = census.enumerate_rows(13)[0]
        assert row.k == 0
        census.certify_row(row)
        assert builds == []

    def test_census_product_row(self, builds):
        row = census.enumerate_rows(13)[3]
        assert (row.k, row.m) == (3, 7)
        census.certify_row(row)
        assert builds == []

    @pytest.mark.parametrize("command", ["index", "foliate"])
    def test_line_field_commands(self, capsys, builds, command):
        code, _, _ = run(capsys, command, "--family", "P:7", "--json")
        assert code == 0
        assert builds == ([] if command == "index" else [saddle_family(7)])

    def test_index_trace(self, capsys, tmp_path, builds):
        code, _, _ = run(capsys, "index", "--family", "P:7", "--trace",
                         str(tmp_path / "t.csv"), "--json")
        assert code == 0
        assert builds == [saddle_family(7)]

    def test_certify(self, capsys, builds):
        code, _, _ = run(capsys, "certify", "--family", "f:3,1")
        assert code == 0
        p, q = saddle_family(3), radial_family(1)
        assert builds == [q, p, multiply(p, q)]


class TestFoliateSeeds:
    @pytest.mark.parametrize(
        "extra",
        [
            ("--seeds", "0", "--svg", "f.svg"),
            ("--seeds", "-5"),
            ("--seeds", str(MAX_SEEDS + 1)),
            ("--seeds", str(MAX_SEEDS + 1), "--csv", "f.csv"),
        ],
    )
    def test_out_of_range_is_usage_error(self, capsys, tmp_path, monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "foliate", "--family", "P:3", *extra)
        assert code == 2
        assert out == ""
        assert "usage error" in err and str(MAX_SEEDS) in err
        assert list(tmp_path.iterdir()) == []

    def test_cap_is_accepted(self, capsys):
        code, out, _ = run(capsys, "foliate", "--family", "P:3", "--seeds", str(MAX_SEEDS))
        assert code == 0
        assert out.startswith("3 separatrix lines")


class TestModuleEntryPoint:
    def test_python_dash_m(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["hesstop", "census", "--n", "5", "--certify"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("hesstop", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out.count("certified") == 2

    def test_closed_stdout_exits_quietly(self):
        # the read end is closed before the process starts, so its first
        # write to stdout fails with a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hesstop", "certify", "--family", "f:6,1", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    @staticmethod
    def _refused_stdout(sink: str, buffered: bool):
        # a sink whose every write fails: /dev/full (ENOSPC) or a regular
        # file past a zero file-size limit (EFBIG; Python ignores SIGXFSZ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "hesstop", "census", "--n", "5"]
        if sink == "/dev/full":
            with open("/dev/full", "w") as full:
                return subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
        resource = pytest.importorskip("resource")

        def no_file_growth():
            resource.setrlimit(resource.RLIMIT_FSIZE, (0, resource.RLIM_INFINITY))

        with tempfile.TemporaryFile() as out:
            return subprocess.run(
                argv, stdout=out, stderr=subprocess.PIPE, env=env, timeout=120,
                preexec_fn=no_file_growth,
            )

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["/dev/full", "size-limited-file"])
    def test_full_stdout_is_refused_in_one_line(self, sink, buffered):
        # buffered stdout still holds the bytes when main returns, so the
        # interpreter's last flush must not fail a second time
        if sink == "/dev/full" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        proc = self._refused_stdout(sink, buffered)
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("usage error: cannot write stdout: ")
        assert proc.stderr.count(b"\n") == 1 and b"Traceback" not in proc.stderr


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
            ("certify", "--p", "x^1024 - y^1024", "--q", "x^2 + y^2"),
            ("verify-ineq", "--p", "x^1024 - y^1024", "--q", "x^2 + y^2"),
            ("census", "--n", "1025", "--certify"),
        ],
    )
    def test_degree_above_cap(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "usage error" in err and "1024" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "--n", "2"),
            ("classify", "--poly", "x"),
            ("index", "--poly", "x"),
            ("foliate", "--poly", "x"),
            ("verify-ineq", "--p", "x", "--q", "x^2"),
            ("certify", "--family", "f:3,0"),
        ],
    )
    def test_degree_below_floor(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("classify", "--family", "P:abc"), "P:m, Q:k or f:m,k"),
            (("classify", "--family", "Z:3"), "P:m, Q:k or f:m,k"),
            (("classify", "--family", "f:3"), "P:m, Q:k or f:m,k"),
            (("classify", "--family", "P:"), "P:m, Q:k or f:m,k"),
            (("classify", "--family", ":3"), "P:m, Q:k or f:m,k"),
            (("classify", "--family", "P:1"), "m >= 2"),
            (("classify", "--family", "f:2000,-600"), "k >= 0"),
            (("classify", "--family", "P:" + "9" * 5000), "P:m, Q:k or f:m,k"),
            (("certify", "--family", "P:7"), "pair commands need f:m,k"),
            (("verify-ineq", "--family", "Q:2"), "pair commands need f:m,k"),
            (("certify", "--family", "f:3,1", "--p", "x^2"), "--family excludes --p/--q"),
            (("classify", "--family", "P:1_0"), "P:m, Q:k or f:m,k"),
            (("classify", "--family", "P:+3"), "P:m, Q:k or f:m,k"),
            (("classify", "--family", "P:\uff13"), "P:m, Q:k or f:m,k"),
            (("classify", "--family", "f: +3 , 1"), "P:m, Q:k or f:m,k"),
        ],
        ids=["P:abc", "Z:3", "f:3", "P:", ":3", "P:1", "f:2000,-600", "P:9...9",
             "certify-P:7", "verify-ineq-Q:2", "family-and-p", "P:1_0", "P:+3",
             "P:fullwidth-3", "f:spaced-signed"],
    )
    def test_bad_family_spec(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert named in err and len(err) < 4 * ECHO_CHARS + 200
        assert "invalid literal" not in err and "unpack" not in err
        if "excludes" not in named:
            assert f"bad family spec {argv[2][:ECHO_CHARS]!r}" in err

    @pytest.mark.parametrize(
        "text, marker",
        [("x + 3 * yy", "yy"), ("x+3*yy", "x+3*yy"), ("x^2+" + "y" * 300, "x^2+yyy")],
        ids=["spaced", "compact", "long"],
    )
    def test_parse_error_quotes_text_once(self, capsys, text, marker):
        code, out, err = run(capsys, "classify", "--poly", text)
        assert code == 2 and out == ""
        assert "cannot parse polynomial: " in err
        # the parser's message quotes the text; the CLI adds no second quote
        assert err.count(marker) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("index", "--family", "P:3", "--trace", "{missing}/t.csv"),
            ("foliate", "--family", "P:3", "--svg", "{missing}/p.svg"),
            ("foliate", "--family", "P:3", "--csv", "{dir}"),
        ],
        ids=["trace-missing-dir", "svg-missing-dir", "csv-is-a-directory"],
    )
    def test_unwritable_path_is_usage_error(self, capsys, tmp_path, argv):
        argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error: cannot write ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert argv[-1][:ECHO_CHARS] in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_is_named_not_stdout(self, capsys):
        # the path opens, and the write fails only when the figure is flushed
        code, out, err = run(capsys, "foliate", "--family", "P:3", "--svg", "/dev/full")
        assert code == 2 and out == ""
        assert err.startswith("usage error: cannot write '/dev/full': ")
        assert err.count("\n") == 1
