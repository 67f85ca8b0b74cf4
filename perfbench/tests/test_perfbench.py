"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(*extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--seed", "3", "--seconds", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--trace", trace, "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]][1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "census", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_latencies_are_scaled_by_the_reference_chunk(monkeypatch):
    import run

    # the chunk runs at half the nominal speed, so every latency halves
    monkeypatch.setattr(run.reference, "chunk", lambda: 2 * run.reference.NOMINAL_S)
    op = workloads.Op("sleep", "time.sleep", lambda: time.sleep(0.01), lambda _: None)
    wall, scaled, failures, scale = run.run_list([op, op, op])
    assert failures == [] and scale == 0.5
    assert sum(scaled) == pytest.approx(wall / 2)
    assert run.central([3.0, 1.0, 2.0]) == 2.0
    assert run.central([1.0, 2.0, 3.0, 100.0]) == 2.5


def _outcome(op):
    try:
        return "ok", op.call()
    except Exception as exc:
        return "raised", repr(exc)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_agree(workload, tmp_path):
    build, _ = workloads.WORKLOADS[workload]
    ops = build(5, small=True, outdir=str(tmp_path))
    plain = [_outcome(op) for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        traced = [_outcome(op) for op in ops]
    finally:
        tracer.active = False
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans
    for span in tracer.spans:
        assert span["self"] <= span["end"] - span["start"]
        if span["name"].startswith(("classify.", "polyalg.", "quadform.", "lineindex.")):
            assert span["degree"] >= 0 and span["bits"] >= 0, span


def test_uninstall_restores_the_library():
    from hesstop import classify, polyalg

    multiply, of = polyalg.multiply, classify.SturmChain.of
    tracer = tracing.Tracer()
    tracer.install()
    assert polyalg.multiply is not multiply
    tracer.uninstall()
    assert polyalg.multiply is multiply
    assert classify.SturmChain.of == of


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sign_mixed_verdicts_against_sympy(seed):
    sympy = pytest.importorskip("sympy")
    from hesstop import classify

    t = sympy.Symbol("t")
    for kind, degree, _, p in workloads.sign_forms(seed, small=True):
        assert p.degree == degree
        u = sympy.Poly([int(c) for c in reversed(p.coeffs)], t)
        real = {}
        for r in u.real_roots():
            real[r] = real.get(r, 0) + 1
        odd = any(mult % 2 for mult in real.values())
        if kind == "definite":
            assert not real and u.LC() > 0 and u.TC() > 0
        elif kind == "odd_linear":
            assert odd
        else:
            assert real and not odd and u.LC() > 0
            rational = all(r.is_rational for r in real)
            assert rational == (kind == "rational_double")
        sign = classify.sign_on_punctured_plane(p)
        nonneg = classify.certify_nonnegative(p)
        assert (sign.verdict is classify.Verdict.POSITIVE) == (not real)
        assert nonneg.nonnegative == (not odd)
        assert nonneg.strict == (not real)
