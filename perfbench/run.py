#!/usr/bin/env python3
"""The hesstop benchmark: one workload, one closed-loop run, one JSON line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

One caller in one process runs the workload's operation list again and
again, each op only after the previous one returned, for ``--seconds``:
only whole lists are run, and a list is not started when the lists so far
say it would end after the deadline.  No threads are started.  Every op's
output is checked after its timed call; an exception or a wrong answer
counts as a failure and the run goes on.

Every time is given in reference seconds: wall seconds scaled by how fast
the machine ran the fixed chunk of ``reference.py`` at that moment.  The
chunk is timed at the start and end of each list and between its ops every
0.05 s; an op's scale is ``reference.NOMINAL_S`` over the median of the
chunk timings within 0.3 s of it.  Other tenants of a shared machine slow
this process by a third or more, in bursts from under a second to minutes;
the chunk slows with it, so the scaled times measure the program, not the
neighbours.  A reference second is a wall second while the chunk takes
``NOMINAL_S``.

With ``--trace 0`` the last line of stdout is the end-to-end result:

- ``setup_s``: the time a fresh interpreter takes to import hesstop and
  build the workload's inputs, scaled by the chunk timed in that
  interpreter right after; the median of seven made one at a time between
  the lists of the run;
- ``run_s``: time of one operation list, as the sum of the op latencies
  below;
- ``op_p50_ms``: median latency over the ops of a list, an op's latency
  being the mean of its timings in the run without the fastest and the
  slowest (once there are four or more);
- ``op_tail_ms``: the highest percentile of those latencies with ten ops
  beyond it (the percentile and op count are printed above the result
  line);
- ``ok_ratio``: 1 - fail_ratio, the share of ops that returned a right
  answer; fail_ratio is 0 on most workloads, so the complement is reported;
- ``peak_rss_mb``: peak resident memory of this process.

The unscaled wall time of every list, each list's scale and every set-up
time are written to the result file as well.

With ``--trace 1`` untraced and traced lists alternate; the result holds
every per-layer metric of ``tracer.PER_LAYER`` (medians over the traced
lists) and ``trace.overhead_ratio``, traced over untraced ``run_s``.
Per-layer times are the spans' unscaled wall seconds.

Each run also writes ``perfbench/results/<workload>-seed<n>-trace<t>.json``
with the seed, the input descriptors, nproc, the Python version, the
per-list values and their spread; a traced run writes the raw spans of its
last traced list beside it as ``...-spans.jsonl``.

Exits 2 without a result when ``src/hesstop`` is not in the working
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
PROBE_CHUNKS = 15
REF_EVERY_S = 0.05
REF_WINDOW_S = 0.3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("census", "line_field", "sign_mixed", "identities"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="a few small inputs per workload, for smoke tests")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def results_dir() -> str:
    path = os.path.join(HERE, "results")
    os.makedirs(path, exist_ok=True)
    return path


def build(args):
    """Import hesstop and build the ops; returns (ops, seconds taken)."""
    t0 = time.perf_counter()
    import workloads

    build_ops, _ = workloads.WORKLOADS[args.workload]
    ops = build_ops(args.seed, small=args.small, outdir=results_dir())
    return ops, time.perf_counter() - t0


def probe_setup(args) -> float:
    """Set-up time of one fresh interpreter, which runs ``build``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--small"] if args.small else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def run_list(ops, tracer=None):
    """One pass over the op list.  The reference chunk is timed at the start
    and end of the list and after an op whenever ``REF_EVERY_S`` has passed
    since the last timing; each op's latency is scaled by the chunk timings
    within ``REF_WINDOW_S`` of its middle (at least the three nearest).
    Returns (unscaled wall seconds of the ops, scaled latencies, failures,
    scale of the whole list)."""
    raw, middles, failures, samples = [], [], [], []

    def sample():
        samples.append((time.perf_counter(), reference.chunk()))

    sample()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        t0 = time.perf_counter()
        raised = False
        try:
            result = op.call()
        except Exception as exc:  # any failure is counted, the run goes on
            raised = True
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        if not raised:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None and tracer is not None:
                tracer.note_wrong(op.entry)
        raw.append(t1 - t0)
        middles.append((t0 + t1) / 2)
        if error is not None:
            failures.append((op.label, error))
        if time.perf_counter() - samples[-1][0] >= REF_EVERY_S:
            sample()
    sample()

    scaled = []
    for latency, middle in zip(raw, middles):
        near = [c for t, c in samples if abs(t - middle) <= REF_WINDOW_S]
        if len(near) < 3:
            near = [c for _, c in sorted(samples, key=lambda tc: abs(tc[0] - middle))[:3]]
        scaled.append(latency * reference.scale(near))
    return sum(raw), scaled, failures, reference.scale([c for _, c in samples])


def central(timings):
    """Mean of an op's timings in a run, without the fastest and the slowest
    once there are four or more."""
    ordered = sorted(timings)
    if len(ordered) >= 4:
        ordered = ordered[1:-1]
    return sum(ordered) / len(ordered)


def tail(latencies):
    """(value, percentile) of the highest percentile with ten ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def spread(values):
    """Interquartile distance over the median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "hesstop", "__init__.py")):
        print(f"perfbench: no src/hesstop under {os.getcwd()}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    if args.probe_setup:
        _, setup = build(args)
        scale = reference.scale([reference.chunk() for _ in range(PROBE_CHUNKS)])
        print(json.dumps({"setup_s": setup * scale}))
        return 0

    if not args.trace:
        probe_setup(args)  # writes the bytecode caches; not counted
    ops, setup_here = build(args)

    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None

    plain_times, traced_times, failures, layer_passes, setup_probes = [], [], [], [], []
    timings, traced_timings, scales, passes = [], [], [], []
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        wall, lat, fail, scale = run_list(ops)
        plain_times.append(wall)
        timings.append(lat)
        scales.append(scale)
        failures += fail
        attempted += len(ops)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                wall, lat, fail, scale = run_list(ops, tracer)
            finally:
                tracer.uninstall()
            traced_times.append(wall)
            traced_timings.append(lat)
            failures += fail
            attempted += len(ops)
            layer_passes.append(tracing.layer_metrics(tracer.spans, tracer.wrong))
        passes.append(time.perf_counter() - started)
        if tracer is None and len(setup_probes) < SETUP_PROBES:
            setup_probes.append(probe_setup(args))
        if time.perf_counter() + statistics.median(passes) > deadline:
            break

    while tracer is None and len(setup_probes) < SETUP_PROBES:
        setup_probes.append(probe_setup(args))

    unknown = sorted({label for label, _ in failures} - workloads.KNOWN_SEED_DEFECTS)
    latencies = [central(per_op) for per_op in zip(*timings)]
    run_s = sum(latencies)
    tail_ms, tail_pct = tail(latencies)
    fail_ratio = len(failures) / attempted
    end_to_end = {
        "setup_s": (statistics.median(setup_probes) if setup_probes else setup_here, "s"),
        "run_s": (run_s, "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_ms * 1e3, "ms"),
        "ok_ratio": (1.0 - fail_ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if tracer is None:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()}
    else:
        layers = tracing.median_metrics(layer_passes)
        traced_run_s = sum(central(per_op) for per_op in zip(*traced_timings))
        layers["trace.overhead_ratio"] = traced_run_s / run_s
        metrics = {name: {"value": v, "unit": tracing.unit(name)} for name, v in layers.items()}

    _, why = workloads.WORKLOADS[args.workload]
    stem = os.path.join(results_dir(), f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload, "why": why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(),
        "inputs": [{"label": op.label, "entry": op.entry, **op.desc, "latency_ms": lat * 1e3,
                    "timings_ms": [t * 1e3 for t in per_op]}
                   for op, lat, per_op in zip(ops, latencies, zip(*timings))],
        "lists": len(plain_times), "ops_per_list": len(ops),
        "list_wall_s": plain_times, "list_wall_s_median": statistics.median(plain_times),
        "list_wall_s_spread": spread(plain_times), "list_scale": scales,
        "traced_list_wall_s": traced_times,
        "setup_s_probes": setup_probes, "setup_s_in_process": setup_here,
        "setup_s_spread": spread(setup_probes),
        "op_tail": {"percentile": tail_pct, "ops": len(latencies)},
        "fail_ratio": fail_ratio, "failed_ops": sorted(set(failures)),
        "unexpected_failures": unknown,
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)
    if tracer is not None:
        with open(stem + "-spans.jsonl", "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")

    print(f"{args.workload} seed={args.seed} lists={len(plain_times)} "
          f"ops/list={len(ops)} nproc={os.cpu_count()} python={platform.python_version()}")
    if tracer is None:
        for name, (value, unit) in end_to_end.items():
            print(f"  {name:<12} {value:.6g} {unit}")
        print(f"  op_tail_ms is p{tail_pct:.2f} of {len(latencies)} ops; "
              f"fail_ratio {fail_ratio:.6g} ({len(failures)} of {attempted}); "
              f"median list wall time {statistics.median(plain_times):.6g} s")
    else:
        for name, metric in metrics.items():
            print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    for label in unknown:
        print(f"  unexpected failure: {label}")
    print(json.dumps({"correct": not unknown, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
