#!/usr/bin/env python3
"""Benchmark for bellrand: end-to-end metrics per workload, per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; bellrand is imported from ``src/``. The
workload's inputs are made from the seed, then whole rounds of the same
points run until ``--seconds`` have passed. Every output is checked, and
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The end-to-end
times are scaled to a fixed host speed with the reference kernel in
``hostspeed.py``. Details and spans go to ``perfbench/out/``. BLAS
libraries run one thread unless ``OPENBLAS_NUM_THREADS`` (or
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) is already set, and the thread
count in use is reported.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread unless the caller chose otherwise; this must precede the
# first numpy import. On a 2-CPU shared host, two OpenBLAS threads made one
# level-2 bound take 0.24 to 0.69 s against 0.13 to 0.16 s with one thread,
# and that spread swamped every timing metric.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5


def import_bellrand():
    """bellrand from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bellrand
    from bellrand import cli, guessprob, npa, qstate, seesaw  # noqa: F401

    if Path(bellrand.__file__).resolve().parent != src / "bellrand":
        raise ImportError(f"bellrand imported from {bellrand.__file__}, not {src}")
    return bellrand


def blas_threads():
    """Thread counts of the OpenBLAS libraries loaded by numpy and scipy."""
    counts = {}
    with open("/proc/self/maps") as fh:
        paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                counts[Path(path).name] = fn()
                break
    return counts


def measure_setup(args):
    """Wall times of fresh processes that import bellrand and make the
    seeded inputs, from process start to exit, and the reference samples
    taken before each of them and after the last."""
    times, refs = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        refs.append(hostspeed.sample())
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    refs.append(hostspeed.sample())
    return times, refs


def timed_phase(wl, seconds, tracer):
    """Whole rounds until ``seconds`` have passed. With a tracer, rounds
    alternate traced and untraced, starting traced, and at least one of
    each runs. A reference sample is taken before each point and after the
    last one; ``wall`` leaves them out."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.round = len(rounds)
            tracer.install()
        outs, times, refs = [], [], []
        t_round = time.perf_counter()
        try:
            for i in range(len(wl.points)):
                if traced:
                    tracer.point = i
                refs.append(hostspeed.sample())
                t0 = time.perf_counter()
                outs.append(wl.run_point(i))
                times.append(time.perf_counter() - t0)
        finally:
            if traced:
                tracer.remove()
        refs.append(hostspeed.sample())
        rounds.append(dict(
            wall=time.perf_counter() - t_round - sum(refs), times=times,
            refs=refs, scaled=scaled(times, refs), outs=outs, traced=traced,
        ))
        done = time.perf_counter() - t_start >= seconds
        if done and (tracer is None or len(rounds) >= 2):
            return rounds


def scaled(times, refs):
    """Each time at the reference speed, judged by the reference samples
    taken just before and just after it. The host's speed can change
    within seconds, so nearer samples track it better than the run's mean."""
    return [t * hostspeed.scale(refs[i:i + 2]) for i, t in enumerate(times)]


def point_p50(rounds):
    """Median over points of each point's mean scaled time over the rounds."""
    per_point = zip(*(r["scaled"] for r in rounds))
    return statistics.median(statistics.fmean(ts) for ts in per_point)


def evaluate(wl, rounds):
    """Check every round; returns (correct, failed, per-round messages,
    per-round hmin sums, self-test problems)."""
    correct = True
    failed = 0
    messages, sums = [], []
    for rnd in rounds:
        try:
            results = wl.parse(rnd["outs"])
        except ValueError as exc:
            correct = False
            failed += len(wl.points)
            messages.append([[f"output: {exc}"]] * len(wl.points))
            continue
        bad = wl.check(results)
        failed += sum(1 for b in bad if b)
        messages.append(bad)
        sums.append(sum(wl.hmin(r) for r in results))
        rnd["results"] = results
    problems = []
    first = next((r["results"] for r in rounds if "results" in r), None)
    if first is None:
        problems.append("no parseable round to test the checks on")
    else:
        for tag, idx, corrupted in wl.corruptions(first):
            if not any(m.startswith(tag + ":") for m in wl.check(corrupted)[idx]):
                problems.append(f"check '{tag}' accepted a corrupted point {idx}")
    return correct and not problems, failed, messages, sums, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    bellrand = import_bellrand()
    wl = workloads.make(args.workload, args.seed, bellrand)
    if args.setup_probe:
        return 0

    hostspeed.warm_up()
    setup_samples, setup_refs = measure_setup(args)
    tracer = tracing.Tracer(bellrand) if args.trace else None
    rounds = timed_phase(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct, failed, messages, sums, problems = evaluate(wl, rounds)
    attempted = len(rounds) * len(wl.points)

    threads = blas_threads()
    env = {
        "blas_threads": threads,
        "host": platform.node(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(scaled(setup_samples, setup_refs)), "s"),
            "wall_s": (statistics.median(sum(r["scaled"]) for r in rounds), "s"),
            "point_p50_s": (point_p50(rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "hmin_total_bits": (statistics.median(sums) if sums else 0.0, "bits"),
        }
    else:
        traced = [r for r in rounds if r["traced"]]
        untraced = [r for r in rounds if not r["traced"]]
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        metrics["trace.overhead_s"] = (
            statistics.median(sum(r["scaled"]) for r in traced)
            - statistics.median(sum(r["scaled"]) for r in untraced), "s",
        )
        metrics["blas_threads"] = (max(threads.values(), default=0), "count")

    first = rounds[0].get("results", [None] * len(wl.points))
    for label, t, res, bad in zip(wl.labels(), rounds[0]["times"], first, messages[0]):
        h = "-" if res is None else f"{wl.hmin(res):.6f}"
        print(f"{args.workload} {label}: {t:.3f} s, hmin {h}, {'; '.join(bad) or 'ok'}")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "args": vars(args), "env": env, "setup_samples": setup_samples,
        "setup_refs": setup_refs,
        "rounds": [{k: r[k] for k in ("wall", "times", "refs", "scaled", "traced")}
                   for r in rounds],
        "labels": wl.labels(), "messages": messages, "self_test": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
