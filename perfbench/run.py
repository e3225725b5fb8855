#!/usr/bin/env python3
"""Benchmark of fdq: three seeded closed-loop workloads, end to end and per layer.

One run:

    python3 perfbench/run.py --workload star-scan --seed 1 --seconds 20 --trace 0

A single client on one thread keeps one operation in flight: it times the
calls into fdq, then checks the output against an independent reference or
a known answer with the clock stopped.  Work comes in rounds (a fixed mix of
operation kinds, see workloads.py).  ``--trace 0`` measures whole rounds until
``--seconds`` of operation time have passed and reports the end-to-end
metrics.  ``--trace 1`` wraps every fdq layer in spans, measures a fixed
number of rounds whatever the speed, and reports the per-layer metrics.
The last line of stdout is the result as one JSON object; the lines above it
give the metrics as text and the full record (Python version, CPU count,
commit, seed, output digest, raw timings).

Times are reported at a nominal machine speed.  On a shared virtual machine
the speed of the host drifts by up to 2x over tens of seconds, so a fixed
pure-Python calibration loop runs between operations (outside the timed
region) and every time is scaled by CAL_NOMINAL_S / (mean calibration time).
The raw times and the speed factor are kept in the record.

    --out FILE          also append the record to FILE (JSON lines)
    --compare A B       compare two such files: medians, quartiles, ratio,
                        pairs won, tracing overhead and digest agreement
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Rounds per second of --seconds that every run completes: about the traced
# rate on a 2-core Xeon VM.  The traced run measures exactly these rounds, so
# its counts and self times are totals over a fixed amount of work; a plain
# run finishes them untimed if --seconds ran out first.  Their outputs make
# the digest, and set-up builds their inputs.  Any further round is built
# when it is reached, outside the timed region, so no round is replayed.
FIXED_ROUNDS_PER_S = {"star-scan": 0.8, "matrix-gns": 0.15, "cli-batch": 3.2}
IMPORT_REPEATS = 9
BUILD_REPEATS = 3
WALL_LIMIT_S = 150.0

# The calibration loop takes CAL_NOMINAL_S on a quiet 2-core Xeon VM running
# CPython 3.11; it runs after every CAL_EVERY_S of operation time.
CAL_ITERATIONS = 600
CAL_NOMINAL_S = 0.005
CAL_EVERY_S = 0.05


def _calibrate():
    """Time a fixed loop of Fraction and dict work, the kind of work fdq's
    inner loops do; its duration tracks how fast the machine runs now.  The
    collector is off during the loop and its objects are its own, so the
    program's heap cannot slow it and hide the program's own cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, CAL_ITERATIONS):
            acc += Fraction(i % 11 + 1, i % 7 + 1) * Fraction(1, i % 5 + 2)
            table[i % 37, i % 11] = acc.numerator % 1000
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def fixed_rounds(name, seconds):
    return max(1, round(FIXED_ROUNDS_PER_S[name] * seconds))


def _percentiles(latencies):
    if len(latencies) < 2:
        return latencies[0], latencies[0]
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]


def _environment():
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    digest = hashlib.sha256()
    for path in sorted((SRC / "fdq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    env["commit"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            env["commit"] = proc.stdout.strip()
    return env


def _measure_setup(workloads, name, seed, n_rounds):
    """Set-up time: the median import of fdq and fdq.cli in a fresh
    interpreter plus the median build of the inputs of the first `n_rounds`
    rounds, each over several repeats; also the mean calibration time around
    them.  Returns the built rounds and the source of the rounds after them."""
    env = dict(os.environ)
    env.pop("FDQ_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    imports, builds, cal = [], [], [_calibrate()]
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fdq, fdq.cli"], env=env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        imports.append(time.perf_counter() - start)
        cal.append(_calibrate())
    for _ in range(BUILD_REPEATS):
        prebuilt = None  # free the last repeat's inputs first
        start = time.perf_counter()
        source = workloads.rounds(name, seed)
        prebuilt = deque(next(source) for _ in range(n_rounds))
        builds.append(time.perf_counter() - start)
        cal.append(_calibrate())
    setup = statistics.median(imports) + statistics.median(builds)
    return setup, statistics.fmean(cal), prebuilt, source


def _verify(op, out, error):
    """Canonical text of a correct output, or None with the reason."""
    if error is not None:
        return None, f"{op.kind}: raised {type(error).__name__}: {error}"
    try:
        return op.check(out), None
    except Exception as exc:  # a wrong output, or a check that could not run
        return None, f"{op.kind}: {type(exc).__name__}: {exc}"


def _drive(prebuilt, source, fixed, seconds, tracer):
    """Closed loop over whole rounds, each dropped once it has run.  Traced:
    exactly `fixed` rounds, all measured.  Plain: measured rounds until
    `seconds` of operation time, then untimed rounds up to `fixed`.  The
    outputs of the first `fixed` rounds make the digest."""
    latencies, texts, failures = [], [], []
    busy, attempted, r, truncated = 0.0, 0, 0, False
    started = time.monotonic()
    gc.collect()
    cal, since_cal = [_calibrate()], 0.0
    while not truncated:
        measuring = r < fixed if tracer is not None else busy < seconds
        if not measuring and r >= fixed:
            break
        ops = prebuilt.popleft() if prebuilt else next(source)
        for op in ops:
            if time.monotonic() - started > WALL_LIMIT_S:
                truncated = True
                break
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # counted as a failed operation
                out, error = None, exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            if measuring:
                busy += elapsed
                latencies.append(elapsed)
                since_cal += elapsed
                if since_cal >= CAL_EVERY_S:
                    cal.append(_calibrate())
                    since_cal = 0.0
            text, failure = _verify(op, out, error)
            if failure:
                failures.append(failure)
            if r < fixed:
                texts.append(f"{op.kind}\0{text}")
            attempted += 1
        r += 1
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return {"attempted": attempted, "failures": failures,
            "latencies": latencies, "cal": statistics.fmean(cal),
            "busy": busy, "digest": digest, "rounds": r,
            "truncated": truncated}


def run(args):
    if not (SRC / "fdq" / "__init__.py").is_file():
        print(f"error: no fdq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("FDQ_CONFIG", None)
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    fixed = fixed_rounds(args.workload, args.seconds)
    setup_raw, setup_cal, prebuilt, source = _measure_setup(
        workloads, args.workload, args.seed, fixed)
    res = _drive(prebuilt, source, fixed, args.seconds, tracer)

    lat = res["latencies"]
    speed = res["cal"] / CAL_NOMINAL_S  # > 1 when the machine runs slow
    raw_ops_per_s = len(lat) / res["busy"]
    if tracer is None:
        p50, p90 = _percentiles(lat)
        metrics = {
            "ops_per_s": (raw_ops_per_s * speed, "1/s"),
            "op_p50_ms": (p50 * 1e3 / speed, "ms"),
            "op_p90_ms": (p90 * 1e3 / speed, "ms"),
            "setup_s": (setup_raw * CAL_NOMINAL_S / setup_cal, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        raw = {"ops_per_s": raw_ops_per_s, "op_p50_ms": p50 * 1e3,
               "op_p90_ms": p90 * 1e3, "setup_s": setup_raw}
    else:
        metrics = {name: (value / speed if unit == "s" else value, unit)
                   for name, (value, unit) in tracer.metrics().items()}
        metrics["trace.ops_per_s"] = (raw_ops_per_s * speed, "1/s")
        raw = {"trace.ops_per_s": raw_ops_per_s}

    failed = len(res["failures"])
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "attempted": res["attempted"],
        "failed": failed, "failed_ratio": failed / res["attempted"],
        "samples": len(lat), "busy_s": res["busy"], "digest": res["digest"],
        "rounds": res["rounds"], "digest_rounds": fixed,
        "truncated": res["truncated"],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "raw": raw, "speed_factor": speed,
        "setup_speed_factor": setup_cal / CAL_NOMINAL_S,
        "env": _environment(), "failures": res["failures"][:5],
    }
    for failure in res["failures"][:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    if res["truncated"]:
        print(f"TRUNCATED after {WALL_LIMIT_S:.0f} s", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['samples']} timed ops in {res['busy']:.2f} s, "
          f"attempted={record['attempted']} failed={failed} "
          f"failed_ratio={record['failed_ratio']:.4g} digest={res['digest'][:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0 and not res["truncated"],
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(FIXED_ROUNDS_PER_S))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two files of run records")
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
