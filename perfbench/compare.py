"""Compare two sets of run records (JSON lines written by run.py --out).

One row per workload, trace mode and metric: each set's median and
quartiles over all its runs, the ratio B/A with its base A, and how many
seed-matched pairs B won (runs of one seed pair up in file order).  The unscaled times (``raw.*``) and the speed factor get rows too, so a
gap between the scaled and the raw ratio shows.  Then the tracing overhead
of each set (plain ops/s minus traced ops/s) and whether the output digests
agree seed by seed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _directions(benchmark_json):
    try:
        with open(benchmark_json, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _group(records):
    """{(workload, trace, metric): {seed: [values in file order]}}"""
    out = defaultdict(lambda: defaultdict(list))
    for rec in records:
        values = dict(rec["metrics"], speed_factor=rec["speed_factor"])
        values.update({f"raw.{k}": v for k, v in rec["raw"].items()})
        for name, value in values.items():
            out[rec["workload"], rec["trace"], name][rec["seed"]].append(value)
    return out


def main(path_a, path_b, benchmark_json):
    a, b = _load(path_a), _load(path_b)
    better = _directions(benchmark_json)
    ga, gb = _group(a), _group(b)
    print(f"A = {path_a} ({len(a)} runs), B = {path_b} ({len(b)} runs)")
    print(f"{'workload':11s} {'metric':30s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'B/A':>7s} {'B won':>7s}")
    for key in sorted(set(ga) & set(gb)):
        workload, _, name = key
        va, vb = ga[key], gb[key]
        qa = _quartiles([v for vs in va.values() for v in vs])
        qb = _quartiles([v for vs in vb.values() for v in vs])
        ratio = f"{qb[1] / qa[1]:.3f}" if qa[1] else "-"
        higher = better.get(name.removeprefix("raw."), "lower") == "higher"
        pairs = [(x, y) for s in sorted(set(va) & set(vb))
                 for x, y in zip(va[s], vb[s])]
        won = sum(1 for x, y in pairs if (y > x if higher else y < x))
        print(f"{workload:11s} {name:30s} "
              f"{qa[1]:12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(74)
              + f"{qb[1]:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]".ljust(31)
              + f" {ratio:>7s} {won:>3d}/{len(pairs):<3d}")
    for label, groups in (("A", ga), ("B", gb)):
        for workload in sorted({k[0] for k in groups}):
            plain = groups.get((workload, 0, "ops_per_s"))
            traced = groups.get((workload, 1, "trace.ops_per_s"))
            if plain and traced:
                p = statistics.median(v for vs in plain.values() for v in vs)
                t = statistics.median(v for vs in traced.values() for v in vs)
                print(f"tracing overhead {label} {workload}: {p:.4g} - {t:.4g} "
                      f"= {p - t:.4g} ops/s ({(p - t) / p:.1%} of plain)")
    digests_a, digests_b = _digests(a), _digests(b)
    common = sorted(set(digests_a) & set(digests_b))
    same = sum(len(digests_a[k] | digests_b[k]) == 1 for k in common)
    print(f"output digests identical on {same}/{len(common)} "
          f"(workload, seed, rounds) groups")
    for k in common:
        if len(digests_a[k] | digests_b[k]) > 1:
            print(f"  digest differs: {k[0]} seed {k[1]} over {k[2]} rounds")
    return 0


def _digests(records):
    """The digests of each (workload, seed, digest rounds), plain and traced
    runs alike: one per group when the outputs are reproducible."""
    out = defaultdict(set)
    for rec in records:
        out[rec["workload"], rec["seed"], rec["digest_rounds"]].add(rec["digest"])
    return out
