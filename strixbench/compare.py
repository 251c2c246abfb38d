#!/usr/bin/env python3
"""Compare two sets of strixbench runs: a parent commit and a change.

Usage:

    python3 strixbench/compare.py --base <file|dir>... --change <file|dir>...

Each argument is a run record written by run.py (a .json file under
.bench_build/results/) or a directory of them; a directory's records
are read in name order, which is the order they were written. Every
record is kept. Runs are paired by workload, seed and repetition: the
i-th base run of a seed with the i-th change run of it. The script
refuses to compare when one side holds runs of more than one source
(git commit or source digest), when both sides hold the same source,
or when the runs' context differs in anything but the source id
(host, core count, CPU flags, kernel backend, build type, parameter
set, daemon options, workload shape).

For every workload and end-to-end metric it prints each side's median
and quartiles and a verdict, using the bounds in BENCHMARK.json:

  gain        the change wins at least 9 of every 10 pairs (ties count
              for neither), the medians differ by more than the
              distance between the parent's quartiles, and the change
              failed no more requests than the parent;
  regression  the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's own spread (quartile distance over median)
              is wider than the bound, and not every change run beats
              every parent run;
  ok          none of the above.

Traced runs give per-layer metrics; those are listed with medians only
(they carry no bound). Exit status: 0, 1 when any regression is found,
2 when the runs cannot be compared.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    records = []
    for path in paths:
        files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
                  if f.endswith(".json")] if os.path.isdir(path) else [path])
        for f in files:
            with open(f) as fh:
                rec = json.load(fh)
            rec["_file"] = f
            records.append(rec)
    return records


def comparable_context(rec):
    ctx = dict(rec["context"])
    ctx.pop("source_id", None)
    return ctx


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def verdict(base, change, pairs, spec, more_failures):
    direction, bound = spec["better"], spec["bound"]
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for b, c in pairs if better(c, b, direction))
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - bmed) > bq3 - bq1:
        return "ok (wins, but more requests failed)" if more_failures \
            else "gain"
    if bmed == 0:
        return "unresolved"
    worse = (cmed - bmed) / abs(bmed)
    if direction == "higher":
        worse = -worse
    spread = (bq3 - bq1) / abs(bmed)
    if spread > bound:
        if all(better(c, b, direction) for c in change for b in base):
            return "ok (every change run better)"
        return "unresolved"
    return "REGRESSION" if worse > bound else "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE),
                                         "BENCHMARK.json"))
    opts = ap.parse_args()
    with open(opts.benchmark) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"]}

    sides = {"base": load(opts.base), "change": load(opts.change)}
    if not sides["base"] or not sides["change"]:
        print("compare: no runs on one side", file=sys.stderr)
        return 2

    # Each side is one source, and not the other side's.
    sources = {}
    for side, recs in sides.items():
        ids = sorted({r["context"].get("source_id") for r in recs})
        if len(ids) != 1:
            print(f"compare: refusing: {side} runs come from {len(ids)} "
                  f"sources {ids}", file=sys.stderr)
            return 2
        sources[side] = ids[0]
    if sources["base"] == sources["change"]:
        print(f"compare: refusing: both sides are source "
              f"{sources['base']}", file=sys.stderr)
        return 2

    # Refuse to compare runs taken in different settings.
    by_workload = {}
    for rec in sides["base"] + sides["change"]:
        ref = by_workload.setdefault(rec["workload"], comparable_context(rec))
        ctx = comparable_context(rec)
        if ctx != ref:
            keys = sorted(k for k in set(ctx) | set(ref)
                          if ctx.get(k) != ref.get(k))
            print(f"compare: refusing: {rec['_file']} differs in context "
                  f"{keys} from other {rec['workload']} runs",
                  file=sys.stderr)
            return 2

    print(f"base {sources['base']}, change {sources['change']}")
    regression = False
    for workload in sorted(by_workload):
        for traced in (False, True):
            runs = {side: [r for r in recs if r["workload"] == workload
                           and r["trace"] == traced]
                    for side, recs in sides.items()}
            if not runs["base"] or not runs["change"]:
                continue
            # Pair the i-th run of a seed on one side with the i-th
            # run of that seed on the other.
            pairs_of = {"base": {}, "change": {}}
            for side, recs in runs.items():
                for r in recs:
                    pairs_of[side].setdefault(r["seed"], []).append(
                        r["result"]["metrics"])
            paired = [(b, c) for seed in sorted(set(pairs_of["base"]) &
                                                set(pairs_of["change"]))
                      for b, c in zip(pairs_of["base"][seed],
                                      pairs_of["change"][seed])]
            failed = {side: sum(r["result"]["failed"] for r in recs)
                      for side, recs in runs.items()}
            kind = "per-layer (traced)" if traced else "end-to-end"
            print(f"\n{workload}: {kind}; {len(runs['base'])} base runs, "
                  f"{len(runs['change'])} change runs, {len(paired)} pairs; "
                  f"failed requests {failed['base']} base, "
                  f"{failed['change']} change")
            print(f"  {'metric':34s} {'base q1/med/q3':>30s} "
                  f"{'change q1/med/q3':>30s}  verdict")
            metrics = {side: [r["result"]["metrics"] for r in recs]
                       for side, recs in runs.items()}
            names = sorted(set().union(*[m.keys() for m in metrics["base"]]))
            for name in names:
                base = [m[name]["value"] for m in metrics["base"] if name in m]
                change = [m[name]["value"] for m in metrics["change"]
                          if name in m]
                if not base or not change:
                    continue
                b, c = quartiles(base), quartiles(change)
                cell = "%9.4g %9.4g %9.4g"
                line = (f"  {name:34s} {cell % b:>30s} {cell % c:>30s}")
                if not traced and name in specs:
                    pairs = [(pb[name]["value"], pc[name]["value"])
                             for pb, pc in paired
                             if name in pb and name in pc]
                    v = verdict(base, change, pairs, specs[name],
                                failed["change"] > failed["base"])
                    regression |= v == "REGRESSION"
                    line += f"  {v} (bound {specs[name]['bound']:.0%})"
                print(line)
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main())
