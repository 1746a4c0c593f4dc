#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

Each RUNS directory holds the standard output of runs, one file per run (as
sweep.py writes them). For every (workload, end-to-end metric) the script
prints each set's median and quartiles and the spread (q3 - q1) / median. A
set agrees with the bounds when every spread is within the metric's bound;
two sets agree when, in addition, B's median is not worse than A's by more
than the bound and the share of failed operations is the same. End-to-end numbers are read from each run's "e2e" line, which
traced runs print too: comparing untraced A with traced B shows the tracing
overhead in the "change" column. Per-layer medians are listed for traced
runs. Exits 1 when a set or the pair does not agree.
"""

import json
import os
import statistics
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def load_runs(directory):
    """{workload: [run]} where run = {"e2e", "result", "info"}."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        lines = [l for l in open(path).read().splitlines() if l.strip()]
        run = {}
        for line in lines:
            for key in ("info", "e2e", "ops"):
                if line.startswith(key + " {"):
                    run[key] = json.loads(line[len(key) + 1:])
        if not lines or "info" not in run:
            print("skipping %s: not a run output" % path, file=sys.stderr)
            continue
        try:
            run["result"] = json.loads(lines[-1])
        except ValueError:
            print("skipping %s: last line is not a result" % path,
                  file=sys.stderr)
            continue
        runs.setdefault(run["info"]["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def failed_share(runs):
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return failed, attempted


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    sets = [load_runs(d) for d in sys.argv[1:]]
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        per_set = [s.get(workload, []) for s in sets]
        if not all(per_set):
            continue
        counts = ", ".join(str(len(r)) for r in per_set)
        print("\n== %s  (runs: %s)" % (workload, counts))
        shares = [failed_share(r) for r in per_set]
        for i, (failed, attempted) in enumerate(shares):
            print("   set %s: %d of %d operations failed"
                  % ("AB"[i], failed, attempted))
        if len(shares) == 2 and (shares[0][0] * shares[1][1]
                                 != shares[1][0] * shares[0][1]):
            print("   DISAGREE: failed shares differ")
            ok = False
        print("   %-18s %-5s %12s %12s %12s %8s %7s %8s  %s"
              % ("metric", "set", "q1", "median", "q3", "spread", "bound",
                 "change", "verdict"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = []
            for runs in per_set:
                values = [r["e2e"][name]["value"] for r in runs]
                stats.append(quartiles(values))
            verdicts = []
            for i, (q1, med, q3) in enumerate(stats):
                spread = (q3 - q1) / med if med else float("inf")
                verdict = "ok"
                if spread > bound:
                    verdict = "SPREAD"
                    ok = False
                change = ""
                if i == 1:
                    base = stats[0][1]
                    rel = (med - base) / base if base else 0.0
                    change = "%+.1f%%" % (100 * rel)
                    worse = rel if m["better"] == "lower" else -rel
                    if worse > bound:
                        verdict += ",WORSE"
                        ok = False
                verdicts.append(verdict)
                print("   %-18s %-5s %12.6g %12.6g %12.6g %7.1f%% %6.0f%% %8s  %s"
                      % (name if i == 0 else "", "AB"[i], q1, med, q3,
                         100 * spread, 100 * bound, change, verdict))
        traced = [[r for r in runs if r["info"].get("trace")]
                  for runs in per_set]
        if all(traced):
            print("   per-layer medians (traced runs):")
            for m in bench["per_layer"]:
                meds = []
                for runs in traced:
                    vals = [r["result"]["metrics"][m["name"]]["value"]
                            for r in runs]
                    meds.append("%.6g" % statistics.median(vals))
                print("   %-34s %s %s" % (m["name"], " / ".join(meds), m["unit"]))
    print("\n%s" % ("AGREE" if ok else "DISAGREE"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
