#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread (perfbench/README.md).

Run from the repository root:

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]
        [--save FILE] [--compare FILE]

Runs the manifest's command once per seed with --trace 0 and
run_seconds, then prints, for each end-to-end metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. --save writes the values to FILE; --compare reads an
earlier --save and shows how far each median moved against the bound.
Exits 1 when a spread (setup_s excepted) exceeds its bound or a median
moved the wrong way by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--save")
    ap.add_argument("--compare")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        m = json.load(f)
    e2e = {e["name"]: e for e in m["end_to_end"]}
    values = {n: [] for n in e2e}
    for s in seeds(a.seeds):
        cmd = m["command"] + ["--workload", a.workload, "--seed", str(s),
                              "--seconds", str(m["run_seconds"]),
                              "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        r = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not r["correct"]:
            sys.exit("spread.py: seed %d: run failed (exit %d)"
                     % (s, out.returncode))
        for n in e2e:
            values[n].append(r["metrics"][n]["value"])
        print("seed %d: %s" % (s, " ".join(
            "%s=%.6g" % (n, r["metrics"][n]["value"]) for n in e2e)),
            file=sys.stderr)

    base = None
    if a.compare:
        with open(a.compare) as f:
            base = json.load(f)
    bad = False
    print("%-18s %12s %12s %12s %8s %8s %9s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "moved"))
    for n, e in e2e.items():
        v = values[n]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        moved = ""
        if base:
            old = statistics.median(base[n])
            worse = (med - old) / old if e["better"] == "lower" \
                else (old - med) / old
            moved = "%+.4f" % worse
            bad |= worse > e["bound"]
        bad |= n != "setup_s" and spread > e["bound"]
        print("%-18s %12.6g %12.6g %12.6g %8.4f %8.3f %9s" % (
            n, med, q1, q3, spread, e["bound"], moved))
    if a.save:
        with open(a.save, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
