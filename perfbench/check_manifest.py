#!/usr/bin/env python3
"""Validate BENCHMARK.json against the manifest rules.

Run from the repository root:

    python3 perfbench/check_manifest.py [BENCHMARK.json] [--result FILE]

Checks the manifest's keys, limits and name rules (perfbench/README.md,
"Manifest"). With --result, also checks that the last line of FILE, the
stdout of one benchmark run, is a result object whose metrics are
exactly the manifest's end_to_end (trace 0) or per_layer (trace 1)
metrics, with matching units. Prints every problem found and exits 1
if there is any.
"""

import json
import math
import os
import re
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}


def check_manifest(path, problems):
    def bad(msg):
        problems.append(msg)

    if os.path.getsize(path) > 64 * 1024:
        bad("manifest is larger than 64 KiB")
    with open(path) as f:
        m = json.load(f)
    if not isinstance(m, dict) or set(m) != KEYS:
        bad("top-level keys must be exactly %s" % sorted(KEYS))
        return m

    paths = m["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        bad("paths: 1 to 16 directories")
        paths = []
    for p in paths:
        if (not isinstance(p, str) or not PATH.match(p) or p.startswith("/")
                or ".." in p.split("/")):
            bad("paths: bad entry %r" % p)
        elif not os.path.isdir(p):
            bad("paths: %s is not a directory" % p)
        else:
            for d, _, files in os.walk(p):
                for name in files:
                    f = os.path.join(d, name)
                    if os.path.islink(f) or not os.path.isfile(f):
                        bad("paths: %s is not a regular file" % f)

    cmd = m["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or not all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        bad("command: a list of at most 32 strings of at most 200 chars")
    else:
        for c in cmd:
            if c.startswith("/") or ".." in c.split("/"):
                bad("command: %r leaves the repository" % c)
            if "/" in c and not any(c == p or c.startswith(p.rstrip("/") + "/")
                                    for p in paths):
                bad("command: %r names a file outside paths" % c)

    rs = m["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        bad("run_seconds: a whole number from 1 to 60")

    names = set()

    def name_ok(where, n):
        if not isinstance(n, str) or not NAME.match(n):
            bad("%s: bad name %r" % (where, n))
        elif n in names:
            bad("%s: name %r used twice" % (where, n))
        names.add(n)

    wl = m["workloads"]
    if not isinstance(wl, list) or not 2 <= len(wl) <= 8:
        bad("workloads: 2 to 8 entries")
        wl = []
    for w in wl:
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            bad("workloads: each entry has exactly name and why")
            continue
        name_ok("workloads", w["name"])
        why = w["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            bad("workloads: %s: why must be one line of at most 200 chars"
                % w["name"])

    def metrics(key, lo, hi, fields):
        ms = m[key]
        if not isinstance(ms, list) or not lo <= len(ms) <= hi:
            bad("%s: %d to %d entries" % (key, lo, hi))
            return []
        for e in ms:
            if not isinstance(e, dict) or set(e) != fields:
                bad("%s: each entry has exactly %s" % (key, sorted(fields)))
                continue
            name_ok(key, e["name"])
            if not isinstance(e["unit"], str) or not UNIT.match(e["unit"]):
                bad("%s: %s: bad unit %r" % (key, e["name"], e["unit"]))
            if e["better"] not in ("higher", "lower"):
                bad("%s: %s: better is higher or lower" % (key, e["name"]))
        return ms

    e2e = metrics("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    for e in e2e:
        b = e.get("bound")
        if (not isinstance(b, (int, float)) or isinstance(b, bool)
                or not 0 < b <= 0.25):
            bad("end_to_end: %s: bound must be in (0, 0.25]" % e.get("name"))
    setup = [e for e in e2e if e.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        bad("end_to_end: setup_s with unit s and better lower is required")
    elif any(e.get("bound", 0) > setup[0]["bound"] for e in e2e):
        bad("end_to_end: setup_s should carry the largest bound")
    metrics("per_layer", 1, 128, {"name", "unit", "better"})
    return m


def check_result(m, path, problems):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    if not lines:
        problems.append("result: %s is empty" % path)
        return
    r = json.loads(lines[-1])
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result: keys must be correct/attempted/failed/metrics")
        return
    if not isinstance(r["correct"], bool):
        problems.append("result: correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(r[k], int) or r[k] < 0:
            problems.append("result: %s must be a whole number" % k)
    if isinstance(r["attempted"], int) and r["attempted"] < 1:
        problems.append("result: attempted must be at least 1")
    got = r["metrics"]
    for key in ("end_to_end", "per_layer"):
        want = {e["name"]: e["unit"] for e in m[key]}
        if set(got) != set(want):
            continue
        for name, v in got.items():
            if set(v) != {"value", "unit"} or v["unit"] != want[name]:
                problems.append("result: %s: unit %r, manifest says %r"
                                % (name, v.get("unit"), want[name]))
            val = v.get("value")
            if not isinstance(val, (int, float)) or not math.isfinite(val):
                problems.append("result: %s: value is not a number" % name)
            elif key == "end_to_end" and val == 0:
                problems.append("result: %s reads 0" % name)
        return
    problems.append("result: metric names match neither end_to_end nor "
                    "per_layer")


def main():
    args = sys.argv[1:]
    result = None
    if "--result" in args:
        i = args.index("--result")
        result = args[i + 1]
        del args[i:i + 2]
    manifest = args[0] if args else "BENCHMARK.json"
    problems = []
    m = check_manifest(manifest, problems)
    if result and not problems:
        check_result(m, result, problems)
    for p in problems:
        print("check_manifest: " + p)
    if problems:
        sys.exit(1)
    print("check_manifest: %s ok%s" % (manifest,
                                       ", result %s ok" % result if result
                                       else ""))


if __name__ == "__main__":
    main()
