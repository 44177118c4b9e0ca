#!/usr/bin/env python3
"""Gate and extract the simulation-engine benchmark matrix.

Usage: sim_bench_gate.py bench_sim.txt BENCH_sim.json

Parses `go test -bench BenchmarkSimEngine -benchmem` output and enforces:

  1. 0 allocs/op on the warm steady-state tick (tick and tick-http rows);
  2. worker scaling on the sched/ rows (scheduler + draw + entry fill,
     no sink): workers=8 over workers=1 must clear a core-count-aware
     bar — 5x with 8+ cores, 0.45x per core on smaller runners, and on
     a single core merely "sharding must not cost throughput".

Writes BENCH_sim.json with every parsed row plus the computed ratios.
"""

import json
import re
import sys

# The expected matrix. Go appends "-<GOMAXPROCS>" to benchmark names only
# when GOMAXPROCS > 1, and several row names themselves end in digits
# (workers=8), so the suffix is only stripped when doing so recovers a
# known name.
KNOWN = {"tick", "tick-http"} | {
    f"{grp}/workers={w}" for grp in ("inproc", "sched") for w in (1, 2, 4, 8)
}


def parse(path):
    rows = {}
    cores = None
    for line in open(path):
        m = re.match(
            r"^BenchmarkSimEngine/(\S+)\s+\d+\s+(\d+(?:\.\d+)?) ns/op"
            r".*?(\d+) B/op\s+(\d+) allocs/op",
            line,
        )
        if not m:
            continue
        raw, ns, b, allocs = m.groups()
        name = raw
        if raw not in KNOWN:
            ms = re.match(r"^(.*)-(\d+)$", raw)
            if ms and ms.group(1) in KNOWN:
                name = ms.group(1)
                cores = int(ms.group(2))
        rows[name] = {
            "ns_per_op": float(ns),
            "bytes_per_op": int(b),
            "allocs_per_op": int(allocs),
        }
    return rows, cores


def main():
    src, dst = sys.argv[1], sys.argv[2]
    rows, cores = parse(src)
    assert rows, "no benchmark rows parsed"
    missing = KNOWN - set(rows)
    assert not missing, f"missing benchmark rows: {sorted(missing)}"
    if cores is None:
        cores = 1

    for name in ("tick", "tick-http"):
        r = rows[name]
        assert r["allocs_per_op"] == 0, f"warm {name} must be allocation-free: {r}"

    sched1 = rows["sched/workers=1"]["ns_per_op"]
    sched8 = rows["sched/workers=8"]["ns_per_op"]
    scaling = sched1 / sched8
    if cores >= 8:
        bar = 5.0
    elif cores >= 2:
        bar = 0.45 * cores
    else:
        bar = 0.75
    assert scaling >= bar, (
        f"sched workers=8 scaling {scaling:.2f}x below the {bar:.2f}x bar "
        f"({cores} cores)"
    )

    json.dump(
        {
            "version": 1,
            "cores": cores,
            "sched_scaling_8v1": round(scaling, 2),
            "sched_scaling_bar": round(bar, 2),
            "benchmarks": rows,
        },
        open(dst, "w"),
        indent=2,
        sort_keys=True,
    )
    print(f"OK: sched 8v1 scaling {scaling:.2f}x "
          f"(bar {bar:.2f}x on {cores} cores), warm tick 0 allocs/op")


if __name__ == "__main__":
    main()
