#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the `<workload>-seed<N>-trace0.json` records the
benchmark writes (one per run; run several seeds per side). For every
end-to-end metric of BENCHMARK.json and every workload, the medians of
the two sides are compared:

* REGRESSION: the new median is worse than the base median by more than
  the metric's bound.
* slower: the new median is worse by more than the base runs' own
  spread (quartile distance over median) and at least nine tenths of all
  (base, new) run pairs read worse: a resolved slowdown within the bound.
* unresolved: the base runs spread wider than the bound, so the bound
  cannot be checked.

Results measured on different machines (CPU model, nproc or rustc
version differ) are refused unless --allow-machine-change is given; the
spin-calibration ratio is then printed beside the table. Exit status: 0
when nothing is flagged, 1 when a metric is flagged or a new run failed
a correctness check, 3 when the machines differ.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MACHINE_KEYS = ("cpu", "nproc", "rustc")


def load_records(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            records.append(json.load(f))
    return records


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(base, new, higher_is_better):
    """Relative worsening of `new` against `base` (negative: better)."""
    return (base - new) / base if higher_is_better else (new - base) / base


def compare(base_records, new_records, metrics):
    """One row per (workload, metric): (workload, metric, base median,
    new median, worse_by, verdict)."""
    rows = []
    workloads = sorted({r["workload"] for r in base_records} & {r["workload"] for r in new_records})
    for workload in workloads:
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            base = [r["metrics"][name]["value"] for r in base_records if r["workload"] == workload]
            new = [r["metrics"][name]["value"] for r in new_records if r["workload"] == workload]
            base_med, new_med = statistics.median(base), statistics.median(new)
            worse = worse_by(base_med, new_med, higher)
            pairs = [(b, n) for b in base for n in new]
            worse_pairs = sum(1 for b, n in pairs if worse_by(b, n, higher) > 0)
            noise = spread(base)
            if worse > m["bound"]:
                verdict = "REGRESSION"
            elif noise > m["bound"]:
                verdict = "unresolved"
            elif worse > noise and worse_pairs >= 0.9 * len(pairs):
                verdict = "slower"
            else:
                verdict = "ok"
            rows.append((workload, name, base_med, new_med, worse, verdict))
    return rows


def machines(records):
    return {tuple(r["machine"][k] for k in MACHINE_KEYS) for r in records}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    parser.add_argument("--allow-machine-change", action="store_true")
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load_records(args.base), load_records(args.new)
    if not base or not new:
        print("compare: no *-trace0.json records in one of the directories", file=sys.stderr)
        return 2
    status = 0
    if machines(base) != machines(new) or len(machines(base)) != 1:
        print(f"compare: results come from different machines: {machines(base)} vs {machines(new)}")
        if not args.allow_machine_change:
            return 3
        spin = lambda rs: statistics.median(r["machine"]["spin_mips"] for r in rs)
        print(f"compare: spin-calibration ratio new/base = {spin(new) / spin(base):.3f}")
    failed = sum(r["failed"] for r in new)
    if failed:
        print(f"compare: {failed} operations failed their checks in the new results")
        status = 1
    print(f"{'workload':12} {'metric':20} {'base':>14} {'new':>14} {'worse':>8}  verdict")
    for workload, name, b, n, worse, verdict in compare(base, new, metrics):
        print(f"{workload:12} {name:20} {b:14.6g} {n:14.6g} {worse:+8.2%}  {verdict}")
        if verdict in ("REGRESSION", "slower"):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
