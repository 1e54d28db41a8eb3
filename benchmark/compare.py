#!/usr/bin/env python3
"""Pairs two sets of benchmark runs and gives a verdict per workload and
end-to-end metric.

    python3 benchmark/compare.py --a PARENT.json... --b CHANGE.json...
                                 [--benchmark BENCHMARK.json]

Inputs are results files written by mrlr_benchmark --out (run.py writes
one per call). List each side in the order its runs were made and
alternate the sides while running (A B A B ...): the i-th A run of a
workload pairs with its i-th B run, so host drift hits both sides of a
pair alike. Bounds and directions come from BENCHMARK.json.

Verdicts, per the choosing-metrics rules for a small sandbox:
  better      B wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ, in B's favour, by more than A's
              interquartile range. A claim needs at least 10 pairs.
  worse       B's median is worse than A's by more than the bound.
  unresolved  not worse, but the run-to-run spread (interquartile range
              over median, the wider side) exceeds the bound, and not
              every B run reads better than every A run.
  same        otherwise.
failed_frac (failed / attempted jobs) is worse whenever B fails a larger
share of its jobs than A.

Exit status: 1 when any verdict is worse, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS_FOR_CLAIM = 10
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_side(paths):
    """{workload: {metric: [values in run order]}}, failures, probes."""
    metrics, failed, attempted, probes, hosts = {}, {}, {}, {}, set()
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if not doc.get("comparable", False):
            print(f"note: {path} is a self-test result and not comparable")
        prov = doc.get("provenance", {})
        hosts.add((prov.get("nproc"), prov.get("seconds")))
        for w in doc["workloads"]:
            if w.get("trace"):
                continue
            name = w["name"]
            for m, v in w["metrics"].items():
                metrics.setdefault(name, {}).setdefault(m, []).append(
                    v["value"])
            failed[name] = failed.get(name, 0) + w["failed"]
            attempted[name] = attempted.get(name, 0) + w["attempted"]
            probes.setdefault(name, []).append(w.get("cpu_probe_s", 0.0))
    return metrics, failed, attempted, probes, hosts


def verdict(a, b, better, bound):
    """Returns (verdict, wins, pairs, change) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    q1_a, med_a, q3_a = quartiles(a)
    q1_b, med_b, q3_b = quartiles(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse_by = sign * change
    spread = max((q3_a - q1_a) / abs(med_a) if med_a else 0.0,
                 (q3_b - q1_b) / abs(med_b) if med_b else 0.0)
    all_b_better = all(sign * (x - y) > 0 for x in a for y in b)
    if pairs and wins >= WIN_SHARE * len(pairs) and \
            sign * (med_a - med_b) > (q3_a - q1_a):
        return "better", wins, len(pairs), change
    if worse_by > bound:
        return "worse", wins, len(pairs), change
    if spread > bound and not all_b_better:
        return "unresolved", wins, len(pairs), change
    return "same", wins, len(pairs), change


def fmt(v):
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", nargs="+", required=True, help="parent runs")
    ap.add_argument("--b", nargs="+", required=True, help="change runs")
    ap.add_argument("--benchmark",
                    default=str(Path(__file__).resolve().parent.parent /
                                "BENCHMARK.json"))
    args = ap.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    a, a_failed, a_attempted, a_probe, a_hosts = load_side(args.a)
    b, b_failed, b_attempted, b_probe, b_hosts = load_side(args.b)
    if a_hosts != b_hosts:
        print(f"note: sides differ in (nproc, seconds): A {sorted(a_hosts)}"
              f" B {sorted(b_hosts)}")

    rows = []
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            continue
        for m in spec["end_to_end"]:
            va, vb = a[name].get(m["name"]), b[name].get(m["name"])
            if not va or not vb:
                rows.append((name, m["name"], "-", "-", "-", "-", "missing"))
                continue
            v, wins, n, change = verdict(va, vb, m["better"], m["bound"])
            qa, qb = quartiles(va), quartiles(vb)
            rows.append((name, m["name"],
                         f"{fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}]",
                         f"{fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}]",
                         f"{wins}/{n}", f"{change:+.2%} (bound {m['bound']:.0%})",
                         v))
        fa = a_failed[name] / max(a_attempted[name], 1)
        fb = b_failed[name] / max(b_attempted[name], 1)
        rows.append((name, "failed_frac", fmt(fa), fmt(fb), "-", "-",
                     "worse" if fb > fa else "same"))
        rows.append((name, "cpu_probe_s (info)",
                     fmt(statistics.median(a_probe[name])),
                     fmt(statistics.median(b_probe[name])), "-", "-", "-"))

    header = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "B wins", "B vs A", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(wd) for c, wd in zip(r, widths)))

    pairs = min((len(v) for side in (a, b) for m in side.values()
                 for v in m.values()), default=0)
    if any(r[6] == "better" for r in rows) and pairs < MIN_PAIRS_FOR_CLAIM:
        print(f"note: only {pairs} pairs; a gain claim needs at least "
              f"{MIN_PAIRS_FOR_CLAIM}")
    return 1 if any(r[6] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
