#!/usr/bin/env python3
"""Bench baseline summaries and regression diffs (BENCH_<bench>.json).

Two subcommands:

  summarize --bench engine_throughput --input bench_out/engine_throughput.json \
            --out BENCH_engine_throughput.json

      Reads the bench's output artifact and writes a per-case summary with an
      explicit gate class per metric (see below).

  compare --baseline BENCH_engine_throughput.json --current current.json \
          [--tolerance 0.15]

      Diffs a freshly summarized run against the committed baseline and exits
      nonzero on a gated regression. Prints every metric's delta either way,
      so the uploaded CI log is a complete perf trajectory record.

Gate classes (recorded in the baseline file, so the policy is versioned with
the numbers):

  exact  structural/deterministic values (event counts, the case set
         itself). Any difference fails: these are seed-determined, so a
         change means behaviour changed.
  pct    host-independent numeric values gated at +/- tolerance (default 15%).
  info   host-timing values (wall seconds, latency percentiles, throughput
         rates). Never gated — the baseline was recorded on a different
         machine than CI runs on — but the delta is printed and flagged
         when it exceeds the tolerance, so drift is visible in the artifact
         even though it cannot fail the build.
"""

import argparse
import json
import sys

SCHEMA = 1

# Metric -> gate class per bench. Anything not listed is "info".
GATES = {
    "engine_throughput": {"events": "exact"},
}


def fail(msg):
    print(f"bench_baseline: {msg}", file=sys.stderr)
    sys.exit(2)


def gate_for(bench, metric):
    return GATES.get(bench, {}).get(metric, "info")


# --- summarize --------------------------------------------------------------

def summarize_engine_throughput(path):
    """engine_throughput.json -> cases keyed workload/p."""
    with open(path) as f:
        doc = json.load(f)
    cases = {}
    for row in doc["rows"]:
        key = f"{row['workload']}/{row['p']}"
        cases[key] = {
            m: row[m]
            for m in ("events", "wall_s", "rank_s_per_s", "events_per_s")
        }
    return cases


def cmd_summarize(args):
    cases = summarize_engine_throughput(args.input)
    doc = {
        "bench": args.bench,
        "schema": SCHEMA,
        "tolerance_pct": round(args.tolerance * 100),
        "cases": {
            key: {
                metric: {"gate": gate_for(args.bench, metric), "value": value}
                for metric, value in sorted(metrics.items())
            }
            for key, metrics in sorted(cases.items())
        },
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    n = sum(len(m) for m in doc["cases"].values())
    print(f"[baseline] {args.out}: {len(doc['cases'])} cases, {n} metrics")
    return 0


# --- compare ----------------------------------------------------------------

def load_baseline(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema {doc.get('schema')} != {SCHEMA}")
    return doc


def cmd_compare(args):
    base = load_baseline(args.baseline)
    cur = load_baseline(args.current)
    if base["bench"] != cur["bench"]:
        fail(f"bench mismatch: {base['bench']} vs {cur['bench']}")
    tol = args.tolerance
    failures = []
    flagged = 0

    base_cases, cur_cases = base["cases"], cur["cases"]
    for key in sorted(set(base_cases) | set(cur_cases)):
        if key not in cur_cases:
            failures.append(f"case {key}: present in baseline, missing in current")
            continue
        if key not in base_cases:
            failures.append(f"case {key}: new in current, not in baseline")
            continue
        for metric in sorted(set(base_cases[key]) | set(cur_cases[key])):
            b = base_cases[key].get(metric)
            c = cur_cases[key].get(metric)
            if b is None or c is None:
                failures.append(f"{key}.{metric}: missing on one side")
                continue
            gate = b["gate"]
            bv, cv = b["value"], c["value"]
            delta = cv - bv
            pct = (delta / bv * 100.0) if bv else (0.0 if cv == bv else float("inf"))
            mark = ""
            if gate == "exact":
                if bv != cv:
                    mark = "FAIL"
                    failures.append(f"{key}.{metric}: exact {bv} -> {cv}")
            elif gate == "pct":
                if abs(pct) > tol * 100.0:
                    mark = "FAIL"
                    failures.append(
                        f"{key}.{metric}: {bv:g} -> {cv:g} ({pct:+.1f}% "
                        f"beyond +/-{tol * 100:.0f}%)")
            elif abs(pct) > tol * 100.0:
                mark = "drift"  # info: visible, never fatal
                flagged += 1
            print(f"  {key:32s} {metric:20s} [{gate:5s}] "
                  f"{bv:>12g} -> {cv:>12g}  {pct:+7.1f}%  {mark}")

    print(f"compare: {len(failures)} gated failure(s), "
          f"{flagged} info metric(s) beyond +/-{tol * 100:.0f}% "
          f"(timing drift, not gated)")
    for f_ in failures:
        print(f"  FAIL {f_}", file=sys.stderr)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("summarize", help="write BENCH_<bench>.json from a run")
    s.add_argument("--bench", required=True, choices=["engine_throughput"])
    s.add_argument("--input", required=True,
                   help="engine_throughput.json")
    s.add_argument("--out", required=True)
    s.add_argument("--tolerance", type=float, default=0.15)
    s.set_defaults(fn=cmd_summarize)

    c = sub.add_parser("compare", help="diff a current summary vs the baseline")
    c.add_argument("--baseline", required=True)
    c.add_argument("--current", required=True)
    c.add_argument("--tolerance", type=float, default=0.15)
    c.set_defaults(fn=cmd_compare)

    args = ap.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
