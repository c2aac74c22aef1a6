#!/usr/bin/env python3
"""Semantic diff of two benchmark_cli --benchmark_out JSON files.

The determinism contract (DESIGN.md §7, §10) says every analysis answer is
bit-identical at any JACKEE_JOBS setting — only wall-clock, RSS, and
scheduling observables may differ. This script enforces exactly
that split: it compares the two files' benchmark entries field by field,
ignoring the volatile fields, and exits non-zero on any semantic mismatch.

Usage: diff_metrics.py [--incremental] BASELINE.json OTHER.json

With --incremental, effort counters are also ignored: an incremental
update (AnalysisCell::update, DESIGN.md §12) must reproduce the same
*answers* as a from-scratch analysis, but its delete/re-derive pass and
re-solve legitimately perform a different amount of work, and its
provenance/glue trails accumulate across epochs.
"""

import json
import sys

# Fields that legitimately vary run to run or with the job count.
# Everything else must match exactly.
VOLATILE_SUBSTRINGS = (
    "seconds",          # real_time is seconds too, plus *_seconds phases
    "real_time",
    "tuples_per_sec",
    "peak_rss",
    "snapshot.load",    # session.snapshot.load_ns is wall-clock
    "profile.sink",     # event/byte counts vary with tracing and job
                        # interleaving (profile.census.* stays exact)
)

# Additionally volatile between a delta update and a cold analysis: pure
# effort/bookkeeping, never answers.
INCREMENTAL_VOLATILE_SUBSTRINGS = (
    "solver_rounds",
    "solver_work_items",
    "pointsto.",
    "datalog.",
    "datalog_tuples_derived",
    "datalog_strata",
    "provenance_tuples_recorded",
    "provenance_candidates_seen",
    "provenance_glue_events",
    "db.",                  # tombstoned slots change byte accounting
)

INCREMENTAL = False


def is_volatile(key: str) -> bool:
    if any(s in key for s in VOLATILE_SUBSTRINGS):
        return True
    return INCREMENTAL and any(
        s in key for s in INCREMENTAL_VOLATILE_SUBSTRINGS)


def load_benchmarks(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc.get("benchmarks", doc if isinstance(doc, list) else [doc])
    table = {}
    for entry in entries:
        name = entry.get("name", "<unnamed>")
        table[name] = {
            k: v for k, v in entry.items() if not is_volatile(k)
        }
    return table


def main(argv):
    global INCREMENTAL
    args = [a for a in argv[1:] if a != "--incremental"]
    INCREMENTAL = len(args) != len(argv) - 1
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_path, other_path = args
    base = load_benchmarks(base_path)
    other = load_benchmarks(other_path)

    failures = 0
    for name in sorted(set(base) | set(other)):
        if name not in base:
            print(f"DIFFERS: {name!r} only in {other_path}")
            failures += 1
            continue
        if name not in other:
            print(f"DIFFERS: {name!r} only in {base_path}")
            failures += 1
            continue
        b, o = base[name], other[name]
        for key in sorted(set(b) | set(o)):
            bv, ov = b.get(key, "<absent>"), o.get(key, "<absent>")
            if bv != ov:
                print(f"DIFFERS: {name} .{key}: {bv!r} != {ov!r}")
                failures += 1

    if failures:
        print(f"\n{failures} semantic difference(s) between "
              f"{base_path} and {other_path}")
        return 1
    print(f"OK: {len(base)} benchmark entr{'y' if len(base) == 1 else 'ies'} "
          f"semantically identical (volatile fields ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
