#!/usr/bin/env python3
"""Diff two `benchmark_cli --profile-out` JSON documents.

The deep profiler's determinism contract (DESIGN.md §14) splits every
profile field in two:

 - *deterministic* fields (rule passes/rounds/derivations/matches, relation
   tuple/live/dead counts and exact payload bytes, the entire points-to
   census, phase names and order) are bit-identical at any job count and
   join-plan mode — this script compares them exactly and any mismatch is a
   hard failure (exit 1);
 - *volatile* fields (wall seconds, RSS, capacity-derived `*_approx` bytes,
   and the plan-dependent `tuples_considered` / `estimated_fanout` planner
   numbers) are compared against a relative threshold and only produce
   WARN lines — timing noise must not fail CI, but a big swing should be
   visible in the log.

Usage: profile_report.py BASELINE.json CURRENT.json [--threshold=0.5]

`--threshold` is the allowed relative change for volatile numeric fields
(default 0.5 = ±50%, generous because CI machines are noisy). The CI
profile-smoke job runs this warn-only (`|| true`); locally the exit code
distinguishes semantic regressions (1) from timing-only drift (0).
"""

import json
import sys

# Keys matching any of these substrings are volatile: thresholded, never
# exact-compared. Mirrors the field classification in observe/Profile.h.
VOLATILE_SUBSTRINGS = (
    "seconds",
    "rss",
    "_approx",
    "estimated_fanout",
    "tuples_considered",
)


def is_volatile(key: str) -> bool:
    return any(s in key for s in VOLATILE_SUBSTRINGS)


def keyed(items, *candidates):
    """Index a list of objects by the first present candidate key, falling
    back to the list position so plain arrays still line up."""
    for key in candidates:
        if all(isinstance(it, dict) and key in it for it in items):
            return {it[key]: it for it in items}, key
    return {i: it for i, it in enumerate(items)}, None


class Report:
    def __init__(self, threshold):
        self.threshold = threshold
        self.failures = 0
        self.warnings = 0

    def fail(self, path, msg):
        print(f"DIFFERS: {path}: {msg}")
        self.failures += 1

    def warn(self, path, msg):
        print(f"WARN: {path}: {msg}")
        self.warnings += 1

    def scalar(self, path, key, base, cur):
        if is_volatile(key):
            if isinstance(base, (int, float)) and isinstance(cur, (int, float)):
                denom = max(abs(base), 1e-9)
                rel = abs(cur - base) / denom
                if rel > self.threshold and abs(cur - base) > 1e-6:
                    self.warn(path, f"{base!r} -> {cur!r} "
                                    f"({100 * rel:.0f}% > ±{100 * self.threshold:.0f}%)")
            return
        if base != cur:
            self.fail(path, f"{base!r} != {cur!r}")

    def diff(self, path, key, base, cur):
        if type(base) is not type(cur) and not (
                isinstance(base, (int, float)) and isinstance(cur, (int, float))):
            self.fail(path, f"type {type(base).__name__} != {type(cur).__name__}")
            return
        if isinstance(base, dict):
            for k in sorted(set(base) | set(cur)):
                p = f"{path}.{k}"
                if k not in base:
                    self.fail(p, "only in current")
                elif k not in cur:
                    self.fail(p, "only in baseline")
                else:
                    self.diff(p, k, base[k], cur[k])
        elif isinstance(base, list):
            bmap, bkey = keyed(base, "label", "name", "prefix")
            cmap, _ = keyed(cur, "label", "name", "prefix")
            for k in list(bmap) + [k for k in cmap if k not in bmap]:
                p = f"{path}[{k}]"
                if k not in bmap:
                    self.fail(p, "only in current")
                elif k not in cmap:
                    self.fail(p, "only in baseline")
                else:
                    self.diff(p, key, bmap[k], cmap[k])
        else:
            self.scalar(path, key, base, cur)


def load_profiles(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    profiles = doc.get("profiles", [doc] if isinstance(doc, dict) else doc)
    return {p.get("label", i): p for i, p in enumerate(profiles)}


def main(argv):
    threshold = 0.5
    args = []
    for a in argv[1:]:
        if a.startswith("--threshold="):
            threshold = float(a.split("=", 1)[1])
        else:
            args.append(a)
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base = load_profiles(args[0])
    cur = load_profiles(args[1])

    rep = Report(threshold)
    for label in sorted(set(base) | set(cur), key=str):
        if label not in base:
            rep.fail(f"profile[{label}]", "only in current")
        elif label not in cur:
            rep.fail(f"profile[{label}]", "only in baseline")
        else:
            rep.diff(f"profile[{label}]", "", base[label], cur[label])

    if rep.failures:
        print(f"\n{rep.failures} deterministic difference(s), "
              f"{rep.warnings} timing warning(s)")
        return 1
    print(f"OK: {len(base)} profile(s) deterministically identical "
          f"({rep.warnings} timing warning(s), volatile fields thresholded "
          f"at ±{100 * threshold:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
