#!/usr/bin/env python3
"""Compare the exact outputs of two runs instance by instance.

    python3 perfbench/compare.py old/sweep-fixed-seed1.outputs.jsonl new/sweep-fixed-seed1.outputs.jsonl

Both files come from ``run.py`` with the same workload and seed, typically
on two commits.  Every instance that is conclusive in both must report
identical outputs; the exit status is 1 if any differs or if the instance
sets differ, and 0 otherwise.
"""

import json
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {rec["instance"]: rec for rec in map(json.loads, fh)}


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(sys.argv[1]), load(sys.argv[2])
    bad = 0
    if old.keys() != new.keys():
        print(f"instance sets differ: {len(old.keys() - new.keys())} only in the "
              f"first, {len(new.keys() - old.keys())} only in the second")
        bad += 1
    both = conclusive = 0
    for key in old.keys() & new.keys():
        a, b = old[key], new[key]
        both += 1
        if "inconclusive" in (a["status"], b["status"]):
            continue
        conclusive += 1
        if a["outputs"] != b["outputs"] or a["status"] != b["status"]:
            print(f"{key}: {a['status']} {a['outputs']} -> {b['status']} {b['outputs']}")
            bad += 1
    print(f"{both} common instances, {conclusive} conclusive on both, "
          f"{bad} differences")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
