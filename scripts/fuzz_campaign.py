#!/usr/bin/env python3
"""Randomised verification campaigns over seeded random rational trees.

Runs the four identity suites and prints one summary line each:
twisted duality (periodic constants against counting values), the rational
Seiberg-Witten identity, the tree surgery identity, and the dual-route delta
comparison.  Every periodic constant is exact.  Every instance is judged by
the check and the tally that ``resgraph verify`` uses, so a partition table
over the budget counts as inconclusive.  Every trial is deterministic in
the seed.  ``--trials`` must be a positive integer, as for ``resgraph
--trials``; anything else is a usage error and exits 2.
"""

import argparse
import random
import time
from functools import partial

from resgraph.cli import (_positive_int, check_delta, check_duality, check_surgery,
                          check_sw, tally)
from resgraph.randtrees import (random_antinef, random_class,
                                random_positions, random_rational_graph,
                                random_unit_arrows)


def duality(rng, trials):
    for t in range(trials):
        graph = random_rational_graph(rng, max_vertices=6)
        twist = random_antinef(rng, graph, max_coeff=1) \
            if rng.random() < 0.7 else None
        yield f"trial {t}", partial(check_duality, graph, twist, random_class(rng, graph),
                                    random_positions(rng, graph))


def sw_identity(rng, trials):
    for t in range(trials):
        graph = random_rational_graph(rng, max_vertices=6)
        for h in graph.group.elements():
            yield f"trial {t} h={h}", partial(check_sw, graph, h)


def surgery(rng, trials):
    for t in range(trials):
        graph = random_rational_graph(rng, max_vertices=6)
        keep = [graph.ids[p]
                for p in random_positions(rng, graph, allow_full=False)]
        x = graph.dual_combination([rng.randint(2, 4) for _ in range(graph.n)])
        yield f"trial {t}", partial(check_surgery, graph, keep, x)


def dual_route_delta(rng, trials):
    for t in range(trials):
        graph = random_unit_arrows(rng, random_rational_graph(rng, max_vertices=6))
        yield f"trial {t}", partial(check_delta, graph)


CAMPAIGNS = [
    ("twisted duality", duality),
    ("rational SW identity", sw_identity),
    ("surgery identity", surgery),
    ("dual-route delta", dual_route_delta),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=_positive_int, default=50)
    args = ap.parse_args()
    overall_fail = 0
    for name, cases in CAMPAIGNS:
        rng = random.Random(args.seed)
        t0 = time.monotonic()
        _, fails, inconclusive = tally(cases(rng, args.trials), [])
        overall_fail += fails
        print(f"{name:>22}: {args.trials} trials, {fails} failures, "
              f"{inconclusive} inconclusive, {time.monotonic() - t0:.1f}s")
    return 1 if overall_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
