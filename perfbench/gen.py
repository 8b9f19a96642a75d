#!/usr/bin/env python3
"""Write the frozen instance sets the benchmark reads.

    PYTHONPATH=src python3 perfbench/gen.py --workload fuzz-points --seed 5050 --count 150
    PYTHONPATH=src python3 perfbench/gen.py --workload curve-germs --seed 424242 --count 200
    PYTHONPATH=src python3 perfbench/gen.py --workload sweep-fixed --seed 20260808

Measured runs read only the files written here, so a later change to the
random samplers (``resgraph.randtrees``, the test suite's curve sampler)
cannot silently change the benchmark's traffic.  Graphs are written in the
repository's ``v/e/a`` graph format and curves in its curve format; blocks
are separated by ``---`` lines, and integer metadata lines ride along with
each graph.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def graph_lines(graph) -> list[str]:
    lines = [f"v {v} {e}" for v, e in zip(graph.ids, graph.eulers)]
    lines += [f"e {a} {b}" for a, b in graph.edges]
    lines += [f"a {v} {m}" for v, m in zip(graph.ids, graph.arrows) if m]
    return lines


def fuzz_points(seed: int, count: int) -> list[list[str]]:
    """Random rational trees, each with a surgery probe (kept vertex ids and
    dual-basis coefficients 2..4, as criterion 6 draws them) and a counting
    probe (coefficients 1..2 on a random variable subset).

    Trees have at most five vertices, one fewer than the acceptance suite
    draws.  Among six-vertex trees a few draws in a hundred take minutes in
    the Seiberg-Witten sweep and the expansion oracle; a pass that holds one
    cannot finish inside a run, and a sample that sometimes holds one is
    not steady."""
    from resgraph.randtrees import random_positions, random_rational_graph
    rng = random.Random(seed)
    blocks = []
    for _ in range(count):
        graph = random_rational_graph(rng, max_vertices=5)
        keep = [graph.ids[p] for p in random_positions(rng, graph, allow_full=False)]
        surgery = [rng.randint(2, 4) for _ in range(graph.n)]
        probe = [rng.randint(1, 2) for _ in range(graph.n)]
        subset = random_positions(rng, graph)
        blocks.append(graph_lines(graph) + [
            "keep " + " ".join(map(str, keep)),
            "surgery " + " ".join(map(str, surgery)),
            "probe " + " ".join(map(str, probe)),
            "subset " + " ".join(map(str, subset)),
        ])
    return blocks


def curve_germs(seed: int, count: int) -> list[list[str]]:
    """Random multibranch value sets from the test suite's sampler."""
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import sample_curves
    blocks = []
    for curve in sample_curves(seed=seed, count=count):
        blocks.append([f"branches {curve.branches}",
                       "conductor " + " ".join(map(str, curve.conductor))]
                      + ["s " + " ".join(map(str, v)) for v in sorted(curve.values)])
    return blocks


def sweep_fixed(seed: int, count: int) -> list[list[str]]:
    """The two shipped graphs the acceptance suite sweeps, each with the
    anti-nef twist its twisted-duality criterion draws from the same seed
    (20260808), written as dual-basis coefficients."""
    from resgraph.graphs import parse_graph
    from resgraph.randtrees import random_antinef
    rng = random.Random(seed)
    blocks = []
    for name in ("cyclic4", "dihedral12"):
        graph = parse_graph((ROOT / "graphs" / f"{name}.graph").read_text())
        twist = random_antinef(rng, graph, max_coeff=1)
        coeffs = [-graph.form.pair_basis(twist, v) for v in range(graph.n)]
        blocks.append(graph_lines(graph) + [
            f"graph {name}", "twist " + " ".join(str(int(c)) for c in coeffs)])
    return blocks


GENERATORS = {"fuzz-points": fuzz_points, "curve-germs": curve_germs,
              "sweep-fixed": sweep_fixed}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=0)
    args = ap.parse_args()
    blocks = GENERATORS[args.workload](args.seed, args.count)
    header = [f"# {args.workload}: written by perfbench/gen.py --workload "
              f"{args.workload} --seed {args.seed} --count {args.count}"]
    body = "\n---\n".join("\n".join(b) for b in blocks)
    path = DATA / f"{args.workload.replace('-', '_')}.txt"
    path.write_text("\n".join(header) + "\n" + body + "\n", encoding="utf-8")
    print(f"wrote {len(blocks)} instances to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
