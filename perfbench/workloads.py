"""Benchmark workloads: frozen instance sets, per-instance checks, and the
exact outputs each instance records.

Every instance returns ``(status, outputs)``.  ``status`` is ``pass``,
``fail`` (an identity gave two different exact values) or ``inconclusive``
(a fit or probe did not stabilise); ``outputs`` holds every exact value the
instance produced, so two commits can be compared instance by instance.

Instances run in stored order and the run's seed changes nothing.
Instances share the library's caches, so order and twist set the pass time:
one seeded twist took the sweep to 54 s and one seeded order to 42 s, against
46 s for the fixed sweep.  On ``fuzz-points`` seeded orders spread
throughput by 11% over five runs, against 9% for one order repeated.  The
instance sets themselves come from the seeds recorded in their data files
(see ``gen.py``).

The library is reached through module attributes (``embedded.verify_...``),
never through names bound here, so that the tracer's wrappers, installed on
the ``resgraph`` module namespaces, also see the calls made from this file.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from resgraph import counting, curves, embedded, graphs, series
from resgraph.cycles import zero_cycle

DATA = Path(__file__).resolve().parent / "data"

GRAPH_DIRECTIVES = ("v", "e", "a")


def read_blocks(path: Path) -> list[list[str]]:
    """Non-empty, comment-free lines of a data file, split at ``---`` lines."""
    blocks: list[list[str]] = [[]]
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line == "---":
            blocks.append([])
        elif line:
            blocks[-1].append(line)
    return [b for b in blocks if b]


def parse_instance(lines: list[str]):
    """A graph in the repository's ``v/e/a`` format plus integer metadata
    lines (``keyword n1 n2 ...``) that ride along with it."""
    graph_text = "\n".join(l for l in lines if l.split()[0] in GRAPH_DIRECTIVES)
    meta = {}
    for line in lines:
        key, *args = line.split()
        if key not in GRAPH_DIRECTIVES:
            meta[key] = args
    return graphs.parse_graph(graph_text), meta


def dual_combination(graph, coeffs):
    """The cycle sum(c_i E*_i) for integer dual-basis coefficients."""
    total = zero_cycle(graph.n)
    for c, dual in zip(coeffs, graph.duals):
        if c:
            total = total + c * dual
    return total


def _ints(meta, key):
    return [int(t) for t in meta[key]]


# ---------------------------------------------------------------------------
# sweep-fixed: twisted duality over the shipped graphs, exhaustively

def load_sweep_fixed():
    """Every class x nonempty variable subset x {no twist, stored twist} of
    the shipped cyclic and dihedral graphs, in the order the acceptance
    suite sweeps them."""
    out = []
    for lines in read_blocks(DATA / "sweep_fixed.txt"):
        graph, meta = parse_instance(lines)
        name = meta["graph"][0]
        mask = _ints(meta, "twist")
        twist = dual_combination(graph, mask)
        for tw, label in ((None, "none"), (twist, "".join(map(str, mask)))):
            for h in graph.group.elements():
                for r in range(1, graph.n + 1):
                    for pos in itertools.combinations(range(graph.n), r):
                        key = f"{name} twist={label} h={h} I={pos}"
                        out.append((key, (graph, tw, h, pos)))
    return out


def run_sweep_fixed(inst):
    graph, tw, h, pos = inst
    rep = embedded.verify_twisted_duality(graph, tw, h, pos)
    if rep.failed:
        status = "fail"
    elif "inconclusive" in (rep.status, rep.status_modified):
        status = "inconclusive"
    else:
        status = "pass"
    return status, [rep.lhs, rep.rhs, rep.lhs_modified, rep.rhs_modified]


# ---------------------------------------------------------------------------
# fuzz-points: single-point counting on frozen random rational trees

def load_fuzz_points():
    """The frozen tree set, in stored order."""
    out = []
    for i, lines in enumerate(read_blocks(DATA / "fuzz_points.txt")):
        graph, meta = parse_instance(lines)
        inst = (graph, [int(v) for v in meta["keep"]],
                dual_combination(graph, _ints(meta, "surgery")),
                dual_combination(graph, _ints(meta, "probe")),
                tuple(_ints(meta, "subset")))
        out.append((f"tree {i}", inst))
    return out


def run_fuzz_points(inst):
    """The rational Seiberg-Witten identity over every class, the surgery
    identity at one probe, and the counting function at a small probe
    against the coefficient sum of the exact expansion."""
    graph, keep, x, y, pos = inst
    group = graph.group
    status = "pass"
    sw = []
    for h in group.elements():
        try:
            val = counting.sw_norm(graph, h)
        except counting.StabilizationError:
            sw.append(None)
            status = "inconclusive" if status == "pass" else status
            continue
        sw.append(val)
        expect = graphs.chi(graph, group.frac_rep(h)) - \
            graphs.chi(graph, graphs.min_antinef_rep(graph, h))
        if val != expect:
            status = "fail"
    rep = counting.surgery_check(graph, keep, x)
    if not rep.passed:
        status = "fail"
    spec = counting.plain_zeta(graph)
    residue = graph.residue(y)
    count = counting.counting_Q(spec, residue, pos, y)
    d = graph.det_abs
    ys = y.scaled(d)
    # every exponent not dominating y on the subset has a coordinate below
    # max(y), so the expansion to that bound holds all of them
    part = series.h_part(series.expand(spec, max(y.fractions())), residue, d)
    oracle = sum(c for k, c in part.terms.items()
                 if any(k[p] < ys[p] for p in pos))
    if count != oracle:
        status = "fail"
    return status, {"sw": sw,
                    "surgery": [rep.full, rep.reduced, list(rep.corrections),
                                rep.residual],
                    "count": [count, oracle]}


# ---------------------------------------------------------------------------
# curve-germs: the curve layer alone

def load_curve_germs():
    """The frozen value-set sample, in stored order."""
    return [(f"curve {i}", curves.parse_curve("\n".join(lines)))
            for i, lines in enumerate(read_blocks(DATA / "curve_germs.txt"))]


def run_curve_germs(curve):
    """Delta (three internally cross-checked routes), Hilbert stability
    beyond the conductor, and the Poincare inversion identity."""
    try:
        delta = curves.delta_total(curve)
    except curves.CurveDataError:
        return "fail", None
    table = curves.hilbert_table(curve)
    stable = all(
        table.value(ell) == sum(ell) - delta
        for ell in (tuple(c + b for c, b in zip(curve.conductor, bump))
                    for bump in itertools.product((0, 1), repeat=curve.branches)))
    inverted, _ = curves.verify_inversion(curve)
    return ("pass" if stable and inverted else "fail"), [delta, stable, inverted]


WORKLOADS = {
    "sweep-fixed": (load_sweep_fixed, run_sweep_fixed),
    "fuzz-points": (load_fuzz_points, run_fuzz_points),
    "curve-germs": (load_curve_germs, run_curve_germs),
}
