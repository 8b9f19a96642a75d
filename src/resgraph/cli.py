"""Command-line front end.

Subcommands: ``basics`` (lattice report of a graph file), ``invariants``
(embedded-curve invariants from arrow data), ``series`` (exact expansion
dump), ``verify`` (identity suites with seeded fuzzing), ``curve``
(abstract curve germ reports).  Output is deterministic for a fixed input,
seed and configuration; exact rationals are printed as p/q and never as
floats.  Exit status: 0 all passed, 1 some check failed, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction
from functools import partial

from . import curves as curvemod
from .counting import InternalCheckError, surgery_check, sw_norm
from .cycles import RationalCycle, zero_cycle
from .embedded import (EmbeddedCurve, RationalityError, blache_correction,
                       delta_cross_check, delta_embedded, kappa_topological,
                       verify_twisted_duality)
from .graphs import (GraphError, ResolutionGraph, artin_rationality, chi,
                     min_antinef_rep, parse_graph)
from .randtrees import (random_antinef, random_class, random_positions,
                        random_unit_arrows)
from .series import TableBudgetExceeded, build_zeta, expand, h_part, reduce_to


CLASS_CAP = 24  # basics lists the classes of groups up to this order


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _cycle_doc(c: RationalCycle) -> list[str]:
    return [_frac(f) for f in c.fractions()]


def _emit(doc: dict, args, table_lines: list[str]) -> None:
    if args.format == "doc":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _load_graph(path: str) -> ResolutionGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


# ---------------------------------------------------------------------------
# basics

def cmd_basics(args) -> int:
    graph = _load_graph(args.graph)
    group = graph.group
    zmin, rational = artin_rationality(graph)
    doc = {
        "vertices": list(graph.ids),
        "eulers": list(graph.eulers),
        "determinant": graph.det_abs,
        "invariant_factors": list(group.invariant_factors),
        "duals": {str(v): _cycle_doc(graph.dual(v)) for v in graph.ids},
        "canonical_cycle": _cycle_doc(graph.canonical),
        "fundamental_cycle": _cycle_doc(zmin),
        "rational": rational,
    }
    lines = [f"vertices: {len(graph.ids)}   |H| = {graph.det_abs}   "
             f"invariant factors: {list(group.invariant_factors) or 'trivial'}"]
    for v in graph.ids:
        lines.append(f"  E*_{v} = {graph.dual(v)}   "
                     f"(euler {graph.eulers[graph.index[v]]}, "
                     f"valence {graph.valences[graph.index[v]]})")
    lines.append(f"canonical cycle Z_K = {graph.canonical}")
    lines.append(f"fundamental cycle Z_min = {zmin}   "
                 f"chi = {chi(graph, zmin)}   "
                 f"{'rational' if rational else 'NOT rational'}")
    if group.order <= CLASS_CAP:
        classes = {}
        lines.append("classes (r_h, s_h, chi(r_h), chi(s_h)):")
        for h in group.elements():
            r = group.frac_rep(h)
            s = min_antinef_rep(graph, h)
            classes[str(h)] = {
                "r": _cycle_doc(r), "s": _cycle_doc(s),
                "chi_r": _frac(chi(graph, r)), "chi_s": _frac(chi(graph, s)),
            }
            lines.append(f"  h={h}: r_h = {r}  s_h = {s}  "
                         f"chi(r_h) = {chi(graph, r)}  chi(s_h) = {chi(graph, s)}")
        doc["classes"] = classes
    _emit(doc, args, lines)
    return 0


# ---------------------------------------------------------------------------
# invariants

def cmd_invariants(args) -> int:
    graph = _load_graph(args.graph)
    if not any(graph.arrows):
        print("error: graph file declares no arrows", file=sys.stderr)
        return 2
    curve = EmbeddedCurve.from_graph_arrows(graph)
    ell = curve.cycle
    kap_full = kappa_topological(graph, ell)
    kap_red = kappa_topological(graph, ell, curve.support_positions)
    doc = {
        "curve_cycle": _cycle_doc(ell),
        "support": list(curve.support_ids),
        "class": list(curve.class_label()),
        "kappa": kap_full,
        "kappa_reduced": kap_red,
        "chi_neg": _frac(chi(graph, -ell)),
    }
    lines = [
        f"curve cycle = {ell}   support = {list(curve.support_ids)}",
        f"kappa = {kap_full}   kappa reduced to support = {kap_red}",
        f"chi(-curve cycle) = {chi(graph, -ell)}",
    ]
    try:
        delta = delta_embedded(graph, curve)
        corr = blache_correction(graph, curve)
        doc.update({"delta": delta, "blache_correction": _frac(corr), "rational": True})
        lines.append(f"delta = {delta}")
        lines.append(f"Riemann-Roch correction = {corr}")
    except RationalityError as exc:
        doc.update({"delta": None, "blache_correction": None, "rational": False,
                    "refusal": str(exc)})
        lines.append(f"delta: refused -- {exc}")
    _emit(doc, args, lines)
    return 0


# ---------------------------------------------------------------------------
# series dump

def cmd_series(args) -> int:
    graph = _load_graph(args.graph)
    series = expand(build_zeta(graph), args.bound)
    if args.class_zero:
        series = h_part(series, graph.residue(zero_cycle(graph.n)), graph.det_abs)
    if args.reduce:
        if args.class_zero:
            series = reduce_to(series, args.reduce)
        else:
            print("error: reduce a single class part, not the full series "
                  "(use --class-zero)", file=sys.stderr)
            return 2
    if args.format == "table":  # the document is built only when it is printed
        for block in series.dump_blocks():  # one block of lines at a time
            print(block)
        if not len(series.mult):
            print()  # the empty dump's one empty line
        return 0
    # each distinct coordinate is turned into its p/q text once, then looked up
    text = {x: _frac(Fraction(x, series.den)) for x in set(series.rows.ravel().tolist())}
    doc = {"den": series.den,
           "terms": [[c, [text[x] for x in key]] for key, c in series.terms.items()]}
    _emit(doc, args, [])
    return 0


# ---------------------------------------------------------------------------
# verify suites: four checks, one tally

def _cause(exc: TableBudgetExceeded) -> str:
    return f"{exc.what} over the cell budget"


def check_duality(graph: ResolutionGraph, twist: RationalCycle | None, h: tuple[int, ...],
                  positions: tuple[int, ...]) -> tuple[str, str]:
    """Twisted duality, plain and modified: a failure on either side fails."""
    rep = verify_twisted_duality(graph, twist, h, positions)
    return ("pass", "") if rep.passed else \
        ("fail", f": pc {rep.lhs} vs count {rep.rhs}, "
                 f"mpc {rep.lhs_modified} vs {rep.rhs_modified}")


def check_surgery(graph: ResolutionGraph, keep: list[int],
                  x: RationalCycle) -> tuple[str, str]:
    """The surgery identity at x for the subtree on ``keep``."""
    rep = surgery_check(graph, keep, x)
    return ("pass", "") if rep.passed else ("fail", f" residual={rep.residual}")


def check_delta(graph: ResolutionGraph) -> tuple[str, str]:
    """Delta of the curve the graph's arrows declare, by both routes."""
    rep = delta_cross_check(graph, EmbeddedCurve.from_graph_arrows(graph))
    return ("pass", "") if rep.passed else \
        ("fail", f": series route {rep.delta_series} vs chi route {rep.delta_chi}")


def check_sw(graph: ResolutionGraph, h: tuple[int, ...]) -> tuple[str, str]:
    """The rational SW identity for one class."""
    val = sw_norm(graph, h)
    expect = chi(graph, graph.group.frac_rep(h)) - chi(graph, min_antinef_rep(graph, h))
    return ("pass", "") if val == expect else \
        ("fail", f": sw {val} vs chi difference {expect}")


def tally(cases, lines: list[str]) -> tuple[int, int, int]:
    """Run ``(label, check)`` pairs and count the passed, failed and
    inconclusive instances.  A check runs one instance and returns its
    verdict ("pass", "fail" or "inconclusive") and the text that follows the
    label on its line; ``TableBudgetExceeded`` is an inconclusive verdict
    naming its cause.  Every instance that did not pass appends its
    line, ``FAIL <label><text>`` or ``inconclusive <label><text>``."""
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for label, check in cases:
        try:
            verdict, text = check()
        except TableBudgetExceeded as exc:
            verdict, text = "inconclusive", f": {_cause(exc)}"
        counts[verdict] += 1
        if verdict != "pass":
            lines.append(f"  {'FAIL' if verdict == 'fail' else verdict} {label}{text}")
    return counts["pass"], counts["fail"], counts["inconclusive"]


# A suite yields the (label, check) pairs of its instances; a skip line is
# appended to ``lines`` as the suite reaches it.

def _duality_cases(graph: ResolutionGraph, args: argparse.Namespace,
                   rng: random.Random, lines: list[str]):
    group = graph.group
    twists = [None, random_antinef(rng, graph, max_coeff=1)]
    exhaustive = group.order * (2 ** graph.n - 1) * len(twists) <= 4 * args.trials
    if exhaustive:
        cases = [(tw, h, I)
                 for tw in twists
                 for h in group.elements()
                 for r in range(1, graph.n + 1)
                 for I in itertools.combinations(range(graph.n), r)]
    else:
        cases = [(twists[rng.randrange(2)], random_class(rng, graph),
                  random_positions(rng, graph)) for _ in range(args.trials)]
    for tw, h, positions in cases:
        yield (f"h={h} I={positions} twist={tw}",
               partial(check_duality, graph, tw, h, positions))


def _surgery_cases(graph: ResolutionGraph, args: argparse.Namespace,
                   rng: random.Random, lines: list[str]):
    for _ in range(args.trials):
        keep = [graph.ids[p] for p in random_positions(rng, graph, allow_full=False)]
        x = graph.dual_combination([args.depth + rng.randint(0, 2) for _ in range(graph.n)])
        yield f"keep={keep} x={x}", partial(check_surgery, graph, keep, x)


def _cdgz_delta_cases(graph: ResolutionGraph, args: argparse.Namespace,
                      rng: random.Random, lines: list[str]):
    if not artin_rationality(graph)[1]:
        lines.append("  skip: graph is not rational")
        return
    if any(graph.arrows):
        probes = [graph]  # a declared curve is deterministic: check it once
    else:
        probes = (random_unit_arrows(rng, graph) for _ in range(args.trials))
    for probe in probes:
        if any(a > 1 for a in probe.arrows):
            lines.append("  skip: arrow multiplicities above one")
            continue
        yield f"arrows={probe.arrows}", partial(check_delta, probe)


def _sw_cases(graph: ResolutionGraph, args: argparse.Namespace,
              rng: random.Random, lines: list[str]):
    if not artin_rationality(graph)[1]:
        lines.append("  skip: graph is not rational")
        return
    for h in graph.group.elements():
        yield f"h={h}", partial(check_sw, graph, h)


SUITES = {
    "duality": _duality_cases,
    "surgery": _surgery_cases,
    "cdgz-delta": _cdgz_delta_cases,
    "sw-rational": _sw_cases,
}


def cmd_verify(args) -> int:
    graph = _load_graph(args.graph)
    rng = random.Random(args.seed)
    lines: list[str] = []
    passed, failed, inconclusive = tally(
        SUITES[args.suite](graph, args, rng, lines), lines)
    summary = (f"{args.suite}: {passed} passed, {failed} failed, "
               f"{inconclusive} inconclusive")
    doc = {"suite": args.suite, "passed": passed, "failed": failed,
           "inconclusive": inconclusive, "detail": lines}
    _emit(doc, args, lines + [summary])
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# curves

def cmd_curve(args) -> int:
    if [args.file, args.ordinary, args.semigroup].count(None) != 2:
        print("error: give exactly one of a curve file, --ordinary and --semigroup",
              file=sys.stderr)
        return 2
    if args.ordinary is not None:
        curve = curvemod.MultibranchCurve.ordinary(args.ordinary)
    elif args.semigroup is not None:
        curve = curvemod.MultibranchCurve.from_semigroup(args.semigroup)
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            curve = curvemod.parse_curve(fh.read())
    delta = curvemod.delta_total(curve)
    ok, witness = curvemod.verify_inversion(curve)
    doc = {
        "branches": curve.branches,
        "conductor": list(curve.conductor),
        "delta": delta,
        "inversion": ok,
    }
    lines = [
        f"branches = {curve.branches}   conductor = {list(curve.conductor)}",
        f"delta = {delta}",
        f"Hilbert-Poincare inversion: {'pass' if ok else f'FAIL at {witness}'}",
    ]
    if curve.branches >= 2:
        val = curvemod.poincare_series(curve).value_at_one()
        doc["poincare_at_one"] = val
        lines.append(f"Poincare evaluation at one = {val}")
    _emit(doc, args, lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _positive_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _int_at_least(text: str, least: int, rule: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _non_negative_int(text: str) -> int:
    """A surgery probe depth.  At depth -2 or below every coefficient of the
    probe sum((depth + randint(0, 2)) E*_v) is <= 0, so every count is 0 and
    the suite would pass without checking anything."""
    return _int_at_least(text, 0, "non-negative")


def _int_list(what: str):
    """The type of a comma-separated integer list, called ``what`` in its
    message; the command refuses an integer it cannot use by name (a
    generator that is not positive, an unknown or repeated vertex id)."""
    def parse(text: str) -> list[int]:
        try:
            return [int(t) for t in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="resgraph",
        description="exact invariants of plumbing trees and curve germs")
    ap.add_argument("--format", choices=("table", "doc"), default="table")
    ap.add_argument("--bound", type=_positive_rational, default="3",
                    help="expansion window bound (positive rational, e.g. 5/2)")
    ap.add_argument("--depth", type=_non_negative_int, default=3,
                    help="surgery probe depth (non-negative integer)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=_positive_int, default=25)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basics", help="lattice report for a graph file")
    p.add_argument("graph")
    p.set_defaults(func=cmd_basics)

    p = sub.add_parser("invariants", help="embedded-curve invariants from arrows")
    p.add_argument("graph")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("series", help="exact expansion dump")
    p.add_argument("graph")
    p.add_argument("--class-zero", action="store_true",
                   help="restrict to the trivial class part")
    p.add_argument("--reduce", type=_int_list("vertex ids"), default=None,
                   help="comma-separated vertex ids to keep")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="identity suites")
    p.add_argument("graph")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curve", help="abstract curve germ report")
    p.add_argument("file", nargs="?")
    p.add_argument("--ordinary", type=int, default=None,
                   help="ordinary r-tuple with the given branch count")
    p.add_argument("--semigroup", type=_int_list("positive integers"), default=None,
                   help="comma-separated numerical semigroup generators")
    p.set_defaults(func=cmd_curve)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, curvemod.CurveDataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TableBudgetExceeded as exc:
        print(f"refused: {_cause(exc)}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
