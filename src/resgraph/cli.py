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
from dataclasses import dataclass
from fractions import Fraction

from . import curves as curvemod
from .counting import (FitConfig, InternalCheckError, StabilizationError,
                       TableBudgetExceeded, surgery_check, sw_norm,
                       verify_symmetry)
from .cycles import RationalCycle, zero_cycle
from .embedded import (EmbeddedCurve, RationalityError, blache_correction,
                       delta_cross_check, delta_embedded, kappa_topological,
                       verify_twisted_duality)
from .graphs import (GraphError, ResolutionGraph, artin_rationality, chi,
                     min_antinef_rep, parse_graph)
from .randtrees import (random_antinef, random_class, random_positions,
                        random_unit_arrows)
from .series import build_zeta, expand, expansion_cost, h_part, reduce_to


CLASS_CAP = 24  # basics lists the classes of groups up to this order
SERIES_COST_CAP = 2_000_000  # largest expansion_cost a series dump runs (about 1 s)


@dataclass(frozen=True)
class RunConfig:
    fmt: str = "table"
    bound: Fraction = Fraction(3)
    depth: int = 3
    stride: int = 5
    seed: int = 1
    trials: int = 25

    def fit(self) -> FitConfig:
        return FitConfig(max_substride=max(1, self.stride))


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _cycle_str(c: RationalCycle) -> str:
    return "(" + ", ".join(str(f) for f in c.fractions()) + ")"


def _cycle_doc(c: RationalCycle) -> list[str]:
    return [_frac(f) for f in c.fractions()]


def _emit(doc: dict, cfg: RunConfig, table_lines: list[str]) -> None:
    if cfg.fmt == "doc":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _load_graph(path: str) -> ResolutionGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


# ---------------------------------------------------------------------------
# basics

def cmd_basics(args, cfg: RunConfig) -> int:
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
        lines.append(f"  E*_{v} = {_cycle_str(graph.dual(v))}   "
                     f"(euler {graph.eulers[graph.index[v]]}, "
                     f"valence {graph.valences[graph.index[v]]})")
    lines.append(f"canonical cycle Z_K = {_cycle_str(graph.canonical)}")
    lines.append(f"fundamental cycle Z_min = {_cycle_str(zmin)}   "
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
            lines.append(f"  h={h}: r_h = {_cycle_str(r)}  s_h = {_cycle_str(s)}  "
                         f"chi(r_h) = {chi(graph, r)}  chi(s_h) = {chi(graph, s)}")
        doc["classes"] = classes
    _emit(doc, cfg, lines)
    return 0


# ---------------------------------------------------------------------------
# invariants

def cmd_invariants(args, cfg: RunConfig) -> int:
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
        f"curve cycle = {_cycle_str(ell)}   support = {list(curve.support_ids)}",
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
    _emit(doc, cfg, lines)
    return 0


# ---------------------------------------------------------------------------
# series dump

def cmd_series(args, cfg: RunConfig) -> int:
    graph = _load_graph(args.graph)
    spec = build_zeta(graph)
    cost = expansion_cost(spec, cfg.bound)
    if cost > SERIES_COST_CAP:
        print(f"error: --bound {cfg.bound} would enumerate about {cost} terms, "
              f"over the limit of {SERIES_COST_CAP}; choose a smaller bound",
              file=sys.stderr)
        return 2
    series = expand(spec, cfg.bound)
    if args.class_zero:
        series = h_part(series, graph.residue(zero_cycle(graph.n)), graph.det_abs)
    if args.reduce:
        keep = [int(t) for t in args.reduce.split(",")]
        if args.class_zero:
            series = reduce_to(series, keep)
        else:
            print("error: reduce a single class part, not the full series "
                  "(use --class-zero)", file=sys.stderr)
            return 2
    doc = {"den": series.den,
           "terms": [[c, [_frac(Fraction(x, series.den)) for x in key]]
                     for key, c in series.sorted_items()]}
    _emit(doc, cfg, [series.dump()])
    return 0


# ---------------------------------------------------------------------------
# verify suites

# Instances that end in one of these are counted inconclusive, not failed.
INCONCLUSIVE = (TableBudgetExceeded, StabilizationError)


def _cause(exc: Exception) -> str:
    return ("partition table over the cell budget"
            if isinstance(exc, TableBudgetExceeded) else str(exc))


def _inconclusive(lines: list[str], label: str, exc: Exception) -> None:
    lines.append(f"  inconclusive {label}: {_cause(exc)}")


def _verify_duality(graph: ResolutionGraph, cfg: RunConfig, rng: random.Random,
                    lines: list[str]) -> tuple[int, int, int]:
    group = graph.group
    twists = [None, random_antinef(rng, graph, max_coeff=1)]
    passed = failed = inconclusive = 0
    exhaustive = group.order * (2 ** graph.n - 1) * len(twists) <= 4 * cfg.trials
    if exhaustive:
        cases = [(tw, h, I)
                 for tw in twists
                 for h in group.elements()
                 for r in range(1, graph.n + 1)
                 for I in itertools.combinations(range(graph.n), r)]
    else:
        cases = [(twists[rng.randrange(2)], random_class(rng, graph),
                  random_positions(rng, graph)) for _ in range(cfg.trials)]
    for tw, h, positions in cases:
        label = f"h={h} I={positions} twist={tw and _cycle_str(tw)}"
        try:
            rep = verify_twisted_duality(graph, tw, h, positions, cfg.fit())
        except INCONCLUSIVE as exc:
            inconclusive += 1
            _inconclusive(lines, label, exc)
            continue
        if rep.failed:
            failed += 1
            lines.append(f"  FAIL {label}: pc {rep.lhs} vs count {rep.rhs}, "
                         f"mpc {rep.lhs_modified} vs {rep.rhs_modified}")
        elif "inconclusive" in (rep.status, rep.status_modified):
            inconclusive += 1
            which = "pc" if rep.status == "inconclusive" else "mpc"
            lines.append(f"  inconclusive {label}: {which} ray fit did not stabilise")
        else:
            passed += 1
    return passed, failed, inconclusive


def _verify_surgery(graph: ResolutionGraph, cfg: RunConfig, rng: random.Random,
                    lines: list[str]) -> tuple[int, int, int]:
    passed = failed = inconclusive = 0
    for _ in range(cfg.trials):
        keep = [graph.ids[p] for p in random_positions(rng, graph, allow_full=False)]
        x = zero_cycle(graph.n)
        for i in range(graph.n):
            x = x + (cfg.depth + rng.randint(0, 2)) * graph.duals[i]
        try:
            rep = surgery_check(graph, keep, x)
        except INCONCLUSIVE as exc:
            inconclusive += 1
            _inconclusive(lines, f"keep={keep} x={_cycle_str(x)}", exc)
            continue
        if rep.passed:
            passed += 1
        else:
            failed += 1
            lines.append(f"  FAIL keep={keep} x={_cycle_str(x)} residual={rep.residual}")
    return passed, failed, inconclusive


def _verify_cdgz_delta(graph: ResolutionGraph, cfg: RunConfig, rng: random.Random,
                       lines: list[str]) -> tuple[int, int, int]:
    if not artin_rationality(graph)[1]:
        lines.append("  skip: graph is not rational")
        return 0, 0, 0
    passed = failed = inconclusive = 0
    for _ in range(cfg.trials):
        probe = graph if any(graph.arrows) else random_unit_arrows(rng, graph)
        if any(a > 1 for a in probe.arrows):
            lines.append("  skip: arrow multiplicities above one")
            continue
        try:
            rep = delta_cross_check(probe, EmbeddedCurve.from_graph_arrows(probe),
                                    cfg.fit())
        except INCONCLUSIVE as exc:
            inconclusive += 1
            _inconclusive(lines, f"arrows={probe.arrows}", exc)
            continue
        if rep.passed:
            passed += 1
        else:
            failed += 1
            lines.append(f"  FAIL arrows={probe.arrows}: series route "
                         f"{rep.delta_series} vs chi route {rep.delta_chi}")
    return passed, failed, inconclusive


def _verify_sw(graph: ResolutionGraph, cfg: RunConfig, rng: random.Random,
               lines: list[str]) -> tuple[int, int, int]:
    if not artin_rationality(graph)[1]:
        lines.append("  skip: graph is not rational")
        return 0, 0, 0
    group = graph.group
    passed = failed = inconclusive = 0
    for h in group.elements():
        try:
            val = sw_norm(graph, h)
        except INCONCLUSIVE as exc:
            inconclusive += 1
            _inconclusive(lines, f"h={h}", exc)
            continue
        expect = chi(graph, group.frac_rep(h)) - chi(graph, min_antinef_rep(graph, h))
        if val == expect:
            passed += 1
        else:
            failed += 1
            lines.append(f"  FAIL h={h}: sw {val} vs chi difference {expect}")
    return passed, failed, inconclusive


SUITES = {
    "duality": _verify_duality,
    "surgery": _verify_surgery,
    "cdgz-delta": _verify_cdgz_delta,
    "sw-rational": _verify_sw,
}


def cmd_verify(args, cfg: RunConfig) -> int:
    graph = _load_graph(args.graph)
    rng = random.Random(cfg.seed)
    lines: list[str] = []
    suite = SUITES[args.suite]
    passed, failed, inconclusive = suite(graph, cfg, rng, lines)
    summary = (f"{args.suite}: {passed} passed, {failed} failed, "
               f"{inconclusive} inconclusive")
    doc = {"suite": args.suite, "passed": passed, "failed": failed,
           "inconclusive": inconclusive, "detail": lines}
    _emit(doc, cfg, lines + [summary])
    if not verify_symmetry(graph):
        print("zeta factorisation symmetry check failed", file=sys.stderr)
        return 1
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# curves

def cmd_curve(args, cfg: RunConfig) -> int:
    if args.ordinary is not None:
        curve = curvemod.MultibranchCurve.ordinary(args.ordinary)
    elif args.semigroup is not None:
        gens = [int(t) for t in args.semigroup.split(",")]
        curve = curvemod.MultibranchCurve.from_semigroup(gens)
    elif args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            curve = curvemod.parse_curve(fh.read())
    else:
        print("error: give a curve file, --ordinary or --semigroup", file=sys.stderr)
        return 2
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
    _emit(doc, cfg, lines)
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="resgraph",
        description="exact invariants of plumbing trees and curve germs")
    ap.add_argument("--format", choices=("table", "doc"), default="table")
    ap.add_argument("--bound", type=_positive_rational, default="3",
                    help="expansion window bound (positive rational, e.g. 5/2)")
    ap.add_argument("--depth", type=int, default=3, help="surgery probe depth")
    ap.add_argument("--stride", type=int, default=5,
                    help="substride sweep ceiling for the periodic-constant fit")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, default=25)
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
    p.add_argument("--reduce", type=str, default=None,
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
    p.add_argument("--semigroup", type=str, default=None,
                   help="comma-separated numerical semigroup generators")
    p.set_defaults(func=cmd_curve)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    cfg = RunConfig(fmt=args.format, bound=args.bound, depth=args.depth,
                    stride=args.stride, seed=args.seed, trials=args.trials)
    try:
        return args.func(args, cfg)
    except (GraphError, curvemod.CurveDataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INCONCLUSIVE as exc:
        print(f"refused: {_cause(exc)}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
