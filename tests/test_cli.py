"""Command-line surface: reports, exit codes, determinism, file grammars."""

import json
import os
import re
import runpy
import signal
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from resgraph import cli, counting
from resgraph import curves as curvemod
from resgraph.cli import main

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ROOT / "graphs"


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basics_table(capsys):
    code, out, _ = run_cli(["basics", GRAPHS / "cyclic4.graph"], capsys)
    assert code == 0
    assert "E*_1 = (3/4, 1/2, 1/4)" in out
    assert "canonical cycle Z_K = (0, 0, 0)" in out
    assert "rational" in out
    assert "invariant factors: [4]" in out


def test_basics_doc_is_json_with_exact_rationals(capsys):
    code, out, _ = run_cli(["--format", "doc", "basics",
                            GRAPHS / "dihedral12.graph"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant_factors"] == [2, 6]
    assert doc["duals"]["2"] == ["1/3", "2/3", "1/3", "1/3"]
    assert doc["rational"] is True


def test_basics_deterministic(capsys):
    code1, out1, _ = run_cli(["basics", GRAPHS / "dihedral12.graph"], capsys)
    code2, out2, _ = run_cli(["basics", GRAPHS / "dihedral12.graph"], capsys)
    assert (code1, out1) == (code2, out2)


def test_invariants_rational(capsys):
    code, out, _ = run_cli(["invariants", GRAPHS / "cyclic4_cartier.graph"], capsys)
    assert code == 0
    assert "delta = 6" in out
    assert "curve cycle = (3, 2, 1)" in out


def test_invariants_on_a_large_chain_ends(tmp_path, capsys):
    # |H| = 1,000,999: the chain's point counts must not walk the group
    path = tmp_path / "large.graph"
    path.write_text("v 1 -1000\nv 2 -1001\ne 1 2\na 1\n")

    def hung(signum, frame):
        pytest.fail("invariants ran for more than 30 s")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        code, out, _ = run_cli(["invariants", path], capsys)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    assert "delta = 0" in out


def test_invariants_refusal_on_brieskorn(capsys):
    code, out, _ = run_cli(["invariants", GRAPHS / "brieskorn237_curve.graph"],
                           capsys)
    assert code == 0
    assert "kappa = 2" in out
    assert "refused" in out
    assert "not rational" in out


def test_invariants_blown_up_resolution_dependence(capsys):
    code, out, _ = run_cli(["invariants", GRAPHS / "brieskorn237_blown.graph"],
                           capsys)
    assert code == 0
    assert "kappa = 2" in out
    assert "kappa reduced to support = 1" in out


def test_invariants_needs_arrows(capsys):
    code, _, err = run_cli(["invariants", GRAPHS / "cyclic4.graph"], capsys)
    assert code == 2
    assert "no arrows" in err


def test_series_dump(capsys):
    code, out, _ = run_cli(["--bound", "3", "series", GRAPHS / "cyclic4.graph",
                            "--class-zero"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1 0/4 0/4 0/4"
    assert "1 4/4 4/4 4/4" in lines


def test_series_doc_is_json(capsys):
    code, out, _ = run_cli(["--format", "doc", "--bound", "3", "series",
                            GRAPHS / "cyclic4.graph", "--class-zero"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["den"] == 4
    assert doc["terms"][0] == [1, ["0/1", "0/1", "0/1"]]
    assert [1, ["1/1", "1/1", "1/1"]] in doc["terms"]


def test_series_table_builds_no_document(monkeypatch, capsys):
    # the document's rationals are made only when the document is printed,
    # and the table is the dump of the sorted terms
    from resgraph.series import build_zeta, expand, h_part, reduce_to
    made = []
    frac = cli._frac
    monkeypatch.setattr(cli, "_frac", lambda x: made.append(x) or frac(x))
    path = GRAPHS / "dihedral12.graph"
    graph = cli._load_graph(path)
    full = expand(build_zeta(graph), 5)
    part = h_part(full, graph.residue(graph.unit_cycle), 12)
    for extra, series in (([], full), (["--class-zero"], part),
                          (["--class-zero", "--reduce", "4,2"], reduce_to(part, [4, 2]))):
        code, out, err = run_cli(["--bound", "5", "series", path, *extra], capsys)
        assert (code, err, made) == (0, "", [])
        assert out == "".join(f"{c} " + " ".join(f"{x}/12" for x in key) + "\n"
                              for key, c in sorted(series.terms.items()))
    code, out, _ = run_cli(["--format", "doc", "--bound", "5", "series", path], capsys)
    # a doc dump writes each distinct coordinate once
    assert code == 0
    assert sorted(made) == sorted({Fraction(x, 12) for key in full.terms for x in key})
    assert json.loads(out)["terms"][0] == [1, ["0/1"] * 4]


def test_series_table_is_written_a_block_at_a_time(monkeypatch, capsys):
    # 154,400 rows make three blocks of lines, printed as they are made; the
    # whole dump is never joined into one string
    from resgraph.series import SparseSeries, build_zeta, expand
    path = GRAPHS / "dihedral12.graph"
    series = expand(build_zeta(cli._load_graph(path)), 16)
    blocks = list(series.dump_blocks())
    monkeypatch.setattr(SparseSeries, "dump", lambda self: pytest.fail("joined"))
    code, out, _ = run_cli(["--bound", "16", "series", path], capsys)
    assert code == 0
    assert out == "".join(block + "\n" for block in blocks)
    # a series with no terms prints one empty line, as its empty dump did
    empty = SparseSeries(series.ids, series.den, series.bound,
                         series.rows[:0], series.mult[:0])
    monkeypatch.setattr(cli, "expand", lambda spec, bound: empty)
    assert run_cli(["--bound", "16", "series", path], capsys)[:2] == (0, "\n")


def test_series_refuses_a_bound_beyond_the_cell_budget(capsys):
    # expand refuses at its first step over the budget, so a huge bound costs
    # no more than the first refused one
    for bound in ("40", "1000000000"):
        code, out, err = run_cli(["--bound", bound, "series",
                                  GRAPHS / "dihedral12.graph"], capsys)
        assert code == 2
        assert out == ""
        assert err == "refused: series expansion over the cell budget\n"


def test_series_answers_a_star_with_many_legs(tmp_path, capsys):
    # |H| = 256; a cost estimate, one factor per generator, once refused this
    # dump of 174 terms as about 11.7 million
    path = tmp_path / "star.graph"
    path.write_text("v 1 -5\n" + "".join(f"v {v} -2\ne 1 {v}\n" for v in range(2, 10)))
    code, out, err = run_cli(["--bound", "1", "series", path], capsys)
    assert code == 0
    assert err == ""
    assert len(out.splitlines()) == 174


@pytest.mark.parametrize("ids", ["1,1,1", "1,1", "2,3,2"])
def test_series_reduce_refuses_duplicate_ids(ids, capsys):
    # 1,1,1 once printed the unreduced series and 1,1 variable 1 twice
    code, out, err = run_cli(["--bound", "3", "series", GRAPHS / "cyclic4.graph",
                              "--class-zero", "--reduce", ids], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: duplicate variable id {ids[0]}\n"


def test_series_reduce_refuses_an_unknown_id(capsys):
    code, out, err = run_cli(["--bound", "2", "series", GRAPHS / "cyclic4.graph",
                              "--class-zero", "--reduce", "9"], capsys)
    assert (code, out, err) == (2, "", "error: unknown variable id 9\n")


@pytest.mark.parametrize("ids", ["3,2,1", "2,1,3", "3,1,2"])
def test_series_reduce_keeps_the_order_asked_for(ids, capsys):
    # a permutation of every id once printed the columns in the order 1,2,3
    def terms(keep):
        code, out, err = run_cli(["--format", "doc", "--bound", "2", "series",
                                  GRAPHS / "cyclic4.graph", "--class-zero",
                                  "--reduce", keep], capsys)
        assert code == 0 and err == ""
        return json.loads(out)["terms"]
    pos = [int(v) - 1 for v in ids.split(",")]
    want = sorted(([c, [key[p] for p in pos]] for c, key in terms("1,2,3")),
                  key=lambda term: [Fraction(v) for v in term[1]])
    assert terms(ids) == want


@pytest.mark.parametrize("ids", ["1,x", "1,,2"])
def test_series_reduce_that_is_not_integers_is_usage_error(ids, capsys):
    # each once ended in Python's own "invalid literal for int()" message
    with pytest.raises(SystemExit) as exc:
        main(["series", str(GRAPHS / "cyclic4.graph"), "--class-zero", f"--reduce={ids}"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --reduce: expected comma-separated vertex ids, got {ids!r}" in out.err


def test_series_reduce_needs_a_class_part(capsys):
    code, out, err = run_cli(["--bound", "2", "series", GRAPHS / "cyclic4.graph",
                              "--reduce", "1,2"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: reduce a single class part, not the full series "
                   "(use --class-zero)\n")


def test_series_over_the_row_cap_is_refused(monkeypatch, capsys):
    from resgraph import series
    monkeypatch.setattr(series, "TABLE_STATE_CAP", 10)
    code, out, err = run_cli(["--bound", "3", "series", GRAPHS / "cyclic4.graph"], capsys)
    assert code == 2
    assert out == ""
    assert err == "refused: series expansion over the cell budget\n"


def _star(tmp_path, arrow: str = ""):
    # rational, |H| = 16767; its node table holds 1,225,449 cells, inside the budget
    path = tmp_path / "star.graph"
    path.write_text("v 1 -3\n" + "".join(f"v {v} -9\ne 1 {v}\n" for v in range(2, 6))
                    + arrow)
    return path


def test_invariants_of_the_large_star_answer(tmp_path, capsys):
    code, out, err = run_cli(["invariants", _star(tmp_path, "a 2\n")], capsys)
    assert (code, err) == (0, "")
    assert "Riemann-Roch correction = 37/69\n" in out


def test_invariants_over_the_cell_budget_is_refused(tmp_path, capsys, monkeypatch):
    # used to end in a TableBudgetExceeded traceback with exit status 1
    monkeypatch.setattr(counting, "TABLE_STATE_CAP", 10_000)
    code, out, err = run_cli(["invariants", _star(tmp_path, "a 2\n")], capsys)
    assert code == 2
    assert out == ""
    assert err == "refused: partition table over the cell budget\n"


_HUGE_ARROW = "v 1 -2\nv 2 -3\nv 3 -2\nv 4 -2\ne 1 2\ne 2 3\ne 2 4\na 1 100000000000000000000\n"
_HUGE_LEG = "v 1 -2\nv 2 -2\nv 3 -2\nv 4 -10000000000000000000\ne 1 2\ne 1 3\ne 1 4\na 2\n"


@pytest.mark.parametrize("text, args, code, last", [
    (_HUGE_ARROW, ["invariants", "GRAPH"], 2, "refused: partition table over the cell budget"),
    (None, ["--depth", "5000000000000000000", "--trials", "2", "verify", "GRAPH",
            "--suite", "surgery"], 0, "surgery: 0 passed, 0 failed, 2 inconclusive"),
    (_HUGE_LEG, ["invariants", "GRAPH"], 2, "refused: partition table over the cell budget"),
    (_HUGE_LEG, ["--trials", "2", "verify", "GRAPH", "--suite", "duality"],
     0, "duality: 0 passed, 0 failed, 2 inconclusive"),
], ids=["arrow-1e20", "surgery-depth-5e18", "leg-1e19", "leg-1e19-duality"])
def test_tables_past_int64_are_refused_before_the_build(text, args, code, last, tmp_path,
                                                        capsys):
    # each used to end in an OverflowError traceback with exit status 1, at
    # the table's int64 shape or shift: a bound of 2**63 or more needs more
    # cells than the budget holds, so it is refused before any build
    path = GRAPHS / "dihedral12.graph"
    if text is not None:
        path = tmp_path / "huge.graph"
        path.write_text(text)
    got, out, err = run_cli([path if a == "GRAPH" else a for a in args], capsys)
    assert got == code
    assert (out + err).splitlines()[-1] == last
    assert "Traceback" not in err
    if code == 2:
        assert out == ""


def test_internal_errors_exit_1_with_one_line(monkeypatch, capsys):
    def broken(graph):
        raise cli.InternalCheckError("check x failed")
    monkeypatch.setattr(cli, "artin_rationality", broken)
    code, out, err = run_cli(["basics", GRAPHS / "cyclic4.graph"], capsys)
    assert code == 1
    assert out == ""
    assert err == "internal error: check x failed\n"


def test_other_runtime_errors_keep_their_traceback(monkeypatch):
    def broken(graph):
        raise RuntimeError("library failure")
    monkeypatch.setattr(cli, "artin_rationality", broken)
    with pytest.raises(RuntimeError, match="library failure"):
        cli.main(["basics", str(GRAPHS / "cyclic4.graph")])


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("v 1 -2\nv 1 -2\n")
    code, _, err = run_cli(["basics", bad], capsys)
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(["basics", "no-such-file.graph"], capsys)
    assert code == 2


@pytest.mark.parametrize("bound", ["abc", "1/0"])
def test_bad_bound_is_usage_error(bound, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--bound", bound, "series", str(GRAPHS / "cyclic4.graph")])
    assert exc.value.code == 2
    assert "argument --bound" in capsys.readouterr().err


@pytest.mark.parametrize("args, last", [
    (["--bound", "0", "series", "cyclic4.graph"],
     "resgraph: error: argument --bound: must be positive, got '0'"),
    (["--trials", "x", "verify", "cyclic4.graph", "--suite", "surgery"],
     "resgraph: error: argument --trials: not an integer: 'x'"),
], ids=["bound-zero", "trials-not-an-integer"])
def test_usage_errors_name_the_argument(args, last, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(GRAPHS / a) if a.endswith(".graph") else a for a in args])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1] == last


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--trials", "-2"),
                                         ("--depth", "-1")])
def test_non_positive_stride_or_trials_is_usage_error(flag, value, capsys):
    # trials 0 once ran as an empty suite (the --stride flag is gone), and a
    # depth of -2 or below once passed surgery probes whose counts are all 0
    rule = "non-negative" if flag == "--depth" else "positive"
    with pytest.raises(SystemExit) as exc:
        main([flag, value, "verify", str(GRAPHS / "cyclic4.graph"),
              "--suite", "surgery"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {flag}: must be {rule}, got '{value}'" in out.err


def test_verify_sw_suite(capsys):
    code, out, _ = run_cli(["verify", GRAPHS / "dihedral12.graph",
                            "--suite", "sw-rational"], capsys)
    assert code == 0
    assert "12 passed, 0 failed" in out


def test_verify_duality_suite_small(capsys):
    code, out, _ = run_cli(["--trials", "6", "--seed", "3", "verify",
                            GRAPHS / "cyclic4.graph", "--suite", "duality"],
                           capsys)
    assert code == 0
    assert "0 failed" in out


def test_verify_surgery_suite(capsys):
    code, out, _ = run_cli(["--trials", "8", "verify",
                            GRAPHS / "dihedral12.graph", "--suite", "surgery"],
                           capsys)
    assert code == 0


def test_verify_cdgz_suite(capsys):
    code, out, _ = run_cli(["--trials", "5", "--seed", "11", "verify",
                            GRAPHS / "dihedral12_center.graph",
                            "--suite", "cdgz-delta"], capsys)
    assert code == 0
    assert "0 failed" in out


@pytest.mark.parametrize("graph, lines", [
    ("dihedral12_center", ["cdgz-delta: 1 passed, 0 failed, 0 inconclusive"]),
    ("cyclic4_cartier", ["  skip: arrow multiplicities above one",
                         "cdgz-delta: 0 passed, 0 failed, 0 inconclusive"]),
])
def test_verify_cdgz_checks_a_declared_curve_once(graph, lines, capsys):
    # declared arrows fix the curve: more trials would repeat the same check
    code, out, _ = run_cli(["--trials", "3", "verify", GRAPHS / f"{graph}.graph",
                            "--suite", "cdgz-delta"], capsys)
    assert code == 0
    assert out.splitlines() == lines


def test_verify_cdgz_suite_skips_non_rational(capsys):
    code, out, err = run_cli(["--trials", "3", "verify",
                              GRAPHS / "brieskorn237_blown.graph",
                              "--suite", "cdgz-delta"], capsys)
    assert code == 0
    assert "skip: graph is not rational" in out
    assert "0 passed, 0 failed, 0 inconclusive" in out
    assert err == ""


def test_verify_sw_suite_skips_non_rational(capsys):
    code, out, err = run_cli(["verify", GRAPHS / "brieskorn237.graph",
                              "--suite", "sw-rational"], capsys)
    assert (code, err) == (0, "")
    assert out == ("  skip: graph is not rational\n"
                   "sw-rational: 0 passed, 0 failed, 0 inconclusive\n")


def test_verify_counts_budget_refusals_as_inconclusive(tmp_path, capsys, monkeypatch):
    # every class needs a partition table over the cell budget, which used
    # to end in a traceback with exit status 1
    monkeypatch.setattr(counting, "TABLE_STATE_CAP", 10_000)
    code, out, err = run_cli(["verify", _star(tmp_path), "--suite", "sw-rational"],
                             capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[-1] == "sw-rational: 0 passed, 0 failed, 16767 inconclusive"
    assert len(lines) == 16768
    assert all(line.startswith("  inconclusive h=")
               and line.endswith(": partition table over the cell budget")
               for line in lines[:-1])


CAMPAIGN = ROOT / "scripts" / "fuzz_campaign.py"


def _campaign_counts(out: str) -> list[tuple[int, int]]:
    """(failures, inconclusive) of each campaign summary line."""
    return [tuple(map(int, re.search(r"(\d+) failures, (\d+) inconclusive", line).groups()))
            for line in out.splitlines()]


def _run_script(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env=env)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_fuzz_campaign_default_run(flags):
    # seed 1, 50 trials, about 2 s: the same counts under -O, so no check
    # of the campaign rests on assert
    proc = _run_script(*flags, str(CAMPAIGN))
    assert proc.returncode == 0, proc.stderr
    assert _campaign_counts(proc.stdout) == [(0, 0)] * 4


def test_fuzz_campaign_at_200_trials():
    # about 5 s; with ray-fitted constants this run had one twisted-duality
    # failure and exited 1
    proc = _run_script(str(CAMPAIGN), "--seed", "1", "--trials", "200")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert _campaign_counts(proc.stdout) == [(0, 0)] * 4


def test_fuzz_campaign_zero_trials_is_usage_error():
    # --trials 0 once printed "0 trials, 0 failures" on every line and exited 0
    proc = _run_script(str(CAMPAIGN), "--trials", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --trials: must be positive, got '0'" in proc.stderr


def test_worked_examples_run():
    # about 0.3 s: the walk-through the README points to
    proc = _run_script(str(ROOT / "scripts" / "worked_examples.py"))
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    for line in ["quartic pair curve: cycle (3, 2, 1), delta = 6, correction = 0",
                 "Z_K = (2, 1, 1, 1), Z_min = (6, 3, 2, 1), chi(Z_min) = 0, rational: False",
                 "kappa = 2, reduced = 2",
                 "after one blow-up: kappa = 2, reduced at the new vertex = 1"]:
        assert line in lines
    # delta, chi(-s) and the correction of each nonzero dihedral class
    rows = [line.split()[-3:] for line in lines if line.startswith("(")]
    assert [int(delta) for delta, _, _ in rows] == [1, 2, 1, 0, 0, 1, 1, 0, 1, 1, 0]
    assert rows[1] == ["2", "2", "0"]


def test_refusals_count_as_inconclusive(monkeypatch, capsys):
    # a 20-cell budget refuses almost every partition table; the campaign
    # once let the first refusal end the run in a traceback
    monkeypatch.setattr(counting, "TABLE_STATE_CAP", 20)
    monkeypatch.setattr(counting, "_STORE", weakref.WeakKeyDictionary())
    monkeypatch.setattr(sys, "argv", [str(CAMPAIGN), "--trials", "10"])
    assert runpy.run_path(str(CAMPAIGN))["main"]() == 0
    counts = _campaign_counts(capsys.readouterr().out)
    assert len(counts) == 4
    assert all(fails == 0 for fails, _ in counts)
    assert sum(inconclusive for _, inconclusive in counts) > 0


def test_curve_ordinary(capsys):
    code, out, _ = run_cli(["curve", "--ordinary", "3"], capsys)
    assert code == 0
    assert "delta = 2" in out
    assert "inversion: pass" in out


def test_curve_semigroup(capsys):
    code, out, _ = run_cli(["curve", "--semigroup", "2,3"], capsys)
    assert code == 0
    assert "delta = 1" in out


def test_curve_file(capsys):
    code, out, _ = run_cli(["curve", ROOT / "curves_data" / "tacnode.curve"],
                           capsys)
    assert code == 0
    assert "delta = 2" in out
    assert "Poincare evaluation at one = 2" in out


@pytest.mark.parametrize("gens, bad", [("-2,3,5", "-2"), ("0,3,5", "0")])
def test_curve_semigroup_refuses_generators_that_are_not_positive(gens, bad, capsys):
    # each once answered for <3, 5> (conductor 8, delta 4) and exited 0
    code, out, err = run_cli(["curve", f"--semigroup={gens}"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: semigroup generator {bad} is not positive\n"


@pytest.mark.parametrize("gens", ["2,x", "2,,3", "", "2.5,3"])
def test_curve_semigroup_that_is_not_integers_is_usage_error(gens, capsys):
    # each once ended in Python's own "invalid literal for int()" message
    with pytest.raises(SystemExit) as exc:
        main(["curve", f"--semigroup={gens}"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert (f"argument --semigroup: expected comma-separated positive integers, "
            f"got {gens!r}") in out.err


@pytest.mark.parametrize("args", [
    [],
    # each once reported the --ordinary curve alone and exited 0
    [ROOT / "curves_data" / "tacnode.curve", "--ordinary", "3"],
    ["--semigroup", "2,3", "--ordinary", "2"],
], ids=["none", "file-and-ordinary", "semigroup-and-ordinary"])
def test_curve_needs_exactly_one_source(args, capsys):
    code, out, err = run_cli(["curve", *args], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: give exactly one of a curve file, --ordinary and --semigroup\n"


@pytest.mark.parametrize("text, branches, delta", [
    ((ROOT / "curves_data" / "tacnode.curve").read_text(), 2, 2),
    # the costliest accepted shape: 2^11 box cells and 2^11 branch subsets
    ("branches 11\nconductor" + " 0" * 11 + "\ns" + " 0" * 11 + "\n", 11, 0),
], ids=["tacnode", "eleven-branches"])
def test_curve_report_builds_one_hilbert_table(text, branches, delta, tmp_path,
                                               monkeypatch, capsys):
    # the subset pass, the delta cross-check, the inversion check and the
    # evaluation at one share the whole curve's table; the subcurves' tables
    # come from projections of its membership array
    build = curvemod._hilbert_grid
    calls = []
    monkeypatch.setattr(curvemod, "_hilbert_grid",
                        lambda present: calls.append(present.ndim) or build(present))
    path = tmp_path / "report.curve"
    path.write_text(text)
    code, out, _ = run_cli(["curve", path], capsys)
    assert code == 0
    assert out.splitlines()[1:] == [f"delta = {delta}", "Hilbert-Poincare inversion: pass",
                                    f"Poincare evaluation at one = {delta}"]
    assert calls.count(branches) == 1


@pytest.mark.parametrize("args", [["--ordinary", "20"],
                                  ["--semigroup", "1000,1001"],
                                  ["--semigroup", "100000007,100000009"]])
def test_curve_over_the_box_cap_is_refused(args, capsys):
    def hung(signum, frame):
        pytest.fail("curve ran for more than 30 s")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        code, out, err = run_cli(["curve", *args], capsys)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert out == ""
    assert err == "error: the box [0, conductor + 1] holds more than 2048 cells; refused\n"


@pytest.mark.parametrize("text, message", [
    # once reported delta = 2 and a passing inversion
    ("branches 2\nconductor 3 2\ns 0 0\ns 1 2\ns 2 1\ns 3 2\n",
     "(1, 2) + (1, 2) = (2, 4) clamps to (2, 2), which is missing"),
    # once refused through a one-branch subcurve, in coordinates the file never names
    ("branches 2\nconductor 1 3\ns 0 0\ns 1 1\ns 1 3\n",
     "(1, 1) + (1, 1) = (2, 2) clamps to (1, 2), which is missing"),
], ids=["once-answered", "once-refused-by-a-subcurve"])
def test_curve_not_closed_under_the_clamp_rule_is_refused(text, message, tmp_path,
                                                          capsys):
    path = tmp_path / "bad.curve"
    path.write_text(text)
    code, out, err = run_cli(["curve", path], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: value set is not closed under addition: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("branches 1\nconductor 2\ns 0 x\n", "line 3: expected integers in 's 0 x'"),
    ("branches 1\nbranches 1\n", "line 2: duplicate branches line"),
    ("branches 1 2\n", "line 1: branches line needs one integer"),
    ("branches 1\nconductor 2\nconductor 2\n", "line 3: duplicate conductor line"),
    ("branches 1\nvalue 0\n", "line 2: unknown directive 'value'"),
    ("# no branches\nconductor 2\ns 0\n",
     "curve file needs 'branches' and 'conductor' lines"),
    ("branches 2\nconductor -1 2\ns 0 0\n", "conductor entries must be nonnegative"),
    ("branches 2\nconductor 1 1\ns 0 0\ns 1 1\ns 2 0\n",
     "value (2, 0) outside the box [0, conductor]"),
    # once named (1, 1), a cell of the subcurve on the first two branches
    ("branches 3\nconductor 2 2 1\n" + "".join(
        f"s {v}\n" for v in ("0 0 0", "1 1 0", "1 1 1", "2 0 0", "2 0 1", "2 1 0",
                             "2 1 1", "2 2 0", "2 2 1")),
     "Hilbert recursion is path dependent at (1, 0, 1): got [1, 2]; "
     "the value set is not a valid curve semigroup"),
], ids=["not-integers", "duplicate-branches", "branches-arity", "duplicate-conductor",
        "unknown-directive", "missing-lines", "negative-conductor",
        "value-outside-the-box", "path-dependent"])
def test_curve_file_grammar_errors(text, message, tmp_path, capsys):
    path = tmp_path / "bad.curve"
    path.write_text(text)
    code, out, err = run_cli(["curve", path], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("v 1 x\n", "line 1: expected integer arguments in 'v 1 x'"),
    ("v 1\n", "line 1: vertex line needs: v <id> <euler>"),
    ("v 0 -2\n", "line 1: vertex ids must be positive"),
    ("v 1 -2\ne 1\n", "line 2: edge line needs: e <id> <id>"),
    ("v 1 -2\na\n", "line 2: arrow line needs: a <id> [mult]"),
    ("v 1 -2\na 1 -1\n", "line 2: arrow multiplicity must be >= 0"),
    ("# only a comment\n", "no vertices declared"),
], ids=["not-integers", "vertex-arity", "vertex-id", "edge-arity", "arrow-arity",
        "arrow-multiplicity", "no-vertices"])
def test_graph_file_grammar_errors(text, message, tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    code, out, err = run_cli(["basics", path], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_curve_failed_inversion_reports(monkeypatch, capsys):
    # a Hilbert table off by one at a face cell breaks the inversion identity
    build = curvemod._hilbert_grid

    def bumped(present):
        grid = build(present)
        if present.ndim == 2:
            grid[1, 0] += 1
        return grid
    monkeypatch.setattr(curvemod, "_hilbert_grid", bumped)
    tacnode = ROOT / "curves_data" / "tacnode.curve"
    code, out, _ = run_cli(["--format", "doc", "curve", tacnode], capsys)
    assert code == 1
    assert json.loads(out)["inversion"] is False
    code, out, _ = run_cli(["curve", tacnode], capsys)
    assert code == 1
    assert "Hilbert-Poincare inversion: FAIL at (1, 0)" in out


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "resgraph.cli", "basics",
         str(GRAPHS / "brieskorn237.graph")],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0
    assert "NOT rational" in proc.stdout
