"""Command-line surface: reports, exit codes, determinism, file grammars."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from resgraph import cli
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


def test_series_refuses_a_bound_beyond_the_cost_cap(capsys):
    # bound 32 on dihedral12 once enumerated for about 18 s
    code, out, err = run_cli(["--bound", "32", "series",
                              GRAPHS / "dihedral12.graph"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --bound 32 would enumerate about ")
    assert err.endswith("choose a smaller bound\n")


def _star(tmp_path, arrow: str = ""):
    # rational, |H| = 16767, and every partition table is over the cell budget
    path = tmp_path / "star.graph"
    path.write_text("v 1 -3\n" + "".join(f"v {v} -9\ne 1 {v}\n" for v in range(2, 6))
                    + arrow)
    return path


def test_invariants_over_the_cell_budget_is_refused(tmp_path, capsys):
    # used to end in a TableBudgetExceeded traceback with exit status 1
    code, out, err = run_cli(["invariants", _star(tmp_path, "a 2\n")], capsys)
    assert code == 2
    assert out == ""
    assert err == "refused: partition table over the cell budget\n"


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


def test_verify_cdgz_suite_skips_non_rational(capsys):
    code, out, err = run_cli(["--trials", "3", "verify",
                              GRAPHS / "brieskorn237_blown.graph",
                              "--suite", "cdgz-delta"], capsys)
    assert code == 0
    assert "skip: graph is not rational" in out
    assert "0 passed, 0 failed, 0 inconclusive" in out
    assert err == ""


def test_verify_counts_budget_refusals_as_inconclusive(tmp_path, capsys):
    # every class needs a partition table over the cell budget, which used
    # to end in a traceback with exit status 1
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


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "resgraph.cli", "basics",
         str(GRAPHS / "brieskorn237.graph")],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0
    assert "NOT rational" in proc.stdout
