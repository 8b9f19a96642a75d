"""Command-line surface: reports, exit codes, determinism, file grammars."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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
