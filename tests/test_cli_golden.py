"""Byte-identity gate for the command line.

Every shipped graph runs through ``basics``, ``invariants`` and the class-zero
``series`` dump, the curve reports run on the shipped curve file and two
built-in germs, and each verify suite runs at a fixed seed, all in both
output formats.  Stdout and exit status must equal the outputs stored under
``tests/data/cli_golden/``.  After a deliberate output change, rewrite them
with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from resgraph.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden"
CODES = GOLDEN / "exit_codes.json"


def _cases() -> dict[str, list[str]]:
    graphs = ROOT / "graphs"
    runs = {}
    for path in sorted(graphs.glob("*.graph")):
        runs[f"basics-{path.stem}"] = ["basics", str(path)]
        runs[f"invariants-{path.stem}"] = ["invariants", str(path)]
        runs[f"series-{path.stem}"] = ["--bound", "3", "series", str(path),
                                       "--class-zero"]
    runs["curve-tacnode"] = ["curve", str(ROOT / "curves_data" / "tacnode.curve")]
    runs["curve-ordinary3"] = ["curve", "--ordinary", "3"]
    runs["curve-semigroup23"] = ["curve", "--semigroup", "2,3"]
    dihedral = str(graphs / "dihedral12.graph")
    runs["verify-sw-rational-dihedral12"] = ["verify", dihedral, "--suite", "sw-rational"]
    for suite in ("duality", "surgery", "cdgz-delta"):
        runs[f"verify-{suite}-dihedral12"] = ["--trials", "3", "--seed", "7",
                                              "verify", dihedral, "--suite", suite]
    runs["verify-duality-cyclic4"] = ["--trials", "14", "--seed", "7", "verify",
                                      str(graphs / "cyclic4.graph"), "--suite", "duality"]
    return {f"{fmt}-{name}": ["--format", fmt] + args
            for name, args in runs.items() for fmt in ("table", "doc")}


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    expected = json.loads(CODES.read_text(encoding="utf-8"))
    assert code == expected[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("suite", ["duality", "surgery", "cdgz-delta", "sw-rational"])
def test_cli_golden_without_asserts(suite):
    # python -O strips assert statements: the mandatory checks must not be
    # asserts, and the output must not depend on them
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "resgraph.cli", "--seed", "7", "--trials", "3",
         "verify", str(ROOT / "graphs" / "dihedral12.graph"), "--suite", suite],
        capture_output=True, text=True, cwd=ROOT)
    name = f"table-verify-{suite}-dihedral12"
    assert proc.returncode == json.loads(CODES.read_text(encoding="utf-8"))[name]
    assert proc.stdout == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def _write_golden() -> None:
    import contextlib
    import io

    GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, args in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            codes[name] = main(args)
        (GOLDEN / f"{name}.out").write_text(buf.getvalue(), encoding="utf-8")
    CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
