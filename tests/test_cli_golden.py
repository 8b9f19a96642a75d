"""Byte-identity gate for the command line.

Every shipped graph runs through ``basics``, ``invariants`` and the class-zero
``series`` dump, the curve reports run on the shipped curve file and two
built-in germs, and each verify suite runs at a fixed seed, all in both
output formats.  Stdout and exit status must equal the outputs stored under
``tests/data/cli_golden/``.  After a deliberate output change, rewrite them
with ``PYTHONPATH=src python tests/test_cli_golden.py``.  The depth-8 series
dump of ``dihedral12`` is too large to store; its sha256 digests are checked
instead, with and without ``python -O``.
"""

import hashlib
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


# sha256 of the stdout of ``--bound 8 series dihedral12`` (20,176 terms)
DEEP_SERIES = ["--bound", "8", "series", str(ROOT / "graphs" / "dihedral12.graph")]
DEEP_DIGESTS = {
    "table": "5a49f2f9c7c9f0188674a220c99d0f5457c873e185339bc05b535b2764cf976d",
    "doc": "30ab5b71621e09d179aac979ab820f6dc21c34172a92145f8f713d2296df21aa",
}


@pytest.mark.parametrize("fmt", sorted(DEEP_DIGESTS))
def test_deep_series_digest(fmt, capsys):
    assert main(["--format", fmt, *DEEP_SERIES]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEEP_DIGESTS[fmt]


@pytest.mark.parametrize("fmt", sorted(DEEP_DIGESTS))
def test_deep_series_digest_without_asserts(fmt):
    proc = subprocess.run([sys.executable, "-O", "-m", "resgraph.cli", "--format", fmt,
                           *DEEP_SERIES], capture_output=True, cwd=ROOT)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == DEEP_DIGESTS[fmt]


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
