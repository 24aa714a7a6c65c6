"""The command line in a fresh interpreter, in development mode with warnings as errors.

Each command runs as ``python -X dev -W error -m na_evalkit`` with ``PYTHONPATH``
set to ``src``. Commands run with the cyclic collector paused, so a file that
only the collector could close would stay open, and ``-X dev`` warns about
every file closed by being freed. Python prints a warning raised while an
object is freed and carries on, so each command's stderr must be empty.
``test_golden.py`` compares the same reports in process; here only what a
fresh interpreter adds is checked: the exit code and what reaches stderr.
Only the csv of the rewritten circuit copies, which no in-process test
holds, is compared here byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "golden"
MODELS = ("unified", "hybridmapper", "dasatom", "enola")


def _dev(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    """One command in a fresh interpreter, run in ``cwd``; stdout and stderr as bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-X", "dev", "-W", "error", "-m", "na_evalkit", *argv]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, timeout=60)


@pytest.mark.parametrize("argv", [
    ["validate", "circuit.rsqasm", "arch.json"],
    ["evaluate", "circuit.rsqasm", "arch.json", "--format", "json"],
    # csv output imports the csv module only when it renders
    ["evaluate", "circuit.rsqasm", "arch.json", "--format", "csv"],
    ["compare", "circuit.rsqasm", "collapsed.rsqasm", "--arch", "arch.json", "--format", "csv"],
], ids=["validate", "evaluate-json", "evaluate-csv", "compare-csv"])
def test_a_command_writes_nothing_to_stderr(argv):
    proc = _dev(GOLDEN / "dense", *argv)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("case", ["dense", "table1"])
def test_normalize_emit_writes_nothing_to_stderr(case, tmp_path):
    # the emitted circuit is written a few stage lines at a time
    emitted = tmp_path / "collapsed.rsqasm"
    proc = _dev(GOLDEN / case, "normalize", "circuit.rsqasm", "arch.json",
                "--emit", str(emitted), "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert emitted.stat().st_size > 0


def test_radius_warnings_are_all_that_reaches_stderr():
    # a Python warning would add a line to stderr, and -W error fails the command
    proc = _dev(GOLDEN / "dense", "validate", "circuit.rsqasm", "arch.json",
                "--interaction-radius", "2")
    expected = (GOLDEN / "dense" / "validate-radius2.txt").read_bytes().splitlines(keepends=True)
    assert proc.returncode == 0
    assert proc.stderr.splitlines(keepends=True) == expected[:-1]
    assert expected[-1].startswith(b"ok: ")


def _copies() -> dict[str, str]:
    """The dense circuit rewritten two ways that parse to the same program:
    a blank before every ``;`` is valid but never canonical, so every stage
    line goes to the general grammar; blanks around every stage line are
    dropped before the line is read, so it stays on the fast path."""
    header, *stages = (GOLDEN / "dense" / "circuit.rsqasm").read_text().splitlines()
    return {
        "general": "\n".join([header, *(line.replace(";", " ;") for line in stages)]) + "\n",
        "surrounded": "\n".join([header, *(f" \t{line} \t" for line in stages)]) + "\n",
    }


@pytest.mark.parametrize("copy", ["general", "surrounded"])
@pytest.mark.parametrize("model", MODELS)
def test_a_rewritten_copy_gets_the_original_csv(copy, model, tmp_path):
    circuit = tmp_path / f"{copy}.rsqasm"
    circuit.write_text(_copies()[copy])
    proc = _dev(GOLDEN / "dense", "evaluate", str(circuit), "arch.json",
                "--model", model, "--format", "csv")
    assert (proc.returncode, proc.stderr) == (0, b"")
    # the csv report holds no path, so it is the original circuit's, byte for byte
    assert proc.stdout == (GOLDEN / "dense" / f"circuit.{model}.csv").read_bytes()


def test_the_cascade_gets_one_error_line_from_every_walk(tmp_path):
    circuit = tmp_path / "cascade.rsqasm"
    circuit.write_text("RSQASM 1.0;\nmove q[0], q[55];move q[2], q[1];\nh q[55];\n")
    errors = set()
    for command in ("validate", "evaluate", "normalize"):
        proc = _dev(GOLDEN / "table1", command, str(circuit), "arch.json")
        assert (proc.returncode, proc.stdout) == (2, b""), command
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(b"error["), command
        errors.add(proc.stderr)
    assert len(errors) == 1, errors
