"""Byte-for-byte regression of the command-line reports on a fixed corpus.

Each directory under ``tests/golden/`` holds one case: ``arch.json`` and
``circuit.rsqasm`` as inputs, ``collapsed.rsqasm`` as the circuit that
``normalize --emit`` writes, and one file per report; ``compare.*`` set the
two circuits side by side. ``dense`` also holds ``validate-radius2.txt``: the
warnings and verdict of ``validate`` under an interaction radius of 2. The commands run inside the case directory with
relative paths, because reports echo the paths they were given.

The corpus was built once by the seeded generators in ``helpers.py``; to
rebuild it after a deliberate change of output, run from the repository
root::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from pathlib import Path

import pytest

from na_evalkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = ("dense", "table1")
MODELS = ("unified", "hybridmapper", "dasatom", "enola")


def _reports() -> list[tuple[str, list[str]]]:
    """(expected file name, CLI arguments) for every report of one case."""
    runs = [
        ("validate.txt", ["validate", "circuit.rsqasm", "arch.json"]),
        ("normalize.json", ["normalize", "circuit.rsqasm", "arch.json", "--format", "json"]),
    ]
    for fmt in ("json", "csv"):
        runs.append((
            f"compare.{fmt}",
            ["compare", "circuit.rsqasm", "collapsed.rsqasm", "--arch", "arch.json", "--format", fmt],
        ))
    for circuit in ("circuit", "collapsed"):
        for model in MODELS:
            for fmt in ("json", "csv"):
                runs.append((
                    f"{circuit}.{model}.{fmt}",
                    ["evaluate", f"{circuit}.rsqasm", "arch.json",
                     "--model", model, "--format", fmt],
                ))
    return runs


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


# the dense case's warnings under a radius: stderr first, then stdout
RADIUS_REPORT = "validate-radius2.txt"
RADIUS_ARGV = ["validate", "circuit.rsqasm", "arch.json", "--interaction-radius", "2"]


def _run_with_warnings(argv: list[str]) -> str:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        out = _run(argv)
    return err.getvalue() + out


@pytest.mark.parametrize("case", CASES)
def test_emitted_circuit_is_byte_identical(case, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN / case)
    emitted = tmp_path / "collapsed.rsqasm"
    _run(["normalize", "circuit.rsqasm", "arch.json", "--emit", str(emitted)])
    assert emitted.read_bytes() == (GOLDEN / case / "collapsed.rsqasm").read_bytes()


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("expected, argv", _reports(), ids=[name for name, _ in _reports()])
def test_report_is_byte_identical(case, expected, argv, monkeypatch):
    monkeypatch.chdir(GOLDEN / case)
    assert _run(argv).encode("utf-8") == (GOLDEN / case / expected).read_bytes()


def test_radius_warnings_are_byte_identical(monkeypatch):
    monkeypatch.chdir(GOLDEN / "dense")
    got = _run_with_warnings(RADIUS_ARGV)
    assert got.encode("utf-8") == (GOLDEN / "dense" / RADIUS_REPORT).read_bytes()


def _build_corpus():
    from helpers import arch_document, random_program_with_redundancy
    from na_evalkit import parse_architecture, serialize_program

    rng = random.Random(20260418)
    documents = {
        "dense": arch_document(side=20, cells=rng.sample(range(400), 100)),
        "table1": arch_document(),
    }
    patterns = {"dense": 70, "table1": 50}
    for case in CASES:
        folder = GOLDEN / case
        folder.mkdir(parents=True, exist_ok=True)
        spec = parse_architecture(documents[case])
        program = random_program_with_redundancy(rng, spec, patterns[case])
        (folder / "arch.json").write_text(documents[case] + "\n", encoding="utf-8")
        (folder / "circuit.rsqasm").write_text(serialize_program(program), encoding="utf-8")
        _run(["normalize", str(folder / "circuit.rsqasm"), str(folder / "arch.json"),
              "--emit", str(folder / "collapsed.rsqasm")])
        home = os.getcwd()
        os.chdir(folder)
        try:
            for name, argv in _reports():
                Path(name).write_text(_run(argv), encoding="utf-8")
            if case == "dense":
                Path(RADIUS_REPORT).write_text(_run_with_warnings(RADIUS_ARGV), encoding="utf-8")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    _build_corpus()
