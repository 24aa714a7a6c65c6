"""The package's public names resolve, and the README's library examples run."""

import re
from pathlib import Path

import na_evalkit
from helpers import arch_document

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_examples() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_every_exported_name_resolves_once():
    names = na_evalkit.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(na_evalkit, name)] == []


def test_readme_library_examples_run(tmp_path, monkeypatch):
    # each example starts with its import lines, so a stale name fails here
    monkeypatch.chdir(tmp_path)
    (tmp_path / "arch.json").write_text(arch_document())
    (tmp_path / "circuit.rsqasm").write_text(
        "RSQASM 1.0;\nh q[0];\ncz q[1], q[2];\nmove q[3], q[53];\n"
    )
    namespace = {}
    for example in _library_examples():
        exec(example, namespace)
    total = 0.0
    for duration in namespace["durations"]:
        total += duration
    assert total == namespace["breakdown"].t_total_us
    assert set(namespace["busy"]) == {q.id for q in namespace["spec"].qubits}
