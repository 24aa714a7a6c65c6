"""The package's public names resolve, the CLI loads only what it runs, and
the README's library examples run."""

import gc
import os
import re
import subprocess
import sys
import warnings
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
    assert set(names) <= set(dir(na_evalkit))
    star = {}
    exec("from na_evalkit import *", star)
    assert set(names) <= star.keys()


def test_the_cli_loads_no_module_it_does_not_run():
    # logging serves only a skipped rewrite, csv only csv output, and no
    # command reads flat QASM
    code = (
        "import sys; before = set(sys.modules); import na_evalkit, na_evalkit.__main__; "
        "print(*sorted({'logging', 'csv', 'na_evalkit.ingest'} & (sys.modules.keys() - before)))"
    )
    src = str(Path(na_evalkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "\n")


def test_readme_library_examples_run(tmp_path, monkeypatch):
    # each example starts with its import lines, so a stale name fails here
    monkeypatch.chdir(tmp_path)
    (tmp_path / "arch.json").write_text(arch_document())
    (tmp_path / "circuit.rsqasm").write_text(
        "RSQASM 1.0;\nh q[0];\ncz q[1], q[2];\nmove q[3], q[53];\n"
    )
    namespace = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for example in _library_examples():
            exec(example, namespace)
        total = 0.0
        for duration in namespace["durations"]:
            total += duration
        assert total == namespace["breakdown"].t_total_us
        assert set(namespace["busy"]) == {q.id for q in namespace["spec"].qubits}
        del namespace  # a file the examples left open warns when it is freed
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
