"""na-evalkit depends on nothing outside the Python standard library, and
runs on the oldest Python it declares.

Every absolute import in ``src/na_evalkit/*.py`` must name a standard-library
module or ``na_evalkit`` itself; relative imports stay inside the package.
Each module is parsed with the grammar of ``OLDEST``, so syntax newer than
``requires-python`` in ``pyproject.toml`` fails here, whichever Python runs.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "na_evalkit"
MODULES = sorted(PACKAGE.glob("*.py"))
OLDEST = (3, 10)  # requires-python = ">=3.10"


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_every_module_is_checked():
    assert len(MODULES) >= 10 and PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    outside = [
        name for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"na_evalkit"}
    ]
    assert outside == []
