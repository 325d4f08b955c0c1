"""Source hygiene: every module-level import of the package is used."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "homwave"


def unused_imports(path: Path) -> list:
    """(line, name) of each module-level import binding never read.

    A binding counts as read when its name appears as an identifier anywhere
    in the module, including annotations and attribute bases (``np.fft``).
    ``from __future__`` imports bind nothing and are skipped.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_checker_flags_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import math\nimport numpy as np\n"
                     "from os import path, sep\n\n"
                     "def f(x: np.ndarray):\n    return path.join(x)\n")
    assert unused_imports(probe) == [(2, "math"), (4, "sep")]
