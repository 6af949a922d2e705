"""Each module of the package reads only the public names of its siblings, so a decision held
by a private name (a table, a kernel, a constant) lives in the one module that defines it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "catsense"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(source: str, filename: str) -> list[str]:
    """Each ``from .<mod> import _name`` in the source, and each ``<sibling>._name`` its code
    reads, where a sibling is a name bound by ``from . import <mod>``."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    siblings = {a.asname or a.name for node in imports if node.module is None for a in node.names}
    found = [f"{filename}:{node.lineno} {a.name}"
             for node in imports if node.module for a in node.names if _private(a.name)]
    found += [f"{filename}:{node.lineno} {node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in siblings and _private(node.attr)]
    return found


@pytest.mark.parametrize("source, found", [
    ("from .outputs import csv_chunks, _text_cells\n", ["m.py:1 _text_cells"]),
    ("def f():\n    from . import bounds as b\n    return b._eps_from_variance\n",
     ["m.py:3 b._eps_from_variance"]),
    ("from . import bounds\nbounds.FAMILIES, bounds.__name__\n", []),
    ("import numpy as np\nnp._core, self._x\n", []),  # not siblings
    ("from __future__ import annotations\n", []),
])
def test_the_scan_finds_each_private_read(source, found):
    assert _private_reads(source, "m.py") == found


def test_no_module_reads_a_siblings_private_names():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _private_reads(path.read_text(), path.name)]
    assert found == []
