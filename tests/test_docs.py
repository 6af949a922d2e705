"""README.md and PAPER.md: the Quick taste blocks run as written and print what they quote, and
the install blocks install what the tests import."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _quick_taste(doc: str) -> list[str]:
    text = (ROOT / doc).read_text()
    block = re.search(r"^Quick taste:\n\n```python\n(.*?)^```$", text, re.M | re.S)
    return block.group(1).splitlines()


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_quick_taste_prints_the_quoted_digits(doc):
    namespace, quoted = {}, 0
    for line in _quick_taste(doc):
        code, _, comment = line.partition("#")
        digits = re.match(r"\s*(\d[\d.]*\d)", comment)  # "# 0.14142135623..." quotes 0.14142135623
        if digits:
            assert repr(eval(code, namespace)).startswith(digits.group(1)), line
            quoted += 1
        else:
            exec(line, namespace)
    assert quoted  # the block quotes at least one value


def _requirement_names(key: str) -> set[str]:
    """The distribution names in one `key = [...]` list of pyproject.toml."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    items = re.search(rf"^{key} = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    return {re.match(r"[\w-]+", item).group() for item in re.findall(r'"([^"]+)"', items)}


def _test_only_imports() -> set[str]:
    """Top-level modules that tests/ imports at module level, beyond the stdlib, catsense,
    the test files themselves and the runtime dependencies."""
    local = {path.stem for path in (ROOT / "tests").glob("*.py")} | {"catsense"}
    names = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - local - _requirement_names("dependencies")


def test_the_test_extra_lists_every_test_import():
    needed = _test_only_imports()
    assert {"pytest", "hypothesis", "mpmath"} <= needed
    assert needed <= _requirement_names("test")


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_install_block_installs_what_the_tests_import(doc):
    text = (ROOT / doc).read_text()
    block = re.search(r"^## Install and test\n\n```\n(.*?)^```$", text, re.M | re.S).group(1)
    commands = "\n".join(line.partition("#")[0] for line in block.splitlines())
    if not re.search(r"pip install .*\.\[test\]", commands):
        for module in _test_only_imports():
            assert re.search(rf"pip install .*\b{module}\b", commands), f"{doc} lacks {module}"


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_module_table_names_every_module(doc):
    rows = re.findall(r"^\| `catsense\.(\w+)` \|", (ROOT / doc).read_text(), re.M)
    modules = {path.stem for path in (ROOT / "src" / "catsense").glob("*.py")} - {"__init__"}
    assert sorted(rows) == sorted(modules)
