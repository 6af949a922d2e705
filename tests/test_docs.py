"""The Quick taste blocks of README.md and PAPER.md run as written and print what they quote."""

import re
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
