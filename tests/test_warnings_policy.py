"""The suite's warnings policy is stated once, in pyproject.toml's filterwarnings: every warning
is an error, except the deprecation hypothesis triggers only while it reports a failure."""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_test_is_reported_and_the_session_goes_on(pytester):
    shutil.copy(ROOT / "pyproject.toml", pytester.path)
    pytester.makepyfile(test_probe="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("test_probe.py")
    assert result.ret == 1  # 3 is an INTERNALERROR, which stops the session
    result.assert_outcomes(failed=1, passed=1)


def _error_filters(path: Path) -> list[str]:
    """Each call in `path` that names a warnings filter starting with "error": a
    pytest.mark.filterwarnings mark, or a warnings.simplefilter / warnings.filterwarnings call."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        action = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "action"), None)
        if (name in {"filterwarnings", "simplefilter"} and isinstance(action, ast.Constant)
                and str(action.value).startswith("error")):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_test_restates_the_policy():
    # a mark's or a block's filter outranks the ini entry, so one "error" there would bring
    # back the crash above for its test while repeating what the ini already applies
    found = [hit for path in sorted((ROOT / "tests").glob("*.py")) for hit in _error_filters(path)]
    assert found == []
