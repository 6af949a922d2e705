import pytest
from hypothesis import HealthCheck, settings

# numpy-heavy examples occasionally blow hypothesis' default 200ms deadline
# on a cold cache; wall time is budgeted for the suite, not per example
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# pytester runs a scratch session under the repo's pyproject.toml (test_warnings_policy.py)
pytest_plugins = ["pytester"]


@pytest.fixture
def report(capsys):
    """Emit one visible [PASS]/[FAIL] line per named check, then enforce it."""

    def _report(name: str, ok: bool, detail: str = "") -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" | {detail}" if detail else "")
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report
