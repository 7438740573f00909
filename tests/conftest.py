"""Shared test fixtures and the acceptance-summary reporter."""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Recorder for one PASS/FAIL line per acceptance criterion."""

    def record(criterion: int, passed: bool, detail: str) -> bool:
        verdict = "PASS" if passed else "FAIL"
        _ACCEPTANCE_LINES.append(f"criterion {criterion}: {verdict} - {detail}")
        return passed

    return record


@pytest.fixture
def count_calls(monkeypatch):
    """Counter of the calls of one package function through every matseg module binding.

    count_calls(owner, name, key) wraps owner.name wherever a loaded matseg
    module binds it, and counts each call under key(*args, **kwargs),
    skipping the calls that key maps to None; without a key every call
    counts under name.
    """

    def install(owner, name, key=None):
        counts = Counter()
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            tag = name if key is None else key(*args, **kwargs)
            if tag is not None:
                counts[tag] += 1
            return original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("matseg") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
        return counts

    return install


@pytest.fixture
def full_products(count_calls):
    """full_products() starts counting the full-sample _lag_product calls, by (width, lag)."""
    from matseg import estimators

    def full(x, k, width, t=None, out=None):
        return (width, k) if t is None else None

    return lambda: count_calls(estimators, "_lag_product", full)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
