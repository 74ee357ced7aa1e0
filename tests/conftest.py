"""Shared test configuration: acceptance-criterion result reporting.

Each acceptance test records one line through the criterion_recorder
fixture; the lines are printed immediately and re-emitted together in
the terminal summary so the full checklist is visible in one block.
The recorded_pools fixture counts the process pools the sampler builds.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

import ordrobust.wlb as wlb_module

_ACCEPTANCE_LINES = []


def _record(number: int, title: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"{verdict} criterion {number:2d}: {title} [{detail}]"
    _ACCEPTANCE_LINES.append((number, line))
    print(line)


@pytest.fixture
def criterion_recorder():
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture
def recorded_pools(monkeypatch):
    """Every executor wlb builds: real pools that keep their futures."""
    built = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.futures = []
            built.append(self)

        def submit(self, fn, *args):
            fut = super().submit(fn, *args)
            self.futures.append(fut)
            return fut

    monkeypatch.setattr(wlb_module, "ProcessPoolExecutor", RecordingPool)
    return built
