"""Shared pytest hooks: a per-session kernel cache and acceptance summary lines.

Compiled kernels (`dam._native`) are built into a temporary cache of the
session, so the tests start from a cold cache and write nothing under the
user's home. Tests marked ``@pytest.mark.acceptance("<label>")`` get one
``[acceptance] <label>: PASS|FAIL|SKIP`` line in the terminal summary, so the
acceptance status is readable at a glance even inside a long run. The
`rewrite_model_payload` fixture edits the JSON payload of a model file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from dam import _native

_RANK = {"passed": 0, "skipped": 1, "failed": 2}
_VERDICT = {"passed": "PASS", "skipped": "SKIP", "failed": "FAIL"}
_results: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _kernel_cache(tmp_path_factory):
    """Build the compiled kernels into a cache of the session, not the user's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg_cache")))
        _native.load.cache_clear()
        yield
    _native.load.cache_clear()


@pytest.fixture
def rewrite_model_payload():
    """``rewrite(src, edit, dst=None)``: write to `dst` (default `src`) the
    model file `src` with line 1's payload replaced by ``edit(payload)``;
    line 2, the codebook, is kept as it is."""
    def rewrite(src, edit, dst=None):
        header, codebook = Path(src).read_text().split("\n", 1)
        Path(dst or src).write_text(json.dumps(edit(json.loads(header))) + "\n" + codebook)
    return rewrite


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(label): acceptance criterion reported in the summary"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    marker = item.get_closest_marker("acceptance")
    if marker is not None:
        outcome.get_result().acceptance_label = marker.args[0]


def pytest_runtest_logreport(report):
    label = getattr(report, "acceptance_label", None)
    if label is None:
        return
    reason = ""
    if report.outcome == "skipped" and isinstance(report.longrepr, tuple):
        reason = report.longrepr[2]
        if reason.startswith("Skipped: "):
            reason = reason[len("Skipped: "):]
    previous = _results.get(label)
    if previous is None or _RANK[report.outcome] > _RANK[previous[0]]:
        _results[label] = (report.outcome, reason)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for label in sorted(_results):
        outcome, reason = _results[label]
        suffix = f" ({reason})" if reason else ""
        terminalreporter.write_line(f"[acceptance] {label}: {_VERDICT[outcome]}{suffix}")
