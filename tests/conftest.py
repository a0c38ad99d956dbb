"""Shared fixtures: a session-wide solve registry."""

import pytest

from robustflow import solve_dynamic, solve_static

# Extra report lines (e.g. the conjecture probe's observed ratios) that the
# acceptance tests want echoed into the terminal summary.
ACCEPTANCE_EXTRA = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion, in criterion order."""
    rows = {}
    for outcome, word in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            name = getattr(report, "nodeid", "").rsplit("::", 1)[-1]
            if not name.startswith("test_criterion_"):
                continue
            try:
                number = int(name.split("_")[2])
            except (IndexError, ValueError):
                continue
            if word == "FAIL" or number not in rows:
                rows[number] = (word, name)
    if not rows:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(rows):
        word, name = rows[number]
        terminalreporter.write_line(f"criterion {number:02d} {word}  {name}")
    for line in ACCEPTANCE_EXTRA:
        terminalreporter.write_line(line)


class SolveRegistry:
    """Caches solves and remembers every registered instance.

    The acceptance tests route all their solves through this registry so the
    cross-model ordering check at the end can revisit exactly the instances
    the earlier checks touched without re-solving anything twice.
    """

    def __init__(self):
        self.static = {}  # key -> (net, gamma)
        self.dynamic = {}  # key -> instance
        self._static_reports = {}
        self._dynamic_reports = {}

    def solve_static(self, key, net, model, gamma, *, lex=False):
        self.static.setdefault(key, (net, gamma))
        cache_key = (key, model, gamma, lex)
        if cache_key not in self._static_reports:
            self._static_reports[cache_key] = solve_static(
                net, model, gamma, maximize_nominal=lex
            )
        return self._static_reports[cache_key]

    def solve_dynamic(self, key, inst, model, *, lex=False):
        self.dynamic.setdefault(key, inst)
        cache_key = (key, model, lex)
        if cache_key not in self._dynamic_reports:
            self._dynamic_reports[cache_key] = solve_dynamic(
                inst, model, maximize_nominal=lex
            )
        return self._dynamic_reports[cache_key]


@pytest.fixture(scope="session")
def registry():
    return SolveRegistry()
