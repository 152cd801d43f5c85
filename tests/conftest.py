"""Terminal summary: one pass/fail line per acceptance criterion.

Criterion tests are named test_criterion_NN_*; their call-phase outcomes
are collected here and printed after the run, so the acceptance status
is readable at a glance even inside a long pytest log.
"""

import re

_CRITERIA = {
    1: "3-section tail-biting example: primal/dual dims, codes, components",
    2: "(8,4) self-dual code from five checks: dims, weight, defect, connectivity",
    3: "5-section tail-biting example: state dims, dual code, product rebuild",
    4: "trim at a block iff the dual is proper there (random blocked codes)",
    5: "every applicable reduction preserves the realized code; B_u steps by 1",
    6: "tree minimizer: trim+proper fixpoint, cut dims both sides, order-free",
    7: "controllable iff dual observable; dim B formula exact iff controllable",
    8: "the dual realization realizes the dual code (oracle-checked, with GF(3))",
    9: "generator builds controllable, check builds observable; converses by rank",
    10: "reduced tail-biting products: disconnected iff uncontrollable iff degenerate span",
    11: "kernel behavior equals brute-force behavior on every enumerable instance",
    12: "off tail-biting trellises: reduced, uncontrollable, trajectory graph connected",
    13: "defect = redundant checks; unobservable dim = redundant generators (sympy rank)",
}

_PATTERN = re.compile(r"test_criterion_(\d+)")
_results: dict[int, bool] = {}


def pytest_runtest_logreport(report):
    m = _PATTERN.search(report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    if report.when == "call":
        _results[n] = _results.get(n, True) and report.passed
    elif report.when == "setup" and (report.failed or report.skipped):
        _results[n] = False


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for n in sorted(_CRITERIA):
        if n in _results:
            status = "PASS" if _results[n] else "FAIL"
        else:
            status = "NOT RUN"
        terminalreporter.write_line(f"ACCEPTANCE {n:>2} {status:7s} {_CRITERIA[n]}")
