"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line for its criterion (straight to the
terminal, bypassing capture) and asserts the criterion's `passed` flag.
The two heavy checks also carry wall-clock budgets.
"""

import time

import pytest

from tropimeas.suite import CRITERIA, SuiteConfig, default_seed

TIME_BUDGETS = {"oracle_sandwich": 60.0, "pseudometric_axioms": 10.0}

_config = SuiteConfig(seed=default_seed())
_results = {}
_timings = {}


def _run(name, fn):
    if name not in _results:
        start = time.perf_counter()
        _results[name] = fn(_config)
        _timings[name] = time.perf_counter() - start
    return _results[name]


@pytest.mark.parametrize("cid,name,fn", CRITERIA,
                         ids=[f"criterion_{c[0]:02d}_{c[1]}" for c in CRITERIA])
def test_criterion(cid, name, fn, capsys):
    result = _run(name, fn)
    verdict = "PASS" if result["passed"] else "FAIL"
    detail = {k: v for k, v in result.items() if k not in ("passed", "id", "name")}
    with capsys.disabled():
        print(f"\ncriterion {cid:2d} {name}: {verdict}  {detail}")
    assert result["passed"], f"criterion {cid} ({name}) failed: {detail}"
    budget = TIME_BUDGETS.get(name)
    if budget is not None:
        elapsed = _timings[name]
        assert elapsed < budget, \
            f"criterion {cid} ({name}) took {elapsed:.1f}s (budget {budget}s)"
