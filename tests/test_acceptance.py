"""Acceptance gate: every release criterion and extra property of the
suite, at its fixed tolerance and full counts, at seed 0.

Each test prints one PASS/FAIL line for its check (straight to the
terminal, bypassing capture) and asserts the check's `passed` flag.
The two heavy criteria also carry wall-clock budgets.
"""

import time

import pytest

from tropimeas.suite import CRITERIA, EXTRAS, SuiteConfig

TIME_BUDGETS = {"oracle_sandwich": 60.0, "pseudometric_axioms": 10.0}

_config = SuiteConfig(seed=0)
_results = {}
_timings = {}


def _run(name, fn):
    if name not in _results:
        start = time.perf_counter()
        _results[name] = fn(_config)
        _timings[name] = time.perf_counter() - start
    return _results[name]


def _gate(label, name, fn, capsys):
    result = _run(name, fn)
    verdict = "PASS" if result["passed"] else "FAIL"
    detail = {k: v for k, v in result.items() if k not in ("passed", "id", "name")}
    with capsys.disabled():
        print(f"\n{label}: {verdict}  {detail}")
    assert result["passed"], f"{label} failed: {detail}"
    budget = TIME_BUDGETS.get(name)
    if budget is not None:
        elapsed = _timings[name]
        assert elapsed < budget, f"{label} took {elapsed:.1f}s (budget {budget}s)"


@pytest.mark.parametrize("cid,name,fn", CRITERIA,
                         ids=[f"criterion_{c[0]:02d}_{c[1]}" for c in CRITERIA])
def test_criterion(cid, name, fn, capsys):
    _gate(f"criterion {cid:2d} {name}", name, fn, capsys)


@pytest.mark.parametrize("name,fn", EXTRAS, ids=[f"extra_{e[0]}" for e in EXTRAS])
def test_extra(name, fn, capsys):
    _gate(f"extra {name}", name, fn, capsys)
