"""Acceptance gate: every release criterion and extra property of the
suite, at its fixed tolerance and full counts, at seed 0.

The checks run once, in the session's `tropimeas suite --seed 0` run (the
`suite_seed0` fixture); each test reads its check's entry from that report,
prints one PASS/FAIL line for it (straight to the terminal, bypassing
capture) and asserts its `passed` flag.  The two heavy criteria also carry
wall-clock budgets.
"""

import pytest

from tropimeas.suite import CRITERIA, EXTRAS

TIME_BUDGETS = {"oracle_sandwich": 60.0, "pseudometric_axioms": 10.0}


def _gate(label, name, run, capsys):
    result = run.results[name]
    verdict = "PASS" if result["passed"] else "FAIL"
    detail = {k: v for k, v in result.items() if k not in ("passed", "id", "name")}
    with capsys.disabled():
        print(f"\n{label}: {verdict}  {detail}")
    assert result["passed"], f"{label} failed: {detail}"
    budget = TIME_BUDGETS.get(name)
    if budget is not None:
        elapsed = run.timings[name]
        assert elapsed < budget, f"{label} took {elapsed:.1f}s (budget {budget}s)"


@pytest.mark.parametrize("cid,name", [c[:2] for c in CRITERIA],
                         ids=[f"criterion_{c[0]:02d}_{c[1]}" for c in CRITERIA])
def test_criterion(cid, name, suite_seed0, capsys):
    _gate(f"criterion {cid:2d} {name}", name, suite_seed0, capsys)


@pytest.mark.parametrize("name", [e[0] for e in EXTRAS],
                         ids=[f"extra_{e[0]}" for e in EXTRAS])
def test_extra(name, suite_seed0, capsys):
    _gate(f"extra {name}", name, suite_seed0, capsys)
