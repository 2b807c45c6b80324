"""Suite checks shown to fail: each test plants a fault in the API a check
certifies (never in the check itself), runs the check at small counts and
asserts that it fails through the gate key it names."""

import pytest

from tropimeas import suite
from tropimeas.measure import dirac
from tropimeas.suite import SuiteConfig


def plant(monkeypatch, check, config, name, faulty):
    """The check's entry before and after `faulty(original)` replaces the
    suite's binding of `name`."""
    before = check(config)
    monkeypatch.setattr(suite, name, faulty(getattr(suite, name)))
    return before, check(config)


def test_squared_distances_fail_the_triangle_gate(monkeypatch):
    # squaring keeps symmetry and self-distance 0 exact, and breaks only the triangle
    before, after = plant(monkeypatch, suite.crit_pseudometric_axioms,
                          SuiteConfig(seed=3, counts={"axiom_triples": 50}), "hat_d_stack",
                          lambda hat_d_stack: lambda *args: hat_d_stack(*args) ** 2)
    assert before["passed"] and before["max_triangle_violation"] == 0.0
    assert not after["passed"] and after["exact_failures"] == 0
    assert after["max_triangle_violation"] > 0.0


@pytest.mark.parametrize("offset", [2.0 ** -20, -2.0 ** -20])
def test_an_offset_hausdorff_distance_fails_its_specialization(monkeypatch, offset):
    before, after = plant(monkeypatch, suite.extra_hausdorff_specialization,
                          SuiteConfig(seed=3), "hausdorff_support_distance",
                          lambda distance: lambda mu, nu: distance(mu, nu) + offset)
    assert before == {"passed": True, "failures": 0}
    assert not after["passed"] and after["failures"] == 200  # its fixed instance count


def test_a_dirac_lift_of_another_measure_fails_the_monad_unit_law(monkeypatch):
    # every other law of the check leaves dirac_lift alone
    before, after = plant(monkeypatch, suite.crit_functor_monad,
                          SuiteConfig(seed=3, counts={"functor_instances": 20}), "dirac_lift",
                          lambda lift: lambda mu: lift(dirac(mu.space, mu.space.points[0])))
    assert before["passed"] and before["failures"] == 0
    assert not after["passed"] and 0 < after["failures"] <= 20
