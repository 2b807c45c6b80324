"""Suite checks shown to fail: each test plants a fault in the API a check
certifies (never in the check itself), runs the check at small counts and
asserts that it fails through the gate key it names."""

import dataclasses
import math

import numpy as np
import pytest

from tropimeas import suite
from tropimeas.measure import dirac
from tropimeas.metric import LipFunction
from tropimeas.pseudometric import _one_sided
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


@pytest.mark.parametrize("offset, gate", [(0.5, "max_exact_minus_oracle"),
                                          (-2.0 ** -20, "max_oracle_minus_exact")],
                         ids=["above", "below"])
def test_an_offset_closed_form_leaves_the_oracle_sandwich(monkeypatch, offset, gate):
    def faulty(hat_d):
        def offset_hat_d(n, mu, nu):
            report = hat_d(n, mu, nu)
            return dataclasses.replace(report, value=report.value + offset)
        return offset_hat_d
    before, after = plant(monkeypatch, suite.crit_oracle_sandwich,
                          SuiteConfig(seed=3, counts={"oracle_spaces": 2, "oracle_pairs": 2}),
                          "hat_d", faulty)
    assert before["passed"] and before[gate] == 0.0
    assert not after["passed"] and after[gate] > 0.0 and after["checks"] == 12


def test_a_nan_oracle_fails_the_oracle_sandwich(monkeypatch):
    # a NaN is read as NaN, not as 0.0, so both sides of the sandwich fail
    before, after = plant(monkeypatch, suite.crit_oracle_sandwich,
                          SuiteConfig(seed=3, counts={"oracle_spaces": 2, "oracle_pairs": 2}),
                          "oracle_sup", lambda oracle_sup: lambda *args: math.nan)
    assert before["passed"]
    assert not after["passed"] and after["checks"] == 12
    assert math.isnan(after["max_exact_minus_oracle"])
    assert math.isnan(after["max_oracle_minus_exact"])


def test_scaled_distances_fail_the_dirac_isometry(monkeypatch):
    before, after = plant(monkeypatch, suite.crit_delta_isometry,
                          SuiteConfig(seed=3, counts={"isometry_spaces": 5}), "hat_d_stack",
                          lambda hat_d_stack: lambda *args: hat_d_stack(*args) * (1 + 2.0 ** -20))
    assert before["passed"] and before["failures"] == 0
    assert not after["passed"] and after["failures"] == after["checks"] > 0


def test_a_pushforward_that_halves_weights_expands_a_distance(monkeypatch):
    before, after = plant(monkeypatch, suite.crit_nonexpansion,
                          SuiteConfig(seed=3, counts={"push_instances": 50, "zeta_instances": 5}),
                          "_push", lambda push: lambda *args: push(*args) * 0.5)
    assert before["passed"] and before["max_push_violation"] == 0.0
    assert not after["passed"] and after["max_push_violation"] > 0.0
    assert after["max_zeta_violation"] == before["max_zeta_violation"]


def test_a_flatten_that_keeps_one_ground_measure_fails_the_zeta_gate(monkeypatch):
    before, after = plant(monkeypatch, suite.crit_nonexpansion,
                          SuiteConfig(seed=3, counts={"push_instances": 5, "zeta_instances": 20}),
                          "flatten", lambda flatten: lambda M: M.ground[0])
    assert before["passed"] and before["max_zeta_violation"] == 0.0
    assert not after["passed"] and after["max_zeta_violation"] > 1e-12


def smaller_side(hat_d_stack):
    """hat_d_stack with the smaller of the two one-sided suprema in place
    of the larger."""
    def faulty(n, D, wmu, wnu):
        n = np.asarray(n, dtype=float)[..., None, None]
        with np.errstate(invalid="ignore"):
            gap = wmu[..., :, None] - wnu[..., None, :]
        left, right = _one_sided(D, gap, n)
        return np.fmin(np.fmax.reduce(left, axis=-1), np.fmax.reduce(right, axis=-1))
    return faulty


def test_the_smaller_one_sided_supremum_fails_ball_convexity(monkeypatch):
    before, after = plant(monkeypatch, suite.crit_ball_convexity,
                          SuiteConfig(seed=3, counts={"ball_instances": 50}), "hat_d_stack",
                          smaller_side)
    assert before == {"passed": True, "max_violation": 0.0}
    assert not after["passed"] and after["max_violation"] > 0.0


def test_scaled_combinations_fail_the_homotopy_endpoints_and_bounds(monkeypatch):
    before, after = plant(monkeypatch, suite.crit_homotopy_bounds,
                          SuiteConfig(seed=3, counts={"homotopy_instances": 20}), "_combine",
                          lambda combine: lambda pairs: combine(pairs) * (1 + 2.0 ** -20))
    assert before["passed"] and before["endpoint_failures"] == 0
    assert not after["passed"] and after["endpoint_failures"] > 0
    assert after["max_mu_violation"] > 0.0 and after["max_lambda_violation"] > 0.0


def test_a_separates_that_finds_no_level_fails_separation(monkeypatch):
    before, after = plant(monkeypatch, suite.crit_separation,
                          SuiteConfig(seed=3, counts={"separation_pairs": 10}), "separates",
                          lambda separates: lambda mu, nu, n_max: None)
    assert before == {"passed": True, "pairs": 10, "unseparated": 0}
    assert after == {"passed": False, "pairs": 10, "unseparated": 10}


def test_an_inverse_bridge_off_by_a_relative_2_to_the_minus_20_fails_the_round_trip(
        monkeypatch):
    before, after = plant(monkeypatch, suite.crit_bridge,
                          SuiteConfig(seed=3, counts={"bridge_grid": 50}), "delta_to_gamma_rows",
                          lambda inverse: lambda P: np.minimum(inverse(P) * (1 + 2.0 ** -20), 1.0))
    assert before["passed"] and before["max_roundtrip_error"] <= 1e-9
    assert not after["passed"] and after["max_roundtrip_error"] > 1e-9


def test_a_scaled_aggregate_metric_fails_only_its_dirac_value(monkeypatch):
    # symmetric, so only the Dirac pair's value decides the verdict
    before, after = plant(monkeypatch, suite.crit_aggregate_metric,
                          SuiteConfig(seed=3, counts={"aggregate_pairs": 10}), "aggregate_d",
                          lambda aggregate: lambda *args: aggregate(*args) * (1 + 2.0 ** -20))
    assert before["passed"] and before["asymmetric_pairs"] == 0
    assert abs(before["dirac_value"] - 1.0) <= 1e-9
    assert after == {"passed": False, "dirac_value": before["dirac_value"] * (1 + 2.0 ** -20),
                     "asymmetric_pairs": 0}


def test_an_asymmetric_aggregate_metric_fails_its_symmetry(monkeypatch):
    # zero on the Dirac pair's one-atom measures, so only the symmetry gate moves
    before, after = plant(monkeypatch, suite.crit_aggregate_metric,
                          SuiteConfig(seed=3, counts={"aggregate_pairs": 10}), "aggregate_d",
                          lambda aggregate: lambda mu, nu, tol:
                          aggregate(mu, nu, tol) + (len(mu.atoms) - 1) * 2.0 ** -20)
    assert before["passed"] and before["asymmetric_pairs"] == 0
    assert not after["passed"] and after["dirac_value"] == before["dirac_value"]
    assert 0 < after["asymmetric_pairs"] <= 10


def test_an_oplus_that_returns_its_first_argument_fails_the_semiring_axioms(monkeypatch):
    # oplus as min would not do: min-plus is an idempotent semiring too
    before, after = plant(monkeypatch, suite.extra_tropical_axioms, SuiteConfig(seed=3),
                          "oplus", lambda oplus: lambda a, b: a)
    assert before["passed"] and before["failures"] == 0
    assert not after["passed"] and after["failures"] > 0


def test_a_tighten_shifted_up_fails_the_projection_laws(monkeypatch):
    def faulty(tighten):
        def shifted(raw, n, space):
            return LipFunction(space, tuple(v + 1.0 for v in tighten(raw, n, space).values), n)
        return shifted
    before, after = plant(monkeypatch, suite.extra_tighten_retraction, SuiteConfig(seed=3),
                          "tighten", faulty)
    assert before == {"passed": True, "failures": 0}
    # each instance fails idempotence and lies above its raw table somewhere
    assert after == {"passed": False, "failures": 400}


def test_an_offset_meta_distance_leaves_the_meta_oracle_sandwich(monkeypatch):
    before, after = plant(monkeypatch, suite.extra_meta_oracle, SuiteConfig(seed=3),
                          "hat_d_meta", lambda hat_d_meta: lambda *args: hat_d_meta(*args) + 0.5)
    assert before["passed"] and before["max_exact_minus_oracle"] <= 0.04
    assert not after["passed"] and after["max_exact_minus_oracle"] > 0.04


def test_a_combine_that_drops_its_coefficients_fails_the_hull_closure(monkeypatch):
    before, after = plant(monkeypatch, suite.extra_f_set_closure, SuiteConfig(seed=3),
                          "combine", lambda combine: lambda pairs:
                          combine([(0.0, mu) for _, mu in pairs]))
    assert before == {"passed": True, "failures": 0}
    assert not after["passed"] and after["failures"] > 0


def test_an_integral_that_reads_only_the_first_atom_fails_support_minimality(monkeypatch):
    before, after = plant(monkeypatch, suite.extra_support_minimality, SuiteConfig(seed=3),
                          "integrate", lambda integrate: lambda mu, phi:
                          mu.atoms[0][1] + phi[mu.atoms[0][0]])
    assert before == {"passed": True, "failures": 0}
    assert not after["passed"] and after["failures"] > 0
