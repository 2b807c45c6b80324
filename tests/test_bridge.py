import math

import numpy as np
import pytest

from tropimeas import (
    DeltaPoint,
    GammaPoint,
    canonicalize,
    delta_to_gamma,
    dirac,
    gamma_to_delta,
    measure_to_gamma,
)
from tropimeas import suite
from tropimeas.errors import NotInSimplex
from tropimeas.geometry import random_measure
from tropimeas.metric import build_space
from tropimeas.sampling import random_space


def space_n(n):
    # unit-equilateral n-point space
    D = np.ones((n, n)) - np.eye(n)
    return build_space([f"x{i}" for i in range(n)], D)


def test_measure_to_gamma_examples():
    s3 = space_n(3)
    assert measure_to_gamma(dirac(s3, "x0")).z == (1.0, 0.0, 0.0)
    mu = canonicalize(s3, [(p, 0.0) for p in s3.points])
    assert measure_to_gamma(mu).z == (1.0, 1.0, 1.0)
    s2 = space_n(2)
    mu = canonicalize(s2, [("x0", 0.0), ("x1", -math.log(2))])
    assert measure_to_gamma(mu).z == (1.0, 0.5)


def test_gamma_to_delta_examples():
    assert gamma_to_delta(GammaPoint((1.0, 1.0, 1.0))).p \
        == (1 / 3, 1 / 3, 1 / 3)
    assert gamma_to_delta(GammaPoint((1.0, 0.0, 0.0))).p == (1.0, 0.0, 0.0)
    assert gamma_to_delta(GammaPoint((1.0, 0.5))).p == (0.75, 0.25)
    assert gamma_to_delta(GammaPoint((1.0, 1.0, 0.0))).p == (0.5, 0.5, 0.0)


def test_delta_to_gamma_examples():
    assert delta_to_gamma(DeltaPoint((0.25,) * 4)).z == (1.0,) * 4
    assert delta_to_gamma(DeltaPoint((1.0, 0.0, 0.0))).z == (1.0, 0.0, 0.0)
    assert delta_to_gamma(DeltaPoint((0.75, 0.25))).z == (1.0, 0.5)


def test_invalid_points_rejected():
    with pytest.raises(NotInSimplex):
        GammaPoint((0.5, 0.5))  # max must be 1
    with pytest.raises(NotInSimplex):
        GammaPoint((1.0, -0.1))
    with pytest.raises(NotInSimplex):
        DeltaPoint((0.5, 0.6))
    with pytest.raises(NotInSimplex):
        DeltaPoint((1.5, -0.5))


def test_round_trip(suite_check):
    suite_check(suite.crit_bridge, bridge_grid=500)


def test_boundary_index_sets_preserved(suite_check):
    suite_check(suite.crit_bridge, bridge_grid=200)


def test_composition_injective_on_measures(rng):
    space = random_space(rng, 4)
    seen = {}
    for _ in range(100):
        mu = random_measure(space, rng)
        p = gamma_to_delta(measure_to_gamma(mu)).p
        if p in seen:
            assert seen[p] == mu
        seen[p] = mu
    distinct = {mu for mu in seen.values()}
    assert len(seen) == len(distinct)
