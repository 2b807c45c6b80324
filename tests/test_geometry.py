import itertools

import numpy as np
import pytest

from tropimeas import (
    BOTTOM,
    canonicalize,
    dap_demo,
    dirac,
    discretize_g1,
    f_set_element,
    hat_d,
    homotopy_H,
    max_of,
    saturate_g2,
    support,
    uniform_j,
)
from tropimeas import suite
from tropimeas.errors import LambdaPositive, NetIsWholeSpace, NotNormalized
from tropimeas.geometry import CStructureQuery, DapReport, random_measure
from tropimeas.measure import integrate, pushforward
from tropimeas.metric import covering_radius, nearest_net_retraction
from tropimeas.pseudometric import oracle_sup
from tropimeas.sampling import random_space, random_value_table


def test_f_set_element_single_generator(two_point):
    da = dirac(two_point, "a")
    assert f_set_element(CStructureQuery((da,), (0.0,))) == da


def test_f_set_element_uniform(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    out = f_set_element(CStructureQuery((da, db), (0.0, 0.0)))
    assert out == uniform_j(two_point)


def test_f_set_monotone_under_padding(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    small = f_set_element(CStructureQuery((da,), (0.0,)))
    padded = f_set_element(CStructureQuery((da, db), (0.0, BOTTOM)))
    assert small == padded


def test_cstructure_rejects_unnormalized(two_point):
    da = dirac(two_point, "a")
    with pytest.raises(NotNormalized):
        CStructureQuery((da,), (-1.0,))


def test_cstructure_wants_one_coefficient_per_generator(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    for generators, coefficients in (((da, db), (0.0,)), ((da,), (0.0, 0.0))):
        with pytest.raises(ValueError, match="one coefficient per generator required"):
            CStructureQuery(generators, coefficients)


def test_homotopy_endpoints(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    assert homotopy_H(da, db, BOTTOM) == da
    assert homotopy_H(da, db, -1.0).atoms == (("a", 0.0), ("b", -1.0))
    top = max_of([da, db])
    assert homotopy_H(da, top, 0.0) == top
    with pytest.raises(LambdaPositive):
        homotopy_H(da, db, 0.5)


def test_max_of_dominates(rng):
    for _ in range(50):
        space = random_space(rng, int(rng.integers(2, 5)))
        family = [random_measure(space, rng) for _ in range(int(rng.integers(1, 5)))]
        top = max_of(family)
        phi = random_value_table(space, rng)
        for mu in family:
            assert integrate(top, phi) >= integrate(mu, phi)
    assert max_of([family[0]]) == family[0]


def test_max_of_is_in_hull(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    gens = (da, db)
    assert f_set_element(CStructureQuery(gens, (0.0, 0.0))) == max_of(gens)


def test_saturate_examples(two_point):
    j = uniform_j(two_point)
    assert saturate_g2(j, -2.0) == j
    assert saturate_g2(dirac(two_point, "a"), -3.0).atoms \
        == (("a", 0.0), ("b", -3.0))
    with pytest.raises(LambdaPositive):
        saturate_g2(j, 1.0)
    with pytest.raises(LambdaPositive):
        saturate_g2(j, BOTTOM)


def test_saturate_displacement_zero_when_lambda_deep(two_point):
    # lam + n*diam < 0 makes the saturation invisible to the dual distance
    da = dirac(two_point, "a")
    g2 = saturate_g2(da, -3.0)
    assert hat_d(1, g2, da).value == 0.0
    assert oracle_sup(1, g2, da, 0.01) <= 0.02


def test_saturate_displacement_bound(suite_check):
    suite_check(suite.extra_saturation_displacement)


def test_discretize_examples(line3):
    mu = canonicalize(line3, [("a", 0.0), ("c", -1.0)])
    assert discretize_g1(mu, line3.points) == mu
    assert discretize_g1(mu, ["a"]) == dirac(line3, "a")


def test_discretize_displacement_bound(rng):
    for _ in range(30):
        space = random_space(rng, int(rng.integers(2, 6)))
        mu = random_measure(space, rng)
        k = int(rng.integers(1, len(space) + 1))
        net = [space.points[i] for i in rng.choice(len(space), size=k, replace=False)]
        n = int(rng.integers(1, 4))
        g1 = discretize_g1(mu, net)
        assert set(support(g1)) <= set(net)
        assert hat_d(n, g1, mu).value <= n * covering_radius(space, net) + 1e-12


def test_dap_demo(suite_check):
    suite_check(suite.crit_dap_demo, dap_samples=50)


def _dap_reference(space, net, lam, samples, n, rng):
    """dap_demo's report built from the public objects, sample by sample."""
    r = nearest_net_retraction(space, net)
    disjoint, disp1, disp2 = True, 0.0, 0.0
    for _ in range(samples):
        mu = random_measure(space, rng)
        g1 = pushforward(mu, r)
        g2 = saturate_g2(mu, lam)
        disjoint = disjoint and set(support(g1)) <= set(net) and support(g2) == space.points
        disp1 = max(disp1, hat_d(n, g1, mu).value)
        disp2 = max(disp2, hat_d(n, g2, mu).value)
    return DapReport(disjoint, n * covering_radius(space, net),
                     max(0.0, lam + n * space.diameter), disp1, disp2)


def test_dap_demo_matches_reference():
    for seed in range(3):
        draw = np.random.default_rng(seed)
        for k in range(2, 9):
            space = random_space(draw, k)
            size = int(draw.integers(1, k))
            net = [space.points[i] for i in draw.choice(k, size=size, replace=False)]
            for lam, n, samples in itertools.product((-0.5, -3.0), (1, 3), (0, 1, 50)):
                rng = np.random.default_rng([seed, k])
                ref_rng = np.random.default_rng([seed, k])
                got = dap_demo(space, net, lam, samples, n, rng)
                assert type(got.disjoint) is bool
                assert got == _dap_reference(space, net, lam, samples, n, ref_rng)
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_dap_demo_rejects_full_net(two_point, rng):
    with pytest.raises(NetIsWholeSpace):
        dap_demo(two_point, ["a", "b"], -1.0, 5, 1, rng)


def test_homotopy_lipschitz_bounds(suite_check):
    suite_check(suite.crit_homotopy_bounds, homotopy_instances=50)


def test_f_set_closure_under_combine(suite_check):
    suite_check(suite.extra_f_set_closure)
