import numpy as np
import pytest

from tropimeas import (
    BOTTOM,
    canonicalize,
    combine,
    dirac,
    flatten,
    in_basic_neighborhood,
    integrate,
    meta_measure,
    pushforward,
    support,
    uniform_j,
)
from tropimeas import suite
from tropimeas.errors import (
    EmptyMeasure,
    MissingValue,
    MixedSpaces,
    NotNormalized,
    SpaceMismatch,
    UnknownPoint,
)
from tropimeas.geometry import random_measure
from tropimeas.metric import PointMap, identity_map
from tropimeas.sampling import random_point_map, random_space, random_value_table


def test_canonicalize_merges_by_max(two_point):
    mu = canonicalize(two_point, [("a", 0.0), ("a", -1.0), ("b", -2.0)])
    assert mu.atoms == (("a", 0.0), ("b", -2.0))


def test_canonicalize_normalize_shifts(two_point):
    mu = canonicalize(two_point, [("a", -1.0), ("b", -2.0)], normalize=True)
    assert mu.atoms == (("a", 0.0), ("b", -1.0))


def test_canonicalize_strict_rejects_unnormalized(two_point):
    with pytest.raises(NotNormalized):
        canonicalize(two_point, [("a", -1.0)])


def test_canonicalize_rejects_an_overflowing_shift(two_point):
    # 1e308 shifted to 0 takes -1e308 to -inf: that atom must not vanish
    with pytest.raises(NotNormalized, match="overflows"):
        canonicalize(two_point, [("a", 1e308), ("b", -1e308)], normalize=True)
    mu = canonicalize(two_point, [("a", 1e308), ("b", -1e307)], normalize=True)
    assert mu.atoms == (("a", 0.0), ("b", -1e307 - 1e308))


def test_canonicalize_drops_bottoms_and_rejects_empty(two_point):
    mu = canonicalize(two_point, [("a", 0.0), ("b", BOTTOM)])
    assert mu.atoms == (("a", 0.0),)
    with pytest.raises(EmptyMeasure):
        canonicalize(two_point, [("a", BOTTOM)])


def test_dirac(two_point):
    mu = dirac(two_point, "a")
    assert mu.atoms == (("a", 0.0),)
    assert integrate(mu, {"a": 3.25, "b": 9.0}) == 3.25
    assert support(mu) == ("a",)
    with pytest.raises(UnknownPoint):
        dirac(two_point, "z")


def test_uniform_j(two_point):
    j = uniform_j(two_point)
    assert support(j) == ("a", "b")
    assert integrate(j, {"a": 2.0, "b": 5.0}) == 5.0
    from tropimeas import build_space

    s1 = build_space(["x"], [[0.0]])
    assert uniform_j(s1) == dirac(s1, "x")


def test_integrate_example(two_point):
    mu = canonicalize(two_point, [("a", 0.0), ("b", -1.0)])
    assert integrate(mu, {"a": 2.0, "b": 5.0}) == 4.0


def test_integrate_requires_all_support_values(two_point):
    mu = dirac(two_point, "b")
    with pytest.raises(MissingValue):
        integrate(mu, {"a": 1.0})


def test_integrate_definition_laws(rng):
    # constants, weak additivity, max-linearity
    for _ in range(100):
        space = random_space(rng, int(rng.integers(2, 6)))
        mu = random_measure(space, rng)
        phi = random_value_table(space, rng)
        psi = random_value_table(space, rng)
        c = float(rng.integers(-512, 513)) / 256.0
        assert integrate(mu, {p: c for p in space.points}) == c
        assert integrate(mu, {p: c + phi[p] for p in space.points}) \
            == c + integrate(mu, phi)
        assert integrate(mu, {p: max(phi[p], psi[p]) for p in space.points}) \
            == max(integrate(mu, phi), integrate(mu, psi))


def test_combine_examples(two_point):
    mu = canonicalize(two_point, [("a", 0.0), ("b", -1.0)])
    assert combine([(0.0, mu)]) == mu
    assert combine([(0.0, mu), (0.0, mu)]) == mu
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    assert combine([(0.0, da), (-1.0, db)]).atoms == (("a", 0.0), ("b", -1.0))


def test_combine_rejects_bad_coefficients(two_point, line3):
    da = dirac(two_point, "a")
    with pytest.raises(NotNormalized):
        combine([(-1.0, da)])
    with pytest.raises(MixedSpaces):
        combine([(0.0, da), (0.0, dirac(line3, "a"))])
    with pytest.raises(EmptyMeasure):
        combine([(BOTTOM, da)])


def test_combine_is_integral_max(rng):
    for _ in range(50):
        space = random_space(rng, int(rng.integers(2, 5)))
        mus = [random_measure(space, rng) for _ in range(3)]
        alphas = rng.integers(-512, 1, size=3) / 256.0
        alphas = alphas - alphas.max()
        out = combine(zip(alphas, mus))
        phi = random_value_table(space, rng)
        assert integrate(out, phi) == max(
            a + integrate(m, phi) for a, m in zip(alphas, mus))


def test_pushforward_examples(two_point):
    mu = canonicalize(two_point, [("a", 0.0), ("b", -1.0)])
    assert pushforward(mu, identity_map(two_point)) == mu
    collapse = PointMap(two_point, two_point, ("a", "a"))
    assert pushforward(mu, collapse) == dirac(two_point, "a")


def test_pushforward_integral_formula(rng):
    for _ in range(50):
        X = random_space(rng, int(rng.integers(2, 5)))
        Y = random_space(rng, int(rng.integers(2, 5)), prefix="y_")
        f = random_point_map(X, Y, rng)
        mu = random_measure(X, rng)
        phi = random_value_table(Y, rng)
        assert integrate(pushforward(mu, f), phi) \
            == integrate(mu, {p: phi[f(p)] for p in X.points})


def test_pushforward_functoriality(suite_check):
    suite_check(suite.crit_functor_monad, functor_instances=50)


def test_pushforward_space_mismatch(two_point, line3):
    with pytest.raises(SpaceMismatch):
        pushforward(dirac(line3, "a"), identity_map(two_point))


def test_flatten_examples(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    assert flatten(meta_measure(two_point, [(da, 0.0)])) == da
    M = meta_measure(two_point, [(da, 0.0), (db, -2.0)])
    assert flatten(M).atoms == (("a", 0.0), ("b", -2.0))


def test_monad_unit_laws(suite_check):
    suite_check(suite.crit_functor_monad, functor_instances=100)


def test_meta_measure_dedups_by_inner_equality(two_point):
    da = dirac(two_point, "a")
    same = canonicalize(two_point, [("a", 0.0)])
    M = meta_measure(two_point, [(da, 0.0), (same, -1.0)])
    assert len(M.atoms) == 1


def test_in_basic_neighborhood(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    phi = {"a": 0.0, "b": 1.0}
    assert in_basic_neighborhood(da, da, [phi], 0.5)
    assert not in_basic_neighborhood(db, da, [phi], 0.5)
    assert in_basic_neighborhood(db, da, [], 0.5)
    with pytest.raises(ValueError):
        in_basic_neighborhood(da, da, [phi], 0.0)


def test_canonical_stability(rng):
    # constructors always emit canonical measures
    for _ in range(100):
        space = random_space(rng, int(rng.integers(2, 5)))
        mu = random_measure(space, rng)
        nu = random_measure(space, rng)
        for out in (combine([(0.0, mu), (-0.5, nu)]),
                    pushforward(mu, random_point_map(space, space, rng)),
                    flatten(meta_measure(space, [(mu, 0.0), (nu, -1.0)]))):
            weights = [w for _, w in out.atoms]
            assert max(weights) == 0.0
            assert len({p for p, _ in out.atoms}) == len(out.atoms)
            assert all(w > -np.inf for w in weights)
