import math

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
    tighten,
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
from tropimeas.geometry import _dyadic, homotopy_H, max_of, random_measure
from tropimeas.measure import IdempotentMeasure, MetaMeasure, _combine, _from_weights, _push
from tropimeas.metric import PointMap, build_space, identity_map
from tropimeas.sampling import (
    _labels,
    random_point_map,
    random_space,
    random_stack,
    random_value_table,
)


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


def test_a_measure_is_unequal_to_other_types(two_point):
    mu = dirac(two_point, "a")
    assert mu.__eq__(5) is NotImplemented
    assert not mu == 5 and mu != 5


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


def test_integrate_value_table_in_point_order(two_point):
    mu = canonicalize(two_point, [("a", 0.0), ("b", -1.0)])
    assert integrate(mu, [2.0, 5.0]) == integrate(mu, {"a": 2.0, "b": 5.0}) == 4.0
    for table in ([2.0], [2.0, 5.0, 1.0]):
        with pytest.raises(MissingValue, match=r"shape \(\d,\), expected .*\(2,\)"):
            integrate(mu, table)


def test_integrate_reads_a_lip_function(rng):
    # a LipFunction integrates as its table; tighten fixes an n-Lipschitz
    # table (the cone -n*d(x, .)), so its integral is unchanged
    for _ in range(20):
        space = random_space(rng, int(rng.integers(2, 6)))
        mu = random_measure(space, rng)
        n = int(rng.integers(1, 4))
        phi = tighten(random_value_table(space, rng), n, space)
        assert integrate(mu, phi) == integrate(mu, list(phi.values))
        x = space.points[int(rng.integers(len(space)))]
        raw = {p: -n * space.d(x, p) for p in space.points}
        assert integrate(mu, tighten(raw, n, space)) == integrate(mu, raw)


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
    # -1e308 + -1e308 overflows: the atom at b must not vanish
    deep = canonicalize(two_point, [("a", 0.0), ("b", -1e308)])
    with pytest.raises(NotNormalized, match="overflows"):
        combine([(0.0, da), (-1e308, deep)])


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
        Y = random_space(rng, int(rng.integers(2, 5)))
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


def test_meta_measure_drops_bottom_atoms(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    M = meta_measure(two_point, [(db, -math.inf), (da, 0.0), (db, "-inf")])
    assert M.ground == (da,) and M.weights == (0.0,)
    assert flatten(M) == da


def test_monad_unit_laws(suite_check):
    suite_check(suite.crit_functor_monad, functor_instances=100)


def test_meta_measure_dedups_by_inner_equality(two_point):
    da = dirac(two_point, "a")
    same = canonicalize(two_point, [("a", 0.0)])
    M = meta_measure(two_point, [(da, 0.0), (same, -1.0)])
    assert len(M.atoms) == 1
    # the distinct measures in first-appearance order, each at its top weight
    db = dirac(two_point, "b")
    M = meta_measure(two_point, [(db, -1.0), (da, 0.0), (dirac(two_point, "b"), -0.5)])
    assert M.ground == (db, da) and M.weights == (-0.5, 0.0)
    assert M.atoms == ((db, -0.5), (da, 0.0))
    assert M == MetaMeasure(two_point, (db, da), (-0.5, 0.0))
    with pytest.raises(MixedSpaces):
        meta_measure(two_point, [(da, 0.0), (dirac(build_space(["a"], [[0]]), "a"), -1.0)])


def test_signed_zeros_give_one_measure(two_point):
    # -0.0 never gets into a weight table or a ground table, so equal
    # measures have equal weight bytes and equal hashes
    pos = canonicalize(two_point, [("a", 0.0), ("b", -1.0)])
    twin_space = build_space(["a", "b"], [[-0.0, 1.0], [1.0, -0.0]])
    neg = canonicalize(twin_space, [("a", -0.0), ("b", -1.0)])
    for twin in (canonicalize(two_point, [("a", -0.0), ("b", -1.0)]), neg,
                 combine([(-0.0, pos)]), homotopy_H(pos, pos, -0.0)):
        assert twin == pos and hash(twin) == hash(pos)
        assert twin.weights.tobytes() == pos.weights.tobytes()
    M, twin = meta_measure(two_point, [(pos, 0.0)]), meta_measure(twin_space, [(neg, -0.0)])
    assert M == twin and hash(M) == hash(twin) and len({M, twin}) == 1


def test_meta_measure_rejects_an_overflowing_shift(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    with pytest.raises(NotNormalized, match="overflows"):
        meta_measure(two_point, [(da, 1e308), (db, -1e308)], normalize=True)
    M = meta_measure(two_point, [(da, 1.0), (db, -1.0)], normalize=True)
    assert M.atoms == ((da, 0.0), (db, -2.0))


def test_in_basic_neighborhood(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    phi = {"a": 0.0, "b": 1.0}
    assert in_basic_neighborhood(da, da, [phi], 0.5)
    assert not in_basic_neighborhood(db, da, [phi], 0.5)
    assert in_basic_neighborhood(db, da, [], 0.5)
    with pytest.raises(ValueError):
        in_basic_neighborhood(da, da, [phi], 0.0)


def test_in_basic_neighborhood_needs_one_space_and_a_positive_epsilon(two_point):
    other = build_space(["a", "b"], [[0.0, 5.0], [5.0, 0.0]])
    with pytest.raises(SpaceMismatch, match="measures live on different spaces"):
        in_basic_neighborhood(dirac(other, "b"), dirac(two_point, "a"),
                              [{"a": 0.0, "b": 5.0}], 0.5)
    da = dirac(two_point, "a")
    for epsilon in (math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            in_basic_neighborhood(da, da, [{"a": 0.0, "b": 1.0}], epsilon)


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


def _row_stack(seed, count=200):
    """A seeded padded stack of spaces of 1-5 points, each with three
    measures mu, nu, tau, a coefficient lam (some -inf, some 0) and point
    images, as rows and as objects."""
    rng = np.random.default_rng(seed)
    ks, D, W = random_stack(rng, count, (1, 6), 3)
    lam = _dyadic(rng, -3.0, 0.0, count)
    points = np.arange(5)
    images = np.where(points < ks[:, None], rng.integers(0, ks[:, None], size=(count, 5)), points)
    lam[::7], lam[3::7] = -np.inf, 0.0
    objects = []
    for b, k in enumerate(ks):
        space = build_space(_labels(k), D[b, :k, :k])
        measures = [_from_weights(space, w[b, :k].copy()) for w in W]
        f = PointMap(space, space, tuple(space.points[i] for i in images[b, :k]))
        objects.append((measures, float(lam[b]), f))
    return ks, W, lam, images, objects


def _rows_equal(rows, ks, measures):
    for row, k, mu in zip(rows, ks, measures):
        assert row[:k].tobytes() == mu.weights.tobytes() and (row[k:] == -np.inf).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_row_forms_equal_the_object_forms(seed):
    ks, (mu, nu, tau), lam, images, objects = _row_stack(seed)
    _rows_equal(_combine([(lam, nu), (0.0, tau)]), ks,
                [combine([(a, n), (0.0, t)]) for (_, n, t), a, _ in objects])
    _rows_equal(_combine([(0.0, mu), (lam, nu)]), ks,
                [homotopy_H(m, n, a) for (m, n, _), a, _ in objects])
    _rows_equal(_combine((0.0, w) for w in (mu, nu, tau)), ks,
                [max_of(ms) for ms, _, _ in objects])
    _rows_equal(_push(mu, images, 5), ks, [pushforward(m, f) for (m, _, _), _, f in objects])

    def grid(x):  # the same rows as a (4, 50) stack: any leading shape
        return x.reshape((4, 50) + x.shape[1:])

    assert np.array_equal(_combine([(grid(lam), grid(nu)), (0.0, grid(tau))]),
                          grid(_combine([(lam, nu), (0.0, tau)])))
    assert np.array_equal(_push(grid(mu), grid(images), 5), grid(_push(mu, images, 5)))


def _first_error(call):
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("kinds", [("overflow",), ("empty",), ("empty", "overflow"),
                                   ("overflow", "empty")])
def test_the_first_bad_row_raises_the_object_forms_error(kinds):
    ks, (mu, nu, tau), lam, images, objects = _row_stack(3, 40)
    rows = np.flatnonzero(ks >= 2)[[9, 20][:len(kinds)]]
    for b, kind in zip(rows, kinds):
        k = ks[b]
        if kind == "overflow":  # -1e308 + -1e308
            nu[b, :k] = -1e308
            nu[b, 0], lam[b] = 0.0, -1e308
        else:  # no atom, and nu dropped
            mu[b], lam[b] = -np.inf, -np.inf
        (m, n, t), _, f = objects[b]
        objects[b] = ([IdempotentMeasure(m.space, w[b, :k].copy()) for w in (mu, nu, tau)],
                      float(lam[b]), f)
    (m, n, _), a, f = objects[rows[0]]

    def grid(x):  # the same rows as a (4, 10) stack
        return x.reshape((4, 10) + x.shape[1:])

    assert _first_error(lambda: _combine([(0.0, mu), (lam, nu)])) \
        == _first_error(lambda: _combine([(0.0, grid(mu)), (grid(lam), grid(nu))])) \
        == _first_error(lambda: homotopy_H(m, n, a)) \
        == ((NotNormalized, "coefficient -1e+308 plus a weight overflows to -inf")
            if kinds[0] == "overflow" else (EmptyMeasure, "no atoms with finite weight"))
    if kinds[0] == "empty":
        assert _first_error(lambda: _push(mu, images, 5)) \
            == _first_error(lambda: pushforward(m, f))


def _measures_of_every_constructor(rng):
    """Measures from each way one is made, on spaces of 5, 50 and 150
    points, with tied weights and points that carry no atom."""
    for k in (5, 50, 150):
        space = random_space(rng, k)
        points = space.points
        w = np.where(rng.random(k) < 0.5, np.round(-3.0 * rng.random(k), 1), -np.inf)
        w[int(rng.integers(k))] = 0.0
        mu = canonicalize(space, [(p, x) for p, x in zip(points, w)])
        nu = random_measure(space, rng)
        f = random_point_map(space, space, rng)
        yield from (mu, nu, dirac(space, points[-1]), uniform_j(space),
                    combine([(0.0, mu), (-0.5, nu)]), pushforward(nu, f),
                    _from_weights(space, w.copy()))


def test_each_measure_stores_its_support_read_only(rng):
    for mu in _measures_of_every_constructor(rng):
        at = np.flatnonzero(mu.weights > -np.inf)
        assert mu.atom_indices.tolist() == at.tolist()
        assert mu.atom_weights.tobytes() == mu.weights[at].tobytes()
        for a in (mu.atom_indices, mu.atom_weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1
        assert mu.atoms == tuple((mu.space.points[i], float(mu.weights[i])) for i in at)
        assert support(mu) == tuple(mu.space.points[i] for i in at)


def test_integrate_reads_the_stored_support_bit_for_bit(rng):
    # the dense-mask reference: phi + weights over the points with an atom
    for mu in _measures_of_every_constructor(rng):
        phi = np.round(rng.uniform(-1e3, 1e3, len(mu.space)), 1)
        mask = mu.weights > -np.inf
        assert integrate(mu, phi).hex() == float((phi[mask] + mu.weights[mask]).max()).hex()
        table = dict(zip(np.array(mu.space.points)[mask].tolist(), phi[mask].tolist()))
        assert integrate(mu, table).hex() == integrate(mu, phi).hex()
