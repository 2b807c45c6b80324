import hashlib
import math
import re

import numpy as np
import pytest

from tropimeas import build_space
from tropimeas.errors import EmptyMeasure, NonzeroDiagonal, NotNormalized
from tropimeas.geometry import random_measure
from tropimeas.measure import _from_weights
from tropimeas.metric import PointMap, _nonexpanding
from tropimeas.sampling import (
    _close_stack,
    _closure,
    _distinct_pairs,
    _labels,
    _nonexpanding_maps,
    _random_nets,
    random_point_map,
    random_space,
    random_stack,
    stack_objects,
)


BLOCK = 20_000  # instances of the seeded block
SIGMAS = 5.0  # every frequency lies within 5 sigma of its expected value


def _within_bound(hits, trials, p):
    """|hits - trials * p| <= SIGMAS binomial standard deviations."""
    assert abs(hits - trials * p) <= SIGMAS * math.sqrt(trials * p * (1 - p)), (hits, trials, p)


def _check_rates(ks, W):
    """Each k in 2..5 has rate 1/4, and each of its points carries an atom
    with rate 0.6 + 0.4^k / k: probability 0.6, or the one atom of a row
    whose mask came out empty."""
    for k in range(2, 6):
        _within_bound(int((ks == k).sum()), len(ks), 0.25)
        rows = W[:, ks == k, :k].reshape(-1, k)
        for atoms in (rows > -np.inf).sum(axis=0):
            _within_bound(int(atoms), len(rows), 0.6 + 0.4**k / k)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_stack_draws_what_the_per_object_samplers_draw(seed):
    # a stack of one instance with one weight row is random_space's draw,
    # then random_measure's, bit for bit
    stacked, single = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(300):
        k = int(stacked.integers(1, 6))
        ks, D, W = random_stack(stacked, 1, (k, k + 1), 1)
        space = random_space(single, int(single.integers(1, 6)))
        assert ks.tolist() == [len(space)] and D.shape == (1, k, k) and W.shape == (1, 1, k)
        assert D[0].tobytes() == space.dist.tobytes()
        assert W[0, 0].tobytes() == random_measure(space, single).weights.tobytes()
    # both generators end in the same state
    assert stacked.random() == single.random()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_push_draw_draws_what_the_per_object_samplers_draw(seed):
    # the push check's maps and levels on a one-instance stack are
    # random_point_map's draw, else a constant map, and integers(1, 6)
    stacked, single = np.random.default_rng(seed), np.random.default_rng(seed)
    constant = 0
    for _ in range(300):
        k = int(stacked.integers(2, 6))
        ks, D, _ = random_stack(stacked, 1, (k, k + 1), 0)
        images = _nonexpanding_maps(stacked, ks, D)
        ns = stacked.integers(1, 6, size=1)
        space = random_space(single, int(single.integers(2, 6)))
        f = random_point_map(space, space, single)
        if not f.is_nonexpanding():
            constant += 1
            f = PointMap(space, space, (space.points[int(single.integers(k))],) * k)
        assert D[0].tobytes() == space.dist.tobytes()
        assert images[0].tolist() == list(f.indices)
        assert ns[0] == single.integers(1, 6)
    assert 0 < constant < 300  # both branches of the map draw ran
    assert stacked.random() == single.random()


def test_a_stack_block_holds_valid_instances():
    ks, D, W = random_stack(np.random.default_rng(0), BLOCK, (2, 6), 3)
    assert D.shape == (BLOCK, 5, 5) and W.shape == (3, BLOCK, 5)
    assert set(ks.tolist()) == {2, 3, 4, 5}
    inside = np.arange(5) < ks[:, None]
    pairs = inside[:, :, None] & inside[:, None, :]
    for b, k in enumerate(ks.tolist()):
        assert build_space(_labels(k), D[b, :k, :k]).dist.tobytes() == D[b, :k, :k].tobytes()
    off = D[pairs & ~np.eye(5, dtype=bool)]
    assert (off * 128 == np.round(off * 128)).all() and off.min() >= 0.25 and off.max() <= 2.0
    assert (D[~pairs] == 0.0).all() and (np.diagonal(D, axis1=1, axis2=2) == 0.0).all()
    assert (W[:, ~inside] == -np.inf).all()
    assert (W.max(axis=-1) == 0.0).all()  # canonical: every row has an atom at 0
    finite = W[W > -np.inf]
    assert (finite * 256 == np.round(finite * 256)).all() and finite.min() >= -3.0
    _check_rates(ks, W)


def test_the_object_draws_have_the_stacks_distribution():
    rng = np.random.default_rng(1)
    ks = rng.integers(2, 6, size=3000)
    W = np.full((3, len(ks), 5), -np.inf)
    for b, k in enumerate(ks.tolist()):
        space = random_space(rng, k)
        for row in W[:, b]:
            row[:k] = random_measure(space, rng).weights
    _check_rates(ks, W)


def test_the_object_draws_do_not_move():
    # random_space, random_measure and random_point_map keep their streams
    # bit for bit through the block draw of the stacks
    h = hashlib.sha256()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            space = random_space(rng, int(rng.integers(1, 9)))
            h.update(space.dist.tobytes())
            for min_weight in (-3.0, -1.0):
                h.update(random_measure(space, rng, min_weight).weights.tobytes())
            h.update(np.asarray(random_point_map(space, space, rng).indices, dtype=np.int64).tobytes())
        h.update(rng.random().hex().encode())
    assert h.hexdigest() == "34c25f1f2c53a93b1bf21e83ed610183a9dcd725fe6f8f41926e5385ff91ab4d"


def test_the_self_maps_are_nonexpanding_and_fix_the_padding():
    rng = np.random.default_rng(2)
    ks, D, _ = random_stack(rng, BLOCK, (2, 6), 0)
    state = rng.bit_generator.state
    images = _nonexpanding_maps(rng, ks, D)
    points = np.arange(5)
    inside = points < ks[:, None]
    assert (images[inside] < np.broadcast_to(ks[:, None], images.shape)[inside]).all()
    assert (images[~inside] == np.broadcast_to(points, images.shape)[~inside]).all()
    assert _nonexpanding(D, D, images).all()
    # the first block is random_point_map's draw; the maps it gives that
    # expand a distance became constant maps
    rng.bit_generator.state = state
    drawn = np.where(inside, rng.integers(0, ks[:, None], size=images.shape), points)
    expanding = ~_nonexpanding(D, D, drawn)
    assert 0 < expanding.sum() < BLOCK  # both branches of the map draw ran
    assert (images[~expanding] == drawn[~expanding]).all()
    constant = images[expanding]
    assert ((constant == constant[:, :1]) | ~inside[expanding]).all()


def _valid_draws(rng, count, bad=(), rows=1):
    """A padded stack of `count` valid spaces of 2-5 points with `rows`
    measures each, as _close_stack takes it (weights (rows, count, 5)),
    with hand-built tables in place of some spaces: `bad` maps index to
    table."""
    ks = rng.integers(2, 6, size=count)
    D = np.zeros((count, 5, 5))
    W = np.full((rows, count, 5), -np.inf)
    for b, k in enumerate(ks):
        space = random_space(rng, int(k))
        D[b, :k, :k] = space.dist
        for row in W[:, b]:
            row[:k] = random_measure(space, rng).weights
    for b, table in dict(bad).items():
        k = ks[b] = len(table)
        D[b] = 0.0
        D[b, :k, :k] = table
        W[:, b, k:] = -np.inf
    return ks, D, W


@pytest.mark.parametrize("bad", [
    [[0, np.nan, 1], [np.nan, 0, 1], [1, 1, 0]],
    [[0, 1, 1], [2, 0, 1], [1, 1, 0]],
    [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    [[0.5, 1, 1], [1, 0, 1], [1, 1, 0]],
    [[0, -1, 1], [-1, 0, 1], [1, 1, 0]],
    [[0, 1], [1, 0.25]],
])
def test_a_bad_table_in_a_stack_raises_build_spaces_error(bad):
    bad = np.array(bad, dtype=float)
    with pytest.raises(Exception) as alone:
        build_space(_labels(len(bad)), _closure(bad))
    ks, D, W = _valid_draws(np.random.default_rng(5), 40, {17: bad})
    with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
        _close_stack(ks, D, W)


def test_the_first_bad_table_in_stack_order_raises():
    # the tables are closed and checked by point count, the error is the
    # one of the first bad table all the same
    late = [[0.0, 1.0], [2.0, 0.0]]
    early = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.5]]
    ks, D, W = _valid_draws(np.random.default_rng(8), 40, {9: early, 30: late})
    with pytest.raises(NonzeroDiagonal, match=re.escape("dist[c][c]=0.5 != 0")):
        _close_stack(ks, D, W)


@pytest.mark.parametrize("row,error", [
    ([-np.inf] * 4, EmptyMeasure),
    ([1e308, -1e308, -np.inf, -np.inf], NotNormalized),
])
def test_a_bad_weight_row_in_a_stack_raises_from_weights_error(row, error):
    ks, D, W = _valid_draws(np.random.default_rng(6), 40)
    ks[23] = 4
    D[23] = 0.0
    D[23, :4, :4] = _closure(np.ones((4, 4)) - np.eye(4))
    W[0, 23] = row + [-np.inf]
    space = build_space(_labels(4), D[23, :4, :4])
    with pytest.raises(error) as alone:
        _from_weights(space, np.array(row), normalize=True)
    with pytest.raises(error, match=re.escape(str(alone.value))):
        _close_stack(ks, D, W)


def test_the_first_bad_row_in_row_order_raises():
    # weights are (rows, count, K): row 0 of every instance comes first
    ks, D, W = _valid_draws(np.random.default_rng(9), 40, rows=2)
    W[1, 3] = -np.inf  # no atom in instance 3's second row
    W[0, 30] = -np.inf
    W[0, 30, :2] = (1e308, -1e308)
    with pytest.raises(NotNormalized, match="overflows"):
        _close_stack(ks, D, W)


def test_a_valid_stack_passes_unchanged():
    ks, D, W = _valid_draws(np.random.default_rng(7), 40)
    closed, weights = _close_stack(ks, D.copy(), W.copy())
    assert np.array_equal(closed, D) and np.array_equal(weights, W)


def test_the_stack_objects_are_the_validated_objects():
    # each space is build_space's on its table block, each measure
    # _from_weights' on its row, each on its own read-only copy
    ks, D, W = random_stack(np.random.default_rng(3), 2000, (1, 6), 2)
    objects = stack_objects(ks, D, W)
    assert iter(objects) is objects  # built one instance at a time
    count = 0
    for b, (space, measures) in enumerate(objects):
        k = ks[b]
        built = build_space(_labels(k), D[b, :k, :k])
        assert space == built and space.points == built.points
        assert space.dist.tobytes() == built.dist.tobytes()
        assert not space.dist.flags.writeable and not np.shares_memory(space.dist, D)
        assert len(measures) == 2
        for mu, row in zip(measures, W[:, b]):
            assert mu == _from_weights(space, row[:k].copy(), normalize=True)
            assert mu.space is space and mu.weights.tobytes() == row[:k].tobytes()
            assert not mu.weights.flags.writeable and not np.shares_memory(mu.weights, W)
        count += 1
    assert count == 2000


def test_the_stack_objects_have_the_object_draws_distribution():
    ks, D, W = random_stack(np.random.default_rng(4), BLOCK, (2, 6), 3)
    got_ks = np.empty(BLOCK, dtype=int)
    got_W = np.full(W.shape, -np.inf)
    for b, (space, measures) in enumerate(stack_objects(ks, D, W)):
        got_ks[b] = k = len(space)
        for row, mu in zip(got_W[:, b], measures):
            row[:k] = mu.weights
    _check_rates(got_ks, got_W)


def test_the_nets_have_the_random_net_distribution():
    # a size s uniform in 1..k, then s distinct points among the first k:
    # each size has rate 1/k, and each point is in the net with rate
    # E[s]/k = (k + 1) / 2k
    rng = np.random.default_rng(5)
    ks = rng.integers(2, 6, size=BLOCK)
    nets = _random_nets(rng, ks, (2, BLOCK, 5))
    inside = np.arange(5) < ks[:, None]
    assert not (nets & ~inside).any()  # no padding point in a net
    sizes = nets.sum(axis=-1)
    assert (sizes >= 1).all()
    for k in range(2, 6):
        of_k = sizes[:, ks == k].reshape(-1)
        for s in range(1, k + 1):
            _within_bound(int((of_k == s).sum()), len(of_k), 1 / k)
        for points in nets[:, ks == k, :k].reshape(-1, k).sum(axis=0):
            _within_bound(int(points), len(of_k), (k + 1) / (2 * k))


def test_the_distinct_pairs_redraw_only_equal_pairs():
    rng = np.random.default_rng(6)
    ks, _, W = random_stack(rng, 2000, (2, 3), 2)
    before = W.copy()
    same = (W[0] == W[1]).all(axis=-1)
    assert 0 < same.sum() < 2000  # both kinds of pair were drawn
    _distinct_pairs(rng, ks, W)
    assert not (W[0] == W[1]).all(axis=-1).any()
    assert np.array_equal(W[0], before[0]) and np.array_equal(W[:, ~same], before[:, ~same])
    assert (W[1, same, 2:] == -np.inf).all() and (W[1, same].max(axis=-1) == 0.0).all()
    # every measure on one point is the same measure
    ks, _, W = random_stack(rng, 3, (1, 2), 2)
    with pytest.raises(RuntimeError, match="distinct pair"):
        _distinct_pairs(rng, ks, W)
