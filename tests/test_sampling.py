import re

import numpy as np
import pytest

from tropimeas import build_space, suite
from tropimeas.errors import EmptyMeasure, NonzeroDiagonal, NotNormalized
from tropimeas.geometry import _draw_weights, random_measure
from tropimeas.measure import _from_weights
from tropimeas.metric import PointMap
from tropimeas.sampling import (
    _close_stack,
    _closure,
    _labels,
    random_point_map,
    random_space,
    random_stack,
)


def _three_rows(rng, table):
    return [_draw_weights(rng, len(table)) for _ in range(3)], ()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_stack_draws_what_the_per_object_samplers_draw(seed):
    stacked, single = np.random.default_rng(seed), np.random.default_rng(seed)
    ks, D, W, values = random_stack(stacked, 300, (1, 6), _three_rows)
    assert D.shape == (300, 5, 5) and W.shape == (3, 300, 5) and values == []
    for b in range(300):
        space = random_space(single, int(single.integers(1, 6)))
        k = ks[b]
        assert k == len(space)
        assert D[b, :k, :k].tobytes() == space.dist.tobytes()
        assert not D[b, k:].any() and not D[b, :, k:].any()
        for w in W[:, b]:
            assert w[:k].tobytes() == random_measure(space, single).weights.tobytes()
            assert (w[k:] == -np.inf).all()
    # both generators end in the same state
    assert stacked.random() == single.random()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_push_draw_draws_what_the_per_object_samplers_draw(seed):
    stacked, single = np.random.default_rng(seed), np.random.default_rng(seed)
    ks, D, (mu, nu), (images, ns) = random_stack(stacked, 300, (2, 6), suite._push_draw)
    constant = 0
    for b in range(300):
        space = random_space(single, int(single.integers(2, 6)))
        k = len(space)
        f = random_point_map(space, space, single)
        if not f.is_nonexpanding():
            constant += 1
            f = PointMap(space, space, (space.points[int(single.integers(k))],) * k)
        assert ks[b] == k and D[b, :k, :k].tobytes() == space.dist.tobytes()
        assert images[b].tolist() == f.indices.tolist() + list(range(k, 5))
        for w in (mu[b], nu[b]):
            assert w[:k].tobytes() == random_measure(space, single).weights.tobytes()
        assert ns[b] == single.integers(1, 6)
    assert 0 < constant < 300  # both branches of the map draw ran
    assert stacked.random() == single.random()


def _valid_draws(rng, count, bad=()):
    """A padded stack of `count` valid spaces of 2-5 points with one
    measure each, as _close_stack takes it, with hand-built tables in
    place of some spaces: `bad` maps index to table."""
    ks = rng.integers(2, 6, size=count)
    D = np.zeros((count, 5, 5))
    W = np.full((count, 1, 5), -np.inf)
    for b, k in enumerate(ks):
        space = random_space(rng, int(k))
        D[b, :k, :k] = space.dist
        W[b, 0, :k] = random_measure(space, rng).weights
    for b, table in dict(bad).items():
        k = ks[b] = len(table)
        D[b] = 0.0
        D[b, :k, :k] = table
        W[b, :, k:] = -np.inf
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
    W[23, 0] = row + [-np.inf]
    space = build_space(_labels(4), D[23, :4, :4])
    with pytest.raises(error) as alone:
        _from_weights(space, np.array(row), normalize=True)
    with pytest.raises(error, match=re.escape(str(alone.value))):
        _close_stack(ks, D, W)


def test_a_valid_stack_passes_unchanged():
    ks, D, W = _valid_draws(np.random.default_rng(7), 40)
    closed, weights = _close_stack(ks, D.copy(), W.copy())
    assert np.array_equal(closed, D) and np.array_equal(weights, W)
