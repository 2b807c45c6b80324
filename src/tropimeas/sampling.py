"""Seeded random instances for the property suite.

Distances and weights are dyadic rationals (multiples of 1/128 and
1/256) so that max/plus arithmetic, normalizing shifts, and the dual
closed form are exact in double precision; the "exact" property checks
rely on this.  Distances stay in [0.25, 2]: with weights in [-3, 0] that
guarantees separation of distinct measures at Lipschitz level <= 64.
"""

from __future__ import annotations

import numpy as np

from .geometry import _draw_weights, _dyadic, random_measure
from .measure import IdempotentMeasure, MetaMeasure, _canonical_weights, meta_measure
from .metric import FiniteMetricSpace, PointMap, _faulty, _nonexpanding, build_space

_LABELS = "abcdefghijklmnopqrstuvwxyz"


def _labels(k: int) -> tuple[str, ...]:
    return tuple(_LABELS[i % 26] + (str(i // 26) if i >= 26 else "")
                 for i in range(k))


def _draw_dist(rng: np.random.Generator, size) -> np.ndarray:
    """random_space's draw, before the closure: symmetric tables of shape
    `size`, (k, k) for one, of dyadic values in [0.25, 2] with a zero
    diagonal."""
    D = rng.integers(32, 257, size=size) / 128.0
    D = np.minimum(D, np.swapaxes(D, -1, -2))
    points = np.arange(size[-1])
    D[..., points, points] = 0.0
    return D


def _closure(D: np.ndarray) -> np.ndarray:
    """Floyd-Warshall closure of (..., k, k) tables under shortest paths
    (min-plus); sums of dyadics this small are exact, so the triangle
    inequality then holds exactly."""
    for m in range(D.shape[-1]):
        D = np.minimum(D, D[..., :, m, None] + D[..., None, m, :])
    return D


def random_space(rng: np.random.Generator, k: int) -> FiniteMetricSpace:
    """A random k-point metric space with exact dyadic distances."""
    return build_space(_labels(k), _closure(_draw_dist(rng, (k, k))))


def random_stack(rng: np.random.Generator, count: int, sizes: tuple[int, int], rows: int):
    """`count` >= 1 random spaces of k in range(*sizes) points, each with
    `rows` measures, as stacks for `pseudometric.hat_d_stack` and
    `stack_objects`.

    Each quantity is drawn once for the whole stack, in this order: the
    point counts rng.integers(*sizes, size=count), the tables (_draw_dist,
    then 0 outside each leading k x k block), the weight rows
    (_draw_weights); an instance has the distribution of random_space and
    random_measure.  The closure, validation and normalizing shift run on
    whole stacks (`_close_stack`).  Returns (ks, D, W): the point counts,
    the distances (count, K, K) padded with 0 and the weights (rows,
    count, K) padded with -inf, where K = sizes[1] - 1.
    """
    K = sizes[1] - 1
    ks = rng.integers(*sizes, size=count)
    inside = np.arange(K) < ks[:, None]
    D = _draw_dist(rng, (count, K, K)) * (inside[:, :, None] & inside[:, None, :])
    D, W = _close_stack(ks, D, _draw_weights(rng, ks, (rows, count, K)))
    return ks, D, W


def stack_objects(ks, D, W):
    """The instances of a stack (random_stack's (ks, D, W)) as objects,
    each built when the loop reaches it: (space, measures) per instance b,
    the space over _labels(k) with a read-only copy of its table
    D[b, :k, :k], and one measure per row r of W over a read-only copy of
    W[r, b, :k].  The tables must be valid and the rows canonical, as
    `_close_stack` leaves them (it checks the tables with build_space's
    predicates); neither is checked again."""
    for b, k in enumerate(ks.tolist()):
        dist = D[b, :k, :k].copy()
        dist.setflags(write=False)
        space = FiniteMetricSpace(_labels(k), dist)
        yield space, tuple(IdempotentMeasure(space, w[:k].copy()) for w in W[:, b])


def _nonexpanding_maps(rng: np.random.Generator, ks, D) -> np.ndarray:
    """Nonexpanding self-maps of a closed stack, as (count, K) images that
    fix each padding point: one rng.integers(k) block of images, as
    random_point_map draws them, then the constant map at rng.integers(k)
    for each map that is not nonexpanding, in one call."""
    points = np.arange(D.shape[-1])
    inside = points < ks[:, None]
    images = np.where(inside, rng.integers(0, ks[:, None], size=inside.shape), points)
    bad = ~_nonexpanding(D, D, images)
    images[bad] = np.where(inside[bad], rng.integers(ks[bad])[:, None], points)
    return images


def _close_stack(ks, D, W):
    """Close the drawn tables of a padded stack (the leading k x k block
    of D[b] holds instance b) and validate them as random_space does, then
    canonicalize the weight rows W (rows, count, K) as random_measure
    does.  Tables are grouped by point count for the closure and the
    checks.  The first faulty table raises build_space's error for it,
    and then the first faulty row, in (row, instance) order, the error
    _from_weights raises for it.
    """
    bad = np.zeros(len(ks), dtype=bool)
    for k in set(ks.tolist()):  # np.unique would import numpy.ma (about 2 MB)
        at = np.flatnonzero(ks == k)
        D[at, :k, :k] = block = _closure(D[at, :k, :k])
        bad[at] = _faulty(block)
    if bad.any():
        b = int(bad.argmax())
        k = ks[b]
        build_space(_labels(k), D[b, :k, :k])  # raises its error for the table
    return D, _canonical_weights(W, normalize=True)


def _distinct_pairs(rng: np.random.Generator, ks, W) -> np.ndarray:
    """Make each measure pair (W[0, b], W[1, b]) of a closed stack distinct:
    every second row equal to its first is redrawn as random_measure draws
    it, all in one _draw_weights call per round, until no pair is equal;
    each pair then has the distribution of (mu, nu) given nu != mu.
    RuntimeError when pairs are still equal after 100 rounds."""
    for _ in range(100):
        same = np.flatnonzero((W[0] == W[1]).all(axis=-1))
        if not same.size:
            return W
        W[1, same] = _canonical_weights(
            _draw_weights(rng, ks[same], (same.size, W.shape[-1])), normalize=True)
    raise RuntimeError("could not sample a distinct pair")


def _random_nets(rng: np.random.Generator, ks, size) -> np.ndarray:
    """Random nonempty point sets of a stack's instances, as masks of shape
    `size` (..., count, K): a size s = rng.integers(1, k + 1) for each,
    then the s points of smallest rng.random key among its first k points,
    so that, given s, each s-point subset is equally likely."""
    sizes = rng.integers(1, ks + 1, size=size[:-1])
    keys = np.where(np.arange(size[-1]) < ks[:, None], rng.random(size), 2.0)
    return keys.argsort(axis=-1).argsort(axis=-1) < sizes[..., None]


def random_point_map(source: FiniteMetricSpace, target: FiniteMetricSpace,
                     rng: np.random.Generator) -> PointMap:
    images = tuple(target.points[i]
                   for i in rng.integers(len(target), size=len(source)))
    return PointMap(source, target, images)


def random_meta_measure(space: FiniteMetricSpace,
                        rng: np.random.Generator) -> MetaMeasure:
    count = int(rng.integers(1, 5))
    inner = [random_measure(space, rng) for _ in range(count)]
    weights = _dyadic(rng, -3.0, 0.0, count)
    return meta_measure(space, zip(inner, weights), normalize=True)


def random_value_table(space: FiniteMetricSpace, rng: np.random.Generator):
    vals = _dyadic(rng, -3.0, 3.0, len(space))
    return {p: float(v) for p, v in zip(space.points, vals)}

