"""Seeded random instances for the property suite.

Distances and weights are dyadic rationals (multiples of 1/128 and
1/256) so that max/plus arithmetic, normalizing shifts, and the dual
closed form are exact in double precision; the "exact" property checks
rely on this.  Distances stay in [0.25, 2]: with weights in [-3, 0] that
guarantees separation of distinct measures at Lipschitz level <= 64.
"""

from __future__ import annotations

import numpy as np

from .geometry import _dyadic, random_measure
from .measure import MetaMeasure, _canonical_weights, meta_measure
from .metric import FiniteMetricSpace, PointMap, _faulty, _raise_fault, build_space

_LABELS = "abcdefghijklmnopqrstuvwxyz"


def _labels(k: int) -> tuple[str, ...]:
    return tuple(_LABELS[i % 26] + (str(i // 26) if i >= 26 else "")
                 for i in range(k))


def _draw_dist(rng: np.random.Generator, k: int) -> np.ndarray:
    """random_space's draw: a symmetric (k, k) table of dyadic values in
    [0.25, 2] with a zero diagonal, before the closure."""
    D = rng.integers(32, 257, size=(k, k)) / 128.0
    D = np.minimum(D, D.T)
    np.fill_diagonal(D, 0.0)
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
    return build_space(_labels(k), _closure(_draw_dist(rng, k)))


def random_stack(rng: np.random.Generator, count: int, sizes: tuple[int, int], draw):
    """`count` >= 1 random instances as stacks for `pseudometric.hat_d_stack`.

    Each instance draws k = rng.integers(*sizes) and its distance table as
    random_space(rng, k) does; `draw(rng, table)` then returns the rest,
    as many weight rows as random_measure draws them per instance, and a
    tuple of scalars and point maps (length-k image indices).  The closure,
    validation and normalizing shift run on whole stacks (`_close_stack`).
    Returns (ks, D, W, values): the point counts, the distances (count, K,
    K) padded with 0, the weights (rows, count, K) padded with -inf, where
    K = sizes[1] - 1, and the values stacked as (count,), or (count, K)
    for maps, which map each padding point to itself.
    """
    K = sizes[1] - 1
    ks = np.empty(count, dtype=np.intp)
    D = np.zeros((count, K, K))
    for b in range(count):
        k = ks[b] = int(rng.integers(*sizes))
        D[b, :k, :k] = table = _draw_dist(rng, k)
        rows, values = draw(rng, table)
        if b == 0:
            W = np.full((count, len(rows), K), -np.inf)
            V = [np.tile(np.arange(K), (count, 1)) if np.ndim(v)
                 else np.zeros(count, dtype=np.asarray(v).dtype) for v in values]
        for row, w in zip(W[b], rows):
            row[:k] = w
        for stack, v in zip(V, values):
            stack[(b,) + tuple(map(slice, np.shape(v)))] = v
    D, W = _close_stack(ks, D, W)
    return ks, D, np.moveaxis(W, 1, 0), V


def _close_stack(ks, D, W):
    """Close the drawn tables of a padded stack (the leading k x k block
    of D[b] holds instance b) and validate them as random_space does, then
    canonicalize the weight rows W (count, measures, K) as random_measure
    does.  Tables are grouped by point count for the closure and the
    checks.  The first faulty table raises build_space's error for it,
    and then the first faulty row the error _from_weights raises for it.
    """
    bad = np.zeros(len(ks), dtype=bool)
    for k in set(ks.tolist()):  # np.unique would import numpy.ma (about 2 MB)
        at = np.flatnonzero(ks == k)
        D[at, :k, :k] = block = _closure(D[at, :k, :k])
        bad[at] = _faulty(block)
    if bad.any():
        b = int(bad.argmax())
        k = ks[b]
        _raise_fault(_labels(k), D[b, :k, :k])
    return D, _canonical_weights(W, normalize=True)


def distinct_measure_pair(space: FiniteMetricSpace, rng: np.random.Generator):
    mu = random_measure(space, rng)
    for _ in range(100):
        nu = random_measure(space, rng)
        if nu != mu:
            return mu, nu
    raise RuntimeError("could not sample a distinct pair")


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


def _random_net(space: FiniteMetricSpace, rng: np.random.Generator) -> list:
    """A random nonempty set of distinct points: a size, then the points."""
    k = int(rng.integers(1, len(space) + 1))
    return [space.points[i] for i in rng.choice(len(space), size=k, replace=False)]
