"""Seeded random instances for the property suite.

Distances and weights are dyadic rationals (multiples of 1/128 and
1/256) so that max/plus arithmetic, normalizing shifts, and the dual
closed form are exact in double precision; the "exact" property checks
rely on this.  Distances stay in [0.25, 2]: with weights in [-3, 0] that
guarantees separation of distinct measures at Lipschitz level <= 64.
"""

from __future__ import annotations

import numpy as np

from .geometry import random_measure
from .measure import MetaMeasure, meta_measure
from .metric import FiniteMetricSpace, PointMap, build_space

_LABELS = "abcdefghijklmnopqrstuvwxyz"


def random_space(rng: np.random.Generator, k: int,
                 prefix: str = "") -> FiniteMetricSpace:
    """A random k-point metric space with exact dyadic distances.

    Draw a symmetric matrix of dyadic values in [0.25, 2] and close it
    under shortest paths (min-plus); sums of dyadics this small are
    exact, so the triangle inequality holds exactly.
    """
    D = rng.integers(32, 257, size=(k, k)) / 128.0
    D = np.minimum(D, D.T)
    np.fill_diagonal(D, 0.0)
    for m in range(k):  # Floyd-Warshall closure
        D = np.minimum(D, D[:, m, None] + D[None, m, :])
    points = [prefix + _LABELS[i % 26] + (str(i // 26) if i >= 26 else "")
              for i in range(k)]
    return build_space(points, D)


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


def random_nonexpanding_map(space: FiniteMetricSpace,
                            rng: np.random.Generator) -> PointMap:
    """A verified-nonexpanding self-map: a random candidate if it
    happens to be nonexpanding, else a constant map (always is)."""
    f = random_point_map(space, space, rng)
    if f.is_nonexpanding():
        return f
    p = space.points[int(rng.integers(len(space)))]
    return PointMap(space, space, (p,) * len(space))


def random_meta_measure(space: FiniteMetricSpace,
                        rng: np.random.Generator) -> MetaMeasure:
    count = int(rng.integers(1, 5))
    inner = [random_measure(space, rng) for _ in range(count)]
    weights = rng.integers(-768, 1, size=count) / 256.0
    return meta_measure(space, zip(inner, weights), normalize=True)


def random_value_table(space: FiniteMetricSpace, rng: np.random.Generator):
    vals = rng.integers(-768, 769, size=len(space)) / 256.0
    return {p: float(v) for p, v in zip(space.points, vals)}
