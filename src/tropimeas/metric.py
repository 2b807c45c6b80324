"""Finite metric spaces, Lipschitz functions, nets and retractions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricDistance,
    EmptyNet,
    MissingValue,
    NegativeDistance,
    NonFiniteDistance,
    NonzeroDiagonal,
    ShapeMismatch,
    TriangleViolation,
    UnknownPoint,
    ZeroOffDiagonal,
)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labeled points with a validated distance matrix.

    Use :func:`build_space` instead of the constructor; it runs the full
    validation (symmetry, positivity, triangle inequality) with exact
    comparisons on the input values.
    """

    points: tuple[str, ...]
    dist: np.ndarray  # (k, k), read-only

    _index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self._index.update({p: i for i, p in enumerate(self.points)})

    def __len__(self):
        return len(self.points)

    def index(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise UnknownPoint(f"point {point!r} not in space") from None

    def d(self, p: str, q: str) -> float:
        return float(self.dist[self.index(p), self.index(q)])

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return self.points == other.points and np.array_equal(self.dist, other.dist)

    def __hash__(self):
        return hash((self.points, self.dist.tobytes()))


def build_space(points, dist) -> FiniteMetricSpace:
    """Validate and build a finite metric space.

    Validation is exact (no tolerance); callers must pre-round noisy input.
    Entries must be finite: nan and +-inf raise NonFiniteDistance.
    """
    points = tuple(str(p) for p in points)
    if len(set(points)) != len(points):
        raise ShapeMismatch("duplicate point labels")
    D = np.array(dist, dtype=float)
    k = len(points)
    if D.shape != (k, k):
        raise ShapeMismatch(f"dist has shape {D.shape}, expected ({k}, {k})")
    if not np.isfinite(D).all():
        i, j = np.argwhere(~np.isfinite(D))[0]
        raise NonFiniteDistance(points[i], points[j], D[i, j])
    for i in range(k):
        if D[i, i] != 0.0:
            raise NonzeroDiagonal(points[i], D[i, i])
        for j in range(i + 1, k):
            if D[i, j] < 0.0 or D[j, i] < 0.0:
                raise NegativeDistance(points[i], points[j], min(D[i, j], D[j, i]))
            if D[i, j] != D[j, i]:
                raise AsymmetricDistance(points[i], points[j], D[i, j], D[j, i])
            if D[i, j] == 0.0:
                raise ZeroOffDiagonal(points[i], points[j])
    # D[i,l] <= D[i,j] + D[j,l], exact; the first violating (i, j, l) in
    # lexicographic order is reported.  A sum that overflows to inf
    # cannot be a violation.
    with np.errstate(over="ignore"):
        for i in range(k):
            bad = D[i, None, :] > D[i, :, None] + D  # [j, l]
            if bad.any():
                j, l = np.unravel_index(int(bad.argmax()), bad.shape)
                raise TriangleViolation(points[i], points[j], points[l])
    D.setflags(write=False)
    return FiniteMetricSpace(points, D)


@dataclass(frozen=True)
class LipFunction:
    """A real function on the ground set with certified Lipschitz bound."""

    space: FiniteMetricSpace
    values: tuple[float, ...]
    lip_bound: int

    def __post_init__(self):
        if self.lip_bound < 1 or int(self.lip_bound) != self.lip_bound:
            raise ValueError("lip_bound must be a positive integer")
        k = len(self.space)
        if len(self.values) != k:
            raise ShapeMismatch("one value per point required")
        v = np.asarray(self.values)
        D = self.space.dist
        gap = np.abs(v[:, None] - v[None, :]) - self.lip_bound * D
        # small slack absorbs last-ulp rounding in n*d products
        if gap.max() > 1e-12:
            i, j = np.unravel_index(int(gap.argmax()), gap.shape)
            raise ValueError(
                f"not {self.lip_bound}-Lipschitz between "
                f"{self.space.points[i]!r} and {self.space.points[j]!r}"
            )

    def __call__(self, point: str) -> float:
        return self.values[self.space.index(point)]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def tighten(raw, n: int, space: FiniteMetricSpace) -> LipFunction:
    """Project a raw value table onto the n-Lipschitz cone from below.

    Returns phi with phi(z) = min_p (raw[p] + n*d(p, z)).  The result is
    n-Lipschitz, pointwise <= raw, idempotent, and fixes inputs that were
    already n-Lipschitz.
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    v = _values_array(raw, space)
    tight = (v[:, None] + n * space.dist).min(axis=0)
    return LipFunction(space, tuple(float(x) for x in tight), int(n))


def _values_array(values, space: FiniteMetricSpace) -> np.ndarray:
    """Accept a dict {point: value}, a LipFunction, or a sequence in point order."""
    if isinstance(values, LipFunction):
        if values.space != space:
            raise ShapeMismatch("function defined on a different space")
        return values.as_array()
    if isinstance(values, dict):
        out = np.empty(len(space))
        for i, p in enumerate(space.points):
            if p not in values:
                raise MissingValue(p)
            out[i] = float(values[p])
        return out
    out = np.array([float(x) for x in values])
    if out.shape != (len(space),):
        raise ShapeMismatch("one value per point required")
    return out


@dataclass(frozen=True)
class PointMap:
    """A total map between the point sets of two finite metric spaces."""

    source: FiniteMetricSpace
    target: FiniteMetricSpace
    assignment: tuple[str, ...]  # image of source.points[i]
    indices: np.ndarray = field(init=False, compare=False, repr=False)  # target index per image

    def __post_init__(self):
        if len(self.assignment) != len(self.source):
            raise ShapeMismatch("assignment must cover every source point")
        indices = np.array([self.target.index(q) for q in self.assignment], dtype=np.intp)
        indices.setflags(write=False)
        object.__setattr__(self, "indices", indices)

    def __call__(self, point: str) -> str:
        return self.assignment[self.source.index(point)]

    def is_nonexpanding(self) -> bool:
        tgt = self.target.dist[np.ix_(self.indices, self.indices)]
        return bool((tgt <= self.source.dist).all())


def compose(g: PointMap, f: PointMap) -> PointMap:
    """The map g after f."""
    if f.target != g.source:
        raise ShapeMismatch("maps not composable")
    return PointMap(f.source, g.target, tuple(g(f(p)) for p in f.source.points))


def identity_map(space: FiniteMetricSpace) -> PointMap:
    return PointMap(space, space, space.points)


def nearest_net_retraction(space: FiniteMetricSpace, net) -> PointMap:
    """Retract the space onto a net by nearest-point assignment.

    Ties go to the net point with the smallest index in the space's point
    order; net points are fixed, and no point moves farther than the
    covering radius of the net.
    """
    net_idx = sorted(space.index(p) for p in net)
    if not net_idx:
        raise EmptyNet("net must be nonempty")
    assignment = []
    for i in range(len(space)):
        best = min(net_idx, key=lambda j: (space.dist[i, j], j))
        assignment.append(space.points[best])
    return PointMap(space, space, tuple(assignment))


def covering_radius(space: FiniteMetricSpace, net) -> float:
    """max over points of the distance to the nearest net point."""
    net_idx = [space.index(p) for p in net]
    if not net_idx:
        raise EmptyNet("net must be nonempty")
    return float(space.dist[:, net_idx].min(axis=1).max())
