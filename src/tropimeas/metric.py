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
    SpaceMismatch,
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

    _index: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    A space has at least one point, else ShapeMismatch.  Entries must be
    finite: nan and +-inf raise NonFiniteDistance.
    """
    points = tuple(str(p) for p in points)
    if not points:
        raise ShapeMismatch("a space needs at least one point")
    if len(set(points)) != len(points):
        raise ShapeMismatch("duplicate point labels")
    D = np.array(dist, dtype=float) + 0.0  # a -0.0 diagonal entry becomes 0.0
    k = len(points)
    if D.shape != (k, k):
        raise ShapeMismatch(f"dist has shape {D.shape}, expected ({k}, {k})")
    if _faulty(D):
        with np.errstate(over="ignore", invalid="ignore"):
            kind, table = next((kind, table) for kind, table in _dist_faults(D)
                               if table.any())
        i, j = np.unravel_index(int(table.argmax()), table.shape)
        p, q = points[i], points[j]
        if kind == "finite":
            raise NonFiniteDistance(p, q, D[i, j])
        if kind != "pair":
            raise TriangleViolation(points[kind], p, q)
        if i == j:
            raise NonzeroDiagonal(p, D[i, i])
        if D[i, j] < 0.0 or D[j, i] < 0.0:
            raise NegativeDistance(p, q, min(D[i, j], D[j, i]))
        if D[i, j] != D[j, i]:
            raise AsymmetricDistance(p, q, D[i, j], D[j, i])
        raise ZeroOffDiagonal(p, q)
    D.setflags(write=False)
    return FiniteMetricSpace(points, D)


def _dist_faults(D):
    """build_space's predicates on a (..., k, k) stack of tables, in the
    order it reports them: (kind, table) pairs, where `table` marks the
    faulty positions.

    First "finite": a non-finite entry.  Then "pair", at the first (i, j)
    in row-major order: a nonzero diagonal or a negative, asymmetric or
    zero distance (a fault below the diagonal mirrors one above it in an
    earlier row, so the first has j >= i).  Then, for each i, kind i:
    the triangle violations D[i,l] > D[i,j] + D[j,l] at [j, l]; a sum
    that overflows to inf cannot be a violation.  Callers silence the
    overflow and nan warnings of the sums.
    """
    k = D.shape[-1]
    T = np.swapaxes(D, -1, -2)
    yield "finite", ~np.isfinite(D)
    pair = (np.minimum(D, T) <= 0.0) | (D != T)  # negative, zero or asymmetric
    yield "pair", np.where(np.eye(k, dtype=bool), D != 0.0, pair)
    for i in range(k):
        yield i, D[..., i, None, :] > D[..., i, :, None] + D


def _faulty(D) -> np.ndarray:
    """Per table of a (..., k, k) stack: whether build_space refuses it."""
    bad = np.zeros(D.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf: nan
        for _, table in _dist_faults(D):
            bad |= table
    return bad.any(axis=(-2, -1))


def _same_space(what: str, first, *others) -> None:
    """The one same-space rule: SpaceMismatch("<what> live on different
    spaces") unless each of the spaces `others` equals the space `first`."""
    for other in others:
        if other != first:
            raise SpaceMismatch(f"{what} live on different spaces")


def _level(n) -> int:
    """A Lipschitz level n as an int: a positive integer within the float
    range (distances are scaled by n in floating point), else ValueError."""
    try:
        if int(n) == n >= 1:
            float(n)  # OverflowError beyond the float range
            return int(n)
    except (OverflowError, TypeError, ValueError):
        pass
    raise ValueError("Lipschitz level n must be a positive integer within the float range")


def _values(phi, space: FiniteMetricSpace, at=None) -> np.ndarray:
    """The one reader of function values: phi's values at every point of
    `space`, or at the point indices `at`, as a float array.

    phi is a dict {point: value} that covers the points read, a LipFunction
    on `space`, or a table of one value per point in point order.  A point
    with no value, or a table of another length, raises MissingValue; a
    LipFunction on another space SpaceMismatch; a nan or +-inf value read
    ValueError.
    """
    if isinstance(phi, dict):
        points = space.points if at is None else [space.points[i] for i in at]
        for p in points:
            if p not in phi:
                raise MissingValue(f"function has no value at point {p!r}")
        v = np.array([float(phi[p]) for p in points])
    else:
        if isinstance(phi, LipFunction):
            _same_space("the function and the points read", space, phi.space)
            phi = phi.values
        v = np.asarray(phi, dtype=float)
        if v.shape != (len(space),):
            raise MissingValue(f"value table has shape {v.shape}, "
                               f"expected one value per point: ({len(space)},)")
        if at is not None:
            v = v[at]
    if not np.isfinite(v).all():
        raise ValueError("function values must be finite")
    return v


def _terms(v: np.ndarray, n: int, D: np.ndarray) -> np.ndarray:
    """The terms fl(v_p + fl(n*d(p, z))), row p and column z, of `_project`."""
    with np.errstate(over="ignore"):
        return v[:, None] + n * D


def _project(v: np.ndarray, n: int, D: np.ndarray) -> np.ndarray:
    """The one Lipschitz projection min_p fl(v_p + fl(n*d(p, z))), with no
    tolerance: its fixed points may exceed v_z - v_p <= n*d(p, z) in the reals
    by rounding, and it lowers some tables that meet it where fl(n*d) < n*d."""
    return _terms(v, n, D).min(axis=0)


@dataclass(frozen=True)
class LipFunction:
    """A real function on the ground set whose values `_project` fixes: the
    float rule, which may accept a table beyond v_z - v_p <= n*d(p, z) in
    the reals by rounding, and refuses some that meet it where fl(n*d) < n*d."""

    space: FiniteMetricSpace
    values: tuple[float, ...]
    lip_bound: int

    def __post_init__(self):
        n = _level(self.lip_bound)
        v = _values(self.values, self.space)
        steep = np.flatnonzero(_project(v, n, self.space.dist) < v)
        if steep.size:  # the first steep point and the minimizer of its projection
            i, j = sorted((_terms(v, n, self.space.dist)[:, steep[0]].argmin(), steep[0]))
            raise ValueError(f"not {self.lip_bound}-Lipschitz between "
                             f"{self.space.points[i]!r} and {self.space.points[j]!r}")

    def __call__(self, point: str) -> float:
        return self.values[self.space.index(point)]


def tighten(raw, n: int, space: FiniteMetricSpace) -> LipFunction:
    """Project a raw value table onto the n-Lipschitz cone from below by
    repeating `_project` until a round changes nothing: within k rounds, as in
    Bellman-Ford, since rounding is monotone and fl(a + c) >= a for c >= 0.
    The result is <= raw, passes LipFunction and is a fixed point of tighten."""
    n = _level(n)
    v = _values(raw, space)
    while ((low := _project(v, n, space.dist)) < v).any():
        v = low
    return LipFunction(space, tuple(low.tolist()), n)


@dataclass(frozen=True)
class PointMap:
    """A total map between the point sets of two finite metric spaces."""

    source: FiniteMetricSpace
    target: FiniteMetricSpace
    assignment: tuple[str, ...]  # image of source.points[i]
    indices: np.ndarray = field(init=False, compare=False, repr=False)  # target index per image

    def __post_init__(self):
        if len(self.assignment) != len(self.source):
            raise MissingValue(f"assignment has {len(self.assignment)} images, "
                               f"expected one per source point: {len(self.source)}")
        indices = np.array([self.target.index(q) for q in self.assignment], dtype=np.intp)
        indices.setflags(write=False)
        object.__setattr__(self, "indices", indices)

    def __call__(self, point: str) -> str:
        return self.assignment[self.source.index(point)]

    def is_nonexpanding(self) -> bool:
        return bool(_nonexpanding(self.source.dist, self.target.dist, self.indices))


def _nonexpanding(source, target, images) -> np.ndarray:
    """Per map of a stack: whether images (..., k) from tables source
    (..., k, k) into tables target (..., m, m) keep each distance or shrink it."""
    rows = np.take_along_axis(target, images[..., :, None], axis=-2)
    return (np.take_along_axis(rows, images[..., None, :], axis=-1)
            <= source).all(axis=(-2, -1))


def compose(g: PointMap, f: PointMap) -> PointMap:
    """The map g after f."""
    _same_space("f's target and g's source", f.target, g.source)
    return PointMap(f.source, g.target, tuple(g(f(p)) for p in f.source.points))


def identity_map(space: FiniteMetricSpace) -> PointMap:
    return PointMap(space, space, space.points)


def _net_indices(space: FiniteMetricSpace, net) -> np.ndarray:
    """The sorted point indices of a net; EmptyNet when it has none."""
    idx = np.array(sorted({space.index(p) for p in net}), np.intp)  # np.unique imports numpy.ma
    if not idx.size:
        raise EmptyNet("net must be nonempty")
    return idx


def nearest_net_retraction(space: FiniteMetricSpace, net) -> PointMap:
    """Retract the space onto a net by nearest-point assignment.

    Ties go to the net point with the smallest index in the space's point
    order (argmin keeps the first minimum); net points are fixed, and no
    point moves farther than the covering radius of the net.
    """
    idx = _net_indices(space, net)
    nearest = idx[space.dist[:, idx].argmin(axis=1)]
    return PointMap(space, space, tuple(space.points[i] for i in nearest))


def covering_radius(space: FiniteMetricSpace, net) -> float:
    """max over points of the distance to the nearest net point."""
    return float(space.dist[:, _net_indices(space, net)].min(axis=1).max())
