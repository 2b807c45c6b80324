"""Finitely supported idempotent (max-plus) measures and their monad.

A measure on a k-point space is its space plus one read-only float64
weight per point, -inf where the point carries no atom.  Measures are
kept in canonical form: some atom, top weight exactly 0 and no -0.0, so
that one byte comparison of the weights decides equality and the monad
laws hold exactly.  The support is derived once (`_support`) and stored,
``atom_indices`` and ``atom_weights`` in point order, for every reader;
``atoms`` lists its (point, weight) pairs, a MetaMeasure's its ground.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyMeasure, NotNormalized
from .metric import FiniteMetricSpace, PointMap, _same_space, _values
from .rmax import as_float

NEG_INF = -math.inf


@dataclass(frozen=True, eq=False)
class IdempotentMeasure:
    """Canonical finite-support max-plus measure on a finite metric space."""

    space: FiniteMetricSpace
    weights: np.ndarray  # (k,), read-only; -inf where no atom, max exactly 0
    atom_indices: np.ndarray = field(init=False, compare=False, repr=False)  # read-only
    atom_weights: np.ndarray = field(init=False, compare=False, repr=False)  # read-only

    def __post_init__(self):
        self.weights.setflags(write=False)
        for name, a in zip(("atom_indices", "atom_weights"), _support(self.weights)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def atoms(self) -> tuple[tuple[str, float], ...]:
        """The (point, weight) pairs of the support, in point order."""
        points = self.space.points
        return tuple((points[i], w)
                     for i, w in zip(self.atom_indices.tolist(), self.atom_weights.tolist()))

    def __eq__(self, other):
        if not isinstance(other, IdempotentMeasure):
            return NotImplemented
        return self.space == other.space and self.weights.tobytes() == other.weights.tobytes()

    def __hash__(self):
        return hash((self.space, self.weights.tobytes()))


def _support(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indices, weights): the atoms of dense weights (k,), in point order.
    The one reader of the rule "an atom is a weight above -inf" for a
    single table; _canonical_weights applies the same rule row by row to
    stacks (..., k)."""
    at = np.flatnonzero(weights > NEG_INF)
    return at, weights[at]


def _canonical_weights(weights: np.ndarray, normalize: bool = False) -> np.ndarray:
    """Weight tables (-inf: no atom) in canonical form: some atom, top 0.

    `weights` is one table (k,) or a stack (..., k), checked row by row.
    A row without an atom raises EmptyMeasure.  A top weight other than 0
    raises NotNormalized, or with ``normalize=True`` is shifted to 0; a
    shift that overflows some atom's weight to -inf raises NotNormalized
    too, since that atom would silently vanish.  The first bad row, in
    row-major order, raises the error it would raise alone.
    """
    top = weights.max(axis=-1, initial=NEG_INF, keepdims=True)
    off = top != 0.0  # also in rows without an atom, whose top is -inf
    if not off.any():
        return weights
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = weights - np.where(off, top, 0.0)
    # no atom, or an atom that the shift pushes to -inf
    bad = (top[..., 0] == NEG_INF) | ((shifted > NEG_INF) != (weights > NEG_INF)).any(axis=-1)
    if not normalize:
        bad |= off[..., 0]
    if bad.any():
        b = np.unravel_index(int(bad.argmax()), bad.shape)
        if top[b][0] == NEG_INF:
            raise EmptyMeasure("no atoms with finite weight")
        if not normalize:
            raise NotNormalized(f"top weight is {top[b][0]}, expected 0")
        raise NotNormalized(f"shifting the top weight {top[b][0]} to 0 overflows "
                            "a weight to -inf")
    return shifted


def _from_weights(space: FiniteMetricSpace, weights: np.ndarray,
                  normalize: bool = False) -> IdempotentMeasure:
    """Freeze a fresh weight vector, checked by _canonical_weights, into a measure."""
    return IdempotentMeasure(space, _canonical_weights(weights, normalize))


def canonicalize(space: FiniteMetricSpace, raw_atoms, normalize: bool = False) -> IdempotentMeasure:
    """Merge duplicate points by max, drop bottoms, enforce top weight 0.

    In strict mode (default) a top weight other than 0 raises
    NotNormalized; with ``normalize=True`` all weights are shifted so the
    top becomes 0.
    """
    weights = np.full(len(space), NEG_INF)
    for point, w in raw_atoms:
        w = as_float(w)
        if w == NEG_INF:
            continue
        i = space.index(point)
        weights[i] = max(weights[i], w)
    return _from_weights(space, weights, normalize)


def dirac(space: FiniteMetricSpace, point: str) -> IdempotentMeasure:
    """The Dirac measure concentrated at a point."""
    weights = np.full(len(space), NEG_INF)
    weights[space.index(point)] = 0.0
    return _from_weights(space, weights)


def uniform_j(space: FiniteMetricSpace) -> IdempotentMeasure:
    """The measure with a zero-weight atom at every point (phi -> max phi)."""
    return _from_weights(space, np.zeros(len(space)))


def integrate(mu: IdempotentMeasure, phi) -> float:
    """Maslov integral: max over atoms of phi(x) + weight.

    phi is read by `metric._values` on the support only: a dict needs no
    value off the support, and only the support's values must be finite.
    """
    values = _values(phi, mu.space, mu.atom_indices)
    with np.errstate(over="ignore"):
        return float((values + mu.atom_weights).max())


def combine(pairs) -> IdempotentMeasure:
    """Max-plus combination oplus_i alpha_i odot mu_i: the weight at a
    point is the max over i of alpha_i + weight_i.  Pairs with bottom
    coefficient are dropped, max alpha must be 0 (each mu_i has top 0),
    and an alpha_i + weight_i that overflows to -inf raises NotNormalized.
    """
    pairs = [(a, mu) for a, mu in ((as_float(a), mu) for a, mu in pairs) if a > NEG_INF]
    if not pairs:
        raise EmptyMeasure("no pairs with finite coefficient")
    _same_space("measures", *(mu.space for _, mu in pairs))
    return IdempotentMeasure(pairs[0][1].space, _combine((a, mu.weights) for a, mu in pairs))


def _combine(pairs) -> np.ndarray:
    """combine's rule on weight rows: pairs (alpha, w) of coefficients (...)
    and rows (..., k) give the canonical rows max_i alpha_i + w_i, taken in
    place.  The first bad row, in row-major order, raises combine's error
    for it: its first alpha + w that overflows to -inf, or _canonical_weights'."""
    pairs = [(np.asarray(a, dtype=float)[..., None], w) for a, w in pairs]
    try:
        with np.errstate(over="raise"):  # -inf + w sets no flag
            out = pairs[0][0] + pairs[0][1]
            for a, w in pairs[1:]:
                np.maximum(out, a + w, out=out)
    except FloatingPointError:  # the pairs broadcast to one shape, as (rows, k) tables
        flat = [x.reshape(-1, x.shape[-1])
                for x in np.broadcast_arrays(*(x for pair in pairs for x in pair))]
        alphas, rows = flat[::2], flat[1::2]
        with np.errstate(over="ignore"):
            terms = [a + w for a, w in zip(alphas, rows)]
        lost = [(np.isinf(t) & np.isfinite(a) & np.isfinite(w)).any(axis=-1)
                for t, a, w in zip(terms, alphas, rows)]  # the rows where a pair overflows
        b = int(np.logical_or.reduce(lost).argmax())
        _canonical_weights(np.maximum.reduce(terms)[:b])
        a = next(a[b, 0] for a, hit in zip(alphas, lost) if hit[b])
        raise NotNormalized(f"coefficient {float(a)} plus a weight overflows to -inf") from None
    return _canonical_weights(out)


def pushforward(mu: IdempotentMeasure, f: PointMap) -> IdempotentMeasure:
    """Image measure along a point map: atoms move to f(x), merged by max."""
    _same_space("the measure and the map's source", f.source, mu.space)
    return IdempotentMeasure(f.target, _push(mu.weights, f.indices, len(f.target)))


def _push(weights, images, size: int) -> np.ndarray:
    """pushforward's merge of weight rows (..., k) along images (..., k) into
    canonical rows (..., size); the first bad row raises _canonical_weights'."""
    out = np.full(weights.shape[:-1] + (size,), NEG_INF)
    # the images in the flat rows of out (one row: offset 0)
    images = np.arange(0, out.size, size).reshape(weights.shape[:-1] + (1,)) + images
    np.maximum.at(out.reshape(-1), images, weights)
    return _canonical_weights(out)


def support(mu: IdempotentMeasure) -> tuple[str, ...]:
    """The atom points (minimal carrier) in point order."""
    return tuple(p for p, _ in mu.atoms)


@dataclass(frozen=True)
class MetaMeasure:
    """Canonical measure whose atoms are themselves idempotent measures."""

    space: FiniteMetricSpace
    ground: tuple[IdempotentMeasure, ...]  # the distinct support measures
    weights: tuple[float, ...]  # one per ground measure, top exactly 0

    def __post_init__(self):
        _same_space("a meta-measure and its ground measures", self.space,
                    *(mu.space for mu in self.ground))

    @property
    def atoms(self) -> tuple[tuple[IdempotentMeasure, float], ...]:
        """The (measure, weight) pairs of the support."""
        return tuple(zip(self.ground, self.weights))


def meta_measure(space: FiniteMetricSpace, raw_atoms, normalize: bool = False) -> MetaMeasure:
    """Canonicalize a measure on measures: dedup by measure equality,
    drop bottoms, top weight 0."""
    ground, best = [], []  # the distinct measures and their top weights
    for mu, w in raw_atoms:
        w = as_float(w)
        if w == NEG_INF:
            continue
        i = next((j for j, nu in enumerate(ground) if nu == mu), len(ground))
        if i == len(ground):
            ground.append(mu)
            best.append(w)
        best[i] = max(best[i], w)
    weights = _canonical_weights(np.array(best), normalize)
    return MetaMeasure(space, tuple(ground), tuple(map(float, weights)))


def flatten(M: MetaMeasure) -> IdempotentMeasure:
    """Monad multiplication: collapse a measure of measures via combine."""
    return combine(zip(M.weights, M.ground))


def dirac_lift(mu: IdempotentMeasure) -> MetaMeasure:
    """Push mu forward along the Dirac embedding: atoms (delta_x, weight)."""
    return meta_measure(
        mu.space, ((dirac(mu.space, p), w) for p, w in mu.atoms)
    )


def in_basic_neighborhood(nu: IdempotentMeasure, mu: IdempotentMeasure,
                          tests, epsilon: float) -> bool:
    """Membership in the weak* basic neighborhood <mu; tests; epsilon>: both
    measures on one space (SpaceMismatch) and epsilon > 0 (ValueError)."""
    if not epsilon > 0:  # refuses nan too
        raise ValueError("epsilon must be positive")
    _same_space("measures", mu.space, nu.space)
    return all(
        abs(integrate(mu, phi) - integrate(nu, phi)) < epsilon for phi in tests
    )
