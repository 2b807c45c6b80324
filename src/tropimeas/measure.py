"""Finitely supported idempotent (max-plus) measures and their monad.

A measure on a k-point space is its space plus one read-only float64
weight per point, -inf where the point carries no atom.  Measures are
kept in canonical form: some atom, and top weight exactly 0, so that
equality of measures is plain equality of weight vectors and the monad
laws hold exactly.  ``atoms`` lists the (point, weight) pairs of the
support in point order, for JSON and display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyMeasure,
    MissingValue,
    MixedSpaces,
    NotNormalized,
    SpaceMismatch,
)
from .metric import FiniteMetricSpace, PointMap
from .rmax import as_float

NEG_INF = -math.inf


@dataclass(frozen=True, eq=False)
class IdempotentMeasure:
    """Canonical finite-support max-plus measure on a finite metric space."""

    space: FiniteMetricSpace
    weights: np.ndarray  # (k,), read-only; -inf where no atom, max exactly 0

    @property
    def atoms(self) -> tuple[tuple[str, float], ...]:
        """The (point, weight) pairs of the support, in point order."""
        points = self.space.points
        return tuple((points[i], float(self.weights[i]))
                     for i in np.flatnonzero(self.weights > NEG_INF))

    def __eq__(self, other):
        if not isinstance(other, IdempotentMeasure):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.weights, other.weights)

    def __hash__(self):
        # atoms compare 0.0 and -0.0 equal, as array_equal does
        return hash((self.space, self.atoms))


def _from_weights(space: FiniteMetricSpace, weights: np.ndarray,
                  normalize: bool = False) -> IdempotentMeasure:
    """Freeze a fresh dense weight vector (-inf: no atom) into a measure.

    Raises EmptyMeasure without an atom.  A top weight other than 0
    raises NotNormalized, or with ``normalize=True`` is shifted to 0; a
    shift that overflows some atom's weight to -inf raises NotNormalized
    too, since that atom would silently vanish.
    """
    support = weights > NEG_INF
    if not support.any():
        raise EmptyMeasure("no atoms with finite weight")
    top = weights.max()
    if top != 0.0:
        if not normalize:
            raise NotNormalized(f"top weight is {top}, expected 0")
        with np.errstate(over="ignore"):
            weights = weights - top
        if (weights[support] == NEG_INF).any():
            raise NotNormalized(f"shifting the top weight {top} to 0 overflows "
                                "a weight to -inf")
    weights.setflags(write=False)
    return IdempotentMeasure(space, weights)


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

    phi is a dict {point: value} that covers the support, or a value
    table in point order.
    """
    support = np.flatnonzero(mu.weights > NEG_INF)
    if isinstance(phi, dict):
        points = [mu.space.points[i] for i in support]
        for p in points:
            if p not in phi:
                raise MissingValue(p)
        values = np.array([float(phi[p]) for p in points])
    else:
        arr = np.asarray(phi, dtype=float)
        if arr.shape != (len(mu.space),):
            raise MissingValue("value table does not match point set")
        values = arr[support]
    with np.errstate(over="ignore"):
        return float((values + mu.weights[support]).max())


def combine(pairs) -> IdempotentMeasure:
    """Max-plus combination oplus_i alpha_i odot mu_i.

    Coefficients must be normalized (max alpha = 0); pairs with bottom
    coefficient are dropped.  The result's weight at a point is the max
    over i of alpha_i + weight_i.
    """
    kept = []
    for alpha, mu in pairs:
        a = as_float(alpha)
        if a == NEG_INF:
            continue
        kept.append((a, mu))
    if not kept:
        raise EmptyMeasure("no pairs with finite coefficient")
    top = max(a for a, _ in kept)
    if top != 0.0:
        raise NotNormalized(f"max coefficient is {top}, expected 0")
    space = kept[0][1].space
    weights = np.full(len(space), NEG_INF)
    for a, mu in kept:
        if mu.space != space:
            raise MixedSpaces("measures live on different spaces")
        with np.errstate(over="ignore"):  # a weight below -1.8e308 is bottom
            np.maximum(weights, a + mu.weights, out=weights)
    return _from_weights(space, weights)


def pushforward(mu: IdempotentMeasure, f: PointMap) -> IdempotentMeasure:
    """Image measure along a point map: atoms move to f(x), merged by max."""
    if mu.space != f.source:
        raise SpaceMismatch("measure does not live on the map's source")
    weights = np.full(len(f.target), NEG_INF)
    np.maximum.at(weights, f.indices, mu.weights)
    return _from_weights(f.target, weights)


def support(mu: IdempotentMeasure) -> tuple[str, ...]:
    """The atom points (minimal carrier) in point order."""
    return tuple(p for p, _ in mu.atoms)


@dataclass(frozen=True)
class MetaMeasure:
    """Canonical measure whose atoms are themselves idempotent measures."""

    space: FiniteMetricSpace
    atoms: tuple[tuple[IdempotentMeasure, float], ...]  # top weight 0


def meta_measure(space: FiniteMetricSpace, raw_atoms, normalize: bool = False) -> MetaMeasure:
    """Canonicalize a measure on measures: dedup by measure equality,
    drop bottoms, top weight 0."""
    best: list[tuple[IdempotentMeasure, float]] = []
    for mu, w in raw_atoms:
        w = as_float(w)
        if w == NEG_INF:
            continue
        if mu.space != space:
            raise MixedSpaces("inner measure on a different space")
        for i, (nu, v) in enumerate(best):
            if nu == mu:
                if w > v:
                    best[i] = (mu, w)
                break
        else:
            best.append((mu, w))
    if not best:
        raise EmptyMeasure("no atoms with finite weight")
    top = max(w for _, w in best)
    if top != 0.0:
        if not normalize:
            raise NotNormalized(f"top weight is {top}, expected 0")
        best = [(mu, w - top) for mu, w in best]
    return MetaMeasure(space, tuple(best))


def flatten(M: MetaMeasure) -> IdempotentMeasure:
    """Monad multiplication: collapse a measure of measures via combine."""
    return combine((w, mu) for mu, w in M.atoms)


def dirac_lift(mu: IdempotentMeasure) -> MetaMeasure:
    """Push mu forward along the Dirac embedding: atoms (delta_x, weight)."""
    return meta_measure(
        mu.space, ((dirac(mu.space, p), w) for p, w in mu.atoms)
    )


def in_basic_neighborhood(nu: IdempotentMeasure, mu: IdempotentMeasure,
                          tests, epsilon: float) -> bool:
    """Membership in the weak* basic neighborhood <mu; tests; epsilon>."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return all(
        abs(integrate(mu, phi) - integrate(nu, phi)) < epsilon for phi in tests
    )
