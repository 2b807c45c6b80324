"""Homeomorphism between the tropical simplex and the probability simplex.

A point of the tropical simplex is a vector in [0,1]^n with max
coordinate 1 (the exponential coordinates of a canonical measure on an
n-point set).  The map decomposes such a vector radially around the
all-ones center: z = s*L + (1-s)*(1,...,1) with L on the tropical
boundary (some coordinate 0), sends L to the genuine simplex boundary by
central projection L / sum(L), and reuses the radial parameter around
the barycenter on the probability side.

The segment [L, (1,...,1)] meets the hyperplane sum(x) = 1 outside the
simplex when n >= 3 (L = (1,1,0) would give (1,1,-1)), so the boundary
leg is realized as the central projection instead; it is a bijection
between the two boundaries since sum(L) >= max(L) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInSimplex
from .measure import IdempotentMeasure

MEMBERSHIP_TOL = 1e-12


def _rows(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise NotInSimplex("need a nonempty coordinate vector")
    return X


def _tropical(Z) -> np.ndarray:
    Z = _rows(Z)
    if not ((Z >= 0.0).all() and (Z.max(axis=1) == 1.0).all()):
        raise NotInSimplex("coordinates must lie in [0,1] with max = 1")
    return Z


def _probability(P) -> np.ndarray:
    P = _rows(P)
    with np.errstate(over="ignore"):  # a sum that overflows fails the rule
        if not ((P >= 0.0).all()
                and (np.abs(P.sum(axis=1) - 1.0) <= MEMBERSHIP_TOL).all()):
            raise NotInSimplex("coordinates must be nonnegative and sum to 1")
    return P


@dataclass(frozen=True)
class GammaPoint:
    """Tropical-simplex coordinates: entries in [0,1], max exactly 1."""

    z: tuple[float, ...]

    def __post_init__(self):
        _tropical([self.z])


@dataclass(frozen=True)
class DeltaPoint:
    """Probability-simplex coordinates: nonnegative, summing to 1."""

    p: tuple[float, ...]

    def __post_init__(self):
        _probability([self.p])


def measure_to_gamma(mu: IdempotentMeasure) -> GammaPoint:
    """Exponential coordinates: z_i = exp(weight at point i), 0 if absent."""
    return GammaPoint(tuple(np.exp(mu.weights).tolist()))


def gamma_to_delta_rows(Z) -> np.ndarray:
    """The map on each row of an (m, n) array of tropical-simplex points."""
    Z = _tropical(Z)
    s = 1.0 - Z.min(axis=1, keepdims=True)
    s[s == 0.0] = 1.0              # the center: every s gives p = 1/n, and 1 avoids 0/0
    L = (Z - (1.0 - s)) / s        # tropical boundary: min 0, max 1
    Lp = L / L.sum(axis=1, keepdims=True)  # central projection onto sum(x) = 1
    P = s * Lp + (1.0 - s) / Z.shape[1]
    return _probability(np.maximum(P, 0.0))  # clamp last-ulp negatives


def delta_to_gamma_rows(P) -> np.ndarray:
    """The inverse map on each row of an (m, n) array of probability-simplex
    points.  A row with no coordinate below 1/n, and any row when n = 1,
    maps to the center (1, ..., 1): the formula's limit as s -> 0."""
    P = _probability(P)
    c = 1.0 / P.shape[1]
    dev = P - c
    below = dev < 0.0
    center = ~below.any(axis=1, keepdims=True) | (P.shape[1] == 1)
    # shoot the ray from the barycenter through p to the boundary
    t = np.divide(c, -dev, out=np.full_like(dev, np.inf), where=below)
    t = np.where(center, 1.0, t.min(axis=1, keepdims=True))
    b = np.maximum(c + t * dev, 0.0)  # boundary point; clamp last-ulp negatives
    s = 1.0 / t
    L = b / b.max(axis=1, keepdims=True)
    Z = s * L + (1.0 - s)
    Z[(L == 1.0) | center] = 1.0   # the center; keep the max-coordinate invariant exact
    return _tropical(Z)


def gamma_to_delta(g: GammaPoint) -> DeltaPoint:
    return DeltaPoint(tuple(gamma_to_delta_rows([g.z])[0].tolist()))


def delta_to_gamma(d: DeltaPoint) -> GammaPoint:
    return GammaPoint(tuple(delta_to_gamma_rows([d.p])[0].tolist()))
