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


@dataclass(frozen=True)
class GammaPoint:
    """Tropical-simplex coordinates: entries in [0,1], max exactly 1."""

    z: tuple[float, ...]

    def __post_init__(self):
        z = np.asarray(self.z)
        if z.ndim != 1 or z.size == 0:
            raise NotInSimplex("need a nonempty coordinate vector")
        if z.min() < 0.0 or z.max() != 1.0:
            raise NotInSimplex("coordinates must lie in [0,1] with max = 1")


@dataclass(frozen=True)
class DeltaPoint:
    """Probability-simplex coordinates: nonnegative, summing to 1."""

    p: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.p)
        if p.ndim != 1 or p.size == 0:
            raise NotInSimplex("need a nonempty coordinate vector")
        if p.min() < -MEMBERSHIP_TOL or abs(p.sum() - 1.0) > MEMBERSHIP_TOL:
            raise NotInSimplex("coordinates must be nonnegative and sum to 1")


def measure_to_gamma(mu: IdempotentMeasure) -> GammaPoint:
    """Exponential coordinates: z_i = exp(weight at point i), 0 if absent."""
    z = np.exp(mu.weights)
    return GammaPoint(tuple(float(x) for x in z))


def gamma_to_delta(g: GammaPoint) -> DeltaPoint:
    z = np.asarray(g.z)
    n = z.size
    s = 1.0 - z.min()
    if s == 0.0:
        return DeltaPoint(tuple([1.0 / n] * n))
    L = (z - (1.0 - s)) / s        # tropical boundary: min 0, max 1
    Lp = L / L.sum()               # central projection onto sum(x) = 1
    p = s * Lp + (1.0 - s) / n
    return DeltaPoint(tuple(float(x) for x in p))


def delta_to_gamma(d: DeltaPoint) -> GammaPoint:
    p = np.asarray(d.p, dtype=float)
    n = p.size
    c = 1.0 / n
    dev = p - c
    if np.abs(dev).max() == 0.0:
        return GammaPoint(tuple([1.0] * n))
    # shoot the ray from the barycenter through p to the boundary
    below = dev < 0.0
    t = float((c / -dev[below]).min())
    b = c + t * dev                # boundary point, some coordinate 0
    b = np.maximum(b, 0.0)         # clamp last-ulp negatives
    s = 1.0 / t
    L = b / b.max()
    z = s * L + (1.0 - s)
    z[L == 1.0] = 1.0              # keep the max-coordinate invariant exact
    return GammaPoint(tuple(float(x) for x in z))
