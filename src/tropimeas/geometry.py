"""Max-plus convex structure, contraction homotopies, and the
disjoint-approximation demonstration (discretize vs saturate)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LambdaPositive, NetIsWholeSpace, NotNormalized
from .measure import (
    IdempotentMeasure,
    _from_weights,
    combine,
    pushforward,
    support,
    uniform_j,
)
from .metric import (
    FiniteMetricSpace,
    covering_radius,
    nearest_net_retraction,
)
from .pseudometric import hat_d
from .rmax import as_float


@dataclass(frozen=True)
class CStructureQuery:
    """Generators plus normalized max-plus coefficients (max = 0)."""

    generators: tuple[IdempotentMeasure, ...]
    coefficients: tuple  # floats, -inf for bottom, max exactly 0

    def __post_init__(self):
        if len(self.generators) != len(self.coefficients):
            raise ValueError("one coefficient per generator required")
        finite = [as_float(a) for a in self.coefficients]
        if not finite or max(finite) != 0.0:
            raise NotNormalized("max coefficient must be exactly 0")


def f_set_element(q: CStructureQuery) -> IdempotentMeasure:
    """An element of the max-plus convex hull of the generators."""
    return combine(zip(q.coefficients, q.generators))


def max_of(A) -> IdempotentMeasure:
    """Pointwise max of a family of measures (all coefficients 0);
    dominates every member."""
    A = list(A)
    return combine((0.0, mu) for mu in A)


def homotopy_H(mu: IdempotentMeasure, mu0: IdempotentMeasure, lam) -> IdempotentMeasure:
    """The contraction step mu oplus (lam odot mu0), lam in [-inf, 0].

    lam = -inf returns mu unchanged; lam = 0 returns mu oplus mu0, which
    is mu0 itself when mu0 dominates mu.
    """
    lam = as_float(lam)
    if lam > 0.0:
        raise LambdaPositive(f"lambda must be <= 0, got {lam}")
    return combine([(0.0, mu), (lam, mu0)])


def saturate_g2(mu: IdempotentMeasure, lam) -> IdempotentMeasure:
    """Blend mu with the all-points zero-weight measure at level lam.

    The result has full support; its distance to mu at Lipschitz level n
    is at most max(0, lam + n*diam).
    """
    lam = as_float(lam)
    if lam > 0.0:
        raise LambdaPositive(f"lambda must be <= 0, got {lam}")
    if lam == -np.inf:
        raise LambdaPositive("lambda must be finite for full-support saturation")
    return homotopy_H(mu, uniform_j(mu.space), lam)


def discretize_g1(mu: IdempotentMeasure, net) -> IdempotentMeasure:
    """Push mu forward along the nearest-point retraction onto a net.

    The support lands inside the net and the displacement at Lipschitz
    level n is at most n times the covering radius of the net.
    """
    r = nearest_net_retraction(mu.space, net)
    return pushforward(mu, r)


@dataclass(frozen=True)
class DapReport:
    epsilon_used: float
    g1_image_supports: tuple[tuple[str, ...], ...]
    g2_image_supports: tuple[tuple[str, ...], ...]
    disjoint: bool
    displacement_bound_g1: float
    displacement_bound_g2: float
    max_displacement_g1: float
    max_displacement_g2: float


def random_measure(space: FiniteMetricSpace, rng: np.random.Generator,
                   min_weight: float = -3.0) -> IdempotentMeasure:
    """A random canonical measure: nonempty point subset, weights in
    [min_weight, 0], normalized.  Dyadic weights (multiples of 1/256)
    keep the normalizing shift and downstream max/plus arithmetic exact."""
    k = len(space)
    mask = rng.random(k) < 0.6
    if not mask.any():
        mask[rng.integers(k)] = True
    weights = rng.integers(round(min_weight * 256), 1, size=k) / 256.0
    return _from_weights(space, np.where(mask, weights, -np.inf), normalize=True)


def dap_demo(space: FiniteMetricSpace, net, lam, samples: int, n: int,
             rng: np.random.Generator | None = None) -> DapReport:
    """Sample measures, apply the discretize/saturate pair, and certify
    that the two images are disjoint.

    Every saturated image has full support while every discretized image
    is supported inside the proper net, so the image sets cannot meet.
    """
    net = tuple(net)
    if set(net) == set(space.points):
        raise NetIsWholeSpace("net must be a proper subset for the certificate")
    lam = as_float(lam)
    if rng is None:
        rng = np.random.default_rng(0)
    rad = covering_radius(space, net)
    bound_g1 = n * rad
    bound_g2 = max(0.0, lam + n * space.diameter)
    g1_supports = []
    g2_supports = []
    disp1 = 0.0
    disp2 = 0.0
    ok = True
    for _ in range(samples):
        mu = random_measure(space, rng)
        g1 = discretize_g1(mu, net)
        g2 = saturate_g2(mu, lam)
        s1 = support(g1)
        s2 = support(g2)
        g1_supports.append(s1)
        g2_supports.append(s2)
        ok = ok and set(s1) <= set(net) and s2 == space.points
        disp1 = max(disp1, hat_d(n, g1, mu).value)
        disp2 = max(disp2, hat_d(n, g2, mu).value)
    return DapReport(
        epsilon_used=max(bound_g1, bound_g2),
        g1_image_supports=tuple(g1_supports),
        g2_image_supports=tuple(g2_supports),
        disjoint=ok,
        displacement_bound_g1=bound_g1,
        displacement_bound_g2=bound_g2,
        max_displacement_g1=disp1,
        max_displacement_g2=disp2,
    )
