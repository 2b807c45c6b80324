"""Max-plus convex structure, contraction homotopies, and the
disjoint-approximation demonstration (discretize vs saturate)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LambdaPositive, NetIsWholeSpace
from .measure import (
    IdempotentMeasure,
    _canonical_weights,
    _from_weights,
    combine,
    pushforward,
    uniform_j,
)
from .metric import (
    FiniteMetricSpace,
    _level,
    _net_indices,
    covering_radius,
    nearest_net_retraction,
)
from .pseudometric import hat_d
from .rmax import as_float


MAX_COUNT = 100_000  # the most dap_demo samples or suite instances held at once


@dataclass(frozen=True)
class CStructureQuery:
    """Generators plus normalized max-plus coefficients (max = 0)."""

    generators: tuple[IdempotentMeasure, ...]
    coefficients: tuple  # floats, -inf for bottom, max exactly 0

    def __post_init__(self):
        if len(self.generators) != len(self.coefficients):
            raise ValueError("one coefficient per generator required")
        _canonical_weights(np.array([as_float(a) for a in self.coefficients]))


def f_set_element(q: CStructureQuery) -> IdempotentMeasure:
    """An element of the max-plus convex hull of the generators."""
    return combine(zip(q.coefficients, q.generators))


def max_of(A) -> IdempotentMeasure:
    """Pointwise max of a family of measures (all coefficients 0);
    dominates every member."""
    return combine((0.0, mu) for mu in A)


def _lambda(lam, saturating: bool = False) -> float:
    """lam as a float: lam <= 0, and finite when saturating, else LambdaPositive."""
    lam = as_float(lam)
    if lam > 0.0:
        raise LambdaPositive(f"lambda must be <= 0, got {lam}")
    if saturating and lam == -np.inf:
        raise LambdaPositive("lambda must be finite for full-support saturation")
    return lam


def homotopy_H(mu: IdempotentMeasure, mu0: IdempotentMeasure, lam) -> IdempotentMeasure:
    """The contraction step mu oplus (lam odot mu0), lam in [-inf, 0].

    lam = -inf returns mu unchanged; lam = 0 returns mu oplus mu0, which
    is mu0 itself when mu0 dominates mu.
    """
    return combine([(0.0, mu), (_lambda(lam), mu0)])


def saturate_g2(mu: IdempotentMeasure, lam) -> IdempotentMeasure:
    """Blend mu with the all-points zero-weight measure at level lam.

    The result has full support; its distance to mu at Lipschitz level n
    is at most max(0, lam + n*diam).
    """
    return homotopy_H(mu, uniform_j(mu.space), _lambda(lam, saturating=True))


def discretize_g1(mu: IdempotentMeasure, net) -> IdempotentMeasure:
    """Push mu forward along the nearest-point retraction onto a net.

    The support lands inside the net and the displacement at Lipschitz
    level n is at most n times the covering radius of the net.
    """
    r = nearest_net_retraction(mu.space, net)
    return pushforward(mu, r)


@dataclass(frozen=True)
class DapReport:
    disjoint: bool
    displacement_bound_g1: float
    displacement_bound_g2: float
    max_displacement_g1: float
    max_displacement_g2: float


def _dyadic(rng: np.random.Generator, low: float, high: float, size=None):
    """Uniform multiples of 1/256 in [low, high]: every random weight,
    coefficient and lambda is one, so max/plus arithmetic on them and
    their normalizing shifts stay exact."""
    return rng.integers(round(low * 256), round(high * 256) + 1, size) / 256.0


def _draw_weights(rng: np.random.Generator, k, size=None,
                  min_weight: float = -3.0) -> np.ndarray:
    """random_measure's draw, before the normalizing shift: weight rows of
    shape `size` (default (k,), one row), -inf off a random nonempty subset
    of each row's first k points (k broadcasts against size[:-1]).  Drawn in
    this order: the mask block rng.random(size) < 0.6; an atom at
    rng.integers(k) in each row left without one, in row-major order; the
    _dyadic weight block."""
    size = (k,) if size is None else size
    mask = (rng.random(size) < 0.6) & (np.arange(size[-1]) < np.asarray(k)[..., None])
    has = mask.any(axis=-1)
    if not has.all():
        empty = np.flatnonzero(~has)
        at = rng.integers(np.broadcast_to(k, has.shape).reshape(-1)[empty])
        mask.reshape(-1, size[-1])[empty, at] = True
    return np.where(mask, _dyadic(rng, min_weight, 0.0, size), -np.inf)


def random_measure(space: FiniteMetricSpace, rng: np.random.Generator,
                   min_weight: float = -3.0) -> IdempotentMeasure:
    """A random canonical measure: nonempty point subset, dyadic weights
    in [min_weight, 0] (see _dyadic), normalized."""
    return _from_weights(space, _draw_weights(rng, len(space), min_weight=min_weight),
                         normalize=True)


def _dap_certificate(space: FiniteMetricSpace, net, lam: float, n: int,
                     measures) -> DapReport:
    """The discretize/saturate pair on each of `measures`: disjoint when no
    G1 image (onto `net`) has an atom off the net and every G2 image (at
    `lam`) has one at every point; the largest displacements at level n."""
    bounds = (n * covering_radius(space, net), max(0.0, lam + n * space.diameter))
    if not np.isfinite(bounds).all():
        raise ValueError("displacement bound n * radius or n * diameter is not finite")
    r = nearest_net_retraction(space, net)
    off_net = np.ones(len(space), dtype=bool)
    off_net[_net_indices(space, net)] = False
    ok, disp1, disp2 = True, 0.0, 0.0
    for mu in measures:
        g1 = pushforward(mu, r)
        g2 = saturate_g2(mu, lam)
        ok = ok and not off_net[g1.atom_indices].any() and len(g2.atom_indices) == len(space)
        disp1 = max(disp1, hat_d(n, g1, mu).value)
        disp2 = max(disp2, hat_d(n, g2, mu).value)
    return DapReport(ok, *bounds, disp1, disp2)


def dap_demo(space: FiniteMetricSpace, net, lam, samples: int, n: int,
             rng: np.random.Generator) -> DapReport:
    """Sample measures, apply the discretize/saturate pair, and certify
    that the two images are disjoint.

    Every saturated image has full support while every discretized image
    is supported inside the proper net, so the image sets cannot meet.
    """
    net = tuple(net)
    if set(net) == set(space.points):
        raise NetIsWholeSpace("net must be a proper subset for the certificate")
    lam = _lambda(lam, saturating=True)
    n = _level(n)
    if not 0 <= samples <= MAX_COUNT:
        raise ValueError(f"samples must lie in 0..{MAX_COUNT}")
    return _dap_certificate(space, net, lam, n,
                            (random_measure(space, rng) for _ in range(samples)))
