"""Lipschitz-dual pseudometrics on spaces of idempotent measures.

The distance at Lipschitz level n is the supremum of |mu(phi) - nu(phi)|
over n-Lipschitz test functions.  On finitely supported measures it has
an exact closed form over the atom pairs:

    max( max_i min_j (lam_i - kap_j + n*d(x_i, y_j)),
         max_j min_i (kap_j - lam_i + n*d(x_i, y_j)) )

The upper bound comes from the Lipschitz constraint, attainment from the
cone witness phi(z) = -n*d(x_i*, z).  A brute-force grid oracle
(:func:`oracle_sup`) stays available as an independent check; releases
are gated on the sandwich oracle <= closed form <= oracle + 2*step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GroundNotMetric, SpaceMismatch, TooManyPoints
from .kernels import oracle_sweep
from .measure import IdempotentMeasure, MetaMeasure


@dataclass(frozen=True)
class DistanceReport:
    """A dual-distance value plus the witness that attains it.

    witness_direction is "left" when the mu-side one-sided supremum wins
    (ties break toward "left"), witness_atom the index of the attaining
    atom on that side, in atom order.
    """

    n: int
    value: float
    witness_direction: str
    witness_atom: int


def _closed_form(D, wmu, wnu, n):
    """Closed form on a ground distance matrix and dense weight vectors.

    D: (k, k) ground distances; wmu, wnu: (k,) weights, -inf where a
    measure has no atom; n: Lipschitz level.  Only the support rows of
    mu and columns of nu enter, and the witness index counts atoms in
    point order.  Both one-sided tables are built independently so the
    computation is exactly symmetric under swapping the arguments.  A
    value that overflows to inf raises ValueError.
    """
    rows, cols = wmu > -np.inf, wnu > -np.inf
    lam, kap = wmu[rows], wnu[cols]
    with np.errstate(over="ignore"):
        nd = n * D[np.ix_(rows, cols)]
        left = (lam[:, None] - kap[None, :] + nd).min(axis=1)   # per mu-atom
        right = (kap[None, :] - lam[:, None] + nd).min(axis=0)  # per nu-atom
    i = int(left.argmax())
    j = int(right.argmax())
    if left[i] >= right[j]:
        value, direction, atom = left[i], "left", i
    else:
        value, direction, atom = right[j], "right", j
    if not math.isfinite(value):
        raise ValueError(f"dual distance at level {n} is not finite: {value}")
    return float(value), direction, atom


def _check_same_space(mu, nu):
    if mu.space != nu.space:
        raise SpaceMismatch("measures live on different spaces")


def _largest_weight(*weights) -> float:
    """The largest absolute atom weight over dense weight vectors."""
    return max(float(np.abs(w[w > -np.inf]).max()) for w in weights)


def hat_d(n: int, mu: IdempotentMeasure, nu: IdempotentMeasure) -> DistanceReport:
    """The dual pseudometric at Lipschitz level n (exact closed form)."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    _check_same_space(mu, nu)
    value, direction, atom = _closed_form(mu.space.dist, mu.weights, nu.weights, n)
    return DistanceReport(int(n), value, direction, atom)


def tilde_d(n: int, mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """The normalized distance hat_d / n."""
    return hat_d(n, mu, nu).value / n


def aggregate_d(mu: IdempotentMeasure, nu: IdempotentMeasure, tol: float) -> float:
    """The aggregate metric sum_k tilde_d_k / 2^k, truncated below tol.

    Each term is bounded by diam + W (W = largest absolute weight), so
    truncating at N with (diam + W) * 2^-N < tol bounds the tail by tol.
    Terms are scaled with ldexp, exact for powers of two at any k; a
    bound or sum that is not finite raises ValueError.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    _check_same_space(mu, nu)
    bound = mu.space.diameter + _largest_weight(mu.weights, nu.weights)
    if not math.isfinite(bound):
        raise ValueError(f"diameter plus largest weight overflows: {bound}")
    N = 1
    while math.ldexp(bound, -N) >= tol:
        N += 1
    # the terms are >= 0, so the sum is finite only if every term is
    total = sum(math.ldexp(tilde_d(k, mu, nu), -k) for k in range(1, N + 1))
    if not math.isfinite(total):
        raise ValueError(f"aggregate metric is not finite: {total}")
    return total


def oracle_sup(n: int, mu: IdempotentMeasure, nu: IdempotentMeasure,
               grid_step: float) -> float:
    """Brute-force lower bound on hat_d by sweeping a grid of seed tables.

    Each seed is projected onto the n-Lipschitz cone and the integral gap
    evaluated; the extremal functions have exactly that projected form,
    so the sweep converges to hat_d as grid_step -> 0 (within 2*grid_step
    for the stated range).  Refuses spaces with more than 4 points: the
    grid is exponential in the point count.  Raises GridTooLarge when the
    grid would exceed the kernel's seed budget.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    _check_same_space(mu, nu)
    space = mu.space
    if len(space) > 4:
        raise TooManyPoints("oracle_sup is limited to spaces with <= 4 points")
    return grid_oracle(space.dist, mu.weights, nu.weights, n, grid_step)


def grid_oracle(D, wmu, wnu, n: int, step: float) -> float:
    """The grid sweep on a ground distance matrix and dense weights, over
    the range that holds the extremal functions: half range = largest
    absolute weight + n * diameter."""
    half_range = _largest_weight(wmu, wnu) + n * float(D.max())
    return oracle_sweep(D, n, wmu, wnu, half_range, step)


def hausdorff_support_distance(mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """Hausdorff distance between the supports (used as a cross-check:
    with all weights 0, hat_d(n, mu, nu) = n times this value)."""
    _check_same_space(mu, nu)
    D = mu.space.dist[np.ix_(mu.weights > -np.inf, nu.weights > -np.inf)]
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


def meta_ground(ground_n: int, M: MetaMeasure, N: MetaMeasure):
    """The induced ground of the iterated distance between M and N.

    Returns (G, wm, wn): the distinct support measures in first-appearance
    order (M's atoms, then N's) with G their tilde_d(ground_n) distance
    matrix, and M's and N's weights on them, -inf where a measure carries
    no atom.  Emits a GroundNotMetric warning when two distinct support
    measures sit at ground distance 0 (then the ground structure is only
    a pseudometric).
    """
    if M.space != N.space:
        raise SpaceMismatch("meta-measures over different ground spaces")
    ground: list[IdempotentMeasure] = []
    located = []  # ground index and weight of each atom of M, then of N
    for mu, w in M.atoms + N.atoms:
        i = next((j for j, known in enumerate(ground) if known == mu), len(ground))
        if i == len(ground):
            ground.append(mu)
        located.append((i, w))
    k = len(ground)
    G = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            G[i, j] = G[j, i] = tilde_d(ground_n, ground[i], ground[j])
            if G[i, j] == 0.0:
                warnings.warn(
                    "distinct support measures at ground distance 0",
                    GroundNotMetric,
                )
    wm = np.full(k, -np.inf)
    wn = np.full(k, -np.inf)
    for pos, (i, w) in enumerate(located):
        weights = wm if pos < len(M.atoms) else wn
        weights[i] = max(weights[i], w)
    return G, wm, wn


def hat_d_meta(n: int, ground_n: int, M: MetaMeasure, N: MetaMeasure) -> float:
    """Iterated dual distance on measures of measures.

    Ground points are the distinct support measures of M and N, ground
    distance is tilde_d(ground_n) (see :func:`meta_ground`); the same
    closed form applies because an n-Lipschitz function on the finite
    support extends to all measures with the same constant (McShane), so
    the restricted supremum equals the full one.
    """
    value, _, _ = _closed_form(*meta_ground(ground_n, M, N), n)
    return value


def separates(mu: IdempotentMeasure, nu: IdempotentMeasure,
              n_max: int) -> int | None:
    """The least n <= n_max with hat_d(n, mu, nu) > 0, or None."""
    _check_same_space(mu, nu)
    for n in range(1, n_max + 1):
        if hat_d(n, mu, nu).value > 0.0:
            return n
    return None
