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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GroundNotMetric, SpaceMismatch, TooManyPoints
from .kernels import oracle_sweep
from .measure import IdempotentMeasure, MetaMeasure
from .metric import FiniteMetricSpace


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


def _closed_form(lam, kap, D, n):
    """Closed form on raw weight vectors and a cross-distance matrix.

    lam: (s,) weights of mu's atoms; kap: (t,) weights of nu's atoms;
    D: (s, t) distances between the atom points; n: Lipschitz level.
    Both one-sided tables are built independently so the computation is
    exactly symmetric under swapping the arguments.
    """
    lam = np.asarray(lam, dtype=float)
    kap = np.asarray(kap, dtype=float)
    nd = n * np.asarray(D, dtype=float)
    left = (lam[:, None] - kap[None, :] + nd).min(axis=1)   # per mu-atom
    right = (kap[None, :] - lam[:, None] + nd).min(axis=0)  # per nu-atom
    i = int(left.argmax())
    j = int(right.argmax())
    if left[i] >= right[j]:
        return float(left[i]), "left", i
    return float(right[j]), "right", j


def _check_same_space(mu, nu):
    if mu.space != nu.space:
        raise SpaceMismatch("measures live on different spaces")


def _cross_dist(space: FiniteMetricSpace, mu, nu):
    rows = [space.index(p) for p, _ in mu.atoms]
    cols = [space.index(p) for p, _ in nu.atoms]
    return space.dist[np.ix_(rows, cols)]


def hat_d(n: int, mu: IdempotentMeasure, nu: IdempotentMeasure) -> DistanceReport:
    """The dual pseudometric at Lipschitz level n (exact closed form)."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    _check_same_space(mu, nu)
    lam = np.array([w for _, w in mu.atoms])
    kap = np.array([w for _, w in nu.atoms])
    value, direction, atom = _closed_form(lam, kap, _cross_dist(mu.space, mu, nu), n)
    return DistanceReport(int(n), value, direction, atom)


def tilde_d(n: int, mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """The normalized distance hat_d / n."""
    return hat_d(n, mu, nu).value / n


def aggregate_d(mu: IdempotentMeasure, nu: IdempotentMeasure, tol: float) -> float:
    """The aggregate metric sum_k tilde_d_k / 2^k, truncated below tol.

    Each term is bounded by diam + W (W = largest absolute weight), so
    truncating at N with (diam + W) * 2^-N < tol bounds the tail by tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_same_space(mu, nu)
    W = max(abs(w) for _, w in mu.atoms + nu.atoms)
    bound = mu.space.diameter + W
    N = 1
    while bound * 2.0 ** -N >= tol:
        N += 1
    return sum(tilde_d(k, mu, nu) / 2.0 ** k for k in range(1, N + 1))


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
    W = max(abs(w) for _, w in mu.atoms + nu.atoms)
    half_range = W + n * space.diameter
    return oracle_sweep(space.dist, n, mu.weight_vector(), nu.weight_vector(),
                        half_range, grid_step)


def hausdorff_support_distance(mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """Hausdorff distance between the supports (used as a cross-check:
    with all weights 0, hat_d(n, mu, nu) = n times this value)."""
    _check_same_space(mu, nu)
    D = _cross_dist(mu.space, mu, nu)
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


def hat_d_meta(n: int, ground_n: int, M: MetaMeasure, N: MetaMeasure) -> float:
    """Iterated dual distance on measures of measures.

    Ground points are the distinct support measures of M and N, ground
    distance is tilde_d(ground_n); the same closed form applies because
    an n-Lipschitz function on the finite support extends to all
    measures with the same constant (McShane), so the restricted
    supremum equals the full one.  Emits a GroundNotMetric warning when
    two distinct support measures sit at ground distance 0 (then the
    ground structure is only a pseudometric) and proceeds.
    """
    if M.space != N.space:
        raise SpaceMismatch("meta-measures over different ground spaces")
    ground: list[IdempotentMeasure] = []

    def locate(mu):
        for i, nu in enumerate(ground):
            if nu == mu:
                return i
        ground.append(mu)
        return len(ground) - 1

    m_idx = [(locate(mu), w) for mu, w in M.atoms]
    n_idx = [(locate(mu), w) for mu, w in N.atoms]
    G = np.zeros((len(ground), len(ground)))
    for i in range(len(ground)):
        for j in range(i + 1, len(ground)):
            G[i, j] = G[j, i] = tilde_d(ground_n, ground[i], ground[j])
            if G[i, j] == 0.0:
                warnings.warn(
                    "distinct support measures at ground distance 0",
                    GroundNotMetric,
                )
    lam = np.array([w for _, w in m_idx])
    kap = np.array([w for _, w in n_idx])
    D = G[np.ix_([i for i, _ in m_idx], [j for j, _ in n_idx])]
    value, _, _ = _closed_form(lam, kap, D, n)
    return value


def separates(mu: IdempotentMeasure, nu: IdempotentMeasure,
              n_max: int) -> int | None:
    """The least n <= n_max with hat_d(n, mu, nu) > 0, or None."""
    _check_same_space(mu, nu)
    for n in range(1, n_max + 1):
        if hat_d(n, mu, nu).value > 0.0:
            return n
    return None
