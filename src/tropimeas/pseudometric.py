"""Lipschitz-dual pseudometrics on spaces of idempotent measures.

The distance at Lipschitz level n is the supremum of |mu(phi) - nu(phi)|
over n-Lipschitz test functions.  On finitely supported measures it has
an exact closed form over the atom pairs:

    max( max_i min_j (lam_i - kap_j + n*d(x_i, y_j)),
         max_j min_i (kap_j - lam_i + n*d(x_i, y_j)) )

The upper bound comes from the Lipschitz constraint, attainment from the
cone witness phi(z) = -n*d(x_i*, z).  Three entry points evaluate it:
`_closed_form`, one level with its witness (for `hat_d`, `meta_ground` and
`hat_d_meta`); `_walk`, the values at several levels over a pruned table
(for `aggregate_d` and `dist --emit-csv`); and `hat_d_stack`, a stack of
padded pairs (for the suite's stacked checks).  A brute-force grid oracle
(:func:`oracle_sup`) stays available as an independent check; releases
are gated on the sandwich oracle <= closed form <= oracle + 2*step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GroundNotMetric
from .kernels import oracle_sweep
from .measure import IdempotentMeasure, MetaMeasure
from .metric import _level, _same_space


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


def _one_sided(sub, gap, n):
    """The closed form's one kernel on (..., s, t) tables of ground
    distances and weight gaps lam - kap: the minima of gap + n*d per
    mu-atom and of n*d - gap per nu-atom.

    Absent or padded atoms carry -inf weight, so their terms are +-inf
    or nan; fmin skips nan, and the +inf terms lose to any atom's finite
    term.  n*d - gap equals (kap - lam) + n*d up to the sign of a zero, so
    the result is symmetric in mu and nu.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        nd = n * sub
        return np.fmin.reduce(gap + nd, axis=-1), np.fmin.reduce(nd - gap, axis=-2)


def _not_finite(n, value):
    return ValueError(f"dual distance at level {n:.6g} is not finite: {value}")


def _finite(n, value):
    """value, an array of distances at the levels n (broadcast to it).  Its
    first entry in row-major order that is not finite raises ValueError
    with that entry's level."""
    finite = np.isfinite(value)
    if not finite.all():
        b = int(finite.argmin())
        raise _not_finite(np.broadcast_to(n, value.shape).flat[b], value.flat[b])
    return value


def _supports(D, wmu, wnu):
    """(sub, lam, kap): the (k, k) ground distances D from mu's atoms to
    nu's atoms and their weights, in point order, sliced from the (k,)
    weights wmu, wnu, which are -inf where a measure has no atom."""
    rows, cols = wmu > -np.inf, wnu > -np.inf
    return D.compress(rows, 0).compress(cols, 1), wmu[rows], wnu[cols]


def _closed_form(D, wmu, wnu, n):
    """(value, direction, atom) at the valid level n on the full table of
    the supports (see `_supports`; weights are <= 0, so no gap overflows).
    The left side wins ties, at its first attaining atom; a value that is
    not finite raises ValueError."""
    sub, lam, kap = _supports(D, wmu, wnu)
    left, right = _one_sided(sub, np.subtract.outer(lam, kap), n)
    i, j = int(left.argmax()), int(right.argmax())
    lv, rv = float(left[i]), float(right[j])
    value, direction, atom = (lv, "left", i) if lv >= rv else (rv, "right", j)
    if not math.isfinite(value):
        raise _not_finite(n, value)
    return value, direction, atom


# entries of one block of stacked levels over a pruned table: bounds the
# block's temporaries however many levels a walk asks for
_BLOCK_ENTRIES = 1 << 15


def _walk(D, wmu, wnu, levels):
    """The values of `_closed_form` at each of a sequence of valid levels,
    as a list: the table `_staircase` prunes once, evaluated in stacked
    blocks of levels.  A value that is not finite raises ValueError (see
    `_finite`)."""
    gap, d, starts = _staircase(*_supports(D, wmu, wnu))
    n = np.asarray(levels, dtype=float)
    values = np.empty(len(n))
    step = max(1, _BLOCK_ENTRIES // len(d))
    for b in range(0, len(n), step):
        with np.errstate(over="ignore"):
            terms = np.minimum.reduceat(gap + n[b:b + step, None] * d, starts, axis=1)
        values[b:b + step] = terms.max(axis=1)
    return _finite(n, values).tolist()


def _staircase(sub, lam, kap):
    """The entries of the closed form's two (s, t) tables that can be a
    row minimum at some level, flattened: (gaps, distances, row starts),
    the mu-atoms' rows then the nu-atoms' rows, each in point order.

    A row's other atoms are sorted by decreasing weight (one stable
    argsort), so its gaps fl(lam_i - kap_j), or fl(kap_j - lam_i) on the
    right, never decrease along it; an entry is kept only when its
    distance is below every distance to its left.  fl(g + fl(n*d)) is
    non-decreasing in g and d for n > 0, so each dropped entry is >= a
    kept one of its row at every level, overflow included: the row
    minima, and so the values, are those of the full table.
    """
    gaps, dists, counts = [], [], []
    for own, other, dist in ((lam, kap, sub), (kap, lam, sub.T)):
        order = np.argsort(-other, kind="stable")
        dist = dist[:, order]
        keep = np.empty(dist.shape, dtype=bool)
        keep[:, 0] = True
        np.less(dist[:, 1:], np.minimum.accumulate(dist, axis=1)[:, :-1], out=keep[:, 1:])
        gaps.append(np.subtract.outer(own, other[order])[keep])
        dists.append(dist[keep])
        counts.append(keep.sum(axis=1))
    counts = np.concatenate(counts)
    return np.concatenate(gaps), np.concatenate(dists), np.cumsum(counts) - counts


def hat_d_stack(n, D, wmu, wnu) -> np.ndarray:
    """hat_d values of a stack of measure pairs, one closed-form call.

    D: (..., k, k) ground distances, padded with 0 beyond a space's
    points; wmu, wnu: (..., k) canonical weights, -inf where a measure has
    no atom (padding included); n: a level, or one per pair, each a
    valid Lipschitz level (see `_level`).  Equal to hat_d(n, mu, nu).value
    pair by pair; a value that is not finite raises ValueError (`_finite`).
    """
    n = np.asarray(n, dtype=float)[..., None, None]
    with np.errstate(invalid="ignore"):
        gap = wmu[..., :, None] - wnu[..., None, :]
    left, right = _one_sided(D, gap, n)
    value = np.fmax(np.fmax.reduce(left, axis=-1), np.fmax.reduce(right, axis=-1))
    return _finite(n[..., 0, 0], value)


def _largest_weight(*weights) -> float:
    """The largest absolute atom weight over dense weight vectors."""
    return max(float(np.abs(w[w > -np.inf]).max()) for w in weights)


def hat_d(n: int, mu: IdempotentMeasure, nu: IdempotentMeasure) -> DistanceReport:
    """The dual pseudometric at Lipschitz level n (exact closed form)."""
    n = _level(n)
    _same_space("measures", mu.space, nu.space)
    return DistanceReport(n, *_closed_form(mu.space.dist, mu.weights, nu.weights, n))


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
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    _same_space("measures", mu.space, nu.space)
    bound = mu.space.diameter + _largest_weight(mu.weights, nu.weights)
    if not math.isfinite(bound):
        raise ValueError(f"diameter plus largest weight overflows: {bound}")
    N = 1
    while math.ldexp(bound, -N) >= tol:
        N += 1
    values = _walk(mu.space.dist, mu.weights, nu.weights, range(1, N + 1))
    # the terms are >= 0, so the sum is finite only if every term is
    total = sum(math.ldexp(v / k, -k) for k, v in enumerate(values, 1))
    if not math.isfinite(total):
        raise ValueError(f"aggregate metric is not finite: {total}")
    return total


def oracle_sup(n: int, mu: IdempotentMeasure, nu: IdempotentMeasure,
               grid_step: float) -> float:
    """Brute-force lower bound on hat_d by sweeping a grid of seed tables.

    Each seed is projected onto the n-Lipschitz cone and the integral gap
    evaluated; the extremal functions have exactly that projected form,
    so the sweep converges to hat_d as grid_step -> 0 (within 2*grid_step
    for the stated range).  The grid is exponential in the point count,
    so the kernel's seed budget is its one limit: GridTooLarge is raised
    when the step is unusable or the grid exceeds that budget.
    """
    n = _level(n)
    _same_space("measures", mu.space, nu.space)
    return grid_oracle(mu.space.dist, mu.weights, nu.weights, n, grid_step)


def grid_oracle(D, wmu, wnu, n: int, step: float) -> float:
    """The grid sweep on a ground distance matrix and dense weights, over
    the range that holds the extremal functions: half range = largest
    absolute weight + n * diameter."""
    half_range = _largest_weight(wmu, wnu) + n * float(D.max())
    return oracle_sweep(D, n, wmu, wnu, half_range, step)


def _sandwich(checks, step):
    """The gate oracle <= exact <= oracle + 2*step over (exact, oracle)
    pairs; the oracle may sit a few ulps above the closed form."""
    low = max([0.0] + [grid - exact for exact, grid in checks])
    high = max([0.0] + [exact - grid for exact, grid in checks])
    return {"passed": low <= 1e-12 and high <= 2 * step, "checks": len(checks),
            "max_oracle_minus_exact": low, "max_exact_minus_oracle": high}


def hausdorff_support_distance(mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """Hausdorff distance between the supports (used as a cross-check:
    with all weights 0, hat_d(n, mu, nu) = n times this value)."""
    _same_space("measures", mu.space, nu.space)
    D, _, _ = _supports(mu.space.dist, mu.weights, nu.weights)
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


def meta_ground(ground_n: int, M: MetaMeasure, N: MetaMeasure):
    """The induced ground of the iterated distance between M and N.

    Returns (G, wm, wn): the distinct support measures (M's ground, then
    N's measures not in it) with G their tilde_d(ground_n) distance
    matrix, and M's and N's weights on them, -inf where a measure carries
    no atom.  Emits a GroundNotMetric warning when two distinct support
    measures sit at ground distance 0 (then the ground structure is only
    a pseudometric).
    """
    ground_n = _level(ground_n)
    _same_space("meta-measures", M.space, N.space)
    ground = list(M.ground)
    at = []  # the ground index of each of N's measures
    for mu in N.ground:
        i = next((j for j, known in enumerate(M.ground) if known == mu), len(ground))
        if i == len(ground):
            ground.append(mu)
        at.append(i)
    k = len(ground)
    G = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            value, _, _ = _closed_form(M.space.dist, ground[i].weights,
                                       ground[j].weights, ground_n)
            G[i, j] = G[j, i] = value / ground_n
            if G[i, j] == 0.0:
                warnings.warn(
                    "distinct support measures at ground distance 0",
                    GroundNotMetric,
                )
    wm = np.full(k, -np.inf)
    wn = np.full(k, -np.inf)
    wm[:len(M.ground)] = M.weights
    wn[at] = N.weights
    return G, wm, wn


def hat_d_meta(n: int, ground_n: int, M: MetaMeasure, N: MetaMeasure) -> float:
    """Iterated dual distance on measures of measures.

    Ground points are the distinct support measures of M and N, ground
    distance is tilde_d(ground_n) (see :func:`meta_ground`); the same
    closed form applies because an n-Lipschitz function on the finite
    support extends to all measures with the same constant (McShane), so
    the restricted supremum equals the full one.
    """
    n = _level(n)
    value, _, _ = _closed_form(*meta_ground(ground_n, M, N), n)
    return value


def separates(mu: IdempotentMeasure, nu: IdempotentMeasure,
              n_max: int) -> int | None:
    """The least n <= n_max with hat_d(n, mu, nu) > 0, or None.

    hat_d(n) is non-decreasing in n in floating point (every term
    fl(g + fl(n*d)) is), so the levels 1, 2, 4, ... (capped at n_max) are
    probed on the supports, sliced once, until one is positive, and the
    last gap is bisected.  A level that overflows is positive; its
    ValueError is raised only when it is the answer.
    """
    n_max = _level(n_max)
    _same_space("measures", mu.space, nu.space)
    if mu == nu:  # at distance 0 at every level
        return None
    sub, lam, kap = _supports(mu.space.dist, mu.weights, nu.weights)
    gap = np.subtract.outer(lam, kap)

    def at(n):  # hat_d(n, mu, nu), inf where it overflows
        return max(m.max() for m in _one_sided(sub, gap, n))

    low, high = 0, 1  # no level <= low separates; high is the next probe
    while (value := at(high)) <= 0.0:
        if high == n_max:
            return None
        low, high = high, min(2 * high, n_max)
    while high - low > 1:
        mid = (low + high) // 2
        if (v := at(mid)) > 0.0:
            high, value = mid, v
        else:
            low = mid
    if not math.isfinite(value):
        raise _not_finite(high, value)
    return high
