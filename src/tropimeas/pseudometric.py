"""Lipschitz-dual pseudometrics on spaces of idempotent measures.

The distance at Lipschitz level n is the supremum of |mu(phi) - nu(phi)|
over n-Lipschitz test functions.  On finitely supported measures it has
an exact closed form over the atom pairs:

    max( max_i min_j (lam_i - kap_j + n*d(x_i, y_j)),
         max_j min_i (kap_j - lam_i + n*d(x_i, y_j)) )

The upper bound comes from the Lipschitz constraint, attainment from the
cone witness phi(z) = -n*d(x_i*, z).  Three entry points evaluate it:
`_closed_form`, one level with its witness (for `hat_d` and the ground
distances of `meta_ground` and `hat_d_meta`, which runs its `_attained`
core on the block of ground distances it reads); `_walk`, the values at
several levels over a pruned table (for `aggregate_d` and
`dist --emit-csv`), both on the table of the stored supports (`_table`);
and `hat_d_stack`, a stack of padded pairs (for the suite's stacked
checks).  A grid oracle (:func:`oracle_sup`) stays available as an
independent check: the maximum gap over every seed of a grid, which
`kernels.oracle_sweep` finds exactly on one chain of least seeds per
support column.  Releases are gated on the sandwich oracle <= closed
form <= oracle + 2*step.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GroundNotMetric
from .kernels import oracle_sweep
from .measure import IdempotentMeasure, MetaMeasure, _support
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


def _table(mu, nu):
    """(sub, lam, kap): the ground distances from mu's atoms to nu's atoms
    and their weights, in point order, read from the stored supports."""
    sub = mu.space.dist.take(mu.atom_indices, 0).take(nu.atom_indices, 1)
    return sub, mu.atom_weights, nu.atom_weights


def _closed_form(mu, nu, n):
    """(value, direction, atom) at the valid level n on the full table of
    the supports (see `_table` and `_attained`)."""
    return _attained(*_table(mu, nu), n)


def _attained(sub, lam, kap, n):
    """(value, direction, atom) at the valid level n on an (s, t) table of
    ground distances from atoms of weights lam to atoms of weights kap
    (weights are <= 0, so no gap overflows).  The left side wins ties, at
    its first attaining atom; a value that is not finite raises
    ValueError."""
    left, right = _one_sided(sub, np.subtract.outer(lam, kap), n)
    i, j = int(left.argmax()), int(right.argmax())
    lv, rv = float(left[i]), float(right[j])
    value, direction, atom = (lv, "left", i) if lv >= rv else (rv, "right", j)
    if not math.isfinite(value):
        raise _not_finite(n, value)
    return value, direction, atom


# entries of one block of stacked levels over a pruned table: bounds the
# block's buffer however many levels a walk asks for
_BLOCK_ENTRIES = 1 << 15


def _walk(mu, nu, levels):
    """The values of `_closed_form` at each of a sequence of valid levels,
    as a list: the table `_staircase` prunes once, evaluated in stacked
    blocks of levels.  Each block is written into one (entries, levels)
    buffer made once per walk, so each row minimum reduces whole rows of
    levels.  A value that is not finite raises ValueError (see
    `_finite`)."""
    gap, d, starts = _staircase(*_table(mu, nu))
    n = np.asarray(levels, dtype=float)
    values = np.empty(len(n))
    step = max(1, _BLOCK_ENTRIES // len(d))
    buf = np.empty((len(d), min(step, len(n))))
    for b in range(0, len(n), step):
        block = n[b:b + step]
        terms = buf[:, :len(block)]
        with np.errstate(over="ignore"):
            np.multiply(d[:, None], block, out=terms)
            terms += gap[:, None]
        values[b:b + step] = np.minimum.reduceat(terms, starts).max(axis=0)
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

    Each side's table is laid out other-atom-major, so the running minimum
    runs down axis 0 over whole rows; the kept entries are then read back
    in row order.
    """
    gaps, dists, counts = [], [], []
    for own, other, table in ((lam, kap, sub.T), (kap, lam, sub)):
        order = np.argsort(-other, kind="stable")
        dist = table[order]  # (other, own): row r is the r-th heaviest other atom
        keep = np.empty(dist.shape, dtype=bool)
        keep[0] = True
        np.less(dist[1:], np.minimum.accumulate(dist, axis=0)[:-1], out=keep[1:])
        row, col = divmod(np.flatnonzero(keep.T), len(other))
        gaps.append(own[row] - other[order[col]])
        dists.append(dist[col, row])
        counts.append(np.bincount(row, minlength=len(own)))
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


def _largest_weight(*atom_weights) -> float:
    """The largest absolute weight over vectors of atom weights."""
    return max(float(np.abs(w).max()) for w in atom_weights)


def hat_d(n: int, mu: IdempotentMeasure, nu: IdempotentMeasure) -> DistanceReport:
    """The dual pseudometric at Lipschitz level n (exact closed form)."""
    n = _level(n)
    _same_space("measures", mu.space, nu.space)
    return DistanceReport(n, *_closed_form(mu, nu, n))


def tilde_d(n: int, mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """The normalized distance hat_d / n."""
    return hat_d(n, mu, nu).value / n


def aggregate_d(mu: IdempotentMeasure, nu: IdempotentMeasure, tol: float) -> float:
    """The aggregate metric sum_k tilde_d_k / 2^k, truncated below tol.

    Each term is bounded by diam + W (W = largest absolute weight), so
    truncating at N with (diam + W) * 2^-N < tol bounds the tail by tol.
    Terms are scaled with ldexp, exact for powers of two at any k.  A bound
    that is not finite raises ValueError; the sum is finite, since each
    `_walk` value is finite (or it raised) and >= 0: term k is at most
    M/(k*2^k), M the largest float, so the sum is at most M*ln 2, a gap
    that rounding a few thousand additions cannot close.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    _same_space("measures", mu.space, nu.space)
    bound = mu.space.diameter + _largest_weight(mu.atom_weights, nu.atom_weights)
    if not math.isfinite(bound):
        raise ValueError(f"diameter plus largest weight overflows: {bound}")
    N = 1
    while math.ldexp(bound, -N) >= tol:
        N += 1
    values = _walk(mu, nu, range(1, N + 1))
    return sum(math.ldexp(v / k, -k) for k, v in enumerate(values, 1))


def oracle_sup(n: int, mu: IdempotentMeasure, nu: IdempotentMeasure,
               grid_step: float) -> float:
    """Grid lower bound on hat_d: the largest gap over a grid of seed tables.

    Each seed is projected once onto the n-Lipschitz cone, by the rule of
    `metric._project`, and the integral gap evaluated; the extremal
    functions have exactly that projected form, so the sweep converges to
    hat_d as grid_step -> 0 (within 2*grid_step for the stated range).
    The kernel finds the grid maximum, bit for bit, by evaluating only
    each support column's chain of least seeds, one per threshold its
    minimum can take (see `kernels`).  The grid it certifies is
    exponential in the point count, so the kernel's seed budget is its
    one limit: GridTooLarge is raised when the step is unusable or the
    grid exceeds that budget.
    """
    n = _level(n)
    _same_space("measures", mu.space, nu.space)
    return grid_oracle(mu.space.dist, mu.weights, nu.weights, n, grid_step)


def grid_oracle(D, wmu, wnu, n: int, step: float) -> float:
    """The grid sweep on a ground distance matrix and dense weights, over
    the range that holds the extremal functions: half range = largest
    absolute weight + n * diameter."""
    half_range = _largest_weight(_support(wmu)[1], _support(wnu)[1]) + n * float(D.max())
    return oracle_sweep(D, n, wmu, wnu, half_range, step)


def _entry(gates, fixed={}, holds=True) -> dict:
    """A check's report entry: `passed`, its `fixed` keys and one value per
    gate, the one place a verdict is made.

    A gate is either a bool array, True where an instance failed, reported
    as the int count of failures and passing at 0; or a pair (violations,
    bound), reported as the largest violation (NaN if any is NaN, 0.0 when
    none is positive) and passing when that is at most the bound.  The
    array may be a list of scalars and arrays, ragged.  `holds` is the
    verdict of the fixed keys that hold a value rather than a violation.
    """
    entry, passed = dict(fixed), bool(holds)
    for key, gate in gates.items():
        if isinstance(gate, tuple):
            violations, bound = gate
            # + 0.0 reads -0.0 as 0.0
            entry[key] = value = float(np.max(_flat(violations), initial=0.0)) + 0.0
            passed = passed and value <= bound
        else:
            entry[key] = value = int(np.count_nonzero(_flat(gate)))
            passed = passed and value == 0
    return {"passed": bool(passed), **entry}


def _flat(values) -> np.ndarray:
    """A gate's values as one flat array, in no set order: an array, or a
    list of scalars and arrays.  The scalars are read into one array, not
    one array each, so a list of many costs a few bytes per value."""
    if isinstance(values, list):
        values = np.concatenate([
            np.array([v for v in values if not isinstance(v, np.ndarray)], dtype=float),
            *(v.ravel() for v in values if isinstance(v, np.ndarray))])
    return np.ravel(values)


def _sandwich(checks, step):
    """The gate oracle <= exact <= oracle + 2*step over (exact, oracle)
    pairs; the oracle may sit a few ulps above the closed form."""
    return _entry({"max_oracle_minus_exact": ([grid - exact for exact, grid in checks], 1e-12),
                   "max_exact_minus_oracle": ([exact - grid for exact, grid in checks], 2 * step)},
                  {"checks": len(checks)})


def hausdorff_support_distance(mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """Hausdorff distance between the supports (used as a cross-check:
    with all weights 0, hat_d(n, mu, nu) = n times this value)."""
    _same_space("measures", mu.space, nu.space)
    D, _, _ = _table(mu, nu)
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


def _ground(M: MetaMeasure, N: MetaMeasure):
    """(ground, at): the distinct support measures of M and N (M's ground,
    then N's measures not in it) and the index in it of each of N's."""
    ground = list(M.ground)
    at = []
    for mu in N.ground:
        i = next((j for j, known in enumerate(M.ground) if known == mu), len(ground))
        if i == len(ground):
            ground.append(mu)
        at.append(i)
    return ground, at


def _ground_distances(ground_n, ground, pairs):
    """The tilde_d(ground_n) matrix of the distinct measures `ground`,
    computed at the index pairs (i, j), i < j, and mirrored;
    every other entry is 0.  Emits a GroundNotMetric warning for each
    computed pair at distance 0 (then the ground structure is only a
    pseudometric)."""
    G = np.zeros((len(ground), len(ground)))
    for i, j in pairs:
        value, _, _ = _closed_form(ground[i], ground[j], ground_n)
        G[i, j] = G[j, i] = value / ground_n
        if G[i, j] == 0.0:
            warnings.warn("distinct support measures at ground distance 0",
                          GroundNotMetric)
    return G


def meta_ground(ground_n: int, M: MetaMeasure, N: MetaMeasure):
    """The induced ground of the iterated distance between M and N.

    Returns (G, wm, wn): the distinct support measures (M's ground, then
    N's measures not in it) with G their tilde_d(ground_n) distance
    matrix, and M's and N's weights on them, -inf where a measure carries
    no atom.  G is full: every pair of the ground is computed, once.  So a
    GroundNotMetric warning is emitted for any two distinct support
    measures at ground distance 0, also for two inside one meta-measure's
    ground, which :func:`hat_d_meta` does not read.
    """
    ground_n = _level(ground_n)
    _same_space("meta-measures", M.space, N.space)
    ground, at = _ground(M, N)
    G = _ground_distances(ground_n, ground, itertools.combinations(range(len(ground)), 2))
    wm = np.full(len(ground), -np.inf)
    wn = np.full(len(ground), -np.inf)
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

    The closed form reads only the block of distances from M's ground to
    N's, so only that block is computed: each distinct pair of distinct
    measures once, at most |M.ground|*|N.ground| closed forms, and none
    for a measure in both grounds against itself.  A GroundNotMetric
    warning is emitted only for a zero pair of that block; two distinct
    measures at distance 0 inside one meta-measure's ground warn from
    :func:`meta_ground` only.  The value is bit for bit that of the
    closed form on meta_ground's (G, wm, wn).
    """
    n, ground_n = _level(n), _level(ground_n)
    _same_space("meta-measures", M.space, N.space)
    ground, at = _ground(M, N)
    m = len(M.ground)
    pairs = sorted({(min(i, j), max(i, j)) for i in range(m) for j in at if i != j})
    G = _ground_distances(ground_n, ground, pairs)
    value, _, _ = _attained(G[:m, at], M.weights, N.weights, n)
    return value


def separates(mu: IdempotentMeasure, nu: IdempotentMeasure,
              n_max: int) -> int | None:
    """The least n <= n_max with hat_d(n, mu, nu) > 0, or None.

    hat_d(n) is non-decreasing in n in floating point (every term
    fl(g + fl(n*d)) is), so the levels 1, 2, 4, ... (capped at n_max) are
    probed on the table of the supports until one is positive, and the
    last gap is bisected.  A level that overflows is positive; its
    ValueError is raised only when it is the answer.
    """
    n_max = _level(n_max)
    _same_space("measures", mu.space, nu.space)
    if mu == nu:  # at distance 0 at every level
        return None
    sub, lam, kap = _table(mu, nu)
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
