"""Grid-sweep kernel for the brute-force dual-distance oracle.

The sweep enumerates seed value tables on a uniform grid, projects each
seed onto the n-Lipschitz cone (McShane projection against the distance
matrix) and records the largest integral gap between the two measures.
For a seed v and a measure with dense weights w that integral is

    max_z (min_p (v[p] + n*d[p, z]) + w[z]).

One numpy kernel evaluates it for every seed through four exact rewrites:

1. The minimum over coordinates 0..k-2 is built once for all their grid
   values, one coordinate at a time; the last coordinate then joins each
   partial row through a single ``np.minimum``.  At k = 1 the last
   coordinate is coordinate 0, whose one value 0 leaves the row as it is,
   so every point count runs the same loop.
2. Only support columns are evaluated: a column whose weight is -inf adds
   -inf to that measure's maximum and cannot change it.
3. Weights are folded into the terms, ``min(x, y) + w = min(x + w, y + w)``
   (exact because rounding to nearest is monotone), so each measure is
   evaluated on its own support columns.
4. The (partial row x last value) product is processed in blocks of about
   ``BLOCK`` elements, so temporaries stay in cache and memory is bounded
   whatever the point count and the grid width.  Block results go into
   three work arrays made once per sweep: a fresh block-sized array for
   every block costs a page fault per page it touches, which made the
   sweep slower and its time unsteady.

Every sum is rounded exactly as in the formula above, and min and max are
exact in any order, so the result is bit-identical to a seed-by-seed loop.
Weights must be canonical, and a grid whose values could overflow is refused.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from .errors import GridTooLarge
from .measure import _canonical_weights, _support

MAX_GRID_SEEDS = 10**9  # (2m+1)^(k-1) above this raises GridTooLarge
BLOCK = 1 << 16  # elements per (partial row x last value) block


def grid_half_width(k: int, half_range: float, step: float) -> int:
    """m = ceil(half_range / step), once the sweep's (2m+1)^(k-1) seeds fit MAX_GRID_SEEDS."""
    if not (math.isfinite(step) and step > 0):
        raise GridTooLarge(f"grid step must be finite and > 0, got {step!r}")
    if not (math.isfinite(half_range) and half_range >= 0):
        raise GridTooLarge(f"grid half range must be finite and >= 0, got {half_range!r}")
    if k <= 1:
        return 0
    ratio = half_range / step
    if not math.isfinite(ratio):
        raise GridTooLarge(f"grid of {half_range!r}/{step!r} steps per side exceeds "
                           f"the budget of {MAX_GRID_SEEDS} seeds")
    m = math.ceil(ratio)
    width = 2 * m + 1
    digits = (k - 1) * math.log10(width)
    seeds = width ** (k - 1) if digits < 30 else None
    if seeds is not None and seeds <= MAX_GRID_SEEDS:
        return m
    shown = seeds if seeds is not None else f"about 10^{digits:.0f}"
    if width > 10**15:  # a tiny step makes it hundreds of digits long
        # Decimal, since the width may exceed the float range; imported
        # here, as it would add about 3 ms to every CLI start
        from decimal import Decimal

        width = format(Decimal(width), ".3g")
    raise GridTooLarge(f"grid of {width}^{k - 1} = {shown} seeds exceeds the budget "
                       f"of {MAX_GRID_SEEDS} seeds")


def oracle_sweep(dist: np.ndarray, n: int, wmu: np.ndarray, wnu: np.ndarray,
                 half_range: float, step: float) -> float:
    """Max over grid seeds v of |mu(phi) - nu(phi)|, where phi is v projected
    once by `metric._project`'s rule, min_p fl(v_p + fl(n*d(p, z))).

    Seeds fix the first coordinate at 0 (integral gaps are invariant
    under adding constants, and the Lipschitz projection commutes with
    them) and sweep the remaining coordinates over the symmetric grid
    {-m*step, ..., 0, ..., m*step} covering [-half_range, half_range].

    ``dist`` is a finite distance matrix; ``wmu``/``wnu`` are dense weights
    that `measure._canonical_weights` accepts (-inf off the support, top 0),
    or it raises.  Raises GridTooLarge, before building anything, when the
    step or range is not usable, the grid has more than MAX_GRID_SEEDS
    seeds, or m*step + max(half_range, W + n*diam), W the largest absolute
    weight, is not finite: every seed value and term lies within it.
    """
    k = np.shape(dist)[0]
    m = grid_half_width(k, half_range, step)
    step = float(step)
    wmu, wnu = (_canonical_weights(np.asarray(w, dtype=np.float64)) for w in (wmu, wnu))
    (mu_cols, mu_w), (nu_cols, nu_w) = _support(wmu), _support(wnu)
    cols = np.concatenate([mu_cols, nu_cols])
    w = np.concatenate([mu_w, nu_w])
    reach = max(half_range, float(np.abs(w).max()) + float(n) * float(np.max(dist)))
    if not math.isfinite(m * step + reach):
        raise GridTooLarge(f"grid values up to {m} * {step!r} + {reach!r} overflow")
    nd = float(n) * np.asarray(dist, dtype=np.float64)
    split = len(mu_cols)

    def term(p, lo, hi):
        # rows j in [lo, hi): seed value (j - m)*step at coordinate p, per column
        return ((np.arange(lo, hi) - m) * step)[:, None] + nd[p, cols] + w

    width = 2 * m + 1
    base = (0.0 + nd[0, cols]) + w  # coordinate 0 is fixed at 0
    partial_terms = [term(p, 0, width) for p in range(1, k - 1)]
    span = min(width, BLOCK)
    rows = max(1, BLOCK // span)
    work = np.empty((3, rows * span))
    best = 0.0
    for part in _partial_tables(base, partial_terms):
        part = np.ascontiguousarray(part.T)
        for lo in range(0, width, span):
            tail = np.ascontiguousarray(term(k - 1, lo, min(lo + span, width)).T)
            for r in range(0, part.shape[1], rows):
                block = part[:, r:r + rows]
                size = block.shape[1] * tail.shape[1]
                gaps, nu_gaps, tmp = (a[:size].reshape(block.shape[1], tail.shape[1])
                                      for a in work)
                _integrals(block[:split], tail[:split], gaps, tmp)
                _integrals(block[split:], tail[split:], nu_gaps, tmp)
                np.subtract(gaps, nu_gaps, out=gaps)
                np.abs(gaps, out=gaps)
                best = max(best, float(gaps.max()))
    return best


def _partial_tables(base, terms):
    """Yield tables whose rows, taken together, are the minimum of ``base``
    and one row of each table in ``terms``, for every choice of rows.

    Trailing terms are broadcast into one table of at most BLOCK rows;
    the leading terms that remain are walked one row choice at a time (with
    none left, the one empty choice yields that table).
    """
    inner = base[None, :]
    outer = len(terms)
    while outer and len(inner) * len(terms[outer - 1]) <= BLOCK:
        outer -= 1
        inner = np.minimum(inner[:, None, :], terms[outer][None, :, :])
        inner = inner.reshape(len(inner) * len(terms[outer]), base.size)
    for choice in itertools.product(*(range(len(t)) for t in terms[:outer])):
        yield reduce(np.minimum, [*(t[i] for t, i in zip(terms, choice)), inner])


def _integrals(part, tail, acc, tmp):
    """Set acc[r, j] = max_c min(part[c, r], tail[c, j]) over at least one
    column c (oracle_sweep refuses a side without atoms); tmp is scratch
    of acc's shape."""
    np.minimum(part[0][:, None], tail[0], out=acc)
    for c in range(1, len(part)):
        np.minimum(part[c][:, None], tail[c], out=tmp)
        np.maximum(acc, tmp, out=acc)
