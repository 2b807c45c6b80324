"""Grid-sweep kernel for the dual-distance grid oracle.

The sweep takes seed value tables on a uniform grid, projects each seed
onto the n-Lipschitz cone (McShane projection against the distance
matrix) and records the largest integral gap between the two measures
over the grid.  For a seed s (s_0 = 0) and a measure with dense weights w
that integral is the maximum over support columns z of

    f_z(s) = min_p T_p(s_p),   T_p(x) = fl(fl(x + n*d[p, z]) + w[z]),

with the weight folded into each term (exact, since rounding to nearest
is monotone).  Rather than every seed, the sweep evaluates chains of
least seeds, one per support column of either measure, which hold a seed
that attains the grid maximum:

- fl(x - y) is monotone in each argument, so fl(mu(s) - nu(s)) is the
  maximum over mu's columns z of fl(f_z(s) - nu(s)), and the reverse gap
  likewise over nu's columns.
- Take any seed s* and F = f_z(s*).  The least grid seed s' with
  T_p(s'_p) >= F for every p (on each coordinate the first grid index
  that reaches F, ``searchsorted(side="left")``) lies below s*
  coordinatewise and has f_z(s') >= F.  The other measure's integral is
  non-decreasing in every coordinate, so s' scores at least as well as s*.
- F <= T_0(0), and F is T_0(0) or a value T_q takes at a grid point.  So
  chain z walks each coordinate q >= 1 over the grid indices j up to its
  cap, the first at which T_q reaches T_0(0), and takes the least seed of
  the threshold min(T_q(x_j), T_0(0)), with j itself on coordinate q:
  where T_q ties over a run of indices, the run's first index is walked
  too.  That is at most (k-1)*width seeds per column rather than
  width^(k-1).

Each chain seed is a grid seed evaluated term by term as above, and min
and max are exact, so the result is bit-identical to a seed-by-seed loop
over the grid.  Coordinate q is walked up to the latest cap of all
chains, in blocks that hold at most BLOCK values (column x chain x
index): BLOCK // C^2 indices for C columns.  At k = 2, where a seed has
no other coordinate, the chains' seeds at index j are one seed,
evaluated once, so a block takes BLOCK // C indices.  The other
coordinates, present only at k >= 3, where the seed budget caps the
width at 31,623, are searched in whole tables.  Weights must be
canonical, and a grid whose values could overflow is refused.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridTooLarge
from .measure import _canonical_weights, _support

MAX_GRID_SEEDS = 10**9  # (2m+1)^(k-1) above this raises GridTooLarge
BLOCK = 1 << 16  # values per block of chain seeds


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
    them) and take the remaining coordinates from the symmetric grid
    {-m*step, ..., 0, ..., m*step} covering [-half_range, half_range].
    Only the chains of least seeds set out in the module docstring are
    evaluated; their maximum is the maximum over the whole grid, bit for
    bit.  At k = 1 there is no coordinate to sweep, and both canonical
    measures are the one atom of weight 0, so the gap is 0.

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

    def term(p, j):
        # T_p at grid indices j (seed value (j - m)*step), columns on a new first axis
        return (j - m) * step + nd[p, cols][:, None, None] + w[:, None, None]

    width = 2 * m + 1
    base = ((0.0 + nd[0, cols]) + w)[:, None, None]  # T_0(0): coordinate 0 is fixed at 0
    span = max(1, BLOCK // len(cols) ** min(k - 1, 2))  # grid indices per block
    best = 0.0
    for q in range(1, k):
        # one sorted row per column; a threshold above all of a row takes
        # the last grid index, which the row leaves out
        tables = [(p, term(p, np.arange(width - 1)[None])[:, 0]) for p in range(1, k) if p != q]
        for lo in range(0, width, span):
            own = term(q, np.arange(lo, min(lo + span, width))[None])
            cap = int((own < base).sum(-1).max())  # the latest first row with T_q >= T_0(0)
            f = bar = np.minimum(own[..., :cap + 1], base)  # bar[z, 0]: chain z's thresholds
            for p, table in tables:  # axis 1 of f becomes the chain
                at = np.array([np.searchsorted(row, bar[z, 0]) for z, row in enumerate(table)])
                f = np.minimum(f, term(p, at))
            gaps = np.abs(f[:split].max(0) - f[split:].max(0))
            best = max(best, float(gaps.max()))
            if cap < own.shape[-1]:  # every chain has reached its cap
                break
    return best
