import math
import time

import numpy as np
import pytest

from tropimeas import dirac, oracle_sup
from tropimeas import kernels
from tropimeas.errors import GridTooLarge
from tropimeas.geometry import random_measure
from tropimeas.kernels import MAX_GRID_SEEDS, grid_half_width, oracle_sweep
from tropimeas.sampling import random_space

INF = math.inf
R2 = math.sqrt(2.0) / 10


def odometer_sweep(dist, n, wmu, wnu, half_range, step):
    """Reference: every seed built digit by digit and evaluated directly."""
    k = len(dist)
    m = int(np.ceil(half_range / step))
    width = 2 * m + 1
    v = [0.0] * k
    best = 0.0
    for t in range(width ** (k - 1)):
        rem = t
        for a in range(k - 1):
            v[a + 1] = (rem % width - m) * step
            rem //= width
        amu = anu = -INF
        for z in range(k):
            phi = min(v[p] + n * dist[p][z] for p in range(k))
            amu = max(amu, phi + wmu[z])
            anu = max(anu, phi + wnu[z])
        best = max(best, abs(amu - anu))
    return best


def test_sweep_singleton_space():
    dist = np.zeros((1, 1))
    w = np.zeros(1)
    assert oracle_sweep(dist, 1, w, w, 1.0, 0.1) == 0.0


def test_oracle_converges_with_step(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    coarse = oracle_sup(1, da, db, 0.3)
    fine = oracle_sup(1, da, db, 0.01)
    assert coarse <= fine + 1e-12
    assert abs(fine - 1.0) <= 0.02


@pytest.mark.parametrize("block", [kernels.BLOCK, 7, 1])
def test_sweep_matches_odometer_on_tiny_grids(monkeypatch, block):
    # small blocks force the chunked last coordinate and the walked
    # leading coordinates that large grids take
    monkeypatch.setattr(kernels, "BLOCK", block)
    rng = np.random.default_rng(2008)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        space = random_space(rng, k)
        mu = random_measure(space, rng, min_weight=-1.0)
        nu = mu if rng.random() < 0.2 else random_measure(space, rng, min_weight=-1.0)
        n = int(rng.integers(1, 4))
        wmu, wnu = mu.weight_vector(), nu.weight_vector()
        half = max(abs(w) for _, w in mu.atoms + nu.atoms) + n * space.diameter
        half *= rng.choice([1.0, 0.5])  # a short range puts maxima on the grid's edge
        step = (half or 1.0) / {1: 3, 2: 40, 3: 9, 4: 4}[k]
        expected = odometer_sweep(space.dist.tolist(), float(n), wmu.tolist(),
                                  wnu.tolist(), half, step)
        assert oracle_sweep(space.dist, n, wmu, wnu, half, step) == expected


# (dist, n, wmu, wnu, half_range, step) and the maximum as float.hex,
# frozen from the chunked seed-by-seed kernel this one replaced; the
# thirds and sevenths make several of them sensitive to the order of
# rounding in v[p] + n*d[p, z] + w[z]
FROZEN = [
    ([[0.0]], 1, [0.0], [0.0], 1.0, 0.1, "0x0.0p+0"),
    ([[0.0, 1.0], [1.0, 0.0]], 1, [0.0, -INF], [-INF, 0.0], 1.0, 0.01,
     "0x1.0000000000000p+0"),
    ([[0.0, 1.0], [1.0, 0.0]], 2, [0.0, -0.5], [-0.25, 0.0], 2.5, 0.03,
     "0x1.0000000000000p-1"),
    ([[0.0, 0.7], [0.7, 0.0]], 3, [0.0, -0.3], [0.0, -0.3], 2.4, 0.05, "0x0.0p+0"),
    ([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], 1,
     [0.0, -0.5, -INF], [-1.0, 0.0, -0.25], 3.0, 0.02, "0x1.4000000000000p+0"),
    ([[0.0, 0.7, 1.1], [0.7, 0.0, 0.6], [1.1, 0.6, 0.0]], 2,
     [-INF, 0.0, -INF], [0.0, -INF, -0.4], 2.6, 0.03, "0x1.6666666666666p+0"),
    ([[0.0, 0.3, 0.5], [0.3, 0.0, 0.4], [0.5, 0.4, 0.0]], 3,
     [0.0, -0.1, -0.2], [-0.2, -0.1, 0.0], 1.7, 0.05, "0x1.999999999999cp-3"),
    ([[0.0, 1 / 3, 2 / 3], [1 / 3, 0.0, 1 / 3], [2 / 3, 1 / 3, 0.0]], 2,
     [0.0, -1 / 3, -INF], [-2 / 3, 0.0, -1 / 7], 2.0, 0.1 / 3, "0x1.b6db6db6db6dcp-1"),
    ([[0.0, 0.125, 0.25, 0.375], [0.125, 0.0, 0.125, 0.25],
      [0.25, 0.125, 0.0, 0.125], [0.375, 0.25, 0.125, 0.0]], 1,
     [0.0, -INF, -0.125, -0.0625], [-0.125, 0.0, -INF, -0.125], 0.5, 0.02,
     "0x1.0000000000000p-3"),
    ([[0.0, R2, 2 * R2, 0.2], [R2, 0.0, R2, 0.15], [2 * R2, R2, 0.0, 0.2],
      [0.2, 0.15, 0.2, 0.0]], 2,
     [0.0, -INF, -0.3, -INF], [-INF, -0.1, 0.0, -0.2], 0.9, 0.03,
     "0x1.8807eb865c971p-2"),
    ([[0.0, 0.1, 0.2, 0.25], [0.1, 0.0, 0.15, 0.2], [0.2, 0.15, 0.0, 0.1],
      [0.25, 0.2, 0.1, 0.0]], 3,
     [0.0, -0.05, -0.3, -0.1], [-0.2, 0.0, -0.05, -INF], 1.05, 0.05,
     "0x1.0000000000002p-2"),
    ([[0.0, 0.125, 0.25, 0.375], [0.125, 0.0, 0.125, 0.25],
      [0.25, 0.125, 0.0, 0.125], [0.375, 0.25, 0.125, 0.0]], 2,
     [0.0, -0.0625, -INF, -0.25], [0.0, -0.0625, -INF, -0.25], 0.75, 0.03,
     "0x0.0p+0"),
    ([[0.0, 0.15, 0.6], [0.15, 0.0, 0.45], [0.6, 0.45, 0.0]], 1,
     [-INF, 0.0, -1 / 3], [-0.2, 0.0, -INF], 0.6 + 1 / 3, 0.03, "0x1.ddddddddddde4p-4"),
    ([[0.0, 0.15, 0.15], [0.15, 0.0, 0.3], [0.15, 0.3, 0.0]], 3,
     [-0.2, 0.0, -0.7], [0.0, -0.7, -1 / 7], 1.6, 0.1, "0x1.03a83a83a83a8p-1"),
    ([[0.0, 0.7, 0.6], [0.7, 0.0, 1.1], [0.6, 1.1, 0.0]], 3,
     [-0.7, 0.0, -1 / 3], [-1 / 3, 0.0, -1 / 7], 4.0, 0.1 / 3, "0x1.777777777777cp-2"),
    # half the natural range: the maximum sits on the edge of the grid
    ([[0.0, 0.35, 0.2], [0.35, 0.0, 0.55], [0.2, 0.55, 0.0]], 2,
     [-0.3, -INF, 0.0], [-0.05, -0.05, 0.0], 0.7, 0.03, "0x1.e666666666668p-1"),
]


@pytest.mark.parametrize("dist,n,wmu,wnu,half,step,expected", FROZEN,
                         ids=[f"case{i}_k{len(c[0])}_n{c[1]}" for i, c in enumerate(FROZEN)])
def test_sweep_frozen_values(dist, n, wmu, wnu, half, step, expected):
    got = oracle_sweep(np.array(dist), n, np.array(wmu), np.array(wnu), half, step)
    assert got.hex() == expected


@pytest.mark.parametrize("half,step", [(1.0, 0.0), (1.0, -0.1), (1.0, math.nan),
                                       (1.0, math.inf), (math.inf, 0.1),
                                       (math.nan, 0.1), (-1.0, 0.1)])
def test_sweep_rejects_unusable_grid(half, step):
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = np.array([0.0, -1.0])
    with pytest.raises(GridTooLarge):
        oracle_sweep(dist, 1, w, w, half, step)


def test_seed_budget_boundary():
    # k = 2 has 2m+1 seeds: 999,999,999 fits the budget, 1,000,000,001 does not
    assert MAX_GRID_SEEDS == 10**9
    assert grid_half_width(2, 499_999_999.0, 1.0) == 499_999_999
    with pytest.raises(GridTooLarge, match="1000000001 seeds.*1000000000"):
        grid_half_width(2, 500_000_000.0, 1.0)
    assert grid_half_width(1, 1.0, 1e-300) == 0  # one seed whatever the step
    with pytest.raises(GridTooLarge, match="10\\^"):
        grid_half_width(4, 1.0, 1e-300)


def test_oracle_sup_refuses_tiny_step(rng):
    space = random_space(rng, 4)
    mu, nu = random_measure(space, rng), random_measure(space, rng)
    start = time.perf_counter()
    with pytest.raises(GridTooLarge, match="budget"):
        oracle_sup(1, mu, nu, 1e-7)
    assert time.perf_counter() - start < 1.0
