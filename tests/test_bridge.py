import math

import numpy as np
import pytest

from tropimeas import (
    DeltaPoint,
    GammaPoint,
    canonicalize,
    delta_to_gamma,
    dirac,
    gamma_to_delta,
    measure_to_gamma,
)
from tropimeas import suite
from tropimeas.bridge import delta_to_gamma_rows, gamma_to_delta_rows
from tropimeas.errors import NotInSimplex
from tropimeas.geometry import random_measure
from tropimeas.metric import build_space
from tropimeas.sampling import random_space


def space_n(n):
    # unit-equilateral n-point space
    D = np.ones((n, n)) - np.eye(n)
    return build_space([f"x{i}" for i in range(n)], D)


def test_measure_to_gamma_examples():
    s3 = space_n(3)
    assert measure_to_gamma(dirac(s3, "x0")).z == (1.0, 0.0, 0.0)
    mu = canonicalize(s3, [(p, 0.0) for p in s3.points])
    assert measure_to_gamma(mu).z == (1.0, 1.0, 1.0)
    s2 = space_n(2)
    mu = canonicalize(s2, [("x0", 0.0), ("x1", -math.log(2))])
    assert measure_to_gamma(mu).z == (1.0, 0.5)


def test_gamma_to_delta_examples():
    assert gamma_to_delta(GammaPoint((1.0, 1.0, 1.0))).p \
        == (1 / 3, 1 / 3, 1 / 3)
    assert gamma_to_delta(GammaPoint((1.0, 0.0, 0.0))).p == (1.0, 0.0, 0.0)
    assert gamma_to_delta(GammaPoint((1.0, 0.5))).p == (0.75, 0.25)
    assert gamma_to_delta(GammaPoint((1.0, 1.0, 0.0))).p == (0.5, 0.5, 0.0)


def test_delta_to_gamma_examples():
    assert delta_to_gamma(DeltaPoint((0.25,) * 4)).z == (1.0,) * 4
    assert delta_to_gamma(DeltaPoint((1.0, 0.0, 0.0))).z == (1.0, 0.0, 0.0)
    assert delta_to_gamma(DeltaPoint((0.75, 0.25))).z == (1.0, 0.5)


# Outputs of the per-point map this row-wise map replaced, as float.hex:
# the reference for its rounding, sign of zero included.
TO_SIMPLEX = [
    ((1.0,), ("0x1.0000000000000p+0",)),
    ((1.0, 0.5), ("0x1.8000000000000p-1", "0x1.0000000000000p-2")),
    ((1 / 3, 1.0), ("0x1.5555555555556p-3", "0x1.aaaaaaaaaaaabp-1")),
    ((1.0, 1 / 3, 2 / 3),
     ("0x1.1c71c71c71c72p-1", "0x1.c71c71c71c71ep-4", "0x1.5555555555555p-2")),
    ((1 / 7, 1.0, 0.0),
     ("0x1.0000000000000p-3", "0x1.c000000000000p-1", "0x0.0p+0")),
    ((1.0, 1.0, 1.0), ("0x1.5555555555555p-2",) * 3),
    ((0.0, 1.0, 0.0), ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0")),
    ((1.0, 3 / 7, 5 / 7, 1 / 7),
     ("0x1.db6db6db6db6ep-2", "0x1.6db6db6db6db7p-3",
      "0x1.4924924924925p-2", "0x1.2492492492494p-5")),
    ((2 / 7, 1.0, 0.0, 1.0),
     ("0x1.0000000000000p-3", "0x1.c000000000000p-2",
      "0x0.0p+0", "0x1.c000000000000p-2")),
]
TO_TROPICAL = [
    ((1.0,), ("0x1.0000000000000p+0",)),
    ((0.75, 0.25), ("0x1.0000000000000p+0", "0x1.0000000000000p-1")),
    ((1 / 3, 2 / 3), ("0x1.5555555555555p-1", "0x1.0000000000000p+0")),
    ((1 / 7, 2 / 7, 4 / 7),
     ("0x1.b6db6db6db6dcp-2", "0x1.3cf3cf3cf3cf4p-1", "0x1.0000000000000p+0")),
    ((0.5, 0.0, 0.5),
     ("0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0")),
    ((1 / 3, 1 / 3, 1 / 3), ("0x1.0000000000000p+0",) * 3),
    ((0.0, 0.0, 1.0), ("0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0")),
    ((0.1, 0.2, 0.3, 0.4),
     ("0x1.999999999999ap-2", "0x1.3333333333334p-1",
      "0x1.999999999999ap-1", "0x1.0000000000000p+0")),
    ((1 / 7, 2 / 7, 0.0, 4 / 7),
     ("0x1.0000000000000p-2", "0x1.0000000000000p-1",
      "0x0.0p+0", "0x1.0000000000000p+0")),
]


@pytest.mark.parametrize("table,rows,one", [
    (TO_SIMPLEX, gamma_to_delta_rows, lambda x: gamma_to_delta(GammaPoint(x)).p),
    (TO_TROPICAL, delta_to_gamma_rows, lambda x: delta_to_gamma(DeltaPoint(x)).z),
], ids=["to_simplex", "to_tropical"])
def test_rounding_is_pinned(table, rows, one):
    for n in {len(x) for x, _ in table}:
        cases = [(x, want) for x, want in table if len(x) == n]
        out = rows(np.array([x for x, _ in cases]))
        assert [tuple(v.hex() for v in row) for row in out.tolist()] \
            == [want for _, want in cases]
    for x, want in table:
        assert tuple(v.hex() for v in one(x)) == want


def test_rows_near_the_center_and_the_boundary():
    # within MEMBERSHIP_TOL of the sum rule, with no coordinate below 1/n
    assert delta_to_gamma_rows([[0.5000000000001, 0.5]]).tolist() == [[1.0, 1.0]]
    # the one-point simplex: every member maps to its only point
    assert delta_to_gamma_rows([[1 - 2 ** -53], [1.0]]).tolist() == [[1.0], [1.0]]
    # rounding below zero is clamped, not reported as a bad output
    p = gamma_to_delta_rows([(1.0,) + (1e-16,) * 99])
    assert p.min() == 0.0 and abs(p.sum() - 1.0) < 1e-12


def test_invalid_points_rejected():
    with pytest.raises(NotInSimplex):
        GammaPoint((0.5, 0.5))  # max must be 1
    with pytest.raises(NotInSimplex):
        GammaPoint((1.0, -0.1))
    with pytest.raises(NotInSimplex):
        DeltaPoint((0.5, 0.6))
    with pytest.raises(NotInSimplex):
        DeltaPoint((1.5, -0.5))


def test_round_trip(suite_check):
    suite_check(suite.crit_bridge, bridge_grid=500)


def test_boundary_index_sets_preserved(suite_check):
    suite_check(suite.crit_bridge, bridge_grid=200)


def test_composition_injective_on_measures(rng):
    space = random_space(rng, 4)
    seen = {}
    for _ in range(100):
        mu = random_measure(space, rng)
        p = gamma_to_delta(measure_to_gamma(mu)).p
        if p in seen:
            assert seen[p] == mu
        seen[p] = mu
    distinct = {mu for mu in seen.values()}
    assert len(seen) == len(distinct)


def _bridge_rows_one_by_one(rng, count, n):
    """The reference of the bridge check's draws: one row at a time."""
    Z = np.empty((count, n))
    for z in Z:
        u = rng.random(n)
        zeros = rng.random(n) < 0.2
        u[zeros] = 0.0
        if (u == 0.0).all():
            u[int(rng.integers(n))] = 1.0
        z[:] = u / u.max()
    return Z


@pytest.mark.parametrize("block, counts", [(1, (1, 5, 40)), (3, (1, 5, 40)),
                                           (suite.BRIDGE_BLOCK, (1, 5, 300, 1000))])
def test_block_draws_are_the_row_loop_bit_for_bit(monkeypatch, block, counts):
    # the same rows and the same generator end state, with all-zero rows
    # at block starts, inside blocks and at block ends (n = 1 has many)
    monkeypatch.setattr(suite, "BRIDGE_BLOCK", block)
    for seed in range(4):
        for n in (1, 2, 3, 4, 7):
            for count in counts:
                blocks, rows = np.random.default_rng(seed), np.random.default_rng(seed)
                Z = suite._bridge_rows(blocks, count, n)
                assert Z.tobytes() == _bridge_rows_one_by_one(rows, count, n).tobytes()
                assert blocks.bit_generator.state == rows.bit_generator.state
                assert blocks.integers(2**62) == rows.integers(2**62)
