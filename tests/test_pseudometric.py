import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tropimeas
from tropimeas import (
    aggregate_d,
    build_space,
    canonicalize,
    dirac,
    hat_d,
    hat_d_meta,
    hausdorff_support_distance,
    meta_measure,
    oracle_sup,
    separates,
    tilde_d,
    uniform_j,
)
from tropimeas import jsonio, measure, pseudometric, suite
from tropimeas.errors import GridTooLarge, GroundNotMetric, SpaceMismatch
from tropimeas.geometry import random_measure
from tropimeas.kernels import oracle_sweep
from tropimeas.measure import MetaMeasure
from tropimeas.pseudometric import _entry, _sandwich, hat_d_stack, meta_ground
from tropimeas.sampling import random_meta_measure, random_space


# Frozen oracle values for the derived closed-form examples.  Computed by
# the grid oracle (step 0.01) before the closed form was trusted; the
# suite's oracle_sandwich criterion is the live sandwich.
ORACLE_FROZEN = {
    # (n, "mixed-vs-dirac on two points at distance 1"): hat_d value
    (1, "mixed"): 1.0,
    (2, "mixed"): 2.0,
    (3, "mixed"): 3.0,
}


def mixed_pair(two_point):
    mu = canonicalize(two_point, [("a", 0.0), ("b", 0.0)])
    return mu, dirac(two_point, "a")


def test_hat_d_dirac_pair_is_n_times_distance(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    for n in range(1, 6):
        assert hat_d(n, da, db).value == float(n)
        assert tilde_d(n, da, db) == 1.0


def test_hat_d_self_distance_zero(two_point, rng):
    mu = random_measure(two_point, rng)
    assert hat_d(3, mu, mu).value == 0.0


def test_hat_d_mixed_vs_dirac_matches_frozen_oracle(two_point):
    mu, nu = mixed_pair(two_point)
    for n in (1, 2, 3):
        expected = ORACLE_FROZEN[(n, "mixed")]
        assert hat_d(n, mu, nu).value == expected
        grid = oracle_sup(n, mu, nu, 0.01)
        assert abs(grid - expected) <= 0.02


def test_hat_d_rejects_bad_inputs(two_point, line3):
    with pytest.raises(SpaceMismatch):
        hat_d(1, dirac(two_point, "a"), dirac(line3, "a"))
    with pytest.raises(ValueError):
        hat_d(0, dirac(two_point, "a"), dirac(two_point, "b"))


def test_witness_is_consistent(two_point):
    mu, nu = mixed_pair(two_point)
    report = hat_d(2, mu, nu)
    # recompute the one-sided value attained by the reported atom
    lam = dict(mu.atoms)
    kap = dict(nu.atoms)
    assert report.witness_direction == "left"
    p = mu.atoms[report.witness_atom][0]
    attained = min(lam[p] - kw + 2 * two_point.d(p, q) for q, kw in kap.items())
    assert attained == report.value


def test_ties_break_toward_left(two_point):
    # the left and right maxima are equal: the mu side and its first
    # attaining atom win
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    for n in (1, 2, 5):
        assert hat_d(n, da, db) == pseudometric.DistanceReport(n, float(n), "left", 0)
    # mirrored weights: the two maxima, both 1, sit at different atoms
    mu = canonicalize(two_point, [("a", 0.0), ("b", -1.0)])
    nu = canonicalize(two_point, [("a", -1.0), ("b", 0.0)])
    for n in (1, 2, 5):
        assert hat_d(n, mu, nu) == pseudometric.DistanceReport(n, 1.0, "left", 0)
        assert hat_d(n, nu, mu) == pseudometric.DistanceReport(n, 1.0, "left", 1)


def test_closed_form_matches_oracle(suite_check):
    # the release gate: oracle <= closed form <= oracle + 2*step
    suite_check(suite.crit_oracle_sandwich, oracle_spaces=4, oracle_pairs=2)


def test_oracle_examples(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    assert abs(oracle_sup(1, da, db, 0.01) - 1.0) <= 0.02
    assert oracle_sup(2, da, da, 0.01) == 0.0


def test_oracle_refuses_large_spaces(rng):
    # the seed budget is the one limit: 5 points at step 0.01 exceed it
    space = random_space(rng, 5)
    mu = random_measure(space, rng)
    with pytest.raises(GridTooLarge, match="budget"):
        oracle_sup(1, mu, mu, 0.01)


@pytest.mark.parametrize("k,step,pairs", [(5, 0.25, 8), (6, 0.5, 8), (7, 0.5, 4)])
def test_oracle_sandwich_beyond_four_points(k, step, pairs):
    rng = np.random.default_rng(2008 + k)
    checks = []
    for _ in range(pairs):
        space = random_space(rng, k)
        mu = random_measure(space, rng, min_weight=-1.0)
        nu = random_measure(space, rng, min_weight=-1.0)
        n = int(rng.integers(1, 3))
        checks.append((hat_d(n, mu, nu).value, oracle_sup(n, mu, nu, step)))
    assert _sandwich(checks, step)["passed"], checks


def test_entry_counts_failures_and_passes_at_zero():
    entry = _entry({"failures": np.array([False, True, True])}, {"checks": 3})
    assert entry == {"passed": False, "checks": 3, "failures": 2}
    assert type(entry["failures"]) is int and type(entry["passed"]) is bool
    assert _entry({"failures": [False, False]}) == {"passed": True, "failures": 0}
    # one failure is enough
    assert _entry({"failures": [np.array([False]), True]})["passed"] is False


def test_entry_reports_the_largest_violation_against_its_bound():
    # a ragged list of scalars and arrays, flattened once
    entry = _entry({"max": ([0.25, np.array([[0.5, 3.0]]), np.float64(2.0)], 3.0)})
    assert entry == {"passed": True, "max": 3.0} and type(entry["max"]) is float
    assert _entry({"max": (np.array([3.0, 1.0]), 2.0)}) == {"passed": False, "max": 3.0}
    # a value equal to its bound passes; one ulp above it fails
    assert _entry({"max": ([0.0, 1e-12], 1e-12)})["passed"] is True
    assert _entry({"max": ([math.nextafter(1e-12, 1.0)], 1e-12)})["passed"] is False
    # -0.0 and all-negative violations read 0.0, never -0.0
    for violations in ([-0.0], [-1.0, -2.0], np.array([-0.0, -3.0])):
        value = _entry({"max": (violations, 0.0)})["max"]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert _entry({"max": ([], 0.0), "failures": []}) == {
        "passed": True, "max": 0.0, "failures": 0}


def test_a_nan_violation_fails_its_gate():
    # read as 0.0, the NaN would pass and hide the 5.0 beside it
    entry = _entry({"m": ([math.nan, 5.0], 0.0)})
    assert entry["passed"] is False and math.isnan(entry["m"])
    assert _entry({"m": (np.array([5.0, math.nan]), 10.0)})["passed"] is False
    entry = _sandwich([(math.nan, 1.0)], 0.01)
    assert entry["passed"] is False and math.isnan(entry["max_exact_minus_oracle"])
    # JSON has no NaN; the report writes its name
    assert json.loads(jsonio.dump(jsonio.sanitize(entry)))["max_oracle_minus_exact"] == "nan"


def test_entry_holds_decides_with_the_gates():
    assert _entry({}, {"value": 2.0}, holds=False) == {"passed": False, "value": 2.0}
    assert _entry({"failures": [False]}, holds=np.bool_(False))["passed"] is False
    assert _entry({"failures": [True]}, holds=True)["passed"] is False
    # a numpy verdict is read as a bool, so the JSON bytes are those of plain values
    entry = _entry({"failures": np.array([True]), "max": (np.float32(0.5), np.float64(1.0))},
                   holds=np.bool_(True))
    assert jsonio.dump(entry) == jsonio.dump({"passed": False, "failures": 1, "max": 0.5})
    assert [type(entry[k]) for k in ("passed", "failures", "max")] == [bool, int, float]


def test_sandwich_gates_both_sides():
    assert _sandwich([(1.0, 1.0)], 0.01) == {
        "passed": True, "checks": 1, "max_oracle_minus_exact": 0.0,
        "max_exact_minus_oracle": 0.0}
    # the oracle may sit up to 1e-12 above, the closed form up to 2*step above
    assert _sandwich([(1.0, 1.0 + 2.0 ** -40), (1.0 + 2.0 ** -6, 1.0)], 2.0 ** -7) == {
        "passed": True, "checks": 2, "max_oracle_minus_exact": 2.0 ** -40,
        "max_exact_minus_oracle": 2.0 ** -6}
    assert _sandwich([(1.0, 1.0 + 2.0 ** -39)], 2.0 ** -7)["passed"] is False
    assert _sandwich([(1.0 + 2.0 ** -5, 1.0)], 2.0 ** -7)["passed"] is False


def test_tilde_d_two_point_uniform(two_point):
    mu, nu = mixed_pair(two_point)
    assert tilde_d(1, mu, nu) == 1.0
    assert tilde_d(4, mu, nu) == 1.0  # Hausdorff limit already reached


def test_aggregate_metric_examples(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    assert abs(aggregate_d(da, db, 1e-9) - 1.0) <= 1e-9
    assert aggregate_d(da, da, 1e-9) == 0.0


def _float_space(rng, k, ties):
    """A k-point space with distances s*(1 + u), u uniform in [0, 1) (one
    decimal with ties): all lie in [s, 2s), so the triangle inequality
    holds exactly in floating point."""
    u = rng.random((k, k))
    if ties:
        u = np.round(u, 1)
    D = rng.uniform(0.3, 3.0) * (1.0 + np.minimum(u, u.T))
    np.fill_diagonal(D, 0.0)
    return build_space([f"p{i}" for i in range(k)], D)


def _float_measure(space, rng, ties):
    """Weights uniform in (-3, 0] on about 60% of the points (one decimal
    with ties), shifted to top 0."""
    w = -3.0 * rng.random(len(space))
    if ties:
        w = np.round(w, 1)
    keep = rng.random(len(space)) < 0.6
    keep[rng.integers(len(space))] = True
    return canonicalize(space, zip(np.array(space.points)[keep], w[keep]), normalize=True)


def _walk_pairs():
    """Seeded pairs of float spaces and weights at 5, 50 and 150 points,
    one third of them rounded to one decimal so that distances and gaps
    tie: a pair, a measure against itself, and a measure against itself
    plus one deep atom that only separates once n*d exceeds its depth
    (or not by level 64)."""
    rng = np.random.default_rng(2718)
    for k in (5, 50, 150):
        for r in range(3):
            space = _float_space(rng, k, ties=r == 0)
            mu, nu = (_float_measure(space, rng, ties=r == 0) for _ in range(2))
            yield mu, nu
            yield mu, mu
            rest = [p for p in space.points if p not in dict(mu.atoms)]
            if rest:
                deep = (rest[int(rng.integers(len(rest)))], -10.0 - 4.0 * rng.random())
                yield mu, canonicalize(space, list(mu.atoms) + [deep])


WALK_LEVELS = [*range(1, 40), 10**6 + 1, 10**9 + 7, 3 * 10**15 + 1]


def _walk(mu, nu, levels):
    values = pseudometric._walk(mu, nu, levels)
    return [value.hex() for value in values]


def _dense_supports(D, wmu, wnu):
    """The dense-mask reference of a pair's supports: (sub, lam, kap), the
    ground distances D from mu's atoms to nu's and their weights, sliced
    with masks of the dense weights wmu, wnu (-inf where no atom)."""
    rows, cols = wmu > -np.inf, wnu > -np.inf
    return D.compress(rows, 0).compress(cols, 1), wmu[rows], wnu[cols]


def _dense_hat_d(sub, gap, n):
    """(value, direction, atom) of the closed form on a dense-mask table."""
    left, right = pseudometric._one_sided(sub, gap, n)
    i, j = int(left.argmax()), int(right.argmax())
    if left[i] >= right[j]:
        return float(left[i]), "left", i
    return float(right[j]), "right", j


def test_stored_supports_give_the_dense_mask_results_bit_for_bit():
    # hat_d, separates, aggregate_d and hausdorff_support_distance read the
    # supports each measure stores; the reference slices dense weights
    levels = [1, 2, 3, 7, 40, 10**6 + 1]
    for mu, nu in _walk_pairs():
        sub, lam, kap = _dense_supports(mu.space.dist, mu.weights, nu.weights)
        gap = np.subtract.outer(lam, kap)
        for n in levels:
            report = hat_d(n, mu, nu)
            value, direction, atom = _dense_hat_d(sub, gap, n)
            assert report.value.hex() == value.hex()
            assert (report.witness_direction, report.witness_atom) == (direction, atom)
        at = [max(m.max() for m in pseudometric._one_sided(sub, gap, n)) for n in range(1, 65)]
        first = next((n for n, v in enumerate(at, 1) if v > 0.0), None)
        assert separates(mu, nu, 64) == first
        bound = mu.space.diameter + max(float(np.abs(lam).max()), float(np.abs(kap).max()))
        N = 1
        while math.ldexp(bound, -N) >= 1e-9:
            N += 1
        assert aggregate_d(mu, nu, 1e-9).hex() == sum(
            math.ldexp(_dense_hat_d(sub, gap, k)[0] / k, -k) for k in range(1, N + 1)).hex()
        hausdorff = float(max(sub.min(axis=1).max(), sub.min(axis=0).max()))
        assert hausdorff_support_distance(mu, nu).hex() == hausdorff.hex()


def test_hat_d_meta_slices_no_support(monkeypatch):
    # the ground measures' supports are stored: hat_d_meta derives none
    pairs, support, calls = list(_meta_pairs()), measure._support, []

    def counted(weights):
        calls.append(weights)
        return support(weights)

    monkeypatch.setattr(pseudometric, "_support", counted)
    monkeypatch.setattr(measure, "_support", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroundNotMetric)
        for n, ground_n, M, N in pairs:
            hat_d_meta(n, ground_n, M, N)
    assert calls == []


def test_level_walk_matches_hat_d_bit_for_bit():
    # a walk of several levels runs over the pruned table, hat_d over the full one
    tol = 1e-9
    for mu, nu in _walk_pairs():
        assert _walk(mu, nu, WALK_LEVELS) == [hat_d(n, mu, nu).value.hex() for n in WALK_LEVELS]
        # the truncation rule of aggregate_d
        bound = mu.space.diameter + max(abs(w) for _, w in mu.atoms + nu.atoms)
        N = 1
        while math.ldexp(bound, -N) >= tol:
            N += 1
        assert aggregate_d(mu, nu, tol) == sum(
            math.ldexp(hat_d(k, mu, nu).value / k, -k) for k in range(1, N + 1))
        first = next((k for k in range(1, 65) if hat_d(k, mu, nu).value > 0), None)
        for n_max in (1, 7, 64):
            assert separates(mu, nu, n_max) == (first if first and first <= n_max else None)


def test_level_blocks_do_not_change_the_walk(monkeypatch):
    # one level per block, uneven blocks, and one block for all levels
    pairs = list(_walk_pairs())[::4]
    walks = [_walk(mu, nu, WALK_LEVELS) for mu, nu in pairs]
    for budget in (1, 1000, 10**9):
        monkeypatch.setattr(pseudometric, "_BLOCK_ENTRIES", budget)
        assert [_walk(mu, nu, WALK_LEVELS) for mu, nu in pairs] == walks


def test_walk_names_its_first_overflowing_level(monkeypatch):
    # 179 * 1e306 is finite and 180 * 1e306 is not; the walk runs about
    # 1,000 levels, in one block or in one block per level
    s = build_space(["a", "b"], [[0.0, 1e306], [1e306, 0.0]])
    for budget in (pseudometric._BLOCK_ENTRIES, 1):
        monkeypatch.setattr(pseudometric, "_BLOCK_ENTRIES", budget)
        with pytest.raises(ValueError, match="dual distance at level 180 is not finite"):
            aggregate_d(dirac(s, "a"), dirac(s, "b"), 1e-9)


def _row_wise_staircase(sub, lam, kap):
    """The staircase as first written: each side's rows scanned along axis
    1 and the kept entries read with boolean masks of the full tables."""
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


def test_staircase_matches_the_row_wise_scan_byte_for_byte():
    # tables of 1x1 up to 40x40, with tied weights and tied distances in
    # every other table, each also scaled by 1e300
    rng = np.random.default_rng(1618)
    tables = [(np.array([[0.0]]), np.array([0.0]), np.array([0.0])),
              (np.array([[2.5]]), np.array([-1.0]), np.array([0.0]))]
    for b in range(60):
        s, t = (int(x) for x in rng.integers(1, 41, size=2))
        sub, lam, kap = rng.random((s, t)), -3.0 * rng.random(s), -3.0 * rng.random(t)
        if b % 2:
            sub, lam, kap = np.round(sub, 1), np.round(lam, 1), np.round(kap, 1)
        tables.append((sub, lam, kap))
    for sub, lam, kap in tables:
        for scale in (1.0, 1e300):
            new = pseudometric._staircase(sub * scale, lam, kap)
            old = _row_wise_staircase(sub * scale, lam, kap)
            for a, b in zip(new, old):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


def _stacked_pairs(rng, count):
    """Seeded pairs on spaces of 1-5 points, in turn random, Dirac and
    full-support pairs, with their tables padded to 5 points (distances 0,
    weights -inf)."""
    D = np.zeros((count, 5, 5))
    W = np.full((2, count, 5), -np.inf)
    pairs = []
    for b in range(count):
        k = b % 5 + 1
        space = random_space(rng, k)
        kind = b // 5 % 3
        if kind == 0:
            pair = (random_measure(space, rng), random_measure(space, rng))
        elif kind == 1:
            pair = tuple(dirac(space, space.points[i]) for i in rng.integers(k, size=2))
        else:
            pair = tuple(canonicalize(space, zip(space.points, rng.integers(-768, 1, size=k) / 256.0),
                                      normalize=True) for _ in range(2))
        D[b, :k, :k] = space.dist
        for w, mu in zip(W, pair):
            w[b, :k] = mu.weights
        pairs.append(pair)
    return pairs, D, W


def test_hat_d_stack_equals_hat_d_bit_for_bit():
    rng = np.random.default_rng(31)
    pairs, D, (wmu, wnu) = _stacked_pairs(rng, 600)
    per_row = rng.integers(1, 65, size=len(pairs))
    for n in (3, per_row):
        levels = np.broadcast_to(n, len(pairs))
        expected = [hat_d(int(m), mu, nu).value for m, (mu, nu) in zip(levels, pairs)]
        assert hat_d_stack(n, D, wmu, wnu).tolist() == expected
        assert hat_d_stack(n, D, wnu, wmu).tolist() == expected
        assert hat_d_stack(n, D, wmu, wmu).tolist() == [0.0] * len(pairs)
    # one overflowing level among valid ones, on a pair whose supports differ
    b = next(b for b, (mu, nu) in enumerate(pairs)
             if ((mu.weights > -np.inf) != (nu.weights > -np.inf)).any())
    levels = np.ones(len(pairs), dtype=np.int64)
    levels[b] = 10**18
    D[b] *= 1e300
    with pytest.raises(ValueError, match="level 1e[+]18 is not finite"):
        hat_d_stack(levels, D, wmu, wnu)


def test_pseudometric_axioms(suite_check):
    suite_check(suite.crit_pseudometric_axioms, axiom_triples=20)


def test_delta_isometry(suite_check):
    suite_check(suite.crit_delta_isometry, isometry_spaces=20)


def test_delta_isometry_memory_stays_bounded():
    # each pair's distance is read off its table; a (k, k) table copied per
    # pair and per level peaks near 317 MB at this count.  The child reads
    # its own peak (VmHWM, in kB): after vfork and exec, its ru_maxrss
    # carries the peak of the pytest process that started it.
    code = ("from tropimeas.suite import SuiteConfig, crit_delta_isometry\n"
            "config = SuiteConfig(seed=0, counts={'isometry_spaces': 20_000})\n"
            "assert crit_delta_isometry(config)['passed']\n"
            "status = open('/proc/self/status').read()\n"
            "print(status.split('VmHWM:')[1].split()[0])\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tropimeas.__file__)))
    child = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True)
    assert int(child.stdout) <= 120 * 1024


def test_pushforward_nonexpansion(suite_check):
    suite_check(suite.crit_nonexpansion, push_instances=100, zeta_instances=1)


def test_zero_weight_measures_give_hausdorff(two_point, line3):
    mu = uniform_j(line3)
    nu = canonicalize(line3, [("a", 0.0)])
    for n in range(1, 4):
        assert hat_d(n, mu, nu).value == n * hausdorff_support_distance(mu, nu)
    assert hausdorff_support_distance(mu, nu) == 2.0


def test_separates_examples(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    assert separates(da, da, 10) is None
    assert separates(da, db, 10) == 1
    mu = canonicalize(two_point, [("a", 0.0), ("b", -5.0)])
    # the b-atom only becomes visible once n*d exceeds the weight gap
    n = separates(mu, da, 10)
    assert n == 6
    assert oracle_sup(5, mu, da, 0.01) <= 0.02       # still indistinguishable
    assert oracle_sup(6, mu, da, 0.01) >= 1.0 - 0.02  # separated at n = 6


def test_separates_equal_measures_at_once(two_point, monkeypatch):
    # equal measures are at distance 0 at every level: no level is probed
    def probed(*args):
        raise AssertionError("separates probed a level")

    monkeypatch.setattr(pseudometric, "_one_sided", probed)
    mu = canonicalize(two_point, [("a", 0.0), ("b", -5.0)])
    assert separates(mu, canonicalize(two_point, mu.atoms), 10**12) is None
    # a -0.0 weight is stored as 0.0, so its twin is the same measure
    nu = canonicalize(two_point, [("a", -0.0), ("b", -1.0)])
    assert separates(nu, canonicalize(two_point, [("a", 0.0), ("b", -1.0)]), 10**12) is None


def test_separates_gallops(two_point, monkeypatch):
    # levels 1, 2, 4, ... then a bisection, one level per kernel call
    one_sided, probes = pseudometric._one_sided, []

    def probe(sub, gap, n):
        probes.append(n)
        assert len(probes) <= 2 * math.log2(10**9) + 2, "separates walked the levels"
        return one_sided(sub, gap, n)

    monkeypatch.setattr(pseudometric, "_one_sided", probe)
    da = dirac(two_point, "a")
    for depth, answer in ((0.5, 1), (1e6, 10**6 + 1), (1e9, 10**9 + 1)):
        probes.clear()
        mu = canonicalize(two_point, [("a", 0.0), ("b", -depth)])
        assert separates(mu, da, 10**12) == answer
        assert 1 <= len(probes) <= 2 * math.log2(answer) + 2
    probes.clear()
    assert separates(mu, da, 10**9) is None
    assert 1 <= len(probes) <= 2 * math.log2(10**9) + 2


def test_separates_raises_only_on_an_overflowing_answer():
    # a probe above the answer may overflow; the walk never reached it
    s = build_space(["a", "b"], [[0.0, 5e307], [5e307, 0.0]])
    mu = canonicalize(s, [("a", 0.0), ("b", -1.2e308)])
    assert separates(mu, dirac(s, "a"), 10) == 3
    with pytest.raises(ValueError, match="level 4 is not finite"):
        hat_d(4, mu, dirac(s, "a"))
    # level 1 is 0 and level 2 overflows: the walk raised there too
    s = build_space(["a", "b"], [[0.0, 1e308], [1e308, 0.0]])
    mu = canonicalize(s, [("a", 0.0), ("b", -1.5e308)])
    with pytest.raises(ValueError, match="level 2 is not finite"):
        separates(mu, dirac(s, "a"), 10)


def test_separation_on_random_pairs(suite_check):
    suite_check(suite.crit_separation, separation_pairs=30)


def test_ball_convexity(suite_check):
    suite_check(suite.crit_ball_convexity, ball_instances=100)


def test_hat_d_meta_trivial_and_dirac_lift(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    M = meta_measure(two_point, [(da, 0.0)])
    N = meta_measure(two_point, [(db, 0.0)])
    assert hat_d_meta(2, 2, M, M) == 0.0
    # one level up, the dirac pair mirrors the ground isometry
    assert hat_d_meta(2, 2, M, N) == 2.0 * two_point.d("a", "b")


def test_hat_d_meta_zeta_nonexpansion(suite_check):
    suite_check(suite.crit_nonexpansion, push_instances=1, zeta_instances=50)


def test_hat_d_meta_warns_on_degenerate_ground(two_point):
    da = dirac(two_point, "a")
    mu = canonicalize(two_point, [("a", 0.0), ("b", -5.0)])
    # tilde_d(1, da, mu) = 0 although da != mu
    M = meta_measure(two_point, [(da, 0.0)])
    N = meta_measure(two_point, [(mu, 0.0)])
    with pytest.warns(GroundNotMetric):
        value = hat_d_meta(1, 1, M, N)
    assert value == 0.0


def _meta_pairs():
    """Seeded meta-measure pairs at 5, 50 and 150 points, drawn from a pool
    of four measures so that their grounds share measures, with M == N
    among them, and levels n and ground_n that differ."""
    rng = np.random.default_rng(4242)
    for k in (5, 50, 150):
        space = random_space(rng, k)
        pool = [random_measure(space, rng) for _ in range(4)]
        for _ in range(6):
            M, N = (meta_measure(space, zip([pool[int(x)] for x in rng.choice(4, size=3)],
                                            rng.integers(-768, 1, size=3) / 256.0),
                                 normalize=True) for _ in range(2))
            n, ground_n = (int(x) for x in rng.integers(1, 6, size=2))
            yield n, ground_n + (ground_n == n), M, N
            yield n, ground_n, M, M


def test_hat_d_meta_is_the_closed_form_on_the_meta_ground():
    # the block hat_d_meta computes gives the bits of the full ground
    shared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroundNotMetric)
        for n, ground_n, M, N in _meta_pairs():
            shared += any(mu in N.ground for mu in M.ground) and M != N
            value, _, _ = pseudometric._attained(*_dense_supports(*meta_ground(ground_n, M, N)), n)
            assert hat_d_meta(n, ground_n, M, N).hex() == value.hex()
    assert shared


def test_hat_d_meta_computes_only_the_cross_block(monkeypatch):
    closed_form = pseudometric._closed_form
    calls = []

    def counted(*args):
        calls.append(args)
        return closed_form(*args)

    monkeypatch.setattr(pseudometric, "_closed_form", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroundNotMetric)
        for n, ground_n, M, N in _meta_pairs():
            calls.clear()
            hat_d_meta(n, ground_n, M, N)
            assert len(calls) <= len(M.ground) * len(N.ground)
            # each distinct pair of distinct measures once, none of a measure with itself
            pairs = {frozenset((a, b)) for a in M.ground for b in N.ground if a != b}
            assert len(calls) == len(pairs)


def test_hat_d_meta_warns_only_for_a_pair_it_reads(two_point):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    mu = canonicalize(two_point, [("a", 0.0), ("b", -5.0)])  # tilde_d(1, da, mu) = 0
    inside = meta_measure(two_point, [(da, 0.0), (mu, -1.0)])
    across = meta_measure(two_point, [(da, 0.0), (db, -1.0)])
    for M, N, read in ((inside, meta_measure(two_point, [(db, 0.0)]), False),
                       (across, meta_measure(two_point, [(mu, 0.0)]), True)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            hat_d_meta(1, 1, M, N)
        assert [w.category for w in caught] == [GroundNotMetric] * read
        with pytest.warns(GroundNotMetric):
            meta_ground(1, M, N)


def test_hat_d_meta_against_oracle_on_induced_space(two_point):
    # the induced ground space here is a genuine 2-point metric space
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    M = meta_measure(two_point, [(da, 0.0), (db, -0.5)])
    N = meta_measure(two_point, [(db, 0.0)])
    n = 2
    exact = hat_d_meta(n, n, M, N)
    G, wm, wn = meta_ground(n, M, N)
    g = tilde_d(n, da, db)
    assert G.tolist() == [[0.0, g], [g, 0.0]]
    assert wm.tolist() == [0.0, -0.5] and wn.tolist() == [-math.inf, 0.0]
    grid = oracle_sweep(G, n, wm, wn, 0.5 + n * g, 0.005)
    assert grid <= exact + 1e-12
    assert exact <= grid + 0.01


@pytest.mark.parametrize("n", [0, -2, 1.5, pytest.param(10**400, id="10**400")])
def test_levels_are_checked(two_point, n):
    da, db = dirac(two_point, "a"), dirac(two_point, "b")
    M = meta_measure(two_point, [(da, 0.0)])
    N = meta_measure(two_point, [(db, 0.0)])
    for call in (lambda: hat_d_meta(n, 1, M, N), lambda: hat_d_meta(1, n, M, N),
                 lambda: oracle_sup(n, da, db, 0.1), lambda: separates(da, db, n)):
        with pytest.raises(ValueError, match="positive integer"):
            call()


@pytest.mark.parametrize("tol", [0.0, math.inf, math.nan])
def test_aggregate_requires_positive_tol(two_point, tol):
    with pytest.raises(ValueError, match="positive and finite"):
        aggregate_d(dirac(two_point, "a"), dirac(two_point, "b"), tol)


@pytest.mark.parametrize("k", [5, 50])
def test_meta_ground_is_the_tilde_d_matrix(k):
    rng = np.random.default_rng(k)
    for _ in range(10):
        space = random_space(rng, k)
        M, N = random_meta_measure(space, rng), random_meta_measure(space, rng)
        n = int(rng.integers(1, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GroundNotMetric)
            G, _, _ = meta_ground(n, M, N)
        ground = list(dict.fromkeys(mu for mu, _ in M.atoms + N.atoms))
        expected = [[tilde_d(n, a, b) for b in ground] for a in ground]
        assert G.tolist() == expected


def test_meta_ground_rejects_inner_measure_on_another_space(two_point, line3):
    # the constructor checks each inner measure's space, so no MetaMeasure
    # with a foreign inner measure reaches meta_ground
    with pytest.raises(SpaceMismatch):
        MetaMeasure(two_point, (dirac(line3, "a"),), (0.0,))
