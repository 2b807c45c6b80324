from fractions import Fraction
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from tropimeas import build_space, covering_radius, nearest_net_retraction, tighten
import tropimeas
from tropimeas import suite
from tropimeas.errors import (
    AsymmetricDistance,
    BadDistanceMatrix,
    EmptyNet,
    MissingValue,
    NegativeDistance,
    ShapeMismatch,
    SpaceMismatch,
    TriangleViolation,
    UnknownPoint,
    ZeroOffDiagonal,
)
from tropimeas import metric
from tropimeas.metric import LipFunction, PointMap, compose, identity_map
from tropimeas.sampling import random_space


def test_build_space_two_points(two_point):
    assert two_point.diameter == 1.0
    assert two_point.d("a", "b") == 1.0


def test_build_space_triangle_violation():
    with pytest.raises(TriangleViolation) as err:
        build_space(["a", "b", "c"],
                    [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert set(err.value.indices) == {"a", "b", "c"}


def first_triangle_violation(D):
    """The lexicographically first (i, j, l) with D[i][l] > D[i][j] + D[j][l]."""
    k = len(D)
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if D[i][l] > D[i][j] + D[j][l]:
                    return i, j, l
    return None


def test_triangle_check_reports_the_first_violation():
    rng = np.random.default_rng(150)
    violations = 0
    for _ in range(300):
        k = int(rng.integers(2, 9))
        D = rng.integers(1, 9, size=(k, k)) / 4.0
        D = np.minimum(D, D.T)
        np.fill_diagonal(D, 0.0)
        points = [f"p{i}" for i in range(k)]
        expected = first_triangle_violation(D.tolist())
        if expected is None:
            build_space(points, D)
            continue
        violations += 1
        with pytest.raises(TriangleViolation) as err:
            build_space(points, D)
        assert err.value.indices == tuple(points[i] for i in expected)
    assert violations > 100


def first_fault(D):
    """build_space's first refusal, by its old loop: (error name, indices)."""
    k = len(D)
    for i in range(k):
        for j in range(k):
            if not math.isfinite(D[i][j]):
                return "NonFiniteDistance", (i, j)
    for i in range(k):
        if D[i][i] != 0.0:
            return "NonzeroDiagonal", (i,)
        for j in range(i + 1, k):
            if D[i][j] < 0.0 or D[j][i] < 0.0:
                return "NegativeDistance", (i, j)
            if D[i][j] != D[j][i]:
                return "AsymmetricDistance", (i, j)
            if D[i][j] == 0.0:
                return "ZeroOffDiagonal", (i, j)
    found = first_triangle_violation(D)
    return found and ("TriangleViolation", found)


def test_build_space_reports_the_first_fault_of_its_loop_order():
    rng = np.random.default_rng(151)
    values = np.array([0.0, -0.5, 1.0, 2.0, 3.0, np.nan, np.inf])
    faults = set()
    for _ in range(2000):
        k = int(rng.integers(1, 6))
        D = values[rng.choice(7, size=(k, k), p=[.05, .02, .4, .4, .1, .02, .01])]
        if rng.random() < 0.7:
            D = np.minimum(D, D.T)
        if rng.random() < 0.8:
            np.fill_diagonal(D, 0.0)
        points = [f"p{i}" for i in range(k)]
        expected = first_fault(D.tolist())
        if expected is None:
            build_space(points, D)
            continue
        with pytest.raises(BadDistanceMatrix) as err:
            build_space(points, D)
        assert (type(err.value).__name__, err.value.indices) == (
            expected[0], tuple(points[i] for i in expected[1]))
        faults.add(expected[0])
    assert len(faults) == 6


def test_a_space_needs_at_least_one_point():
    for build in (lambda: build_space([], np.zeros((0, 0))),
                  lambda: random_space(np.random.default_rng(0), 0)):
        with pytest.raises(ShapeMismatch, match="a space needs at least one point"):
            build()


def test_build_space_singleton():
    space = build_space(["a"], [[0.0]])
    assert len(space) == 1
    assert space.diameter == 0.0


def test_build_space_error_cases():
    with pytest.raises(AsymmetricDistance):
        build_space(["a", "b"], [[0, 1], [2, 0]])
    with pytest.raises(NegativeDistance):
        build_space(["a", "b"], [[0, -1], [-1, 0]])
    with pytest.raises(ZeroOffDiagonal):
        build_space(["a", "b"], [[0, 0], [0, 0]])
    with pytest.raises(UnknownPoint):
        build_space(["a", "b"], [[0, 1], [1, 0]]).index("z")


def test_build_space_refuses_a_table_of_another_size():
    with pytest.raises(ShapeMismatch, match=r"shape \(3, 3\), expected \(2, 2\)"):
        build_space(["a", "b"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def test_a_space_is_unequal_to_other_types(two_point):
    assert two_point.__eq__("x") is NotImplemented
    assert two_point != "x" and not two_point == "x"


def test_tighten_fixes_lipschitz_input(line3):
    raw = {p: 2.0 * line3.d("a", p) for p in line3.points}
    phi = tighten(raw, 2, line3)
    assert [phi(p) for p in line3.points] == [raw[p] for p in line3.points]


def test_tighten_clamps(two_point):
    phi = tighten({"a": 0.0, "b": 100.0}, 1, two_point)
    assert (phi("a"), phi("b")) == (0.0, 1.0)


def test_tighten_singleton():
    space = build_space(["a"], [[0.0]])
    phi = tighten({"a": 17.5}, 3, space)
    assert phi("a") == 17.5


def test_tighten_idempotent_and_dominated(suite_check):
    # the LipFunction constructor certifies the n-Lipschitz bound
    suite_check(suite.extra_tighten_retraction)


def test_lip_function_rejects_steep_values(two_point):
    with pytest.raises(ValueError):
        LipFunction(two_point, (0.0, 10.0), 1)


def test_value_tables_must_be_finite(two_point):
    # nan passes the Lipschitz gate unseen: nan > 1e-12 is False
    with pytest.raises(ValueError, match="must be finite"):
        tighten({"a": math.nan, "b": 0.0}, 1, two_point)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            LipFunction(two_point, (bad, 0.0), 1)


def test_functions_and_maps_on_other_spaces_raise_space_mismatch(two_point, line3):
    on_line = tighten({p: 0.0 for p in line3.points}, 1, line3)
    for call in (lambda: tighten(on_line, 1, two_point),
                 lambda: compose(identity_map(two_point), identity_map(line3))):
        with pytest.raises(SpaceMismatch) as err:
            call()
        assert not isinstance(err.value, BadDistanceMatrix)


def test_a_map_of_the_wrong_length_is_a_missing_value(two_point):
    # no distance matrix is at fault, so no BadDistanceMatrix handler catches it
    with pytest.raises(MissingValue, match="assignment has 1 images, expected one per "
                                           "source point: 2") as err:
        try:
            PointMap(two_point, two_point, ("a",))
        except BadDistanceMatrix:
            pytest.fail("caught as a BadDistanceMatrix")
    assert not isinstance(err.value, BadDistanceMatrix)


def test_retraction_identity_and_constant(line3):
    r = nearest_net_retraction(line3, line3.points)
    assert r.assignment == line3.points
    r = nearest_net_retraction(line3, ["a"])
    assert r.assignment == ("a", "a", "a")


def test_retraction_tie_break_low_index(line3):
    r = nearest_net_retraction(line3, ["a", "c"])
    assert r("a") == "a"
    assert r("b") == "a"  # tie at distance 1 resolved to the lower index
    assert r("c") == "c"


def test_retraction_is_idempotent_and_bounded(rng):
    for _ in range(30):
        space = random_space(rng, int(rng.integers(2, 7)))
        k = int(rng.integers(1, len(space) + 1))
        net = [space.points[i] for i in rng.choice(len(space), size=k, replace=False)]
        r = nearest_net_retraction(space, net)
        assert compose(r, r).assignment == r.assignment
        rad = covering_radius(space, net)
        assert all(space.d(p, r(p)) <= rad for p in space.points)
        assert all(r(p) == p for p in net)


def test_a_retraction_does_not_import_numpy_ma():
    # numpy.ma costs a one-shot process such as dap-demo 9-15 ms and 1.7 MB
    code = ("import sys\n"
            "import tropimeas.cli\n"
            "from tropimeas import build_space, covering_radius, nearest_net_retraction\n"
            "line = build_space('abc', [[0, 1, 2], [1, 0, 1], [2, 1, 0]])\n"
            "assert nearest_net_retraction(line, 'ca').assignment == ('a', 'a', 'c')\n"
            "assert covering_radius(line, 'a') == 2.0\n"
            "assert 'numpy.ma' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tropimeas.__file__)))
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                   check=True)


def per_point_retraction(space, net):
    """Reference: each point to the nearest net point, ties to the lowest
    index, one point at a time."""
    idx = sorted({space.index(p) for p in net})
    return tuple(space.points[min(idx, key=lambda j: (space.dist[i, j], j))]
                 for i in range(len(space)))


def test_retraction_matches_per_point_reference(rng):
    # distances in {1, 2} always satisfy the triangle inequality and tie often
    for _ in range(50):
        k = int(rng.integers(2, 9))
        D = np.triu(rng.integers(1, 3, size=(k, k)), 1).astype(float)
        space = build_space([f"p{i}" for i in range(k)], D + D.T)
        net = [space.points[i] for i in rng.choice(k, size=int(rng.integers(1, k + 1)))]
        r = nearest_net_retraction(space, net)
        assert r.assignment == per_point_retraction(space, net)
        assert covering_radius(space, net) == max(
            space.d(p, q) for p, q in zip(space.points, r.assignment))


def test_empty_net_rejected(line3):
    with pytest.raises(EmptyNet):
        nearest_net_retraction(line3, [])
    with pytest.raises(EmptyNet):
        covering_radius(line3, [])


def test_identity_map_nonexpanding(line3):
    assert identity_map(line3).is_nonexpanding()


def test_space_equality_and_hash(two_point):
    clone = build_space(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    assert clone == two_point
    assert hash(clone) == hash(two_point)
    assert build_space(["a", "b"], [[0.0, 2.0], [2.0, 0.0]]) != two_point
    # a -0.0 diagonal entry is stored as 0.0: equal spaces hash alike
    twin = build_space(["a", "b"], [[-0.0, 1.0], [1.0, -0.0]])
    assert twin == two_point and hash(twin) == hash(two_point)
    assert twin.dist.tobytes() == two_point.dist.tobytes()


def test_dist_matrix_is_readonly(two_point):
    with pytest.raises(ValueError):
        two_point.dist[0, 1] = 5.0


def test_tighten_output_passes_the_lipschitz_check_at_large_values():
    # fl(1e20 + 9000) = 1e20 + 16384 and fl(1e20 + 7000) = 1e20: one projection
    # gives i the value 1e20 + 16384, which a second one lowers to
    # fl(1e20 + 2000) = 1e20, the fixed point
    s = build_space(["p", "i", "j"], [[0, 9000, 7000], [9000, 0, 2000], [7000, 2000, 0]])
    phi = tighten({"p": 1e20, "i": 2e20, "j": 2e20}, 1, s)
    assert phi.values == (1e20, 1e20, 1e20)


def test_lip_function_rejects_values_ten_times_beyond_the_rounding_bound():
    # the float rule: v_j may reach fl(v_i + fl(n*d)) and not one ulp more
    s = build_space(["i", "j"], [[0, 2000], [2000, 0]])
    for base in (0.0, 1.0, 1e20):
        top = base + 2000.0
        LipFunction(s, (base, top), 1)
        for ulps in (1, 10):
            steep = top + ulps * float(np.spacing(top))
            with pytest.raises(ValueError, match="not 1-Lipschitz between 'i' and 'j'"):
                LipFunction(s, (base, steep), 1)


def test_lip_function_refuses_a_table_lipschitz_in_the_reals_where_n_d_rounds_down():
    # v_j - v_i = 3*0.7 exactly in the reals (0.7 the float), but
    # fl(-2 + fl(3*0.7)) = 0.09999999999999964 < v_j: the float rule refuses it
    s = build_space(["i", "j"], [[0, 0.7], [0.7, 0]])
    v = (-2.0, 0.09999999999999987)
    assert Fraction(v[1]) - Fraction(v[0]) == 3 * Fraction(0.7)
    assert -2.0 + 3 * 0.7 == 0.09999999999999964
    with pytest.raises(ValueError, match="not 3-Lipschitz between 'i' and 'j'"):
        LipFunction(s, v, 3)


def far_point_cases(rng, count):
    """Spaces p, i, j with p 1e15-1e22 away from a pair at most 2^20 apart,
    a level n in 1..7 and raw values that p's projection sets at i and j."""
    cases = []
    while len(cases) < count:
        far = 10.0 ** rng.uniform(15, 22)
        near = float(rng.integers(1, 2 ** 20 + 1))
        other = float(far + rng.uniform(-near, near))
        try:
            s = build_space(["p", "i", "j"],
                            [[0, far, other], [far, 0, near], [other, near, 0]])
        except TriangleViolation:
            continue
        n = int(rng.integers(1, 8))
        vp = -n * far + float(rng.integers(-4, 5)) * float(np.spacing(n * far))
        cases.append((s, n, {"p": vp, "i": 1e30, "j": 1e30}))
    return cases


def test_tighten_returns_a_fixed_point_when_a_far_point_sets_the_values():
    # one projection gave i and j values 65536 (one ulp of 6e20) beyond 6*d(i, j)
    a, b, c = 1.0000000000000038e+20, 1.000000000000008e+20, 425984.0
    s = build_space(["p", "i", "j"], [[0, a, b], [a, 0, c], [b, c, 0]])
    phi = tighten({"p": -5.999999999999999e+20, "i": 1e30, "j": 1e30}, 6, s)
    assert tighten(phi, 6, s).values == phi.values
    for s, n, raw in far_point_cases(np.random.default_rng(23), 300):
        phi = tighten(raw, n, s)
        assert tighten(phi, n, s).values == phi.values
        assert all(phi(p) <= raw[p] for p in s.points)


def test_a_value_one_ulp_above_its_projection_raises_naming_the_pair():
    rng = np.random.default_rng(24)
    cases = far_point_cases(rng, 50)
    for _ in range(50):
        space = random_space(rng, int(rng.integers(2, 7)))
        raw = rng.uniform(-3e6, 3e6, len(space))
        cases.append((space, int(rng.integers(1, 8)), dict(zip(space.points, raw))))
    for s, n, raw in cases:
        v = np.array(tighten(raw, n, s).values)
        z = int(rng.integers(len(s)))
        terms = v + n * s.dist[:, z]
        terms[z] = np.inf
        p = int(terms.argmin())
        v[z] = terms[p]  # v_z = fl(v_p + fl(n*d(p, z))) still passes
        LipFunction(s, tuple(v), n)
        v[z] = np.nextafter(terms[p], np.inf)
        i, j = sorted((p, z))
        with pytest.raises(ValueError, match=f"not {n}-Lipschitz between "
                                             f"'{s.points[i]}' and '{s.points[j]}'"):
            LipFunction(s, tuple(v), n)


def slack_rule_accepts(v, n, D):
    """LipFunction's rule before the float projection rule: |v_i - v_j| - n*d
    at most 1e-12 plus 4 ulps of max(|v_i|, |v_j|, n*d)."""
    size = np.abs(v)
    slack = 1e-12 + 4 * np.spacing(np.maximum(np.maximum.outer(size, size), n * D))
    return not (np.abs(v[:, None] - v[None, :]) - n * D > slack).any()


def test_the_float_rule_accepts_no_table_the_slack_rule_refuses():
    # tighten's fixed points at scales 1e-6..1e20, nudged up by up to 4 ulps
    # or by up to 2e-12: the float rule is the stricter one
    rng = np.random.default_rng(25)
    stricter = checked = 0
    while checked < 400:
        scale = 10.0 ** rng.uniform(-6, 20)
        base = random_space(rng, int(rng.integers(2, 6)))
        try:
            s = build_space(base.points, base.dist * scale)
        except TriangleViolation:
            continue
        n = int(rng.integers(1, 8))
        offset = scale * 10.0 ** rng.uniform(0, 6) * rng.choice([-1.0, 1.0])
        v = np.array(tighten(offset + scale * rng.uniform(-3, 3, len(s)), n, s).values)
        if rng.random() < 0.5:
            for _ in range(int(rng.integers(0, 5))):
                i = rng.integers(len(v))
                v[i] = np.nextafter(v[i], np.inf)
        else:
            v = v + rng.uniform(0, 2e-12, len(v))
        checked += 1
        try:
            LipFunction(s, tuple(v), n)
        except ValueError:
            stricter += slack_rule_accepts(v, n, s.dist)
            continue
        assert slack_rule_accepts(v, n, s.dist)
    assert stricter > 0


@pytest.mark.parametrize("k", [5, 50, 150])
def test_tighten_projects_at_most_k_plus_one_times(k, monkeypatch):
    project, rounds = metric._project, []

    def counted(v, n, D):
        rounds.append(1)
        return project(v, n, D)

    monkeypatch.setattr(metric, "_project", counted)
    rng = np.random.default_rng(k)
    for _ in range(20):
        space = random_space(rng, k)
        raw = rng.uniform(-3e6, 3e6, k)
        rounds.clear()
        phi = tighten(raw, int(rng.integers(1, 8)), space)
        assert len(rounds) - 1 <= k + 1  # LipFunction's check is the last call
        assert phi.values == tighten(phi, phi.lip_bound, space).values
