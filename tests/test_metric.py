import numpy as np
import pytest

from tropimeas import build_space, covering_radius, nearest_net_retraction, tighten
from tropimeas import suite
from tropimeas.errors import (
    AsymmetricDistance,
    EmptyNet,
    NegativeDistance,
    TriangleViolation,
    UnknownPoint,
    ZeroOffDiagonal,
)
from tropimeas.metric import LipFunction, compose, identity_map
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


def test_dist_matrix_is_readonly(two_point):
    with pytest.raises(ValueError):
        two_point.dist[0, 1] = 5.0
