"""The seeded acceptance/property suite.

Every check draws its randomness from a per-check generator derived
deterministically from the master seed, so a given seed always yields a
byte-identical JSON report, and the checks can run in any order: `run_suite`
runs them in forked worker processes.  It can hand each check's wall time
to the caller (`tropimeas suite --timings FILE`), outside the report:
timing would break report determinism.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .bridge import delta_to_gamma_rows, gamma_to_delta_rows
from .errors import GroundNotMetric
from .geometry import (
    MAX_COUNT,
    _dap_certificate,
    _dyadic,
    dap_demo,
    f_set_element,
    max_of,
    random_measure,
    CStructureQuery,
)
from .measure import (
    _combine,
    _push,
    canonicalize,
    combine,
    dirac,
    dirac_lift,
    flatten,
    integrate,
    meta_measure,
    pushforward,
)
from .metric import (
    PointMap,
    _nonexpanding,
    build_space,
    compose,
    covering_radius,
    identity_map,
    nearest_net_retraction,
    tighten,
)
from .pseudometric import (
    _entry,
    _sandwich,
    aggregate_d,
    grid_oracle,
    hat_d,
    hat_d_meta,
    hat_d_stack,
    hausdorff_support_distance,
    meta_ground,
    oracle_sup,
    separates,
    tilde_d,
)
from .rmax import BOTTOM, odot, oplus, rho
from .sampling import (
    _distinct_pairs,
    _nonexpanding_maps,
    _random_nets,
    random_space,
    random_stack,
    stack_objects,
)

# Instance counts of the criteria.  A run may change them, to at least 1
# and at most MAX_COUNT (a check holds its instances in memory at once; see
# README); each check passes its bounds to `_entry`, and no run can change them.
# The triangle, push, ball, homotopy, saturation and DAP gates allow no slack:
# weights and lambda are multiples of 1/256, distances multiples of 1/128 in
# [0.25, 2] and n <= 5, so every sum they compare is exact in double precision.
COUNTS = {
    "oracle_spaces": 20,
    "oracle_pairs": 10,
    "axiom_triples": 1000,
    "isometry_spaces": 50,
    "functor_instances": 500,
    "push_instances": 500,
    "zeta_instances": 200,
    "ball_instances": 1000,
    "homotopy_instances": 500,
    "separation_pairs": 100,
    "bridge_grid": 10_000,
    "dap_samples": 200,
    "aggregate_pairs": 200,
}


@dataclass
class SuiteConfig:
    seed: int = 0
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError("suite seed must be an integer >= 0")
        for name, value in self.counts.items():
            if name not in COUNTS:
                raise ValueError(f"unknown suite count {name!r}; "
                                 f"known: {', '.join(COUNTS)}")
            if not _is_int(value) or value < 1:
                raise ValueError(f"suite count {name} must be an integer >= 1, "
                                 f"got {value!r}")
            if value > MAX_COUNT:
                raise ValueError(f"suite count {name} must be at most {MAX_COUNT}")

    def count(self, name: str) -> int:
        return self.counts.get(name, COUNTS[name])


def _is_int(value) -> bool:
    """An int that is not a bool: True would read as 1 and print as true."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rng(config: SuiteConfig, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(key,)))


def _point_map(source, target, images) -> PointMap:
    """The map sending source's i-th point to target's point images[i]; the
    images past source's points are not read."""
    return PointMap(source, target, tuple(target.points[i] for i in images[:len(source)].tolist()))


def _net(space, mask) -> list:
    """The points of `space` that a net mask (one entry per slot) holds."""
    return [space.points[i] for i in np.flatnonzero(mask).tolist()]


# --------------------------------------------------------------------------
# acceptance criteria
# --------------------------------------------------------------------------

def crit_oracle_sandwich(config: SuiteConfig):
    """oracle_sup <= hat_d <= oracle_sup + 2*step on small random spaces."""
    rng = _rng(config, 1)
    step = 0.01
    checks = []  # (closed form, grid oracle)
    for _ in range(config.count("oracle_spaces")):
        space = random_space(rng, int(rng.integers(2, 4)))
        for _ in range(config.count("oracle_pairs")):
            mu = random_measure(space, rng, min_weight=-1.0)
            nu = random_measure(space, rng, min_weight=-1.0)
            for n in (1, 2, 3):
                checks.append((hat_d(n, mu, nu).value, oracle_sup(n, mu, nu, step)))
    return _sandwich(checks, step)


def crit_pseudometric_axioms(config: SuiteConfig):
    """Symmetry, self-distance 0 and the triangle inequality, all exact."""
    rng = _rng(config, 2)
    triples = config.count("axiom_triples")
    exact, triangle = [], []
    for n in range(1, 6):
        _, D, (mu, nu, tau) = random_stack(rng, triples, (2, 6), 3)
        dmn = hat_d_stack(n, D, mu, nu)
        dnt = hat_d_stack(n, D, nu, tau)
        dmt = hat_d_stack(n, D, mu, tau)
        exact += [hat_d_stack(n, D, nu, mu) != dmn, hat_d_stack(n, D, mu, mu) != 0.0]
        triangle.append(dmt - (dmn + dnt))
    return _entry({"exact_failures": exact, "max_triangle_violation": (triangle, 0.0)})


def crit_delta_isometry(config: SuiteConfig):
    """(1/n) hat_d(delta_x, delta_y) equals d(x, y) exactly."""
    rng = _rng(config, 3)
    ks, D, _ = random_stack(rng, config.count("isometry_spaces"), (2, 6), 0)
    K = D.shape[-1]
    # every pair p < q of points of every space, in the order of the draws
    b, p, q = np.nonzero((np.arange(K) < ks[:, None, None]) & np.triu(np.ones((K, K), bool), 1))
    d = D[b, p, q]
    # a Dirac pair's supports slice its table to the 1 x 1 table d(x, y)
    zero = np.zeros((d.size, 1))
    n = np.arange(1, 6)[:, None]  # every pair at every level
    got = hat_d_stack(n, d[:, None, None], zero, zero) / n
    return _entry({"failures": got != d}, {"checks": got.size})


def crit_functor_monad(config: SuiteConfig):
    """Functor identity/composition and both monad unit laws, exact."""
    rng = _rng(config, 4)
    instances = config.count("functor_instances")
    stacks = [random_stack(rng, instances, (2, 5), rows) for rows in (1, 0, 0)]
    # random_point_map's draws: X -> Y and Y -> Z, an image for each of 4 points
    f_images, g_images = (rng.integers(0, ks[:, None], size=(instances, 4))
                          for ks, _, _ in stacks[1:])
    laws = []  # True where a law fails
    for (X, (mu,)), (Y, _), (Z, _), fi, gi in zip(
            *(stack_objects(*stack) for stack in stacks), f_images, g_images, strict=True):
        f, g = _point_map(X, Y, fi), _point_map(Y, Z, gi)
        laws += [pushforward(mu, identity_map(X)) != mu,
                 pushforward(mu, compose(g, f)) != pushforward(pushforward(mu, f), g),
                 flatten(meta_measure(X, [(mu, 0.0)])) != mu,
                 flatten(dirac_lift(mu)) != mu]
    return _entry({"failures": laws}, {"instances": instances})


def crit_nonexpansion(config: SuiteConfig):
    """Pushforward along nonexpanding maps and flattening are nonexpanding."""
    rng = _rng(config, 5)
    push_instances = config.count("push_instances")
    zeta_instances = config.count("zeta_instances")
    ks, D, (mu, nu) = random_stack(rng, push_instances, (2, 6), 2)
    images = _nonexpanding_maps(rng, ks, D)
    ns = rng.integers(1, 6, size=push_instances)
    if not _nonexpanding(D, D, images).all():  # not an assert: python -O would drop it
        raise RuntimeError("a drawn map expands some distance")
    f_mu, f_nu = (_push(w, images, D.shape[-1]) for w in (mu, nu))
    push = hat_d_stack(ns, D, f_mu, f_nu) - hat_d_stack(ns, D, mu, nu)
    ks, D, W = random_stack(rng, zeta_instances, (2, 5), 8)
    # random_meta_measure's draw, twice per instance: M on rows 0-3, N on rows 4-7
    sizes = rng.integers(1, 5, size=(zeta_instances, 2)).tolist()
    weights = _dyadic(rng, -3.0, 0.0, (zeta_instances, 2, 4))
    levels = rng.integers(1, 4, size=zeta_instances).tolist()
    zeta = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroundNotMetric)
        for (space, inner), size, weight, n in zip(stack_objects(ks, D, W), sizes, weights,
                                                   levels, strict=True):
            M, N = (meta_measure(space, zip(inner[4 * i:4 * i + c], weight[i, :c]),
                                 normalize=True) for i, c in enumerate(size))
            zeta.append(tilde_d(n, flatten(M), flatten(N)) - hat_d_meta(n, n, M, N) / n)
    return _entry({"max_push_violation": (push, 0.0), "max_zeta_violation": (zeta, 1e-12)})


def crit_ball_convexity(config: SuiteConfig):
    """hat_d(mu, (lam odot nu) oplus tau) <= max of the two distances."""
    rng = _rng(config, 6)
    instances = config.count("ball_instances")
    _, D, (mu, nu, tau) = random_stack(rng, instances, (2, 6), 3)
    lam = _dyadic(rng, -3.0, 0.0, instances)
    ns = rng.integers(1, 6, size=instances)
    blend = _combine([(lam, nu), (0.0, tau)])
    rhs = np.maximum(hat_d_stack(ns, D, mu, nu), hat_d_stack(ns, D, mu, tau))
    return _entry({"max_violation": (hat_d_stack(ns, D, mu, blend) - rhs, 0.0)})


def crit_homotopy_bounds(config: SuiteConfig):
    """Lipschitz bounds in each argument of H, plus exact endpoints."""
    rng = _rng(config, 7)
    instances = config.count("homotopy_instances")
    _, D, (mu, mu2, mu0) = random_stack(rng, instances, (2, 6), 3)
    lam, lam2 = (_dyadic(rng, -3.0, 0.0, instances) for _ in range(2))
    ns = rng.integers(1, 6, size=instances)
    h, h2, h_lam2 = (_combine([(0.0, a), (b, mu0)])
                     for a, b in ((mu, lam), (mu2, lam), (mu, lam2)))
    top = _combine((0.0, w) for w in (mu, mu2, mu0))
    endpoints = [(_combine([(0.0, mu), (BOTTOM, mu0)]) != mu).any(axis=-1),
                 (_combine([(0.0, mu), (0.0, top)]) != top).any(axis=-1)]
    return _entry({
        "max_mu_violation": (hat_d_stack(ns, D, h, h2) - hat_d_stack(ns, D, mu, mu2), 0.0),
        "max_lambda_violation": (hat_d_stack(ns, D, h, h_lam2) - abs(lam - lam2), 0.0),
        "endpoint_failures": endpoints})


def crit_separation(config: SuiteConfig):
    """Every distinct pair is separated by some Lipschitz level <= 64."""
    rng = _rng(config, 8)
    pairs = config.count("separation_pairs")
    ks, D, W = random_stack(rng, pairs, (2, 6), 2)
    return _entry({"unseparated": [separates(mu, nu, 64) is None for _, (mu, nu)
                                   in stack_objects(ks, D, _distinct_pairs(rng, ks, W))]},
                  {"pairs": pairs})


# rows per block of the bridge check's draws
BRIDGE_BLOCK = 256


def _bridge_rows(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """`count` random points of the tropical cube, drawn bit for bit as by
    the row loop: per row u = rng.random(n), then rng.random(n) < 0.2 sets
    u to 0 there, an all-zero row gets a 1 at rng.integers(n), and the row
    is u / max(u).  Rows are drawn in blocks of at most BRIDGE_BLOCK; a
    block is cut after its first all-zero row, whose integers draw follows
    a redraw, from the restored generator state, of exactly the rows up
    to it."""
    Z = np.empty((count, n))
    done = 0
    while done < count:
        state = rng.bit_generator.state
        draws = rng.random((min(BRIDGE_BLOCK, count - done), 2, n))
        U = np.where(draws[:, 1] < 0.2, 0.0, draws[:, 0])
        empty = (U == 0.0).all(axis=1)
        if empty.any():
            U = U[:int(empty.argmax()) + 1]
            rng.bit_generator.state = state
            rng.random((len(U), 2, n))
            U[-1, int(rng.integers(n))] = 1.0
        Z[done:done + len(U)] = U / U.max(axis=1, keepdims=True)
        done += len(U)
    return Z


def crit_bridge(config: SuiteConfig):
    """Round trips, exact center/vertex mapping, boundary preservation."""
    rng = _rng(config, 9)
    grid = config.count("bridge_grid")
    errors, exact, boundary = [], [], []
    for n in (2, 3, 4):
        # center and vertices, exact
        Zx = np.vstack([np.ones(n), np.eye(n)])
        Px = np.vstack([np.full(n, 1.0 / n), np.eye(n)])
        exact += [(gamma_to_delta_rows(Zx) != Px).any(axis=1),
                  (delta_to_gamma_rows(Px) != Zx).any(axis=1)]
        Z = _bridge_rows(rng, grid, n)
        P = gamma_to_delta_rows(Z)
        back = delta_to_gamma_rows(P)
        # each round trip's largest error: the error tables are not kept
        errors += [np.abs(back - Z).max(), np.abs(gamma_to_delta_rows(back) - P).max()]
        boundary.append(((Z == 0.0) != (P == 0.0)).any(axis=1))
    return _entry({"max_roundtrip_error": (errors, 1e-9), "exact_failures": exact,
                   "boundary_failures": boundary})


def crit_dap_demo(config: SuiteConfig):
    """Six points, three-point net, lambda = -1: disjoint images with
    displacements inside the derived bounds."""
    rng = _rng(config, 10)
    samples = config.count("dap_samples")
    space = random_space(rng, 6)
    net = space.points[:3]
    report = dap_demo(space, net, -1.0, samples, n=1, rng=rng)
    return _entry({"max_displacement_g1": (report.max_displacement_g1,
                                           report.displacement_bound_g1),
                   "max_displacement_g2": (report.max_displacement_g2,
                                           report.displacement_bound_g2)},
                  {**asdict(report), "supports_ok": report.disjoint},  # the format keeps the key
                  holds=report.disjoint)


def crit_aggregate_metric(config: SuiteConfig):
    """Dirac pair at distance 1 aggregates to 1; symmetry is exact."""
    rng = _rng(config, 11)
    pairs = config.count("aggregate_pairs")
    space = build_space(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    value = aggregate_d(dirac(space, "a"), dirac(space, "b"), 1e-9)
    return _entry({"asymmetric_pairs": [
        aggregate_d(mu, nu, 1e-6) != aggregate_d(nu, mu, 1e-6)
        for _, (mu, nu) in stack_objects(*random_stack(rng, pairs, (2, 6), 2))]},
        {"dirac_value": value}, holds=abs(value - 1.0) <= 1e-9)


CRITERIA = [
    (1, "oracle_sandwich", crit_oracle_sandwich),
    (2, "pseudometric_axioms", crit_pseudometric_axioms),
    (3, "delta_isometry", crit_delta_isometry),
    (4, "functor_monad", crit_functor_monad),
    (5, "nonexpansion", crit_nonexpansion),
    (6, "ball_convexity", crit_ball_convexity),
    (7, "homotopy_bounds", crit_homotopy_bounds),
    (8, "separation", crit_separation),
    (9, "bridge", crit_bridge),
    (10, "dap_demo", crit_dap_demo),
    (11, "aggregate_metric", crit_aggregate_metric),
]


# --------------------------------------------------------------------------
# extra module-level properties exercised by the suite runner
# --------------------------------------------------------------------------

def extra_tropical_axioms(config: SuiteConfig):
    """Semiring axioms for oplus/odot and metric axioms for rho."""
    rng = _rng(config, 101)
    laws, triangle = [], []  # True where a law fails; the triangle's violations
    for _ in range(500):
        vals = [BOTTOM if rng.random() < 0.15
                else float(_dyadic(rng, -3.0, 3.0))
                for _ in range(3)]
        a, b, c = vals
        laws += [oplus(a, oplus(b, c)) != oplus(oplus(a, b), c),
                 oplus(a, b) != oplus(b, a),
                 oplus(a, a) != a,
                 odot(a, oplus(b, c)) != oplus(odot(a, b), odot(a, c)),
                 rho(a, b) != rho(b, a),
                 rho(a, a) != 0.0]
        triangle.append(rho(a, c) - (rho(a, b) + rho(b, c)))
    return _entry({"failures": laws, "max_rho_triangle_violation": (triangle, 1e-12)})


def extra_tighten_retraction(config: SuiteConfig):
    """tighten is an idempotent Lipschitz projection; nearest-net
    retraction is idempotent and bounded by the covering radius."""
    rng = _rng(config, 102)
    ks, D, W = random_stack(rng, 200, (2, 6), 0)
    ns = rng.integers(1, 4, size=len(ks)).tolist()
    raws = _dyadic(rng, -3.0, 3.0, D.shape[:-1])  # random_value_table's draw
    nets = _random_nets(rng, ks, D.shape[:-1])
    laws = []  # True where a law fails
    for (space, _), n, raw, net in zip(stack_objects(ks, D, W), ns, raws, nets, strict=True):
        raw = raw[:len(space)]
        phi = tighten(raw, n, space)
        net = _net(space, net)
        r = nearest_net_retraction(space, net)
        rad = covering_radius(space, net)
        laws += [tighten(phi, n, space).values != phi.values,
                 any(phi(p) > v for p, v in zip(space.points, raw.tolist())),
                 compose(r, r).assignment != r.assignment,
                 any(space.d(p, r(p)) > rad for p in space.points)]
    return _entry({"failures": laws})


def extra_hausdorff_specialization(config: SuiteConfig):
    """With all weights 0, hat_d is n times the support Hausdorff distance."""
    rng = _rng(config, 103)
    ks, D, _ = random_stack(rng, 200, (2, 6), 0)
    # zero-weight measures on random nonempty subsets
    W = np.where(_random_nets(rng, ks, (2, *D.shape[:-1])), 0.0, -np.inf)
    ns = rng.integers(1, 6, size=len(ks)).tolist()
    return _entry({"failures": [
        hat_d(n, mu, nu).value != n * hausdorff_support_distance(mu, nu)
        for (_, (mu, nu)), n in zip(stack_objects(ks, D, W), ns, strict=True)]})


def extra_meta_oracle(config: SuiteConfig):
    """hat_d_meta agrees with the grid oracle run on the induced space."""
    rng = _rng(config, 104)
    step = 0.02
    checks = []  # (closed form, grid oracle)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroundNotMetric)
        for _ in range(20):
            space = random_space(rng, 2)
            # at most 3 ground measures keeps the induced grid sweep small
            inner = [random_measure(space, rng) for _ in range(2)]
            wts = _dyadic(rng, -3.0, 0.0, 2)
            M = meta_measure(space, zip(inner, wts), normalize=True)
            N = meta_measure(space, [(random_measure(space, rng), 0.0)])
            n = int(rng.integers(1, 3))
            exact = hat_d_meta(n, n, M, N)
            checks.append((exact, grid_oracle(*meta_ground(n, M, N), n, step)))
    return _sandwich(checks, step)


def extra_f_set_closure(config: SuiteConfig):
    """Combining hull elements with normalized coefficients stays in the
    hull, and the pointwise max of the generators lies in it."""
    rng = _rng(config, 105)
    ks, D, W = random_stack(rng, 200, (2, 5), 3)
    counts = rng.integers(1, len(W) + 1, size=len(ks)).tolist()  # generators
    alphas = _dyadic(rng, -3.0, 0.0, (len(ks), 2, len(W)))  # two coefficient rows
    gammas = _dyadic(rng, -3.0, 0.0, (len(ks), 2))
    laws = []  # True where a law fails
    for (_, gens), count, alpha, gamma in zip(stack_objects(ks, D, W), counts, alphas, gammas,
                                              strict=True):
        gens = gens[:count]
        alpha = alpha[:, :count] - alpha[:, :count].max(axis=1, keepdims=True)
        elements = [f_set_element(CStructureQuery(gens, tuple(a.tolist()))) for a in alpha]
        gamma = gamma - gamma.max()
        combined = combine(list(zip(gamma, elements)))
        beta = np.max(gamma[:, None] + alpha, axis=0)
        direct = f_set_element(CStructureQuery(gens, tuple(float(b) for b in beta)))
        laws += [combined != direct,
                 f_set_element(CStructureQuery(gens, (0.0,) * len(gens))) != max_of(gens)]
    return _entry({"failures": laws})


def extra_support_minimality(config: SuiteConfig):
    """Dropping any atom changes some integral (steep tent witness)."""
    rng = _rng(config, 106)
    kept = []  # True where dropping an atom keeps the tent's integral
    for space, (mu,) in stack_objects(*random_stack(rng, 200, (2, 5), 1)):
        if len(mu.atoms) < 2:
            continue
        offdiag = space.dist[space.dist > 0]
        slope = math.ceil(4.0 / offdiag.min())
        for p, _ in mu.atoms:
            reduced = canonicalize(
                space, [(q, w) for q, w in mu.atoms if q != p], normalize=True)
            tent = {q: -slope * space.d(p, q) for q in space.points}
            kept.append(integrate(mu, tent) == integrate(reduced, tent))
    return _entry({"failures": kept})


def extra_saturation_displacement(config: SuiteConfig):
    """dap_demo's certificate on one measure per random space, net
    (possibly the whole space), lambda and level: each report is disjoint
    and neither displacement exceeds its bound."""
    rng = _rng(config, 107)
    ks, D, W = random_stack(rng, 100, (2, 6), 1)
    lams = _dyadic(rng, -3.0, 0.0, len(ks)).tolist()
    ns = rng.integers(1, 4, size=len(ks)).tolist()
    nets = _random_nets(rng, ks, D.shape[:-1])
    overlaps, excess = [], []  # True where images meet; displacements over their bounds
    for (space, (mu,)), lam, n, net in zip(stack_objects(ks, D, W), lams, ns, nets, strict=True):
        report = _dap_certificate(space, _net(space, net), lam, n, (mu,))
        overlaps.append(not report.disjoint)
        excess += [report.max_displacement_g1 - report.displacement_bound_g1,
                   report.max_displacement_g2 - report.displacement_bound_g2]
    return _entry({"failures": overlaps, "max_bound_violation": (excess, 0.0)})


EXTRAS = [
    ("tropical_axioms", extra_tropical_axioms),
    ("tighten_retraction", extra_tighten_retraction),
    ("hausdorff_specialization", extra_hausdorff_specialization),
    ("meta_oracle", extra_meta_oracle),
    ("f_set_closure", extra_f_set_closure),
    ("support_minimality", extra_support_minimality),
    ("saturation_displacement", extra_saturation_displacement),
]


def _checks() -> list:
    """Every check in report order, criteria then extras, as (name,
    function, the entry's other keys)."""
    return ([(name, fn, {"id": cid}) for cid, name, fn in CRITERIA]
            + [(name, fn, {}) for name, fn in EXTRAS])


def _failed(name: str, keys: dict, exc: Exception) -> dict:
    """The entry of a check that did not return: failed, naming the error."""
    return {"name": name, "passed": False, "error": f"{type(exc).__name__}: {exc}", **keys}


def _run_check(index: int, config: SuiteConfig) -> tuple:
    """Check `index` of `_checks()`: its report entry and its wall time in
    seconds.  A worker reads the check from its forked copy of the tables,
    so no function is pickled and a replaced check runs as replaced.  A
    check that raises is a failed check that names its error."""
    name, fn, keys = _checks()[index]
    start = time.perf_counter()
    try:
        entry = {**fn(config), "name": name, **keys}
    except Exception as exc:
        entry = _failed(name, keys, exc)
    return entry, time.perf_counter() - start


def run_suite(config: SuiteConfig, timings: dict | None = None) -> dict:
    """Run every criterion and extra property; return the JSON-safe report.

    The checks are independent (each seeds its own generator), so they run
    in forked worker processes, one per usable CPU, submitted in report
    order.  The report is assembled in that order too, so its bytes do not
    depend on the number of workers or on which check ends first.  A check
    that raises fails with an `"error"` entry.  A dead worker breaks the
    pool, so every check left without a result runs again alone in a
    one-worker pool; one whose worker dies there too fails with an
    `"error"` entry.

    `timings`, when given, receives each check's wall time in seconds,
    keyed by check name (a check that failed by its worker's death has
    none); the report itself holds no time.
    """
    # imported here: a one-shot CLI command that runs no suite does not pay for them
    from concurrent import futures
    from multiprocessing import get_context

    def pool(workers):
        # with "fork" the pool starts every worker at the first submit, before
        # it starts a thread of its own, and the workers share the parent's tables
        return futures.ProcessPoolExecutor(workers, mp_context=get_context("fork"))

    timings = {} if timings is None else timings
    checks = _checks()
    entries = []
    with pool(min(len(os.sched_getaffinity(0)), len(checks))) as shared:
        jobs = [shared.submit(_run_check, i, config) for i in range(len(checks))]
        for index, ((name, _, keys), job) in enumerate(zip(checks, jobs)):
            try:
                entry, timings[name] = job.result()
            except futures.BrokenExecutor:
                # a dead worker breaks the pool and every check without a result
                # (BrokenProcessPool): each runs again alone, and fails if its
                # own worker dies too
                shared.shutdown()  # joins the pool's thread before the next fork
                with pool(1) as alone:
                    try:
                        entry, timings[name] = alone.submit(_run_check, index, config).result()
                    except futures.BrokenExecutor as exc:
                        entry = _failed(name, keys, exc)
            entries.append(entry)
    report = {"seed": config.seed,
              "criteria": entries[:len(CRITERIA)],
              "extras": entries[len(CRITERIA):]}
    report["all_passed"] = all(r["passed"] for r in entries)
    return report
