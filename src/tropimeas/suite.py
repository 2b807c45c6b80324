"""The seeded acceptance/property suite.

Every check draws its randomness from a per-check generator derived
deterministically from the master seed, so a given seed always yields a
byte-identical JSON report.  Wall-clock limits on the heavy checks are
enforced by the test harness, not recorded in the report (timing would
break report determinism).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .bridge import delta_to_gamma_rows, gamma_to_delta_rows
from .errors import GroundNotMetric
from .geometry import (
    MAX_COUNT,
    _dap_bounds,
    _draw_weights,
    _dyadic,
    dap_demo,
    discretize_g1,
    f_set_element,
    max_of,
    random_measure,
    saturate_g2,
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
    support,
)
from .metric import (
    _nonexpanding,
    build_space,
    compose,
    covering_radius,
    identity_map,
    nearest_net_retraction,
    tighten,
)
from .pseudometric import (
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
    _closure,
    _random_net,
    distinct_measure_pair,
    random_meta_measure,
    random_point_map,
    random_space,
    random_stack,
    random_value_table,
)

# Instance counts of the criteria.  A run may change them, to at least 1
# and at most MAX_COUNT (a check holds its instances in memory at once; see
# README); the tolerances are literals in the checks, and no run can change them.
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
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("suite seed must be an integer >= 0")
        for name, value in self.counts.items():
            if name not in COUNTS:
                raise ValueError(f"unknown suite count {name!r}; "
                                 f"known: {', '.join(COUNTS)}")
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"suite count {name} must be an integer >= 1, "
                                 f"got {value!r}")
            if value > MAX_COUNT:
                raise ValueError(f"suite count {name} must be at most {MAX_COUNT}")

    def count(self, name: str) -> int:
        return self.counts.get(name, COUNTS[name])


def _rng(config: SuiteConfig, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(key,)))


def _weights(rng: np.random.Generator, table, rows: int) -> list:
    """`rows` weight rows drawn as random_measure draws them on `table`."""
    return [_draw_weights(rng, len(table)) for _ in range(rows)]


def _worst(violations) -> float:
    """The largest violation, and 0.0 when none is positive."""
    return max(0.0, float(np.max(violations)))


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
    worst = 0.0
    exact_failures = 0
    for n in range(1, 6):
        _, D, (mu, nu, tau), _ = random_stack(
            rng, triples, (2, 6), lambda rng, table: (_weights(rng, table, 3), ()))
        dmn = hat_d_stack(n, D, mu, nu)
        dnt = hat_d_stack(n, D, nu, tau)
        dmt = hat_d_stack(n, D, mu, tau)
        exact_failures += int((hat_d_stack(n, D, nu, mu) != dmn).sum()
                              + (hat_d_stack(n, D, mu, mu) != 0.0).sum())
        worst = max(worst, _worst(dmt - (dmn + dnt)))
    passed = exact_failures == 0 and worst == 0.0
    return {"passed": passed, "exact_failures": exact_failures,
            "max_triangle_violation": worst}


def crit_delta_isometry(config: SuiteConfig):
    """(1/n) hat_d(delta_x, delta_y) equals d(x, y) exactly."""
    rng = _rng(config, 3)
    ks, D, _, _ = random_stack(rng, config.count("isometry_spaces"), (2, 6),
                               lambda rng, table: ((), ()))
    K = D.shape[-1]
    # every pair p < q of points of every space, in the order of the draws
    b, p, q = np.nonzero((np.arange(K) < ks[:, None, None]) & np.triu(np.ones((K, K), bool), 1))
    d = D[b, p, q]
    # a Dirac pair's supports slice its table to the 1 x 1 table d(x, y)
    zero = np.zeros((d.size, 1))
    n = np.arange(1, 6)[:, None]  # every pair at every level
    got = hat_d_stack(n, d[:, None, None], zero, zero) / n
    failures = int((got != d).sum())
    return {"passed": failures == 0, "checks": got.size, "failures": failures}


def crit_functor_monad(config: SuiteConfig):
    """Functor identity/composition and both monad unit laws, exact."""
    rng = _rng(config, 4)
    instances = config.count("functor_instances")
    failures = 0
    for _ in range(instances):
        X = random_space(rng, int(rng.integers(2, 5)))
        Y = random_space(rng, int(rng.integers(2, 5)))
        Z = random_space(rng, int(rng.integers(2, 5)))
        mu = random_measure(X, rng)
        f = random_point_map(X, Y, rng)
        g = random_point_map(Y, Z, rng)
        if pushforward(mu, identity_map(X)) != mu:
            failures += 1
        if pushforward(mu, compose(g, f)) != pushforward(pushforward(mu, f), g):
            failures += 1
        if flatten(meta_measure(X, [(mu, 0.0)])) != mu:
            failures += 1
        if flatten(dirac_lift(mu)) != mu:
            failures += 1
    return {"passed": failures == 0, "instances": instances, "failures": failures}


def _push_draw(rng: np.random.Generator, table):
    """The push half's draw: a nonexpanding self-map of the closed table
    (random_point_map's draw, else a constant map), two weight rows and n."""
    D, k = _closure(table), len(table)
    images = rng.integers(k, size=k)
    if not _nonexpanding(D, D, images):
        images = np.full(k, rng.integers(k))
    return _weights(rng, table, 2), (images, rng.integers(1, 6))


def crit_nonexpansion(config: SuiteConfig):
    """Pushforward along nonexpanding maps and flattening are nonexpanding."""
    rng = _rng(config, 5)
    push_instances = config.count("push_instances")
    zeta_instances = config.count("zeta_instances")
    worst_zeta = 0.0
    _, D, (mu, nu), (images, ns) = random_stack(rng, push_instances, (2, 6), _push_draw)
    assert _nonexpanding(D, D, images).all()
    f_mu, f_nu = (_push(w, images, D.shape[-1]) for w in (mu, nu))
    worst_push = _worst(hat_d_stack(ns, D, f_mu, f_nu) - hat_d_stack(ns, D, mu, nu))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroundNotMetric)
        for _ in range(zeta_instances):
            space = random_space(rng, int(rng.integers(2, 5)))
            M = random_meta_measure(space, rng)
            N = random_meta_measure(space, rng)
            n = int(rng.integers(1, 4))
            flat = tilde_d(n, flatten(M), flatten(N))
            meta = hat_d_meta(n, n, M, N) / n
            worst_zeta = max(worst_zeta, flat - meta)
    passed = worst_push == 0.0 and worst_zeta <= 1e-12
    return {"passed": passed, "max_push_violation": worst_push,
            "max_zeta_violation": worst_zeta}


def crit_ball_convexity(config: SuiteConfig):
    """hat_d(mu, (lam odot nu) oplus tau) <= max of the two distances."""
    rng = _rng(config, 6)
    instances = config.count("ball_instances")

    def draw(rng, table):  # mu, nu and tau, then lambda and the level n
        return _weights(rng, table, 3), (_dyadic(rng, -3.0, 0.0), rng.integers(1, 6))

    _, D, (mu, nu, tau), (lam, ns) = random_stack(rng, instances, (2, 6), draw)
    blend = _combine([(lam, nu), (0.0, tau)])
    rhs = np.maximum(hat_d_stack(ns, D, mu, nu), hat_d_stack(ns, D, mu, tau))
    worst = _worst(hat_d_stack(ns, D, mu, blend) - rhs)
    return {"passed": worst == 0.0, "max_violation": worst}


def crit_homotopy_bounds(config: SuiteConfig):
    """Lipschitz bounds in each argument of H, plus exact endpoints."""
    rng = _rng(config, 7)
    instances = config.count("homotopy_instances")

    def draw(rng, table):  # mu, mu2 and mu0, then lambda, lambda2 and the level n
        return _weights(rng, table, 3), (_dyadic(rng, -3.0, 0.0),
                                         _dyadic(rng, -3.0, 0.0), rng.integers(1, 6))

    _, D, (mu, mu2, mu0), (lam, lam2, ns) = random_stack(rng, instances, (2, 6), draw)
    h, h2, h_lam2 = (_combine([(0.0, a), (b, mu0)])
                     for a, b in ((mu, lam), (mu2, lam), (mu, lam2)))
    top = _combine((0.0, w) for w in (mu, mu2, mu0))
    endpoint_failures = int((_combine([(0.0, mu), (BOTTOM, mu0)]) != mu).any(axis=-1).sum()
                            + (_combine([(0.0, mu), (0.0, top)]) != top).any(axis=-1).sum())
    worst_mu = _worst(hat_d_stack(ns, D, h, h2) - hat_d_stack(ns, D, mu, mu2))
    worst_lam = _worst(hat_d_stack(ns, D, h, h_lam2) - abs(lam - lam2))
    passed = worst_mu == 0.0 and worst_lam == 0.0 and endpoint_failures == 0
    return {"passed": passed, "max_mu_violation": worst_mu,
            "max_lambda_violation": worst_lam,
            "endpoint_failures": endpoint_failures}


def crit_separation(config: SuiteConfig):
    """Every distinct pair is separated by some Lipschitz level <= 64."""
    rng = _rng(config, 8)
    pairs = config.count("separation_pairs")
    unseparated = 0
    for _ in range(pairs):
        space = random_space(rng, int(rng.integers(2, 6)))
        mu, nu = distinct_measure_pair(space, rng)
        if separates(mu, nu, 64) is None:
            unseparated += 1
    return {"passed": unseparated == 0, "pairs": pairs,
            "unseparated": unseparated}


def crit_bridge(config: SuiteConfig):
    """Round trips, exact center/vertex mapping, boundary preservation."""
    rng = _rng(config, 9)
    tol = 1e-9
    grid = config.count("bridge_grid")
    worst = 0.0
    exact_failures = 0
    boundary_failures = 0
    for n in (2, 3, 4):
        # center and vertices, exact
        Zx = np.vstack([np.ones(n), np.eye(n)])
        Px = np.vstack([np.full(n, 1.0 / n), np.eye(n)])
        exact_failures += int((gamma_to_delta_rows(Zx) != Px).any(axis=1).sum())
        exact_failures += int((delta_to_gamma_rows(Px) != Zx).any(axis=1).sum())
        Z = np.empty((grid, n))
        for z in Z:
            u = rng.random(n)
            zeros = rng.random(n) < 0.2
            u[zeros] = 0.0
            if (u == 0.0).all():
                u[int(rng.integers(n))] = 1.0
            z[:] = u / u.max()
        P = gamma_to_delta_rows(Z)
        back = delta_to_gamma_rows(P)
        worst = max(worst, float(np.abs(back - Z).max()),
                    float(np.abs(gamma_to_delta_rows(back) - P).max()))
        boundary_failures += int(((Z == 0.0) != (P == 0.0)).any(axis=1).sum())
    passed = worst <= tol and exact_failures == 0 and boundary_failures == 0
    return {"passed": passed, "max_roundtrip_error": worst,
            "exact_failures": exact_failures,
            "boundary_failures": boundary_failures}


def crit_dap_demo(config: SuiteConfig):
    """Six points, three-point net, lambda = -1: disjoint images with
    displacements inside the derived bounds."""
    rng = _rng(config, 10)
    samples = config.count("dap_samples")
    space = random_space(rng, 6)
    net = space.points[:3]
    report = dap_demo(space, net, -1.0, samples, n=1, rng=rng)
    disp_ok = (report.max_displacement_g1 <= report.displacement_bound_g1
               and report.max_displacement_g2 <= report.displacement_bound_g2)
    passed = report.disjoint and disp_ok
    return {"passed": passed, **asdict(report),
            "supports_ok": report.disjoint}  # the report format keeps the key


def crit_aggregate_metric(config: SuiteConfig):
    """Dirac pair at distance 1 aggregates to 1; symmetry is exact."""
    rng = _rng(config, 11)
    tol = 1e-9
    pairs = config.count("aggregate_pairs")
    space = build_space(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    value = aggregate_d(dirac(space, "a"), dirac(space, "b"), tol)
    dirac_ok = abs(value - 1.0) <= tol
    asym = 0
    for _ in range(pairs):
        sp = random_space(rng, int(rng.integers(2, 6)))
        mu = random_measure(sp, rng)
        nu = random_measure(sp, rng)
        if aggregate_d(mu, nu, 1e-6) != aggregate_d(nu, mu, 1e-6):
            asym += 1
    return {"passed": dirac_ok and asym == 0, "dirac_value": value,
            "asymmetric_pairs": asym}


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
    failures = 0
    worst_rho = 0.0
    for _ in range(500):
        vals = [BOTTOM if rng.random() < 0.15
                else float(_dyadic(rng, -3.0, 3.0))
                for _ in range(3)]
        a, b, c = vals
        if oplus(a, oplus(b, c)) != oplus(oplus(a, b), c):
            failures += 1
        if oplus(a, b) != oplus(b, a):
            failures += 1
        if oplus(a, a) != a:
            failures += 1
        if odot(a, oplus(b, c)) != oplus(odot(a, b), odot(a, c)):
            failures += 1
        if rho(a, b) != rho(b, a):
            failures += 1
        worst_rho = max(worst_rho, rho(a, c) - (rho(a, b) + rho(b, c)))
        if rho(a, a) != 0.0:
            failures += 1
    passed = failures == 0 and worst_rho <= 1e-12
    return {"passed": passed, "failures": failures,
            "max_rho_triangle_violation": worst_rho}


def extra_tighten_retraction(config: SuiteConfig):
    """tighten is an idempotent Lipschitz projection; nearest-net
    retraction is idempotent and bounded by the covering radius."""
    rng = _rng(config, 102)
    failures = 0
    for _ in range(200):
        space = random_space(rng, int(rng.integers(2, 6)))
        n = int(rng.integers(1, 4))
        raw = random_value_table(space, rng)
        phi = tighten(raw, n, space)
        if tighten(phi, n, space).values != phi.values:
            failures += 1
        if any(phi(p) > raw[p] for p in space.points):
            failures += 1
        net = _random_net(space, rng)
        r = nearest_net_retraction(space, net)
        if compose(r, r).assignment != r.assignment:
            failures += 1
        rad = covering_radius(space, net)
        if any(space.d(p, r(p)) > rad for p in space.points):
            failures += 1
    return {"passed": failures == 0, "failures": failures}


def extra_hausdorff_specialization(config: SuiteConfig):
    """With all weights 0, hat_d is n times the support Hausdorff distance."""
    rng = _rng(config, 103)
    failures = 0
    for _ in range(200):
        space = random_space(rng, int(rng.integers(2, 6)))
        mu = uniform_over(space, rng)
        nu = uniform_over(space, rng)
        n = int(rng.integers(1, 6))
        if hat_d(n, mu, nu).value != n * hausdorff_support_distance(mu, nu):
            failures += 1
    return {"passed": failures == 0, "failures": failures}


def uniform_over(space, rng):
    """Zero-weight measure on a random nonempty subset."""
    return canonicalize(space, [(p, 0.0) for p in _random_net(space, rng)])


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
    failures = 0
    for _ in range(200):
        space = random_space(rng, int(rng.integers(2, 5)))
        gens = tuple(random_measure(space, rng) for _ in range(int(rng.integers(1, 4))))
        coeffs = []
        elements = []
        for _ in range(2):
            alpha = _dyadic(rng, -3.0, 0.0, len(gens))
            alpha = alpha - alpha.max()
            coeffs.append(alpha)
            elements.append(f_set_element(
                CStructureQuery(gens, tuple(float(a) for a in alpha))))
        gamma = _dyadic(rng, -3.0, 0.0, 2)
        gamma = gamma - gamma.max()
        combined = combine(list(zip(gamma, elements)))
        beta = np.max(gamma[:, None] + np.stack(coeffs), axis=0)
        direct = f_set_element(CStructureQuery(gens, tuple(float(b) for b in beta)))
        if combined != direct:
            failures += 1
        top = max_of(gens)
        if f_set_element(CStructureQuery(gens, (0.0,) * len(gens))) != top:
            failures += 1
    return {"passed": failures == 0, "failures": failures}


def extra_support_minimality(config: SuiteConfig):
    """Dropping any atom changes some integral (steep tent witness)."""
    rng = _rng(config, 106)
    failures = 0
    for _ in range(200):
        space = random_space(rng, int(rng.integers(2, 5)))
        mu = random_measure(space, rng)
        if len(mu.atoms) < 2:
            continue
        offdiag = space.dist[space.dist > 0]
        slope = math.ceil(4.0 / offdiag.min())
        for p, _ in mu.atoms:
            reduced = canonicalize(
                space, [(q, w) for q, w in mu.atoms if q != p], normalize=True)
            tent = {q: -slope * space.d(p, q) for q in space.points}
            if integrate(mu, tent) == integrate(reduced, tent):
                failures += 1
    return {"passed": failures == 0, "failures": failures}


def extra_saturation_displacement(config: SuiteConfig):
    """Displacement bounds for the saturate/discretize pair hold and the
    saturated measure always has full support."""
    rng = _rng(config, 107)
    failures = 0
    worst = 0.0
    for _ in range(100):
        space = random_space(rng, int(rng.integers(2, 6)))
        mu = random_measure(space, rng)
        lam = float(_dyadic(rng, -3.0, 0.0))
        n = int(rng.integers(1, 4))
        g2 = saturate_g2(mu, lam)
        if support(g2) != space.points:
            failures += 1
        net = _random_net(space, rng)
        bound_g1, bound_g2 = _dap_bounds(space, net, lam, n)
        worst = max(worst, hat_d(n, g2, mu).value - bound_g2,
                    hat_d(n, discretize_g1(mu, net), mu).value - bound_g1)
    passed = failures == 0 and worst == 0.0
    return {"passed": passed, "failures": failures, "max_bound_violation": worst}


EXTRAS = [
    ("tropical_axioms", extra_tropical_axioms),
    ("tighten_retraction", extra_tighten_retraction),
    ("hausdorff_specialization", extra_hausdorff_specialization),
    ("meta_oracle", extra_meta_oracle),
    ("f_set_closure", extra_f_set_closure),
    ("support_minimality", extra_support_minimality),
    ("saturation_displacement", extra_saturation_displacement),
]


def run_suite(config: SuiteConfig | None = None) -> dict:
    """Run every criterion and extra property; return the JSON-safe report."""
    config = config or SuiteConfig(seed=0)
    report = {"seed": config.seed, "criteria": [], "extras": []}
    for cid, name, fn in CRITERIA:
        result = fn(config)
        result.update({"id": cid, "name": name})
        report["criteria"].append(result)
    for name, fn in EXTRAS:
        result = fn(config)
        result.update({"name": name})
        report["extras"].append(result)
    report["all_passed"] = all(
        r["passed"] for r in report["criteria"] + report["extras"])
    return report
