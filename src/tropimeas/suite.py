"""The seeded acceptance/property suite.

Every check draws its randomness from a per-check generator derived
deterministically from the master seed, so a given seed always yields a
byte-identical JSON report.  Wall-clock limits on the heavy checks are
enforced by the test harness, not recorded in the report (timing would
break report determinism).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bridge import DeltaPoint, GammaPoint, delta_to_gamma, gamma_to_delta
from .errors import GroundNotMetric
from .geometry import (
    dap_demo,
    discretize_g1,
    f_set_element,
    homotopy_H,
    max_of,
    random_measure,
    saturate_g2,
    CStructureQuery,
)
from .measure import (
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
    build_space,
    compose,
    covering_radius,
    identity_map,
    nearest_net_retraction,
    tighten,
)
from .pseudometric import (
    aggregate_d,
    grid_oracle,
    hat_d,
    hat_d_meta,
    hausdorff_support_distance,
    meta_ground,
    oracle_sup,
    separates,
    tilde_d,
)
from .rmax import BOTTOM, odot, oplus, rho
from .sampling import (
    distinct_measure_pair,
    random_meta_measure,
    random_nonexpanding_map,
    random_point_map,
    random_space,
    random_value_table,
)

DEFAULT_SEED_ENV = "TROPIMEAS_SEED"


def default_seed() -> int:
    return int(os.environ.get(DEFAULT_SEED_ENV, "0"))


# Instance counts of the criteria.  A run may change them (never below 1);
# the tolerances are literals in the checks, and no run can change them.
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
        for name, value in self.counts.items():
            if name not in COUNTS:
                raise ValueError(f"unknown suite count {name!r}; "
                                 f"known: {', '.join(COUNTS)}")
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"suite count {name} must be an integer >= 1, "
                                 f"got {value!r}")

    def count(self, name: str) -> int:
        return self.counts.get(name, COUNTS[name])


def _rng(config: SuiteConfig, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(key,)))


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


def _sandwich(checks, step):
    """The gate oracle <= exact <= oracle + 2*step over (exact, oracle)
    pairs; the oracle may sit a few ulps above the closed form."""
    low = max([0.0] + [grid - exact for exact, grid in checks])
    high = max([0.0] + [exact - grid for exact, grid in checks])
    return {"passed": low <= 1e-12 and high <= 2 * step, "checks": len(checks),
            "max_oracle_minus_exact": low, "max_exact_minus_oracle": high}


def crit_pseudometric_axioms(config: SuiteConfig):
    """Symmetry exact, self-distance 0 exact, triangle within 1e-12."""
    rng = _rng(config, 2)
    triples = config.count("axiom_triples")
    worst = 0.0
    exact_failures = 0
    for n in range(1, 6):
        for _ in range(triples):
            space = random_space(rng, int(rng.integers(2, 6)))
            mu = random_measure(space, rng)
            nu = random_measure(space, rng)
            tau = random_measure(space, rng)
            dmn = hat_d(n, mu, nu).value
            dnt = hat_d(n, nu, tau).value
            dmt = hat_d(n, mu, tau).value
            if hat_d(n, nu, mu).value != dmn:
                exact_failures += 1
            if hat_d(n, mu, mu).value != 0.0:
                exact_failures += 1
            worst = max(worst, dmt - (dmn + dnt))
    passed = exact_failures == 0 and worst <= 1e-12
    return {"passed": passed, "exact_failures": exact_failures,
            "max_triangle_violation": worst}


def crit_delta_isometry(config: SuiteConfig):
    """(1/n) hat_d(delta_x, delta_y) equals d(x, y) exactly."""
    rng = _rng(config, 3)
    spaces = config.count("isometry_spaces")
    failures = 0
    checks = 0
    for _ in range(spaces):
        space = random_space(rng, int(rng.integers(2, 6)))
        for i, p in enumerate(space.points):
            for q in space.points[i + 1:]:
                for n in range(1, 6):
                    got = hat_d(n, dirac(space, p), dirac(space, q)).value / n
                    if got != space.d(p, q):
                        failures += 1
                    checks += 1
    return {"passed": failures == 0, "checks": checks, "failures": failures}


def crit_functor_monad(config: SuiteConfig):
    """Functor identity/composition and both monad unit laws, exact."""
    rng = _rng(config, 4)
    instances = config.count("functor_instances")
    failures = 0
    for _ in range(instances):
        X = random_space(rng, int(rng.integers(2, 5)))
        Y = random_space(rng, int(rng.integers(2, 5)), prefix="y_")
        Z = random_space(rng, int(rng.integers(2, 5)), prefix="z_")
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


def crit_nonexpansion(config: SuiteConfig):
    """Pushforward along nonexpanding maps and flattening are nonexpanding."""
    rng = _rng(config, 5)
    tol = 1e-12
    push_instances = config.count("push_instances")
    zeta_instances = config.count("zeta_instances")
    worst_push = 0.0
    worst_zeta = 0.0
    for _ in range(push_instances):
        space = random_space(rng, int(rng.integers(2, 6)))
        f = random_nonexpanding_map(space, rng)
        assert f.is_nonexpanding()
        mu = random_measure(space, rng)
        nu = random_measure(space, rng)
        n = int(rng.integers(1, 6))
        before = hat_d(n, mu, nu).value
        after = hat_d(n, pushforward(mu, f), pushforward(nu, f)).value
        worst_push = max(worst_push, after - before)
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
    passed = worst_push <= tol and worst_zeta <= tol
    return {"passed": passed, "max_push_violation": worst_push,
            "max_zeta_violation": worst_zeta}


def crit_ball_convexity(config: SuiteConfig):
    """hat_d(mu, (lam odot nu) oplus tau) <= max of the two distances."""
    rng = _rng(config, 6)
    instances = config.count("ball_instances")
    worst = 0.0
    for _ in range(instances):
        space = random_space(rng, int(rng.integers(2, 6)))
        mu = random_measure(space, rng)
        nu = random_measure(space, rng)
        tau = random_measure(space, rng)
        lam = float(rng.integers(-768, 1)) / 256.0
        n = int(rng.integers(1, 6))
        blend = combine([(lam, nu), (0.0, tau)])
        lhs = hat_d(n, mu, blend).value
        rhs = max(hat_d(n, mu, nu).value, hat_d(n, mu, tau).value)
        worst = max(worst, lhs - rhs)
    return {"passed": worst <= 1e-12, "max_violation": worst}


def crit_homotopy_bounds(config: SuiteConfig):
    """Lipschitz bounds in each argument of H, plus exact endpoints."""
    rng = _rng(config, 7)
    tol = 1e-12
    instances = config.count("homotopy_instances")
    worst_mu = 0.0
    worst_lam = 0.0
    endpoint_failures = 0
    for _ in range(instances):
        space = random_space(rng, int(rng.integers(2, 6)))
        mu = random_measure(space, rng)
        mu2 = random_measure(space, rng)
        mu0 = random_measure(space, rng)
        lam = float(rng.integers(-768, 1)) / 256.0
        lam2 = float(rng.integers(-768, 1)) / 256.0
        n = int(rng.integers(1, 6))
        lhs = hat_d(n, homotopy_H(mu, mu0, lam), homotopy_H(mu2, mu0, lam)).value
        worst_mu = max(worst_mu, lhs - hat_d(n, mu, mu2).value)
        lhs = hat_d(n, homotopy_H(mu, mu0, lam), homotopy_H(mu, mu0, lam2)).value
        worst_lam = max(worst_lam, lhs - abs(lam - lam2))
        if homotopy_H(mu, mu0, BOTTOM) != mu:
            endpoint_failures += 1
        family = [mu, mu2, mu0]
        top = max_of(family)
        if homotopy_H(mu, top, 0.0) != top:
            endpoint_failures += 1
    passed = worst_mu <= tol and worst_lam <= tol and endpoint_failures == 0
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
        center = GammaPoint((1.0,) * n)
        if gamma_to_delta(center).p != (1.0 / n,) * n:
            exact_failures += 1
        if delta_to_gamma(DeltaPoint((1.0 / n,) * n)).z != (1.0,) * n:
            exact_failures += 1
        for i in range(n):
            vert = tuple(1.0 if j == i else 0.0 for j in range(n))
            if gamma_to_delta(GammaPoint(vert)).p != vert:
                exact_failures += 1
            if delta_to_gamma(DeltaPoint(vert)).z != vert:
                exact_failures += 1
        for _ in range(grid):
            u = rng.random(n)
            zeros = rng.random(n) < 0.2
            u[zeros] = 0.0
            if (u == 0.0).all():
                u[int(rng.integers(n))] = 1.0
            z = u / u.max()
            g = GammaPoint(tuple(float(x) for x in z))
            d = gamma_to_delta(g)
            back = delta_to_gamma(d)
            worst = max(worst, max(abs(a - b) for a, b in zip(back.z, g.z)))
            gset = {i for i, x in enumerate(g.z) if x == 0.0}
            dset = {i for i, x in enumerate(d.p) if x == 0.0}
            if gset != dset:
                boundary_failures += 1
            back_d = gamma_to_delta(back)
            worst = max(worst, max(abs(a - b) for a, b in zip(back_d.p, d.p)))
    passed = worst <= tol and exact_failures == 0 and boundary_failures == 0
    return {"passed": passed, "max_roundtrip_error": worst,
            "exact_failures": exact_failures,
            "boundary_failures": boundary_failures}


def crit_dap_demo(config: SuiteConfig):
    """Six points, three-point net, lambda = -1: disjoint images with
    displacements inside the derived bounds."""
    rng = _rng(config, 10)
    samples = config.count("dap_samples")
    tol = 1e-12
    space = random_space(rng, 6)
    net = space.points[:3]
    report = dap_demo(space, net, -1.0, samples, n=1, rng=rng)
    support_ok = all(set(s) <= set(net) for s in report.g1_image_supports) and \
        all(s == space.points for s in report.g2_image_supports)
    disp_ok = (report.max_displacement_g1 <= report.displacement_bound_g1 + tol
               and report.max_displacement_g2 <= report.displacement_bound_g2 + tol)
    passed = report.disjoint and support_ok and disp_ok
    return {"passed": passed, "disjoint": report.disjoint,
            "supports_ok": support_ok,
            "max_displacement_g1": report.max_displacement_g1,
            "displacement_bound_g1": report.displacement_bound_g1,
            "max_displacement_g2": report.max_displacement_g2,
            "displacement_bound_g2": report.displacement_bound_g2}


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
                else float(rng.integers(-768, 769)) / 256.0
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
        k = int(rng.integers(1, len(space) + 1))
        net = [space.points[i]
               for i in rng.choice(len(space), size=k, replace=False)]
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
    k = int(rng.integers(1, len(space) + 1))
    idx = sorted(rng.choice(len(space), size=k, replace=False))
    return canonicalize(space, [(space.points[i], 0.0) for i in idx])


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
            wts = rng.integers(-768, 1, size=2) / 256.0
            M = meta_measure(space, zip(inner, wts - wts.max()), normalize=True)
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
            alpha = rng.integers(-768, 1, size=len(gens)) / 256.0
            alpha = alpha - alpha.max()
            coeffs.append(alpha)
            elements.append(f_set_element(
                CStructureQuery(gens, tuple(float(a) for a in alpha))))
        gamma = rng.integers(-768, 1, size=2) / 256.0
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
        lam = float(rng.integers(-768, 1)) / 256.0
        n = int(rng.integers(1, 4))
        g2 = saturate_g2(mu, lam)
        if support(g2) != space.points:
            failures += 1
        worst = max(worst, hat_d(n, g2, mu).value
                    - max(0.0, lam + n * space.diameter))
        k = int(rng.integers(1, len(space) + 1))
        net = [space.points[i]
               for i in rng.choice(len(space), size=k, replace=False)]
        g1 = discretize_g1(mu, net)
        worst = max(worst, hat_d(n, g1, mu).value
                    - n * covering_radius(space, net))
    passed = failures == 0 and worst <= 1e-12
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
    config = config or SuiteConfig(seed=default_seed())
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
