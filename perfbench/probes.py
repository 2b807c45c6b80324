"""Per-layer probes: single layers timed on fixed inputs, untraced.

The probes use a fixed seed of their own, so their figures do not depend
on the workload or its seed and compare across runs and commits.
"""

from __future__ import annotations

import contextlib
import io
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path
from statistics import median

import numpy as np


PROBE_SEED = 20080001
ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter

# Fixed oracle cases (step 0.02, n = 1 and 2): small diameters and weights
# keep each sweep well under a second on numpy.
ORACLE_CASES = {
    "k3": ([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
           [0.0, -0.5, -math.inf], [-1.0, 0.0, -0.25]),
    "k4": ([[0.0, 0.125, 0.25, 0.375], [0.125, 0.0, 0.125, 0.25],
            [0.25, 0.125, 0.0, 0.125], [0.375, 0.25, 0.125, 0.0]],
           [0.0, -math.inf, -0.125, -0.0625], [-0.125, 0.0, -math.inf, -0.125]),
}
ORACLE_STEP = 0.02


def grid_seeds(k: int, half_range: float, step: float) -> int:
    """Seeds one oracle_sweep call visits: (2m+1)^(k-1), m = ceil(half/step)."""
    m = int(np.ceil(half_range / step))
    return (2 * m + 1) ** (k - 1)


def sweep_seeds(dist, n, wmu, wnu, half_range, step, backend=None):
    """Work counter for kernels.oracle_sweep spans."""
    return grid_seeds(np.shape(dist)[0], half_range, step)


def timed_median(fn, repeats):
    times = []
    for _ in range(repeats):
        t = clock()
        fn()
        times.append(clock() - t)
    return median(times)


def _call_median(fn, args_list):
    times = []
    for args in args_list:
        t = clock()
        fn(*args)
        times.append(clock() - t)
    return median(times)


def oracle_probes():
    from tropimeas import kernels

    out = {}
    for name, (dist, wmu, wnu) in ORACLE_CASES.items():
        dist = np.array(dist)
        wmu, wnu = np.array(wmu), np.array(wnu)
        W = max(abs(w) for w in np.concatenate([wmu, wnu]) if w > -math.inf)
        seeds = 0
        cases = []
        for n in (1, 2):
            half = W + n * dist.max()
            seeds += grid_seeds(len(dist), half, ORACLE_STEP)
            cases.append((dist, n, wmu, wnu, half, ORACLE_STEP))

        def sweep_all():
            for case in cases:
                kernels.oracle_sweep(*case)

        out[f"kernels.oracle_sweep.{name}.seeds_per_s"] = seeds / timed_median(sweep_all, 3)
    return out


def library_probes():
    from tropimeas import geometry, measure, metric, pseudometric as pm, sampling
    from tropimeas.errors import GroundNotMetric

    warnings.simplefilter("ignore", GroundNotMetric)
    rng = np.random.default_rng(PROBE_SEED)
    out = {}
    spaces = {}
    for k, repeats in ((5, 50), (50, 5), (150, 3)):
        spaces[k] = sampling.random_space(rng, k)
        dist = spaces[k].dist.copy()
        points = spaces[k].points
        out[f"metric.build_space.k{k}.ms"] = 1e3 * timed_median(
            lambda: metric.build_space(points, dist), repeats)
    pools = {k: [geometry.random_measure(s, rng) for _ in range(16)]
             for k, s in spaces.items()}

    def pairs(k, count):
        pool = pools[k]
        return [(pool[i % 16], pool[(5 * i + 3) % 16]) for i in range(count)]

    for k in spaces:
        out[f"pseudometric.hat_d.k{k}.p50_us"] = 1e6 * _call_median(
            pm.hat_d, [(1 + i % 5, a, b) for i, (a, b) in enumerate(pairs(k, 200))])
    out["pseudometric.aggregate_d.k150.p50_us"] = 1e6 * _call_median(
        pm.aggregate_d, [(a, b, 1e-9) for a, b in pairs(150, 15)])
    out["pseudometric.separates.p50_us"] = 1e6 * _call_median(
        pm.separates, [(a, b, 64) for k in spaces for a, b in pairs(k, 40)])
    metas = [sampling.random_meta_measure(spaces[50], rng) for _ in range(8)]
    out["pseudometric.hat_d_meta.p50_us"] = 1e6 * _call_median(
        pm.hat_d_meta, [(1 + i % 3, 1 + i % 3, metas[i % 8], metas[(i + 3) % 8])
                        for i in range(40)])
    raws = [(spaces[150], list(mu.atoms) + [(p, -4.0) for p in spaces[150].points[::7]])
            for mu in pools[150]]
    out["measure.canonicalize.p50_us"] = 1e6 * _call_median(
        measure.canonicalize, [raws[i % 16] for i in range(100)])
    lams = [float(rng.integers(-768, 1)) / 256.0 for _ in range(100)]
    out["measure.combine.p50_us"] = 1e6 * _call_median(
        measure.combine, [([(0.0, a), (lam, b)],)
                          for (a, b), lam in zip(pairs(50, 100), lams)])
    out["geometry.homotopy_H.p50_us"] = 1e6 * _call_median(
        geometry.homotopy_H, [(a, b, lam) for (a, b), lam in zip(pairs(50, 100), lams)])
    return out


def jsonio_probes(folder: Path):
    """Load and dump the 50-point files of a cli workload folder."""
    from tropimeas import jsonio

    space_path, measure_path = folder / "space50.json", folder / "m50_0.json"
    obj = jsonio.sanitize(jsonio.measure_to_obj(jsonio.load_measure(measure_path)))
    return {
        "jsonio.load_space.ms": 1e3 * timed_median(lambda: jsonio.load_space(space_path), 5),
        "jsonio.load_measure.ms": 1e3 * timed_median(
            lambda: jsonio.load_measure(measure_path), 5),
        "jsonio.dump.ms": 1e3 * timed_median(lambda: jsonio.dump(obj), 20),
    }


def cli_probes(calls, env):
    """Interpreter start, import of tropimeas.cli, and cli.main per command."""
    from tropimeas import cli

    def run(code):
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=60)

    interpreter = timed_median(lambda: run("pass"), 5)
    imported = timed_median(lambda: run("import tropimeas.cli"), 5)
    out = {"cli.interpreter_ms": 1e3 * interpreter,
           "cli.import_ms": 1e3 * (imported - interpreter)}
    for kind in ("dist_k5", "dist_aggregate_k50", "validate_k50", "bridge"):
        argv = next(c.argv for c in calls if c.kind == kind)

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)

        out[f"cli.main.{kind}.ms"] = 1e3 * timed_median(call, 5)
    return out


def import_seconds(modules, env, repeats) -> float:
    """Median wall time of a fresh interpreter that imports `modules`."""
    code = "import " + ", ".join(modules)
    return timed_median(
        lambda: subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                               check=True, capture_output=True, timeout=60),
        repeats)
