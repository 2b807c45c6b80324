"""The benchmark's three workloads.

Each is a closed loop driven by one client: the next operation starts
only after the previous one has returned.  A workload has

* `imports`, the modules its process needs before it can start work;
* `setup(seed)`, which builds the inputs from the seed alone;
* `step(inputs, i)`, operation i (taken modulo the planned sequence);
* `check(inputs, answers)`, run after the timed window, which counts the
  failed operations and the wrong answers and digests the answers;
* `fixed_work(inputs)`, a fixed amount of work for the traced run;
* `keep` and `same(a, b)`: only the first `keep` answers are kept (all
  when None), and a later answer must be `same` as the kept one for the
  same planned operation.

Functions of the program are looked up through their module at call
time (`pm.hat_d`, not a name bound here), so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stats import Digest

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


@dataclass
class Failure:
    """An operation that raised instead of answering."""

    error: str


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


# --------------------------------------------------------------------------
# suite: the user's certification step
# --------------------------------------------------------------------------

class Suite:
    """One full `run_suite` per operation, always at the same suite seed.

    The suite draws its own instances from its seed, and that seed decides
    how large the spaces swept by the grid oracle are (criterion 1 takes
    about 27 s at suite seed 0 and 52 s at suite seed 1 on 2 cores), so the
    wall time is comparable only at one suite seed.  `--seed` therefore
    does not reach the suite; `--suite-seed` (default 0, the ROADMAP's
    certification seed) does.
    """

    name = "suite"
    imports = ("tropimeas.suite", "tropimeas.jsonio")
    min_samples = 1
    tail_pct = None  # a run holds a few suites at most, so the tail is the slowest
    keep = None
    same = None

    def __init__(self, suite_seed: int = 0):
        self.suite_seed = suite_seed

    def setup(self, seed):
        from tropimeas import suite

        return suite.SuiteConfig(seed=self.suite_seed)

    def step(self, config, i):
        from tropimeas import suite

        return suite.run_suite(config)

    @staticmethod
    def report_digest(report) -> str:
        """sha256 of the report file `tropimeas suite --output` writes."""
        from tropimeas import jsonio

        d = Digest()
        d.add((jsonio.dump(jsonio.sanitize(report)) + "\n").encode())
        return d.hexdigest()

    def check(self, config, answers):
        failed = wrong = 0
        digests = []
        for report in answers:
            if isinstance(report, Failure):
                failed += 1
                continue
            digests.append(self.report_digest(report))
            if not report["all_passed"]:
                failed += 1
                wrong += 1
        unstable = sum(d != digests[0] for d in digests)
        return {"failed": failed + unstable, "wrong": wrong + unstable,
                "digest": digests[0] if digests else None,
                "digest_name": f"suite_report_sha256_seed{self.suite_seed}"}

    def fixed_work(self, config):
        return [self.step(config, 0)]


# --------------------------------------------------------------------------
# dist_query: distance queries at large support, no oracle
# --------------------------------------------------------------------------

DIST_SIZES = (5, 50, 150)
DIST_MIX = (("hat_d", 70), ("aggregate_d", 10), ("separates", 10),
            ("homotopy", 7), ("hat_d_meta", 3))
DIST_BLOCKS = 12         # of 100 operations: 1200 planned, also the digest window
DIST_POOL = 24           # measures per space
DIST_META_POOL = 12      # meta-measures per space, each over 3 measures


class DistQuery:
    """A seeded sequence of distance queries on spaces of 5, 50 and 150
    points (supports of about 3, 30 and 90 atoms), mixed 70% `hat_d`,
    10% `aggregate_d`, 10% `separates`, 7% `homotopy_H` then `hat_d`, and
    3% `hat_d_meta`.  Each block of 100 operations holds the exact mix,
    and each kind of operation cycles through the three space sizes, so
    the amount of work depends on the seed only through the drawn data."""

    name = "dist_query"
    imports = ("tropimeas.sampling", "tropimeas.pseudometric", "tropimeas.geometry")
    min_samples = 100 * DIST_BLOCKS
    tail_pct = 99
    keep = 100 * DIST_BLOCKS

    def setup(self, seed):
        from tropimeas import geometry, measure, sampling
        from tropimeas.errors import GroundNotMetric

        warnings.simplefilter("ignore", GroundNotMetric)
        rng = _rng(seed, 1)
        spaces = {k: sampling.random_space(rng, k) for k in DIST_SIZES}
        pools = {k: [geometry.random_measure(s, rng) for _ in range(DIST_POOL)]
                 for k, s in spaces.items()}
        metas = {}
        for k, s in spaces.items():
            metas[k] = []
            for _ in range(DIST_META_POOL):
                weights = rng.integers(-768, 1, size=3) / 256.0
                inner = [pools[k][int(x)] for x in rng.choice(DIST_POOL, size=3, replace=False)]
                metas[k].append(measure.meta_measure(s, zip(inner, weights), normalize=True))
        kinds = [kind for kind, share in DIST_MIX for _ in range(share)]
        done = dict.fromkeys(dict(DIST_MIX), 0)
        ops = []
        for _ in range(DIST_BLOCKS):
            for j in rng.permutation(len(kinds)):
                kind = kinds[j]
                k = DIST_SIZES[done[kind] % len(DIST_SIZES)]
                done[kind] += 1
                pool = pools[k]
                a, b, c = (pool[int(x)] for x in rng.choice(DIST_POOL, size=3, replace=False))
                n = int(rng.integers(1, 6))
                if kind == "hat_d":
                    args = (n, a, b)
                elif kind in ("aggregate_d", "separates"):
                    args = (a, b)
                elif kind == "homotopy":
                    args = (n, a, c, float(rng.integers(-768, 1)) / 256.0, b)
                else:
                    M, N = (metas[k][int(x)] for x in
                            rng.choice(DIST_META_POOL, size=2, replace=False))
                    args = (int(rng.integers(1, 4)), M, N)
                ops.append((kind, k, args))
        return ops

    def step(self, ops, i):
        from tropimeas import geometry
        from tropimeas import pseudometric as pm

        kind, _, args = ops[i % len(ops)]
        if kind == "hat_d":
            return pm.hat_d(*args)
        if kind == "aggregate_d":
            return pm.aggregate_d(*args, 1e-9)
        if kind == "separates":
            return pm.separates(*args, 64)
        if kind == "homotopy":
            n, mu, mu0, lam, nu = args
            moved = geometry.homotopy_H(mu, mu0, lam)
            return moved, pm.hat_d(n, moved, nu)
        n, M, N = args
        return pm.hat_d_meta(n, n, M, N)

    def check(self, ops, answers):
        failed = wrong = 0
        digest = Digest()
        for op, ans in zip(ops, answers):
            if isinstance(ans, Failure):
                failed += 1
                continue
            _digest_dist(digest, ans)
            if not _dist_answer_ok(op, ans):
                failed += 1
                wrong += 1
        return {"failed": failed, "wrong": wrong, "digest": digest.hexdigest(),
                "digest_name": "dist_query_answers_sha256"}

    def fixed_work(self, ops):
        return [self.step(ops, i) for i in range(3 * len(ops))]

    @staticmethod
    def same(a, b) -> bool:
        return a == b


def certificate_ok(n, mu, nu, report) -> bool:
    """Check a hat_d answer against its witness.

    With x* the witness atom's point and phi(z) = -n*d(x*, z), the value
    must equal |mu(phi) - nu(phi)| exactly (inputs are dyadic, so the
    arithmetic is exact).
    """
    from tropimeas import measure

    side = mu if report.witness_direction == "left" else nu
    point = side.atoms[report.witness_atom][0]
    space = mu.space
    phi = -n * space.dist[space.index(point)]
    gap = abs(measure.integrate(mu, phi) - measure.integrate(nu, phi))
    return report.n == n and gap == report.value


def _dist_answer_ok(op, ans) -> bool:
    from tropimeas import pseudometric as pm

    kind, _, args = op
    if kind == "hat_d":
        return certificate_ok(*args, ans)
    if kind == "homotopy":
        n, _, _, _, nu = args
        moved, report = ans
        return certificate_ok(n, moved, nu, report)
    if kind == "separates":
        mu, nu = args
        if ans is None:
            return pm.hat_d(64, mu, nu).value == 0.0
        report = pm.hat_d(ans, mu, nu)
        below = ans == 1 or pm.hat_d(ans - 1, mu, nu).value == 0.0
        return report.value > 0.0 and below and certificate_ok(ans, mu, nu, report)
    if kind == "aggregate_d":
        mu, nu = args
        return math.isfinite(ans) and ans >= 0.0 and ans == pm.aggregate_d(nu, mu, 1e-9)
    return math.isfinite(ans) and ans >= 0.0


def _digest_dist(digest, ans):
    if isinstance(ans, tuple):
        ans = ans[1]
    if hasattr(ans, "value"):
        for part in (ans.n, ans.value, ans.witness_direction, ans.witness_atom):
            digest.add(part)
    else:
        digest.add(ans)


# --------------------------------------------------------------------------
# cli: one interpreter per call
# --------------------------------------------------------------------------

CLI_BLOCK = (  # (call kind, count) in every block of 20 calls
    ("dist_k5", 10), ("dist_aggregate_k50", 4), ("validate_k50", 2),
    ("bridge", 2), ("reject_triangle", 1), ("reject_point", 1))
CLI_BLOCKS = 20
CLI_DIGEST_CALLS = 100
CLI_POOL = 6


@dataclass
class Call:
    kind: str
    argv: list
    expect_code: int
    check: tuple | None  # (what, inputs) compared with the library answer


class Cli:
    """`python -m tropimeas.cli ...` as a subprocess per call, on JSON files
    written at setup: 50% `dist --n 2` at 5 points, 20% `dist --n 2
    --aggregate` at 50 points, 10% `validate` at 50 points, 10% `bridge
    --to-simplex` and 10% rejected inputs, half a space that breaks the
    triangle inequality and half a measure on a point outside its space.
    Both rejections should exit 2 without a traceback.

    A measure with `"atoms": [1, 2]` should be rejected the same way, but
    exits 1 with a traceback at the commit that added this benchmark.
    That call is not in the timed sequence, whose operations must all
    succeed; `known_defects` makes it once per run and the result goes to
    the information line."""

    name = "cli"
    imports = ("tropimeas.sampling", "tropimeas.jsonio")
    min_samples = 100  # p90 with 10 samples beyond it
    tail_pct = 90
    keep = None
    same = None

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def setup(self, seed):
        from tropimeas import bridge, geometry, jsonio, sampling

        rng = _rng(seed, 2)
        folder = OUT / f"cli-seed{seed}"
        folder.mkdir(parents=True, exist_ok=True)

        def write(name, obj):
            path = folder / name
            with open(path, "w") as fh:
                jsonio.dump(obj, fh)
            return str(path)

        files = {}
        measures = {}
        for k in (5, 50):
            space = sampling.random_space(rng, k)
            files[f"space{k}"] = write(f"space{k}.json", jsonio.space_to_obj(space))
            for i in range(CLI_POOL):
                mu = geometry.random_measure(space, rng)
                obj = jsonio.measure_to_obj(mu, inline_space=False)
                obj["space"] = f"space{k}.json"
                files[f"m{k}_{i}"] = write(f"m{k}_{i}.json", obj)
                measures[f"m{k}_{i}"] = mu
            if k == 50:
                space50 = space
        vectors = {}
        for i in range(CLI_POOL):
            z = bridge.measure_to_gamma(geometry.random_measure(space50, rng)).z
            files[f"z{i}"] = write(f"z{i}.json", {"z": list(z)})
            vectors[f"z{i}"] = z
        files["bad_triangle"] = write("bad_triangle.json", {
            "points": ["a", "b", "c"],
            "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]})
        files["bad_point"] = write("bad_point.json", {
            "space": "space5.json", "atoms": [{"point": "not-a-point", "weight": 0}]})
        files["bad_atoms"] = write("bad_atoms.json", {"space": "space5.json",
                                                      "atoms": [1, 2]})

        def pair(k):
            i, j = rng.choice(CLI_POOL, size=2, replace=False)
            return f"m{k}_{i}", f"m{k}_{j}"

        kinds = [kind for kind, count in CLI_BLOCK for _ in range(count)]
        calls = []
        for _ in range(CLI_BLOCKS):
            for j in rng.permutation(len(kinds)):
                kind = kinds[j]
                if kind == "dist_k5":
                    a, b = pair(5)
                    calls.append(Call(kind, ["dist", "--n", "2", files[a], files[b]], 0,
                                      ("dist", (measures[a], measures[b]))))
                elif kind == "dist_aggregate_k50":
                    a, b = pair(50)
                    calls.append(Call(kind, ["dist", "--n", "2", "--aggregate",
                                             files[a], files[b]], 0,
                                      ("dist_aggregate", (measures[a], measures[b]))))
                elif kind == "validate_k50":
                    calls.append(Call(kind, ["validate", files["space50"]], 0,
                                      ("validate", space50)))
                elif kind == "bridge":
                    v = f"z{int(rng.integers(CLI_POOL))}"
                    calls.append(Call(kind, ["bridge", "--to-simplex", files[v]], 0,
                                      ("bridge", vectors[v])))
                elif kind == "reject_triangle":
                    calls.append(Call(kind, ["validate", files["bad_triangle"]], 2, None))
                else:
                    calls.append(Call(kind, ["dist", "--n", "2", files["bad_point"],
                                             files["m5_0"]], 2, None))
        self.defect_argv = ["dist", "--n", "2", files["bad_atoms"], files["m5_0"]]
        return calls

    def step(self, calls, i):
        return self._run(calls[i % len(calls)].argv)

    def _run(self, argv):
        proc = subprocess.run([sys.executable, "-m", "tropimeas.cli", *argv],
                              cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    def known_defects(self):
        """Rejection of `"atoms": [1, 2]`: exit code and whether it printed
        a traceback (expected: 2 and no traceback)."""
        code, _, err = self._run(self.defect_argv)
        return {"malformed_atoms": {"exit_code": code, "traceback": "Traceback" in err}}

    def check(self, calls, answers):
        expected = {}
        failed = wrong = 0
        digest = Digest()
        for i, ans in enumerate(answers):
            call = calls[i % len(calls)]
            if isinstance(ans, Failure):
                failed += 1
                continue
            code, out, err = ans
            if i < CLI_DIGEST_CALLS and code == 0:
                digest.add(out.encode())
            if call.expect_code != 0:
                # a crash on rejected input fails the call; accepting it is a wrong answer
                failed += code != call.expect_code or "Traceback" in err
                wrong += code == 0
                continue
            key = tuple(call.argv)
            if key not in expected:
                expected[key] = _library_stdout(call)
            ok = code == 0 and "Traceback" not in err and out == expected[key]
            failed += not ok
            wrong += code == 0 and out != expected[key]
        return {"failed": failed, "wrong": wrong, "digest": digest.hexdigest(),
                "digest_name": f"cli_stdout_sha256_first{CLI_DIGEST_CALLS}"}

    def fixed_work(self, calls):
        """The first calls of the sequence in process, through cli.main."""
        from tropimeas import cli

        results = []
        for call in calls[:CLI_DIGEST_CALLS]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    results.append(cli.main(call.argv))
                except Exception as exc:
                    results.append(Failure(repr(exc)))
        return results


def _library_stdout(call: Call):
    """What the call should print: cli.main in process, after its key
    numbers are checked against the library functions directly.  Returns
    None (never equal to real output) when the numbers disagree."""
    from tropimeas import bridge, cli
    from tropimeas import pseudometric as pm

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(call.argv)
    text = out.getvalue()
    if code != 0:
        return None
    got = json.loads(text)
    what, inputs = call.check
    if what == "dist":
        mu, nu = inputs
        ok = got["value"] == pm.hat_d(2, mu, nu).value
    elif what == "dist_aggregate":
        mu, nu = inputs
        ok = (got["value"] == pm.hat_d(2, mu, nu).value
              and got["aggregate"] == pm.aggregate_d(mu, nu, 1e-9))
    elif what == "validate":
        ok = got["diameter"] == inputs.diameter and got["points"] == list(inputs.points)
    else:
        ok = got["p"] == list(bridge.gamma_to_delta(bridge.GammaPoint(tuple(inputs))).p)
    return text if ok else None


WORKLOADS = {"suite": Suite, "dist_query": DistQuery, "cli": Cli}
