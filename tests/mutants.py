"""Mutation harness: plant one known fault at a time and check that the
tests catch it.

    python tests/mutants.py            # every row
    python tests/mutants.py 0 5        # rows 0 and 5 only

Each row of MUTANTS is (file, old text, new text, reason, expected).  For
each row the harness copies `src/`, `tests/` (without this harness's own
check, `tests/test_mutants.py`) and `pyproject.toml` to a temporary
directory, replaces the row's old text (which must occur exactly
once) by its new text, and runs `pytest -x -q tests` there, after the
mutated module's own test file (`tests/test_<module>.py`, if any): most
rows fail there, so they end sooner, and a row is KILLED exactly when
some test fails, whatever the order.  It prints
KILLED or SURVIVED per row, and exits 1 if a row that is expected to be
"killed" survived.  It first runs the tests on an unmutated copy and exits
2 if they fail there.  A row expected to be "equivalent" (no test can tell it
from the original) or "known" (a survivor that an open change is meant to
kill) may survive; a known row that is killed is reported, so its label
can be updated.

pytest does not collect this file (its name does not start with `test_`);
`tests/test_mutants.py` checks that each row's old text occurs exactly
once, so a row cannot silently stop applying.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    ("src/tropimeas/pseudometric.py",
     "        nd = n * sub\n",
     "        nd = np.where((sub > 1) & np.isfinite(gap) & (gap != 0),\n"
     "                      n * sub * (1 + 2.0 ** -46), n * sub)\n",
     "the n*d mutant: scale n*d by 1 + 2^-46 where d > 1 and the weight gap "
     "is finite and nonzero", "killed"),
    ("src/tropimeas/pseudometric.py",
     '(lv, "left", i) if lv >= rv else',
     '(lv, "left", i) if lv > rv else',
     "ties go to the right side instead of the left", "killed"),
    ("src/tropimeas/pseudometric.py",
     "        np.less(dist[1:], np.minimum.accumulate",
     "        np.less_equal(dist[1:], np.minimum.accumulate",
     "the staircase keeps entries that tie the running minimum", "killed"),
    ("src/tropimeas/pseudometric.py",
     "        keep[0] = True\n",
     "        keep[0] = False\n",
     "the staircase drops each row's heaviest other atom", "killed"),
    ("src/tropimeas/pseudometric.py",
     "    if mu == nu:  # at distance 0 at every level\n        return None\n",
     "",
     "separates probes every level up to n_max for equal measures", "killed"),
    ("src/tropimeas/metric.py",
     "    while ((low := _project(v, n, space.dist)) < v).any():\n        v = low\n",
     "    low = _project(v, n, space.dist)\n",
     "tighten stops after one projection", "killed"),
    ("src/tropimeas/metric.py",
     "_project(v, n, self.space.dist) < v)",
     "_project(v, n, self.space.dist) < v - 1e-12)",
     "LipFunction tolerates a slack of 1e-12", "killed"),
    ("src/tropimeas/bridge.py",
     "    Z[(L == 1.0) | center] = 1.0",
     "    Z = np.where((Z > 0.0) & (Z < 1.0), Z + 1e-11, Z)\n"
     "    Z[(L == 1.0) | center] = 1.0",
     "delta_to_gamma_rows adds 1e-11 to each coordinate strictly inside (0, 1): "
     "the exact values of tests/test_bridge.py kill it, although the suite's "
     "bridge round trip, with its hand-set 1e-9 bound, passes it", "killed"),
    ("src/tropimeas/geometry.py",
     "    mask = (rng.random(size) < 0.6) & (np.arange(size[-1]) < np.asarray(k)[..., None])\n",
     "    mask = rng.random(size) < 0.6\n",
     "the block mask is not limited to each row's first k points, so atoms "
     "land on padding points", "killed"),
    ("src/tropimeas/geometry.py",
     "        mask.reshape(-1, size[-1])[empty, at] = True\n",
     "        mask.reshape(-1, size[-1])[empty, 0 * at] = True\n",
     "the empty-row rule always puts its atom at point 0 (the draw is kept, "
     "so the stream does not move)", "killed"),
    ("src/tropimeas/sampling.py",
     "    keys = np.where(np.arange(size[-1]) < ks[:, None], rng.random(size), 2.0)\n",
     "    keys = rng.random(size)\n",
     "the nets of a stack are not limited to each instance's first k points",
     "killed"),
    ("src/tropimeas/pseudometric.py",
     "    pairs = sorted({(min(i, j), max(i, j)) for i in range(m) for j in at if i != j})\n",
     "    pairs = [(min(i, j), max(i, j)) for i in range(m) for j in at if i != j]\n",
     "hat_d_meta computes a pair of ground measures once per order it "
     "appears in (no pair dedupe)", "killed"),
    ("src/tropimeas/pseudometric.py",
     "        low, high = high, min(2 * high, n_max)\n",
     "        low, high = high, high + 1\n",
     "separates walks the levels one by one instead of doubling", "killed"),
    ("src/tropimeas/suite.py",
     "zip(checks, jobs)",
     "zip(checks, futures.as_completed(jobs))",
     "run_suite lists the entries in the order the checks end, not in table "
     "order: with two or more workers oracle_sandwich ends last", "killed"),
    ("src/tropimeas/geometry.py",
     "        g1 = pushforward(mu, r)\n",
     "        g1 = mu\n",
     "the DAP certificate leaves G1 unmoved, so its atoms stay off the net",
     "killed"),
    ("src/tropimeas/kernels.py",
     "+ nd[p, cols] + w",
     "+ (nd[p, cols] + w)",
     "the sweep rounds v + (n*d + w) instead of (v + n*d) + w", "killed"),
    ("src/tropimeas/kernels.py",
     "(np.arange(lo, hi) - m) * step",
     "(np.arange(lo, hi) - m + 1) * step",
     "the grid is shifted up by one step", "killed"),
    ("src/tropimeas/kernels.py",
     "for lo in range(0, width, span):",
     "for lo in range(0, width - span, span):",
     "the sweep drops the last span of the last coordinate", "killed"),
    ("src/tropimeas/kernels.py",
     "(t[i] for t, i in zip(terms, choice))",
     "(t[0] for t, i in zip(terms, choice))",
     "the walked leading coordinates always take their first row", "killed"),
    ("src/tropimeas/kernels.py",
     "base = (0.0 + nd[0, cols]) + w",
     "base = (0.0 + nd[-1, cols]) + w",
     "the base row fixes the last coordinate at 0 instead of the first", "killed"),
    ("src/tropimeas/kernels.py",
     "                np.abs(gaps, out=gaps)\n",
     "",
     "the sweep keeps mu's integral minus nu's, not its absolute value", "killed"),
    ("src/tropimeas/kernels.py",
     "_integrals(block[:split], tail[:split], gaps, tmp)",
     "_integrals(block[:split], tail[:split], gaps, gaps)",
     "mu's integrals use their own result as scratch", "killed"),
    ("src/tropimeas/kernels.py",
     "    if not (len(mu_cols) and len(nu_cols)):\n"
     "        raise EmptyMeasure(\"no atoms with finite weight\")\n",
     "",
     "the sweep takes a side without atoms", "killed"),
    ("src/tropimeas/suite.py",
     "    return max(0.0, float(np.max(violations)))\n",
     "    return 0.0\n",
     "_worst reads every violation as 0.0, which disarms the maximum gates of "
     "four checks", "killed"),
    ("src/tropimeas/suite.py",
     "        if hat_d(n, mu, nu).value != n * hausdorff_support_distance(mu, nu):\n",
     "        if hat_d(n, mu, nu).value > n * hausdorff_support_distance(mu, nu) + 1.0:\n",
     "the Hausdorff specialization counts a failure only above the bound plus 1",
     "killed"),
    ("src/tropimeas/suite.py",
     "        if flatten(dirac_lift(mu)) != mu:\n            failures += 1\n",
     "        if flatten(dirac_lift(mu)) != mu:\n            failures += 0\n",
     "functor_monad counts no failure of flatten(dirac_lift(mu)) == mu", "killed"),
    ("src/tropimeas/cli.py",
     "from .errors import TropimeasError\n",
     "from .errors import TropimeasError\nfrom .suite import SuiteConfig, run_suite\n",
     "the CLI imports the suite at its top, so every call loads it", "killed"),
    ("src/tropimeas/__init__.py",
     "import importlib\n",
     "import importlib\n\nfrom . import bridge  # noqa: F401\n",
     "import tropimeas loads the bridge module", "killed"),
]


def apply(root: Path, file: str, old: str, new: str) -> None:
    path = root / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the old text occurs {text.count(old)} times: {old!r}")
    path.write_text(text.replace(old, new))


def copy_tree(dst: Path) -> None:
    """Copy `src/`, `tests/` and `pyproject.toml` to `dst`, leaving out
    tests/test_mutants.py: on a mutated copy its check that each row's old
    text occurs once fails, and would read KILLED for every row."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dst / name, ignore=shutil.ignore_patterns(
            "__pycache__", ".hypothesis", "test_mutants.py"))
    shutil.copy(ROOT / "pyproject.toml", dst)


def tests_pass(row=None) -> bool:
    """Copy the tree to a temporary directory, apply `row` if given and run
    the tests there, the mutated module's own test file first; True when
    they pass."""
    with tempfile.TemporaryDirectory(prefix="tropimeas-mutant-") as tmp:
        tmp = Path(tmp)
        copy_tree(tmp)
        runs = ["tests"]
        if row is not None:
            apply(tmp, *row[:3])
            own = f"tests/test_{Path(row[0]).stem}.py"
            if (tmp / own).exists():
                runs.insert(0, own)
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        return all(subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", path],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode == 0 for path in runs)


def main(argv: list[str]) -> int:
    if not tests_pass():  # else every row would read KILLED
        print("the tests fail on the unmutated tree")
        return 2
    bad = []
    for i in [int(a) for a in argv] or range(len(MUTANTS)):
        file, _, _, reason, expected = MUTANTS[i]
        start = time.perf_counter()
        killed = not tests_pass(MUTANTS[i])
        print(f"{i:2d} {'KILLED' if killed else 'SURVIVED'} ({expected}, "
              f"{time.perf_counter() - start:.1f} s) {file}: {reason}", flush=True)
        if not killed and expected == "killed":
            bad.append(i)
    if bad:
        print(f"unexpected survivors: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
