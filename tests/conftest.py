import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from tropimeas import build_space
from tropimeas.cli import main
from tropimeas.suite import SuiteConfig

# Every run draws the same examples, and none is replayed from a local
# example database, so a tier-1 result depends on the code alone.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def two_point():
    return build_space(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def line3():
    # a - b - c on a line, d(a,b) = d(b,c) = 1
    return build_space(
        ["a", "b", "c"],
        [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def suite_check():
    """Run one suite check at seed 12345 with small counts and assert that
    it passed.  The property and its tolerance live in the suite only;
    these calls add a third seed to the acceptance run (default seed) and
    the small CLI run (seed 7)."""
    def check(fn, **counts):
        result = fn(SuiteConfig(seed=12345, counts=counts))
        assert result["passed"], result
    return check


@pytest.fixture(scope="session")
def suite_seed0(tmp_path_factory):
    """One `tropimeas suite --seed 0 --output FILE --timings FILE` run for
    the session: its exit code, the report bytes, each check's result by
    name, and each check's wall time in seconds from the suite's timer."""
    folder = tmp_path_factory.mktemp("suite")
    path, times = folder / "r0.json", folder / "t0.json"
    code = main(["suite", "--seed", "0", "--output", str(path), "--timings", str(times)])
    data = path.read_bytes()
    report = json.loads(data)
    results = {r["name"]: r for r in report["criteria"] + report["extras"]}
    return SimpleNamespace(code=code, data=data, results=results,
                           timings=json.loads(times.read_text()))
