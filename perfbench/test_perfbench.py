"""Tests of the benchmark's own parts.  Run: python3 -m pytest perfbench"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from stats import percentile, samples_needed  # noqa: E402
from workloads import certificate_ok  # noqa: E402

from tropimeas import build_space, canonicalize, hat_d  # noqa: E402


def test_self_time_of_nested_calls():
    # outer runs 0..10 and holds two inner calls, 1..3 and 4..6
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    rows = tracer.summarize()
    assert rows["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert rows["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert list(tracer.parents) == [-1, 0, 0]
    assert tracer.covered_s() == 10.0
    assert tracer.nested_per_call("outer", "inner") == 2.0


def test_span_closes_when_the_call_raises():
    ticks = iter([0.0, 2.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.summarize()["boom"]["self_s"] == 2.0
    assert not tracer._stack


def test_install_wraps_every_binding_and_uninstall_restores():
    from tropimeas import pseudometric, suite

    original = pseudometric.hat_d
    first_check = suite.CRITERIA[0]
    tracer = Tracer()
    tracer.install()
    try:
        assert pseudometric.hat_d is not original
        assert suite.hat_d is pseudometric.hat_d
        assert suite.CRITERIA[0][2] is not first_check[2]
        space = build_space(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
        mu = canonicalize(space, [("a", 0.0)])
        suite.hat_d(1, mu, mu)
    finally:
        tracer.uninstall()
    assert pseudometric.hat_d is original and suite.hat_d is original
    assert suite.CRITERIA[0] is first_check
    assert tracer.summarize()["pseudometric.hat_d"]["calls"] == 1


def test_certificate_rejects_a_perturbed_value():
    space = build_space(["a", "b", "c"],
                        [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    mu = canonicalize(space, [("a", 0.0), ("c", -0.5)])
    nu = canonicalize(space, [("b", 0.0)])
    report = hat_d(2, mu, nu)
    assert certificate_ok(2, mu, nu, report)
    assert not certificate_ok(2, mu, nu, dataclasses.replace(report, value=report.value + 2**-10))
    assert not certificate_ok(3, mu, nu, report)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert samples_needed(90) == 100
    assert samples_needed(99) == 1000
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == 89  # 90..99 lie beyond it
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == 989
    assert percentile([3.0], 50) == 3.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bench)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dist_query",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
