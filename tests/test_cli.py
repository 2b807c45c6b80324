import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from concurrent import futures

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropimeas import cli, geometry, jsonio, suite
from tropimeas.cli import MAX_CSV_LEVELS, main
from tropimeas.jsonio import load_measure
from tropimeas.pseudometric import hat_d
from tropimeas.suite import MAX_COUNT, SuiteConfig, run_suite

SPACE = {"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def space_file(tmp_path):
    return write(tmp_path / "space.json", SPACE)


def measure_file(tmp_path, name, atoms):
    return write(tmp_path / name, {"space": SPACE, "atoms": atoms})


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


def test_validate_ok(space_file, capsys):
    code, out = run(capsys, ["validate", space_file])
    assert code == 0
    assert json.loads(out.out)["diameter"] == 1.0


def test_validate_bad_matrix(tmp_path, capsys):
    bad = write(tmp_path / "bad.json",
                {"points": ["a", "b", "c"],
                 "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]})
    code, out = run(capsys, ["validate", bad])
    assert code == 2
    assert "a" in out.err and "b" in out.err and "c" in out.err


def test_dist_dirac_pair(tmp_path, capsys):
    m1 = measure_file(tmp_path, "m1.json", [{"point": "a", "weight": 0.0}])
    m2 = measure_file(tmp_path, "m2.json", [{"point": "b", "weight": 0.0}])
    code, out = run(capsys, ["dist", "--n", "1", m1, m2])
    assert code == 0
    result = json.loads(out.out)
    assert result["value"] == 1.0
    assert result["n"] == 1


def test_dist_aggregate_and_csv(tmp_path, capsys):
    m1 = measure_file(tmp_path, "m1.json", [{"point": "a", "weight": 0.0}])
    m2 = measure_file(tmp_path, "m2.json", [{"point": "b", "weight": 0.0}])
    csv = tmp_path / "grid.csv"
    code, out = run(capsys, ["dist", "--n", "3", "--aggregate",
                             "--tol", "1e-9", "--emit-csv", str(csv), m1, m2])
    assert code == 0
    result = json.loads(out.out)
    assert abs(result["aggregate"] - 1.0) <= 1e-9
    mu, nu = load_measure(m1), load_measure(m2)
    rows = [f"{k},{v},{v / k}" for k in (1, 2, 3) for v in [hat_d(k, mu, nu).value]]
    assert csv.read_text().splitlines() == ["n,hat_d,tilde_d"] + rows


def test_integrate(tmp_path, capsys):
    m = measure_file(tmp_path, "m.json",
                     [{"point": "a", "weight": 0.0},
                      {"point": "b", "weight": -1.0}])
    f = write(tmp_path / "f.json", {"values": {"a": 2.0, "b": 5.0}, "n": 1})
    code, out = run(capsys, ["integrate", m, f])
    assert code == 0
    assert json.loads(out.out)["value"] == 4.0


def test_pushforward(tmp_path, capsys):
    m = measure_file(tmp_path, "m.json",
                     [{"point": "a", "weight": 0.0},
                      {"point": "b", "weight": -1.0}])
    mp = write(tmp_path / "map.json", {"assignment": {"a": "b", "b": "b"}})
    code, out = run(capsys, ["pushforward", m, mp])
    assert code == 0
    atoms = json.loads(out.out)["atoms"]
    assert atoms == [{"point": "b", "weight": 0.0}]


def test_flatten(tmp_path, capsys):
    meta = write(tmp_path / "meta.json", {
        "space": SPACE,
        "atoms": [
            {"measure": {"atoms": [{"point": "a", "weight": 0.0}]}, "weight": 0.0},
            {"measure": {"atoms": [{"point": "b", "weight": 0.0}]}, "weight": -2.0},
        ],
    })
    code, out = run(capsys, ["flatten", meta])
    assert code == 0
    atoms = json.loads(out.out)["atoms"]
    assert atoms == [{"point": "a", "weight": 0.0},
                     {"point": "b", "weight": -2.0}]


def test_combine(tmp_path, capsys):
    spec = write(tmp_path / "spec.json", {
        "space": SPACE,
        "pairs": [
            {"alpha": 0.0, "measure": {"atoms": [{"point": "a", "weight": 0.0}]}},
            {"alpha": -1.0, "measure": {"atoms": [{"point": "b", "weight": 0.0}]}},
        ],
    })
    code, out = run(capsys, ["combine", spec])
    assert code == 0
    atoms = json.loads(out.out)["atoms"]
    assert atoms == [{"point": "a", "weight": 0.0},
                     {"point": "b", "weight": -1.0}]


def test_homotopy_bottom_lambda(tmp_path, capsys):
    m = measure_file(tmp_path, "m.json", [{"point": "a", "weight": 0.0}])
    m0 = measure_file(tmp_path, "m0.json", [{"point": "b", "weight": 0.0}])
    code, out = run(capsys, ["homotopy", "--lambda=-inf", m, m0])
    assert code == 0
    assert json.loads(out.out)["atoms"] == [{"point": "a", "weight": 0.0}]
    code, out = run(capsys, ["homotopy", "--lambda=-1", m, m0])
    assert json.loads(out.out)["atoms"] == [{"point": "a", "weight": 0.0},
                                            {"point": "b", "weight": -1.0}]


@pytest.mark.parametrize("space,message", [
    # the same labels at other distances
    ({"points": ["a", "b"], "dist": [[0, 2], [2, 0]]}, "different spaces"),
    ("missing.json", "missing.json"),
])
def test_homotopy_reads_each_files_space(tmp_path, capsys, space, message):
    m = measure_file(tmp_path, "m.json", [{"point": "a", "weight": 0.0}])
    m0 = write(tmp_path / "m0.json",
               {"space": space, "atoms": [{"point": "b", "weight": 0.0}]})
    code, out = run(capsys, ["homotopy", "--lambda=-1", m, m0])
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ") and message in out.err
    assert "Traceback" not in out.err


def test_space_path_is_relative_to_the_measure_file(tmp_path, space_file, capsys):
    (tmp_path / "sub").mkdir()
    atoms = [{"point": "b", "weight": 0.0}]
    linked = write(tmp_path / "sub" / "m.json", {"space": "../space.json", "atoms": atoms})
    inline = measure_file(tmp_path, "inline.json", atoms)
    m1 = measure_file(tmp_path, "m1.json", [{"point": "a", "weight": 0.0}])
    for m2 in (linked, inline):
        code, out = run(capsys, ["dist", "--n", "2", m1, m2])
        assert code == 0 and json.loads(out.out)["value"] == 2.0
    broken = write(tmp_path / "sub" / "broken.json", {"space": "../nope.json", "atoms": atoms})
    code, out = run(capsys, ["dist", "--n", "2", m1, broken])
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ") and "nope.json" in out.err


def test_bridge_both_directions(tmp_path, capsys):
    z = write(tmp_path / "z.json", {"z": [1.0, 0.5]})
    code, out = run(capsys, ["bridge", "--to-simplex", z])
    assert code == 0
    assert json.loads(out.out)["p"] == [0.75, 0.25]
    p = write(tmp_path / "p.json", {"p": [0.75, 0.25]})
    code, out = run(capsys, ["bridge", "--to-tropical", p])
    assert code == 0
    assert json.loads(out.out)["z"] == [1.0, 0.5]


def test_bridge_requires_direction(tmp_path, capsys):
    z = write(tmp_path / "z.json", {"z": [1.0, 0.5]})
    code, out = run(capsys, ["bridge", z])
    assert code == 2


def test_dap_demo_cli(tmp_path, capsys):
    space = write(tmp_path / "s.json", {
        "points": ["a", "b", "c", "d"],
        "dist": [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
    })
    code, out = run(capsys, ["dap-demo", "--net", "a,b", "--lambda=-1",
                             "--samples", "20", space])
    assert code == 0
    assert json.loads(out.out)["disjoint"] is True


def test_oracle_check(tmp_path, capsys):
    m1 = measure_file(tmp_path, "m1.json", [{"point": "a", "weight": 0.0}])
    m2 = measure_file(tmp_path, "m2.json", [{"point": "b", "weight": 0.0}])
    code, out = run(capsys, ["oracle-check", "--n", "1", "--step", "0.01",
                             m1, m2])
    assert code == 0
    result = json.loads(out.out)
    assert result["sandwich_ok"] is True
    assert result["closed_form"] == 1.0


def test_oracle_check_beyond_four_points(tmp_path, capsys):
    # the seed budget, not the point count, bounds the grid oracle
    space = {"points": list("abcde"),
             "dist": [[0 if i == j else 1 for j in range(5)] for i in range(5)]}
    m1 = write(tmp_path / "m1.json", {"space": space, "atoms": [
        {"point": "a", "weight": 0.0}, {"point": "c", "weight": -0.5}]})
    m2 = write(tmp_path / "m2.json", {"space": space, "atoms": [
        {"point": "b", "weight": 0.0}, {"point": "e", "weight": -0.25}]})
    code, out = run(capsys, ["oracle-check", "--n", "1", "--step", "0.25", m1, m2])
    assert code == 0
    result = json.loads(out.out)
    assert result["sandwich_ok"] is True and result["closed_form"] == 1.0


SQUARE = {"points": ["a", "b", "c", "d"],
          "dist": [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]}


@pytest.mark.parametrize("step,message", [("1e-7", "budget"), ("nan", "step"),
                                          ("inf", "step"), ("1e-320", "budget")])
def test_oracle_check_rejects_unusable_grid(tmp_path, capsys, step, message):
    m1 = write(tmp_path / "m1.json", {"space": SQUARE,
                                      "atoms": [{"point": "a", "weight": 0.0}]})
    m2 = write(tmp_path / "m2.json", {"space": SQUARE,
                                      "atoms": [{"point": "c", "weight": 0.0},
                                                {"point": "d", "weight": -0.5}]})
    start = time.perf_counter()
    code, out = run(capsys, ["oracle-check", "--n", "1", "--step", step, m1, m2])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert message in out.err and "Traceback" not in out.err
    assert out.out == ""


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_tiny_step_names_the_grid_width_in_short(tmp_path, capsys, k):
    # ceil(range / 1e-300) has about 300 digits; the message gives three
    space = {"points": SQUARE["points"][:k], "dist": [row[:k] for row in SQUARE["dist"][:k]]}
    atoms = [{"point": p, "weight": -0.5 * i} for i, p in enumerate(space["points"])]
    m1 = write(tmp_path / "m1.json", {"space": space, "atoms": atoms})
    m2 = write(tmp_path / "m2.json", {"space": space, "atoms": atoms[::-1]})
    code, out = run(capsys, ["oracle-check", "--n", "1", "--step", "1e-300", m1, m2])
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: grid of ") and "e+30" in out.err
    assert out.err.count("\n") == 1 and len(out.err) < 200


@pytest.mark.parametrize("atoms", [[1, 2], [{"point": ["a"], "weight": 0.0}],
                                   [{"point": 3, "weight": 0.0}], [{"weight": 0.0}],
                                   [{"point": "a"}]])
def test_malformed_atoms_exit_2(tmp_path, capsys, atoms):
    m1 = measure_file(tmp_path, "m1.json", atoms)
    m2 = measure_file(tmp_path, "m2.json", [{"point": "a", "weight": 0.0}])
    code, out = run(capsys, ["dist", "--n", "1", m1, m2])
    assert code == 2
    assert out.err.startswith("error: ") and "atom" in out.err


@pytest.mark.parametrize("atoms", [
    [1],
    [{"measure": 5, "weight": 0.0}],
    [{"measure": {"atoms": [1]}, "weight": 0.0}],
    [{"measure": {"atoms": [{"point": ["a"], "weight": 0.0}]}, "weight": 0.0}],
])
def test_malformed_meta_atoms_exit_2(tmp_path, capsys, atoms):
    meta = write(tmp_path / "meta.json", {"space": SPACE, "atoms": atoms})
    code, out = run(capsys, ["flatten", meta])
    assert code == 2
    assert out.err.startswith("error: ")


def test_malformed_combine_pairs_exit_2(tmp_path, capsys):
    spec = write(tmp_path / "spec.json", {"space": SPACE, "pairs": [1]})
    code, out = run(capsys, ["combine", spec])
    assert code == 2
    assert "pairs" in out.err


def test_minus_inf_weight_dropped(tmp_path, capsys):
    m1 = measure_file(tmp_path, "m1.json",
                      [{"point": "a", "weight": 0.0},
                       {"point": "b", "weight": "-inf"}])
    m2 = measure_file(tmp_path, "m2.json", [{"point": "a", "weight": 0.0}])
    code, out = run(capsys, ["dist", "--n", "2", m1, m2])
    assert code == 0
    assert json.loads(out.out)["value"] == 0.0


def test_bad_input_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, _ = run(capsys, ["validate", missing])
    assert code == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _ = run(capsys, ["validate", str(garbled)])
    assert code == 2
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    code, out = run(capsys, ["validate", str(nested)])
    assert code == 2 and "nested.json" in out.err


SMALL = {"oracle_spaces": 2, "oracle_pairs": 2, "axiom_triples": 20, "isometry_spaces": 5,
         "functor_instances": 20, "push_instances": 20, "zeta_instances": 10,
         "ball_instances": 20, "homotopy_instances": 20, "separation_pairs": 10,
         "bridge_grid": 50, "dap_samples": 20, "aggregate_pairs": 10}
SMALL_COUNTS = [arg for name, k in SMALL.items() for arg in ("--count", f"{name}={k}")]


def test_suite_small_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1, _ = run(capsys, ["suite", "--seed", "7", "--output", str(out1)] + SMALL_COUNTS)
    code2, _ = run(capsys, ["suite", "--seed", "7", "--output", str(out2)] + SMALL_COUNTS)
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the report bytes are pinned: a change that moves one byte fails here
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == (
        "1f4de2ad3f00d8f54ec53ac12176d525cb278ee426657b8893fcf5cb1a0f1ac9")
    report = json.loads(out1.read_text())
    assert report["all_passed"] is True
    assert [c["id"] for c in report["criteria"]] == list(range(1, 12))


def test_suite_timings_leave_the_report_unchanged(tmp_path, capsys):
    plain, timed, times = tmp_path / "plain.json", tmp_path / "timed.json", tmp_path / "t.json"
    code1, _ = run(capsys, ["suite", "--seed", "7", "--output", str(plain)] + SMALL_COUNTS)
    code2, _ = run(capsys, ["suite", "--seed", "7", "--output", str(timed),
                            "--timings", str(times)] + SMALL_COUNTS)
    assert code1 == code2 == 0
    assert plain.read_bytes() == timed.read_bytes()
    report = json.loads(timed.read_text())
    names = [r["name"] for r in report["criteria"] + report["extras"]]
    seconds = json.loads(times.read_text())
    assert sorted(seconds) == sorted(names)
    assert all(isinstance(t, float) and t >= 0.0 for t in seconds.values())


def test_suite_seed0_report_pinned(suite_seed0):
    assert suite_seed0.code == 0
    assert hashlib.sha256(suite_seed0.data).hexdigest() == (
        "0e5c24763a1ffdb9359bf8deded505e55d5d68c59e1b9d6f6fddb9c014811e52")


def report_bytes(report) -> str:
    return jsonio.dump(jsonio.sanitize(report))


def in_process_report(config) -> dict:
    """The report built by calling each check in this process, in table order."""
    report = {"seed": config.seed,
              "criteria": [{**fn(config), "name": name, "id": cid}
                           for cid, name, fn in suite.CRITERIA],
              "extras": [{**fn(config), "name": name} for name, fn in suite.EXTRAS]}
    report["all_passed"] = all(r["passed"] for r in report["criteria"] + report["extras"])
    return report


@pytest.mark.parametrize("seed", [7, 12345])
def test_the_workers_build_the_in_process_report(seed):
    config = SuiteConfig(seed=seed, counts=SMALL)
    assert report_bytes(run_suite(config)) == report_bytes(in_process_report(config))


def test_one_usable_cpu_gives_the_same_report(monkeypatch):
    workers = []

    class Pool(futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Pool)
    config, cpus = SuiteConfig(seed=7, counts=SMALL), len(os.sched_getaffinity(0))
    many, one = {}, {}
    report = report_bytes(run_suite(config, many))
    # the pool reads the affinity mask; the process's real mask is not touched
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert report_bytes(run_suite(config, one)) == report
    assert workers == [min(cpus, len(suite.CRITERIA) + len(suite.EXTRAS)), 1]
    assert list(one) == list(many)


def test_importing_the_cli_loads_no_process_pool():
    # the suite imports its pool when it runs, so one-shot commands do not pay for it
    code = ("import sys, tropimeas.cli\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    child = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True)
    assert child.stdout == "[]\n"


FOOTPRINT = """
import contextlib, io, json, sys
import tropimeas

def loaded():
    return sorted(m for m in sys.modules if m.startswith("tropimeas."))

steps = [loaded()]
from tropimeas import cli
for argv in sys.argv[1:3]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(json.loads(argv)) == 0
    steps.append(loaded())
import importlib
homes = {name: importlib.import_module(f"tropimeas.{module}")
         for module, names in tropimeas._EXPORTS.items() for name in names}
star = {}
exec("from tropimeas import *", star)
steps.append([name for name in tropimeas.__all__
              if not getattr(tropimeas, name) is star[name] is getattr(homes[name], name)])
steps.append(sorted(set(tropimeas.__all__) - set(dir(tropimeas))))
print(json.dumps(steps))
"""


def test_a_cli_call_loads_only_its_command_modules(inputs):
    # without bytecode every loaded module compiles from source on each call
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    validate = ["validate", inputs["square"]]
    dist = ["dist", "--n", "2", inputs["measure"], inputs["other"]]
    child = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(validate),
                            json.dumps(dist)], env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True)
    bare, after_validate, after_dist, not_home, not_listed = json.loads(child.stdout)
    assert bare == []
    on_validate = {"cli", "jsonio", "measure", "metric", "errors", "rmax"}
    assert after_validate == sorted(f"tropimeas.{m}" for m in on_validate)
    assert after_dist == sorted(f"tropimeas.{m}" for m in on_validate | {"pseudometric", "kernels"})
    assert not_home == [] and not_listed == []


# crit_nonexpansion with its map draw replaced: each instance maps its
# nearest pair onto its farthest pair, which expands the nearest distance
EXPANDING = """
import sys
import numpy as np
from tropimeas import suite
from tropimeas.metric import _nonexpanding

def expanding_maps(rng, ks, D):
    images = np.tile(np.arange(D.shape[-1]), (len(ks), 1))
    for b, k in enumerate(ks.tolist()):
        d = D[b, :k, :k]
        near = np.unravel_index(np.where(np.eye(k, dtype=bool), np.inf, d).argmin(), d.shape)
        images[b, list(near)] = np.unravel_index(d.argmax(), d.shape)
    if _nonexpanding(D, D, images).all():
        sys.exit("no drawn map expands")
    return images

suite._nonexpanding_maps = expanding_maps
try:
    print(suite.crit_nonexpansion(suite.SuiteConfig(seed=0)))
except RuntimeError as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_an_expanding_map_draw_raises(flags):
    # an assert would be stripped under python -O, and the check would pass
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    child = subprocess.run([sys.executable, *flags, "-c", EXPANDING],
                           env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert (child.returncode, child.stdout) == (0, "a drawn map expands some distance\n"), child


def planted_fault(config):
    raise ValueError("planted fault")


def test_a_check_that_raises_is_a_failed_check(tmp_path, capfd, monkeypatch, suite_seed0):
    monkeypatch.setattr(suite, "CRITERIA", [(1, "oracle_sandwich", planted_fault),
                                            *suite.CRITERIA[1:]])
    out, times = tmp_path / "r.json", tmp_path / "t.json"
    code = main(["suite", "--seed", "0", "--output", str(out), "--timings", str(times)])
    captured = capfd.readouterr()
    assert code == 1 and captured.out == "" and "Traceback" not in captured.err
    report = json.loads(out.read_text())
    assert report["all_passed"] is False
    entries = {r["name"]: r for r in report["criteria"] + report["extras"]}
    assert entries.pop("oracle_sandwich") == {
        "error": "ValueError: planted fault", "id": 1, "name": "oracle_sandwich",
        "passed": False}
    # every other check ran as in the unplanted seed-0 run
    assert entries == {name: r for name, r in suite_seed0.results.items()
                       if name != "oracle_sandwich"}
    assert sorted(json.loads(times.read_text())) == sorted(suite_seed0.timings)


def test_a_check_whose_worker_dies_is_a_failed_check(tmp_path, capfd, monkeypatch):
    plain = tmp_path / "plain.json"
    assert main(["suite", "--seed", "7", "--output", str(plain)] + SMALL_COUNTS) == 0
    monkeypatch.setattr(suite, "EXTRAS", [
        (name, (lambda config: os._exit(3)) if name == "meta_oracle" else fn)
        for name, fn in suite.EXTRAS])
    out, times = tmp_path / "r.json", tmp_path / "t.json"
    code = main(["suite", "--seed", "7", "--output", str(out), "--timings", str(times)]
                + SMALL_COUNTS)
    captured = capfd.readouterr()
    assert code == 1 and captured.out == "" and "Traceback" not in captured.err
    report = json.loads(out.read_text())
    entries = {r["name"]: r for r in report["criteria"] + report["extras"]}
    died = entries.pop("meta_oracle")
    assert sorted(died) == ["error", "name", "passed"] and died["passed"] is False
    assert died["error"].startswith("BrokenProcessPool: ")
    # the checks that the death broke beside it ran again alone, as unplanted
    plain = json.loads(plain.read_text())
    assert entries == {r["name"]: r for r in plain["criteria"] + plain["extras"]
                       if r["name"] != "meta_oracle"}
    assert sorted(json.loads(times.read_text())) == sorted(entries)


def test_a_certificate_that_leaves_g1_off_the_net_fails_both_dap_checks(monkeypatch):
    config = SuiteConfig(seed=7, counts=SMALL)
    plain = run_suite(config)
    # G1 returns its measure unmoved, with atoms off the net
    monkeypatch.setattr(geometry, "pushforward", lambda mu, r: mu)
    planted = run_suite(config)
    dap = {"dap_demo", "saturation_displacement"}
    for before, after in zip(plain["criteria"] + plain["extras"],
                             planted["criteria"] + planted["extras"], strict=True):
        if after["name"] in dap:
            assert before["passed"] and not after["passed"], after
        else:
            assert report_bytes(after) == report_bytes(before)


# The seed-0 entries of the checks that do not draw through
# sampling.stack_objects, one per check, so that a change to their draws
# shows which check's entry moved.
SEED0_ENTRIES = {
    "oracle_sandwich": {"checks": 600, "id": 1, "max_exact_minus_oracle": 0.0,
                        "max_oracle_minus_exact": 4.440892098500626e-16},
    "pseudometric_axioms": {"exact_failures": 0, "id": 2, "max_triangle_violation": 0.0},
    "delta_isometry": {"checks": 1175, "failures": 0, "id": 3},
    "ball_convexity": {"id": 6, "max_violation": 0.0},
    "homotopy_bounds": {"endpoint_failures": 0, "id": 7, "max_lambda_violation": 0.0,
                        "max_mu_violation": 0.0},
    "bridge": {"boundary_failures": 0, "exact_failures": 0, "id": 9,
               "max_roundtrip_error": 4.440892098500626e-16},
    "dap_demo": {"disjoint": True, "displacement_bound_g1": 0.734375,
                 "displacement_bound_g2": 0.0703125, "id": 10,
                 "max_displacement_g1": 0.734375, "max_displacement_g2": 0.0703125,
                 "supports_ok": True},
    "tropical_axioms": {"failures": 0, "max_rho_triangle_violation": 3.552713678800501e-15},
    "meta_oracle": {"checks": 20, "max_exact_minus_oracle": 0.0,
                    "max_oracle_minus_exact": 2.7755575615628914e-17},
}


@pytest.mark.parametrize("name", SEED0_ENTRIES)
def test_suite_seed0_entry_pinned(suite_seed0, name):
    assert suite_seed0.results[name] == {**SEED0_ENTRIES[name], "name": name, "passed": True}


def test_emitted_json_round_trips(tmp_path, capsys):
    m = measure_file(tmp_path, "m.json",
                     [{"point": "a", "weight": 0.0},
                      {"point": "b", "weight": -1.5}])
    mp = write(tmp_path / "map.json", {"assignment": {"a": "a", "b": "b"}})
    code, out = run(capsys, ["pushforward", m, mp])
    assert code == 0
    emitted = write(tmp_path / "emitted.json", json.loads(out.out))
    code, out2 = run(capsys, ["pushforward", emitted, mp])
    assert code == 0
    assert json.loads(out2.out) == json.loads(
        (tmp_path / "emitted.json").read_text())


MEASURE = {"space": SPACE, "atoms": [{"point": "a", "weight": 0.0},
                                     {"point": "b", "weight": -1.0}]}
INNER = [{"measure": {"atoms": [{"point": p, "weight": 0.0}]}, "weight": w}
         for p, w in (("a", 0.0), ("b", -2.0))]

# argv with {file} for the file under test and {measure} for a valid
# measure file, and a valid object for the file under test
COMMANDS = {
    "validate": (["validate", "{file}"], SPACE),
    "dist": (["dist", "--n", "2", "--aggregate", "{file}", "{measure}"], MEASURE),
    "integrate": (["integrate", "{measure}", "{file}"], {"values": {"a": 2.0, "b": 5.0}}),
    "pushforward": (["pushforward", "{measure}", "{file}"],
                    {"assignment": {"a": "b", "b": "a"}, "target_space": SPACE}),
    "flatten": (["flatten", "{file}"], {"space": SPACE, "atoms": INNER}),
    "combine": (["combine", "{file}"], {"space": SPACE, "pairs": [
        {"alpha": a["weight"], "measure": a["measure"]} for a in INNER]}),
    "homotopy": (["homotopy", "--lambda=-1", "{file}", "{measure}"], MEASURE),
    "to-simplex": (["bridge", "--to-simplex", "{file}"], {"z": [1.0, 0.5]}),
    "to-tropical": (["bridge", "--to-tropical", "{file}"], {"p": [0.75, 0.25]}),
}


def call(argv, **files):
    """cli.main on argv with {name} replaced by files[name]: (exit code,
    stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(**files) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def run_command(tmp_path, command, obj):
    """cli.main on `obj` as the command's file: (exit code, stdout, stderr)."""
    return call(COMMANDS[command][0], file=write(tmp_path / "file.json", obj),
                measure=write(tmp_path / "measure.json", MEASURE))


@pytest.mark.parametrize("command,obj,message", [
    ("integrate", {"values": {"a": [2.0], "b": 5.0}}, "number"),
    ("pushforward", {"assignment": {"a": ["b"], "b": "b"}}, "label"),
    ("to-simplex", {"z": [1, [0]]}, "number"),
    ("to-simplex", {"z": [1, None]}, "number"),
    ("to-simplex", {"z": [1, True]}, "number"),
    ("to-simplex", {"z": [1, 10 ** 400]}, "range"),
    ("combine", {"space": SPACE, "pairs": [{"alpha": [0], "measure": MEASURE}]},
     "number"),
    ("validate", {"points": 5, "dist": [[0]]}, "points"),
    ("validate", {"points": [1, 2], "dist": [[0, 1], [1, 0]]}, "label"),
    ("validate", {"points": ["a", "b"], "dist": [0, 1]}, "rows"),
    ("validate", {"points": ["a", "b"], "dist": [[0, None], [None, 0]]}, "number"),
    *[("validate", {"points": ["a", "b"], "dist": [[0, x], [x, 0]]}, "not finite")
      for x in (math.inf, -math.inf, math.nan)],
    ("dist", dict(MEASURE, atoms=[{"point": "a", "weight": 10 ** 400}]), "range"),
    ("dist", dict(MEASURE, atoms=[{"point": "a", "weight": 1e308},
                                  {"point": "b", "weight": -1e308}]), "overflows"),
    ("dist", dict(MEASURE, atoms=[{"point": "a", "weight": "inf"}]),
     "unrecognized scalar string"),
    # alpha + weight = -2e308 must not drop the atom at b
    ("combine", {"space": SPACE, "pairs": [
        {"alpha": 0.0, "measure": {"atoms": [{"point": "a", "weight": 0.0}]}},
        {"alpha": -1e308, "measure": {"atoms": [{"point": "a", "weight": 0.0},
                                                {"point": "b", "weight": -1e308}]}}]},
     "overflows"),
    # shifting the meta weights 1e308 and -1e308 to top 0
    ("flatten", {"space": SPACE, "atoms": [dict(a, weight=w) for a, w
                                           in zip(INNER, (1e308, -1e308))]},
     "overflows"),
    ("to-tropical", {"p": [math.nan, 0.5, 0.5]}, "nonnegative"),
    ("to-tropical", {"p": [1.0, -1e-13]}, "nonnegative"),
    ("to-tropical", {"p": [1e308, 1e308]}, "nonnegative"),  # the sum overflows
    *[("integrate", {"values": {"a": x, "b": 5.0}}, "must be finite")
      for x in (math.inf, -math.inf, math.nan)],
    # weights of JSON Infinity and NaN
    *[("dist", dict(MEASURE, atoms=[{"point": "a", "weight": x}]), "finite or -inf")
      for x in (math.inf, math.nan)],
    ("validate", {"points": ["a", "b"], "dist": [[0, 1], [1]]},
     "dist row 1 has 1 entries, expected 2"),
    ("validate", {"points": [], "dist": []}, "a space needs at least one point"),
])
def test_malformed_values_exit_2(tmp_path, command, obj, message):
    code, _, err = run_command(tmp_path, command, obj)
    assert code == 2
    assert err.startswith("error: ") and message in err


def test_function_file_n_is_ignored(tmp_path):
    obj = {"values": {"a": 2.0, "b": 5.0}, "n": [1]}
    assert run_command(tmp_path, "integrate", obj)[0] == 0


def test_aggregate_overflow_exits_2(tmp_path, capsys):
    huge = {"points": ["a", "b"], "dist": [[0, 1e308], [1e308, 0]]}
    m1, m2 = (write(tmp_path / f"{p}.json",
                    {"space": huge, "atoms": [{"point": p, "weight": 0.0}]})
              for p in "ab")
    # 2 * 1e308 overflows in the aggregate's second term and in hat_d at n = 2
    for options in (["--n", "1", "--aggregate"], ["--n", "2"]):
        code, out = run(capsys, ["dist", *options, m1, m2])
        assert code == 2 and "not finite" in out.err and out.out == "", options


def test_aggregate_bound_overflow_exits_2(tmp_path, capsys):
    huge = {"points": ["a", "b"], "dist": [[0, 1e308], [1e308, 0]]}
    mu, nu = (write(tmp_path / name, {"space": huge, "atoms": atoms}) for name, atoms in (
        ("mu.json", [{"point": "a", "weight": 0.0}, {"point": "b", "weight": -1e308}]),
        ("nu.json", [{"point": "a", "weight": 0.0}])))
    # the truncation bound, diameter 1e308 plus largest weight 1e308, overflows
    code, out = run(capsys, ["dist", "--n", "1", "--aggregate", mu, nu])
    assert code == 2 and out.out == ""
    assert out.err == "error: diameter plus largest weight overflows: inf\n"


@pytest.mark.parametrize("count,message", [
    ("oracle_spaces=0", ">= 1"), ("nosuch=1", "unknown suite count"),
    ("oracle_spaces", "NAME=K"), ("oracle_spaces=x", "invalid literal"),
])
def test_suite_counts_are_checked(capsys, count, message):
    code, out = run(capsys, ["suite", "--count", count])
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ") and message in out.err


def test_suite_gates_take_no_override(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--tol", "triangle=1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["suite", "--help"])
    assert "--tol" not in capsys.readouterr().out


def _paths(obj, prefix=()):
    """Every position in a JSON value, as a tuple of keys and indices."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replace(obj, path, value):
    if not path:
        return value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[path[0]] = _replace(obj[path[0]], path[1:], value)
    return copy


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@pytest.mark.parametrize("command", COMMANDS)
def test_fuzzed_files_exit_0_or_2(tmp_path, command):
    """Any value at any position of a valid file: exit 0 or 2, never a
    traceback (an exception escaping cli.main fails the test)."""
    valid = COMMANDS[command][1]
    assert run_command(tmp_path, command, valid)[0] == 0

    @settings(max_examples=100, deadline=None)
    @given(path=st.sampled_from(list(_paths(valid))), value=JSON_VALUES)
    def check(path, value):
        code, _, err = run_command(tmp_path, command, _replace(valid, path, value))
        assert code in (0, 2), err

    check()


@pytest.fixture
def inputs(tmp_path):
    """Valid input files: two measures on SPACE and the 4-point SQUARE, the
    path of a CSV file that does not exist yet, and two unwritable output
    paths: one in a missing directory and one that is a directory."""
    return {"measure": write(tmp_path / "measure.json", MEASURE),
            "other": measure_file(tmp_path, "other.json", [{"point": "b", "weight": 0.0}]),
            "square": write(tmp_path / "square.json", SQUARE),
            "csv": str(tmp_path / "levels.csv"),
            "missing": str(tmp_path / "missing" / "out.txt"),
            "directory": str(tmp_path)}


DAP = ["dap-demo", "--net", "a,b", "{square}"]


@pytest.mark.parametrize("argv,message", [
    (["dist", "--n", str(10**400), "{measure}", "{other}"], "positive integer"),
    (["oracle-check", "--n", str(10**400), "--step", "0.1", "{measure}", "{other}"],
     "positive integer"),
    (DAP + ["--lambda=-1", "--n", str(10**400)], "positive integer"),
    # checked before any sample is drawn
    (DAP + ["--samples", "0", "--lambda=5"], "lambda"),
    (DAP + ["--samples", "0", "--lambda=-1", "--n", "0"], "positive integer"),
    (DAP + ["--samples", "-1", "--lambda=-1"], "samples"),
    # a valid level beyond the row budget of the CSV, checked before it opens
    (["dist", "--n", str(2**63), "--emit-csv", "{csv}", "{measure}", "{other}"],
     "budget"),
    (["dist", "--n", str(MAX_CSV_LEVELS + 1), "--emit-csv", "{csv}", "{measure}",
      "{other}"], "budget"),
    # SQUARE has diameter 2, so lambda + n * diameter overflows
    (DAP + ["--samples", "0", "--lambda=-1", "--n", str(10**308)], "not finite"),
    # samples beyond the suite's count ceiling, checked before any is drawn
    (DAP + ["--samples", str(10**12), "--lambda=-1"], f"samples must lie in 0..{MAX_COUNT}"),
    (DAP + ["--samples", str(MAX_COUNT + 1), "--lambda=-1"], f"0..{MAX_COUNT}"),
    # an infinite tol would sum one level and print "inf", which no reader takes
    (["dist", "--n", "1", "--aggregate", "--tol", "inf", "{measure}", "{other}"],
     "positive and finite"),
    # a negative seed names the seed, and the suite refuses it before --output opens
    (["suite", "--seed", "-1", "--output", "{csv}"], "seed must be an integer >= 0"),
    (DAP + ["--lambda=-1", "--seed", "-3"], "--seed must be an integer >= 0"),
])
def test_bad_arguments_exit_2(inputs, argv, message):
    code, out, err = call(argv, **inputs)
    assert code == 2 and out == ""
    assert not os.path.exists(inputs["csv"])
    assert err.startswith("error: ") and message in err
    assert len(err) < 200  # the message does not print the number


@pytest.mark.parametrize("count", [f"bridge_grid={10**12}", f"axiom_triples={10**9}",
                                   f"oracle_spaces={MAX_COUNT + 1}", "ball_instances=1" + "0" * 4000])
def test_suite_counts_above_the_ceiling_exit_2(inputs, monkeypatch, count):
    # refused before any check runs and before the output file opens
    monkeypatch.setattr(suite, "run_suite", lambda *args: pytest.fail("suite ran"))
    code, out, err = call(["suite", "--count", count, "--output", "{csv}"], **inputs)
    assert code == 2 and out == "" and not os.path.exists(inputs["csv"])
    assert err.startswith("error: ") and f"at most {MAX_COUNT}" in err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("config", [
    {"seed": True},
    {"seed": False},
    {"counts": {"oracle_pairs": True}},
    {"counts": {"axiom_triples": False}},
])
def test_the_suite_refuses_bools_for_integers(config):
    # bool is an int in Python; a bool seed would print as true in the report
    with pytest.raises(ValueError, match="must be an integer"):
        SuiteConfig(**config)


def test_the_count_ceiling_is_allowed():
    name = "oracle_spaces"
    assert SuiteConfig(counts={name: MAX_COUNT}).count(name) == MAX_COUNT


@pytest.mark.parametrize("argv", [
    ["suite", "--output", "{missing}"],
    ["suite", "--output", "{directory}"],
    ["suite", "--timings", "{missing}"],
    ["suite", "--timings", "{directory}"],
    ["suite", "--output", "{csv}", "--timings", "{csv}"],  # the report would overwrite the timings
    ["dist", "--n", "2", "--emit-csv", "{missing}", "{measure}", "{other}"],
    ["dist", "--n", "2", "--emit-csv", "{directory}", "{measure}", "{other}"],
])
def test_unwritable_output_exits_2(inputs, monkeypatch, argv):
    # the suite refuses before it runs any check
    monkeypatch.setattr(suite, "run_suite", lambda *args: pytest.fail("suite ran"))
    code, out, err = call(argv, **inputs)
    path = inputs[next(name for name in ("missing", "directory", "csv")
                       if f"{{{name}}}" in argv)]
    assert code == 2 and out == ""
    assert err.startswith("error: ") and path in err and "Traceback" not in err
    assert err.count("\n") == 1


LEVELS = st.sampled_from([1, 2, 3, 0, -1, -7, 2**63, 10**400])
STEPS = st.floats(0.01, 1.0) | st.sampled_from([0.0, -0.5, math.nan, math.inf])
LAMBDAS = st.floats(-3.0, 3.0) | st.sampled_from([-math.inf, math.inf, math.nan])
TOLS = st.floats(1e-12, 10.0) | st.sampled_from([0.0, -1.0, math.nan, math.inf])

# argv builder and the strategies of its arguments, per command
ARGUMENTS = {
    "oracle-check": (lambda n, step: ["oracle-check", f"--n={n}", f"--step={step}",
                                      "{measure}", "{other}"], LEVELS, STEPS),
    "dap-demo": (lambda n, lam, samples: DAP + [f"--n={n}", f"--lambda={lam}",
                                                f"--samples={samples}"],
                 LEVELS, LAMBDAS, st.integers(-2, 5)),
    "dist": (lambda n, tol: ["dist", f"--n={n}", "--aggregate", f"--tol={tol}",
                             "{measure}", "{other}"], LEVELS, TOLS),
    "dist-csv": (lambda n: ["dist", f"--n={n}", "--emit-csv={csv}", "{measure}",
                            "{other}"], LEVELS),
    "homotopy": (lambda lam: ["homotopy", f"--lambda={lam}", "{measure}", "{other}"],
                 LAMBDAS),
}


@pytest.mark.parametrize("command", ARGUMENTS)
def test_fuzzed_arguments_exit_0_1_or_2(inputs, command):
    """Any drawn option values: exit 0, 1 or 2, never a traceback (an
    exception escaping cli.main fails the test)."""
    argv, *strategies = ARGUMENTS[command]

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*strategies))
    def check(args):
        code, _, err = call(argv(*args), **inputs)
        assert code in (0, 1, 2) and "Traceback" not in err, err

    check()
