import contextlib
import hashlib
import io
import json
import math
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropimeas import cli
from tropimeas.cli import MAX_CSV_LEVELS, main
from tropimeas.jsonio import load_measure
from tropimeas.pseudometric import hat_d
from tropimeas.suite import MAX_COUNT, SuiteConfig

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


def test_suite_small_deterministic(tmp_path, capsys):
    counts = []
    for key in ("oracle_spaces=2", "oracle_pairs=2", "axiom_triples=20",
                "isometry_spaces=5", "functor_instances=20",
                "push_instances=20", "zeta_instances=10",
                "ball_instances=20", "homotopy_instances=20",
                "separation_pairs=10", "bridge_grid=50",
                "dap_samples=20", "aggregate_pairs=10"):
        counts.extend(["--count", key])
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1, _ = run(capsys, ["suite", "--seed", "7", "--output", str(out1)] + counts)
    code2, _ = run(capsys, ["suite", "--seed", "7", "--output", str(out2)] + counts)
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the report bytes are pinned: a change that moves one byte fails here
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == (
        "560655ed12c2cc5d99a84d2cb143c52ac01fe4e4c620540e5f3a93686d0de2b9")
    report = json.loads(out1.read_text())
    assert report["all_passed"] is True
    assert [c["id"] for c in report["criteria"]] == list(range(1, 12))


def test_suite_seed0_report_pinned(suite_seed0):
    assert suite_seed0.code == 0
    assert hashlib.sha256(suite_seed0.data).hexdigest() == (
        "2c2e1e71a6551e5f7e22effa9a4abc16f3f0ce7ab3ce9de10838950fd5dff615")


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
    monkeypatch.setattr(cli, "run_suite", lambda config: pytest.fail("suite ran"))
    code, out, err = call(["suite", "--count", count, "--output", "{csv}"], **inputs)
    assert code == 2 and out == "" and not os.path.exists(inputs["csv"])
    assert err.startswith("error: ") and f"at most {MAX_COUNT}" in err
    assert err.count("\n") == 1 and len(err) < 200


def test_the_count_ceiling_is_allowed():
    name = "oracle_spaces"
    assert SuiteConfig(counts={name: MAX_COUNT}).count(name) == MAX_COUNT


@pytest.mark.parametrize("argv", [
    ["suite", "--output", "{missing}"],
    ["suite", "--output", "{directory}"],
    ["dist", "--n", "2", "--emit-csv", "{missing}", "{measure}", "{other}"],
    ["dist", "--n", "2", "--emit-csv", "{directory}", "{measure}", "{other}"],
])
def test_unwritable_output_exits_2(inputs, monkeypatch, argv):
    # the suite refuses before it runs any check
    monkeypatch.setattr(cli, "run_suite", lambda config: pytest.fail("suite ran"))
    code, out, err = call(argv, **inputs)
    path = inputs["missing" if "{missing}" in argv else "directory"]
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
