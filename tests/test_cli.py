import json
import time

import pytest

from tropimeas.cli import main

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
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "n,hat_d,tilde_d"
    assert len(lines) == 4


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


SQUARE = {"points": ["a", "b", "c", "d"],
          "dist": [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]}


@pytest.mark.parametrize("step,message", [("1e-7", "budget"), ("nan", "step"),
                                          ("inf", "step")])
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
                                   [{"point": 3, "weight": 0.0}], [{"weight": 0.0}]])
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
    report = json.loads(out1.read_text())
    assert report["all_passed"] is True
    assert [c["id"] for c in report["criteria"]] == list(range(1, 12))


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
