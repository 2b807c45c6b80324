import importlib.util
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("mutants", HERE / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=lambda row: row[3][:40])
def test_each_mutant_applies_exactly_once(row):
    file, old, new, reason, expected = row
    assert (mutants.ROOT / file).read_text().count(old) == 1, (file, old)
    assert old != new and reason
    assert expected in ("killed", "equivalent", "known")


def test_mutated_copies_leave_out_the_row_check(tmp_path):
    # the copied row check would fail on every mutated copy and so kill every row
    mutants.copy_tree(tmp_path)
    assert not (tmp_path / "tests" / "test_mutants.py").exists()
    assert (tmp_path / "tests" / "test_metric.py").exists()
    assert (tmp_path / "src" / "tropimeas" / "metric.py").exists()
