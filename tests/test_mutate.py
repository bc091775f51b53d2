"""The mutation table of tests/mutate.py stays in step with src, and its runner
tells a killed mutant from unmutated code."""

import dataclasses

import mutate
import pytest


@pytest.mark.parametrize("mutant", mutate.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_edits_text_found_once_in_src_and_names_tests_that_exist(mutant):
    assert (mutate.SRC / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.why
    assert mutant.tests and all((mutate.ROOT / test.split("::")[0]).is_file() for test in mutant.tests)


def test_mutant_names_are_unique():
    assert len({m.name for m in mutate.MUTANTS}) == len(mutate.MUTANTS)


def test_the_runner_kills_a_mutant_and_spares_the_unmutated_code():
    shifted = next(m for m in mutate.MUTANTS if m.name == "unit-power-row-shifted")
    assert mutate.run(shifted, timeout=120)[0]
    unchanged = dataclasses.replace(shifted, new=shifted.old, tests=("tests/test_qpoly.py::test_round_trip",))
    assert not mutate.run(unchanged, timeout=120)[0]


def test_the_runner_refuses_text_that_is_not_in_src(tmp_path):
    (tmp_path / "multispace").mkdir()
    (tmp_path / "multispace" / "qpoly.py").write_text((mutate.SRC / "qpoly.py").read_text())
    missing = mutate.Mutant("missing", "qpoly.py", "no such text", "", ("tests/test_qpoly.py",), "a stale entry")
    with pytest.raises(SystemExit, match="occurs 0 times"):
        mutate.apply(missing, tmp_path)
    assert (tmp_path / "multispace" / "qpoly.py").read_text() == (mutate.SRC / "qpoly.py").read_text()
