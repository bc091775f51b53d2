"""The mutation table of tests/mutate.py stays in step with src, and its runner
tells a killed mutant from unmutated code and from a stale node id."""

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


def test_every_mutants_tests_collect_on_the_unmutated_src():
    assert mutate.collects(sorted({test for m in mutate.MUTANTS for test in m.tests}))


def test_a_mutant_that_breaks_the_import_of_a_named_test_is_killed():
    broken = mutate.Mutant("broken-import", "qpoly.py", "places = ctx.q ** np", "places = ctx.q ** np)",
                           ("tests/test_qpoly.py::test_round_trip",), "a syntax error in a module the test imports")
    assert mutate.run(broken, timeout=120)[0]


def test_the_runner_refuses_a_node_id_that_does_not_collect():
    stale = mutate.Mutant("stale", "qpoly.py", "places = ctx.q ** np", "places = ctx.q ** np",
                          ("tests/test_qpoly.py::no_such_test",), "a test renamed away")
    with pytest.raises(SystemExit, match="do not collect on the unmutated src"):
        mutate.run(stale, timeout=120)
