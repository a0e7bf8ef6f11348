"""The mutation table in tools/mutants.py still matches the code and tests it
names (running the mutants themselves is `python tools/mutants.py`)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_table():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once():
    table = load_table()
    assert [m.name for m in table.MUTANTS if table.stale(m)] == []


def test_every_killer_names_a_test():
    # file::[Class::]test[param]: the file exists and defines the test function
    missing = []
    for mutant in load_table().MUTANTS:
        for test in mutant.killers:
            path, *_, function = test.partition("[")[0].split("::")
            if f"def {function}(" not in (ROOT / path).read_text(encoding="utf-8"):
                missing.append(test)
    assert missing == []


def test_a_mutant_that_breaks_the_code_is_no_kill():
    # a NameError from a renamed type fails the killer without testing a guard
    verdict = load_table()._verdict
    assert verdict(1, "E   AssertionError: assert 1.0 == 1.0000000000000002") == "killed"
    assert verdict(1, "E   NameError: name 'Singular' is not defined") == "ERROR"
    assert verdict(1, "E   ImportError: cannot import name 'Singular'") == "ERROR"
    assert verdict(0, "1 passed") == "SURVIVED"
    assert verdict(4, "") == "ERROR 4"


def test_rows_are_selected_by_file():
    table = load_table()
    cli_rows = [m for m in table.MUTANTS if m.path == "src/forcelimits/cli.py"]
    assert cli_rows and len(cli_rows) < len(table.MUTANTS)
    assert table.select([]) == list(table.MUTANTS)
    assert table.select([str(ROOT / "src/forcelimits/cli.py")]) == cli_rows
    both = table.select([str(ROOT / "src/forcelimits" / name) for name in ("errors.py", "cli.py")])
    assert both == [m for m in table.MUTANTS if m in cli_rows or m.path.endswith("errors.py")]
    # a file with no row, or none at all, is an error rather than an empty run
    for path in ("README.md", "src/forcelimits/no_such_module.py"):
        with pytest.raises(ValueError, match="no row names"):
            table.select([str(ROOT / "src/forcelimits/cli.py"), str(ROOT / path)])
