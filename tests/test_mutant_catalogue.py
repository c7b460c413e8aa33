"""The mutation catalogue in ``tests/mutants.py`` still fits the code.

The catalogue's runner applies each mutant and runs its killers, which
takes minutes; this checks in milliseconds that every mutant can still
be applied: its snippet occurs exactly once in its file, its replacement
changes that snippet, and each killer id names a test file that defines
the test function.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_catalogue():
    spec = importlib.util.spec_from_file_location(
        "_mutant_catalogue", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass reads its module's namespace from sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_catalogue()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_every_mutant_applies_and_names_existing_killers(mutant):
    text = (ROOT / "src" / "substream" / mutant.path).read_text()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.killers
    for killer in mutant.killers:
        path, _, test = killer.partition("::")
        source = ROOT / path
        assert source.is_file(), killer
        name = test.split("::")[-1].split("[")[0]
        assert re.search(rf"^\s*def {re.escape(name)}\(", source.read_text(),
                         re.MULTILINE), killer
