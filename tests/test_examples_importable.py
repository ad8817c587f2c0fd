"""Smoke checks that the example scripts are importable and well formed.

Most examples cost minutes of simulation each, so for them the test
suite only verifies that they parse, import, and expose a ``main``
function; the benchmark/experiment machinery they call is tested
elsewhere.  The examples in :data:`FAST` take under a second and run
end to end, so a call into an API that changed fails here.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
#: Examples that run end to end in the suite.
FAST = ["compiler_explorer", "design_of_experiments"]


def load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
class TestExamples:
    def test_parses(self, path):
        ast.parse(path.read_text())

    def test_has_module_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"

    def test_importable_with_main(self, path):
        module = load(path)
        assert callable(getattr(module, "main", None))

    def test_main_guard_present(self, path):
        assert 'if __name__ == "__main__":' in path.read_text()


def test_at_least_four_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("name", FAST)
def test_fast_example_runs_end_to_end(name, capsys):
    load(EXAMPLES_DIR / f"{name}.py").main()
    assert capsys.readouterr().out.strip()
