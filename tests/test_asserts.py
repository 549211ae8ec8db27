"""No module of the package has an `assert` statement.

An assert vanishes under python -O, so a check that guards a result is a
raise instead.
"""

import ast
from pathlib import Path

import latmass

PACKAGE = Path(latmass.__file__).parent


def assert_lines(path: Path) -> list[int]:
    tree = ast.parse(path.read_text())
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_assert_free_modules():
    found = {path.stem: assert_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert found.keys() >= {"cli", "padic", "roots", "siegel", "solver"}
    assert {module: lines for module, lines in found.items() if lines} == {}
