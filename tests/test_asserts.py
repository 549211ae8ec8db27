"""No module of the package has an `assert` statement, or an import from
outside the standard library.

An assert vanishes under python -O, so a check that guards a result is a
raise instead.  The package has no runtime dependencies.
"""

import ast
import sys
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


def outside_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def test_standard_library_imports_only():
    found = {path.stem: outside_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert found.keys() >= {"cli", "exact", "padic", "roots", "siegel", "solver"}
    assert {module: names for module, names in found.items() if names} == {}
