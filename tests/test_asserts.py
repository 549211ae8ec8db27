"""No module of the package has an `assert` statement, an import from
outside the standard library, or a top-level function, class or global that
nothing uses.

An assert vanishes under python -O, so a check that guards a result is a
raise instead.  The package has no runtime dependencies.
"""

import ast
import sys
from pathlib import Path

import latmass

PACKAGE = Path(latmass.__file__).parent
REPO = Path(__file__).resolve().parents[1]


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


def top_level_definitions(path: Path) -> list[str]:
    """The functions, classes and assigned globals of a module, dunder
    names such as __version__ aside."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def referenced_names(path: Path) -> set[str]:
    """Names a module reads, as a name or an attribute, or spells as a
    string (the benchmark's tracer patches functions named in string
    constants, and tests patch globals by name).  A store is no use, so a
    global that is only assigned counts as unreferenced."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_no_unreferenced_definitions():
    used = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((REPO / top).rglob("*.py")):
            used |= referenced_names(path)
    defined = {path.stem: top_level_definitions(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert defined.keys() >= {"cli", "exact", "padic", "roots", "siegel", "solver"}
    unused = {f"{module}.{name}" for module, names in defined.items() for name in names if name not in used}
    assert unused == set()
