"""The latmass entry points the perfbench harness patches and calls.

perfbench is not imported: its tracer's patch list is read from the source
with ast, so a renamed or removed entry point fails here rather than in a
benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from latmass import padic, reduction, roots, siegel, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

pytestmark = pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench directory")


def tracer_patches():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py has no PATCHES")


def test_patched_names_exist():
    patches = tracer_patches()
    assert patches
    for module, attribute, _ in patches:
        fn = getattr(importlib.import_module(f"latmass.{module}"), attribute, None)
        assert callable(fn), (module, attribute)


def test_counted_caches():
    for fn in (padic.local_invariants, siegel.f_polynomial):
        assert callable(fn.cache_info), fn


def test_keywords_the_workloads_pass():
    for fn, keywords in [
        (solver.solve_masses, {"workers", "progress"}),
        (roots.enumerate_systems, {"dim", "filters"}),
        (reduction.class_lower_bound, {"even_tables"}),
    ]:
        assert keywords <= inspect.signature(fn).parameters.keys(), fn.__name__
