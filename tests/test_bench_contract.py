"""The benchmark's contract with the library, read from perfbench/'s source.

perfbench/workloads.py imports its job bodies from the package, and
perfbench/run.py reads per-layer counters by span name ("layer.function")
from the tracer's calls and raised tables, which hold only the public
functions the tracer wraps. A name the library drops would otherwise surface
only as an ImportError in the bench, or a KeyError in its traced run, and a
keyword it renames as a TypeError. The files are parsed, never imported or
changed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import surfrep
from surfrep import cli, cohomology, reports
from surfrep.groups import LieGroupModel

# the module itself: the package exports a function of the same name
holonomy_module = importlib.import_module("surfrep.holonomy")
BENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = ("words", "groups", "holonomy", "cohomology", "reduction")


def parse(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def is_table(node):
    """calls / raised, by name or as summary["calls"] / summary["raised"]."""
    if isinstance(node, ast.Name):
        return node.id in ("calls", "raised")
    return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and node.slice.value in ("calls", "raised"))


def traced_keys():
    """Span names run.py reads from the tables, and tracer.py looks up by index."""
    keys = set()
    for name in ("run.py", "tracer.py"):
        for node in ast.walk(parse(name)):
            if isinstance(node, ast.Subscript) and is_table(node.value):
                key = node.slice
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "index" and node.args):
                key = node.args[0]
            else:
                continue
            if isinstance(key, ast.Constant) and isinstance(key.value, str) and "." in key.value:
                keys.add(key.value)
    return keys


def test_every_name_the_workloads_import_is_exported():
    names = [alias.name for node in ast.walk(parse("workloads.py"))
             if isinstance(node, ast.ImportFrom) and node.module == "surfrep"
             for alias in node.names]
    assert len(names) > 10
    missing = [n for n in names if n not in surfrep.__all__ or not hasattr(surfrep, n)]
    assert not missing, missing


def test_every_keyword_the_workloads_pass_is_a_parameter():
    imported = {alias.name for node in ast.walk(parse("workloads.py"))
                if isinstance(node, ast.ImportFrom) and node.module == "surfrep"
                for alias in node.names}
    passed = {(node.func.id, kw.arg) for node in ast.walk(parse("workloads.py"))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in imported for kw in node.keywords}
    assert {("sample_cone_directions", "eps"), ("holonomy_derivative_fd", "s"),
            ("sample_zero_locus", "method"), ("newton_project_to_variety", "max_iter")} <= passed
    missing = [(name, arg) for name, arg in sorted(passed)
               if arg not in inspect.signature(getattr(surfrep, name)).parameters]
    assert not missing, missing


def test_the_tracer_reads_the_fox_word_by_its_parameter_name():
    # tracer.py counts fox_derivative's letters from args[0] or kwargs["w"]
    keys = [node.slice.value for node in ast.walk(parse("tracer.py"))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "kwargs" and isinstance(node.slice, ast.Constant)]
    assert keys == ["w"]
    assert next(iter(inspect.signature(surfrep.fox_derivative).parameters)) == "w"


def test_every_traced_key_names_a_wrapped_function():
    keys = traced_keys()
    assert "groups.Ad_matrix" in keys and "cohomology.build_complex" in keys
    missing = []
    for key in sorted(keys):
        layer, attr = key.split(".")
        assert layer in LAYERS, key
        if layer == "groups":
            obj = vars(LieGroupModel).get(attr)
            ok = inspect.isfunction(obj)
        else:
            module = importlib.import_module(f"surfrep.{layer}")
            obj = vars(module).get(attr)
            ok = inspect.isfunction(obj) and obj.__module__ == module.__name__
        if attr.startswith("_") or not ok:
            missing.append(key)
    assert not missing, missing


def test_the_bench_cone_step_is_the_library_step():
    # workloads.py keeps its own CONE_EPS literal; if the library's step moved,
    # the bench would go on timing the old one
    steps = [node.value.value for node in ast.walk(parse("workloads.py"))
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
             and any(isinstance(t, ast.Name) and t.id == "CONE_EPS" for t in node.targets)]
    assert steps == [cohomology.CONE_EPS]


def bench_literal(name):
    """The values of workloads.py's module-level assignments `name = <literal>`."""
    return [node.value.value for node in parse("workloads.py").body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)]


@pytest.mark.parametrize("name, value", [
    ("HOL_TOL", holonomy_module.TRANSPORT_TOL),
    ("FD_STEP", holonomy_module.FD_STEP),
    ("CONE_SUCCESS_MIN", reports.CONE_SUCCESS_MIN),
    ("DEFECT_TOL", cli.OPTIONS["defect_tol"][2]),
    ("Q_MAX", reports.Q_MAX),
    ("CLOSED_FORM_MAX", reports.CLOSED_FORM_MAX),
    ("FD_GAP_MAX", reports.FD_GAP_MAX),
    ("GAUGE_MAX", reports.GAUGE_MAX),
])
def test_the_bench_literals_are_the_library_values(name, value):
    # workloads.py restates these; if the library's value moved, the bench
    # would go on timing or gating on the old one
    assert bench_literal(name) == [value]
