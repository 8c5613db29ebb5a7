"""No name the benchmark's tracer wraps is used as a type in the package.

``bench/spans.py`` replaces every binding of the names it traces (the
validated constructors, ``classify``, ``enumerate_z_components``, every
function of ``scroll``, ``series``, ``oracle`` and ``projections``, and each
other name of the same objects) with a wrapper function.  Under the tracer,
such a name as the class of ``tuple.__new__`` or the class argument of
``isinstance`` or ``issubclass`` is a function, and the traced run fails.
Reads ``bench/spans.py`` and the package's source."""

from __future__ import annotations

import ast
import importlib
import importlib.util

from test_bench_records import ROOT
from test_validation_sites import SRC


def _wrapped_names() -> set[str]:
    """Every name the tracer binds to a wrapper in a module of the package
    (it wraps the modules that are loaded; the CLI loads every one)."""
    importlib.import_module("scrollhilb.cli")
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        return {attr for _, attr, _ in tracer._patches}
    finally:
        tracer.uninstall()


def _name(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _used_as_types(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of each class argument of a ``tuple.__new__``,
    ``isinstance`` or ``issubclass`` call; a tuple of classes gives each."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "__new__"
                and _name(func.value) == "tuple" and node.args):
            classes = node.args[0]
        elif _name(func) in ("isinstance", "issubclass") and len(node.args) == 2:
            classes = node.args[1]
        else:
            continue
        for cls in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
            found.append((_name(cls), cls.lineno))
    return found


def test_no_wrapped_name_is_used_as_a_type():
    wrapped = _wrapped_names()
    # the set is the tracer's: its constructors and whole modules are in it
    assert {"ScrollParams", "GonalParams", "make_scroll", "_degree_threshold",
            "_parameter_count"} <= wrapped
    misuses = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
               for name, line in _used_as_types(ast.parse(path.read_text()))
               if name in wrapped]
    assert misuses == []
