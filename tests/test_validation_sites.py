"""Each hypothesis is checked in one place.

``RAISE_SITES`` names every function that builds an ``InvalidParameters``,
by code.  A code with one site is checked once; the codes with two or more
sites are the rules the README and the ``errors`` docstring list, each with
its reason.  The five guarded codes were once raised from several functions
at once; each now has one helper, and a second site for one of them would
be a new copy of its check.

No module of the package or of the tests imports a name it never reads.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import scrollhilb

SRC = Path(scrollhilb.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

GUARDED_CODES = (
    "degree-below-threshold",
    "speciality-out-of-range",
    "not-a-section",
    "nonnegative-self-intersection",
    "m-out-of-range",
)

# code -> the sorted ``module.qualname`` of each InvalidParameters(code, ...):
# 30 sites of 22 codes
RAISE_SITES = {
    "BN1-violated": ("series._section_degree_range",),
    "conflicting-flags": ("cli.cmd_gonal",),
    "degree-below-threshold": ("scroll._degree_threshold",),
    "degree-too-small": ("gonal._z_gate", "scroll._require_scroll"),
    "genus-too-small": (
        "scroll._require_scroll",
        "scroll.general_moduli_threshold",
        "series.clifford_index_general",
        "series.gonality_general",
    ),
    "gonality-out-of-range": ("gonal._require_pencil_degree", "gonal._z_gate"),
    "k-out-of-range": ("projections.ProjectionParams.__new__",),
    "l-out-of-range": ("gonal._z_gate", "gonal.rem19608_family"),
    "m-not-below-canonical": ("components.sublocus_codim_h1_1",),
    "m-out-of-range": ("series._section_degree_range",),
    "malformed-degree-policy": ("cli._parse_degree_policy",),
    "malformed-range": ("cli._parse_range", "cli._parse_range"),
    "missing-flags": ("cli.cmd_gonal",),
    "negative-basepoints": ("scroll.normal_bundle_cohomology",),
    "negative-h1": ("scroll.normal_bundle_cohomology",),
    "no-valid-a": ("gonal.ballico_a",),
    "nonnegative-self-intersection": ("scroll._require_section",),
    "not-a-section": ("scroll._require_section",),
    "not-proper-gonal-locus": ("gonal.gonal_locus_dimension",),
    "not-very-ample": ("gonal._z_gate",),
    "projection-case-out-of-scope": (
        "projections.y_vs_nonspecial_difference",
        "projections.y_vs_target_difference",
    ),
    "speciality-out-of-range": ("series._require_speciality",),
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


class _Scoped(ast.NodeVisitor):
    """Collects ``sites`` in a module, each tagged with ``where``, the dotted
    ``module.qualname`` of the function or class it sits in."""

    def __init__(self, module: str):
        self.scope = [module]
        self.sites: list = []

    @property
    def where(self) -> str:
        return ".".join(self.scope)

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    @classmethod
    def collect(cls, paths=None) -> list:
        """The sites of every module in ``paths`` (every module of the
        package by default), in path order."""
        sites = []
        for path in sorted(SRC.glob("*.py")) if paths is None else paths:
            visitor = cls(path.stem)
            visitor.visit(_tree(path))
            sites += visitor.sites
        return sites


class _RaiseSites(_Scoped):
    """``(code, where)`` of each ``InvalidParameters(code, ...)`` call with a
    literal code."""

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "InvalidParameters"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            self.sites.append((node.args[0].value, self.where))
        self.generic_visit(node)


def _raised_codes(paths=None) -> Counter:
    """Literal first arguments of every ``InvalidParameters(...)`` call in
    ``paths`` (every module of the package by default)."""
    return Counter(code for code, _ in _RaiseSites.collect(paths))


def test_each_guarded_code_has_one_raise_site():
    by_code: dict[str, list[str]] = {}
    for code, site in _RaiseSites.collect():
        by_code.setdefault(code, []).append(site)
    assert {code: tuple(sorted(sites)) for code, sites in by_code.items()} == RAISE_SITES
    assert [code for code in GUARDED_CODES if len(RAISE_SITES[code]) != 1] == []


def test_components_catches_no_invalid_parameters():
    handlers = [
        ast.unparse(node.type)
        for node in ast.walk(_tree(SRC / "components.py"))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
    ]
    assert not [h for h in handlers if "InvalidParameters" in h]


def _is_four_times_a_name(node: ast.AST) -> bool:
    """``4 * x`` or ``x * 4`` with ``x`` a name or an attribute."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    for four, x in ((node.left, node.right), (node.right, node.left)):
        if (
            isinstance(four, ast.Constant)
            and four.value == 4
            and isinstance(x, (ast.Name, ast.Attribute))
        ):
            return True
    return False


class _FourTimesComparisons(_Scoped):
    """Where each comparison against ``4 * x`` sits."""

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(_is_four_times_a_name(x) for x in (node.left, *node.comparators)):
            self.sites.append(self.where)
        self.generic_visit(node)


def test_general_moduli_condition_is_stated_once():
    assert _FourTimesComparisons.collect() == ["series._has_general_moduli"]


def _calls(node: ast.AST, callee: str) -> bool:
    """Whether ``node`` holds a call of the bare name ``callee``."""
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == callee
               for n in ast.walk(node))


def test_the_gates_of_a_gonal_component_are_stated_once():
    # GonalParams raises what _z_gate returns, and the walk over t asks the
    # same gate: beyond the genus floor it compares nothing of its own
    (walk,) = [n for n in _tree(SRC / "gonal.py").body
               if isinstance(n, ast.FunctionDef) and n.name == "enumerate_z_components"]
    comparisons = [ast.unparse(n) for n in ast.walk(walk) if isinstance(n, ast.Compare)]
    assert comparisons == ["g < 3", "_z_gate(g, t, l, d, gamma) is not None"]
    # nor does classify test the speciality before it asks the walk: _z_gate
    # rejects l < 2
    (classify,) = [n for n in _tree(SRC / "components.py").body
                   if isinstance(n, ast.FunctionDef) and n.name == "classify"]
    tests = [ast.unparse(n.test) for n in ast.walk(classify)
             if isinstance(n, (ast.If, ast.IfExp, ast.While))
             and _calls(n, "enumerate_z_components")]
    assert tests == ["include_gonal"]


def test_scan_catches_nothing():
    # cmd_scan, the cell iterable whose __iter__ yields the rows, and the
    # walk over the grid's cells that it classifies
    tree = _tree(SRC / "cli.py")
    (scan,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "cmd_scan"]
    (rows,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_CellWalk"]
    assert [n for n in rows.body if isinstance(n, ast.FunctionDef) and n.name == "__iter__"]
    (cells,) = [n for n in _tree(SRC / "components.py").body
                if isinstance(n, ast.FunctionDef) and n.name == "_scan_cells"]
    for fn in (scan, rows, cells):
        assert not [node for node in ast.walk(fn) if isinstance(node, ast.Try)]


def _unread_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads; ``from __future__``
    imports compiler features, not names."""
    tree = _tree(path)
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
                for alias in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # the package's __init__ imports what it exports
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    unread = {path.name: names for path in paths + sorted(TESTS.glob("*.py"))
              if (names := _unread_imports(path))}
    assert unread == {}
