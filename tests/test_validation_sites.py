"""Each hypothesis is checked in one place.

The codes below were once raised from several functions at once; each now
has one helper, and a second ``InvalidParameters(code, ...)`` for one of them
would be a new copy of its check.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import scrollhilb

SRC = Path(scrollhilb.__file__).resolve().parent

SINGLE_SITE_CODES = (
    "degree-below-threshold",
    "speciality-out-of-range",
    "not-a-section",
    "nonnegative-self-intersection",
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _raised_codes() -> Counter:
    """Literal first arguments of every ``InvalidParameters(...)`` call."""
    codes: Counter = Counter()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "InvalidParameters"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                codes[node.args[0].value] += 1
    return codes


def test_each_guarded_code_has_one_raise_site():
    codes = _raised_codes()
    assert {code: codes[code] for code in SINGLE_SITE_CODES} == dict.fromkeys(
        SINGLE_SITE_CODES, 1
    )


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


class _FourTimesComparisons(ast.NodeVisitor):
    """Dotted names of the functions holding a comparison against ``4 * x``."""

    def __init__(self, module: str):
        self.scope = [module]
        self.sites: list[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(_is_four_times_a_name(x) for x in (node.left, *node.comparators)):
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def test_general_moduli_condition_is_stated_once():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _FourTimesComparisons(path.stem)
        visitor.visit(_tree(path))
        sites += visitor.sites
    assert sites == ["series._has_general_moduli"]


def test_scan_catches_nothing():
    # cmd_scan, and the cell walk whose __iter__ yields the rows
    tree = _tree(SRC / "cli.py")
    (scan,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "cmd_scan"]
    (walk,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_CellWalk"]
    assert [n for n in walk.body if isinstance(n, ast.FunctionDef) and n.name == "__iter__"]
    for fn in (scan, walk):
        assert not [node for node in ast.walk(fn) if isinstance(node, ast.Try)]
