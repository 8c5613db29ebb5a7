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
