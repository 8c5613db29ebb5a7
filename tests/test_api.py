"""The public surface: which parameters it takes, and the README's example,
table of records, table of error codes and CLI examples.  That each derived
value of a record in the table has a docstring is checked, with the rest of
what a derived value is, in ``test_records.py``."""

from __future__ import annotations

import ast
import importlib
import inspect
import io
import re
from pathlib import Path

import scrollhilb
from scrollhilb.cli import run
from test_validation_sites import SRC, _raised_codes

README = Path(__file__).resolve().parents[1] / "README.md"


def _bool_parameters() -> list[str]:
    found = []
    for name in sorted(dir(scrollhilb)):
        fn = getattr(scrollhilb, name)
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        for param in inspect.signature(fn).parameters.values():
            if param.annotation in (bool, "bool") or isinstance(param.default, bool):
                found.append(f"{name}({param.name})")
    return found


def test_the_only_flag_is_classify_include_gonal():
    # every other choice is fixed by the hypotheses or derived from the inputs
    assert _bool_parameters() == ["classify(include_gonal)"]


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library") :]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    source = _library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = "\n".join(lines[stmt.lineno - 1 : stmt.end_lineno])
        comment = re.search(r"#\s*(-?\d+)\s*$", lines[stmt.end_lineno - 1])
        if isinstance(stmt, ast.Expr) and comment:
            checked.append((int(comment.group(1)), eval(code, namespace)))
        else:
            exec(code, namespace)
    assert [got for _, got in checked] == [want for want, _ in checked]
    assert len(checked) == 3  # 56, 56 and 6253


def _readme_records() -> list[tuple[str, str]]:
    """The (record, fields) rows of the README's table of records."""
    section = README.read_text().split("## Library", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", section, re.MULTILINE)


def test_readme_record_table_lists_each_record_s_fields():
    rows = _readme_records()
    assert len(rows) == 10
    for name, fields in rows:
        assert fields == ", ".join(getattr(scrollhilb, name)._fields), name


def _readme_error_table() -> list[tuple[str, str, str]]:
    """The (code, rejected when, raised by) rows of the README's table of
    error codes."""
    return re.findall(r"^\| (?:\d+ )?\| `([\w-]+)` \| (.*) \| (.*) \|$",
                      README.read_text(), re.MULTILINE)


def test_readme_lists_every_error_code():
    text = README.read_text()
    table = [code for code, _, _ in _readme_error_table()]
    library = _raised_codes([path for path in SRC.glob("*.py") if path.name != "cli.py"])
    assert len(table) == len(set(table)) == 21
    assert set(table) == set(library)
    # the CLI's own codes, in the exit-code bullet
    bullet = text.split("* Exit codes:", 1)[1].split("\n* ", 1)[0]
    cli_codes = set(_raised_codes([SRC / "cli.py"]))
    assert cli_codes == {"malformed-range", "malformed-degree-policy",
                         "missing-flags", "conflicting-flags"}
    assert [code for code in sorted(cli_codes) if f"`{code}`" not in bullet] == []


def test_every_name_the_readme_error_table_cites_resolves():
    # a bare name is a package export, a dotted one an attribute of its module
    unresolved = []
    for code, *cells in _readme_error_table():
        for cited in re.findall(r"`([^`]*)`", " ".join(cells)):
            name = re.fullmatch(r"([\w.]+)(?:\(.*\))?", cited).group(1)
            module, _, attr = name.rpartition(".")
            owner = importlib.import_module(f"scrollhilb.{module}") if module else scrollhilb
            if not hasattr(owner, attr):
                unresolved.append((code, cited))
    assert unresolved == []


def test_readme_cli_examples_exit_0():
    section = README.read_text().split("## CLI", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    assert len(lines) == 7
    for line in lines:
        prog, *argv = line.split()
        assert prog == "scrollhilb"
        out, err = io.StringIO(), io.StringIO()
        assert (run(argv, out, err), err.getvalue()) == (0, ""), line
        assert out.getvalue(), line
