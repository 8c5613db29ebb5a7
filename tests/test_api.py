"""The public surface: which parameters it takes, which of its functions
neither the CLI nor ``bench/`` reaches and why each stays, and the
README's example, table of records, table of error codes, note codes and CLI
examples.  That each derived value of a record in the table has a docstring
is checked, with the rest of what a derived value is, in
``test_records.py``."""

from __future__ import annotations

import ast
import importlib
import inspect
import io
import re
from pathlib import Path

import scrollhilb
from scrollhilb.cli import run
from scrollhilb.components import _NOTE_TEXT
from test_validation_sites import SRC, _raised_codes

README = Path(__file__).resolve().parents[1] / "README.md"
BENCH = README.parent / "bench"

# exported functions that neither the CLI nor bench/ reaches, each with the
# reason it stays public
UNCALLED = {
    "min_degree_threshold": "the public form of the degree rule (scroll._degree_threshold)",
    "sublocus_codim_h1_1": "the checked form of the speciality-1 sublocus codimension "
                           "(components._sublocus_codim, which classify calls)",
    "stability_class": "the checked form of scroll._bundle_class, also outside the "
                       "general-moduli range (aut_dimension)",
    "clifford_index_general": "the Clifford index in the Clifford-index form of the "
                              "threshold (section_uniqueness_threshold)",
    "section_uniqueness_threshold": "the Clifford-index form of the threshold, the second "
                                    "form kept as a check (criterion 07, certificates)",
    "brill_noether_rho": "the series form of the Brill-Noether number (criterion 06, "
                         "certificate rho)",
    "rho_of_bundle": "the bundle form of the Brill-Noether number (certificate rho)",
    "normal_bundle_cohomology": "the normal bundle's cohomology (criterion 08)",
    "component_dimension_h1_1": "the speciality-1 dimension in closed form (criterion 02)",
    "max_special_degree": "mbar for every 0 < h1 < g, which test_check_order.py holds "
                          "the inline mbar of series._section_degree_range to",
    "aut_dimension": "the scroll's stabilizer, for the oracle's stabilizer to be checked "
                     "against (ROADMAP)",
}


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


def _loads(node: ast.AST) -> set[str]:
    """The names and attribute names that ``node`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _reached_names() -> set[str]:
    """The names read by ``bench/`` and by every module-level statement of the
    package (``cli.main`` among them), then, transitively, by the body of each
    top-level function or class of the package whose name has been read.  A
    read inside a function that nothing reaches is no call."""
    reached = set().union(*(_loads(ast.parse(path.read_text())) for path in BENCH.glob("*.py")))
    bodies: dict[str, set[str]] = {}
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, set()).update(_loads(stmt))
            else:
                reached |= _loads(stmt)
    todo = list(reached)
    while todo:
        for name in bodies.pop(todo.pop(), ()):
            if name not in reached:
                reached.add(name)
                todo.append(name)
    return reached


def test_every_public_function_has_a_caller_or_a_reason():
    public = {name for name, fn in vars(scrollhilb).items()
              if not name.startswith("_") and inspect.isfunction(fn)}
    assert sorted(public - _reached_names()) == sorted(UNCALLED)


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
    assert len(rows) == 8
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
    assert len(table) == len(set(table)) == 18
    assert set(table) == set(library)
    # the CLI's own codes, in the exit-code bullet
    bullet = text.split("* Exit codes:", 1)[1].split("\n* ", 1)[0]
    cli_codes = set(_raised_codes([SRC / "cli.py"]))
    assert cli_codes == {"malformed-range", "malformed-degree-policy",
                         "missing-flags", "conflicting-flags"}
    assert [code for code in sorted(cli_codes) if f"`{code}`" not in bullet] == []


def test_readme_lists_every_note_code():
    # the backticked codes after the colon of each bullet on where a note sits
    bullets = re.search(r"where its statement belongs:\n\n(.*?)\n\n", README.read_text(),
                        re.DOTALL).group(1)
    codes = [code for bullet in bullets.split("\n* ")
             for code in re.findall(r"`([a-z]+(?:-[a-z]+)*)`", bullet.split(":", 1)[1])]
    assert sorted(codes) == sorted(_NOTE_TEXT)


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
