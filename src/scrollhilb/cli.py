"""Command-line front end.

Subcommands:

* ``classify`` -- component list for one (d, g, h1)
* ``scan``     -- grid scan over genus/speciality ranges with a degree policy
* ``gonal``    -- gonal-curve component record, or the minimal g = 3l + 4 family
* ``project``  -- projected-family dimension bounds and the divisor case

Exit codes: 0 success, 2 invalid input (diagnostic on stderr), 3 internal
cross-check failure under ``--verify``, 141 when the reader of stdout closes
it early (as a shell reports death by SIGPIPE), 1 reserved for unexpected
faults.  Output is byte-deterministic: same flags, same bytes.

Component rows are written straight from the ``ComponentRecord`` of each
component: a JSON row fills the template of its kind, in which the values
the kind fixes are already text, and a CSV row goes through one fixed
encoder per column; a note, in either format, fills the template of its
code (already JSON text for JSON) with its integers, so nothing sits
between a record and its bytes.  ``scan`` classifies, verifies and writes
one cell at a time, so its memory does not grow with the grid; which cells
it visits, and every bound of that walk, is stated once, in
``components._scan_cells``.  When it fails on a cell (exit 2 or 3), stdout
holds the rows of the cells before that cell and is left unterminated: a
JSON document without its closing brackets.  The other commands write
nothing to stdout before a failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
from contextlib import redirect_stderr, redirect_stdout
from json.encoder import encode_basestring_ascii as _json_str

from . import components as comp
from . import gonal as gonalmod
from . import oracle
from . import projections as proj
from .errors import InvalidParameters
from .scroll import BundleClass, ScrollParams, _degree_threshold
from .series import _has_general_moduli

COMPONENT_COLUMNS = [
    "kind", "d", "g", "h1", "m", "t", "l", "dim",
    "generically_smooth", "bundle_class", "notes",
]


def _json_text(value) -> str:
    """The JSON text of None, a bool or an enum member (its value)."""
    return json.dumps(getattr(value, "value", value))


# The text of each value the bundle_class column takes in JSON, and of each
# value the kind, generically_smooth and bundle_class columns take in CSV,
# keyed by identity: these values are singletons, and hashing an Enum member
# is a Python-level call.  In CSV an absent value is an empty cell (not zero)
# and a boolean is true/false.
_ENUMS = [*comp.ComponentKind, *BundleClass]
_JSON_TEXT = {id(v): _json_text(v) for v in [None, *BundleClass]}
_CSV_TEXT = {id(None): "", id(True): "true", id(False): "false",
             **{id(v): v.value for v in _ENUMS}}


def _csv_cells(rec: comp.ComponentRecord) -> list:
    """The cells of one component row; csv.writer writes an int in decimal
    and None (no t or l) as an empty cell, the notes are joined by "; "."""
    return [
        _CSV_TEXT[id(rec.kind)], rec.d, rec.g, rec.h1, rec.m, rec.t, rec.l, rec.dim,
        _CSV_TEXT[id(rec.generically_smooth)], _CSV_TEXT[id(rec.bundle_class)],
        "; ".join([comp._NOTE_TEXT[code] % args for code, args in rec.notes]),
    ]


def _emit_csv(stdout, columns: list[str], rows: Iterable) -> None:
    """Write a header and one line per row: ``rows`` holds component records
    when ``columns`` is ``COMPONENT_COLUMNS``, and dicts keyed by ``columns``
    otherwise."""
    writer = csv.writer(stdout)  # RFC-4180 quoting and CRLF line ends
    writer.writerow(columns)
    if columns is COMPONENT_COLUMNS:
        writer.writerows(map(_csv_cells, rows))
    else:
        writer.writerows([_CSV_TEXT.get(id(row[c]), row[c]) for c in columns] for row in rows)


def _json_row_template(**fixed) -> str:
    """One component row, after the separator from the row before it, as
    json.dumps(doc, indent=2) lays it out in the row list of a top-level
    object: each column named in ``fixed`` holds the JSON text of its value,
    every other column a %s."""
    cells = [f'"{c}": {_json_text(fixed[c]) if c in fixed else "%s"}' for c in COMPONENT_COLUMNS]
    return "%s    {\n      " + ",\n      ".join(cells) + "\n    }"


# the row of each ComponentKind, with the values its kind fixes
_GENERAL_ROW = _json_row_template(
    kind=comp.ComponentKind.GENERAL_MODULI, t=None, l=None, generically_smooth=True)
_GONAL_ROW = _json_row_template(kind=comp.ComponentKind.GONAL, generically_smooth=None)
_ROW_LISTS = ("rows", "components")  # the keys whose lists hold component rows
# the JSON text of each note's template: encoding leaves each %d as it is,
# and an int fills it with ASCII digits and '-' alone, which need no escape
_NOTE_JSON = {code: _json_str(text) for code, text in comp._NOTE_TEXT.items()}


def _json_row(sep: str, rec: comp.ComponentRecord) -> str:
    """The JSON row of one component record, after ``sep``, from the template
    of its kind, which its ``t`` decides as ``ComponentRecord.kind`` does (a
    general-moduli row has "t": null); ints format as themselves under
    ``%s``, a gonal row's l is its h1, and each note fills the JSON template
    of its code."""
    d, g, h1, m, dim, bundle_class, t, notes = rec
    texts = [_NOTE_JSON[code] % args for code, args in notes]
    notes = "[\n        " + ",\n        ".join(texts) + "\n      ]" if texts else "[]"
    if t is None:
        return _GENERAL_ROW % (sep, d, g, h1, m, dim, _JSON_TEXT[id(bundle_class)], notes)
    return _GONAL_ROW % (sep, d, g, h1, m, t, h1, dim, _JSON_TEXT[id(bundle_class)], notes)


def _emit_json(stdout, doc: dict) -> None:
    """Write the bytes of ``json.dumps(doc, indent=2)`` and a newline, where
    the component records under "rows" and "components" stand for their rows
    (the dicts keyed by ``COMPONENT_COLUMNS``, notes as a list of texts).
    Those records may come from any iterable, a one-shot generator included;
    each row is rendered from the template of its kind and written as it
    comes, so when the iterable raises, stdout ends after the last whole row.
    Every other value goes through ``json.dumps``, indented one level (JSON
    strings hold no raw newline)."""
    write = stdout.write
    sep = "{\n  "
    for key, value in doc.items():
        write(f"{sep}{_json_str(key)}: ")
        sep = ",\n  "
        if key not in _ROW_LISTS:
            write(json.dumps(value, indent=2).replace("\n", "\n  "))
            continue
        row_sep = "[\n"
        for rec in value:
            write(_json_row(row_sep, rec))
            row_sep = ",\n"
        write("\n  ]" if row_sep == ",\n" else "[]")
    write("\n}\n")


def _report_doc(report: comp.ClassificationReport) -> dict:
    p = report.params
    return {
        "params": {"d": p.d, "g": p.g, "h1": p.h1, "R": p.R},
        "components": report.components,
        "reducible": report.reducible,
        "equidimensional": report.equidimensional,
        "complete": report.complete,
        "notes": [{"code": n.code, "text": n.text} for n in report.notes],
    }


class _VerifyMismatch(Exception):
    """A closed form disagreed with the parameter-count oracle: ``run`` writes
    the message (one line per disagreement) to stderr and exits 3."""


def _verify_report(report: comp.ClassificationReport) -> None:
    """Check a report against the parameter-count oracle.  Once per report:
    d against the degree threshold, and the section degrees of the
    general-moduli records against the admissible degrees of (g, h1)
    (``admissible_m_range``, or its last degree alone at h1 = 1), exactly,
    so a missing or repeated degree fails as an out-of-range one does; such
    a failure is one line of counts and range ends.  Then per record: a
    general-moduli dim against ``oracle._parameter_count``, the count
    ``dim_via_parameter_count`` returns after its checks, and a gonal dim
    against ``z_dim_via_parameter_count`` of its (g, t, l, d)."""
    d, g, h1 = report.params
    _degree_threshold(g, h1, d)
    degrees = comp.admissible_m_range(g, h1)
    if h1 == 1:
        degrees = degrees[-1:]
    general = [rec.m for rec in report.components if rec.t is None]
    if general != [*degrees]:
        held = f", m in [{min(general)}, {max(general)}]" if general else ""
        raise _VerifyMismatch(
            f"verify: section degrees at (d={d}, g={g}, h1={h1}): general-moduli records "
            f"{len(general)}{held}; admissible degrees {len(degrees)}, "
            f"m in [{degrees[0]}, {degrees[-1]}]\n"
        )
    mismatches = []
    for rec in report.components:
        if rec.t is None:
            check = oracle._parameter_count(d, g, h1, rec.m)
        else:
            gp = gonalmod.GonalParams(rec.g, rec.t, rec.h1, rec.d)
            check = oracle.z_dim_via_parameter_count(gp)
        if check != rec.dim:
            mismatches.append(
                f"verify: mismatch at (d={rec.d}, g={rec.g}, h1={rec.h1}, "
                f"m={rec.m}): closed form {rec.dim}, parameter count {check}\n"
            )
    if mismatches:
        raise _VerifyMismatch("".join(mismatches))


def _int(token: str) -> int:
    """The value of an optional '-' and at most 2,000 ASCII digits; any other
    token (a '+', a space, an underscore, a non-ASCII digit, more digits)
    raises int()'s error.  The grammar bounds input, work and output: every
    integer the CLI prints is at most quadratic in its inputs, so each
    printed one stays near 4,001 digits, below CPython's default limit of
    4,300 for int-to-str conversion.  ``main`` lifts that limit, so a lower
    one (``-X int_max_str_digits``, ``PYTHONINTMAXSTRDIGITS``) changes no
    output."""
    if not re.fullmatch("-?[0-9]{1,2000}", token):
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def _int_flag(token: str) -> int:
    """The argparse type of every integer flag: ``_int``'s grammar, and on
    any other token the line argparse writes for an int flag."""
    try:
        return _int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


def _parse_range(text: str) -> range:
    """The integers of 'A..B' (inclusive) or 'A'; rejects a malformed or empty range."""
    try:
        lo, hi = map(_int, text.split("..", 1)) if ".." in text else (_int(text),) * 2
    except ValueError as exc:
        raise InvalidParameters("malformed-range", str(exc)) from None
    if lo > hi:
        raise InvalidParameters("malformed-range", f"empty range {text}")
    return range(lo, hi + 1)


def _parse_degree_policy(policy: str) -> tuple[int | None, list[int]]:
    """(threshold offset, []) for 'min' or '+K', else (None, sorted degrees)."""
    try:
        if policy == "min":
            return 0, []
        if policy.startswith("+"):
            return _int(policy[1:]), []
        return None, sorted({_int(s) for s in policy.split(",")})
    except ValueError as exc:
        raise InvalidParameters("malformed-degree-policy", str(exc)) from None


def cmd_classify(args) -> dict:
    p = ScrollParams(args.d, args.g, args.h1)
    report = comp.classify(p, include_gonal=args.gonal)
    if args.verify:
        _verify_report(report)
    return _report_doc(report)


def cmd_scan(args) -> dict:
    genera, specialities = _parse_range(args.g), _parse_range(args.h1)
    cells = comp._scan_cells(genera, specialities, *_parse_degree_policy(args.d))
    return {"rows": _CellWalk(cells, args.gonal, args.verify)}


class _CellWalk:
    """The component records of a scan's cells (read once, as they come
    from ``components._scan_cells``), one cell at a time: a cell is
    classified and verified when the writer asks for its records.  ``len``
    is the number of records yielded so far, counted after each cell (the
    benchmark's tracer reads it after the write)."""

    def __init__(self, cells: Iterable[ScrollParams], gonal: bool, verify: bool):
        self._cells, self._gonal, self._verify, self._count = cells, gonal, verify, 0

    def __iter__(self) -> Iterator[comp.ComponentRecord]:
        for p in self._cells:
            report = comp.classify(p, include_gonal=self._gonal)
            if self._verify:
                _verify_report(report)
            yield from report.components
            self._count += len(report.components)

    def __len__(self) -> int:
        return self._count


def cmd_gonal(args) -> dict:
    given = [k for k in ("g", "t", "d") if getattr(args, k) is not None]
    if args.family_19608:
        if given:
            raise InvalidParameters(
                "conflicting-flags", f"--{' --'.join(given)} not allowed with --family-19608"
            )
        gp = gonalmod.rem19608_family(args.l)
    else:
        missing = [k for k in ("g", "t", "d") if k not in given]
        if missing:
            raise InvalidParameters("missing-flags", f"--{' --'.join(missing)} required")
        gp = gonalmod.GonalParams(g=args.g, t=args.t, l=args.l, d=args.d)

    dim_z = gonalmod.z_component_dimension(gp)
    dim_h = gonalmod.h_component_dimension_at_gonal_m(gp)
    diff = gonalmod.z_vs_h_difference(gp)
    kk_equality = gonalmod.kk_margin(gp.g, gp.t, gp.l) == 0
    record = {
        **gp._asdict(),  # g, t, l, d
        "a": gp.a,
        "m": gp.m,
        "R": gp.R,
        "gonal_locus_dim": gonalmod.gonal_locus_dimension(gp.g, gp.t),
        "dim_z": dim_z,
        "dim_h_formula": dim_h,
        "h_component_exists": _has_general_moduli(gp.g, gp.l),
        "difference": diff,
        "kk_equality": kk_equality,
        "equidimensional_with_general_moduli": (diff == 0) if gp.l == 2 else None,
        "not_contained_in_general_moduli": (diff >= 0) if gp.l >= 3 else None,
        "family_19608": bool(args.family_19608),
    }

    if args.verify:
        check = oracle.z_dim_via_parameter_count(gp)
        if check != dim_z:
            raise _VerifyMismatch(
                f"verify: mismatch at Z(t={gp.t}, l={gp.l}): closed form "
                f"{dim_z}, parameter count {check}\n"
            )
    return record


def cmd_project(args) -> dict:
    pp = proj.ProjectionParams(d=args.d, g=args.g, l=args.l, k=args.k, m=args.m)
    y_lb = proj.y_dim_lower_bound(pp)
    is_divisor = pp.l == 1 and pp.k == 0 and pp.m == 2 * pp.g - 2
    record = {
        **pp._asdict(),  # d, g, l, k, m
        "r": pp.r,
        "y_dim_lower_bound": y_lb,
        "is_divisor_case": is_divisor,
        "h_dim": None,
        "y_dim": None,
        "y_vs_target_difference": None,
        "y_vs_nonspecial_difference": None,
        "new_component_certified": None,
    }
    if is_divisor:
        dims = proj.divisor_case(pp.d, pp.g)
        record["h_dim"], record["y_dim"] = dims.h_dim, dims.y_dim
    else:
        diff = proj.y_vs_target_difference(pp)
        record["y_vs_target_difference"] = diff
        if pp.k == 0:
            margin = proj.y_vs_nonspecial_difference(pp)
            record["y_vs_nonspecial_difference"] = margin
            record["new_component_certified"] = margin >= 0
        else:
            record["new_component_certified"] = diff > 0

    if args.verify and is_divisor and record["y_dim"] != y_lb:
        raise _VerifyMismatch(
            f"verify: divisor-case mismatch: lower bound {y_lb}, "
            f"exact dimension {record['y_dim']}\n"
        )
    return record


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scrollhilb",
        description="Components of the Hilbert scheme of smooth special scrolls",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--verify", action="store_true",
                        help="cross-check dimensions against the parameter-count oracle")

    sp = sub.add_parser("classify", help="components for one (d, g, h1)")
    sp.add_argument("--d", type=_int_flag, required=True)
    sp.add_argument("--g", type=_int_flag, required=True)
    sp.add_argument("--h1", type=_int_flag, required=True)
    sp.add_argument("--gonal", action="store_true",
                    help="append gonal-curve components of the same speciality")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("scan", help="grid scan over genus/speciality ranges")
    sp.add_argument("--g", required=True, help="range A..B (inclusive) or single value")
    sp.add_argument("--h1", required=True, help="range A..B (inclusive) or single value")
    sp.add_argument("--d", required=True,
                    help="degree policy: 'min' (threshold), '+K' (threshold offset), "
                         "or explicit comma-separated list")
    sp.add_argument("--gonal", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("gonal", help="gonal-curve component record")
    sp.add_argument("--g", type=_int_flag)
    sp.add_argument("--t", type=_int_flag)
    sp.add_argument("--l", type=_int_flag, required=True)
    sp.add_argument("--d", type=_int_flag)
    sp.add_argument("--family-19608", action="store_true", dest="family_19608",
                    help="the minimal family t=3, g=3l+4, d=6g-5")
    common(sp)
    sp.set_defaults(func=cmd_gonal)

    sp = sub.add_parser("project", help="projected-family dimension bounds")
    sp.add_argument("--d", type=_int_flag, required=True)
    sp.add_argument("--g", type=_int_flag, required=True)
    sp.add_argument("--l", type=_int_flag, required=True)
    sp.add_argument("--k", type=_int_flag, required=True)
    sp.add_argument("--m", type=_int_flag, required=True)
    common(sp)
    sp.set_defaults(func=cmd_project)

    return parser


def run(argv: list[str], stdout, stderr) -> int:
    parser = build_parser()
    try:
        # argparse writes --help and its usage errors to sys.stdout/sys.stderr
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        doc = args.func(args)
        rows_key = next((key for key in _ROW_LISTS if key in doc), None)
        if args.format == "json":
            _emit_json(stdout, doc)
        elif rows_key is None:
            _emit_csv(stdout, list(doc), [doc])  # a record without rows: one row
        else:
            _emit_csv(stdout, COMPONENT_COLUMNS, doc[rows_key])
        return 0
    except InvalidParameters as exc:
        stderr.write(f"{exc}\n")
        return 2
    except _VerifyMismatch as exc:
        stderr.write(str(exc))
        return 3


def main() -> None:
    sys.set_int_max_str_digits(0)  # _int's grammar bounds every int instead
    try:
        code = run(sys.argv[1:], sys.stdout, sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # interpreter's own flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
