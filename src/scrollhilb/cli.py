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
component, one fixed encoder per column; nothing sits between a record and
its bytes.  ``scan`` classifies, verifies and writes one cell at a time, so
its memory does not grow with the grid.  When it fails on a cell (exit 2 or
3), stdout holds the rows of the cells before that cell and is left
unterminated: a JSON document without its closing brackets.  The other
commands write nothing to stdout before a failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import redirect_stderr, redirect_stdout
from json.encoder import encode_basestring_ascii as _json_str

from . import components as comp
from . import gonal as gonalmod
from . import oracle
from . import projections as proj
from .errors import InvalidParameters
from .scroll import BundleClass, ScrollParams, min_degree_threshold
from .series import _first_general_moduli_genus, _has_general_moduli

COMPONENT_COLUMNS = [
    "kind", "d", "g", "h1", "m", "t", "l", "dim",
    "generically_smooth", "bundle_class", "notes",
]


def _cell(value) -> str:
    """CSV cell rendering: integers in decimal, booleans as true/false,
    absent fields empty (not zero), a list of notes joined by "; "."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "; ".join(value)
    return str(value)


# The JSON and CSV text of each value the kind, generically_smooth and
# bundle_class columns take, keyed by identity: these values are singletons,
# and hashing an Enum member is a Python-level call.
_CONSTANTS = [None, True, False, *comp.ComponentKind, *BundleClass]
_JSON_TEXT = {id(v): json.dumps(getattr(v, "value", v)) for v in _CONSTANTS}
_CSV_TEXT = {id(v): _cell(getattr(v, "value", v)) for v in _CONSTANTS}


def _csv_cells(rec: comp.ComponentRecord) -> list:
    """The cells of one component row; csv.writer writes an int in decimal
    and None (no t or l) as an empty cell, as ``_cell`` renders them."""
    return [
        _CSV_TEXT[id(rec.kind)], rec.d, rec.g, rec.h1, rec.m, rec.t, rec.l, rec.dim,
        _CSV_TEXT[id(rec.generically_smooth)], _CSV_TEXT[id(rec.bundle_class)],
        "; ".join([n.text for n in rec.notes]),
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
        writer.writerows([_cell(row[c]) for c in columns] for row in rows)


# One component row, after the separator from the row before it, as
# json.dumps(doc, indent=2) lays it out in the row list of a top-level object.
_ROW = (
    "%s    {\n"
    + "".join(f'      "{c}": %s,\n' for c in COMPONENT_COLUMNS[:-1])
    + '      "notes": %s\n    }'
)
_ROW_LISTS = ("rows", "components")  # the keys whose lists hold component rows


def _json_row(sep: str, rec: comp.ComponentRecord) -> str:
    """The JSON row of one component record, after ``sep``; ints format as
    themselves under ``%s``."""
    texts = [_json_str(n.text) for n in rec.notes]
    notes = "[\n        " + ",\n        ".join(texts) + "\n      ]" if texts else "[]"
    return _ROW % (
        sep, _JSON_TEXT[id(rec.kind)], rec.d, rec.g, rec.h1, rec.m,
        "null" if rec.t is None else rec.t, "null" if rec.l is None else rec.l, rec.dim,
        _JSON_TEXT[id(rec.generically_smooth)], _JSON_TEXT[id(rec.bundle_class)], notes,
    )


def _emit_json(stdout, doc: dict) -> None:
    """Write the bytes of ``json.dumps(doc, indent=2)`` and a newline, where
    the component records under "rows" and "components" stand for their rows
    (the dicts keyed by ``COMPONENT_COLUMNS``, notes as a list of texts).
    Those records may come from any iterable, a one-shot generator included;
    each row is rendered from ``_ROW`` and written as it comes, so when the
    iterable raises, stdout ends after the last whole row.  Every other value
    goes through ``json.dumps``, indented one level (JSON strings hold no raw
    newline)."""
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
    """Recompute every component dimension via the parameter-count oracle."""
    mismatches = []
    for rec in report.components:
        if rec.kind is comp.ComponentKind.GENERAL_MODULI:
            check = oracle.dim_via_parameter_count(report.params, rec.m)
        else:
            gp = gonalmod.GonalParams(g=rec.g, t=rec.t, l=rec.l, d=rec.d)
            check = oracle.z_dim_via_parameter_count(gp)
        if check != rec.dim:
            mismatches.append(
                f"verify: mismatch at (d={rec.d}, g={rec.g}, h1={rec.h1}, "
                f"m={rec.m}): closed form {rec.dim}, parameter count {check}\n"
            )
    if mismatches:
        raise _VerifyMismatch("".join(mismatches))


def _parse_range(text: str) -> tuple[int, int]:
    """(lo, hi) of 'A..B' (inclusive) or 'A'; rejects a malformed or empty range."""
    try:
        lo, hi = map(int, text.split("..", 1)) if ".." in text else (int(text),) * 2
    except ValueError as exc:
        raise InvalidParameters("malformed-range", str(exc)) from None
    if lo > hi:
        raise InvalidParameters("malformed-range", f"empty range {text}")
    return lo, hi


def _parse_degree_policy(policy: str) -> tuple[int | None, list[int]]:
    """(threshold offset, []) for 'min' or '+K', else (None, sorted degrees)."""
    try:
        if policy == "min":
            return 0, []
        if policy.startswith("+"):
            return int(policy[1:]), []
        return None, sorted({int(s) for s in policy.split(",")})
    except ValueError as exc:
        raise InvalidParameters("malformed-degree-policy", str(exc)) from None


def cmd_classify(args) -> dict:
    p = ScrollParams(args.d, args.g, args.h1)
    report = comp.classify(p, include_gonal=args.gonal)
    if args.verify:
        _verify_report(report)
    return _report_doc(report)


def cmd_scan(args) -> dict:
    g_lo, g_hi = _parse_range(args.g)
    h1_lo, h1_hi = _parse_range(args.h1)
    offset, degrees = _parse_degree_policy(args.d)
    h1_lo = max(h1_lo, 1)
    # no genus below the first with general moduli at h1_lo has a cell; a
    # cell with components has threshold >= 3g + 1, so no degree d keeps a
    # cell of genus above (d - 1) // 3; a negative offset, or no speciality
    # >= 1, keeps no cell
    g_lo = max(g_lo, _first_general_moduli_genus(h1_lo))
    if offset is None:
        g_hi = min(g_hi, (degrees[-1] - 1) // 3)
    if h1_hi < h1_lo or (offset is not None and offset < 0):
        g_hi = g_lo - 1
    return {"rows": _CellWalk(args, range(g_lo, g_hi + 1), range(h1_lo, h1_hi + 1),
                              offset, degrees)}


class _CellWalk:
    """The component records of a scan's kept cells in (g, h1, d) order, one
    cell at a time: a cell is classified and verified when the writer asks
    for its records.  ``len`` is the number of records yielded so far,
    counted after each cell (the benchmark's tracer reads it after the
    write)."""

    def __init__(self, args, genera: range, specialities: range, offset: int | None,
                 degrees: list[int]):
        self._args = args
        self._genera = genera
        self._specialities = specialities
        self._offset = offset
        self._degrees = degrees
        self._count = 0

    def __iter__(self) -> Iterator[comp.ComponentRecord]:
        gonal, verify, offset = self._args.gonal, self._args.verify, self._offset
        # classify only the cells with components (there the threshold is >= 2g + 2)
        for g in self._genera:
            for h1 in self._specialities:
                if not _has_general_moduli(g, h1):
                    break  # nor for any larger h1; this covers g < 3 and h1 >= g
                threshold = min_degree_threshold(g, h1)
                for d in self._degrees if offset is None else [threshold + offset]:
                    if d < threshold:
                        continue
                    report = comp.classify(ScrollParams(d, g, h1), include_gonal=gonal)
                    if verify:
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
        "g": gp.g,
        "t": gp.t,
        "l": gp.l,
        "d": gp.d,
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
        "d": pp.d,
        "g": pp.g,
        "l": pp.l,
        "k": pp.k,
        "m": pp.m,
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
        record["h_dim"] = dims.h_dim
        record["y_dim"] = dims.y_dim
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
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--h1", type=int, required=True)
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
    sp.add_argument("--g", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--d", type=int)
    sp.add_argument("--family-19608", action="store_true", dest="family_19608",
                    help="the minimal family t=3, g=3l+4, d=6g-5")
    common(sp)
    sp.set_defaults(func=cmd_gonal)

    sp = sub.add_parser("project", help="projected-family dimension bounds")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
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
