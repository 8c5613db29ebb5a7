"""CLI behaviour: exit codes, streams, schemas.

Each check is made once.  Both writers are compared with the same reference
row, ``_row_dict``, so JSON and CSV agree on any records; that a rerun
writes the same bytes is acceptance criterion 10; that the scan's walk keeps
the cells of a brute-force walk is ``test_components.py``'s
``test_scan_cells_are_the_cells_of_a_brute_force_walk``, and the scan cases
of ``CLI_GOLDEN`` in ``test_golden.py`` pin how ``scan`` hands those cells to
``classify`` and the writer."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scrollhilb import cli, components
from scrollhilb import InvalidParameters, ScrollParams, classify, min_degree_threshold
from scrollhilb.cli import COMPONENT_COLUMNS, _emit_csv, _emit_json, run
from scrollhilb.components import ComponentRecord, ReportNote
from scrollhilb.scroll import BundleClass
from scrollhilb.series import _has_general_moduli


def invoke(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def test_classify_json():
    code, out, err = invoke("classify", "--d", "10", "--g", "3", "--h1", "1", "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["params"] == {"d": 10, "g": 3, "h1": 1, "R": 6}
    assert len(doc["components"]) == 1
    rec = doc["components"][0]
    assert rec["kind"] == "general-moduli"
    assert rec["m"] == 4 and rec["dim"] == 56
    assert rec["generically_smooth"] is True
    assert doc["reducible"] is False and doc["equidimensional"] is True


def test_classify_gonal_flag():
    code, out, _ = invoke("classify", "--d", "29", "--g", "8", "--h1", "2", "--gonal")
    assert code == 0
    doc = json.loads(out)
    assert [rec["m"] for rec in doc["components"]] == [9]
    assert doc["equidimensional"] is True and doc["complete"] is True


def test_classify_invalid_input_exit_2():
    code, out, err = invoke("classify", "--d", "6", "--g", "3", "--h1", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("speciality-out-of-range:")


def test_classify_verify_passes():
    code, _, err = invoke("classify", "--d", "55", "--g", "10", "--h1", "2",
                          "--gonal", "--verify")
    assert code == 0 and err == ""


def test_scan_min_threshold_row():
    code, out, _ = invoke("scan", "--g", "3..12", "--h1", "1..2", "--d", "min",
                          "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    hit = [r for r in rows if (r["d"], r["g"], r["h1"], r["m"]) == ("10", "3", "1", "4")]
    assert len(hit) == 1 and hit[0]["dim"] == "56"
    # speciality 2 rows appear only once the genus clears the existence gate
    assert all(int(r["g"]) >= 8 for r in rows if r["h1"] == "2")
    # deterministic order: (g, h1, d, m) ascending
    keys = [(int(r["g"]), int(r["h1"]), int(r["d"]), int(r["m"])) for r in rows]
    assert keys == sorted(keys)


def test_scan_verify_and_policies():
    code, _, err = invoke("scan", "--g", "8..8", "--h1", "2..2", "--d", "min", "--verify")
    assert code == 0 and err == ""
    code, out, _ = invoke("scan", "--g", "8..8", "--h1", "2..2", "--d", "+7")
    assert code == 0
    assert [r["d"] for r in json.loads(out)["rows"]] == [36]
    code, out, _ = invoke("scan", "--g", "8..8", "--h1", "2..2", "--d", "30,29")
    assert code == 0
    assert [r["d"] for r in json.loads(out)["rows"]] == [29, 30]


def test_scan_empty_range_exit_2():
    code, _, err = invoke("scan", "--g", "5..4", "--h1", "1..1", "--d", "min")
    assert code == 2
    assert "malformed-range" in err


def test_gonal_command():
    code, out, _ = invoke("gonal", "--g", "19", "--t", "3", "--l", "5", "--d", "110")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_z"] == 6253
    assert doc["dim_h_formula"] == 6232
    assert doc["difference"] == 21
    assert doc["h_component_exists"] is False
    assert doc["kk_equality"] is True
    assert doc["not_contained_in_general_moduli"] is True


def test_gonal_family_flag():
    code, out, _ = invoke("gonal", "--family-19608", "--l", "5")
    assert code == 0
    doc = json.loads(out)
    assert (doc["g"], doc["t"], doc["d"], doc["a"]) == (19, 3, 109, 11)
    assert doc["kk_equality"] is True and doc["family_19608"] is True


def test_gonal_missing_flags_exit_2():
    code, _, err = invoke("gonal", "--l", "5")
    assert code == 2 and "missing-flags" in err


def test_gonal_family_rejects_the_flags_it_would_ignore():
    argv = "gonal --family-19608 --l 5 --g 99 --t 7 --d 1".split()
    code, out, err = invoke(*argv)
    assert (code, out) == (2, "")
    assert err == "conflicting-flags: --g --t --d not allowed with --family-19608\n"
    code, out, err = invoke("gonal", "--family-19608", "--l", "5", "--d", "109")
    assert (code, out, err) == (2, "", "conflicting-flags: --d not allowed with --family-19608\n")


def test_project_divisor_case():
    code, out, _ = invoke("project", "--d", "28", "--g", "8", "--l", "1",
                          "--k", "0", "--m", "14", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_divisor_case"] is True
    assert doc["h_dim"] == 245 and doc["y_dim"] == 244
    assert doc["y_dim_lower_bound"] == 244
    assert doc["y_dim"] == doc["h_dim"] - 1


def test_project_new_component_case():
    code, out, _ = invoke("project", "--d", "29", "--g", "8", "--l", "2",
                          "--k", "1", "--m", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["y_vs_target_difference"] == 10
    assert doc["new_component_certified"] is True


def test_project_speciality_one_below_the_divisor_degree():
    # (l, k) = (1, 0) at m = 14 < 2g - 2 = 16 is not the divisor case
    code, out, err = invoke("project", "--d", "40", "--g", "9", "--l", "1",
                            "--k", "0", "--m", "14")
    assert (code, out) == (2, "")
    assert err == (
        "projection-case-out-of-scope: (k, l) = (0, 1) has no new-component "
        "comparison; only its divisor case m = 2g - 2 = 16 has a dimension\n"
    )


def test_verify_failure_exits_3(monkeypatch):
    import scrollhilb.cli as cli_module

    monkeypatch.setattr(
        cli_module.oracle, "dim_via_parameter_count", lambda p, m: -1
    )
    code, out, err = invoke("classify", "--d", "10", "--g", "3", "--h1", "1", "--verify")
    assert code == 3
    assert out == ""
    assert "verify: mismatch" in err


def test_scan_malformed_degree_policy_on_a_grid_without_cells():
    # (3, 5) has no cell, yet the policy is still parsed and rejected
    code, out, err = invoke("scan", "--g", "3..3", "--h1", "5..5", "--d", "abc")
    assert (code, out) == (2, "")
    assert err == "malformed-degree-policy: invalid literal for int() with base 10: 'abc'\n"


# (flag, value, the first token it rejects): scan reads each range bound, the
# K of '+K' and each list item as an optional '-' and ASCII digits, not as
# whatever int() accepts (underscores, non-ASCII digits, a '+', spaces)
MALFORMED_INTEGERS = [
    ("--g", "1_0..1_0", "1_0"),
    ("--h1", "\u0662", "\u0662"),
    ("--g", "+8", "+8"),
    ("--g", " 8", " 8"),
    ("--h1", "8 ", "8 "),
    ("--g", "3..1_0", "1_0"),
    ("--d", "\u0662", "\u0662"),
    ("--d", " 8", " 8"),
    ("--d", "8 ", "8 "),
    ("--d", "+ 1", " 1"),
    ("--d", "++1", "+1"),
    ("--d", "1,2_0", "2_0"),
    ("--d", "235, 200", " 200"),
]


@pytest.mark.parametrize(("flag", "value", "token"), MALFORMED_INTEGERS,
                         ids=[f"{flag} {value!r}" for flag, value, _ in MALFORMED_INTEGERS])
def test_scan_reads_only_decimal_integers(flag, value, token):
    argv = {"--g": "8", "--h1": "2", "--d": "min"} | {flag: value}
    code, out, err = invoke("scan", *(f"{k}={v}" for k, v in argv.items()))
    error = "malformed-degree-policy" if flag == "--d" else "malformed-range"
    assert (code, out) == (2, "")
    assert err == f"{error}: invalid literal for int() with base 10: {token!r}\n"


@pytest.mark.parametrize(("flag", "value", "parsed"), [
    ("--g", "-3..1", range(-3, 2)),
    ("--h1", "8", range(8, 9)),
    ("--d", "+-1", (-1, [])),
    ("--d", "235,200,240", (None, [200, 235, 240])),
    ("--d", "8", (None, [8])),
])
def test_scan_still_reads_signed_decimals(flag, value, parsed):
    parse = cli._parse_degree_policy if flag == "--d" else cli._parse_range
    assert parse(value) == parsed
    # a leading '-' reads as a flag unless joined to its option by '='
    argv = {"--g": "3..12", "--h1": "1..3", "--d": "min"} | {flag: value}
    assert invoke("scan", *(f"{k}={v}" for k, v in argv.items()))[0] == 0


def _classify_accepts(d: int, g: int, h1: int) -> bool:
    try:
        classify(ScrollParams(d, g, h1), include_gonal=True)
    except InvalidParameters:
        return False
    return True


def test_scan_cell_rule_is_exactly_where_classify_succeeds():
    # the scan classifies a cell iff h1 >= 1, it has general moduli and d
    # reaches the threshold; classify must accept exactly those cells
    for g in range(0, 61):
        for h1 in range(-1, g + 2):
            degrees = {2 * g + 1, 2 * g + 2, 2 * g + 3, 6 * g - 6, 6 * g - 5, 6 * g - 4}
            if g >= 3 and 0 < h1 < g:
                thr = min_degree_threshold(g, h1)
                degrees |= {thr - 1, thr, thr + 1}
            for d in sorted(degrees):
                kept = h1 >= 1 and _has_general_moduli(g, h1) and d >= min_degree_threshold(g, h1)
                assert kept == _classify_accepts(d, g, h1), (d, g, h1)


def output_before_cell(complete: str, fmt: str, cell: tuple[int, int]) -> str:
    """The bytes of a complete scan output up to the first row of ``cell``
    (g, h1): the header and every row before it, unterminated.  JSON is
    re-encoded through ``json.dumps`` rather than cut from ``complete``."""
    if fmt == "csv":
        lines = complete.splitlines(keepends=True)
        rows = list(csv.reader(io.StringIO(complete)))
        assert len(rows) == len(lines)  # no cell holds a line break
        k = next(i for i, r in enumerate(rows) if i and (int(r[2]), int(r[3])) == cell)
        return "".join(lines[:k])
    rows = json.loads(complete)["rows"]
    k = next(i for i, r in enumerate(rows) if (r["g"], r["h1"]) == cell)
    text = json.dumps({"rows": rows[:k]}, indent=2)
    prefix = text.removesuffix("\n  ]\n}") if k else text.removesuffix("[]\n}")
    assert complete.startswith(prefix)
    return prefix


def test_scan_reports_an_error_on_a_kept_cell(monkeypatch):
    import scrollhilb.cli as cli_module

    argv = ("scan", "--g", "3..10", "--h1", "1..2", "--d", "min")
    complete = invoke(*argv)[1]
    real = cli_module.comp.classify

    def classify_failing_at_8_2(p, include_gonal=False):
        if (p.g, p.h1) == (8, 2):
            raise InvalidParameters("m-out-of-range", "injected")
        return real(p, include_gonal=include_gonal)

    monkeypatch.setattr(cli_module.comp, "classify", classify_failing_at_8_2)
    code, out, err = invoke(*argv)
    assert (code, err) == (2, "m-out-of-range: injected\n")
    # the rows of the cells before (8, 2), left unterminated
    assert out == output_before_cell(complete, "json", (8, 2))
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_writes_each_cell_before_classifying_the_next(fmt, monkeypatch):
    import scrollhilb.cli as cli_module

    real = cli_module.comp.classify
    out, calls = io.StringIO(), []

    def recording_classify(p, include_gonal=False):
        calls.append(((p.g, p.h1), len(out.getvalue())))
        return real(p, include_gonal=include_gonal)

    monkeypatch.setattr(cli_module.comp, "classify", recording_classify)
    argv = ["scan", "--g", "3..12", "--h1", "1..2", "--d", "min", "--format", fmt]
    assert run(argv, out, io.StringIO()) == 0
    complete = out.getvalue()
    assert len(calls) > 1
    assert calls[-1][1] > calls[0][1]
    for cell, written in calls:
        assert written == len(output_before_cell(complete, fmt, cell))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("grid", [("3..40", "1..40", "200,235,240"), ("3..3", "2..2", "min")],
                         ids=["grid", "empty-grid"])
def test_scan_rows_have_the_length_the_writer_wrote(fmt, grid, monkeypatch):
    # the benchmark's tracer reads len() of a scan's rows after the writer returns
    import scrollhilb.cli as cli_module

    real_json, real_csv, lengths = cli_module._emit_json, cli_module._emit_csv, []

    def emit_json(stdout, doc):
        real_json(stdout, doc)
        lengths.append(len(doc["rows"]))

    def emit_csv(stdout, columns, rows):
        real_csv(stdout, columns, rows)
        lengths.append(len(rows))

    monkeypatch.setattr(cli_module, "_emit_json", emit_json)
    monkeypatch.setattr(cli_module, "_emit_csv", emit_csv)
    g, h1, d = grid
    code, out, err = invoke("scan", "--g", g, "--h1", h1, "--d", d, "--gonal", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        written = len(json.loads(out)["rows"])
    else:
        written = len(list(csv.reader(io.StringIO(out)))) - 1
    assert lengths == [written]
    assert (written > 0) == (grid[2] != "min")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_memory_does_not_grow_with_the_grid(fmt):
    # the 55,161 rows of this grid, all held at once, peak at about 42 MiB;
    # one cell at a time stays under 0.5 MiB
    argv = ["scan", "--g", "3..200", "--h1", "1..200", "--d", "1204", "--gonal",
            "--verify", "--format", fmt]
    with open(os.devnull, "w", newline="") as sink:
        tracemalloc.start()
        try:
            code = run(argv, sink, io.StringIO())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20


def _record_general_moduli_calls(monkeypatch) -> list[tuple[int, int]]:
    """The (g, h1) of each general-moduli test the scan's walk makes, as it
    makes it."""
    calls = []

    def counting(g, h1):
        calls.append((g, h1))
        return _has_general_moduli(g, h1)

    monkeypatch.setattr(components, "_has_general_moduli", counting)
    return calls


def test_scan_walks_no_genus_below_the_first_with_general_moduli(monkeypatch):
    calls = _record_general_moduli_calls(monkeypatch)
    # no cell has g < 3, so the walk tests none of these 100,003 genera
    code, out, err = invoke("scan", "--g=-100000..2", "--h1", "1..1", "--d", "min")
    assert (code, out, err) == (0, '{\n  "rows": []\n}\n', "")
    assert calls == []
    # at h1 = 4000 the first genus with general moduli is 16,000
    calls.clear()
    code, out, _ = invoke("scan", "--g", "3..16001", "--h1", "4000..4000", "--d", "min")
    assert code == 0 and [r["g"] for r in json.loads(out)["rows"]] == [16000, 16001]
    assert calls == [(16000, 4000), (16001, 4000)]


def test_scan_walks_no_genus_without_a_speciality_of_at_least_one(monkeypatch):
    calls = _record_general_moduli_calls(monkeypatch)
    # no cell has h1 < 1, so none of these 10**12 genera is walked
    for h1_range in ("0..0", "-5..0"):
        code, out, err = invoke("scan", "--g", "3..1000000000000", f"--h1={h1_range}",
                                "--d", "min")
        assert (code, out, err) == (0, '{\n  "rows": []\n}\n', "")
    assert calls == []


def test_scan_skips_genus_two_under_every_degree_policy():
    for policy, d in (("min", 10), ("+1", 11), ("12", 12)):
        code, out, err = invoke("scan", "--g", "2..3", "--h1", "1..1", "--d", policy)
        assert (code, err) == (0, "")
        assert [(r["g"], r["d"]) for r in json.loads(out)["rows"]] == [(3, d)]


# argv -> the start of argparse's error line.  argparse wraps its usage text
# at the terminal width, and the wording of its messages differs between
# Python versions: COLUMNS is pinned and only the stable part is matched.
ARGPARSE_ERRORS = {
    "classify": "scrollhilb classify: error: the following arguments are required: --d",
    "classify --d x --g 3 --h1 1":
        "scrollhilb classify: error: argument --d: invalid int value: 'x'",
    "scan --g 3..4 --h1 1..1": "scrollhilb scan: error: the following arguments are required: --d",
    "frobnicate": "scrollhilb: error: argument command: invalid choice: 'frobnicate'",
}


@pytest.mark.parametrize("argv", sorted(ARGPARSE_ERRORS))
def test_argparse_errors_reach_the_given_stderr(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(*argv.split())
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith("usage: scrollhilb")
    assert lines[-1].startswith(ARGPARSE_ERRORS[argv])


# every integer flag of classify, gonal and project reads an optional '-' and
# ASCII digits, as scan reads its integers, not whatever int() accepts
@pytest.mark.parametrize(("argv", "flag", "token"), [
    (["classify", "--d", "3_1", "--g", "8", "--h1", "2"], "--d", "3_1"),
    (["classify", "--d", "\u0662", "--g", "8", "--h1", "2"], "--d", "\u0662"),
    (["classify", "--d", "+31", "--g", "8", "--h1", "2"], "--d", "+31"),
    (["classify", "--d", " 31", "--g", "8", "--h1", "2"], "--d", " 31"),
    (["gonal", "--g", "1_9", "--t", "3", "--l", "5", "--d", "110"], "--g", "1_9"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_integer_flags_read_only_decimal_integers(argv, flag, token, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(*argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"scrollhilb {argv[0]}: error: argument {flag}: invalid int value: {token!r}"
    )


def test_integer_flags_still_read_signed_decimals():
    # a negative value passes the grammar and meets the library's own check
    assert invoke("project", "--d", "28", "--g", "8", "--l", "1", "--k", "-1", "--m", "14") == (
        2, "", "k-out-of-range: k = -1 not in [0, l) with l = 1\n"
    )
    for argv in (["classify", "--d", "31", "--g", "8", "--h1", "2"],
                 ["gonal", "--g", "19", "--t", "3", "--l", "5", "--d", "110"],
                 ["project", "--d", "28", "--g", "8", "--l", "1", "--k", "0", "--m", "14"]):
        code, out, err = invoke(*argv)
        assert (code, err) == (0, "") and json.loads(out)
        # a value with a leading zero is the same integer: the same bytes
        padded = [f"0{a}" if a.isdigit() else a for a in argv]
        assert invoke(*padded) == (code, out, err)


_DIGITS_2000, _DIGITS_2001 = "9" * 2000, "9" * 2001


@pytest.mark.parametrize("argv, code_or_flag", [
    (["classify", "--d", _DIGITS_2001, "--g", "3", "--h1", "1"], "--d"),
    (["scan", "--g", "3..4", "--h1", "1..1", "--d", f"30,{_DIGITS_2001}"],
     "malformed-degree-policy"),
    (["scan", "--g", f"3..{_DIGITS_2001}", "--h1", "1..1", "--d", "min"], "malformed-range"),
    (["gonal", "--g", "19", "--t", "3", "--l", "5", "--d", _DIGITS_2001], "--d"),
    (["project", "--d", _DIGITS_2001, "--g", "9", "--l", "1", "--k", "0", "--m", "16"], "--d"),
], ids=["classify", "scan-d", "scan-g", "gonal", "project"])
def test_an_integer_of_more_than_2000_digits_exits_2(argv, code_or_flag, monkeypatch):
    # each printed integer is at most quadratic in the inputs, so 2,000
    # digits keep it below CPython's 4,300-digit limit for str(int)
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(*argv)
    assert (code, out) == (2, "")
    if code_or_flag.startswith("--"):
        assert err.splitlines()[-1] == (f"scrollhilb {argv[0]}: error: argument "
                                        f"{code_or_flag}: invalid int value: '{_DIGITS_2001}'")
    else:
        assert err == (f"{code_or_flag}: invalid literal for int() with base 10: "
                       f"'{_DIGITS_2001}'\n")


def test_integers_of_2000_digits_print():
    g = 10**1999  # 2,000 digits, as are d = 4g + 1 and the divisor degree 2g - 2
    for argv in (["classify", "--d", _DIGITS_2000, "--g", "3", "--h1", "1", "--verify"],
                 ["gonal", "--g", "19", "--t", "3", "--l", "5", "--d", _DIGITS_2000],
                 ["project", "--d", str(4 * g + 1), "--g", str(g), "--l", "1", "--k", "0",
                  "--m", str(2 * g - 2), "--verify"]):
        assert max(len(a) for a in argv) == 2000
        for fmt in ("json", "csv"):
            code, out, err = invoke(*argv, "--format", fmt)
            assert (code, err) == (0, "") and out


def test_help_reaches_the_given_stdout(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke("classify", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: scrollhilb classify [-h] --d D --g G --h1 H1")
    assert "--gonal" in out


# text that reaches every escape of the ASCII encoder: quote, backslash,
# control characters, non-ASCII, astral and lone-surrogate code points
_TEXT = st.text() | st.text(
    st.sampled_from('a "\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600'))
_INT = st.integers(-10**30, 10**30)
_RECORDS = st.lists(
    st.builds(  # t, None or an int, selects the kind
        ComponentRecord,
        _INT, _INT, _INT, _INT, _INT,
        st.none() | st.sampled_from(BundleClass), st.none() | _INT,
        st.lists(st.builds(ReportNote, _TEXT, _TEXT), max_size=4).map(tuple),
    ),
    max_size=4,
)
_REPORT_DOCS = st.builds(
    lambda params, records, flags, notes: {
        "params": dict(zip(("d", "g", "h1", "R"), params)),
        "components": records,
        "reducible": flags[0],
        "equidimensional": flags[1],
        "complete": flags[2],
        "notes": [{"code": code, "text": text} for code, text in notes],
    },
    st.tuples(_INT, _INT, _INT, _INT),
    _RECORDS,
    st.tuples(st.booleans(), st.booleans(), st.booleans()),
    st.lists(st.tuples(_TEXT, _TEXT), max_size=3),
)


def _row_dict(rec: ComponentRecord) -> dict:
    """The reference row of a component record: its fields under
    COMPONENT_COLUMNS, enum members as their values, notes as their texts."""
    return {
        "kind": rec.kind.value,
        "d": rec.d,
        "g": rec.g,
        "h1": rec.h1,
        "m": rec.m,
        "t": rec.t,
        "l": rec.l,
        "dim": rec.dim,
        "generically_smooth": rec.generically_smooth,
        "bundle_class": rec.bundle_class.value if rec.bundle_class else None,
        "notes": [n.text for n in rec.notes],
    }


@settings(max_examples=300, deadline=None)
@given(st.builds(lambda records: {"rows": records}, _RECORDS) | _REPORT_DOCS)
@example({"rows": []})
def test_json_writer_is_byte_exact_json_dumps(doc):
    rows_key = "rows" if "rows" in doc else "components"
    reference = doc | {rows_key: [_row_dict(rec) for rec in doc[rows_key]]}
    # the records given as a list, and as a one-shot generator (as scan does)
    one_shot = doc | {rows_key: (rec for rec in doc[rows_key])}
    for given_doc in (doc, one_shot):
        out = io.StringIO()
        _emit_json(out, given_doc)
        assert out.getvalue() == json.dumps(reference, indent=2) + "\n"


def _reference_cell(value) -> str:
    """The CSV text of a reference-row value: no value is an empty cell (not
    zero), a boolean is true/false, the notes are joined by "; "."""
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, list):
        return "; ".join(value)
    return f"{value}"


@settings(max_examples=300, deadline=None)
@given(_RECORDS)
@example([])
def test_csv_writer_is_csv_writer_of_the_cells(records):
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(COMPONENT_COLUMNS)
    writer.writerows([_reference_cell(row[c]) for c in COMPONENT_COLUMNS]
                     for row in map(_row_dict, records))
    out = io.StringIO()
    _emit_csv(out, COMPONENT_COLUMNS, records)
    assert out.getvalue() == expected.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_reader_closing_stdout_early_exits_141_without_traceback(fmt):
    # 1.3 MB of JSON, 0.7 MB of CSV: far more than a pipe buffers, so the
    # writer is still writing when the reader goes away
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "scrollhilb", "scan", "--g", "3..60", "--h1", "1..60",
            "--d", "355", "--gonal", "--format", fmt]
    with subprocess.Popen(argv, env={"PYTHONPATH": src}, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert len(head) == 100
    assert (code, err) == (141, b"")


def test_a_lower_int_to_str_limit_changes_no_output():
    # l = 10**400 - 1 makes the family print integers of more than 640 digits
    src = str(Path(__file__).resolve().parents[1] / "src")
    for fmt in ("json", "csv"):
        argv = ["-m", "scrollhilb", "gonal", "--family-19608", "--l", "9" * 400,
                "--format", fmt]
        default, limited = (
            subprocess.run([sys.executable, *flags, *argv], env={"PYTHONPATH": src},
                           capture_output=True)
            for flags in ([], ["-X", "int_max_str_digits=640"])
        )
        assert default.returncode == 0 and re.search(rb"[0-9]{641}", default.stdout), fmt
        assert (limited.returncode, limited.stdout, limited.stderr) == (
            0, default.stdout, default.stderr), fmt


def test_cold_start_loads_neither_dataclasses_nor_inspect():
    # -S: the modules a site's .pth files load are the host's, not the CLI's
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "import scrollhilb.cli\n"
        "scrollhilb.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
