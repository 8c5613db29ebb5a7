"""The JSON and CSV layouts of real outputs, checked against the standard
library's own encoders: the JSON bytes are those ``python -m json.tool
--indent 2`` writes for the same document, and the CSV bytes survive a
``csv.reader`` -> ``csv.writer`` round trip."""

from __future__ import annotations

import csv
import io
import json

import pytest

from scrollhilb.cli import run

# the reports at h1 = 1 and 2 also carry report-wide notes: closure
# containment and connectedness at h1 = 1, completeness at h1 = 2; the gonal
# and project records take the writer's generic path, with booleans and
# nulls among their values
JSON_COMMANDS = [
    "scan --g 3..60 --h1 1..60 --d 355 --gonal",
    "classify --d 200 --g 33 --h1 3 --gonal",
    "classify --d 40 --g 9 --h1 1",
    "classify --d 55 --g 10 --h1 2 --gonal",
    "gonal --g 19 --t 3 --l 5 --d 110",
    "gonal --family-19608 --l 7",
    "project --d 60 --g 12 --l 3 --k 0 --m 12",
]

# a round trip alone passes a line whose quotes are missing, so every row
# must also have as many fields as the header
CSV_COMMANDS = [
    "scan --g 3..60 --h1 1..60 --d 355 --gonal",
    "classify --d 200 --g 33 --h1 3 --gonal",
    "gonal --family-19608 --l 7",
    "project --d 28 --g 8 --l 1 --k 0 --m 14",
]


def _output(command: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run(command.split(), out, err)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


@pytest.mark.parametrize("command", JSON_COMMANDS)
def test_json_layout_equals_the_json_tool_re_encoding(command):
    out = _output(command)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_csv_layout_survives_csv_reader_and_writer_with_one_field_per_column(command):
    text = _output(command + " --format csv")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    again = io.StringIO(newline="")
    csv.writer(again).writerows(rows)
    assert again.getvalue() == text
    assert [len(row) for row in rows] == [len(rows[0])] * len(rows)
