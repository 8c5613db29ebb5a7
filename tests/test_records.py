"""The package's records are immutable named tuples, and the validated ones
check their fields however they are built: by the constructor, ``_make`` or
``_replace``."""

from __future__ import annotations

import copy
import pickle

import pytest

from scrollhilb import (
    CohomologyTriple,
    GonalParams,
    InvalidParameters,
    ProjectionParams,
    ScrollParams,
    SeriesSpec,
    classify,
    divisor_case,
    make_gonal_params,
    make_projection_params,
    make_scroll,
    section_data,
)

# (record type, valid constructor arguments, a field, a value out of its range)
VALIDATED = [
    (ScrollParams, {"d": 10, "g": 3, "h1": 1}, "h1", 3),
    (SeriesSpec, {"g": 5, "m": 8, "h": 4, "i": 1}, "h", 5),
    (CohomologyTriple, {"h0": 56, "h1n": 0, "h2": 0, "chi": 56}, "h2", 1),
    (GonalParams, {"g": 19, "t": 3, "l": 5, "d": 110}, "d", 108),
    (ProjectionParams, {"d": 40, "g": 9, "l": 1, "k": 0, "m": 16}, "k", 1),
]
IDS = [case[0].__name__ for case in VALIDATED]


def _validated_records() -> list:
    return [cls(**args) for cls, args, _, _ in VALIDATED]


def _plain_records() -> list:
    p = ScrollParams(40, 9, 1)
    report = classify(p)
    return [section_data(p, 16), divisor_case(40, 9), report.components[0],
            report.components[0].notes[0], report]


@pytest.mark.parametrize("cls, args, field, bad", VALIDATED, ids=IDS)
def test_make_and_replace_check_like_the_constructor(cls, args, field, bad):
    with pytest.raises(InvalidParameters) as want:
        cls(**{**args, field: bad})
    record = cls(**args)
    values = [bad if name == field else value for name, value in zip(record._fields, record)]
    for build in (lambda: record._replace(**{field: bad}), lambda: cls._make(values)):
        with pytest.raises(InvalidParameters) as got:
            build()
        assert (got.value.code, str(got.value)) == (want.value.code, str(want.value))
    assert record._replace() == cls._make(record) == record


def test_gonal_replace_derives_a_and_m_again():
    gp = GonalParams(40, 3, 5, 235)
    assert (gp.a, gp.m) == (21, 66)
    assert gp._replace(t=4) == GonalParams(40, 4, 5, 235) == (40, 4, 5, 235, 15, 62)
    assert gp._replace(l=2) == (40, 3, 2, 235, 21, 75)
    for derived in ({"a": 21}, {"m": 66}):
        with pytest.raises(ValueError):
            gp._replace(**derived)


@pytest.mark.parametrize("record", _validated_records() + _plain_records(),
                         ids=lambda r: type(r).__name__)
def test_records_are_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("record", _validated_records() + _plain_records(),
                         ids=lambda r: type(r).__name__)
def test_copy_and_pickle_return_an_equal_record(record):
    copies = [copy.copy(record), copy.deepcopy(record)] + [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in copies:
        assert type(other) is type(record) and other == record


def test_a_record_is_the_tuple_of_its_fields():
    p = ScrollParams(10, 3, 1)
    assert p == (10, 3, 1) and hash(p) == hash((10, 3, 1))
    assert GonalParams(19, 3, 5, 110) == (19, 3, 5, 110, 11, 24)
    assert p._fields == ("d", "g", "h1")
    assert GonalParams._fields == ("g", "t", "l", "d", "a", "m")


def test_the_make_names_are_the_constructors():
    assert make_scroll is ScrollParams
    assert make_gonal_params is GonalParams
    assert make_projection_params is ProjectionParams
