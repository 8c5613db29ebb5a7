"""The package's records are immutable named tuples, and the validated ones
check their fields however they are built: by the constructor, ``_make`` or
``_replace``.

Each derived value of each record in the README's table of records is
checked by one test, ``test_a_derived_value_is_a_documented_property_not_a_field``:
a documented, read-only property that no constructor, ``_replace`` or
``setattr`` takes.  The example tests of each module state the values
(``test_normal_bundle_cohomology_examples``, ``test_divisor_case_examples``,
``test_gonal_params_validation_order``), and ``test_api.py`` pins the field
list of every record in that table."""

from __future__ import annotations

import copy
import inspect
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scrollhilb
from scrollhilb import (
    CohomologyTriple,
    GonalParams,
    InvalidParameters,
    ProjectionParams,
    ScrollParams,
    classify,
    divisor_case,
    make_gonal_params,
    make_projection_params,
    make_scroll,
)
from scrollhilb.components import ComponentKind, ComponentRecord
from scrollhilb.errors import _Checked
from grids import GMAX, degree_values, speciality_values
from test_api import _readme_records
from test_gonal import large_gonal_params

# what namedtuple._replace raises for a name that is not a field
NOT_A_FIELD = TypeError if sys.version_info >= (3, 13) else ValueError

# (record type, valid constructor arguments, a field, a value out of its range)
VALIDATED = [
    (ScrollParams, {"d": 10, "g": 3, "h1": 1}, "h1", 3),
    (GonalParams, {"g": 19, "t": 3, "l": 5, "d": 110}, "d", 108),
    (ProjectionParams, {"d": 40, "g": 9, "l": 1, "k": 0, "m": 16}, "k", 1),
]
IDS = [case[0].__name__ for case in VALIDATED]


def _validated_records() -> list:
    return [cls(**args) for cls, args, _, _ in VALIDATED]


def _plain_records() -> list:
    p = ScrollParams(40, 9, 1)
    report = classify(p)
    return [divisor_case(40, 9), CohomologyTriple(56, 0),
            report.components[0], report.components[0].notes[0], report]


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
    t4, l2 = gp._replace(t=4), gp._replace(l=2)
    assert t4 == GonalParams(40, 4, 5, 235) == (40, 4, 5, 235) and (t4.a, t4.m) == (15, 62)
    assert l2 == (40, 3, 2, 235) and (l2.a, l2.m) == (21, 75)


@pytest.mark.parametrize("record", _validated_records() + _plain_records(),
                         ids=lambda r: type(r).__name__)
def test_records_are_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 0


def _lists_in(value) -> list:
    """The lists in a value, looking into nested tuples."""
    if isinstance(value, list):
        return [value]
    return [x for item in value for x in _lists_in(item)] if isinstance(value, tuple) else []


@pytest.mark.parametrize("record", _validated_records() + _plain_records(),
                         ids=lambda r: type(r).__name__)
def test_records_hold_no_list(record):
    assert _lists_in(record) == []


@pytest.mark.parametrize("record", _validated_records() + _plain_records(),
                         ids=lambda r: type(r).__name__)
def test_copy_and_pickle_return_an_equal_record(record):
    copies = [copy.copy(record), copy.deepcopy(record)] + [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in copies:
        assert type(other) is type(record) and other == record


SAMPLES = {type(record).__name__: record for record in _validated_records() + _plain_records()}
# (record, property) of each derived value of each record in the README's table
DERIVED = [
    (name, attr)
    for name, _ in _readme_records()
    for attr, _ in inspect.getmembers(getattr(scrollhilb, name), lambda v: isinstance(v, property))
]


@pytest.mark.parametrize("name, attr", DERIVED, ids=[f"{n}.{a}" for n, a in DERIVED])
def test_a_derived_value_is_a_documented_property_not_a_field(name, attr):
    # a sample of each record in the table, so a new record's values are checked too
    assert sorted(SAMPLES) == sorted(row for row, _ in _readme_records())
    record = SAMPLES[name]
    cls, value = type(record), getattr(record, attr)
    assert (getattr(cls, attr).__doc__ or "").strip()
    assert attr not in cls._fields
    with pytest.raises(NOT_A_FIELD):
        record._replace(**{attr: value})
    with pytest.raises(AttributeError):
        setattr(record, attr, value)
    # the constructor takes the fields alone, by name or by position
    for build in (lambda: cls(*record, **{attr: value}), lambda: cls(*record, value)):
        with pytest.raises(TypeError):
            build()


def test_a_record_is_the_tuple_of_its_fields():
    p = ScrollParams(10, 3, 1)
    assert p == (10, 3, 1) and hash(p) == hash((10, 3, 1))
    assert GonalParams(19, 3, 5, 110) == (19, 3, 5, 110)
    assert repr(GonalParams(19, 3, 5, 110)) == "GonalParams(g=19, t=3, l=5, d=110)"
    # one way to build a component record: all eight fields, none defaulted
    assert ComponentRecord._field_defaults == {}


def test_every_validated_record_builds_through_the_shared_make():
    for cls, *_ in VALIDATED:
        assert not {"_make", "_replace", "__getnewargs__"} & set(vars(cls)), cls
        assert cls._make.__func__ is _Checked._make.__func__, cls


def _a_and_m(gp: GonalParams) -> tuple[int, int]:
    """The closed forms a = ceil(g/(t-1)) + 1 and m = 2g - 2 - (l-1)t."""
    return -(-gp.g // (gp.t - 1)) + 1, 2 * gp.g - 2 - (gp.l - 1) * gp.t


@settings(derandomize=True, max_examples=200, deadline=None)
@given(gp=large_gonal_params(), data=st.data())
def test_gonal_a_and_m_are_derived_from_the_four_fields(gp, data):
    assert (gp.a, gp.m) == _a_and_m(gp)
    assert (gp.a - 2) * (gp.t - 1) < gp.g <= (gp.a - 1) * (gp.t - 1)
    # a smaller t or l passes every gate again: a does not fall, and the
    # very-ampleness margin does not fall
    others = [gp._replace(t=data.draw(st.integers(3, gp.t), label="t")),
              gp._replace(l=data.draw(st.integers(2, gp.l), label="l"))]
    for other in others:
        assert (other.a, other.m) == _a_and_m(other)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        other = pickle.loads(pickle.dumps(gp, protocol))
        assert (other, other.a, other.m) == (gp, gp.a, gp.m)


def test_the_make_names_are_the_constructors():
    assert make_scroll is ScrollParams
    assert make_gonal_params is GonalParams
    assert make_projection_params is ProjectionParams


def _report_note_codes(h1: int, include_gonal: bool) -> list[str]:
    """The codes of the report-wide notes, in order, by speciality."""
    if h1 == 1:
        return ["closure-containment", "connected"] + ["no-gonal-components"] * include_gonal
    return ["complete"] if h1 == 2 and include_gonal else []


def test_classification_flags_are_derived_from_the_components():
    # the acceptance grid, with and without the gonal components
    seen = set()
    notes_of_case = {}
    for g in range(3, GMAX + 1):
        for h1 in speciality_values(g):
            for d in degree_values(g, h1):
                for include_gonal in (False, True):
                    report = classify(ScrollParams(d, g, h1), include_gonal)
                    assert report.include_gonal is include_gonal
                    assert type(report.components) is tuple
                    dims = [r.dim for r in report.components]
                    assert report.reducible == (len(dims) > 1)
                    assert report.equidimensional == all(x == dims[0] for x in dims)
                    codes = _report_note_codes(h1, include_gonal)
                    assert [n.code for n in report.notes] == codes
                    assert report.complete is (h1 == 1 or (h1 == 2 and include_gonal))
                    # one shared tuple per case, not a list built per report
                    assert type(report.notes) is tuple
                    assert notes_of_case.setdefault(tuple(codes), report.notes) is report.notes
                    for rec in report.components:
                        general = rec.kind is ComponentKind.GENERAL_MODULI
                        assert (rec.t is None) == general
                        assert rec.generically_smooth is (True if general else None)
                        assert rec.l == (None if general else h1)
                        seen.add(rec.kind)
                    seen.add(("reducible", report.reducible))
                    seen.add(("equidimensional", report.equidimensional))
    # each value of each derived name occurs on the grid, and each case of
    # the report notes: h1 = 1 both ways, h1 = 2 with the gonal components, none
    assert seen == {*ComponentKind, *((name, flag) for name in ("reducible", "equidimensional")
                                      for flag in (False, True))}
    assert set(notes_of_case) == {
        ("closure-containment", "connected"),
        ("closure-containment", "connected", "no-gonal-components"),
        ("complete",),
        (),
    }

