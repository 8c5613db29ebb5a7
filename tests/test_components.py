"""Component enumeration, dimension formulas, classification reports,
singular-point predicates.  Acceptance criteria 02 and 03 check the h1 = 1
specialization and the dimension step 2 - h1 in m (g <= 40).  The notes
checked here are the library's; that the CLI writes a record's notes as
their texts is ``test_cli.py``'s ``test_json_writer_is_byte_exact_json_dumps``
and the ``classify`` cases of ``CLI_GOLDEN`` that have notes."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grids import GMAX, degree_values, speciality_values
from scrollhilb import components
from scrollhilb import (
    BundleClass,
    ComponentKind,
    InvalidParameters,
    ScrollParams,
    admissible_m_range,
    brill_noether_rho,
    classify,
    component_dimension,
    component_dimension_formula,
    component_dimension_h1_1,
    min_degree_threshold,
    rho_of_bundle,
    singular_point_predicate,
    sublocus_codim_h1_1,
)
from scrollhilb.cli import _parse_degree_policy
from scrollhilb.series import _has_general_moduli


def admissible_m_by_enumeration(g: int, h1: int) -> list[int]:
    """Independent oracle: degrees m whose complete series of speciality h1
    exists on the general curve (Brill-Noether number >= 0 in bundle form)
    with section dimension at least 3, or the single (3, 1, h=2) case."""
    out = []
    for m in range(0, 3 * g + 1):
        h = m - g + h1
        floor_ok = h >= 3 or (g, h1, h) == (3, 1, 2)
        if floor_ok and rho_of_bundle(g, h + 1, h1) >= 0:
            out.append(m)
    return out


def test_admissible_m_range_examples():
    assert admissible_m_range(3, 1) == range(4, 5)
    assert admissible_m_range(8, 2) == range(9, 10)
    # at speciality 1 the range ends at the canonical degree 2g - 2
    for g in [*range(3, GMAX + 1), 10**30 + 1]:
        assert admissible_m_range(g, 1)[-1] == 2 * g - 2
    with pytest.raises(InvalidParameters) as exc:
        admissible_m_range(6, 2)
    assert exc.value.code == "BN1-violated"


def test_admissible_m_range_against_enumeration():
    for g in range(3, 30):
        for h1 in range(1, g):
            try:
                got = admissible_m_range(g, h1)
            except InvalidParameters as exc:
                assert exc.code == "BN1-violated"
                assert admissible_m_by_enumeration(g, h1) == []
                continue
            assert list(got) == admissible_m_by_enumeration(g, h1)


def test_component_dimension_examples():
    assert component_dimension(ScrollParams(10, 3, 1), 4) == 56
    assert component_dimension(ScrollParams(29, 8, 2), 9) == 312
    # below the existence gate (g < 4*h1) the gated call rejects but the
    # formula still evaluates; it is the comparison value for gonal components
    assert component_dimension_formula(110, 19, 5, 24) == 6232
    with pytest.raises(InvalidParameters) as exc:
        component_dimension(ScrollParams(110, 19, 5), 24)
    assert exc.value.code == "BN1-violated"


def test_component_dimension_h1_1_examples():
    assert component_dimension_h1_1(10, 3) == 56
    # d - 2g + 3 = 15 here; cross-checked against the m = 2g - 2 evaluation
    # of the general formula and the parameter-count oracle
    assert component_dimension_h1_1(28, 8) == 7 * 7 + 15 * 15 - 15 == 259
    # at g = 2, h1 = 1 passes the speciality check and the threshold's genus check fails
    with pytest.raises(InvalidParameters, match="^genus-too-small: "):
        component_dimension_h1_1(10, 2)


def test_sublocus_codim():
    assert sublocus_codim_h1_1(8, 12) == 2
    assert sublocus_codim_h1_1(5, 7) == 1
    with pytest.raises(InvalidParameters) as exc:
        sublocus_codim_h1_1(3, 4)  # m = 2g - 2 exactly
    assert exc.value.code == "m-not-below-canonical"
    with pytest.raises(InvalidParameters) as exc:
        sublocus_codim_h1_1(10, 11)  # below the admissible range [g + 2, 2g - 2]
    assert str(exc.value) == "m-out-of-range: m = 11 not in [12, 18] for (g, h1) = (10, 1)"


def test_classify_speciality_one():
    report = classify(ScrollParams(10, 3, 1))
    assert len(report.components) == 1
    rec = report.components[0]
    assert rec.kind is ComponentKind.GENERAL_MODULI
    assert (rec.m, rec.dim, rec.generically_smooth) == (4, 56, True)
    assert rec.bundle_class is BundleClass.UNSTABLE_DECOMPOSABLE
    assert not report.reducible
    assert report.equidimensional
    assert report.complete


def test_classify_speciality_one_subloci():
    report = classify(ScrollParams(40, 9, 1))
    (rec,) = report.components
    assert rec.m == 16
    sub = [n for n in rec.notes if n.code == "sublocus-codim"]
    assert len(sub) == 5
    for note, (m, codim) in zip(sub, [(11, 5), (12, 4), (13, 3), (14, 2), (15, 1)]):
        assert note.args == (m, codim)
    assert any(n.code == "closure-containment" for n in report.notes)
    assert any(n.code == "connected" for n in report.notes)


def test_classify_speciality_two_with_gonal():
    # d = 29 sits below the splitting range 6g - 5 = 43, so no gonal
    # component passes the gates and the single general-moduli component
    # is the whole (complete) classification
    report = classify(ScrollParams(29, 8, 2), include_gonal=True)
    assert [rec.m for rec in report.components] == [9]
    assert report.components[0].dim == 312
    assert report.equidimensional
    assert not report.reducible
    assert report.complete


def test_classify_speciality_two_gonal_equidimensional():
    report = classify(ScrollParams(55, 10, 2), include_gonal=True)
    kinds = [rec.kind for rec in report.components]
    assert kinds == [
        ComponentKind.GENERAL_MODULI,
        ComponentKind.GENERAL_MODULI,
        ComponentKind.GONAL,
    ]
    assert [rec.m for rec in report.components[:2]] == [11, 12]
    gz = report.components[2]
    assert (gz.t, gz.l, gz.m) == (3, 2, 15)
    assert gz.generically_smooth is None
    assert gz.bundle_class is BundleClass.UNSTABLE_DECOMPOSABLE
    assert len({rec.dim for rec in report.components}) == 1
    assert report.equidimensional and report.reducible and report.complete


def test_classify_without_gonal_is_incomplete_for_h1_2():
    report = classify(ScrollParams(55, 10, 2), include_gonal=False)
    assert not report.complete
    assert all(rec.kind is ComponentKind.GENERAL_MODULI for rec in report.components)


def test_classify_high_speciality_never_claims_completeness():
    report = classify(ScrollParams(85, 15, 3), include_gonal=True)
    assert not report.complete
    assert report.reducible
    assert not report.equidimensional  # dimensions drop as m grows
    by_kind = {}
    for rec in report.components:
        by_kind.setdefault(rec.kind, []).append(rec)
    assert [rec.m for rec in by_kind[ComponentKind.GENERAL_MODULI]] == [15, 16]
    assert [rec.dim for rec in by_kind[ComponentKind.GENERAL_MODULI]] == [3617, 3616]
    (gz,) = by_kind[ComponentKind.GONAL]
    assert (gz.t, gz.l, gz.m, gz.dim) == (3, 3, 22, 3617)
    assert any(n.code == "not-contained" for n in gz.notes)


def test_classify_boundary_self_intersection_note():
    # threshold(9, 1) = 31 and m = 2g - 2 = 16: 2m - d is 1 at d = 31, 0 at
    # d = 32, and negative from d = 33 on
    for d, gamma_sq in ((31, 1), (32, 0)):
        report = classify(ScrollParams(d, 9, 1))
        (rec,) = report.components
        assert (rec.m, rec.bundle_class) == (16, None)
        assert all(n.code != "boundary-self-intersection" for n in report.notes)
        boundary = [n for n in rec.notes if n.code == "boundary-self-intersection"]
        assert [n.text for n in boundary] == [
            f"section self-intersection 2m - d = {gamma_sq} >= 0; bundle class not asserted"
        ]
    report = classify(ScrollParams(33, 9, 1))
    (rec,) = report.components
    assert rec.bundle_class is BundleClass.UNSTABLE
    assert all(n.code != "boundary-self-intersection" for n in (*report.notes, *rec.notes))


def expected_note_codes(rec, lo: int) -> list[str]:
    """The codes of the notes about one component, from its kind and m (and
    l), in the order classify writes them; ``lo`` is the least admissible m."""
    if rec.kind is ComponentKind.GONAL:
        return ["not-contained"] if rec.l >= 3 else []
    codes = ["boundary-self-intersection"] if 2 * rec.m - rec.d >= 0 else []
    if rec.h1 == 1:
        return codes + ["sublocus-codim"] * (rec.m - lo)
    if singular_point_predicate(rec.g, rec.h1, rec.m):
        codes.append("singular-locus")
    return codes + ["singular-overlap"] * (rec.m > lo)


REPORT_WIDE_CODES = {"closure-containment", "connected", "no-gonal-components", "complete"}


def test_each_record_carries_its_notes_and_the_report_only_report_wide_ones():
    for g in range(3, GMAX + 1):
        for h1 in speciality_values(g):
            lo = admissible_m_range(g, h1)[0]
            for d in degree_values(g, h1):
                for gonal in (False, True):
                    report = classify(ScrollParams(d, g, h1), include_gonal=gonal)
                    for rec in report.components:
                        assert [n.code for n in rec.notes] == expected_note_codes(rec, lo)
                    assert {n.code for n in report.notes} <= REPORT_WIDE_CODES


def test_classify_propagates_validation():
    with pytest.raises(InvalidParameters) as exc:
        classify(ScrollParams(28, 8, 2))  # below the 4g - 3 = 29 threshold
    assert exc.value.code == "degree-below-threshold"


def test_singular_point_predicate_examples():
    assert singular_point_predicate(5, 1, 6) is True
    assert singular_point_predicate(3, 1, 4) is False  # degenerate residual degree
    assert singular_point_predicate(12, 2, 9) is True


@settings(derandomize=True, max_examples=400)
@given(g=st.integers(3, 60), h1=st.integers(1, 14), m=st.integers(0, 130))
def test_singular_predicate_matches_brill_noether_form(g, h1, m):
    if h1 >= g or 2 * g - 3 - m < 0:
        return
    want = brill_noether_rho(g, h1 - 1, 2 * g - 3 - m) >= 0
    assert singular_point_predicate(g, h1, m) == want
    # the shifted form with (h+1, m+1) is the same number
    h = m - g + h1
    assert brill_noether_rho(g, h + 1, m + 1) == brill_noether_rho(g, h1 - 1, 2 * g - 3 - m)


@st.composite
def _ranges(draw, lo: int, hi: int) -> range:
    """A non-empty range lo' .. hi' inside [lo, hi], bounds included."""
    start = draw(st.integers(lo, hi))
    return range(start, draw(st.integers(start, hi)) + 1)


_DEGREE_POLICIES = st.one_of(
    st.just("min"),
    st.integers(-3, 8).map(lambda k: f"+{k}"),
    st.lists(st.integers(-20, 700), min_size=1, max_size=4).map(
        lambda ds: ",".join(map(str, ds))),  # duplicates and any order
)
_T = min_degree_threshold(20, 5)  # at g = 4*h1


@settings(derandomize=True, max_examples=300)
@given(genera=_ranges(-30, 90), specialities=_ranges(-5, 30), policy=_DEGREE_POLICIES)
@example(genera=range(3, 4), specialities=range(1, 2), policy="min")  # the (3, 1) cell
@example(genera=range(20, 21), specialities=range(5, 6), policy="min")
@example(genera=range(20, 21), specialities=range(5, 6), policy=f"{_T}")
@example(genera=range(20, 21), specialities=range(5, 6), policy=f"{_T - 1}")
@example(genera=range(3, 60), specialities=range(1, 10), policy="+-1")
@example(genera=range(3, 60), specialities=range(0, 1), policy="min")
def test_scan_cells_are_the_cells_of_a_brute_force_walk(genera, specialities, policy):
    offset, degrees = _parse_degree_policy(policy)
    expected = []
    for g in genera:
        for h1 in specialities:
            if h1 < 1 or not _has_general_moduli(g, h1):
                continue
            threshold = min_degree_threshold(g, h1)
            for d in degrees if offset is None else [threshold + offset]:
                if d >= threshold:
                    expected.append(ScrollParams(d, g, h1))
    assert list(components._scan_cells(genera, specialities, offset, degrees)) == expected
