"""Single-scroll invariants: validation, thresholds, section data,
normal-bundle cohomology, automorphisms, stability."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scrollhilb
from grids import scroll_grid
from scrollhilb import (
    BundleClass,
    CohomologyTriple,
    InvalidParameters,
    ScrollParams,
    aut_dimension,
    general_moduli_threshold,
    h0_explicit,
    make_scroll,
    min_degree_threshold,
    normal_bundle_cohomology,
    section_data,
    section_uniqueness_threshold,
    stability_class,
)
from scrollhilb.series import _has_general_moduli


def test_make_scroll_examples():
    assert make_scroll(10, 3, 1).R == 6
    assert make_scroll(29, 8, 2).R == 16


def test_make_scroll_rejects_first_violation_in_order():
    cases = [
        ((10, 2, 1), "genus-too-small"),
        ((6, 3, 3), "speciality-out-of-range"),  # h1 = g: cone case excluded
        ((6, 3, 0), "speciality-out-of-range"),
        ((7, 3, 1), "degree-too-small"),  # d < 2g + 2
        ((5, 2, 5), "genus-too-small"),  # genus checked before speciality
    ]
    for args, code in cases:
        with pytest.raises(InvalidParameters) as exc:
            make_scroll(*args)
        assert exc.value.code == code, args


def test_scroll_ambient_bounds_hold_on_grid():
    for p, _ in scroll_grid(16):
        assert p.d - 2 * p.g + 1 <= p.R <= p.d - p.g + 1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), g=st.integers(3, 10**6))
def test_scroll_ambient_sandwich_follows_from_validation(data, g):
    h1 = data.draw(st.integers(1, g - 1))
    d = data.draw(st.integers(2 * g + 2, 10 * g + 10**6))
    p = ScrollParams(d, g, h1)
    assert d - 2 * g + 1 <= p.R <= d - g + 1
    # hence no ambient-dimension check: R >= 4, and r >= 3 for a projection
    assert p.R >= 4 and d - 2 * g + 1 >= 3


def test_cohomology_triple_rejects_inconsistent_values():
    assert CohomologyTriple(h0=5, h1n=2, h2=0, chi=3).chi == 3
    for args, detail in (
        ((5, 2, 1, 3), "h2 = 1 != 0"),
        ((5, 2, 0, 4), "chi = 4 != h0 - h1n = 3"),
    ):
        with pytest.raises(InvalidParameters) as exc:
            CohomologyTriple(*args)
        assert (exc.value.code, exc.value.detail) == ("cohomology-inconsistent", detail)


def test_cohomology_triple_check_fires_under_optimize():
    src = str(Path(scrollhilb.__file__).resolve().parents[1])
    code = (
        "from scrollhilb import CohomologyTriple, InvalidParameters\n"
        "for args in ((5, 2, 1, 3), (5, 2, 0, 4)):\n"
        "    try:\n        CohomologyTriple(*args)\n"
        "    except InvalidParameters as exc:\n        print(exc.code)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env={"PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "cohomology-inconsistent\ncohomology-inconsistent\n"


def test_min_degree_threshold():
    assert min_degree_threshold(3, 1) == 10
    assert min_degree_threshold(8, 2) == 29  # 4g - 3 for speciality two
    assert min_degree_threshold(8, 1) == 28


def test_two_threshold_forms_agree():
    for g in range(3, 60):
        for h1 in range(1, g):
            assert section_uniqueness_threshold(g, h1) == general_moduli_threshold(g, h1)


@settings(derandomize=True, max_examples=300)
@given(data=st.data(), g=st.integers(3, 10**6))
def test_two_threshold_forms_agree_at_large_genus(data, g):
    h1 = data.draw(st.integers(1, g - 1))
    assert section_uniqueness_threshold(g, h1) == general_moduli_threshold(g, h1)


@settings(derandomize=True, max_examples=300)
@given(data=st.data(), g=st.integers(3, 10**6))
def test_threshold_of_a_cell_with_components_exceeds_three_g(data, g):
    # scan stops its genus walk at (max degree - 1) // 3 on this bound
    h1 = data.draw(st.integers(1, max(1, g // 4)))
    assert _has_general_moduli(g, h1)
    assert min_degree_threshold(g, h1) >= 3 * g + 1


def test_section_data_examples():
    s = section_data(make_scroll(10, 3, 1), 4)
    assert (s.h, s.gamma_sq, s.degN, s.t_ext) == (2, -2, 6, 0)
    s = section_data(make_scroll(29, 8, 2), 9)
    assert (s.h, s.gamma_sq, s.degN, s.t_ext) == (3, -11, 20, 0)


def test_section_data_boundary_self_intersection():
    # m = 14 is the top of the admissible range for (g, h1) = (8, 1) and
    # d = 28 meets the threshold exactly, so the range checks pass and the
    # zero self-intersection is what gets rejected.
    with pytest.raises(InvalidParameters) as exc:
        section_data(make_scroll(28, 8, 1), 14)
    assert exc.value.code == "nonnegative-self-intersection"


def test_section_data_range_errors():
    with pytest.raises(InvalidParameters) as exc:
        section_data(make_scroll(10, 3, 1), 5)
    assert exc.value.code == "m-out-of-range"
    with pytest.raises(InvalidParameters) as exc:
        section_data(make_scroll(9, 3, 1), 4)  # 9 < threshold 10
    assert exc.value.code == "degree-below-threshold"
    with pytest.raises(InvalidParameters) as exc:
        section_data(make_scroll(50, 6, 2), 7)  # g < 4*h1
    assert exc.value.code == "BN1-violated"


def test_section_invariants_on_grid():
    for p, m in scroll_grid(14):
        try:
            s = section_data(p, m)
        except InvalidParameters as exc:
            assert exc.code == "nonnegative-self-intersection"
            continue
        assert s.gamma_sq == 2 * m - p.d < 0
        assert s.degN == p.d - m
        assert 2 * s.degN > p.d  # destabilizing complement
        assert s.h == m - p.g + p.h1 >= 2


def test_stability_examples():
    assert stability_class(make_scroll(110, 19, 5), 24) is BundleClass.UNSTABLE_DECOMPOSABLE
    assert stability_class(make_scroll(29, 8, 2), 9) is BundleClass.UNSTABLE_DECOMPOSABLE
    assert stability_class(make_scroll(10, 3, 1), 4) is BundleClass.UNSTABLE_DECOMPOSABLE
    # small degree with nonvanishing extension space: indecomposable
    assert stability_class(make_scroll(14, 4, 1), 6) is BundleClass.UNSTABLE


def test_stability_rejects_non_sections():
    with pytest.raises(InvalidParameters) as exc:
        stability_class(make_scroll(110, 19, 5), 10)  # h = m - g + h1 < 2
    assert exc.value.code == "not-a-section"
    with pytest.raises(InvalidParameters) as exc:
        stability_class(make_scroll(110, 19, 5), 60)  # 2m - d >= 0
    assert exc.value.code == "nonnegative-self-intersection"


def test_stability_splits_at_large_degree_on_grid():
    for p, m in scroll_grid(12):
        if p.d >= 6 * p.g - 5 and 2 * m < p.d:
            assert stability_class(p, m) is BundleClass.UNSTABLE_DECOMPOSABLE


def test_normal_bundle_cohomology_examples():
    c = normal_bundle_cohomology(make_scroll(10, 3, 1), 4)
    assert (c.h0, c.h1n, c.h2, c.chi) == (56, 0, 0, 56)
    c = normal_bundle_cohomology(make_scroll(29, 8, 2), 9)
    assert (c.h0, c.h1n, c.h2, c.chi) == (312, 8, 0, 304)
    c = normal_bundle_cohomology(make_scroll(10, 3, 1), 4, t_basepoints=1)
    assert (c.h0, c.h1n, c.h2, c.chi) == (57, 1, 0, 56)


def test_normal_bundle_speciality_one_needs_canonical_section():
    # non-canonical section degrees make the h1 formula negative at t = 0,
    # and exactly the residual base-point count restores it to zero
    p = make_scroll(40, 9, 1)
    for m in range(11, 16):
        with pytest.raises(InvalidParameters) as exc:
            normal_bundle_cohomology(p, m)
        assert exc.value.code == "negative-h1"
        c = normal_bundle_cohomology(p, m, t_basepoints=2 * 9 - 2 - m)
        assert c.h1n == 0
    assert normal_bundle_cohomology(p, 16).h1n == 0


def test_normal_bundle_rejects_negative_basepoints():
    with pytest.raises(InvalidParameters):
        normal_bundle_cohomology(make_scroll(10, 3, 1), 4, t_basepoints=-1)


def test_h0_explicit_examples():
    assert h0_explicit(make_scroll(10, 3, 1), 4) == 56
    assert h0_explicit(make_scroll(29, 8, 2), 9) == 312


def test_h0_explicit_matches_cohomology_on_grid():
    for p, m in scroll_grid(14):
        try:
            c = normal_bundle_cohomology(p, m)
        except InvalidParameters as exc:
            assert exc.code == "negative-h1" and p.h1 == 1 and m < 2 * p.g - 2
            continue
        assert h0_explicit(p, m) == c.h0
        assert c.chi == c.h0 - c.h1n
        assert c.chi == 7 * (p.g - 1) + (p.R + 1) * (p.R + 1 - p.h1)


def test_canonical_section_is_unobstructed():
    # speciality one at the canonical degree: h1 of the normal bundle is 0
    for g in range(3, 15):
        for d in (min_degree_threshold(g, 1), 6 * g - 5, 6 * g):
            c = normal_bundle_cohomology(make_scroll(d, g, 1), 2 * g - 2)
            assert c.h1n == 0


def test_aut_dimension_examples():
    assert aut_dimension(make_scroll(110, 19, 5), 24) == 45
    assert aut_dimension(make_scroll(29, 8, 2), 9) == 5
    assert aut_dimension(make_scroll(10, 3, 1), 4) == 1
    # m = 14 = d/2 on (28, 8, 1): the section check of stability_class fires
    with pytest.raises(InvalidParameters) as exc:
        aut_dimension(make_scroll(28, 8, 1), 14)
    assert exc.value.code == "nonnegative-self-intersection"
