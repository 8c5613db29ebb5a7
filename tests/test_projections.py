"""Projected families: dimension lower bounds, new-component margins, and
the divisor case.  ``test_certificate.py`` certifies both margins for every
integer; acceptance criterion 09 checks the divisor case (g <= 40)."""

from __future__ import annotations

import pytest

from grids import speciality_values
from scrollhilb import (
    InvalidParameters,
    ProjectionParams,
    admissible_m_range,
    divisor_case,
    min_degree_threshold,
    y_dim_lower_bound,
    y_vs_nonspecial_difference,
    y_vs_target_difference,
)


def y_param_count(d: int, g: int, l: int, k: int, m: int) -> int:
    """Independent oracle: assemble the projected-family dimension bound from
    its parameter-count bullets (curve, complement, series, extension choice,
    projection centers, ambient projectivities, minus the stabilizer)."""
    r = d - 2 * g + 1 + k
    e = d - 2 * m
    h1_twist = max(0, g - 1 - e)
    h0_twist = max(0, e - g + 1)
    decomposable = h1_twist == 0
    series_moduli = g - l * (m - g + l + 1)
    ext_choice = 0 if decomposable else h1_twist - 1
    stabilizer = h0_twist + 1 if decomposable else h0_twist
    return (
        (3 * g - 3)
        + g
        + series_moduli
        + ext_choice
        + (r + 1) * (l - k)
        + ((r + 1) ** 2 - 1)
        - stabilizer
    )


# expected values frozen from y_param_count, which agrees with direct
# evaluation of the closed form at r = d - 2g + 1 + k
CASES = [
    ((29, 8, 2, 1, 9), 295),
    ((29, 8, 2, 0, 9), 278),
    ((28, 8, 1, 0, 14), 244),
]


@pytest.mark.parametrize("args,want", CASES)
def test_y_dim_lower_bound_examples(args, want):
    assert y_param_count(*args) == want
    assert y_dim_lower_bound(ProjectionParams(*args)) == want


def test_projection_params_validation():
    with pytest.raises(InvalidParameters) as exc:
        ProjectionParams(29, 8, 2, 2, 9)  # k must stay below l
    assert exc.value.code == "k-out-of-range"
    with pytest.raises(InvalidParameters) as exc:
        ProjectionParams(29, 8, 2, 1, 10)  # source m out of range
    assert exc.value.code == "m-out-of-range"
    with pytest.raises(InvalidParameters) as exc:
        ProjectionParams(28, 8, 2, 1, 9)  # source below threshold
    assert exc.value.code == "degree-below-threshold"
    pp = ProjectionParams(29, 8, 2, 1, 9)
    assert pp.r == 15
    assert ProjectionParams(28, 8, 1, 0, 14).r == 13


def test_y_vs_target_difference_examples():
    assert y_vs_target_difference(ProjectionParams(29, 8, 2, 1, 9)) == 10
    assert y_vs_target_difference(ProjectionParams(29, 8, 2, 0, 9)) == 22
    # with l = k the margin factor (l - k) would vanish, but such projections
    # do not exist: the constructor rejects k >= l
    with pytest.raises(InvalidParameters):
        ProjectionParams(29, 8, 2, 2, 9)


def test_divisor_case_examples():
    assert divisor_case(13, 3).h_dim == 95
    assert divisor_case(13, 3).y_dim == 94
    assert divisor_case(28, 8).h_dim == 245
    assert divisor_case(28, 8).y_dim == 244
    assert divisor_case(20, 5).h_dim == 172
    assert divisor_case(20, 5).y_dim == 171
    with pytest.raises(InvalidParameters) as exc:
        divisor_case(9, 3)
    assert exc.value.code == "degree-below-threshold"
    with pytest.raises(InvalidParameters) as exc:
        divisor_case(10, 2)  # h1 = 1 < g = 2 passes; the threshold needs g >= 3
    assert exc.value.code == "genus-too-small"


def test_divisor_case_excluded_from_comparisons():
    pp = ProjectionParams(28, 8, 1, 0, 14)
    with pytest.raises(InvalidParameters) as exc:
        y_vs_target_difference(pp)
    assert exc.value.code == "projection-case-out-of-scope"
    with pytest.raises(InvalidParameters):
        y_vs_nonspecial_difference(pp)
    with pytest.raises(InvalidParameters):
        y_vs_nonspecial_difference(ProjectionParams(29, 8, 2, 1, 9))


def test_lower_bound_matches_parameter_count_on_grid():
    for g in range(3, 22):
        for l in speciality_values(g):
            for m in admissible_m_range(g, l):
                for d in (min_degree_threshold(g, l), 6 * g - 5):
                    for k in range(0, l):
                        pp = ProjectionParams(d, g, l, k, m)
                        assert y_dim_lower_bound(pp) == y_param_count(d, g, l, k, m)


def test_new_component_margins_on_grid():
    # case k > 0: strictly positive margin against every same-degree target
    # component; case k = 0, l > 1: non-negative margin against the
    # non-special component
    for g in range(3, 22):
        for l in speciality_values(g):
            for m in admissible_m_range(g, l):
                for d in (min_degree_threshold(g, l), 6 * g - 5):
                    for k in range(1, l):
                        pp = ProjectionParams(d, g, l, k, m)
                        assert y_vs_target_difference(pp) > 0
                    if l > 1:
                        pp = ProjectionParams(d, g, l, 0, m)
                        assert y_vs_nonspecial_difference(pp) >= 0
