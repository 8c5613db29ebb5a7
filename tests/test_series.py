"""Linear-series arithmetic: Brill-Noether, Clifford, gonality, the maximal
special series and the general-moduli condition.  ``test_certificate.py``
certifies the two Brill-Noether forms' agreement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollhilb import (
    InvalidParameters,
    brill_noether_rho,
    clifford_index_general,
    gonality_general,
    max_special_degree,
    rho_of_bundle,
)
from scrollhilb.series import (
    _first_general_moduli_genus,
    _has_general_moduli,
    _section_degree_range,
)


def max_special_degree_by_enumeration(g: int, h1: int) -> tuple[int, int]:
    """Independent oracle: largest h with g - (h+1)*h1 >= 0, found by search."""
    h = 0
    while g - (h + 2) * h1 >= 0:
        h += 1
    return h, h + g - h1


@pytest.mark.parametrize("g", range(2, 40))
def test_brill_noether_rho_canonical_series(g):
    assert brill_noether_rho(g, g - 1, 2 * g - 2) == 0


def test_brill_noether_rho_examples():
    assert brill_noether_rho(3, 2, 4) == 0
    assert brill_noether_rho(8, 3, 9) == 0 == 8 - 4 * 2


def test_rho_of_bundle_examples():
    assert rho_of_bundle(8, 4, 2) == 0 == brill_noether_rho(8, 3, 9)
    for g in range(2, 20):
        assert rho_of_bundle(g, 7, 0) == g  # non-special bundle
    assert rho_of_bundle(19, 11, 5) == -36  # not on a general curve


def test_clifford_index_general():
    assert clifford_index_general(3) == 1
    assert clifford_index_general(8) == 3
    assert clifford_index_general(9) == 4
    with pytest.raises(InvalidParameters):
        clifford_index_general(2)


def test_gonality_general():
    assert gonality_general(6) == 4
    assert gonality_general(7) == 5
    assert gonality_general(4) == 3
    with pytest.raises(InvalidParameters):
        gonality_general(2)


@pytest.mark.parametrize("g", range(3, 120))
def test_gonality_closed_form(g):
    assert gonality_general(g) == (g + 3) // 2


def test_max_special_degree_examples():
    assert max_special_degree(8, 2) == (3, 9)
    assert max_special_degree(3, 1) == (2, 4)
    assert max_special_degree(19, 5) == (2, 16)


def test_max_special_degree_against_enumeration():
    for g in range(2, 60):
        for h1 in range(1, g):
            assert max_special_degree(g, h1) == max_special_degree_by_enumeration(g, h1)


def test_max_special_degree_maximality():
    for g in range(2, 60):
        for h1 in range(1, g):
            hbar, mbar = max_special_degree(g, h1)
            assert mbar == hbar + g - h1
            assert g - (hbar + 1) * h1 >= 0
            assert g - (hbar + 2) * h1 < 0


def test_max_special_degree_rejects_bad_speciality():
    for g, h1 in [(5, 0), (5, 5), (5, -1), (5, 7)]:
        with pytest.raises(InvalidParameters) as exc:
            max_special_degree(g, h1)
        assert exc.value.code == "speciality-out-of-range"


def test_has_general_moduli_examples():
    assert _has_general_moduli(3, 1) and _has_general_moduli(4, 1)
    assert _has_general_moduli(8, 2) and not _has_general_moduli(7, 2)
    assert not _has_general_moduli(19, 5) and _has_general_moduli(20, 5)


@settings(derandomize=True, max_examples=300)
@given(g=st.integers(-2, 10**6), h1=st.integers(1, 10**6))
def test_has_general_moduli_fails_for_every_larger_speciality(g, h1):
    # scan stops at the first h1 >= 1 without general moduli
    if not _has_general_moduli(g, h1):
        assert not _has_general_moduli(g, h1 + 1)


@settings(derandomize=True, max_examples=300)
@given(h1=st.integers(1, 3) | st.integers(1, 10**30), g=st.integers(-(10**31), 10**31),
       near=st.integers(-3, 3))
def test_general_moduli_start_exactly_at_the_first_genus(h1, g, near):
    # the scan starts its genus walk at this bound
    first = _first_general_moduli_genus(h1)
    for genus in (g, first + near):
        assert _has_general_moduli(genus, h1) == (genus >= first)


@settings(derandomize=True, max_examples=300)
@given(data=st.data(), g=st.integers(3, 10**6))
def test_has_general_moduli_is_exactly_the_bn1_gate(data, g):
    near_gate = st.integers(max(1, g // 4 - 1), min(g - 1, g // 4 + 1))
    h1 = data.draw(st.one_of(st.integers(1, g - 1), near_gate))
    if _has_general_moduli(g, h1):
        _section_degree_range(g, h1)
    else:
        with pytest.raises(InvalidParameters, match="^BN1-violated: "):
            _section_degree_range(g, h1)
