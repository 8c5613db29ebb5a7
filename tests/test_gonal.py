"""Gonal-curve components: gates, dimensions, comparison with the
general-moduli components.  ``test_certificate.py`` certifies their
dimension identities for every integer, and ``test_records.py`` checks that
``a``, ``m`` and ``R`` are properties, not parameters."""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scrollhilb import gonal as gonalmod
from scrollhilb import (
    GonalParams,
    InvalidParameters,
    ScrollParams,
    admissible_m_range,
    ballico_a,
    component_dimension,
    component_dimension_formula,
    enumerate_z_components,
    gonal_locus_dimension,
    gonality_general,
    h_component_dimension_at_gonal_m,
    kk_margin,
    rem19608_family,
    z_component_dimension,
    z_vs_h_difference,
)


def gonal_grid(gmax: int = 26):
    """All valid gonal parameter records with g <= gmax and two degrees."""
    for g in range(3, gmax + 1):
        for t in range(3, gonality_general(g)):
            for l in range(2, g):
                for d in (6 * g - 5, 6 * g + 2):
                    try:
                        yield GonalParams(g=g, t=t, l=l, d=d)
                    except InvalidParameters:
                        continue


def test_ballico_a_examples():
    assert ballico_a(19, 3) == 11  # equals ceil(g/2) + 1 for t = 3
    assert ballico_a(8, 3) == 5
    assert ballico_a(6, 4) == 3


def test_ballico_a_sandwich_uniqueness():
    for g in range(2, 80):
        for t in range(3, 12):
            try:
                a = ballico_a(g, t)
            except InvalidParameters as exc:
                assert exc.code == "no-valid-a"
                assert g <= t - 1
                continue
            assert a >= 3
            assert (a - 2) * (t - 1) < g <= (a - 1) * (t - 1)
            # no other integer satisfies the sandwich
            for b in range(3, a + 5):
                if b != a:
                    assert not ((b - 2) * (t - 1) < g <= (b - 1) * (t - 1))


def test_ballico_a_sandwich_check_fires_under_optimize():
    # a float genus loses the low bits of ceil(g/(t-1)), so the computed a
    # misses the sandwich; the check must raise even with asserts stripped
    src = str(Path(gonalmod.__file__).resolve().parents[1])
    code = (
        "from scrollhilb import ballico_a\n"
        "try:\n    ballico_a(1e17, 3)\nexcept RuntimeError as exc:\n"
        "    print('raised', exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env={"PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.startswith("raised ballico_a: a = ")


def test_ballico_a_rejects_small_gonality():
    with pytest.raises(InvalidParameters) as exc:
        ballico_a(10, 2)
    assert exc.value.code == "gonality-out-of-range"


def test_kk_margin_sign_examples():
    # the gate holds exactly when the margin is >= 0; (19, 3, 5) is the
    # equality case, where both sides of the cross-multiplied gate agree
    assert kk_margin(19, 3, 5) == 0
    assert 5 * 3 * 2 == 2 * 19 - 2 - 3 * 2
    assert kk_margin(19, 3, 6) == -6 < 0
    assert kk_margin(8, 3, 1) == 2 * 8 - 2 - 6 - 6 >= 0


def test_kk_margin_decreases_in_t():
    for g in range(3, 60):
        for l in range(0, g + 2):
            for t in range(1, g):
                assert kk_margin(g, t + 1, l) < kk_margin(g, t, l)


def test_gonal_locus_dimension():
    assert gonal_locus_dimension(19, 3) == 39
    assert gonal_locus_dimension(8, 3) == 17
    with pytest.raises(InvalidParameters) as exc:
        gonal_locus_dimension(6, 4)  # t equals the general gonality
    assert exc.value.code == "not-proper-gonal-locus"


def test_gonal_locus_is_proper():
    for g in range(3, 60):
        for t in range(3, gonality_general(g)):
            assert gonal_locus_dimension(g, t) < 3 * g - 3


def test_gonal_params_validation_order():
    assert GonalParams(19, 3, 5, 110).a == 11
    assert GonalParams(19, 3, 5, 110).m == 24
    cases = [
        ((19, 2, 5, 110), "gonality-out-of-range"),
        ((19, 11, 5, 110), "gonality-out-of-range"),  # t = general gonality
        ((8, 3, 5, 100), "l-out-of-range"),  # a = 5 forces l <= 4
        ((19, 3, 6, 115), "not-very-ample"),
        ((19, 3, 5, 100), "degree-too-small"),  # d < 6g - 5 = 109
    ]
    for args, code in cases:
        with pytest.raises(InvalidParameters) as exc:
            GonalParams(*args)
        assert exc.value.code == code, args


def test_z_component_dimension_examples():
    assert z_component_dimension(GonalParams(19, 3, 5, 110)) == 6253
    assert z_component_dimension(GonalParams(19, 3, 2, 110)) == 5806


def test_h_component_dimension_examples():
    gp = GonalParams(19, 3, 5, 110)
    assert h_component_dimension_at_gonal_m(gp) == 6232
    gp = GonalParams(20, 3, 5, 115)
    assert h_component_dimension_at_gonal_m(gp) == 6715


def test_z_vs_h_difference_examples():
    assert z_vs_h_difference(GonalParams(19, 3, 5, 110)) == 21
    assert z_vs_h_difference(GonalParams(20, 3, 5, 115)) == 24
    assert z_vs_h_difference(GonalParams(19, 3, 2, 110)) == 0


def test_difference_is_non_negative_on_grid():
    # non-negative under the very-ampleness gate, so the gonal component
    # is never contained in a general-moduli one
    for gp in gonal_grid():
        assert z_vs_h_difference(gp) >= 0


@st.composite
def large_gonal_params(draw, gmax: int = 10**6) -> GonalParams:
    """A valid Z(t, l) with g <= gmax: a t that passes the very-ampleness
    gate at l = 2, then l up to both speciality gates, then d >= 6g - 5."""
    g = draw(st.integers(10, gmax))  # kk_margin(g, 3, 2) >= 0 needs g >= 10
    t = draw(st.integers(3, 3 + math.isqrt(g)))
    assume(kk_margin(g, t, 2) >= 0)
    l_max = min(
        (g - 1) // (t - 1) + 1,  # (l-1)(t-1) < g, i.e. l <= a - 1
        (2 * g - (t - 1) - t * (t - 1)) // (t * (t - 1)),  # kk_margin(g, t, l) >= 0
    )
    l = draw(st.integers(2, l_max))
    return GonalParams(g=g, t=t, l=l, d=6 * g - 5 + draw(st.integers(0, 10**6)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(gp=large_gonal_params())
def test_difference_is_zero_at_l2_and_positive_above(gp):
    # very-ampleness with t >= 3 gives g >= t(l+1) + 1
    diff = z_vs_h_difference(gp)
    if gp.l == 2:
        assert diff == 0
    else:
        assert diff >= (gp.l - 2) * (gp.l + 2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(gp=large_gonal_params())
def test_enumeration_finds_every_valid_z_at_large_genus(gp):
    assert gp in enumerate_z_components(gp.d, gp.g, gp.l)


def test_speciality_two_equidimensionality():
    # every valid Z(t, 2) has the dimension of the (all equal) general-moduli
    # components, independent of t
    for gp in gonal_grid():
        if gp.l != 2 or gp.g < 8:
            continue
        p = ScrollParams(gp.d, gp.g, 2)
        for m in admissible_m_range(gp.g, 2):
            assert z_component_dimension(gp) == component_dimension(p, m)
        assert z_component_dimension(gp) == component_dimension_formula(
            gp.d, gp.g, 2, 2 * gp.g - 2 - gp.t
        )


def test_rem19608_family():
    gp = rem19608_family(5)
    assert (gp.g, gp.t, gp.d, gp.a) == (19, 3, 109, 11)
    gp = rem19608_family(6)
    assert (gp.g, gp.t, gp.d, gp.a) == (22, 3, 127, 12)
    assert 6 * 6 == 2 * 22 - 2 - 6  # the very-ampleness gate with equality
    with pytest.raises(InvalidParameters):
        rem19608_family(4)


def test_rem19608_family_invariant_checks(monkeypatch):
    monkeypatch.setattr(gonalmod, "kk_margin", lambda g, t, l: 1)
    with pytest.raises(RuntimeError, match="very-ampleness"):
        rem19608_family(5)
    monkeypatch.setattr(gonalmod, "kk_margin", lambda g, t, l: 0)
    monkeypatch.setattr(
        gonalmod, "GonalParams", lambda g, t, l, d: SimpleNamespace(g=4 * l, t=t, l=l, d=d)
    )
    with pytest.raises(RuntimeError, match="4l"):
        rem19608_family(5)


@pytest.mark.parametrize("l", range(5, 13))
def test_rem19608_family_kk_equality(l):
    gp = rem19608_family(l)
    assert gp.g == 3 * l + 4 < 4 * l
    assert gp.l * gp.t * (gp.t - 1) == 2 * gp.g - (gp.t - 1) - gp.t * (gp.t - 1)


def test_enumerate_z_components():
    assert enumerate_z_components(29, 8, 2) == []  # d below 6g - 5
    zs = enumerate_z_components(55, 10, 2)
    assert [(gp.t, gp.l) for gp in zs] == [(3, 2)]
    zs = enumerate_z_components(121, 21, 2)
    assert [gp.t for gp in zs] == [3, 4]  # two gonalities pass every gate


def _enumerate_brute(d: int, g: int, l: int) -> list[GonalParams]:
    """Reference enumeration: try every t in [3, gonality) and keep the ones
    GonalParams accepts."""
    out = []
    if g < 3 or l < 2:
        return out
    for t in range(3, gonality_general(g)):
        try:
            out.append(GonalParams(g=g, t=t, l=l, d=d))
        except InvalidParameters:
            continue
    return out


def test_enumerate_z_components_matches_brute_force():
    nonempty = 0
    for g in range(-2, 61):
        for l in range(-1, g + 3):
            for d in (6 * g - 6, 6 * g - 5, 6 * g + 7):
                zs = enumerate_z_components(d, g, l)
                assert zs == _enumerate_brute(d, g, l), (d, g, l)
                nonempty += bool(zs)
    assert nonempty > 500


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    g=st.integers(3, 10**6),
    l=st.one_of(st.integers(-1, 12), st.integers(-1, 10**6 + 2)),
    dd=st.sampled_from((-1, 0, 7, 10**6)),
)
def test_enumerate_z_components_is_the_valid_prefix(g, l, dd):
    d = 6 * g - 5 + dd
    zs = enumerate_z_components(d, g, l)
    ts = [gp.t for gp in zs]
    assert ts == list(range(3, 3 + len(ts)))
    for gp in zs:
        assert gp == GonalParams(g=g, t=gp.t, l=l, d=d)
    t_next = 3 + len(ts)
    if t_next < gonality_general(g):
        with pytest.raises(InvalidParameters):
            GonalParams(g=g, t=t_next, l=l, d=d)
