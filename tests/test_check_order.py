"""The validated entry points reject the first violated inequality in their
documented order, over integers up to 10**30 drawn near every boundary.

``ProjectionParams`` is held to the chain it documents (its own k check,
then ``ScrollParams``, then ``require_admissible``); ``require_admissible``
is held to a reference built from the second form of the degree threshold,
``max_special_degree`` and the general-moduli predicate;
``sublocus_codim_h1_1`` to the checks of ``admissible_m_range(g, 1)``, then
the canonical degree.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scrollhilb import (
    InvalidParameters,
    ProjectionParams,
    ScrollParams,
    admissible_m_range,
    section_uniqueness_threshold,
    singular_by_smaller_section,
    sublocus_codim_h1_1,
)
from scrollhilb.scroll import require_admissible
from scrollhilb.series import _has_general_moduli, max_special_degree

BIG = 10**30
ANY = st.integers(-BIG, BIG)


def near(center: int, width: int = 3, lo: int | None = None,
         hi: int | None = None) -> st.SearchStrategy[int]:
    """Integers within ``width`` of ``center``, which is first moved into
    [lo, hi]; the draws stay inside [lo, hi] too."""
    if lo is not None:
        center = max(center, lo)
    if hi is not None:
        center = min(center, hi)
    return st.integers(center - width if lo is None else max(lo, center - width),
                       center + width if hi is None else min(hi, center + width))


def threshold_near(g: int, h1: int) -> int:
    """Where the degree threshold lies, for drawing degrees around it; the
    property, not this, decides which side of it a degree is on."""
    return 4 * g - 3 if h1 == 2 else (7 * g - g % 2) // 2 - 2 * h1 + 2


def m_range_near(g: int, h1: int) -> tuple[int, int]:
    """Where the section-degree range lies, for drawing degrees around it."""
    if h1 == 0:
        return g + 3, g + 3
    return g + 3 - h1, g // h1 - 1 + g - h1


def _outcome(build, *args):
    """The record ``build(*args)`` returns, or the code and message it raises."""
    try:
        return build(*args)
    except InvalidParameters as exc:
        return exc.code, str(exc)


@st.composite
def projection_args(draw) -> tuple[int, int, int, int, int]:
    g = draw(st.one_of(near(3), near(12), st.integers(7, BIG), ANY))
    l = draw(st.one_of(near(1), near(g // 4), near(g), st.integers(1, BIG), ANY))
    thr = threshold_near(g, l)
    d = draw(st.one_of(near(2 * g + 2), near(thr), st.integers(thr, thr + BIG), ANY))
    k = draw(st.one_of(near(0, lo=0, hi=max(0, l - 1)), st.integers(0, max(0, l - 1)),
                       near(l), ANY))
    lo, hi = m_range_near(g, l)
    m = draw(st.one_of(near(lo), near(hi), near(4), st.integers(lo, max(lo, hi)), ANY))
    return d, g, l, k, m


def _documented_chain(d, g, l, k, m):
    if not 0 <= k < l:
        raise InvalidParameters("k-out-of-range", f"k = {k} not in [0, l) with l = {l}")
    require_admissible(ScrollParams(d, g, l), m)
    return (d, g, l, k, m)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(args=projection_args())
@example(args=(40, 9, 1, 1, 16))  # k-out-of-range
@example(args=(40, 2, 1, 0, 16))  # genus-too-small
@example(args=(40, 9, 9, 0, 16))  # speciality-out-of-range
@example(args=(19, 9, 1, 0, 16))  # degree-too-small
@example(args=(29, 9, 1, 0, 16))  # degree-below-threshold
@example(args=(40, 9, 3, 0, 9))  # BN1-violated
@example(args=(40, 9, 1, 0, 17))  # m-out-of-range
@example(args=(40, 9, 1, 0, 16))  # a record
@example(args=(12, 3, 1, 0, 4))  # the (3, 1) record
def test_projection_params_checks_in_its_documented_order(args):
    got = _outcome(ProjectionParams, *args)
    assert got == _outcome(_documented_chain, *args)
    if isinstance(got, ProjectionParams):
        assert got == args


def _reference_admissible(d: int, g: int, h1: int, m: int) -> tuple[str, str] | None:
    """require_admissible written from the Clifford-index form of the degree
    threshold (4g - 3 at h1 = 2) and from max_special_degree's mbar."""
    threshold = 4 * g - 3 if h1 == 2 else section_uniqueness_threshold(g, h1)
    if d < threshold:
        return ("degree-below-threshold",
                f"degree-below-threshold: d = {d} < {threshold} for (g, h1) = ({g}, {h1})")
    if not _has_general_moduli(g, h1):
        return "BN1-violated", f"BN1-violated: g < 4*h1 ({g} < {4 * h1})"
    lo, hi = (4, 4) if (g, h1) == (3, 1) else (g + 3 - h1, max_special_degree(g, h1)[1])
    if not lo <= m <= hi:
        return ("m-out-of-range",
                f"m-out-of-range: m = {m} not in [{lo}, {hi}] for (g, h1) = ({g}, {h1})")
    return None


@st.composite
def scroll_and_m(draw) -> tuple[ScrollParams, int]:
    g = draw(st.one_of(near(6, lo=3), st.integers(3, BIG)))
    h1 = draw(st.one_of(near(1, lo=1, hi=g - 1), near(g // 4, lo=1, hi=g - 1),
                        near(g - 1, lo=1, hi=g - 1), st.integers(1, g - 1)))
    thr = max(threshold_near(g, h1), 2 * g + 2)
    d = draw(st.one_of(near(thr, lo=2 * g + 2), near(2 * g + 2, lo=2 * g + 2),
                       st.integers(thr, thr + BIG), st.integers(2 * g + 2, 2 * g + 2 + BIG)))
    lo, hi = m_range_near(g, h1)
    m = draw(st.one_of(near(lo), near(hi), near(4), st.integers(lo, max(lo, hi)), ANY))
    return ScrollParams(d, g, h1), m


@settings(derandomize=True, max_examples=500, deadline=None)
@given(case=scroll_and_m())
@example(case=(ScrollParams(29, 9, 1), 16))  # degree-below-threshold
@example(case=(ScrollParams(32, 9, 2), 9))  # degree-below-threshold, 4g - 3 form
@example(case=(ScrollParams(40, 9, 3), 9))  # BN1-violated
@example(case=(ScrollParams(40, 9, 2), 8))  # m-out-of-range, below
@example(case=(ScrollParams(40, 9, 2), 10))  # m-out-of-range, above
@example(case=(ScrollParams(33, 9, 2), 10))  # admissible
@example(case=(ScrollParams(12, 3, 1), 4))  # admissible, the (3, 1) case
def test_require_admissible_matches_the_reference(case):
    p, m = case
    assert _outcome(require_admissible, p, m) == _reference_admissible(*p, m)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), g=st.integers(31, BIG))
def test_singular_by_smaller_section_reports_the_outer_degree_first(data, g):
    # every h1 <= g/4 has general moduli
    h1 = data.draw(st.one_of(near(1, lo=1), near(g // 4, hi=g // 4), st.integers(1, g // 4)))
    lo, hi = g + 3 - h1, max_special_degree(g, h1)[1]
    outside = st.one_of(near(lo - 4, hi=lo - 1), near(hi + 4, lo=hi + 1),
                        st.integers(-BIG, lo - 1), st.integers(hi + 1, hi + BIG))
    m_outer, m_inner = data.draw(outside), data.draw(outside)
    with pytest.raises(InvalidParameters, match="^m-out-of-range: ") as exc:
        singular_by_smaller_section(g, h1, m_outer, m_inner)
    assert exc.value.detail.startswith(f"m = {m_outer} not in [{lo}, {hi}]")



def _reference_sublocus(g: int, m: int) -> int | str:
    """sublocus_codim_h1_1 written from its documented order, as its result
    or the code it raises: speciality 0 < 1 < g, general moduli (g >= 4, or
    g = 3), the range [g + 2, 2g - 2] ([4, 4] at g = 3), then m below 2g - 2."""
    if g <= 1:
        return "speciality-out-of-range"
    if g == 2:
        return "BN1-violated"
    lo, hi = (4, 4) if g == 3 else (g + 2, 2 * g - 2)
    if not lo <= m <= hi:
        return "m-out-of-range"
    if m == 2 * g - 2:
        return "m-not-below-canonical"
    return 2 * g - 2 - m


@st.composite
def genus_and_m(draw) -> tuple[int, int]:
    g = draw(st.one_of(near(3), st.integers(4, BIG), ANY))
    m = draw(st.one_of(near(g + 2), near(2 * g - 2), near(4),
                       st.integers(g + 2, max(g + 2, 2 * g - 2)), ANY))
    return g, m


@settings(derandomize=True, max_examples=500, deadline=None)
@given(case=genus_and_m())
@example(case=(1, 0))  # speciality-out-of-range
@example(case=(2, 2))  # BN1-violated
@example(case=(3, 3))  # m-out-of-range, the (3, 1) case
@example(case=(3, 4))  # m-not-below-canonical, the (3, 1) case
@example(case=(10, 11))  # m-out-of-range, below
@example(case=(10, 19))  # m-out-of-range, above
@example(case=(10, 18))  # m-not-below-canonical
@example(case=(10, 12))  # the codimension 6
def test_sublocus_codim_h1_1_keeps_to_the_admissible_range(case):
    g, m = case
    try:
        got = sublocus_codim_h1_1(g, m)
    except InvalidParameters as exc:
        got = exc.code
    assert got == _reference_sublocus(g, m)
    below_canonical = g >= 3 and m in admissible_m_range(g, 1) and m != 2 * g - 2
    assert isinstance(got, int) == below_canonical
