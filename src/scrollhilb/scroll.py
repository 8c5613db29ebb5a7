"""Invariants of a single smooth, linearly normal, special scroll.

A scroll here is determined by its degree ``d``, sectional genus ``g`` and
speciality ``h1``; it spans a projective space of dimension
``R = d - 2g + 1 + h1``.  In the working range (``g >= 3``, ``0 < h1 < g``,
``d >= 2g + 2``) the scroll carries a unique special section, of some degree
``m``, whose self-intersection is ``2m - d``; the rank-two bundle defining the
scroll is always unstable, and decomposable for large degree.

Two modelling conventions used throughout (the "general-N convention"):
the complementary line bundle ``N`` of degree ``d - m`` and the twist
``N (-section)`` of degree ``d - 2m`` are treated as *general* line bundles of
their degrees, so a degree-``e`` bundle has ``h0 = max(0, e - g + 1)`` and
``h1 = max(0, g - 1 - e)``.  Residual base points default to zero and are
opted into explicitly where they matter.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import InvalidParameters, _Checked
from .series import _require_speciality, _section_degree_range, clifford_index_general


class BundleClass(enum.Enum):
    """Stability class of the rank-two bundle underlying a special scroll."""

    UNSTABLE = "unstable"
    UNSTABLE_DECOMPOSABLE = "unstable-decomposable"


def _require_scroll(d: int, g: int, h1: int) -> None:
    """Reject the first violated inequality of a scroll's (d, g, h1), in the
    order genus, speciality, degree."""
    if g < 3:
        raise InvalidParameters("genus-too-small", f"g = {g} < 3")
    _require_speciality(g, h1)
    if d < 2 * g + 2:
        raise InvalidParameters("degree-too-small", f"d = {d} < 2g + 2 = {2 * g + 2}")


class _ScrollFields(NamedTuple):
    d: int
    g: int
    h1: int


class ScrollParams(_Checked, _ScrollFields):
    """Validated (degree, genus, speciality) triple of a special scroll.

    Validation rejects the first violated inequality, in the order
    genus, speciality, degree.  These give R >= 4.  The speciality stays
    below g: a scroll with non-special determinant has speciality at most g,
    and equality forces a cone once d >= 2g + 2.  Scrolls with special
    determinant (degree <= 2g - 2) are outside the working range.
    """

    __slots__ = ()

    def __new__(cls, d: int, g: int, h1: int):
        _require_scroll(d, g, h1)
        return tuple.__new__(cls, (d, g, h1))

    @property
    def R(self) -> int:
        """Dimension of the ambient projective space: d - 2g + 1 + h1."""
        return self.d - 2 * self.g + 1 + self.h1


make_scroll = ScrollParams  # the constructor under its older name


class CohomologyTriple(NamedTuple):
    """Cohomology of the normal bundle of a scroll in its ambient space:
    ``h0`` and ``h1n`` are its h0 and h1; h2 and chi follow from them."""

    h0: int
    h1n: int

    @property
    def h2(self) -> int:
        """h2 of the normal bundle, which vanishes."""
        return 0

    @property
    def chi(self) -> int:
        """Euler characteristic h0 - h1n (h2 vanishes)."""
        return self.h0 - self.h1n


def section_uniqueness_threshold(g: int, h1: int) -> int:
    """Degree bound 4g - 2*h1 - Cliff + 1 (Clifford-index form) above which
    the special section of the scroll is unique."""
    return 4 * g - 2 * h1 - clifford_index_general(g) + 1


def general_moduli_threshold(g: int, h1: int) -> int:
    """Degree bound (7g - eps)/2 - 2*h1 + 2 with eps = g mod 2.

    Equals :func:`section_uniqueness_threshold` for every (g, h1); both are
    implemented and their equality is a consistency check of the test suite.
    """
    if g < 3:
        raise InvalidParameters("genus-too-small", f"g = {g} < 3")
    eps = g % 2
    return (7 * g - eps) // 2 - 2 * h1 + 2


def min_degree_threshold(g: int, h1: int) -> int:
    """Minimal degree for the component classification to apply.

    4g - 3 when h1 = 2, otherwise the general-moduli bound
    (7g - eps)/2 - 2*h1 + 2.
    """
    _require_speciality(g, h1)
    return _degree_threshold(g, h1)


def _degree_threshold(g: int, h1: int, d: int | None = None, cap: int | None = None) -> int:
    """:func:`min_degree_threshold` of a pair with 0 < h1 < g, lowered to
    ``cap`` if that is smaller; the one check of a degree ``d`` against it."""
    threshold = 4 * g - 3 if h1 == 2 else general_moduli_threshold(g, h1)
    if cap is not None and cap < threshold:
        threshold = cap
    if d is not None and d < threshold:
        raise InvalidParameters(
            "degree-below-threshold", f"d = {d} < {threshold} for (g, h1) = ({g}, {h1})"
        )
    return threshold


def h0_general_line_bundle(g: int, e: int) -> int:
    """h0 of a general line bundle of degree ``e`` on a genus-``g`` curve."""
    return max(0, e - g + 1)


def h1_general_line_bundle(g: int, e: int) -> int:
    """h1 of a general line bundle of degree ``e`` on a genus-``g`` curve."""
    return max(0, g - 1 - e)


def require_admissible(p: ScrollParams, m: int) -> None:
    """Check d against the degree threshold and m against the admissible
    section-degree range; reject the first violated inequality."""
    d, g, h1 = p
    _degree_threshold(g, h1, d)
    _section_degree_range(g, h1, m)  # may raise BN1-violated


def _require_section(p: ScrollParams, m: int) -> None:
    """Reject a special section of degree ``m`` whose dimension
    ``h = m - g + h1`` is below 2, then one whose self-intersection
    ``2m - d`` is not negative."""
    h = m - p.g + p.h1
    if h < 2:
        raise InvalidParameters("not-a-section", f"h = m - g + h1 = {h} < 2")
    gamma_sq = 2 * m - p.d
    if gamma_sq >= 0:
        raise InvalidParameters("nonnegative-self-intersection", f"2m - d = {gamma_sq} >= 0")


def _bundle_class(p: ScrollParams, m: int) -> BundleClass:
    """:func:`stability_class` of a section with negative self-intersection."""
    if p.d >= 6 * p.g - 5 or h1_general_line_bundle(p.g, p.d - 2 * m) == 0:
        return BundleClass.UNSTABLE_DECOMPOSABLE
    return BundleClass.UNSTABLE


def stability_class(p: ScrollParams, m: int) -> BundleClass:
    """Stability of the rank-two bundle of a scroll with special section of
    degree ``m``.

    The complement degree d - m exceeds the slope d/2, so the bundle is
    always unstable; it splits when d >= 6g - 5 (the extension space
    vanishes), or when the general-N convention already gives extension
    rank 0.

    It checks the degree against the lower threshold
    ``min(4g - 3, min_degree_threshold)``, then the section (codes 7-8), but
    does not restrict ``m`` to the general-moduli range (codes 5-6):
    sections of scrolls over curves with special moduli (e.g. gonal ones)
    are classified by the same argument.
    """
    _degree_threshold(p.g, p.h1, p.d, cap=4 * p.g - 3)
    _require_section(p, m)
    return _bundle_class(p, m)


def normal_bundle_cohomology(
    p: ScrollParams, m: int, t_basepoints: int = 0
) -> CohomologyTriple:
    """Cohomology of the normal bundle of the scroll in P^R.

    chi = 7(g-1) + (R+1)(R+1-h1) and
    h1n = h1*(d-m-g+1) - (d-2m+g-1) + t, where ``t`` counts base points of
    the residual series of the special section (0 for a general section).
    h2 vanishes, so the triple holds h0 = chi + h1n and h1n, and gives chi
    back as h0 - h1n.  A negative h1n signals a hypothesis violation
    upstream (e.g. speciality 1 with a non-canonical section and t = 0).
    """
    require_admissible(p, m)
    if t_basepoints < 0:
        raise InvalidParameters("negative-basepoints", f"t = {t_basepoints} < 0")
    R1 = p.R + 1
    chi = 7 * (p.g - 1) + R1 * (R1 - p.h1)
    h1n = p.h1 * (p.d - m - p.g + 1) - (p.d - 2 * m + p.g - 1) + t_basepoints
    if h1n < 0:
        raise InvalidParameters("negative-h1", f"h1(normal bundle) = {h1n} < 0")
    return CohomologyTriple(chi + h1n, h1n)


def h0_explicit(p: ScrollParams, m: int) -> int:
    """Global sections of the normal bundle, written directly as
    5(g-1) + (R+1)^2 - h1*h0(L) - chi(N (x) L^dual).

    Here h0(L) = m - g + 1 + h1 and chi(N (x) L^dual) = d - 2m + 1 - g.
    Must agree with ``normal_bundle_cohomology(p, m).h0``.
    """
    require_admissible(p, m)
    d, g, h1 = p
    R1 = d - 2 * g + 2 + h1
    h0L = m - g + 1 + h1
    chi_NL = d - 2 * m + 1 - g
    return 5 * (g - 1) + R1 * R1 - h1 * h0L - chi_NL


def aut_dimension(p: ScrollParams, m: int) -> int:
    """Dimension of the projectivity group fixing the scroll.

    Equals h0 of the general twist of degree d - 2m, plus one when the
    bundle is decomposable (:func:`stability_class`, which also validates
    the section).
    """
    decomposable = stability_class(p, m) is BundleClass.UNSTABLE_DECOMPOSABLE
    return h0_general_line_bundle(p.g, p.d - 2 * m) + (1 if decomposable else 0)
