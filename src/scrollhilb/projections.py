"""Dimension accounting for families of projected scrolls.

A general scroll of speciality ``l`` in its natural ambient space can be
projected to the smaller space P^r, r = d - 2g + 1 + k with 0 <= k < l, in
which linearly normal scrolls have speciality ``k``.  The projected family
Y(k, l) at section degree ``m`` has a dimension *lower bound* from a
parameter count; comparing it against the speciality-``k`` components shows
that, except in the single divisor case (l, k, m) = (1, 0, 2g-2), the
projections fill components of their own.  Only the divisor case carries an
exact dimension (one less than the non-special component containing it).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidParameters, _Checked
from .scroll import _degree_threshold, _require_scroll
from .series import _require_speciality, _section_degree_range


class _ProjectionFields(NamedTuple):
    d: int
    g: int
    l: int
    k: int
    m: int


class ProjectionParams(_Checked, _ProjectionFields):
    """Source component (d, g, l, m) plus target speciality k < l.

    ``r = d - 2g + 1 + k`` is the target ambient dimension.  The source
    tuple must be a valid general-moduli component tuple of speciality l,
    which gives r >= 3.
    """

    __slots__ = ()

    def __new__(cls, d: int, g: int, l: int, k: int, m: int):
        if not 0 <= k < l:
            raise InvalidParameters("k-out-of-range", f"k = {k} not in [0, l) with l = {l}")
        # the checks of ScrollParams(d, g, l), then of require_admissible(., m)
        _require_scroll(d, g, l)
        _degree_threshold(g, l, d)
        _section_degree_range(g, l, m)
        return tuple.__new__(cls, (d, g, l, k, m))

    @property
    def r(self) -> int:
        return self.d - 2 * self.g + 1 + self.k


make_projection_params = ProjectionParams  # the constructor under its older name


class DivisorCaseDims(NamedTuple):
    h_dim: int
    y_dim: int


def y_dim_lower_bound(pp: ProjectionParams) -> int:
    """Parameter-count lower bound for the projected family:

        5g-5 + (r+1)^2 - chi(N (x) L^dual) - l(m-g+l+1) + (l-k)(r+1)

    with chi(N (x) L^dual) = d - 2m + 1 - g.  This is a lower bound, not an
    asserted dimension, except in the divisor case where it is attained.
    """
    r1 = pp.r + 1
    chi_NL = pp.d - 2 * pp.m + 1 - pp.g
    return (
        5 * pp.g
        - 5
        + r1 * r1
        - chi_NL
        - pp.l * (pp.m - pp.g + pp.l + 1)
        + (pp.l - pp.k) * r1
    )


def y_vs_target_difference(pp: ProjectionParams) -> int:
    """Margin (l-k)(d-m-g+1-k-l) of the projected family over the
    speciality-k dimension formula at the same section degree.

    The margin is k(l-k) below the difference
    ``y_dim_lower_bound(pp) - component_dimension_formula(d, g, k, m)``, so a
    positive value certifies, conservatively, that the projections fill a
    component different from every speciality-k general-moduli component.
    ``m`` may lie outside the speciality-k range, where the formula is not
    the dimension of a component.  Defined for k > 0, or for k = 0 with
    l > 1.  The pair (k, l) = (0, 1) has no such comparison at any m; of its
    section degrees only m = 2g - 2, the divisor case, has a dimension, given
    by :func:`divisor_case`.
    """
    if pp.k == 0 and pp.l == 1:
        raise InvalidParameters(
            "projection-case-out-of-scope",
            "(k, l) = (0, 1) has no new-component comparison; only its divisor "
            f"case m = 2g - 2 = {2 * pp.g - 2} has a dimension",
        )
    return (pp.l - pp.k) * (pp.d - pp.m - pp.g + 1 - pp.k - pp.l)


def y_vs_nonspecial_difference(pp: ProjectionParams) -> int:
    """Margin l(d-g-l+1-m) - (g-1+d-2m) by which the projected family
    exceeds the non-special component of P^r (the k = 0 comparison).

    Non-negative values certify that, for l > 1, the projections do not sit
    inside the non-special component.
    """
    if pp.k != 0 or pp.l < 2:
        raise InvalidParameters(
            "projection-case-out-of-scope",
            f"non-special comparison requires k = 0 and l > 1, got (k, l) = ({pp.k}, {pp.l})",
        )
    return pp.l * (pp.d - pp.g - pp.l + 1 - pp.m) - (pp.g - 1 + pp.d - 2 * pp.m)


def divisor_case(d: int, g: int) -> DivisorCaseDims:
    """The (l, k, m) = (1, 0, 2g-2) projection.

    The projected canonical-section scrolls fill a *divisor* inside the
    non-special component, which has dimension 7(g-1) + (r+1)^2 with
    r = d - 2g + 1; here the parameter-count bound is attained:
    y_dim = h_dim - 1 exactly.
    """
    _require_speciality(g, 1)
    _degree_threshold(g, 1, d)
    r1 = d - 2 * g + 2
    h_dim = 7 * (g - 1) + r1 * r1
    return DivisorCaseDims(h_dim=h_dim, y_dim=h_dim - 1)
