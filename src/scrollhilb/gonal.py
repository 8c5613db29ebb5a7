"""Components of the Hilbert scheme built from general gonal curves.

A general curve with a (unique, base-point-free) pencil of degree ``t``,
``2 < t < gonality of the general curve``, carries special line bundles
obtained by subtracting multiples of the pencil from the canonical bundle.
Twisting a general non-special bundle by such a series produces smooth,
linearly normal special scrolls whose moduli are special: they fill closed
subschemes Z(t, l) of the Hilbert scheme, where ``l`` is the speciality.
This module computes their validity gates, dimensions, and the comparison
against the general-moduli components of the same speciality.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidParameters, _Checked
from .series import _has_general_moduli, gonality_general


def _require_pencil_degree(t: int) -> None:
    """Reject a pencil degree t < 3."""
    if t < 3:
        raise InvalidParameters("gonality-out-of-range", f"t = {t} < 3")


def ballico_a(g: int, t: int) -> int:
    """The unique integer ``a >= 3`` with (a-2)(t-1) < g <= (a-1)(t-1).

    Multiples r*D of the degree-``t`` pencil D on a general t-gonal curve
    have dim |rD| = r exactly for r <= a - 2.  Equals ceil(g/(t-1)) + 1.
    """
    _require_pencil_degree(t)
    a = -(-g // (t - 1)) + 1
    if a < 3:
        raise InvalidParameters("no-valid-a", f"no a >= 3 with (a-2)(t-1) < g = {g}")
    if not (a - 2) * (t - 1) < g <= (a - 1) * (t - 1):
        raise RuntimeError(
            f"ballico_a: a = {a} breaks (a-2)(t-1) < g <= (a-1)(t-1) "
            f"for (g, t) = ({g}, {t}); inexact arithmetic?"
        )
    return a


def kk_margin(g: int, t: int, l: int) -> int:
    """Slack 2g - (t-1) - t(t-1) - l*t(t-1) of the very-ampleness gate of the
    bundle canonical minus (l-1) pencils, l <= 2g/(t(t-1)) - 1/t - 1,
    cross-multiplied by t(t-1).

    The gate holds when the margin is >= 0, with equality when it is 0.  For
    l >= 0 the margin strictly decreases in t >= 1."""
    return 2 * g - (t - 1) - t * (t - 1) - l * t * (t - 1)


def gonal_locus_dimension(g: int, t: int) -> int:
    """Dimension 2g + 2t - 5 of the locus of t-gonal curves in the moduli
    space of genus-g curves, valid for 3 <= t < gonality of the general
    curve (above that the locus is everything, of dimension 3g - 3)."""
    _require_pencil_degree(t)
    gamma = gonality_general(g)
    if t >= gamma:
        raise InvalidParameters(
            "not-proper-gonal-locus", f"t = {t} >= general gonality {gamma}"
        )
    return 2 * g + 2 * t - 5


class _GonalFields(NamedTuple):
    g: int
    t: int
    l: int
    d: int


def _z_gate(g: int, t: int, l: int, d: int, gamma: int) -> InvalidParameters | None:
    """The first gate of Z(t, l) that (g, t, l, d) fails, as an unraised
    error, or None: gonality 2 < t < gamma (the general gonality of g >= 3),
    speciality 2 <= l <= a - 1, very-ampleness, then degree d >= 6g - 5."""
    if not 2 < t < gamma:
        return InvalidParameters("gonality-out-of-range",
                                 f"t = {t} not in (2, {gamma}) for g = {g}")
    a = ballico_a(g, t)
    if not 2 <= l <= a - 1:
        return InvalidParameters("l-out-of-range", f"l = {l} not in [2, {a - 1}]")
    if kk_margin(g, t, l) < 0:
        return InvalidParameters("not-very-ample", f"l*t*(t-1) = {l * t * (t - 1)} exceeds "
                                 f"2g - (t-1) - t(t-1) = {kk_margin(g, t, 0)}")
    if d < 6 * g - 5:
        return InvalidParameters("degree-too-small", f"d = {d} < 6g - 5 = {6 * g - 5}")
    return None


class GonalParams(_Checked, _GonalFields):
    """Validated parameters (g, t, l, d) of a gonal-curve component Z(t, l).

    The Ballico parameter ``a`` and the section degree
    ``m = 2g - 2 - (l-1)t`` are derived properties, never supplied.
    Validation order: genus, then the gates of ``_z_gate``: gonality,
    Ballico parameter, speciality, very-ampleness, degree.
    """

    __slots__ = ()

    def __new__(cls, g: int, t: int, l: int, d: int):
        failure = _z_gate(g, t, l, d, gonality_general(g))  # rejects g < 3
        if failure is not None:
            raise failure
        return tuple.__new__(cls, (g, t, l, d))

    @property
    def a(self) -> int:
        """The Ballico parameter of (g, t): ``ballico_a(g, t)``."""
        return ballico_a(self.g, self.t)

    @property
    def m(self) -> int:
        """Degree of the special section: 2g - 2 - (l-1)t."""
        return 2 * self.g - 2 - (self.l - 1) * self.t

    @property
    def R(self) -> int:
        """Ambient dimension of the scrolls in Z(t, l): d - 2g + 1 + l."""
        return self.d - 2 * self.g + 1 + self.l


make_gonal_params = GonalParams  # the constructor under its older name


def z_component_dimension(gp: GonalParams) -> int:
    """Dimension of Z(t, l): (R+1)^2 + 8(g-1) - 4 - d - 2t(l-2)."""
    R1 = gp.R + 1
    return R1 * R1 + 8 * (gp.g - 1) - 4 - gp.d - 2 * gp.t * (gp.l - 2)


def h_component_dimension_at_gonal_m(gp: GonalParams) -> int:
    """Dimension formula of the general-moduli component with the same
    speciality, evaluated at the gonal section degree m = 2g - 2 - (l-1)t:

        (10 - l)(g - 1) - d - l^2 + t(l-1)(l-2) + (R+1)^2

    The comparison against Z(t, l) uses the formula for every valid
    Z(t, l); the component itself exists only where
    ``series._has_general_moduli(g, l)`` holds (g >= 4l).
    """
    R1 = gp.R + 1
    return (
        (10 - gp.l) * (gp.g - 1)
        - gp.d
        - gp.l * gp.l
        + gp.t * (gp.l - 1) * (gp.l - 2)
        + R1 * R1
    )


def z_vs_h_difference(gp: GonalParams) -> int:
    """Dimension of Z(t, l) minus the general-moduli formula at the gonal
    section degree: (l-2)(g + 1 + l - t(l+1)).

    Zero for l = 2.  For l >= 3, very-ampleness with t >= 3 gives
    g >= t(l+1) + 1, so the difference is at least (l-2)(l+2) > 0; this is
    what certifies that Z(t, l) is not contained in any general-moduli
    component.
    """
    return (gp.l - 2) * (gp.g + 1 + gp.l - gp.t * (gp.l + 1))


def rem19608_family(l: int) -> GonalParams:
    """The family Z(3, l) with g = 3l + 4 and minimal degree d = 6g - 5.

    Defined for l > 4; then g < 4l, so no general-moduli component of
    speciality l exists and the whole classification is special-moduli.
    The very-ampleness gate holds with exact equality for every member.
    """
    if l <= 4:
        raise InvalidParameters("l-out-of-range", f"l = {l} <= 4")
    g = 3 * l + 4
    gp = GonalParams(g=g, t=3, l=l, d=6 * g - 5)
    # equality in the very-ampleness gate: l*6 == 2g - 2 - 6 == 6l
    if kk_margin(gp.g, gp.t, gp.l) != 0:
        raise RuntimeError(f"rem19608_family: very-ampleness is not an equality at l = {l}")
    if _has_general_moduli(gp.g, gp.l):
        raise RuntimeError(f"rem19608_family: g = {gp.g} >= 4l = {4 * gp.l}")
    return gp


def enumerate_z_components(d: int, g: int, l: int) -> list[GonalParams]:
    """All valid Z(t, l) for the given degree, genus and speciality,
    ordered by increasing t.  Empty when no gonality passes the gates
    (in particular whenever d < 6g - 5).

    The valid t form an initial run of [3, gonality): the degree gate and
    l >= 2 do not involve t, while ``a`` and ``kk_margin`` only decrease as
    t grows.  So the walk stops at the first t that fails ``_z_gate``.
    """
    if g < 3:
        return []
    gamma = gonality_general(g)
    out = []
    for t in range(3, gamma):
        if _z_gate(g, t, l, d, gamma) is not None:
            break
        out.append(GonalParams(g, t, l, d))
    return out
