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

from .errors import InvalidParameters
from .series import SeriesSpec, _has_general_moduli, gonality_general


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
    """Slack 2g - (t-1) - t(t-1) - l*t(t-1) of the very-ampleness gate
    l <= 2g/(t(t-1)) - 1/t - 1, cross-multiplied by t(t-1).

    The gate holds when the margin is >= 0, with equality when it is 0.  For
    l >= 0 the margin strictly decreases in t >= 1."""
    return 2 * g - (t - 1) - t * (t - 1) - l * t * (t - 1)


def kk_very_ample(g: int, t: int, l: int) -> bool:
    """Very-ampleness gate for the bundle canonical minus (l-1) pencils:
    l <= 2g/(t(t-1)) - 1/t - 1, checked by cross-multiplication."""
    return kk_margin(g, t, l) >= 0


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


def special_residual_series(g: int, t: int, r: int) -> SeriesSpec:
    """The series canonical minus r pencils on a general t-gonal curve.

    Degree 2g - 2 - r*t, speciality r + 1, and h0 = g - r(t-1); defined for
    1 <= r <= a - 2 with ``a`` the Ballico parameter.
    """
    a = ballico_a(g, t)
    if not 1 <= r <= a - 2:
        raise InvalidParameters("r-out-of-range", f"r = {r} not in [1, {a - 2}]")
    m = 2 * g - 2 - r * t
    return SeriesSpec(g=g, m=m, h=g - r * (t - 1) - 1, i=r + 1)


class _GonalFields(NamedTuple):
    g: int
    t: int
    l: int
    d: int
    a: int
    m: int


class GonalParams(_GonalFields):
    """Validated parameters of a gonal-curve component Z(t, l).

    ``a`` (the Ballico parameter) and the section degree
    ``m = 2g - 2 - (l-1)t`` are derived, never supplied.  Validation order:
    genus, gonality, Ballico parameter, speciality, very-ampleness, degree.
    """

    __slots__ = ()

    def __new__(cls, g: int, t: int, l: int, d: int):
        gamma = gonality_general(g)  # rejects g < 3
        if not 2 < t < gamma:
            raise InvalidParameters(
                "gonality-out-of-range", f"t = {t} not in (2, {gamma}) for g = {g}"
            )
        a = ballico_a(g, t)
        if not 2 <= l <= a - 1:
            raise InvalidParameters("l-out-of-range", f"l = {l} not in [2, {a - 1}]")
        if not kk_very_ample(g, t, l):
            raise InvalidParameters(
                "not-very-ample",
                f"l*t*(t-1) = {l * t * (t - 1)} exceeds "
                f"2g - (t-1) - t(t-1) = {kk_margin(g, t, 0)}",
            )
        if d < 6 * g - 5:
            raise InvalidParameters("degree-too-small", f"d = {d} < 6g - 5 = {6 * g - 5}")
        return tuple.__new__(cls, (g, t, l, d, a, 2 * g - 2 - (l - 1) * t))

    @classmethod
    def _make(cls, iterable):
        """Build from (g, t, l, d) through the constructor's checks; a and m,
        when the iterable carries them (``_replace`` passes all six fields),
        are derived again."""
        g, t, l, d, *_ = iterable
        return cls(g, t, l, d)

    def _replace(self, /, **kwds):
        """A copy with some of g, t, l, d replaced, checked as by the
        constructor; a and m are derived again, never replaced."""
        if "a" in kwds or "m" in kwds:
            raise ValueError("a and m are derived from (g, t, l, d) and cannot be replaced")
        return super()._replace(**kwds)

    def __getnewargs__(self):
        return self[:4]

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

    The valid t form an initial run of [3, gonality): the degree gate
    d >= 6g - 5 does not involve t; for l >= 2, l <= a - 1 with
    a = ceil(g/(t-1)) + 1 is equivalent to (l-1)(t-1) < g, whose left side
    grows with t; and the very-ampleness margin (``kk_margin``) decreases in
    t.  So the walk stops at the first t that fails, and only survivors are
    constructed (each still fully validated by ``GonalParams``).
    """
    if g < 3 or l < 2 or d < 6 * g - 5:
        return []
    out = []
    for t in range(3, gonality_general(g)):
        if (l - 1) * (t - 1) >= g or kk_margin(g, t, l) < 0:
            break
        out.append(GonalParams(g=g, t=t, l=l, d=d))
    return out
