"""Exact arithmetic of linear series on smooth curves.

Riemann-Roch bookkeeping, Brill-Noether numbers, Clifford index and gonality
of the general curve, and the maximal degree/dimension of a complete special
series of prescribed speciality.  Everything here is an integer formula; no
floating point is used anywhere in this package, and rational comparisons are
done by cross-multiplication.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidParameters, _Checked


class _SeriesFields(NamedTuple):
    g: int
    m: int
    h: int
    i: int


class SeriesSpec(_Checked, _SeriesFields):
    """A complete special linear series of degree ``m`` on a genus-``g`` curve.

    ``h`` is the projective dimension of the series and ``i`` its speciality;
    Riemann-Roch forces ``h = m - g + i``.
    """

    __slots__ = ()

    def __new__(cls, g: int, m: int, h: int, i: int):
        if g < 2:
            raise InvalidParameters("genus-too-small", f"g = {g} < 2")
        if i < 0 or h < 0:
            raise InvalidParameters(
                "riemann-roch-inconsistent", f"h = {h}, i = {i} must be >= 0"
            )
        if h != m - g + i:
            raise InvalidParameters(
                "riemann-roch-inconsistent", f"h = {h} != m - g + i = {m - g + i}"
            )
        return tuple.__new__(cls, (g, m, h, i))

    @property
    def h0(self) -> int:
        return self.h + 1

    @property
    def brill_noether(self) -> int:
        """g - h0*h1 for this series."""
        return self.g - (self.h + 1) * self.i


def _require_speciality(g: int, h1: int) -> None:
    """Reject a speciality outside 0 < h1 < g."""
    if h1 <= 0 or h1 >= g:
        raise InvalidParameters("speciality-out-of-range", f"h1 = {h1} not in (0, g) with g = {g}")


def riemann_roch_h0(g: int, deg: int, h1: int) -> int:
    """Sections of a line bundle of degree ``deg`` and speciality ``h1``.

    Returns ``deg - g + 1 + h1``; a negative result means the claimed
    speciality is inconsistent and is rejected.
    """
    if g < 0:
        raise InvalidParameters("genus-too-small", f"g = {g} < 0")
    h0 = deg - g + 1 + h1
    if h0 < 0:
        raise InvalidParameters(
            "negative-h0", f"deg - g + 1 + h1 = {h0} < 0 (inconsistent speciality)"
        )
    return h0


def brill_noether_rho(g: int, r: int, m: int) -> int:
    """Brill-Noether number g - (r+1)(g - m + r).

    Nonnegativity governs existence of a complete series of degree ``m`` and
    dimension ``r`` on the general genus-``g`` curve.  Negative values are
    returned as-is; existence decisions belong to the caller.
    """
    return g - (r + 1) * (g - m + r)


def rho_of_bundle(g: int, h0: int, h1: int) -> int:
    """Brill-Noether number in bundle form: g - h0*h1.

    Agrees with :func:`brill_noether_rho` whenever ``h0 = m - g + 1 + h1``.
    """
    return g - h0 * h1


def clifford_index_general(g: int) -> int:
    """Clifford index of the general curve of genus ``g >= 3``: floor((g-1)/2)."""
    if g < 3:
        raise InvalidParameters("genus-too-small", f"g = {g} < 3")
    return (g - 1) // 2


def gonality_general(g: int) -> int:
    """Gonality of the general curve of genus ``g >= 3``.

    (g+2)/2 for even g and (g+3)/2 for odd g, i.e. floor((g+3)/2).
    """
    if g < 3:
        raise InvalidParameters("genus-too-small", f"g = {g} < 3")
    return (g + 3) // 2


def max_special_degree(g: int, h1: int) -> tuple[int, int]:
    """Maximal (dimension, degree) of a complete series of speciality ``h1``
    on the general genus-``g`` curve.

    Returns ``(hbar, mbar)`` with ``hbar = floor(g/h1) - 1`` and
    ``mbar = hbar + g - h1``.  Maximality means ``g - (hbar+1)*h1 >= 0`` while
    ``g - (hbar+2)*h1 < 0``.
    """
    _require_speciality(g, h1)
    hbar = g // h1 - 1
    return hbar, hbar + g - h1


def special_series_degree_bounds(g: int, h1: int) -> tuple[int, int]:
    """Degree range of special sections realizable on a smooth scroll whose
    base curve has general moduli.

    Returns the inclusive range ``(g + 3 - h1, mbar)``, except for the single
    admissible degree 4 when ``(g, h1) = (3, 1)``.  Requires ``g >= 4*h1``
    (so the section's series has dimension >= 3) or the ``(3, 1)`` case.
    """
    _require_speciality(g, h1)
    return _section_degree_range(g, h1)


def _has_general_moduli(g: int, h1: int) -> bool:
    """Whether components with general moduli exist at speciality h1 >= 1:
    g >= 4*h1 (BN1), or (g, h1) = (3, 1); otherwise the moduli are special."""
    return g >= 4 * h1 or (g, h1) == (3, 1)


def _first_general_moduli_genus(h1: int) -> int:
    """The least g with :func:`_has_general_moduli` at speciality h1 >= 1,
    which then holds for every larger g: 3 for h1 = 1, else 4*h1."""
    return 3 if h1 == 1 else 4 * h1


def _section_degree_range(g: int, h1: int, *ms: int) -> tuple[int, int]:
    """:func:`special_series_degree_bounds` of a pair with 0 < h1 < g;
    rejects each section degree in ``ms`` outside the range."""
    if not _has_general_moduli(g, h1):
        raise InvalidParameters("BN1-violated", f"g < 4*h1 ({g} < {4 * h1})")
    if (g, h1) == (3, 1):
        lo = hi = 4
    else:
        lo, hi = g + 3 - h1, g // h1 - 1 + g - h1  # hi is mbar of max_special_degree
    for m in ms:
        if not lo <= m <= hi:
            raise InvalidParameters(
                "m-out-of-range", f"m = {m} not in [{lo}, {hi}] for (g, h1) = ({g}, {h1})"
            )
    return lo, hi
