"""Exact arithmetic of linear series on the general curve of genus g.

The Brill-Noether number in its two forms, the Clifford index and gonality
of the general curve, the maximal dimension and degree of a complete series
of prescribed speciality, and the general-moduli condition with the range
of section degrees it admits.  Riemann-Roch, h0 = m - g + 1 + h1, is written
inline where it is used.  Everything here is an integer formula; no
floating point is used anywhere in this package, and rational comparisons are
done by cross-multiplication.
"""

from __future__ import annotations

from .errors import InvalidParameters


def _require_speciality(g: int, h1: int) -> None:
    """Reject a speciality outside 0 < h1 < g."""
    if h1 <= 0 or h1 >= g:
        raise InvalidParameters("speciality-out-of-range", f"h1 = {h1} not in (0, g) with g = {g}")


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


def _has_general_moduli(g: int, h1: int) -> bool:
    """Whether components with general moduli exist at speciality h1 >= 1:
    g >= 4*h1 (BN1), or (g, h1) = (3, 1); otherwise the moduli are special."""
    return g >= 4 * h1 or g == 3 and h1 == 1


def _first_general_moduli_genus(h1: int) -> int:
    """The least g with :func:`_has_general_moduli` at speciality h1 >= 1,
    which then holds for every larger g: 3 for h1 = 1, else 4*h1."""
    return 3 if h1 == 1 else 4 * h1


def _section_degree_range(g: int, h1: int, m: int | None = None) -> tuple[int, int]:
    """The inclusive bounds of ``components.admissible_m_range`` of a pair
    with 0 < h1 < g; rejects the section degree ``m``, when given, outside
    them."""
    if not _has_general_moduli(g, h1):
        raise InvalidParameters("BN1-violated", f"g < 4*h1 ({g} < {4 * h1})")
    if g == 3 and h1 == 1:
        lo = hi = 4
    else:
        lo, hi = g + 3 - h1, g // h1 - 1 + g - h1  # hi is mbar of max_special_degree
    if m is not None and not lo <= m <= hi:
        raise InvalidParameters(
            "m-out-of-range", f"m = {m} not in [{lo}, {hi}] for (g, h1) = ({g}, {h1})"
        )
    return lo, hi
