"""Enumeration of the irreducible components of the Hilbert scheme of
smooth, linearly normal, special scrolls.

For fixed (d, g, h1) above the degree threshold, the components whose base
curve has general moduli are indexed by the degree ``m`` of the unique
special section of the general scroll.  For speciality 1 there is a single
component (canonical section, m = 2g - 2) and smaller section degrees give
subloci of known codimension inside it; for speciality >= 2 every admissible
``m`` gives one generically smooth component.  The classification report
optionally appends the gonal-curve components of the same speciality, which
makes it complete for speciality 2.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import InvalidParameters
from .gonal import enumerate_z_components, z_component_dimension, z_vs_h_difference
from .scroll import (
    BundleClass,
    ScrollParams,
    _bundle_class,
    _degree_threshold,
    require_admissible,
)
from .series import _require_speciality, _section_degree_range, special_series_degree_bounds


class ComponentKind(enum.Enum):
    GENERAL_MODULI = "general-moduli"
    GONAL = "gonal"


class ReportNote(NamedTuple):
    """One statement of the classification: a stable kebab-case ``code`` and
    its text.  A note about one component sits on that component's record;
    ``ClassificationReport.notes`` holds the statements about the whole
    Hilbert scheme (closure containment, connectedness, completeness)."""

    code: str
    text: str


class ComponentRecord(NamedTuple):
    """One irreducible component of the Hilbert scheme.

    General-moduli records carry the section degree ``m`` and are always
    generically smooth; gonal records additionally carry (t, l) and leave
    ``generically_smooth`` unasserted (None).  ``notes`` holds what the
    classification states about this component alone: its boundary
    self-intersection, singular locus and singular overlap, the speciality-1
    subloci (on the single h1 = 1 record), or that a gonal Z(t, l) with
    l >= 3 lies in no general-moduli component.
    """

    kind: ComponentKind
    d: int
    g: int
    h1: int
    m: int
    dim: int
    generically_smooth: bool | None
    bundle_class: BundleClass | None
    t: int | None = None
    l: int | None = None
    notes: tuple[ReportNote, ...] = ()


# the one note whose text depends on nothing, built once
_SINGULAR_LOCUS = ReportNote(
    "singular-locus",
    "scrolls whose residual series has base points are "
    "singular points of the Hilbert scheme",
)


class ClassificationReport(NamedTuple):
    params: ScrollParams
    components: list[ComponentRecord]
    reducible: bool
    equidimensional: bool
    complete: bool
    notes: list[ReportNote]


def admissible_m_range(g: int, h1: int) -> list[int]:
    """Admissible special-section degrees: [4] for (g, h1) = (3, 1), else
    all m with g + 3 - h1 <= m <= mbar.  Requires g >= 4*h1 (or the (3, 1)
    case); otherwise only special-moduli components exist."""
    lo, hi = special_series_degree_bounds(g, h1)
    return list(range(lo, hi + 1))


def component_dimension_formula(d: int, g: int, h1: int, m: int) -> int:
    """Raw dimension formula of the general-moduli component with section
    degree ``m``:

        7(g-1) + (R+1)(R+1-h1) + (d-m-g+1)*h1 - (d-2m+g-1)

    with R = d - 2g + 1 + h1.  No range gates; the gated entry point is
    :func:`component_dimension`.
    """
    R1 = d - 2 * g + 2 + h1
    return (
        7 * (g - 1)
        + R1 * (R1 - h1)
        + (d - m - g + 1) * h1
        - (d - 2 * m + g - 1)
    )


def component_dimension(p: ScrollParams, m: int) -> int:
    """Dimension of the general-moduli component with section degree ``m``."""
    require_admissible(p, m)
    return component_dimension_formula(p.d, p.g, p.h1, m)


def component_dimension_h1_1(d: int, g: int) -> int:
    """Dimension of the unique speciality-1 component:
    7(g-1) + (d-2g+3)^2 - (d-2g+3)."""
    _require_speciality(g, 1)
    _degree_threshold(g, 1, d)
    s = d - 2 * g + 3
    return 7 * (g - 1) + s * s - s


def sublocus_codim_h1_1(g: int, m: int) -> int:
    """Codimension 2g - 2 - m of the locus of speciality-1 scrolls whose
    special section has degree m < 2g - 2 (inside the canonical-section
    component)."""
    if m >= 2 * g - 2:
        raise InvalidParameters("m-not-below-canonical", f"m = {m} >= 2g - 2 = {2 * g - 2}")
    if m < 4:
        raise InvalidParameters("m-out-of-range", f"m = {m} < 4")
    return 2 * g - 2 - m


def singular_point_predicate(g: int, h1: int, m: int) -> bool:
    """Whether the component with section degree ``m`` contains scrolls whose
    residual series has base points (such scrolls are singular points of the
    Hilbert scheme).

    Exact cross-multiplied form of g >= h1*(m + h1 + 2)/(h1 + 1); equivalent
    to brill_noether_rho(g, h1 - 1, 2g - 3 - m) >= 0.  Degenerate inputs
    (2g - 3 - m < 0, empty Brill-Noether locus) give False.
    """
    if 2 * g - 3 - m < 0:
        return False
    return g * (h1 + 1) >= h1 * (m + h1 + 2)


def singular_by_smaller_section(g: int, h1: int, m_outer: int, m_inner: int) -> bool:
    """Whether a scroll of the component with section degree ``m_outer``
    whose actual minimal special section has degree ``m_inner`` is a singular
    point (it then lies on the ``m_inner`` component as well)."""
    _require_speciality(g, h1)
    _section_degree_range(g, h1, m_outer, m_inner)
    return m_inner < m_outer


def classify(p: ScrollParams, include_gonal: bool = False) -> ClassificationReport:
    """Full component list of the Hilbert scheme at (d, g, h1).

    One general-moduli record per admissible section degree (a single one,
    m = 2g - 2, for speciality 1, whose notes report the smaller degrees as
    subloci).  With ``include_gonal``, appends every valid gonal component
    Z(t, h1); for speciality 2 this makes the classification complete.
    Records are ordered by increasing m, then by gonality, and each carries
    the notes about that component; the report's own notes are the
    statements about the whole Hilbert scheme.
    """
    d, g, h1 = p.d, p.g, p.h1
    _degree_threshold(g, h1, d)
    lo, hi = _section_degree_range(g, h1)
    if h1 == 1 and hi != 2 * g - 2:
        raise RuntimeError(
            f"classify: speciality-1 range ends at m = {hi}, not 2g - 2 = {2 * g - 2}"
        )

    report_notes: list[ReportNote] = []
    records: list[ComponentRecord] = []

    # Past the checks above, every section has h = m - g + h1 >= 2; a
    # self-intersection 2m - d >= 0 is the one case left without a bundle class.
    for m in [hi] if h1 == 1 else range(lo, hi + 1):
        notes: list[ReportNote] = []
        if 2 * m - d >= 0:
            bundle_class = None
            notes.append(ReportNote(
                "boundary-self-intersection",
                f"section self-intersection 2m - d = {2 * m - d} >= 0; "
                "bundle class not asserted",
            ))
        else:
            bundle_class = _bundle_class(p, m)
        if h1 == 1:
            notes += [
                ReportNote(
                    "sublocus-codim",
                    f"scrolls with special section of degree {k} form a "
                    f"sublocus of codimension {sublocus_codim_h1_1(g, k)}",
                )
                for k in range(lo, hi)
            ]
        else:
            if singular_point_predicate(g, h1, m):
                notes.append(_SINGULAR_LOCUS)
            if m > lo:
                notes.append(ReportNote(
                    "singular-overlap",
                    f"scrolls of this component whose minimal special section "
                    f"has admissible degree below {m} lie on two components and "
                    "are singular points",
                ))
        records.append(ComponentRecord(
            ComponentKind.GENERAL_MODULI, d, g, h1, m, component_dimension_formula(d, g, h1, m),
            True, bundle_class, None, None, tuple(notes),
        ))

    if h1 == 1:
        report_notes += [
            ReportNote(
                "closure-containment",
                "every family with section degree below 2g - 2 lies in the "
                "closure of the canonical-section component",
            ),
            ReportNote("connected", "the Hilbert scheme locus is connected"),
        ]

    if include_gonal:
        if h1 < 2:
            report_notes.append(ReportNote(
                "no-gonal-components", "gonal-curve components require speciality >= 2"
            ))
        else:
            for gp in enumerate_z_components(d, g, h1):
                notes = []
                if gp.l >= 3:  # then the excess is positive (z_vs_h_difference)
                    notes.append(ReportNote(
                        "not-contained",
                        f"Z({gp.t},{gp.l}) is not contained in any general-moduli "
                        f"component (dimension excess {z_vs_h_difference(gp)})",
                    ))
                records.append(ComponentRecord(
                    ComponentKind.GONAL, d, g, h1, gp.m, z_component_dimension(gp),
                    None, BundleClass.UNSTABLE_DECOMPOSABLE, gp.t, gp.l, tuple(notes),
                ))
            if h1 == 2:
                report_notes.append(ReportNote(
                    "complete",
                    "general-moduli and gonal components exhaust the "
                    "classification for speciality 2",
                ))

    dims = [r.dim for r in records]
    complete = h1 == 1 or (h1 == 2 and include_gonal)
    return ClassificationReport(
        params=p,
        components=records,
        reducible=len(records) > 1,
        equidimensional=len(set(dims)) <= 1,
        complete=complete,
        notes=report_notes,
    )
