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
from collections.abc import Iterator
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
from .series import _first_general_moduli_genus, _has_general_moduli, _require_speciality
from .series import _section_degree_range


class ComponentKind(enum.Enum):
    GENERAL_MODULI = "general-moduli"
    GONAL = "gonal"


# the text of each note code, filled with the note's integers
_NOTE_TEXT = {
    "boundary-self-intersection":
        "section self-intersection 2m - d = %d >= 0; bundle class not asserted",
    "singular-locus":
        "scrolls whose residual series has base points are singular points of the "
        "Hilbert scheme",
    "singular-overlap":
        "scrolls of this component whose minimal special section has admissible degree "
        "below %d lie on two components and are singular points",
    "sublocus-codim":
        "scrolls with special section of degree %d form a sublocus of codimension %d",
    "not-contained":
        "Z(%d,%d) is not contained in any general-moduli component (dimension excess %d)",
    "closure-containment":
        "every family with section degree below 2g - 2 lies in the closure of the "
        "canonical-section component",
    "connected": "the Hilbert scheme locus is connected",
    "no-gonal-components": "gonal-curve components require speciality >= 2",
    "complete":
        "general-moduli and gonal components exhaust the classification for speciality 2",
}


class ReportNote(NamedTuple):
    """One statement of the classification: a stable kebab-case ``code`` and
    the integers ``args`` it states (none for a constant statement).  A note
    about one component sits on that component's record;
    ``ClassificationReport.notes`` holds the statements about the whole
    Hilbert scheme (closure containment, connectedness, completeness)."""

    code: str
    args: tuple[int, ...]

    @property
    def text(self) -> str:
        """The sentence: the template of ``code`` filled with ``args``."""
        return _NOTE_TEXT[self.code] % self.args


class ComponentRecord(NamedTuple):
    """One irreducible component of the Hilbert scheme.

    Every record carries the section degree ``m``; a gonal record also
    carries the gonality ``t``, whose absence makes the ``kind`` general
    moduli: such a component is generically smooth, a gonal one leaves
    that unasserted (None) and is Z(t, l) with l = h1.  ``notes`` holds what
    the classification states about this component alone: its boundary
    self-intersection, singular locus and singular overlap, the speciality-1
    subloci (on the single h1 = 1 record), or that a gonal Z(t, l) with
    l >= 3 lies in no general-moduli component.
    """

    d: int
    g: int
    h1: int
    m: int
    dim: int
    bundle_class: BundleClass | None
    t: int | None
    notes: tuple[ReportNote, ...]

    @property
    def kind(self) -> ComponentKind:
        """General-moduli when there is no gonality ``t``, gonal otherwise."""
        return ComponentKind.GENERAL_MODULI if self.t is None else ComponentKind.GONAL

    @property
    def generically_smooth(self) -> bool | None:
        """True for a general-moduli component, None (not asserted) for a gonal one."""
        return True if self.t is None else None

    @property
    def l(self) -> int | None:
        """The speciality l = h1 of a gonal component Z(t, l); None otherwise."""
        return None if self.t is None else self.h1


# the notes that state no integer, each built once
_SINGULAR_LOCUS = ReportNote("singular-locus", ())
_CLOSURE_CONTAINMENT = ReportNote("closure-containment", ())
_CONNECTED = ReportNote("connected", ())
_NO_GONAL_COMPONENTS = ReportNote("no-gonal-components", ())
_COMPLETE = ReportNote("complete", ())
# the report notes of each case, each tuple built once
_SPECIALITY_1_NOTES = (_CLOSURE_CONTAINMENT, _CONNECTED)
_SPECIALITY_1_GONAL_NOTES = (*_SPECIALITY_1_NOTES, _NO_GONAL_COMPONENTS)
_SPECIALITY_2_GONAL_NOTES = (_COMPLETE,)


class ClassificationReport(NamedTuple):
    """The question :func:`classify` answered, the Hilbert scheme at
    ``params`` with or without the gonal components (``include_gonal``), and
    its answer, the tuple of ``components``.  Four values follow from these
    fields: whether the answer is ``complete``, the ``notes`` about the
    whole Hilbert scheme, and whether it is ``reducible`` or
    ``equidimensional``."""

    params: ScrollParams
    components: tuple[ComponentRecord, ...]
    include_gonal: bool

    @property
    def complete(self) -> bool:
        """Speciality 1, or speciality 2 with the gonal components."""
        h1 = self.params.h1
        return h1 == 1 or (h1 == 2 and self.include_gonal)

    @property
    def notes(self) -> tuple[ReportNote, ...]:
        """At speciality 1: closure containment, connectedness and, with
        ``include_gonal``, that there are no gonal components; at speciality
        2 with ``include_gonal``: completeness; otherwise none."""
        h1 = self.params.h1
        if h1 == 1:
            return _SPECIALITY_1_GONAL_NOTES if self.include_gonal else _SPECIALITY_1_NOTES
        return _SPECIALITY_2_GONAL_NOTES if h1 == 2 and self.include_gonal else ()

    @property
    def reducible(self) -> bool:
        """More than one component."""
        return len(self.components) > 1

    @property
    def equidimensional(self) -> bool:
        """All components have one dimension (vacuously so for none)."""
        return len({r.dim for r in self.components}) <= 1


def admissible_m_range(g: int, h1: int) -> range:
    """Admissible special-section degrees on a smooth scroll whose base curve
    has general moduli: range(4, 5) for (g, h1) = (3, 1), else all m with
    g + 3 - h1 <= m <= mbar (of :func:`max_special_degree`).  Requires
    0 < h1 < g, then g >= 4*h1 (so the section's series has dimension >= 3)
    or the (3, 1) case; otherwise only special-moduli components exist.

    Every m of the range is a section (code 7 cannot fire): h = m - g + h1
    grows with m and is 3 at the start g + 3 - h1, and 4 - 3 + 1 = 2 at
    (3, 1), so h >= 2 on the whole range."""
    _require_speciality(g, h1)
    lo, hi = _section_degree_range(g, h1)
    return range(lo, hi + 1)


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
    return component_dimension_formula(*p, m)


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
    component).

    The degree m must lie in ``admissible_m_range(g, 1)``, checked as there
    (speciality, then general moduli, then the range [g + 2, 2g - 2]), and
    then below the canonical degree 2g - 2.  Below g + 2 there is no such
    locus: the section spans P^h with h = m - g + 1 <= 2, and a smooth curve
    of genus g >= 4 spans no line, nor is it a smooth plane curve of degree
    m, whose genus would be (m - 1)(m - 2)/2 != g.  At (3, 1), the plane
    quartic, the range is m = 4 = 2g - 2 alone, so no degree passes."""
    _require_speciality(g, 1)
    _section_degree_range(g, 1, m)
    if m == 2 * g - 2:
        raise InvalidParameters("m-not-below-canonical", f"m = {m} >= 2g - 2 = {2 * g - 2}")
    return _sublocus_codim(g, m)


def _sublocus_codim(g: int, m: int) -> int:
    """:func:`sublocus_codim_h1_1` of a degree its caller has checked as it
    does; no check of its own."""
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


def classify(p: ScrollParams, include_gonal: bool = False) -> ClassificationReport:
    """Full component list of the Hilbert scheme at (d, g, h1).

    One general-moduli record per admissible section degree (a single one,
    m = 2g - 2, for speciality 1, whose notes report the smaller degrees as
    subloci).  With ``include_gonal``, appends every valid gonal component
    Z(t, h1); for speciality 2 this makes the classification complete.
    Records are ordered by increasing m, then by gonality, and each carries
    the notes about that component.  The report holds ``p``, the tuple of
    records and ``include_gonal``; its notes about the whole Hilbert scheme
    and its ``complete`` flag follow from h1 and ``include_gonal``.  At
    speciality 1 the single record's m, the end of the range, is the
    canonical degree: 4 = 2*3 - 2 at g = 3, else g // 1 - 1 + g - 1 = 2g - 2.
    """
    d, g, h1 = p
    _degree_threshold(g, h1, d)
    lo, hi = _section_degree_range(g, h1)

    records: list[ComponentRecord] = []

    # Past the checks above, every section has h = m - g + h1 >= 2
    # (admissible_m_range); a self-intersection 2m - d >= 0 is the one case
    # left without a bundle class.  Records and notes are built by
    # tuple.__new__, as their NamedTuple constructors would build them.
    for m in [hi] if h1 == 1 else range(lo, hi + 1):
        notes: list[ReportNote] = []
        if 2 * m - d >= 0:
            bundle_class = None
            notes.append(tuple.__new__(ReportNote, ("boundary-self-intersection", (2 * m - d,))))
        else:
            bundle_class = _bundle_class(p, m)
        if h1 == 1:
            # each k of range(lo, hi) passes the checks of sublocus_codim_h1_1:
            # h1 = 1 < g, general moduli (checked above) and lo <= k < hi = 2g - 2
            notes += [tuple.__new__(ReportNote, ("sublocus-codim", (k, _sublocus_codim(g, k))))
                      for k in range(lo, hi)]
        else:
            if singular_point_predicate(g, h1, m):
                notes.append(_SINGULAR_LOCUS)
            if m > lo:
                notes.append(tuple.__new__(ReportNote, ("singular-overlap", (m,))))
        dim = component_dimension_formula(d, g, h1, m)
        records.append(tuple.__new__(ComponentRecord,
                                     (d, g, h1, m, dim, bundle_class, None, tuple(notes))))

    if include_gonal:
        for gp in enumerate_z_components(d, g, h1):  # each has l = h1
            m, t = gp.m, gp.t
            gonal_notes = ()
            if h1 >= 3:  # l >= 3 makes the excess positive (z_vs_h_difference)
                excess = z_vs_h_difference(gp)
                gonal_notes = (tuple.__new__(ReportNote, ("not-contained", (t, h1, excess))),)
            dim = z_component_dimension(gp)
            records.append(tuple.__new__(ComponentRecord,
                                         (d, g, h1, m, dim, _bundle_class(p, m), t, gonal_notes)))

    return ClassificationReport(p, tuple(records), include_gonal)


def _scan_cells(genera: range, specialities: range, offset: int | None,
                degrees: list[int]) -> Iterator[ScrollParams]:
    """The scan's cells that :func:`classify` accepts, in (g, h1, d) order:
    h1 >= 1, general moduli at (g, h1), and d (the threshold plus ``offset``,
    or each of the ascending ``degrees`` when ``offset`` is None) at least
    the degree threshold.  The one home of that rule and of the bounds that
    keep a hostile grid finite: no genus below the first with general moduli
    at the least h1 >= 1; no genus above (max(d) - 1) // 3, as every
    threshold is >= 3g + 1; nothing for a negative offset or with no h1 >= 1;
    and each genus stops at its first h1 without general moduli, which no
    larger h1 has (this covers g < 3 and h1 >= g)."""
    h1_lo, h1_stop = max(specialities.start, 1), specialities.stop
    if h1_lo >= h1_stop or offset is not None and offset < 0:
        return
    g_stop = genera.stop if offset is not None else min(genera.stop, (degrees[-1] - 1) // 3 + 1)
    for g in range(max(genera.start, _first_general_moduli_genus(h1_lo)), g_stop):
        for h1 in range(h1_lo, h1_stop):
            if not _has_general_moduli(g, h1):
                break
            threshold = _degree_threshold(g, h1)  # 0 < h1 < g holds here
            for d in degrees if offset is None else [threshold + offset]:
                if d >= threshold:
                    yield ScrollParams(d, g, h1)
