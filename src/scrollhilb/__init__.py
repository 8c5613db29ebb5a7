"""Exact integer classification of the Hilbert scheme of smooth, linearly
normal, special scrolls: component enumeration, dimensions by independent
formulas, smoothness and stability predicates, gonal and projected families.
"""

from .components import (
    ClassificationReport,
    ComponentKind,
    ComponentRecord,
    ReportNote,
    admissible_m_range,
    classify,
    component_dimension,
    component_dimension_formula,
    component_dimension_h1_1,
    singular_point_predicate,
    sublocus_codim_h1_1,
)
from .errors import InvalidParameters
from .gonal import (
    GonalParams,
    ballico_a,
    enumerate_z_components,
    gonal_locus_dimension,
    h_component_dimension_at_gonal_m,
    kk_margin,
    make_gonal_params,
    rem19608_family,
    special_residual_series,
    z_component_dimension,
    z_vs_h_difference,
)
from .oracle import dim_via_parameter_count, z_dim_via_parameter_count
from .projections import (
    DivisorCaseDims,
    ProjectionParams,
    divisor_case,
    make_projection_params,
    y_dim_lower_bound,
    y_vs_nonspecial_difference,
    y_vs_target_difference,
)
from .scroll import (
    BundleClass,
    CohomologyTriple,
    ScrollParams,
    SectionData,
    aut_dimension,
    general_moduli_threshold,
    h0_explicit,
    make_scroll,
    min_degree_threshold,
    normal_bundle_cohomology,
    section_data,
    section_uniqueness_threshold,
    stability_class,
)
from .series import (
    SeriesSpec,
    brill_noether_rho,
    clifford_index_general,
    gonality_general,
    max_special_degree,
    rho_of_bundle,
    riemann_roch_h0,
)

__version__ = "0.1.0"
