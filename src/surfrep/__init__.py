"""Finite-dimensional structure of surface-group representation varieties.

Exact Fox calculus on free groups, numerical twisted cohomology at a
representation, quadratic obstruction cones, orbit-type stratification,
linear momentum-map local models with Hilbert maps, and path holonomy
with its derivative formula.
"""

import types

from surfrep.cohomology import (
    BundleClass,
    CochainData,
    RepPoint,
    build_complex,
    classify_orbit_type,
    conjugation_isomorphism_check,
    enumerate_central_reps,
    evaluate_group_ring,
    newton_project_to_variety,
    obstruction_quadratic,
    relator_defect,
    rep_from_name,
    sample_cone_directions,
    sample_stabilizer,
    stabilizer_fixed_subspace,
)
from surfrep.groups import (
    ConvergenceError,
    LieGroupModel,
    direct_product,
    group_from_name,
    so3,
    su2,
    u1,
)
from surfrep.holonomy import (
    PathConnection,
    Variation,
    conjugation_invariance_check,
    holonomy,
    holonomy_derivative,
    holonomy_derivative_fd,
    horizontal_transport,
)
from surfrep.reduction import (
    LinearMomentumModel,
    ZeroLocusPoint,
    check_relations,
    hilbert_map,
    momentum_so2,
    momentum_so3,
    psd_rank_stratum,
    psi_quadratic,
    sample_zero_locus,
    so2_cone_model_report,
    so2_model,
    so3_model,
    spanning_configurations,
    stratum_label,
    zariski_dim_at_origin,
)
from surfrep.words import (
    GroupRingElement,
    Presentation,
    Word,
    format_ring,
    format_word,
    fox_derivative,
    parse_word,
    reduce,
    surface_presentation,
    verify_fox_identity,
    word_multiply,
)

# every public name the imports above bind, and nothing else: submodules and
# underscore names are left out
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))

__version__ = "0.1.0"
