"""The package's public names: ``from surfrep import *`` exports what the
package imports from its modules, and nothing else."""

import surfrep

# the export list as it was written out by hand, before it was derived
EXPORTS = {
    "BundleClass", "CochainData", "ConvergenceError", "GroupRingElement",
    "LieGroupModel", "LinearMomentumModel", "PathConnection", "Presentation",
    "RepPoint", "Variation", "Word", "ZeroLocusPoint", "build_complex",
    "check_relations", "classify_orbit_type", "conjugation_invariance_check",
    "conjugation_isomorphism_check", "direct_product",
    "enumerate_central_reps", "evaluate_group_ring", "finite_diff_check_d0",
    "finite_diff_check_d1", "format_ring", "format_word", "fox_derivative",
    "group_from_name", "hilbert_map", "holonomy", "holonomy_derivative",
    "holonomy_derivative_fd", "horizontal_transport", "momentum_so2",
    "momentum_so3", "newton_project_to_variety", "obstruction_quadratic", "parse_word",
    "psd_rank_stratum", "psi_quadratic", "reduce", "relator_defect", "rep_from_name",
    "sample_cone_directions", "sample_stabilizer", "sample_zero_locus",
    "so2_cone_model_report", "so2_model", "so3", "so3_model", "spanning_configurations",
    "stabilizer_fixed_subspace", "stratum_label", "su2", "surface_presentation", "u1",
    "verify_fox_identity", "word_multiply", "zariski_dim_at_origin",
}


def test_star_import_exports_the_imported_names():
    namespace = {}
    exec("from surfrep import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == EXPORTS
    assert surfrep.__all__ == sorted(EXPORTS)
