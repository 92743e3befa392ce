"""The package's public names: ``from surfrep import *`` exports what the
package imports from its modules, and nothing else, and each of them is used
outside the tests."""

import re
from pathlib import Path

import surfrep

ROOT = Path(__file__).resolve().parents[1]

# the export list as it was written out by hand, before it was derived
EXPORTS = {
    "BundleClass", "CochainData", "ConvergenceError", "GroupRingElement",
    "LieGroupModel", "LinearMomentumModel", "PathConnection", "Presentation",
    "RepPoint", "Variation", "Word", "ZeroLocusPoint", "build_complex",
    "check_relations", "classify_orbit_type", "conjugation_invariance_check",
    "conjugation_isomorphism_check", "direct_product",
    "enumerate_central_reps", "evaluate_group_ring", "format_ring", "format_word",
    "fox_derivative",
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


def test_every_export_is_named_outside_the_tests():
    # a public name only the tests reach belongs with the tests (as the
    # finite-difference oracles in tests/oracles.py do): each one must be named
    # in src/surfrep other than by its own definition and the package's import
    # list, or in demos/ or perfbench/
    sources = [path for path in (ROOT / "src" / "surfrep").glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    text = "\n".join(path.read_text() for path in sources)
    unnamed = [name for name in surfrep.__all__
               if not re.search(rf"\b{name}\b", re.sub(rf"^(?:def|class) {name}\b.*$", "", text,
                                                       flags=re.MULTILINE))]
    assert unnamed == []
