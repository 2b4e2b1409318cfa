import os
import subprocess
import sys

import simplexwalk

# The public names of the package, submodules included.  A new public name
# (or a lost one) must be a deliberate change to this list.
PUBLIC_NAMES = {
    "AmplitudeProfile", "AssociationScheme", "ExtensionScheme", "GriffithsParams",
    "ProjectedMatrix", "Scenario", "SchemeError", "TransferEvent", "ValidationReport",
    "WalkSpec", "WeightSolution",
    "amplitudes", "bivariate_G", "bivariate_G_tilde", "bivariate_orthogonality_residual",
    "bivariate_recurrence_residual", "canonical_ngon_weights", "cascade_residual",
    "class_valency", "classify", "directed_ngon", "eigenvalue_lambda", "enumerate_indices",
    "evolve_projected", "extension_cosine", "extension_scheme", "griffiths_params",
    "hypercube_pst_scenario", "indices_json", "intersection_numbers", "krawtchouk_genfun",
    "krawtchouk_series", "krawtchouk_table", "materialize_class", "materialize_idempotent",
    "multinomial", "multiset_arrangements", "ngon_mpst_scenario", "ordered_word_scheme",
    "orthogonality_residual", "ow_fr_scenario", "params_from_scheme", "pochhammer",
    "projected_matrix", "scan", "site_factors", "size_guard", "solve_weights",
    "trivial_scheme_2", "unit_root", "validate_scheme", "walk_spec", "z_factors",
    "zt_candidates",
    "detect", "extension", "krawtchouk", "oracle", "schemes", "walk",
}


def test_public_names_are_pinned():
    # a fresh interpreter: importing a submodule such as simplexwalk.cli in
    # another test would add its name to the package namespace
    root = os.path.dirname(os.path.dirname(os.path.abspath(simplexwalk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    code = "import simplexwalk; print(' '.join(n for n in dir(simplexwalk) if not n.startswith('_')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert set(out.stdout.split()) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 60
