"""Quantum walks on symmetric tensor powers of commutative association schemes."""

from .schemes import (
    AssociationScheme,
    SchemeError,
    ValidationReport,
    directed_ngon,
    intersection_numbers,
    ordered_word_scheme,
    trivial_scheme_2,
    unit_root,
    validate_scheme,
)
from .extension import (
    ExtensionScheme,
    enumerate_indices,
    extension_scheme,
    multinomial,
)
from .krawtchouk import (
    GriffithsParams,
    bivariate_G,
    bivariate_orthogonality_residual,
    bivariate_recurrence_residual,
    griffiths_params,
    krawtchouk_genfun,
    krawtchouk_series,
    krawtchouk_table,
    orthogonality_residual,
    params_from_scheme,
    pochhammer,
)
from .walk import (
    AmplitudeProfile,
    ProjectedMatrix,
    WalkSpec,
    WeightSolution,
    amplitudes,
    canonical_ngon_weights,
    eigenvalue_lambda,
    evolve_projected,
    projected_matrix,
    site_factors,
    solve_weights,
    walk_spec,
    z_factors,
)
from .detect import (
    Scenario,
    TransferEvent,
    cascade_residual,
    classify,
    hypercube_pst_scenario,
    ngon_mpst_scenario,
    ow_fr_scenario,
    scan,
    zt_candidates,
)
from .oracle import materialize_class, size_guard
from . import oracle

__version__ = "0.1.0"
