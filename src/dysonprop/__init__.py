"""Certified time-ordered series propagators on graded spaces.

The package builds two-parameter evolution families U(t, t') for split
generators h_free + h_int by iterated interaction-picture integrals, with
an a-priori bound certifying every truncation.  On top of that sit
Schrodinger and Heisenberg trajectory drivers, a verification suite with
independent oracles, and a desk-scale covariant-gauge photon/electron
model with an indefinite metric.

Set DYSONPROP_THREADS before the first import to cap the BLAS worker
count; the value is forwarded to the usual thread-count variables unless
they are already set.
"""

import os as _os

_threads = _os.environ.get("DYSONPROP_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from ._version import VERSION as __version__
from .errors import AssumptionViolation, StiffnessError, TruncationError
from .graded import (
    GradeCert,
    GradedSpace,
    LinOp,
    certify,
    grade_shift_bound,
    relative_bound_constant,
    support_level,
    weighted_norm,
)
from .dyson import (
    SeriesResult,
    TimeGrid,
    apriori_bound,
    apriori_tail,
    default_grid,
    evolve_adjoint,
    evolve_block,
    evolve_vector,
    free_propagator,
)
from .oracles import Report, matrix_exp, ode_oracle, oracle_propagator
from .evolution import (
    Trajectory,
    heisenberg_pairing_track,
    heisenberg_residuals,
    heisenberg_track,
    schrodinger_trajectory,
    strong_split_residual,
    weak_residual,
)
from .fock import (
    BosonMode,
    FermionMode,
    FockBasis,
    ModeSpec,
    boson_ops,
    eta_metric,
    fermion_ops,
    second_quantize,
)
from .qed import (
    QedConfig,
    QedModel,
    build_model,
    default_toy_config,
    dirac_spinors,
    eta_unitarity_check,
    gamma_matrices,
    polarization_vectors,
    structure_reports,
)
from .suite import (
    ConvergenceTable,
    appendix_convergence,
    fleet,
    fleet_verification,
    identity_suite,
    oracle_reports,
    random_graded_model,
)

__all__ = [
    "__version__",
    "AssumptionViolation",
    "StiffnessError",
    "TruncationError",
    "GradeCert",
    "GradedSpace",
    "LinOp",
    "certify",
    "grade_shift_bound",
    "relative_bound_constant",
    "support_level",
    "weighted_norm",
    "SeriesResult",
    "TimeGrid",
    "apriori_bound",
    "apriori_tail",
    "default_grid",
    "evolve_adjoint",
    "evolve_block",
    "evolve_vector",
    "free_propagator",
    "Report",
    "matrix_exp",
    "ode_oracle",
    "oracle_propagator",
    "Trajectory",
    "heisenberg_pairing_track",
    "heisenberg_residuals",
    "heisenberg_track",
    "schrodinger_trajectory",
    "strong_split_residual",
    "weak_residual",
    "BosonMode",
    "FermionMode",
    "FockBasis",
    "ModeSpec",
    "boson_ops",
    "eta_metric",
    "fermion_ops",
    "second_quantize",
    "QedConfig",
    "QedModel",
    "build_model",
    "default_toy_config",
    "dirac_spinors",
    "eta_unitarity_check",
    "gamma_matrices",
    "polarization_vectors",
    "structure_reports",
    "ConvergenceTable",
    "appendix_convergence",
    "fleet",
    "fleet_verification",
    "identity_suite",
    "oracle_reports",
    "random_graded_model",
]
