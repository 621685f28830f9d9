"""Operator theory of finite Blaschke products, made numerical.

Boundary functions, the transfer operator, the outer symbol J, the master
isometry C_b, Cuntz families, model-space bases, the Rochberg decomposition,
and a verification suite certifying the operator identities they satisfy.
"""

from .blaschke import (
    BlaschkeProduct,
    BranchSystem,
    blaschke_from_json,
    build_branches,
    derivative,
    evaluate,
    j0,
    make_blaschke,
    preimages,
)
from .circlefun import (
    BoundaryFunction,
    CircleGrid,
    FourierSeries,
    OuterFunction,
    exponential,
    fourier_coeffs,
    l2_inner,
    outer_function,
    sample,
    synthesize,
)
from .config import RunConfig
from .model_space import (
    ModelBasis,
    canonical_basis,
    induced_module_basis,
    linking_unitary,
    rotate_basis,
)
from .operators import (
    TruncatedOperator,
    adjoint,
    block,
    compose,
    cuntz_family_matrices,
    gamma_b_matrix,
    master_isometry_matrix,
    mult_operator,
    operator_norm,
    restrict_to_h2,
    toeplitz_operator,
    transfer_matrix,
)
from .rochberg import Decomposition, decompose, reconstruct
from .transfer import (
    ModuleFamily,
    arcs_basis,
    compose_with_b,
    transfer_apply,
)
from .verify import (
    RELATIONS,
    VerificationReport,
    convergence_study,
    verify_all,
    verify_solution1,
)

__all__ = [
    "BlaschkeProduct",
    "BoundaryFunction",
    "BranchSystem",
    "CircleGrid",
    "Decomposition",
    "FourierSeries",
    "ModelBasis",
    "ModuleFamily",
    "OuterFunction",
    "RELATIONS",
    "RunConfig",
    "TruncatedOperator",
    "VerificationReport",
    "adjoint",
    "arcs_basis",
    "blaschke_from_json",
    "block",
    "build_branches",
    "canonical_basis",
    "compose",
    "compose_with_b",
    "convergence_study",
    "cuntz_family_matrices",
    "decompose",
    "derivative",
    "evaluate",
    "exponential",
    "fourier_coeffs",
    "gamma_b_matrix",
    "induced_module_basis",
    "j0",
    "l2_inner",
    "linking_unitary",
    "make_blaschke",
    "master_isometry_matrix",
    "mult_operator",
    "operator_norm",
    "outer_function",
    "preimages",
    "reconstruct",
    "restrict_to_h2",
    "rotate_basis",
    "sample",
    "synthesize",
    "toeplitz_operator",
    "transfer_apply",
    "transfer_matrix",
    "verify_all",
    "verify_solution1",
]
