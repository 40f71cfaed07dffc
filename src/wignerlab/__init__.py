"""Numerical workbench for gauge automorphisms of matrix algebras: invariant
states by group averaging, Wigner fixed-point sets and their intersection
identity, crossed products for finite groups, and partition entropy."""

from .matrixcore import (
    DimensionMismatch,
    NotHermitian,
    Subspace,
    algebra_blocks,
    commutant,
    eig_hermitian,
    kron,
    null_space,
)
from .groups import (
    SU2,
    SU3,
    U1,
    BadElement,
    FiniteElement,
    FiniteGroup,
    GroupElement,
    SU2Element,
    SU3Element,
    U1Element,
    UnitaryRep,
    act,
    cyclic_group,
    cyclic_rep,
    element_unitaries,
    element_unitary,
    finite_group_from_json,
    finite_group_to_json,
    finite_rep,
    generating_set,
    haar_families,
    haar_quadrature_su2,
    haar_sample,
    philox_stream,
    quaternion_group,
    quaternion_rep,
    rep_from_config,
    su2_fundamental,
    su2_irrep,
    su3_fundamental,
    su3_rep,
    trivial_rep,
    u1_rep,
)
from .states import (
    DensityState,
    HaarAverageResult,
    MethodUnsupported,
    SeparatingResult,
    haar_average,
    invariance_residual,
    is_separating,
    maximally_mixed,
    pair,
    pullback,
    pure_state,
    random_density,
    trace_distance,
)
from .wigner import (
    NoConvergence,
    WignerProblem,
    WignerReport,
    cesaro_fixed_point,
    standard_problem_batch,
    verify_wigner_identity,
    wigner_subspace,
)
from .crossed import (
    CrossedProductModel,
    NonConvergent,
    ResourceCapExceeded,
    TensorIsoReport,
    algebra_closure,
    covariance_check,
    crossed_dimension,
    embed,
    regular_unitary,
    tensor_iso_check,
)
from .entropy import NotOrthonormal, PartitionWeights, no_hair_state, partition_entropy, vn_entropy
from .bundle import (
    BundleSpec,
    FieldAssignmentError,
    FieldState,
    UnknownBasePoint,
    assign_invariant_field,
    bundle_spec_from_json,
    restrict,
)

__version__ = "0.1.0"
