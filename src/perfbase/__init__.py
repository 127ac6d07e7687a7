"""Exact finite-field toolkit for rank-one bases of matrix spaces.

Constructs and verifies perfect bases (independent rank-one matrices whose
span contains a target space) for companion-matrix tensor families, and
applies them to compute and certify tensor ranks of rank-metric codes.
"""

from .errors import (
    BadEta,
    BadGammaSet,
    BadN,
    BadSubset,
    CaseNotCovered,
    CharTwo,
    DegreeMismatch,
    DependentBasis,
    FieldMismatch,
    FieldTooSmall,
    GuardExceeded,
    InternalVerificationError,
    InvalidWitness,
    NotABase,
    NotASubfield,
    NotCoprime,
    NotIrreducible,
    NotPrime,
    ParametersOutOfRange,
    PerfbaseError,
    RepeatedRoot,
    ShapeMismatch,
    Singular,
    SingularM,
    UnsupportedCofactorDegree,
    ZeroGamma,
)
from .gf import (
    Field,
    FieldElement,
    FqPolynomial,
    field_make,
    find_primitive,
    norm,
    poly_roots,
)
from .exactla import (
    FqMatrix,
    MatrixSpace,
    trace_pair,
)
from .tensor3 import (
    BaseCandidate,
    Tensor3,
    VerificationReport,
    exhaustive_trk,
    kruskal_bound,
    rank_lower_bound,
    rank_one_matrices,
    slice_space,
    verify_base,
)
from .construct import (
    CompanionSpec,
    ConstructionResult,
    GammaSet,
    atkinson_base,
    base_dual_powers,
    base_dual_powers_rect,
    base_inverse_family,
    base_left_factor,
    base_rect_small_n,
    base_singular,
    companion,
    companion_inverse,
    epsilon,
    shift_J,
    y_matrix,
)
from .rmcode import (
    BlockCode,
    GammaBasis,
    LinearizedPoly,
    RankCode,
    VectorCode,
    build_mtr,
    dual_code,
    dual_gabidulin_mtr_base,
    extend_base_lindep,
    gabidulin,
    gamma_expand,
    gamma_expand_code,
    is_mrd,
    is_mtr,
    min_hamming_distance,
    min_rank_distance,
    one_dim_power_base,
    one_dim_row_base,
    power_vector_code,
    psi_block,
    shorten_mtr,
    two_dim_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
