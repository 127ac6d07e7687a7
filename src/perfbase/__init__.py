"""Exact finite-field toolkit for rank-one bases of matrix spaces.

Constructs and verifies perfect bases (independent rank-one matrices whose
span contains a target space) for companion-matrix tensor families, and
applies them to compute and certify tensor ranks of rank-metric codes.

Importing the package imports none of its modules: each public name is
resolved from its module on first use (PEP 562), so `perfbase verify`, which
builds nothing, never imports `construct`, `rmcode` or the numpy they load.
"""

import importlib

# module -> the public names the package takes from it
_EXPORTS = {
    "errors": (
        "BadEta", "BadGammaSet", "BadN", "BadSubset", "CaseNotCovered", "CharTwo",
        "DegreeMismatch", "DependentBasis", "FieldMismatch", "FieldTooSmall",
        "GuardExceeded", "InternalVerificationError", "InvalidWitness", "NotABase",
        "NotASubfield", "NotCoprime", "NotIrreducible", "NotPrime",
        "ParametersOutOfRange", "PerfbaseError", "RepeatedRoot", "ShapeMismatch",
        "Singular", "SingularM", "UnsupportedCofactorDegree", "ZeroGamma",
    ),
    "gf": (
        "Field", "FieldElement", "FqPolynomial", "field_make", "find_primitive", "norm",
        "poly_roots",
    ),
    "exactla": (
        "FqMatrix", "MatrixSpace", "trace_pair",
    ),
    "tensor3": (
        "BaseCandidate", "Tensor3", "VerificationReport", "exhaustive_trk",
        "kruskal_bound", "rank_lower_bound", "rank_one_matrices", "slice_space",
        "verify_base",
    ),
    "construct": (
        "CompanionSpec", "ConstructionResult", "GammaSet", "atkinson_base",
        "base_dual_powers", "base_dual_powers_rect", "base_inverse_family",
        "base_left_factor", "base_rect_small_n", "base_singular", "companion",
        "companion_inverse", "epsilon", "shift_J", "y_matrix",
    ),
    "rmcode": (
        "BlockCode", "GammaBasis", "LinearizedPoly", "RankCode", "VectorCode",
        "build_mtr", "dual_code", "dual_gabidulin_mtr_base", "extend_base_lindep",
        "gabidulin", "gamma_expand", "gamma_expand_code", "is_mrd", "is_mtr",
        "min_hamming_distance", "min_rank_distance", "one_dim_power_base",
        "one_dim_row_base", "power_vector_code", "psi_block", "shorten_mtr",
        "two_dim_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, or a module, imported on first use and kept."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
