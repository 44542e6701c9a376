"""Weighted-Hamming-metric coding toolbox.

Linear codes measured in a blockwise-scaled Hamming metric: exact
capability and ball computations, four dimension bounds (packing,
covering, singleton-style, linear programming), polyalphabetic and
generalized concatenated constructions with a multistage decoder, and
exact oracles that certify every quantity on small instances.
"""

from .bounds import (
    BoundTable,
    build_bound_table,
    capability_range_from_distance,
    covering_bound,
    distance_required_for_capability,
    lp_bound,
    packing_bound,
    singleton_bound,
    singleton_k_for_t,
)
from .code import (
    FAIL,
    Limits,
    LinearCode,
    NestedChain,
    PolyalphabeticCode,
    load_matrix_file,
    named_code,
)
from .construct import GccCode, build_gcc, poly_from_mother
from .decode import DecodeReport, gcc_decode, gmd_decode
from .enumerator import krawtchouk
from .errors import DefectError, ExhaustionError, ParameterError
from .field import Field, make_extension_field, make_prime_field
from .metric import WeightedSpace, profile_leq
from .oracle import (
    exact_capability,
    exact_min_weighted_distance,
    exhaustive_decoder_check,
    exhaustive_unique_correction_check,
)
from .ratlp import LinearProgram, LpResult, solve_max

__all__ = [
    "BoundTable",
    "DecodeReport",
    "DefectError",
    "ExhaustionError",
    "FAIL",
    "Field",
    "GccCode",
    "Limits",
    "LinearCode",
    "LinearProgram",
    "LpResult",
    "NestedChain",
    "ParameterError",
    "PolyalphabeticCode",
    "WeightedSpace",
    "build_bound_table",
    "build_gcc",
    "capability_range_from_distance",
    "covering_bound",
    "distance_required_for_capability",
    "exact_capability",
    "exact_min_weighted_distance",
    "exhaustive_decoder_check",
    "exhaustive_unique_correction_check",
    "gcc_decode",
    "gmd_decode",
    "krawtchouk",
    "load_matrix_file",
    "lp_bound",
    "make_extension_field",
    "make_prime_field",
    "named_code",
    "packing_bound",
    "poly_from_mother",
    "profile_leq",
    "singleton_bound",
    "singleton_k_for_t",
    "solve_max",
]
