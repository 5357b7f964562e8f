"""Exact computation of the K[t^±1]-module structure of the homology of
Artin kernels of right-angled Artin groups.

Two independent pipelines: a direct one via the twisted boundary
matrices (a rank at t = 1 and local Smith forms at t = -1 for
non-resonant characters, Smith forms over Q[t] otherwise), and a combinatorial one
via weight filtrations of the flag complex and the double cover of the
toric complex.  They cross-validate each other; see the CLI (artin-kernels) and
the README for usage.
"""

from .flagcomplex import (
    FiltrationLevel,
    FlagComplex,
    Simplex,
    boundary_matrix,
    build_flag_complex,
    filtration_level,
    incidence,
    simplex_weight,
    total_weight,
)
from .formulas import (
    TorsionProfile,
    anti_invariant_homology,
    c_rank,
    filtration_betti,
    formula_decomposition,
    h1_even_summary,
    max_exponent,
    relative_betti,
    solve_exponents,
    summand_counts,
    top_jordan_count,
    torsion_profile,
    weighted_exponent_sum,
)
from .graphs import (
    Character,
    CharacterClass,
    ConsistencyError,
    InputError,
    SimplicialGraph,
    WeightFunction,
    candidate_torsion_orders,
    classify_character,
    derive_weight,
    even_reduction,
)
from .homology import (
    ModuleDecomposition,
    TwistedBoundary,
    free_rank_check,
    full_decomposition,
    t_minus_1_part,
    twisted_boundary,
)
from .linalg import SmithForm, rank_rational, smith_normal_form
from .pairs import AcyclicPair, fitting_weight, is_acyclic, minimal_acyclic_pair
from .polys import ExactPoly, LaurentClass, cyclotomic, factor_cyclotomic, poly_gcd
from .report import JobSpec, Report, emit_report, parse_input, run

__all__ = [
    "AcyclicPair",
    "Character",
    "CharacterClass",
    "ConsistencyError",
    "ExactPoly",
    "FiltrationLevel",
    "FlagComplex",
    "InputError",
    "JobSpec",
    "LaurentClass",
    "ModuleDecomposition",
    "Report",
    "SimplicialGraph",
    "Simplex",
    "SmithForm",
    "TorsionProfile",
    "TwistedBoundary",
    "WeightFunction",
    "anti_invariant_homology",
    "boundary_matrix",
    "build_flag_complex",
    "c_rank",
    "candidate_torsion_orders",
    "classify_character",
    "cyclotomic",
    "derive_weight",
    "emit_report",
    "even_reduction",
    "factor_cyclotomic",
    "filtration_betti",
    "filtration_level",
    "fitting_weight",
    "formula_decomposition",
    "free_rank_check",
    "full_decomposition",
    "h1_even_summary",
    "incidence",
    "is_acyclic",
    "max_exponent",
    "minimal_acyclic_pair",
    "parse_input",
    "poly_gcd",
    "rank_rational",
    "relative_betti",
    "run",
    "simplex_weight",
    "smith_normal_form",
    "solve_exponents",
    "summand_counts",
    "t_minus_1_part",
    "top_jordan_count",
    "torsion_profile",
    "total_weight",
    "twisted_boundary",
    "weighted_exponent_sum",
]
