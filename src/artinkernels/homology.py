"""Direct pipeline: twisted boundary matrices over Q[t^±1] and the full
module decomposition of the homology of the infinite cyclic cover.

A k-simplex of the flag complex contributes a (k+1)-cell to the cover,
so the degree-(k+1) chain group is free on the k-simplices and the
boundary sends a cell to its facets scaled by t^{n_v} - 1 for the dropped
vertex v.  Homology in degree k+1 is kernel mod image of consecutive such
matrices; the decomposition over the principal ideal domain Q[t^±1] comes
from Smith normal forms, with the kernel basis read off the column
transform of the lower boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .flagcomplex import FlagComplex, Simplex, boundary_matrix
from .graphs import (
    Character,
    CharacterClass,
    ConsistencyError,
    InputError,
    candidate_torsion_orders,
    classify_character,
    divisors,
)
from .linalg import rank_rational, smith_normal_form
from .polys import ZERO, ExactPoly, LaurentClass, factor_cyclotomic, t_power_minus_one


@dataclass
class TwistedBoundary:
    """Matrix of the cover's boundary out of the cells over the k-simplices.

    Columns are indexed by k-simplices, rows by (k-1)-simplices; the
    (tau, sigma) entry is the incidence sign times t^{n_v} - 1 for
    tau = sigma minus v.  k = -1 gives the empty matrix out of the single
    0-cell.
    """

    k: int
    matrix: list[list[LaurentClass]]
    row_basis: tuple[Simplex, ...]
    col_basis: tuple[Simplex, ...]

    @property
    def nrows(self) -> int:
        return len(self.row_basis)

    @property
    def ncols(self) -> int:
        return len(self.col_basis)

    def polynomial_matrix(self) -> list[list[ExactPoly]]:
        """Clear per-column t-shifts (unit column scalings) to land in Q[t]."""
        out = [[ZERO] * self.ncols for _ in range(self.nrows)]
        for c in range(self.ncols):
            shifts = [self.matrix[r][c].shift for r in range(self.nrows) if not self.matrix[r][c].is_zero()]
            base = min(shifts, default=0)
            lift = -base if base < 0 else 0
            for r in range(self.nrows):
                entry = self.matrix[r][c]
                if not entry.is_zero():
                    out[r][c] = entry.poly.shift(entry.shift + lift)
        return out


def _laurent_label(n: int) -> LaurentClass:
    """t^n - 1 as a Laurent element, for any integer n (0 gives 0)."""
    if n == 0:
        return LaurentClass(ZERO, 0)
    if n > 0:
        return LaurentClass.from_poly(t_power_minus_one(n))
    # t^n - 1 = -t^n * (t^{-n} - 1) for n < 0
    return LaurentClass.from_poly(-t_power_minus_one(-n), n)


def require_admissible(f: FlagComplex, chi: Character, allow_degenerate: bool) -> CharacterClass:
    cls = classify_character(f.graph, chi)
    if cls is not CharacterClass.NON_RESONANT_SURJECTIVE and not allow_degenerate:
        raise InputError(
            f"character is {cls.value}; pass the degenerate-character override to proceed"
        )
    return cls


def twisted_boundary(
    f: FlagComplex, chi: Character, k: int, allow_degenerate: bool = False
) -> TwistedBoundary:
    require_admissible(f, chi, allow_degenerate)
    rows = f.simplices(k - 1)
    cols = f.simplices(k)
    zero = LaurentClass(ZERO, 0)
    labels = {v: _laurent_label(n) for v, n in chi.values.items()}
    mat = [[zero] * len(cols) for _ in range(len(rows))]
    for c, sigma in enumerate(cols):
        for i, v in enumerate(sigma.vertices):
            lab = labels[v]
            if lab.is_zero():
                continue
            r = f.position(k - 1, sigma.facet(i))
            later = len(sigma.indices) - 1 - i
            entry = LaurentClass(-lab.poly if later % 2 else lab.poly, lab.shift)
            mat[r][c] = entry
    return TwistedBoundary(k=k, matrix=mat, row_basis=rows, col_basis=cols)


@dataclass
class ModuleDecomposition:
    """Free rank plus cyclotomic torsion exponents of one homology degree.

    torsion maps each order d to the vector (r_1, r_2, ...) counting
    summands Q[t^±1]/Phi_d^j; trailing zeros are trimmed and orders with
    no torsion are omitted.  remainder_factors collects non-cyclotomic
    invariant-factor content, possible only for degenerate characters.
    """

    degree: int
    free_rank: int
    torsion: dict[int, tuple[int, ...]] = field(default_factory=dict)
    remainder_factors: tuple[ExactPoly, ...] = ()

    def exponent_vector(self, d: int) -> tuple[int, ...]:
        return self.torsion.get(d, ())

    def summand_count(self, d: int) -> int:
        return sum(self.exponent_vector(d))

    def weighted_sum(self, d: int) -> int:
        return sum((j + 1) * r for j, r in enumerate(self.exponent_vector(d)))

    def max_exponent(self, d: int) -> int:
        return len(self.exponent_vector(d))

    def top_count(self, d: int, k: int) -> int:
        vec = self.exponent_vector(d)
        return vec[k + 1] if len(vec) > k + 1 else 0

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion and not self.remainder_factors

    def sort_key(self) -> tuple:
        return (
            self.degree,
            self.free_rank,
            tuple(sorted(self.torsion.items())),
            self.remainder_factors,
        )


def _torsion_from_factors(
    factors: list[ExactPoly], candidates: list[int], strict: bool
) -> tuple[dict[int, tuple[int, ...]], tuple[ExactPoly, ...]]:
    per_d: dict[int, list[int]] = {}
    remainders = []
    for q in factors:
        mults, rem = factor_cyclotomic(q, candidates)
        if not rem.is_one():
            if strict:
                raise ConsistencyError(
                    f"invariant factor {q} has non-cyclotomic content {rem} "
                    "for a non-resonant character"
                )
            remainders.append(rem)
        for d, mult in mults.items():
            vec = per_d.setdefault(d, [])
            while len(vec) < mult:
                vec.append(0)
            vec[mult - 1] += 1
    torsion = {d: tuple(vec) for d, vec in sorted(per_d.items())}
    return torsion, tuple(remainders)


def _decomposition_from_smith(
    f: FlagComplex,
    chi: Character,
    k: int,
    cls: CharacterClass,
    snf_lower,
    snf_upper,
) -> ModuleDecomposition:
    # Over a PID the chain group modulo the kernel is free, so the
    # homology splits off the full torsion of coker(upper boundary);
    # the free rank is the kernel rank minus the image rank, both read
    # off the Smith ranks over the fraction field.
    kernel_rank = snf_lower.ncols - snf_lower.rank
    free_rank = kernel_rank - snf_upper.rank
    if free_rank < 0:
        raise ConsistencyError("image rank exceeds kernel rank; not a chain complex")
    nontrivial = [q for q in snf_upper.invariant_factors if not q.is_one()]

    cand: set[int] = set()
    for n in chi.values.values():
        if n != 0:
            cand.update(d for d in divisors(n) if d >= 2)
    strict = cls is CharacterClass.NON_RESONANT_SURJECTIVE
    torsion, remainders = _torsion_from_factors(nontrivial, sorted(cand), strict)
    return ModuleDecomposition(
        degree=k + 1,
        free_rank=free_rank,
        torsion=torsion,
        remainder_factors=remainders,
    )


def homology_module(
    f: FlagComplex, chi: Character, k: int, allow_degenerate: bool = False
) -> ModuleDecomposition:
    """Decomposition of the degree-(k+1) homology of the cover, k >= -1.

    Smith normal forms of the two twisted boundaries meeting the degree
    give everything: the upper one presents the cokernel, whose torsion
    is the homology torsion, and the two ranks give the free rank.
    """
    cls = require_admissible(f, chi, allow_degenerate)
    lower = twisted_boundary(f, chi, k, allow_degenerate)
    upper = twisted_boundary(f, chi, k + 1, allow_degenerate)
    snf_lower = smith_normal_form(lower.polynomial_matrix(), ncols=lower.ncols)
    snf_upper = smith_normal_form(upper.polynomial_matrix(), ncols=upper.ncols)
    return _decomposition_from_smith(f, chi, k, cls, snf_lower, snf_upper)


def full_decomposition(
    f: FlagComplex,
    chi: Character,
    max_degree: Optional[int] = None,
    allow_degenerate: bool = False,
) -> dict[int, ModuleDecomposition]:
    """Decompositions for all homology degrees 0 .. dim F + 1.

    Each twisted boundary is Smith-reduced once and shared between the
    two degrees it touches.
    """
    cls = require_admissible(f, chi, allow_degenerate)
    top = f.dim + 1
    if max_degree is not None:
        top = min(top, max_degree)
    snfs = {}
    for k in range(-1, top + 1):
        tb = twisted_boundary(f, chi, k, allow_degenerate)
        snfs[k] = smith_normal_form(tb.polynomial_matrix(), ncols=tb.ncols)
    return {
        k + 1: _decomposition_from_smith(f, chi, k, cls, snfs[k], snfs[k + 1])
        for k in range(-1, top)
    }


def boundary_rank(f: FlagComplex, k: int) -> int:
    """Rational rank of the untwisted boundary in degree k, memoized on f."""
    rank = f.boundary_ranks.get(k)
    if rank is None:
        rank = f.boundary_ranks[k] = rank_rational(boundary_matrix(f, k))
    return rank


def free_rank_check(f: FlagComplex, k: int) -> int:
    """Reduced Betti number of the flag complex in degree k.

    Equals the free rank of the degree-(k+1) decomposition for
    non-resonant characters; computed from rational ranks of the
    untwisted boundaries.
    """
    c_k = f.count(k)
    if c_k == 0:
        return 0
    return c_k - boundary_rank(f, k) - boundary_rank(f, k + 1)


def t_minus_1_part(f: FlagComplex, k: int) -> int:
    """Exponent of the (t-1)-part in degree k+1: the rank of the
    untwisted boundary out of the (k+1)-simplices.  That part is always
    semisimple, so its exponent vector is (rank,) or empty."""
    return boundary_rank(f, k + 1)


def torsion_candidates(chi: Character) -> list[int]:
    """Candidate torsion orders for reporting; degenerate-safe."""
    try:
        return candidate_torsion_orders(chi)
    except InputError:
        out: set[int] = set()
        for n in chi.values.values():
            if n:
                out.update(d for d in divisors(n) if d >= 2)
        return sorted(out)
