"""Direct pipeline: twisted boundary matrices over Q[t^±1] and the full
module decomposition of the homology of the infinite cyclic cover.

A k-simplex of the flag complex contributes a (k+1)-cell to the cover,
so the degree-(k+1) chain group is free on the k-simplices and the
boundary sends a cell to its facets scaled by t^{n_v} - 1 for the dropped
vertex v.  Homology in degree k+1 is kernel mod image of consecutive such
matrices; over the principal ideal domain Q[t^±1] the invariant factors
of the upper boundary D_{k+1} give the torsion, and the ranks of the two
boundaries give the free rank.

For a non-resonant surjective character every invariant factor is a
product of cyclotomic polynomials, so full_decomposition needs no Smith
form over Q[t]:
- ranks over Q(t) are ranks at t = 2, where no cyclotomic polynomial
  vanishes, taken on integer matrices by one top-down reduction of the
  complex (flagcomplex.reduce_complex), as is the rank at t = 1;
- D_j = (t - 1) U with U = sign * (1 + t + ... + t^{n-1}), and order-1
  exponents are at most 1, so the Phi_1-part is (r_j,) exactly when U
  keeps the rank r_j at t = 1, where its entries are sign * n;
- the Phi_d-part for d >= 2 is, by even reduction, the Phi_2-part of the
  even character that takes 2 on the d-divisible labels and 1 elsewhere.
  Its boundary is t - 1 times a matrix with entries sign (weight 0) and
  sign * s (weight 1) at s = t + 1, and t - 1 is a unit there.  Orders
  with the same 0/1 weight class share one such matrix.  Its entry
  toward the facet sigma minus v is sign * s^(W(sigma) - W(facet)), for
  the simplex weights W of the class, so it is the untwisted boundary's
  sparse columns, built once per degree, graded by W.  Its Smith form
  over the local ring is cut at s^K, K one above the largest exponent
  the non-resonant bounds allow (linalg.local_smith_valuations; Domich,
  Kannan and Trotter, Math. Oper. Res. 12, 1987).
Every one of these eliminations runs on the quotient by the closed star
St(u) of a vertex u (Mischaikow and Nanda, DCG 50, 2013), chosen by the
rule both pipelines share (FlagComplex.cone).  St(u) is a cone on u
wherever u's entry is a unit: at t = 2 and t = 1 for any u, since no
label is 0, so the ranks take the largest star (the all-zero key); in a
weight class for u of weight 0, whose entries are signs, so each class
takes its weight-0 vertex with the largest star, and every class of a
surjective character has one.  A cone's augmented complex is exact, so
St(u) has the ranks r[-1] = 0, r[m + 1] = |St(u)_m| - r[m]
(FlagComplex.star_ranks), each full rank is the quotient's plus r, and
the quotient keeps the homology and every positive valuation.  On the
default fuzz sizes most quotients are empty, since u is often next to
every vertex: a degree of a quotient with no cells in it or below it has
no pivots, and no matrix, weight or kernel call is made for it
(flagcomplex.reduce_complex, _local_vector).  A rank at
t = 1 that differs from the rank at t = 2, or a class whose pivots do
not number the rank at t = 2 less its star's, raises ConsistencyError.
Every other character class goes through smith_decomposition, the Smith
form over Q[t] with cyclotomic trial division, which `fuzz --thorough`
also uses as the oracle of the local path; it reports non-cyclotomic
content and never raises on it.

smith_decomposition builds its matrices on integer coefficient tuples.  A
negative label needs no power of t^-1: since t^n - 1 = -t^n(t^|n| - 1),
rescaling the cell over each simplex sigma by t^a(sigma), where a(sigma)
sums |n_v| over the vertices of sigma with n_v < 0, is a unit change of
basis of every chain group, after which the facet missing v carries
-sign * (t^|n_v| - 1).  The Smith forms are unchanged up to units.
TwistedBoundary keeps the Laurent entries themselves, for callers that
want the matrix as it is written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Callable, Optional

from .flagcomplex import FlagComplex, Simplex, boundary_matrix, reduce_complex, simplex_weights
from .graphs import (
    Character,
    CharacterClass,
    ConsistencyError,
    InputError,
    classify_character,
    torsion_candidates,
    weight_classes,
)
# rank_rational stays importable here: perfbench checks that it wraps this import site
from .linalg import SmithForm, local_smith_valuations, rank_rational, smith_normal_form  # noqa: F401
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


@lru_cache(maxsize=256)
def _label_coeffs(n: int, sign: int) -> tuple[int, ...]:
    """Integer coefficients of sign * (t^n - 1), and of -sign * (t^|n| - 1)
    for n < 0 after the change of basis of the module docstring; () for 0.
    Cached process-wide, like _laurent_label.
    """
    if n < 0:
        n, sign = -n, -sign
    if n == 0:
        return ()
    return (-sign,) + (0,) * (n - 1) + (sign,)


@lru_cache(maxsize=256)
def _laurent_label(n: int, sign: int) -> LaurentClass:
    """sign * (t^n - 1) as a Laurent element, for any integer n (0 gives 0).

    Cached process-wide: the values are immutable, and every twisted
    boundary of a character asks for the same few labels.  Kept apart
    from _label_coeffs, because these labels are the reference that the
    integer path is tested against.
    """
    if n == 0:
        return LaurentClass(ZERO, 0)
    if n > 0:
        return LaurentClass.from_poly(sign * t_power_minus_one(n))
    # t^n - 1 = -t^n * (t^{-n} - 1) for n < 0
    return LaurentClass.from_poly(-sign * t_power_minus_one(-n), n)


def _twisted_smith(f: FlagComplex, chi: Character, k: int) -> SmithForm:
    """Smith form of the degree-k twisted boundary, built on integer
    coefficients; admissibility is the caller's check."""
    values = chi.values
    rows = boundary_matrix(f, k, entry=lambda sign, v: _label_coeffs(values[v], sign), zero=())
    return smith_normal_form(rows, ncols=f.count(k))


@dataclass(frozen=True)
class Admission:
    """What every pipeline reads of a character before any elimination:
    its class, its candidate torsion orders (graphs.torsion_candidates)
    and those orders' 0/1 weight classes (graphs.weight_classes).  Only
    require_admissible makes one, so whoever holds one has classified the
    character, and each pipeline handed one still refuses by its own rule.
    """

    character_class: CharacterClass
    orders: tuple[int, ...]
    classes: dict[tuple[int, ...], list[int]]


def require_admissible(
    f: FlagComplex, chi: Character, allow_degenerate: bool, admitted: Optional[Admission] = None
) -> Admission:
    """Refuse a degenerate character unless allow_degenerate, and return
    chi's admission: admitted when given, which must be chi's on f.graph,
    else a new one, classified once per input by report.run and
    crosscheck.fuzz and shared by every pipeline they call."""
    cls = classify_character(f.graph, chi) if admitted is None else admitted.character_class
    if cls is not CharacterClass.NON_RESONANT_SURJECTIVE and not allow_degenerate:
        raise InputError(
            f"character is {cls.value}; only the direct pipeline takes it, with allow_degenerate (--allow-resonant)"
        )
    if admitted is None:
        orders = tuple(torsion_candidates(chi))
        admitted = Admission(cls, orders, weight_classes(f.graph, chi, orders))
    return admitted


def twisted_boundary(
    f: FlagComplex, chi: Character, k: int, allow_degenerate: bool = False
) -> TwistedBoundary:
    require_admissible(f, chi, allow_degenerate)
    values = chi.values
    mat = boundary_matrix(
        f, k, entry=lambda sign, v: _laurent_label(values[v], sign), zero=_laurent_label(0, 1)
    )
    return TwistedBoundary(k=k, matrix=mat, row_basis=f.simplices(k - 1), col_basis=f.simplices(k))


@dataclass
class ModuleDecomposition:
    """Free rank plus cyclotomic torsion exponents of one homology degree.

    torsion maps each order d to the vector (r_1, r_2, ...) counting
    summands Q[t^±1]/Phi_d^j; trailing zeros are trimmed and orders with
    no torsion are omitted.  remainder_factors collects non-cyclotomic
    invariant-factor content of a Smith form over Q[t], for any
    character; `fuzz --thorough` flags it for a non-resonant one.
    """

    degree: int
    free_rank: int
    torsion: dict[int, tuple[int, ...]] = field(default_factory=dict)
    remainder_factors: tuple[ExactPoly, ...] = ()

    def exponent_vector(self, d: int) -> tuple[int, ...]:
        return self.torsion.get(d, ())

    def summand_count(self, d: int) -> int:
        return sum(self.exponent_vector(d))

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion and not self.remainder_factors

    def sort_key(self) -> tuple:
        return (
            self.degree,
            self.free_rank,
            tuple(sorted(self.torsion.items())),
            self.remainder_factors,
        )


def _decomposition_from_smith(
    k: int,
    orders: list[int],
    snf_lower: SmithForm,
    snf_upper: SmithForm,
) -> ModuleDecomposition:
    # Over a PID the chain group modulo the kernel is free, so the
    # homology splits off the full torsion of coker(upper boundary);
    # the free rank is the kernel rank minus the image rank, both read
    # off the Smith ranks over the fraction field.
    kernel_rank = snf_lower.ncols - snf_lower.rank
    free_rank = kernel_rank - snf_upper.rank
    if free_rank < 0:
        raise ConsistencyError("image rank exceeds kernel rank; not a chain complex")
    # the invariant factors form a divisibility chain, so equal ones are
    # neighbours: each run is factored once and counted by its length
    per_d: dict[int, list[int]] = {}
    remainders = []
    for q, run in groupby(snf_upper.invariant_factors):
        if q.is_one():
            continue
        n = len(list(run))
        mults, rem = factor_cyclotomic(q, orders)
        if not rem.is_one():
            remainders.extend([rem] * n)
        for d, mult in mults.items():
            vec = per_d.setdefault(d, [])
            vec.extend([0] * (mult - len(vec)))
            vec[mult - 1] += n
    return ModuleDecomposition(
        degree=k + 1,
        free_rank=free_rank,
        torsion={d: tuple(vec) for d, vec in sorted(per_d.items())},
        remainder_factors=tuple(remainders),
    )


def smith_decomposition(
    f: FlagComplex, chi: Character, max_degree: Optional[int] = None, admitted: Optional[Admission] = None
) -> dict[int, ModuleDecomposition]:
    """Decompositions for all homology degrees 0 .. dim F + 1 from Smith
    forms over Q[t], for any character; admission is full_decomposition's,
    and only the candidate orders are read off admitted when given.

    Each twisted boundary is Smith-reduced once and shared between the
    two degrees it touches.
    """
    top = f.dim + 1
    if max_degree is not None:
        top = min(top, max_degree)
    orders = torsion_candidates(chi) if admitted is None else admitted.orders
    snfs = {k: _twisted_smith(f, chi, k) for k in range(-1, top + 1)}
    return {
        k + 1: _decomposition_from_smith(k, orders, snfs[k], snfs[k + 1])
        for k in range(-1, top)
    }


def _local_vector(
    cols: list[dict[int, int]], col_weight: list[int], row_weight: list[int], K: int, rank: int
) -> tuple[int, ...]:
    """Exponent vector (r_1, r_2, ...) of the local Smith form of a
    graded matrix given by its sparse columns; the pivots must number the
    rank.  With no columns there are no pivots and no kernel call."""
    vals = local_smith_valuations(cols, col_weight, row_weight, K) if cols else ()
    if len(vals) != rank:
        raise ConsistencyError(
            f"{len(vals)} local pivots below s^{K} for rank {rank}: an exponent "
            "reached the truncation or the rank dropped at t = 2"
        )
    vec = [0] * max(vals, default=0)
    for v in vals:
        if v:
            vec[v - 1] += 1
    return tuple(vec)


def rank_entries(chi: Character) -> tuple[Callable[[int, str], int], Callable[[int, str], int]]:
    """Entry hooks of the integer chain complexes full_decomposition ranks:
    D at t = 2, sign * (2^n - 1), and U = D / (t - 1) at t = 1, sign * n;
    U_j U_{j+1} = 0, since (t - 1)^2 U_j U_{j+1} = D_j D_{j+1} = 0."""
    values = chi.values
    return (lambda sign, v: sign * ((1 << values[v]) - 1)), (lambda sign, v: sign * values[v])


def full_decomposition(
    f: FlagComplex,
    chi: Character,
    max_degree: Optional[int] = None,
    allow_degenerate: bool = False,
    admitted: Optional[Admission] = None,
) -> dict[int, ModuleDecomposition]:
    """Decompositions for all homology degrees 0 .. dim F + 1.

    For a non-resonant surjective character: free ranks from ranks at
    t = 2, the order-1 part from a rank at t = 1, and the orders d >= 2
    from one local Smith form per degree and 0/1 weight class, each on
    the quotient by a closed star (see the module docstring).  Every
    other class, admitted by allow_degenerate, goes through
    smith_decomposition.  The class and the weight classes are read off
    admitted (require_admissible) when given.
    """
    admitted = require_admissible(f, chi, allow_degenerate, admitted)
    if admitted.character_class is not CharacterClass.NON_RESONANT_SURJECTIVE:
        return smith_decomposition(f, chi, max_degree, admitted)
    top = f.dim + 1
    if max_degree is not None:
        top = min(top, max_degree)
    # every label is nonzero, so each complex is a cone on any vertex's
    # star and keeps its ranks as the quotient's plus the star's
    at_2, at_1 = rank_entries(chi)
    _, cells, star = f.cone((0,) * f.graph.n_vertices)
    coned_2 = reduce_complex(f, range(-1, top + 1), entry=at_2, cells=cells)
    coned_1 = reduce_complex(f, range(0, top + 1), entry=at_1, cells=cells)
    ranks = {j: len(leads) + star[j] for j, leads in coned_2.items()}
    ranks1 = {j: len(leads) + star[j] for j, leads in coned_1.items()}
    # a weight class grades its complex by units only on the star of a
    # weight-0 vertex; every class of a surjective character has one
    classes = admitted.classes
    cones = {key: f.cone(key) for key in classes}
    out = {}
    for j in range(0, top + 1):
        free_rank = f.count(j - 1) - ranks[j - 1] - ranks[j]
        if free_rank < 0:
            raise ConsistencyError("image rank exceeds kernel rank; not a chain complex")
        torsion = {}
        if ranks[j]:
            # order 1: D_j = (t - 1) U with exponents at most 1, so U must
            # keep its rank at t = 1
            if ranks1[j] != ranks[j]:
                raise ConsistencyError(
                    f"degree-{j} boundary over t - 1 has rank {ranks1[j]} at t = 1 and "
                    f"{ranks[j]} at t = 2: an order-1 exponent above 1"
                )
            torsion[1] = (ranks[j],)
            # orders d >= 2: a j-simplex weighs at most j + 1, so no
            # valuation reaches K = j + 2; the cut and the pivot count
            # stay as guards, and a quotient with no j-cells or no
            # (j-1)-cells has no pivots and gets no columns or weights
            quotients = {}
            for key, orders in classes.items():
                u, kept, star_u = cones[key]
                cols, col_weight, row_weight = (), (), ()
                if kept[j] and kept[j - 1]:
                    if u not in quotients:
                        quotients[u] = boundary_matrix(f, j, cols=kept[j], rows=kept[j - 1], sparse=True)
                    cols = quotients[u]
                    col_weight = simplex_weights(f, key, j, kept[j])
                    row_weight = simplex_weights(f, key, j - 1, kept[j - 1])
                vec = _local_vector(cols, col_weight, row_weight, j + 2, ranks[j] - star_u[j])
                if vec:
                    torsion.update((d, vec) for d in orders)
        out[j] = ModuleDecomposition(degree=j, free_rank=free_rank, torsion=dict(sorted(torsion.items())))
    return out


def boundary_rank(f: FlagComplex, k: int) -> int:
    """Rational rank of the untwisted boundary in degree k.  The first
    call reduces every degree at once and stores the complete table on
    f in one assignment, so a thread racing it never reads a part."""
    ranks = f.boundary_ranks
    if ranks is None:
        ranks = f.boundary_ranks = {m: len(leads) for m, leads in reduce_complex(f, range(0, f.dim + 1)).items()}
    return ranks.get(k, 0)


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
