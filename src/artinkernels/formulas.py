"""Formula pipeline: torsion statistics of the cyclotomic primary parts
from the weight filtration of the flag complex and the double cover of
the toric complex, with no polynomial Smith form anywhere.

For a fixed order d the 0/1 vertex weights induce a filtration of each
skeleton by simplex weight.  Reduced Betti numbers of the filtration
pieces and of relative pairs give the weighted sum of torsion exponents;
the anti-invariant homology of the double cover of the associated even
character counts the summands; ranks of inclusion-induced maps between
cycle spaces bound and locate the largest Jordan blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .flagcomplex import (
    FiltrationLevel,
    FlagComplex,
    boundary_matrix,
    filtration_level,
    full_skeleton,
    level_boundary_matrix,
    simplex_weight,
)
from .graphs import (
    Character,
    ConsistencyError,
    InputError,
    SimplicialGraph,
    WeightFunction,
    derive_weight,
    even_character_from_weight,
    even_reduction,
)
from .homology import boundary_rank, free_rank_check, t_minus_1_part
from .linalg import intersect_spans, nullspace, rank_rational, span_rank


# ---------------------------------------------------------------------------
# Betti numbers of filtration levels and relative pairs
# ---------------------------------------------------------------------------


def filtration_betti(f: FlagComplex, w: WeightFunction, i: int, m: int, j: int) -> int:
    """Reduced Betti number in degree i of the filtration piece F^m_j."""
    level = filtration_level(f, w, m, j)
    return _level_betti(level, i)


def _level_betti(level: FiltrationLevel, i: int) -> int:
    cells = level.count(i)
    if cells == 0:
        return 0
    return cells - _level_rank(level, i) - _level_rank(level, i + 1)


def _level_rank(level: FiltrationLevel, k: int) -> int:
    """Rank of the level's boundary in degree k.  Below the top dimension
    the level holds every k-simplex, so the complex's memoized rank
    applies; above it there are no k-cells."""
    if k < level.m:
        return boundary_rank(level.complex, k)
    if k > level.m:
        return 0
    return rank_rational(level_boundary_matrix(level, k))


def _relative_cells(x: FiltrationLevel, a: FiltrationLevel, dim: int):
    inside = set(a.simplices(dim))
    return [s for s in x.simplices(dim) if s not in inside]


def _relative_boundary(x: FiltrationLevel, a: FiltrationLevel, i: int) -> list[list[int]]:
    rows = _relative_cells(x, a, i - 1)
    cols = _relative_cells(x, a, i)
    pos = {s.indices: r for r, s in enumerate(rows)}
    mat = [[0] * len(cols) for _ in range(len(rows))]
    for c, sigma in enumerate(cols):
        for drop in range(len(sigma.indices)):
            r = pos.get(sigma.facet(drop))
            if r is not None:
                later = len(sigma.indices) - 1 - drop
                mat[r][c] = -1 if later % 2 else 1
    return mat


def relative_betti(
    f: FlagComplex,
    w: WeightFunction,
    i: int,
    pair: tuple[FiltrationLevel, FiltrationLevel],
) -> int:
    """Dimension of the reduced relative homology of a sub-complex pair,
    computed from the quotient chain complex."""
    x, a = pair
    cells = len(_relative_cells(x, a, i))
    if cells == 0:
        return 0
    lower = rank_rational(_relative_boundary(x, a, i))
    upper = rank_rational(_relative_boundary(x, a, i + 1))
    return cells - lower - upper


# ---------------------------------------------------------------------------
# weighted exponent sum (dimension of the primary part, per irreducible)
# ---------------------------------------------------------------------------


def weighted_exponent_sum(f: FlagComplex, w: WeightFunction, k: int) -> int:
    """Sum of j * (number of exponent-j summands) for the order of w.

    Equals the top non-unit Fitting valuation of the localized boundary:
    filtration Betti numbers of the (k+1)-skeleton plus relative pairs
    against the filtered k-skeleton, with full-skeleton corrections.
    """
    if k < 0 or k > f.dim:
        raise InputError(f"degree index {k} out of range")
    betti_full = free_rank_check(f, k)
    top = full_skeleton(f, w, k + 1)
    total = sum(filtration_betti(f, w, k, k + 1, j) for j in range(k + 2))
    total -= (k + 2) * betti_full
    total += sum(
        relative_betti(f, w, k + 1, (top, filtration_level(f, w, k, j))) for j in range(k + 1)
    )
    total -= (k + 1) * relative_betti(f, w, k + 1, (top, full_skeleton(f, w, k)))
    return total


# ---------------------------------------------------------------------------
# anti-invariant homology of the double cover
# ---------------------------------------------------------------------------


def _check_even_values(rho: Character) -> None:
    if any(v not in (1, 2) for v in rho.values.values()):
        raise InputError("character is not even: values must lie in {1, 2}")


@dataclass
class AntiInvariantComplex:
    """Chain complex of the double cover's (-1)-eigenspace.

    The boundary of the even-character twisted complex evaluated at
    t = -1: the entry toward the facet missing v is -2 * incidence sign
    when v has weight 0, and 0 when v has weight 1.
    """

    matrices: dict[int, list[list[int]]]
    dims: tuple[int, ...]


def anti_invariant_complex(f: FlagComplex, rho: Character) -> AntiInvariantComplex:
    _check_even_values(rho)
    rho.check_domain(f.graph)
    mats: dict[int, list[list[int]]] = {}
    for m in range(0, f.dim + 3):
        rows = f.count(m - 2)
        cols = f.simplices(m - 1)
        mat = [[0] * len(cols) for _ in range(rows)]
        if rows:
            for c, sigma in enumerate(cols):
                for drop, v in enumerate(sigma.vertices):
                    if rho[v] != 1:
                        continue
                    r = f.position(m - 2, sigma.facet(drop))
                    later = len(sigma.indices) - 1 - drop
                    mat[r][c] = 2 if later % 2 else -2
        mats[m] = mat
    ranks = {m: rank_rational(mat) for m, mat in mats.items()}
    dims = tuple(
        f.count(m - 1) - ranks[m] - ranks.get(m + 1, 0) for m in range(0, f.dim + 2)
    )
    return AntiInvariantComplex(matrices=mats, dims=dims)


def anti_invariant_homology(f: FlagComplex, rho: Character) -> tuple[int, ...]:
    """Dimensions of the anti-invariant double-cover homology, degree 0 up
    to dim F + 1."""
    return anti_invariant_complex(f, rho).dims


def summand_count(f: FlagComplex, rho: Character, k: int, lower: int) -> int:
    """Number of torsion summands of the (t+1)-part in degree k+1.

    Recursion in k: anti-invariant dimension in degree k+1 minus the
    reduced Betti number of the flag complex minus the previous count;
    the base case below degree 0 is zero.
    """
    _check_even_values(rho)
    vals = set(rho.values.values())
    if vals != {1, 2}:
        raise InputError("constant even character: no double cover to use")
    dims = anti_invariant_homology(f, rho)
    return _summand_from_dims(f, dims, k, lower)


def _summand_from_dims(f: FlagComplex, dims: Sequence[int], k: int, lower: int) -> int:
    value = dims[k + 1] - free_rank_check(f, k) - lower
    if value < 0:
        raise ConsistencyError(f"negative summand count {value} in degree {k + 1}")
    return value


def summand_counts(f: FlagComplex, rho: Character, up_to_k: Optional[int] = None) -> list[int]:
    """The counts for k = 0 .. up_to_k (default: dim F), via the recursion."""
    _check_even_values(rho)
    if set(rho.values.values()) != {1, 2}:
        raise InputError("constant even character: no double cover to use")
    top = f.dim if up_to_k is None else up_to_k
    dims = anti_invariant_homology(f, rho)
    out: list[int] = []
    prev = 0
    for k in range(top + 1):
        prev = _summand_from_dims(f, dims, k, prev)
        out.append(prev)
    return out


# ---------------------------------------------------------------------------
# Jordan block locating ranks
# ---------------------------------------------------------------------------


def _cycle_columns(f: FlagComplex, w: WeightFunction, k: int, j: int) -> list[list]:
    """Cycles of the filtered k-skeleton, as columns in full k-chain
    coordinates."""
    level = filtration_level(f, w, k, j)
    mat = level_boundary_matrix(level, k)
    local = nullspace(mat, level.count(k))
    total = f.count(k)
    slots = [f.position(k, s.indices) for s in level.simplices(k)]
    cols = []
    for vec in local:
        full = [0] * total
        for v, slot in zip(vec, slots):
            full[slot] = v
        cols.append(full)
    return cols


def _image_columns(f: FlagComplex, w: WeightFunction, k: int, j: Optional[int]) -> list[list]:
    """Columns of the boundary out of the (k+1)-simplices of weight <= j
    (all of them when j is None), as vectors in k-chain coordinates."""
    full = boundary_matrix(f, k + 1)
    keep = []
    for c, sigma in enumerate(f.simplices(k + 1)):
        if j is None or simplex_weight(sigma, w) <= j:
            keep.append(c)
    return [[row[c] for row in full] for c in keep]


def _kernel_map_rank(f: FlagComplex, w: WeightFunction, k: int, p: int, q: int) -> int:
    """Rank of the inclusion-induced map between boundary-trivial cycle
    classes: from cycles of the weight-<=p k-skeleton that die in the full
    complex, to the same kind of classes of the weight-<=q (k+1)-level."""
    z_sub = _cycle_columns(f, w, k, p)
    b_full = _image_columns(f, w, k, None)
    source = intersect_spans(z_sub, b_full)
    if not source:
        return 0
    b_q = _image_columns(f, w, k, q)
    return span_rank(source + b_q) - span_rank(b_q)


def top_jordan_count(f: FlagComplex, w: WeightFunction, k: int) -> int:
    """Number of maximal (exponent k+2) summands in degree k+1: the rank
    of the map from weight-0 k-cycles dying in the full complex into the
    classes of the level just below the full (k+1)-skeleton."""
    return _kernel_map_rank(f, w, k, 0, k + 1)


def c_rank(f: FlagComplex, w: WeightFunction, k: int, i: int, j: int) -> int:
    """Rank of the located-cycle map with source level j and target level
    i - 1; requires i > j.  A nonzero value certifies an exponent of at
    least i - j."""
    if i <= j:
        raise InputError("need i > j")
    if not (0 <= j <= k + 1) or not (0 <= i - 1 <= k + 2):
        raise InputError("filtration indices out of range")
    return _kernel_map_rank(f, w, k, j, i - 1)


def max_exponent(
    f: FlagComplex, w: WeightFunction, k: int, summands: Optional[int] = None
) -> int:
    """Largest exponent j with a summand of exponent j in degree k+1.

    0 when there is no torsion; with a single summand the exponent equals
    the weighted sum; otherwise it is the largest level gap q - p + 1
    over nonzero located-cycle ranks (target level q, source level p).
    """
    if summands is None:
        rho = even_character_from_weight(f.graph, w)
        if set(rho.values.values()) != {1, 2}:
            return 0
        summands = summand_counts(f, rho, k)[k]
    if summands == 0:
        return 0
    if summands == 1:
        return weighted_exponent_sum(f, w, k)
    best = 0
    for p in range(k + 2):
        for q in range(p, k + 2):
            if q - p + 1 <= best:
                continue
            if _kernel_map_rank(f, w, k, p, q) > 0:
                best = q - p + 1
    return best


# ---------------------------------------------------------------------------
# degree-1 closed form for even characters
# ---------------------------------------------------------------------------


def _component_count(n: int, edges: Sequence[tuple[int, int]]) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            comps -= 1
    return comps


def h1_even_summary(g: SimplicialGraph, rho: Character) -> tuple[int, int]:
    """Dimension of the (t+1)-part of degree-1 homology for an even
    character on a connected graph, plus the number of exponent-2 blocks.

    Component counts of the weight-0 and weight-<=1 edge subgraphs give
    the dimension; the block count is the rank of the map from weight-0
    vertices into the components of the weight-<=1 subgraph.
    """
    _check_even_values(rho)
    rho.check_domain(g)
    if not g.is_connected():
        raise InputError(
            "disconnected graph: use the direct pipeline for the degree-1 summary"
        )
    n = g.n_vertices
    wt = {v: 0 if rho[v] == 1 else 1 for v in g.vertices}
    e0, e1 = [], []
    for a, b in g.edges:
        ia, ib = g.index(a), g.index(b)
        ew = wt[a] + wt[b]
        if ew == 0:
            e0.append((ia, ib))
        if ew <= 1:
            e1.append((ia, ib))
    h0_gamma0 = _component_count(n, e0)
    h0_gamma1 = _component_count(n, e1)
    omega_v = sum(wt.values())
    dim = h0_gamma0 + h0_gamma1 - 2 - omega_v

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in e1:
        parent[find(a)] = find(b)
    hit = {find(g.index(v)) for v in g.vertices if wt[v] == 0}
    blocks = max(len(hit) - 1, 0)
    return dim, blocks


# ---------------------------------------------------------------------------
# per-(degree, order) torsion profiles
# ---------------------------------------------------------------------------


@dataclass
class TorsionProfile:
    """Everything the formula pipeline knows about one primary part.

    weighted_sum is the dimension counted per irreducible factor,
    summand_count the number of summands, top_count the number of
    maximal-exponent (k+2) summands, max_exponent the largest exponent;
    exponents is the full vector when the statistics pin it down.
    """

    k: int
    d: int
    weighted_sum: int
    summand_count: int
    top_count: int
    max_exponent: int
    exponents: Optional[tuple[int, ...]] = None

    def validate(self) -> None:
        lo, hi = self.summand_count, (self.k + 2) * self.summand_count
        if not (lo <= self.weighted_sum <= hi):
            raise ConsistencyError(f"weighted sum {self.weighted_sum} outside [{lo}, {hi}]")
        if self.top_count > self.summand_count:
            raise ConsistencyError("more maximal blocks than blocks")
        if self.max_exponent > self.k + 2:
            raise ConsistencyError("exponent exceeds the degree bound")
        if self.exponents is not None:
            vec = self.exponents
            if sum(vec) != self.summand_count:
                raise ConsistencyError("exponent vector count mismatch")
            if sum((j + 1) * r for j, r in enumerate(vec)) != self.weighted_sum:
                raise ConsistencyError("exponent vector weight mismatch")


def _trim(vec: Sequence[int]) -> tuple[int, ...]:
    out = list(vec)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def solve_exponents(profile: TorsionProfile, k: int) -> Optional[tuple[int, ...]]:
    """The unique exponent vector consistent with the profile, or None.

    Enumerates vectors (r_1 .. r_{k+2}) with the profiled count, weighted
    sum, top count and maximal exponent; a unique match is returned with
    trailing zeros trimmed, no match raises, several matches yield None.
    """
    length = k + 2
    count = profile.summand_count
    want_sum = profile.weighted_sum
    solutions: list[tuple[int, ...]] = []

    def search(pos: int, remaining: int, weight: int, acc: list[int]) -> None:
        if pos == length:
            if remaining == 0 and weight == want_sum:
                vec = tuple(acc)
                top = vec[k + 1]
                maxe = max((j + 1 for j, r in enumerate(vec) if r), default=0)
                if top == profile.top_count and maxe == profile.max_exponent:
                    solutions.append(vec)
            return
        j = pos + 1
        for r in range(remaining + 1):
            new_weight = weight + j * r
            if new_weight > want_sum:
                break
            acc.append(r)
            search(pos + 1, remaining - r, new_weight, acc)
            acc.pop()

    search(0, count, 0, [])
    if not solutions:
        raise ConsistencyError(
            f"no exponent vector matches profile k={profile.k} d={profile.d}: "
            f"count={count} sum={want_sum} top={profile.top_count} "
            f"max={profile.max_exponent}"
        )
    if len(solutions) > 1:
        return None
    return _trim(solutions[0])


def torsion_profile(
    f: FlagComplex,
    chi: Character,
    d: int,
    k: int,
    summands: Optional[int] = None,
) -> TorsionProfile:
    """Assemble the profile of the order-d part in degree k+1."""
    w = derive_weight(chi, d)
    if all(x == 0 for x in w.weights.values()):
        return TorsionProfile(k, d, 0, 0, 0, 0, ())
    if summands is None:
        rho = even_reduction(chi, d)
        summands = summand_counts(f, rho, k)[k]
    total = weighted_exponent_sum(f, w, k)
    top = top_jordan_count(f, w, k)
    maxe = max_exponent(f, w, k, summands=summands)
    profile = TorsionProfile(k, d, total, summands, top, maxe)
    profile.validate()
    profile.exponents = solve_exponents(profile, k)
    return profile


def formula_decomposition(
    f: FlagComplex,
    chi: Character,
    orders: Sequence[int],
    max_degree: Optional[int] = None,
) -> dict[int, dict]:
    """Formula-side summary per homology degree.

    Returns degree -> {"free_rank", "torsion" (resolved vectors only),
    "profiles" (order -> TorsionProfile)}.  Degree 0 is the constant
    answer for a surjective character.
    """
    top = f.dim + 1
    if max_degree is not None:
        top = min(top, max_degree)
    out: dict[int, dict] = {}
    if top >= 0:
        out[0] = {"free_rank": 0, "torsion": {1: (1,)}, "profiles": {}}
    # Every statistic sees (chi, d) only through derive_weight and
    # even_reduction, both functions of the 0/1 weight vector, so orders
    # sharing that vector share their summand counts and profiles.
    classes = {d: tuple(derive_weight(chi, d).weights.values()) for d in orders}
    counts: dict[tuple[int, ...], list[int]] = {}
    for d, key in classes.items():
        if key in counts:
            continue
        if any(key):
            counts[key] = summand_counts(f, even_reduction(chi, d), f.dim)
        else:
            counts[key] = [0] * (f.dim + 1)
    for k in range(0, top):
        entry: dict = {"free_rank": free_rank_check(f, k), "torsion": {}, "profiles": {}}
        rank1 = t_minus_1_part(f, k)
        if rank1:
            entry["torsion"][1] = (rank1,)
        by_class: dict[tuple[int, ...], TorsionProfile] = {}
        for d, key in classes.items():
            shared = by_class.get(key)
            if shared is None:
                profile = by_class[key] = torsion_profile(f, chi, d, k, summands=counts[key][k])
            else:
                profile = replace(shared, d=d)
            entry["profiles"][d] = profile
            if profile.exponents is not None and any(profile.exponents):
                entry["torsion"][d] = profile.exponents
        out[k + 1] = entry
    return out
