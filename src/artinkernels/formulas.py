"""Formula pipeline: torsion statistics of the cyclotomic primary parts
from the weight filtration of the flag complex and the double cover of
the toric complex, with no polynomial Smith form anywhere.

For a fixed order d the 0/1 vertex weights induce a filtration of each
skeleton by simplex weight.  Reduced Betti numbers of the filtration
pieces and of relative pairs give the weighted sum of torsion exponents;
the anti-invariant homology of the double cover of the associated even
character counts the summands; ranks of inclusion-induced maps between
cycle spaces bound and locate the largest Jordan blocks.

For one weight class and degree these are all persistence ranks of one
filtration (Edelsbrunner, Letscher and Zomorodian, DCG 2002; Zomorodian
and Carlsson, DCG 2005), counted over the pivots of a weight-ordered
reduction of the boundary's sparse columns (_weight_pairs): one top-down
flagcomplex.reduce_complex call, with clearing, per weight class.  The
ranks of the anti-invariant complex come from the same driver.
Both take the quotient by the closed star of a weight-0 vertex u
(critical_cells): a cone at every weight level, which keeps every bar of
positive length, and contracted by sigma -> sigma + {u} in the
anti-invariant complex, whose boundary is -2 * sign toward each facet
missing a weight-0 vertex.  filtration_betti and relative_betti compute
single levels and pairs, and stay the per-level oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .flagcomplex import (
    FiltrationLevel,
    FlagComplex,
    boundary_matrix,
    filtration_level,
    level_boundary_matrix,
    reduce_complex,
)
from .graphs import (
    Character,
    ConsistencyError,
    InputError,
    SimplicialGraph,
    WeightFunction,
    derive_weight,
    even_reduction,
    weight_classes,
)
from .homology import boundary_rank, free_rank_check, t_minus_1_part
from .linalg import rank_rational


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


def _relative_cells(x: FiltrationLevel, a: FiltrationLevel, dim: int) -> list[int]:
    """Positions of the dim-simplices of x that are not in a."""
    inside = set(a.positions(dim))
    return [p for p in x.positions(dim) if p not in inside]


def relative_betti(
    f: FlagComplex,
    w: WeightFunction,
    i: int,
    pair: tuple[FiltrationLevel, FiltrationLevel],
) -> int:
    """Dimension of the reduced relative homology of a sub-complex pair,
    computed from the quotient chain complex."""
    x, a = pair
    cells = _relative_cells(x, a, i)
    if not cells:
        return 0
    below, above = _relative_cells(x, a, i - 1), _relative_cells(x, a, i + 1)
    lower = rank_rational(boundary_matrix(f, i, cols=cells, rows=below, sparse=True))
    upper = rank_rational(boundary_matrix(f, i + 1, cols=above, rows=cells, sparse=True))
    return len(cells) - lower - upper


# ---------------------------------------------------------------------------
# one weight-ordered column reduction per (weight class, degree)
# ---------------------------------------------------------------------------


def _check_degree(f: FlagComplex, k: int) -> None:
    if not 0 <= k <= f.dim:
        raise InputError(f"degree index {k} out of range for dim-{f.dim} complex")


def _weight_pairs(f: FlagComplex, w: WeightFunction, m: int) -> tuple[tuple[int, int], ...]:
    """(weight, lead weight) of each paired m-simplex tau with weight >
    lead weight, a bar, from one reduction of the degree-m boundary
    columns of the critical cells in weight order.

    The m-simplices are taken in ascending weight, and the boundary of
    each is reduced against those before it; tau is paired when its
    reduced boundary is nonzero.  The (m-1)-simplices run in descending
    weight as rows, so the lead (least row) of a reduced column has the
    largest weight in its support, its lead weight.  The reduced columns
    of the paired tau of weight <= q are a basis of B_q, the image of the
    simplices of weight <= q, with distinct leads, so a vector of B_q
    lies in the chains of weight <= p exactly when it combines paired tau
    of lead weight <= p.  Clearing keeps every B_q, hence that count;
    the quotient by critical_cells changes only zero-length pairs, which
    no statistic reads, so they are dropped.

    One flagcomplex.reduce_complex call per weight class stores every
    degree's table on f, keyed by the 0/1 weights in vertex order (the
    key of graphs.weight_classes) and m.
    """
    key = tuple(w[v] for v in f.graph.vertices)
    table = f.weight_pairs.get((key, m))
    if table is None:
        cells = f.critical_cells(key)
        simps = {k: f.simplices(k) for k in cells}
        weight = {k: {p: sum(map(key.__getitem__, simps[k][p].indices)) for p in ps} for k, ps in cells.items()}
        tables = {
            (key, k): tuple((w, weight[k - 1][lead]) for lead, w in leads.items() if w > weight[k - 1][lead])
            for k, leads in reduce_complex(f, range(1, f.dim + 2), weights=weight, cells=cells).items()
        }
        f.weight_pairs.update(tables)
        table = tables[key, m]
    return table


def _located_rank(f: FlagComplex, w: WeightFunction, k: int, p: int, q: int) -> int:
    """Rank of the inclusion-induced map from the k-cycles of weight <= p
    that bound in the full complex to the classes of the weight-<=q
    (k+1)-level: dim(Z_p ∩ B) - dim(Z_p ∩ B_q) for p <= q, the number of
    bars (paired tau) with lead weight <= p and weight > q."""
    return sum(1 for weight, lead in _weight_pairs(f, w, k + 1) if lead <= p and weight > q)


# ---------------------------------------------------------------------------
# weighted exponent sum (dimension of the primary part, per irreducible)
# ---------------------------------------------------------------------------


def weighted_exponent_sum(f: FlagComplex, w: WeightFunction, k: int) -> int:
    """Sum of j * (number of exponent-j summands) for the order of w.

    Equals the top non-unit Fitting valuation of the localized boundary:
    with X the (k+1)-skeleton, F_j its filtration levels and F'_j those
    of the k-skeleton X',

        sum_{j <= k+1} (b_k(F_j) - b_k(X)) + sum_{j <= k} (b_{k+1}(X, F'_j) - b_{k+1}(X, X')).

    On the weight pairs of the degree-(k+1) boundary, the first summand
    is the number of paired tau of weight > j and the second is minus the
    number of paired tau of lead weight > j, so the sum is the total of
    weight - lead weight over the paired tau, that is over the bars.
    """
    _check_degree(f, k)
    return sum(weight - lead for weight, lead in _weight_pairs(f, w, k + 1))


# ---------------------------------------------------------------------------
# anti-invariant homology of the double cover
# ---------------------------------------------------------------------------


def _check_even_values(rho: Character) -> None:
    if any(v not in (1, 2) for v in rho.values.values()):
        raise InputError("character is not even: values must lie in {1, 2}")


def anti_invariant_entry(rho: Character) -> Callable[[int, str], int]:
    """boundary_matrix entry hook of the double cover's (-1)-eigenspace:
    the even-character twisted boundary at t = -1, which is -2 * sign
    toward the facet missing a weight-0 vertex and 0 for weight 1."""
    _check_even_values(rho)
    coeff = {v: -2 if n == 1 else 0 for v, n in rho.values.items()}
    return lambda sign, v: coeff[v] * sign


def anti_invariant_homology(f: FlagComplex, rho: Character) -> tuple[int, ...]:
    """Dimensions of the anti-invariant double-cover homology, degree 0 up
    to dim F + 1, from the ranks of one reduce_complex call on critical_cells."""
    entry = anti_invariant_entry(rho)
    rho.check_domain(f.graph)
    cells = f.critical_cells(tuple(rho[v] - 1 for v in f.graph.vertices))
    ranks = {k: len(leads) for k, leads in reduce_complex(f, range(0, f.dim + 1), entry=entry, cells=cells).items()}
    return tuple(len(cells[m - 1]) - ranks.get(m - 1, 0) - ranks.get(m, 0) for m in range(0, f.dim + 2))


def summand_counts(f: FlagComplex, rho: Character) -> list[int]:
    """Number of torsion summands of the (t+1)-part in degree k+1, for
    k = 0 .. dim F.

    Recursion in k: anti-invariant dimension in degree k+1 minus the
    reduced Betti number of the flag complex minus the previous count;
    the base case below degree 0 is zero.
    """
    _check_even_values(rho)
    if set(rho.values.values()) != {1, 2}:
        raise InputError("constant even character: no double cover to use")
    dims = anti_invariant_homology(f, rho)
    out: list[int] = []
    prev = 0
    for k in range(f.dim + 1):
        prev = dims[k + 1] - free_rank_check(f, k) - prev
        if prev < 0:
            raise ConsistencyError(f"negative summand count {prev} in degree {k + 1}")
        out.append(prev)
    return out


# ---------------------------------------------------------------------------
# Jordan block locating ranks
# ---------------------------------------------------------------------------


def top_jordan_count(f: FlagComplex, w: WeightFunction, k: int) -> int:
    """Number of maximal (exponent k+2) summands in degree k+1: the rank
    of the map from weight-0 k-cycles dying in the full complex into the
    classes of the level just below the full (k+1)-skeleton."""
    _check_degree(f, k)
    return _located_rank(f, w, k, 0, k + 1)


def c_rank(f: FlagComplex, w: WeightFunction, k: int, i: int, j: int) -> int:
    """Rank of the located-cycle map with source level j and target level
    i - 1; requires i > j.  A nonzero value certifies an exponent of at
    least i - j."""
    _check_degree(f, k)
    if i <= j:
        raise InputError("need i > j")
    if not (0 <= j <= k + 1) or not (0 <= i - 1 <= k + 2):
        raise InputError("filtration indices out of range")
    return _located_rank(f, w, k, j, i - 1)


def max_exponent(f: FlagComplex, w: WeightFunction, k: int, summands: int) -> int:
    """Largest exponent j with a summand of exponent j in degree k+1.

    0 when there is no torsion; with a single summand the exponent equals
    the weighted sum; otherwise it is the largest level gap q - p + 1
    over nonzero located-cycle ranks (target level q, source level p).
    A paired tau counts in those ranks exactly when lead weight <= p and
    q < weight, so the largest gap is the largest weight - lead weight.
    """
    _check_degree(f, k)
    if summands == 0:
        return 0
    if summands == 1:
        return weighted_exponent_sum(f, w, k)
    return max((weight - lead for weight, lead in _weight_pairs(f, w, k + 1)), default=0)


# ---------------------------------------------------------------------------
# degree-1 closed form for even characters
# ---------------------------------------------------------------------------


def _roots(n: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """Union-find root of each of the n vertices of the graph on edges;
    two vertices share a root exactly when they share a component."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return [find(x) for x in range(n)]


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
    roots1 = _roots(n, e1)
    h0_gamma0 = len(set(_roots(n, e0)))
    h0_gamma1 = len(set(roots1))
    omega_v = sum(wt.values())
    dim = h0_gamma0 + h0_gamma1 - 2 - omega_v
    hit = {roots1[g.index(v)] for v in g.vertices if wt[v] == 0}
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


def solve_exponents(profile: TorsionProfile, k: int) -> Optional[tuple[int, ...]]:
    """The unique exponent vector (r_1 .. r_{k+2}) with the profiled count,
    weighted sum, top count and maximal exponent, trailing zeros trimmed;
    None when several vectors match, and no match raises.

    A nonzero top count pins r_{k+2} (the maximal exponent is then k+2);
    otherwise a maximal exponent M pins one summand at M.  The other
    `rest` summands split the remaining weight into parts of 1 .. bound.
    Every such split lies between the most even and the most uneven one
    in dominance order (Macdonald, Symmetric Functions and Hall
    Polynomials, 1995, I.1), so the vector is unique exactly when those
    two coincide.
    """
    top, maxe = profile.top_count, profile.max_exponent
    rest, weight, bound = profile.summand_count, profile.weighted_sum, 0
    vec = [0] * (k + 2)
    if maxe == k + 2 and top > 0:
        vec[k + 1] = top
        rest, weight, bound = rest - top, weight - top * (k + 2), k + 1
    elif 0 < maxe < k + 2 and top == 0:
        vec[maxe - 1] = 1
        rest, weight, bound = rest - 1, weight - maxe, maxe
    elif maxe != 0 or top != 0:
        rest = -1  # no vector has this top count and maximal exponent
    if not 0 <= rest <= weight <= rest * bound:
        raise ConsistencyError(
            f"no exponent vector matches profile k={profile.k} d={profile.d}: "
            f"count={profile.summand_count} sum={profile.weighted_sum} "
            f"top={top} max={maxe}"
        )
    even = [weight // rest + (i < weight % rest) for i in range(rest)]
    uneven, left = [], weight
    for i in range(rest):
        uneven.append(min(bound, left - (rest - 1 - i)))
        left -= uneven[-1]
    if even != uneven:
        return None
    for part in even:
        vec[part - 1] += 1
    return tuple(vec[:maxe])


def torsion_profile(
    f: FlagComplex,
    chi: Character,
    d: int,
    k: int,
    summands: int,
) -> TorsionProfile:
    """Assemble the profile of the order-d part in degree k+1, given its
    summand count (summand_counts of the even reduction)."""
    _check_degree(f, k)
    w = derive_weight(chi, d)
    if all(x == 0 for x in w.weights.values()):
        return TorsionProfile(k, d, 0, 0, 0, 0, ())
    total = weighted_exponent_sum(f, w, k)
    top = top_jordan_count(f, w, k)
    maxe = max_exponent(f, w, k, summands)
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
    # Orders sharing a 0/1 weight vector share their summand counts and
    # profiles.
    classes = weight_classes(f.graph, chi, orders)
    counts = {
        key: summand_counts(f, even_reduction(chi, ds[0])) if any(key) else [0] * (f.dim + 1)
        for key, ds in classes.items()
    }
    for k in range(0, top):
        entry: dict = {"free_rank": free_rank_check(f, k), "torsion": {}, "profiles": {}}
        rank1 = t_minus_1_part(f, k)
        if rank1:
            entry["torsion"][1] = (rank1,)
        for key, ds in classes.items():
            profile = torsion_profile(f, chi, ds[0], k, counts[key][k])
            entry["profiles"][ds[0]] = profile
            for d in ds[1:]:
                entry["profiles"][d] = replace(profile, d=d)
            if profile.exponents is not None and any(profile.exponents):
                entry["torsion"].update(dict.fromkeys(ds, profile.exponents))
        out[k + 1] = entry
    return out
