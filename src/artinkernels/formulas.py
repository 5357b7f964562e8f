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
reduction of the boundary's sparse columns (_class_bars, read by _bars,
which _weight_pairs wraps for a weight function): one top-down
flagcomplex.reduce_complex call, with clearing, per weight class.  The
ranks of the anti-invariant complex come from the same driver, under an
entry hook built from the class key.
Both take the quotient by the closed star of the class's weight-0 vertex
u with the largest star (FlagComplex.cone), as the direct pipeline does:
a cone at every weight level, which keeps every bar of positive length,
and contracted by sigma -> sigma + {u} in the anti-invariant complex,
whose boundary is -2 * sign toward each facet missing a weight-0 vertex.
An empty quotient, u an apex (next to every other vertex), has no bars
and no anti-invariant homology, and gets neither reduction; its summand
counts, -b~_k less the count before, must all be 0, and
formula_decomposition makes no per-degree call for its class.  A
profile with no bars and no summands is the zero profile, with no check
to run.
filtration_betti and relative_betti compute single levels and pairs, and
stay the per-level oracle.

Every statistic of an order sees it only through its 0/1 weight class,
the key of graphs.weight_classes.  formula_decomposition looks each
class's cone (a flagcomplex.Quotient) up once and passes it to keyed
cores (_class_bars, whose bar tables it reads, and _anti_invariant_dims),
with the reduced Betti numbers read once per complex for _summand_counts:
the bars are the exponent vector (_exponents), the double cover's count
must equal the number of bars, and the class's other orders share the
vector; the public readers derive the key and call the same cores.  It
answers and admits as the direct pipeline does, and TorsionProfile.of
reads a profile off a vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .flagcomplex import (
    FiltrationLevel,
    FlagComplex,
    Quotient,
    boundary_matrix,
    filtration_level,
    level_boundary_matrix,
    reduce_complex,
    simplex_weights,
)
from .graphs import (
    Character,
    ConsistencyError,
    InputError,
    SimplicialGraph,
    WeightFunction,
    weight_classes,
)
from .homology import (
    Admission,
    ModuleDecomposition,
    boundary_rank,
    free_rank_check,
    require_admissible,
    t_minus_1_part,
)
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


def _bars(f: FlagComplex, key: tuple[int, ...], m: int) -> tuple[tuple[int, int], ...]:
    """(weight, lead weight) of each paired m-simplex tau with weight >
    lead weight, a bar, from one reduction of the degree-m boundary
    columns outside the cone of key (FlagComplex.cone) in weight order.

    The m-simplices are taken in ascending weight, and the boundary of
    each is reduced against those before it; tau is paired when its
    reduced boundary is nonzero.  The (m-1)-simplices run in descending
    weight as rows, so the lead (least row) of a reduced column has the
    largest weight in its support, its lead weight.  The reduced columns
    of the paired tau of weight <= q are a basis of B_q, the image of the
    simplices of weight <= q, with distinct leads, so a vector of B_q
    lies in the chains of weight <= p exactly when it combines paired tau
    of lead weight <= p.  Clearing keeps every B_q, hence that count;
    the quotient by the cone changes only zero-length pairs, which no
    statistic reads, so they are dropped.  Read off f's table, which
    _class_bars fills for every degree at once.
    """
    table = f.weight_pairs.get((key, m))
    if table is None:
        table = _class_bars(f, key, f.cone(key))[m]
    return table


def _class_bars(f: FlagComplex, key: tuple[int, ...], cone: Quotient) -> dict[int, tuple[tuple[int, int], ...]]:
    """The bars (_bars) of every degree 1 .. dim + 1 of the class key,
    from one flagcomplex.reduce_complex call on the cells of its cone,
    stored on f keyed by the class key and the degree; an empty quotient
    has no bars and needs no call."""
    if cone.empty:
        tables = dict.fromkeys(range(1, f.dim + 2), ())
    else:
        weight = {k: dict(zip(ps, simplex_weights(f, key, k, ps))) for k, ps in cone.cells.items()}
        tables = {
            k: tuple((w, weight[k - 1][lead]) for lead, w in leads.items() if w > weight[k - 1][lead])
            for k, leads in reduce_complex(f, range(1, f.dim + 2), weights=weight, cells=cone.cells).items()
        }
    f.weight_pairs.update(((key, k), table) for k, table in tables.items())
    return tables


def _weight_pairs(f: FlagComplex, w: WeightFunction, m: int) -> tuple[tuple[int, int], ...]:
    """The bars (_bars) of the degree-m boundary under the weights of w."""
    return _bars(f, tuple(w[v] for v in f.graph.vertices), m)


def _exponents(bars: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """The exponent vector (r_1 .. r_M) of one degree: one summand of
    exponent weight - lead weight per bar.  The weight-class boundary is
    the graded boundary of the weight filtration, whose Smith form over
    Q[s] is the barcode (Zomorodian and Carlsson, DCG 2005, sections
    3-4); M is the longest bar, so no trailing zero is kept."""
    vec = [0] * max((weight - lead for weight, lead in bars), default=0)
    for weight, lead in bars:
        vec[weight - lead - 1] += 1
    return tuple(vec)


# ---------------------------------------------------------------------------
# anti-invariant homology of the double cover
# ---------------------------------------------------------------------------


def _check_even_values(rho: Character) -> None:
    if any(v not in (1, 2) for v in rho.values.values()):
        raise InputError("character is not even: values must lie in {1, 2}")


def _even_key(f: FlagComplex, rho: Character) -> tuple[int, ...]:
    """The weight class of an even character, rho - 1: its class at d = 2."""
    _check_even_values(rho)
    (key,) = weight_classes(f.graph, rho, [2])
    return key


def anti_invariant_entry(rho: Character) -> Callable[[int, str], int]:
    """boundary_matrix entry hook of the double cover's (-1)-eigenspace:
    the even-character twisted boundary at t = -1, which is -2 * sign
    toward the facet missing a weight-0 vertex and 0 for weight 1."""
    _check_even_values(rho)
    return _key_entry(rho.values, (n - 1 for n in rho.values.values()))


def _key_entry(names: Iterable[str], key: Iterable[int]) -> Callable[[int, str], int]:
    """anti_invariant_entry of the 0/1 weights key on the vertices names,
    in the same order."""
    coeff = {v: 0 if b else -2 for v, b in zip(names, key)}
    return lambda sign, v: coeff[v] * sign


def _anti_invariant_dims(f: FlagComplex, key: tuple[int, ...], cone: Quotient) -> tuple[int, ...]:
    """anti_invariant_homology of the class key on its cone: all 0, with
    no reduction run, when the quotient is empty."""
    if cone.empty:
        return (0,) * (f.dim + 2)
    cells, entry = cone.cells, _key_entry(f.graph.vertices, key)
    ranks = {k: len(leads) for k, leads in reduce_complex(f, range(0, f.dim + 1), entry=entry, cells=cells).items()}
    return tuple(len(cells[m - 1]) - ranks.get(m - 1, 0) - ranks.get(m, 0) for m in range(0, f.dim + 2))


def anti_invariant_homology(f: FlagComplex, rho: Character) -> tuple[int, ...]:
    """Dimensions of the anti-invariant double-cover homology, degree 0 up
    to dim F + 1, from one reduce_complex call on its class's cone."""
    key = _even_key(f, rho)
    return _anti_invariant_dims(f, key, f.cone(key))


def _summand_counts(dims: Sequence[int], betti: Sequence[int]) -> list[int]:
    """The recursion of summand_counts on the anti-invariant dimensions
    dims and the reduced Betti numbers betti, both from degree 0 on."""
    out = [0]
    for k, b in enumerate(betti):
        out.append(dims[k + 1] - b - out[-1])
        if out[-1] < 0:
            raise ConsistencyError(f"negative summand count {out[-1]} in degree {k + 1}")
    return out[1:]


def summand_counts(f: FlagComplex, rho: Character) -> list[int]:
    """Number of torsion summands of the (t+1)-part in degree k+1, for
    k = 0 .. dim F.

    Recursion in k: anti-invariant dimension in degree k+1 minus the
    reduced Betti number of the flag complex minus the previous count;
    the base case below degree 0 is zero.
    """
    key = _even_key(f, rho)
    if all(key) or not any(key):
        raise InputError("constant even character: no double cover to use")
    betti = [free_rank_check(f, k) for k in range(f.dim + 1)]
    return _summand_counts(_anti_invariant_dims(f, key, f.cone(key)), betti)


# ---------------------------------------------------------------------------
# readers of one degree's bars: weighted exponent sum and Jordan blocks
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


def top_jordan_count(f: FlagComplex, w: WeightFunction, k: int) -> int:
    """Number of maximal (exponent k+2) summands in degree k+1: the rank
    of the map from weight-0 k-cycles dying in the full complex into the
    classes of the level just below the full (k+1)-skeleton."""
    _check_degree(f, k)
    return sum(lead <= 0 and weight > k + 1 for weight, lead in _weight_pairs(f, w, k + 1))


def c_rank(f: FlagComplex, w: WeightFunction, k: int, i: int, j: int) -> int:
    """Rank of the located-cycle map with source level j and target level
    i - 1; requires i > j.  A nonzero value certifies an exponent of at
    least i - j.  It is dim(Z_j ∩ B) - dim(Z_j ∩ B_{i-1}), the number of
    bars with lead weight <= j and weight > i - 1.
    """
    _check_degree(f, k)
    if i <= j:
        raise InputError("need i > j")
    if not (0 <= j <= k + 1) or not (0 <= i - 1 <= k + 2):
        raise InputError("filtration indices out of range")
    return sum(1 for weight, lead in _weight_pairs(f, w, k + 1) if lead <= j and weight > i - 1)


def max_exponent(f: FlagComplex, w: WeightFunction, k: int, summands: int) -> int:
    """Largest exponent j with a summand of exponent j in degree k+1, 0
    when there is no torsion: the longest bar.

    It is the largest level gap q - p + 1 over nonzero located-cycle
    ranks (target level q, source level p).  A paired tau counts in those
    ranks exactly when lead weight <= p and q < weight, so the largest gap
    is the largest weight - lead weight.  The bars alone give it, so
    summands, the double cover's summand count, is not read; _profile
    checks that count against the bars.
    """
    _check_degree(f, k)
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
    (wt,) = weight_classes(g, rho, [2])
    if not g.is_connected():
        raise InputError("disconnected graph: use the direct pipeline for the degree-1 summary")
    n = g.n_vertices
    edges = [(g.index(a), g.index(b)) for a, b in g.edges]
    roots1 = _roots(n, [(a, b) for a, b in edges if wt[a] + wt[b] <= 1])
    h0_gamma0 = len(set(_roots(n, [(a, b) for a, b in edges if wt[a] + wt[b] == 0])))
    h0_gamma1 = len(set(roots1))
    dim = h0_gamma0 + h0_gamma1 - 2 - sum(wt)
    hit = {roots1[i] for i in range(n) if wt[i] == 0}
    blocks = max(len(hit) - 1, 0)
    return dim, blocks


# ---------------------------------------------------------------------------
# torsion profiles, read once per (weight class, degree)
# ---------------------------------------------------------------------------


@dataclass
class TorsionProfile:
    """Everything the formula pipeline knows about one primary part.

    exponents is the full vector (r_1 .. r_M), trailing zeros trimmed;
    weighted_sum (the dimension counted per irreducible factor),
    top_count (the number of maximal-exponent k+2 summands) and
    max_exponent are read off it, and summand_count is the double
    cover's count of summands.
    """

    k: int
    d: int
    weighted_sum: int
    summand_count: int
    top_count: int
    max_exponent: int
    exponents: tuple[int, ...] = ()

    @classmethod
    def of(cls, k: int, d: int, exponents: Sequence[int], summands: int) -> TorsionProfile:
        """The profile of the trimmed exponent vector (r_1 .. r_M) of degree k+1."""
        n = len(exponents)
        weighted = sum(j * r for j, r in enumerate(exponents, start=1))
        return cls(k, d, weighted, summands, exponents[k + 1] if n > k + 1 else 0, n, tuple(exponents))

    def validate(self) -> None:
        lo, hi = self.summand_count, (self.k + 2) * self.summand_count
        if not (lo <= self.weighted_sum <= hi):
            raise ConsistencyError(f"weighted sum {self.weighted_sum} outside [{lo}, {hi}]")
        if self.top_count > self.summand_count:
            raise ConsistencyError("more maximal blocks than blocks")
        if self.max_exponent > self.k + 2:
            raise ConsistencyError("exponent exceeds the degree bound")


def solve_exponents(profile: TorsionProfile, k: int) -> Optional[tuple[int, ...]]:
    """The unique exponent vector (r_1 .. r_{k+2}) with the profiled count,
    weighted sum, top count and maximal exponent, trailing zeros trimmed;
    None when several vectors match, and no match raises.  A closed-form
    helper that no pipeline calls: formula_decomposition reads the vector
    off the bars.

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


def _profile(k: int, d: int, bars: Sequence[tuple[int, int]], summands: int) -> TorsionProfile:
    # no bars and no summands: the zero profile
    if not (bars or summands):
        return TorsionProfile(k, d, 0, 0, 0, 0, ())
    profile = TorsionProfile.of(k, d, _exponents(bars), summands)
    profile.validate()
    # two theorems count the summands: the bars of the weight filtration
    # and the anti-invariant homology of the double cover
    if len(bars) != summands:
        raise ConsistencyError(
            f"bar count {len(bars)} differs from the double cover's summand count {summands} "
            f"in degree {k + 1}, order {d}"
        )
    return profile


def torsion_profile(f: FlagComplex, chi: Character, d: int, k: int, summands: int) -> TorsionProfile:
    """Assemble the profile of the order-d part in degree k+1, given its
    summand count (summand_counts of the even reduction)."""
    _check_degree(f, k)
    (key,) = weight_classes(f.graph, chi, [d])
    # no d-divisible label: the zero profile, whatever the count
    return _profile(k, d, _bars(f, key, k + 1), summands) if any(key) else _profile(k, d, (), 0)


def formula_decomposition(
    f: FlagComplex,
    chi: Character,
    orders: Sequence[int],
    max_degree: Optional[int] = None,
    admitted: Optional[Admission] = None,
) -> dict[int, ModuleDecomposition]:
    """Decompositions of degrees 0 .. dim F + 1, as full_decomposition
    gives them, with the torsion of order 1 and of each order in orders
    and no remainder factors; degree 0 is the constant answer for a
    surjective character.  It admits as full_decomposition does, with
    no override: a degenerate character raises InputError.  When orders
    are admitted's candidate orders, their weight classes are read off
    admitted (require_admissible); a subset is grouped afresh."""
    admitted = require_admissible(f, chi, allow_degenerate=False, admitted=admitted)
    classes = admitted.classes if tuple(orders) == admitted.orders else weight_classes(f.graph, chi, orders)
    top = f.dim + 1
    if max_degree is not None:
        top = min(top, max_degree)
    out: dict[int, ModuleDecomposition] = {}
    if top >= 0:
        out[0] = ModuleDecomposition(0, 0, {1: (1,)})
    betti = [free_rank_check(f, k) for k in range(f.dim + 1)] if top >= 1 else []
    for k in range(0, top):
        rank1 = t_minus_1_part(f, k)
        out[k + 1] = ModuleDecomposition(k + 1, betti[k], {1: (rank1,)} if rank1 else {})
    # Every statistic of an order is read off its weight class: each class
    # with a d-divisible label is read once, on its cone, and its other
    # orders share its vectors.
    for key, ds in classes.items():
        if top < 1 or not any(key):
            continue
        cone = f.cone(key)
        counts = _summand_counts(_anti_invariant_dims(f, key, cone), betti)
        tables = _class_bars(f, key, cone)
        if cone.empty:
            # no bars, and counts that passed the guard only as zeros, so
            # only zero profiles
            continue
        for k in range(0, top):
            vec = _profile(k, ds[0], tables[k + 1], counts[k]).exponents
            if vec:
                out[k + 1].torsion.update(dict.fromkeys(ds, vec))
    for dec in out.values():
        dec.torsion = dict(sorted(dec.torsion.items()))
    return out
