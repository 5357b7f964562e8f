"""Flag complex of a graph: cliques, incidence signs, boundary matrices,
and the weight filtration of the skeleta.

The empty simplex is materialized as the (-1)-dimensional cell so every
chain complex here is augmented; reduced homology is then uniform across
degrees, with the degree-0 boundary matrix being the all-ones
augmentation row.

Each simplex is one int, its code: bit i set for each vertex i, as
Ripser codes Rips simplices (Bauer, J. Appl. Comput. Topol. 5, 2021).
Every table is read off the codes: a facet is code ^ (1 << v), St(u) is
the codes inside u's closed neighbourhood mask, and a weight under 0/1
vertex weights is a popcount.  Simplex objects are made only on request.

Each complex tabulates the faces of its simplices once (FlagComplex.faces),
and boundary_matrix is the one builder that turns that table into a
matrix: filtration levels keep a subset of the columns, relative pairs
and weight-ordered eliminations also pick and order the rows, and the
twisted and anti-invariant complexes of the other modules replace the
incidence sign through its entry hook.  It reads the table as sparse
columns, which the eliminations of linalg take as they are; the dense
matrix is a view of them for the Smith form over Q[t] and for callers
that index entries.

reduce_complex ranks or pairs a whole chain complex with one top-down
column reduction that clears, or its quotient by the closed star of a
vertex u, one Quotient (FlagComplex.star).  Under any entry hook that
keeps u's entry a unit the star is a cone on u, hence acyclic, so the
quotient keeps the reduced homology, and its offsets are the ranks it
lacks, from the star's cell counts alone; for u of weight 0 it also keeps
every bar of positive length of the weight filtration.  FlagComplex.cone
picks u for every quotient of both pipelines: a weight class's weight-0
vertex with the largest star, and for the rank complexes, whose entries
are units everywhere, the largest star of all (the all-zero key).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .graphs import InputError, SimplicialGraph, WeightFunction
from .linalg import rank_rational, reduce_columns


@dataclass(frozen=True)
class Simplex:
    """A clique, stored in the global vertex order.

    vertices are identifiers sorted by declaration order; indices are
    their positions in that order.  The empty tuple is the (-1)-simplex.
    """

    vertices: tuple[str, ...]
    indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def facet(self, i: int) -> tuple[int, ...]:
        """Index tuple of the face obtained by dropping position i."""
        return self.indices[:i] + self.indices[i + 1 :]

    def __str__(self) -> str:
        return "{" + ",".join(self.vertices) + "}" if self.vertices else "{}"


def incidence(sigma: Simplex, tau: Simplex) -> int:
    """Incidence number: (-1)^s if tau drops one vertex of sigma, else 0.

    s counts the vertices of sigma that come after the dropped one, so
    the boundary of an edge {a, b} with a < b is {a} - {b}; a vertex is
    incident to the empty simplex with sign +1.
    """
    if tau.dim != sigma.dim - 1:
        return 0
    dropped = None
    j = 0
    for i, v in enumerate(sigma.indices):
        if j < len(tau.indices) and tau.indices[j] == v:
            j += 1
        elif dropped is None:
            dropped = i
        else:
            return 0
    if dropped is None or j != len(tau.indices):
        return 0
    later = len(sigma.indices) - 1 - dropped
    return -1 if later % 2 else 1


class Quotient(NamedTuple):
    """A complex modulo the closed star of one vertex u (FlagComplex.star):
    coned, the mask 1 << u, or 0 when nothing is taken away; cells, the
    positions kept in each dimension -1 .. dim + 1; offsets, the star's
    boundary ranks, which a full rank adds to the quotient's; empty, true
    when no cell is kept."""

    coned: int
    cells: dict[int, Sequence[int]]
    offsets: dict[int, int]
    empty: bool


class FlagComplex:
    """All cliques of a graph, graded by dimension, in lexicographic order.

    codes[d] lists the codes of the d-simplices (dimension -1 .. dim) in
    the lexicographic order of their vertex index tuples, and the position
    of a simplex is its place there (the one code-to-position dict
    _position); _adjacency[i] is the mask of vertex i's neighbours.

    boundary_ranks, None until homology.boundary_rank first runs, is then
    the untwisted boundary's rank in every degree, one table assigned
    whole.  weight_pairs holds the bars (weight > lead weight) of every
    degree of a 0/1 weight vector, stored by the formula pipeline's one
    reduce_complex call per vector.  The memos: faces, the face table of
    each dimension; star, each vertex's Quotient; cone, each key's, the
    same value as its vertex's star, next to one count of the simplices
    through each vertex; and each key's weight-1 vertex mask.  Every entry
    is complete when stored and a function of the complex and its key
    alone, so threads sharing a complex can at worst compute an entry
    twice and store equal values; two racing reads may then be equal but
    distinct objects, so they compare by ==, not by identity.
    """

    def __init__(self, graph: SimplicialGraph, codes: dict[int, list[int]], adjacency: list[int]):
        self.graph = graph
        self.codes = codes
        self._adjacency = adjacency
        self.dim = max(codes)
        self._position = {code: p for level in codes.values() for p, code in enumerate(level)}
        self.boundary_ranks: Optional[dict[int, int]] = None
        self.weight_pairs: dict[tuple[tuple[int, ...], int], tuple[tuple[int, int], ...]] = {}
        self._faces: dict[int, tuple[tuple[tuple[int, int, str], ...], ...]] = {}
        self._stars: dict[int, Quotient] = {}
        self._cones: dict[tuple[int, ...], Quotient] = {}
        self._through: Optional[list[int]] = None
        self._masks: dict[tuple[int, ...], int] = {}
        self._simplices: dict[int, tuple[Simplex, ...]] = {}

    def simplices(self, dim: int) -> tuple[Simplex, ...]:
        """The dim-simplices as Simplex objects, made on the first call."""
        if dim not in self._simplices:
            names, every = self.graph.vertices, range(self.graph.n_vertices)
            indices = (tuple(i for i in every if code >> i & 1) for code in self.codes.get(dim, ()))
            self._simplices[dim] = tuple(Simplex(tuple(map(names.__getitem__, idx)), idx) for idx in indices)
        return self._simplices[dim]

    def count(self, dim: int) -> int:
        return len(self.codes.get(dim, ()))

    def position(self, dim: int, indices: tuple[int, ...]) -> int:
        return self._position[sum(1 << i for i in indices)]

    def faces(self, k: int) -> tuple[tuple[tuple[int, int, str], ...], ...]:
        """Face table of the k-simplices, built once per dimension.

        Entry c lists, for the c-th k-simplex and each of its vertices v,
        (position of the facet missing v among the (k-1)-simplices,
        incidence sign, v); the sign is (-1)^s with s the number of
        vertices after v, as in incidence.
        """
        table = self._faces.get(k)
        if table is None:
            at, names, rows = self._position, self.graph.vertices, []
            for code in self.codes.get(k, ()):
                row, rest, after = [], code, k
                while rest:
                    low = rest & -rest
                    row.append((at[code ^ low], -1 if after % 2 else 1, names[low.bit_length() - 1]))
                    rest ^= low
                    after -= 1
                rows.append(tuple(row))
            table = self._faces[k] = tuple(rows)
        return table

    def star(self, u: int) -> Quotient:
        """The quotient by the closed star of vertex u, memoized.  Its cells
        are the simplices with a vertex neither u nor next to u, so whose
        code meets the complement of u's closed neighbourhood.  Its offsets
        are the star's boundary ranks under any entry hook that keeps u's
        entry a unit: the star is a cone on u, so its augmented complex is
        exact, and r[-1] = 0, r[m + 1] = |St(u)_m| - r[m], up to
        r[dim + 1] = 0 (no cells above; a complex cut at max_dim lacks the
        cones of its top simplices, so exactness stops below dim).  An apex
        u, next to every other vertex, leaves no cell: one mask test sets
        empty, with no scan of the cells."""
        quotient = self._stars.get(u)
        if quotient is None:
            far = ~(self._adjacency[u] | 1 << u) & ((1 << self.graph.n_vertices) - 1)
            cells, offsets = {}, {-1: 0}
            for m, codes in self.codes.items():
                kept = cells[m] = [p for p, code in enumerate(codes) if code & far] if far else []
                offsets[m + 1] = len(codes) - len(kept) - offsets[m]
            cells[self.dim + 1], offsets[self.dim + 1] = [], 0
            quotient = self._stars[u] = Quotient(1 << u, cells, offsets, not far)
        return quotient

    def cone(self, key: Sequence[int]) -> Quotient:
        """The quotient of every elimination of both pipelines: star(u) for
        u the weight-0 vertex of key (0/1 weights in vertex order) with the
        largest closed star, twice the simplices through it, the lowest
        index on ties; the full complex (every cell, zero offsets, coned 0)
        if no vertex weighs 0."""
        key = tuple(key)
        cone = self._cones.get(key)
        if cone is None:
            zeros = [i for i, x in enumerate(key) if not x]
            if zeros:
                if self._through is None:
                    cells = list(chain.from_iterable(self.codes.values()))
                    self._through = [sum(map((1 << v).__and__, cells)) >> v for v in range(self.graph.n_vertices)]
                cone = self.star(max(zeros, key=self._through.__getitem__))
            else:
                every = range(-1, self.dim + 2)
                cone = Quotient(0, {d: range(self.count(d)) for d in every}, dict.fromkeys(every, 0), False)
            self._cones[key] = cone
        return cone

    def __repr__(self) -> str:
        counts = ", ".join(f"{self.count(d)}x{d}" for d in range(0, self.dim + 1))
        return f"FlagComplex(dim {self.dim}: {counts})"


def build_flag_complex(g: SimplicialGraph, max_dim: Optional[int] = None) -> FlagComplex:
    """Enumerate every clique of g (all of them, not just maximal ones).

    One dimension at a time: each clique of the last one, in order, is
    extended by each of its candidates (the vertices after its last one
    and next to all of its own, one adjacency mask) in ascending order,
    so each dimension comes out in lexicographic order with no sort and
    no recursion.  An optional max_dim prunes cliques with more than
    max(max_dim, 0) + 1 vertices.
    """
    adjacency = g.neighbour_masks()
    codes = {-1: [0]}
    level = [(0, (1 << g.n_vertices) - 1)]
    for d in range(0, g.n_vertices if max_dim is None else max(max_dim, 0) + 1):
        extended = []
        for code, candidates in level:
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                extended.append((code | low, candidates & adjacency[low.bit_length() - 1]))
        if not extended:
            break
        codes[d] = [code for code, _ in extended]
        level = extended
    return FlagComplex(g, codes, adjacency)


def boundary_matrix(
    f: FlagComplex,
    k: int,
    cols: Optional[Sequence[int]] = None,
    rows: Optional[Sequence[int]] = None,
    entry: Optional[Callable[[int, str], object]] = None,
    zero: object = 0,
    sparse: bool = False,
) -> list:
    """Matrix of the augmented boundary in degree k; the one builder every
    chain complex of the package goes through.

    Rows are (k-1)-simplices (the empty simplex when k = 0), columns are
    k-simplices; entry (tau, sigma) is incidence(sigma, tau).  cols and
    rows restrict both to the simplices at the given positions, in that
    order; a facet outside rows is dropped, which gives the boundary of
    the quotient by the sub-complex left out.  entry(sign, v) replaces
    the sign of the facet missing vertex v.  Out of range k gives an
    empty matrix of the correct shape.

    The matrix is read off the face table as its columns, one dict per
    column from row to entry with the zero entries left out; sparse=True
    returns these, and otherwise the dense rows are their view, with
    zero in the other places.
    """
    faces = f.faces(k)
    if cols is None:
        cols = range(len(faces))
    slot = None if rows is None else {p: r for r, p in enumerate(rows)}
    columns = []
    for c in cols:
        column = {}
        for pos, sign, v in faces[c]:
            if slot is not None:
                pos = slot.get(pos)
                if pos is None:
                    continue
            x = sign if entry is None else entry(sign, v)
            if x:
                column[pos] = x
        columns.append(column)
    if sparse:
        return columns
    nrows = f.count(k - 1) if rows is None else len(rows)
    mat = [[zero] * len(columns) for _ in range(nrows)]
    for c, column in enumerate(columns):
        for r, x in column.items():
            mat[r][c] = x
    return mat


def reduce_complex(
    f: FlagComplex,
    degrees: range,
    entry: Optional[Callable[[int, str], int]] = None,
    weights: Optional[dict[int, Union[Sequence[int], dict[int, int]]]] = None,
    cells: Optional[dict[int, Sequence[int]]] = None,
) -> dict[int, dict[int, int]]:
    """Leads of the reduced boundary in each degree of the range: the
    position of each (k-1)-simplex leading a nonzero reduced column, mapped
    to the weight (0 without weights) of that column's k-simplex; their
    number is the rank.

    Clearing (Chen and Kerber, "Persistent homology computation with a
    twist", EuroCG 2011): from the top down, the leads of degree m + 1 are
    left out of the columns of degree m.  That needs only d∘d = 0, which
    entry must keep: a reduced column is a cycle whose lead comes first in
    its support, so a cleared simplex differs by a cycle from uncleared
    ones of no greater weight; the ranks and every B_q stay as they were.

    weights gives each dimension's simplex weights by position; columns
    then run in ascending and rows in descending weight (stable sorts),
    so a lead has the largest weight in its column's support, and each
    column's lead is read off reduce_columns.  Without weights both run
    in position order, and the leads are the pivots of rank_rational.
    cells, positions by dimension, reduces the quotient by the sub-complex
    left out (Quotient.cells); weights need only the positions kept.
    A degree with no columns left or no rows, as most degrees of a cone's
    quotient are, has no leads: it gets {} with no matrix built or reduced.
    """
    out: dict[int, dict[int, int]] = {}
    cleared: dict[int, int] = {}
    for m in reversed(degrees):
        rows = None if cells is None else cells.get(m - 1, ())
        cols = [c for c in (range(f.count(m)) if cells is None else cells.get(m, ())) if c not in cleared]
        if not cols or rows is not None and not rows:
            cleared = out[m] = {}
            continue
        if weights is None:
            pivots: dict[int, dict[int, int]] = {}
            height = f.count(m - 1) if rows is None else len(rows)
            rank_rational(boundary_matrix(f, m, cols=cols, rows=rows, entry=entry, sparse=True), pivots, height)
            cleared = out[m] = dict.fromkeys(pivots if rows is None else map(rows.__getitem__, pivots), 0)
            continue
        cols.sort(key=weights[m].__getitem__)
        rows = sorted(range(f.count(m - 1)) if rows is None else rows, key=weights[m - 1].__getitem__, reverse=True)
        matrix = boundary_matrix(f, m, cols=cols, rows=rows, entry=entry, sparse=True)
        leads = reduce_columns(matrix, height=len(rows))
        cleared = out[m] = {rows[r]: weights[m][c] for c, r in zip(cols, leads) if r is not None}
    return out


def simplex_weight(sigma: Simplex, w: WeightFunction) -> int:
    """Sum of the vertex weights; the empty simplex weighs 0."""
    return sum(w[v] for v in sigma.vertices)


def simplex_weights(f: FlagComplex, key: Sequence[int], k: int, positions: Optional[Sequence[int]] = None) -> list[int]:
    """Weights of the k-simplices at positions (all of them by default),
    under 0/1 vertex weights given in the graph's vertex order (the key of
    graphs.weight_classes): the popcount of each code's weight-1 vertices,
    under one mask per key."""
    key = tuple(key)
    mask = f._masks.get(key)
    if mask is None:
        mask = f._masks[key] = sum(1 << i for i, x in enumerate(key) if x)
    codes = f.codes.get(k, ())
    if positions is not None:
        codes = map(codes.__getitem__, positions)
    return list(map(int.bit_count, map(mask.__and__, codes)))


def total_weight(f: FlagComplex, w: WeightFunction, k: int) -> int:
    """Total weight of the set of k-simplices."""
    return sum(simplex_weight(s, w) for s in f.simplices(k))


@dataclass(frozen=True)
class FiltrationLevel:
    """Sub-complex: the (m-1)-skeleton plus the m-simplices of weight <= j.

    Monotone in j; at j = m + 1 it is the full m-skeleton, since an
    m-simplex has m + 1 vertices of weight at most 1 each.
    """

    complex: FlagComplex
    weight: WeightFunction
    m: int
    j: int
    _top: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        top = tuple(
            p
            for p, s in enumerate(self.complex.simplices(self.m))
            if simplex_weight(s, self.weight) <= self.j
        )
        object.__setattr__(self, "_top", top)

    def positions(self, dim: int) -> Sequence[int]:
        """Positions in the complex of the level's dim-simplices."""
        if dim < self.m:
            return range(self.complex.count(dim))
        if dim == self.m:
            return self._top
        return ()

    def simplices(self, dim: int) -> tuple[Simplex, ...]:
        every = self.complex.simplices(dim)
        return tuple(every[p] for p in self.positions(dim))

    def count(self, dim: int) -> int:
        return len(self.positions(dim))


def filtration_level(f: FlagComplex, w: WeightFunction, m: int, j: int) -> FiltrationLevel:
    """The filtration piece at skeleton dimension m and weight bound j."""
    if m < 0 or m > f.dim + 1:
        raise InputError(f"filtration dimension {m} out of range for dim-{f.dim} complex")
    if j < 0:
        raise InputError("weight bound must be non-negative")
    return FiltrationLevel(f, w, m, j)


def level_boundary_matrix(level: FiltrationLevel, k: int) -> list[list[int]]:
    """Boundary matrix of a filtration level in degree k.

    Faces of retained simplices are always present, so the matrix is the
    full boundary with columns restricted to the level's k-simplices.
    """
    return boundary_matrix(level.complex, k, cols=level.positions(k))
