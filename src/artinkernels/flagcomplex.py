"""Flag complex of a graph: cliques, incidence signs, boundary matrices,
and the weight filtration of the skeleta.

The empty simplex is materialized as the (-1)-dimensional cell so every
chain complex here is augmented; reduced homology is then uniform across
degrees, with the degree-0 boundary matrix being the all-ones
augmentation row.

Each complex tabulates the faces of its simplices once (FlagComplex.faces),
and boundary_matrix is the one builder that turns that table into a
matrix: filtration levels keep a subset of the columns, relative pairs
and weight-ordered eliminations also pick and order the rows, and the
twisted and anti-invariant complexes of the other modules replace the
incidence sign through its entry hook.  It reads the table as sparse
columns, which the eliminations of linalg take as they are; the dense
matrix is a view of them for the Smith form over Q[t] and for callers
that index entries.  reduce_complex ranks or pairs a whole chain complex
with one top-down column reduction that clears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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


class FlagComplex:
    """All cliques of a graph, graded by dimension, in lexicographic order.

    boundary_ranks, None until homology.boundary_rank first runs, is then
    the untwisted boundary's rank in every degree, one table assigned
    whole.  weight_pairs holds the weight pairs of every degree of a 0/1
    weight vector, stored by the formula pipeline's one reduce_complex
    call per vector; faces memoizes the face table of each dimension.
    Every entry is complete when stored and a function of the complex
    and its key alone, so threads sharing a complex can at worst compute
    an entry twice and store the same value.
    """

    def __init__(self, graph: SimplicialGraph, levels: dict[int, list[Simplex]]):
        self.graph = graph
        self._levels = levels
        self.dim = max(levels)
        self._positions: dict[int, dict[tuple[int, ...], int]] = {
            d: {s.indices: i for i, s in enumerate(simps)} for d, simps in levels.items()
        }
        self.boundary_ranks: Optional[dict[int, int]] = None
        self.weight_pairs: dict[tuple[tuple[int, ...], int], tuple[tuple[int, int], ...]] = {}
        self._faces: dict[int, tuple[tuple[tuple[int, int, str], ...], ...]] = {}

    def simplices(self, dim: int) -> tuple[Simplex, ...]:
        return tuple(self._levels.get(dim, ()))

    def count(self, dim: int) -> int:
        return len(self._levels.get(dim, ()))

    def position(self, dim: int, indices: tuple[int, ...]) -> int:
        return self._positions[dim][indices]

    def faces(self, k: int) -> tuple[tuple[tuple[int, int, str], ...], ...]:
        """Face table of the k-simplices, built once per dimension.

        Entry c lists, for the c-th k-simplex and each of its vertices v,
        (position of the facet missing v among the (k-1)-simplices,
        incidence sign, v); the sign is (-1)^s with s the number of
        vertices after v, as in incidence.
        """
        table = self._faces.get(k)
        if table is None:
            below = self._positions.get(k - 1, {})
            table = self._faces[k] = tuple(
                tuple(
                    (below[sigma.facet(i)], -1 if (k - i) % 2 else 1, v)
                    for i, v in enumerate(sigma.vertices)
                )
                for sigma in self._levels.get(k, ())
            )
        return table

    def __repr__(self) -> str:
        counts = ", ".join(f"{self.count(d)}x{d}" for d in range(0, self.dim + 1))
        return f"FlagComplex(dim {self.dim}: {counts})"


def build_flag_complex(g: SimplicialGraph, max_dim: Optional[int] = None) -> FlagComplex:
    """Enumerate every clique of g (all of them, not just maximal ones).

    Depth-first extension over the ordered vertex set, with an explicit
    stack; an optional max_dim prunes cliques with more than max_dim + 1
    vertices.  Deterministic: each dimension comes out in lexicographic
    order.
    """
    levels: dict[int, list[Simplex]] = {-1: [Simplex((), ())]}
    stack: list[tuple[tuple[int, ...], list[int]]] = [((), list(range(g.n_vertices)))]
    while stack:
        prefix, candidates = stack.pop()
        for v in candidates:
            clique = prefix + (v,)
            simp = Simplex(tuple(g.vertices[i] for i in clique), clique)
            levels.setdefault(simp.dim, []).append(simp)
            if max_dim is not None and len(clique) >= max_dim + 1:
                continue
            nxt = [w for w in candidates if w > v and g.adjacent(v, w)]
            if nxt:
                stack.append((clique, nxt))
    for simps in levels.values():
        simps.sort(key=lambda s: s.indices)
    return FlagComplex(g, levels)


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
    weights: Optional[dict[int, Sequence[int]]] = None,
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
    """
    out: dict[int, dict[int, int]] = {}
    cleared: dict[int, int] = {}
    for m in reversed(degrees):
        cols = [c for c in range(f.count(m)) if c not in cleared]
        if weights is None:
            pivots: dict[int, dict[int, int]] = {}
            rank_rational(boundary_matrix(f, m, cols=cols, entry=entry, sparse=True), pivots, f.count(m - 1))
            cleared = out[m] = dict.fromkeys(pivots, 0)
            continue
        cols.sort(key=weights[m].__getitem__)
        rows = sorted(range(f.count(m - 1)), key=weights[m - 1].__getitem__, reverse=True)
        matrix = boundary_matrix(f, m, cols=cols, rows=rows, entry=entry, sparse=True)
        leads = reduce_columns(matrix, height=f.count(m - 1))
        cleared = out[m] = {rows[r]: weights[m][c] for c, r in zip(cols, leads) if r is not None}
    return out


def simplex_weight(sigma: Simplex, w: WeightFunction) -> int:
    """Sum of the vertex weights; the empty simplex weighs 0."""
    return sum(w[v] for v in sigma.vertices)


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


def full_skeleton(f: FlagComplex, w: WeightFunction, m: int) -> FiltrationLevel:
    """The full m-skeleton as a filtration level (weight bound m + 1)."""
    return filtration_level(f, w, m, m + 1)


def level_boundary_matrix(level: FiltrationLevel, k: int) -> list[list[int]]:
    """Boundary matrix of a filtration level in degree k.

    Faces of retained simplices are always present, so the matrix is the
    full boundary with columns restricted to the level's k-simplices.
    """
    return boundary_matrix(level.complex, k, cols=level.positions(k))
