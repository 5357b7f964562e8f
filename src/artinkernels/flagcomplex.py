"""Flag complex of a graph: cliques, incidence signs, boundary matrices,
and the weight filtration of the skeleta.

The empty simplex is materialized as the (-1)-dimensional cell so every
chain complex here is augmented; reduced homology is then uniform across
degrees, with the degree-0 boundary matrix being the all-ones
augmentation row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .graphs import InputError, SimplicialGraph, WeightFunction


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

    boundary_ranks memoizes the rational rank of the untwisted boundary
    in each degree, filled lazily by homology.boundary_rank.  Every entry
    is a function of the complex alone, so threads sharing a complex can
    at worst compute an entry twice and store the same value.
    """

    def __init__(self, graph: SimplicialGraph, levels: dict[int, list[Simplex]]):
        self.graph = graph
        self._levels = levels
        self.dim = max(levels)
        self._positions: dict[int, dict[tuple[int, ...], int]] = {
            d: {s.indices: i for i, s in enumerate(simps)} for d, simps in levels.items()
        }
        self.boundary_ranks: dict[int, int] = {}

    def simplices(self, dim: int) -> tuple[Simplex, ...]:
        return tuple(self._levels.get(dim, ()))

    def count(self, dim: int) -> int:
        return len(self._levels.get(dim, ()))

    def position(self, dim: int, indices: tuple[int, ...]) -> int:
        return self._positions[dim][indices]

    def __repr__(self) -> str:
        counts = ", ".join(f"{self.count(d)}x{d}" for d in range(0, self.dim + 1))
        return f"FlagComplex(dim {self.dim}: {counts})"


def build_flag_complex(g: SimplicialGraph, max_dim: Optional[int] = None) -> FlagComplex:
    """Enumerate every clique of g (all of them, not just maximal ones).

    Recursive extension over the ordered vertex set; an optional max_dim
    prunes cliques with more than max_dim + 1 vertices.  Deterministic:
    each dimension comes out in lexicographic order.
    """
    n = g.n_vertices
    empty = Simplex((), ())
    levels: dict[int, list[Simplex]] = {-1: [empty]}

    def emit(idxs: tuple[int, ...]) -> None:
        simp = Simplex(tuple(g.vertices[i] for i in idxs), idxs)
        levels.setdefault(simp.dim, []).append(simp)

    def extend(prefix: tuple[int, ...], candidates: Sequence[int]) -> None:
        for v in candidates:
            clique = prefix + (v,)
            emit(clique)
            if max_dim is not None and len(clique) >= max_dim + 1:
                continue
            nxt = [w for w in candidates if w > v and g.adjacent(v, w)]
            if nxt:
                extend(clique, nxt)

    extend((), list(range(n)))
    for simps in levels.values():
        simps.sort(key=lambda s: s.indices)
    return FlagComplex(g, levels)


def boundary_matrix(f: FlagComplex, k: int) -> list[list[int]]:
    """Matrix of the augmented boundary in degree k.

    Rows are (k-1)-simplices (the empty simplex when k = 0), columns are
    k-simplices; entry (tau, sigma) is incidence(sigma, tau).  Out of
    range k gives an empty matrix of the correct shape.
    """
    rows = f.count(k - 1)
    cols = f.count(k)
    mat = [[0] * cols for _ in range(rows)]
    if rows and cols:
        for c, sigma in enumerate(f.simplices(k)):
            for i in range(len(sigma.indices)):
                face = sigma.facet(i)
                r = f.position(k - 1, face)
                later = len(sigma.indices) - 1 - i
                mat[r][c] = -1 if later % 2 else 1
    return mat


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
    _top: tuple[Simplex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        top = tuple(
            s for s in self.complex.simplices(self.m) if simplex_weight(s, self.weight) <= self.j
        )
        object.__setattr__(self, "_top", top)

    def simplices(self, dim: int) -> tuple[Simplex, ...]:
        if dim < self.m:
            return self.complex.simplices(dim)
        if dim == self.m:
            return self._top
        return ()

    def count(self, dim: int) -> int:
        return len(self.simplices(dim))

    def top_dim(self) -> int:
        return self.m


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
    f = level.complex
    rows = f.count(k - 1)
    cols = level.simplices(k)
    mat = [[0] * len(cols) for _ in range(rows)]
    if rows:
        for c, sigma in enumerate(cols):
            for i in range(len(sigma.indices)):
                r = f.position(k - 1, sigma.facet(i))
                later = len(sigma.indices) - 1 - i
                mat[r][c] = -1 if later % 2 else 1
    return mat
