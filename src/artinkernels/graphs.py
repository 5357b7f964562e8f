"""Input data model: simplicial graphs, integer characters, weight functions.

A character assigns an integer label n_v to each vertex of the graph; it
is the abelianized image of the vertex generator under a homomorphism to
the integers.  The declaration order of the vertices is the total order
used everywhere for incidence signs, so it is fixed at construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Sequence


class InputError(ValueError):
    """Structural problem with a graph, character, or parsed input."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug or violated hypothesis."""


class SimplicialGraph:
    """Finite simplicial graph with an ordered vertex set.

    No self-loops, no duplicate edges; the vertex order is the
    declaration order and defines all incidence signs downstream.
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[Sequence[str]]):
        verts = tuple(str(v) for v in vertices)
        if len(set(verts)) != len(verts):
            raise InputError("duplicate vertex identifiers")
        self.vertices = verts
        self._index = {v: i for i, v in enumerate(verts)}
        seen: set[tuple[int, int]] = set()
        adj: dict[int, set[int]] = {i: set() for i in range(len(verts))}
        norm_edges = []
        for edge in edges:
            if len(edge) != 2:
                raise InputError(f"edge {edge!r} does not have two endpoints")
            a, b = str(edge[0]), str(edge[1])
            if a == b:
                raise InputError(f"self-loop at vertex {a!r}")
            for x in (a, b):
                if x not in self._index:
                    raise InputError(f"edge endpoint {x!r} is not a declared vertex")
            i, j = sorted((self._index[a], self._index[b]))
            if (i, j) in seen:
                raise InputError(f"duplicate edge {{{verts[i]!r}, {verts[j]!r}}}")
            seen.add((i, j))
            adj[i].add(j)
            adj[j].add(i)
            norm_edges.append((verts[i], verts[j]))
        self.edges = tuple(sorted(norm_edges, key=lambda e: (self._index[e[0]], self._index[e[1]])))
        self._adjacency = {i: frozenset(neigh) for i, neigh in adj.items()}

    def index(self, v: str) -> int:
        return self._index[v]

    def adjacent(self, i: int, j: int) -> bool:
        return j in self._adjacency[i]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {0}
        stack = [0]
        while stack:
            for j in self._adjacency[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.n_vertices

    def reordered(self, order: Sequence[str]) -> "SimplicialGraph":
        """Same abstract graph with a different vertex declaration order."""
        if sorted(order) != sorted(self.vertices):
            raise InputError("reordering must permute the existing vertex set")
        return SimplicialGraph(order, self.edges)

    def __repr__(self) -> str:
        return f"SimplicialGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class Character:
    """Integer vertex labels n_v, defined on exactly the graph's vertices."""

    values: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    def check_domain(self, g: SimplicialGraph) -> None:
        if set(self.values) != set(g.vertices):
            raise InputError("character domain does not match the vertex set")

    def tuple_for(self, g: SimplicialGraph) -> tuple[int, ...]:
        self.check_domain(g)
        return tuple(int(self.values[v]) for v in g.vertices)

    def __getitem__(self, v: str) -> int:
        return self.values[v]


class CharacterClass(enum.Enum):
    NON_RESONANT_SURJECTIVE = "NonResonantSurjective"
    RESONANT = "Resonant"
    NON_SURJECTIVE = "NonSurjective"
    NON_POSITIVE = "NonPositive"


@dataclass(frozen=True)
class WeightFunction:
    """0/1 vertex weights marking the labels divisible by `order`."""

    weights: Mapping[str, int]
    order: int

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))

    def __getitem__(self, v: str) -> int:
        return self.weights[v]


def classify_character(g: SimplicialGraph, chi: Character) -> CharacterClass:
    """One class per character; zero labels dominate, then negatives."""
    values = chi.tuple_for(g)
    if any(n == 0 for n in values):
        return CharacterClass.RESONANT
    if any(n < 0 for n in values):
        return CharacterClass.NON_POSITIVE
    g_all = 0
    for n in values:
        g_all = gcd(g_all, n)
    if g_all != 1:
        return CharacterClass.NON_SURJECTIVE
    return CharacterClass.NON_RESONANT_SURJECTIVE


def derive_weight(chi: Character, d: int) -> WeightFunction:
    """Weight 1 exactly on the vertices whose label is divisible by d."""
    if d < 2:
        raise InputError("weight functions need d >= 2")
    return WeightFunction({v: 1 if n % d == 0 else 0 for v, n in chi.values.items()}, d)


def weight_classes(g: SimplicialGraph, chi: Character, orders: Sequence[int]) -> dict[tuple[int, ...], list[int]]:
    """The orders grouped by 0/1 weight class, in ascending order, under
    the weights of derive_weight(chi, d) in the graph's vertex order.

    Every formula statistic and every even reduction sees (chi, d) only
    through this key, so orders with equal keys share their answers;
    the formula pipeline memoizes its weight-ordered eliminations on the
    flag complex under the same key, and the direct pipeline takes one
    local Smith form per key and degree.
    """
    chi.check_domain(g)
    classes: dict[tuple[int, ...], list[int]] = {}
    for d in sorted(orders):
        w = derive_weight(chi, d)
        classes.setdefault(tuple(w[v] for v in g.vertices), []).append(d)
    return classes


def even_reduction(chi: Character, d: int) -> Character:
    """The even character taking 2 on d-divisible labels and 1 elsewhere.

    Torsion of order d for chi matches torsion of order 2 for the result,
    so all order-d questions reduce to the double cover of this character.
    """
    if d < 2:
        raise InputError("even reduction needs d >= 2")
    vals = {v: 2 if n % d == 0 else 1 for v, n in chi.values.items()}
    if all(x == 2 for x in vals.values()):
        raise InputError(
            f"every label is divisible by {d}; the character cannot be surjective"
        )
    return Character(vals)


def divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def torsion_candidates(chi: Character) -> list[int]:
    """All d >= 2 dividing a nonzero label: the orders whose torsion is
    reported.  Zero labels have no divisors here, so the list is defined
    for degenerate characters too."""
    out: set[int] = set()
    for n in chi.values.values():
        out.update(d for d in divisors(n) if d >= 2)
    return sorted(out)


def candidate_torsion_orders(chi: Character) -> list[int]:
    """All d >= 2 dividing at least one label; torsion elsewhere is zero."""
    if any(n == 0 for n in chi.values.values()):
        raise InputError("resonant character: every d divides a zero label")
    return torsion_candidates(chi)
