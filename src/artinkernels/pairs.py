"""Acyclic pairs: square incidence minors that do not vanish, and the
greedy minimal-weight witnesses realizing the extremal Fitting valuation.

A pair is a set K of (k+1)-simplices (rows of the minor) and a set L of
k-simplices (the columns *excluded* from the minor); squareness means
#K equals the number of k-simplices outside L.  The minor is nonsingular
exactly when K's boundary columns are independent and the cycles
supported on L map isomorphically onto the classes modulo K's boundaries,
and the weight of a minimal nonsingular choice of maximal size equals the
weighted exponent sum of the torsion in degree k+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .flagcomplex import FlagComplex, Simplex, boundary_matrix, simplex_weight, total_weight
from .graphs import ConsistencyError, InputError, WeightFunction
from .linalg import IncrementalRank, nullspace, rank_rational, span_rank


@dataclass
class AcyclicPair:
    """A certified nonsingular minor: K rows, complement-of-L columns."""

    k: int
    K: tuple[Simplex, ...]
    L: tuple[Simplex, ...]
    complex: FlagComplex

    @property
    def size(self) -> int:
        return len(self.K)


def _boundary_columns(f: FlagComplex, k: int, simplices: Iterable[Simplex]) -> list[dict[int, int]]:
    """Sparse boundary vectors of the given (k+1)-simplices in k-chain
    coordinates."""
    cols = [f.position(k + 1, sigma.indices) for sigma in simplices]
    return boundary_matrix(f, k + 1, cols=cols, sparse=True)


def is_acyclic(
    f: FlagComplex, k: int, K: Sequence[Simplex], L: Sequence[Simplex]
) -> bool:
    """Whether the minor selected by (K, L) is nonsingular.

    Both characterizations are computed: the determinant test on the
    minor, and the homological pair of conditions (independent K columns
    plus an isomorphism on the L-supported cycle classes); they must
    agree, and the common verdict is returned.
    """
    n_k = f.count(k)
    if len(K) != n_k - len(L):
        raise InputError(
            f"pair is not square: #K={len(K)} but {n_k} k-simplices minus #L={len(L)}"
        )
    l_set = set(L)
    if len(l_set) != len(L) or len(set(K)) != len(K):
        raise InputError("K and L must not contain repeats")

    # determinant route: rows = k-simplices outside L, columns = K
    keep_rows = [r for r, tau in enumerate(f.simplices(k)) if tau not in l_set]
    cols = _boundary_columns(f, k, K)
    minor = [[col.get(r, 0) for col in cols] for r in keep_rows]
    by_det = len(K) == 0 or rank_rational(minor) == len(K)

    # homological route
    independent = span_rank(cols) == len(K)
    if independent:
        n_cycles = n_k - rank_rational(boundary_matrix(f, k))
        l_slots = [f.position(k, tau.indices) for tau in L]
        # cycles supported on L: nullspace of the boundary restricted to L columns
        local = nullspace(boundary_matrix(f, k, cols=l_slots), len(L))
        s_cols = []
        for vec in local:
            full = [0] * n_k
            for value, slot in zip(vec, l_slots):
                full[slot] = value
            s_cols.append(full)
        dim_target = n_cycles - len(K)
        joined = span_rank(s_cols + cols)
        injective = joined == len(s_cols) + len(K)
        by_homology = injective and len(s_cols) == dim_target
    else:
        by_homology = False

    if by_det != by_homology:
        raise ConsistencyError("acyclicity characterizations disagree")
    return by_det


def minimal_acyclic_pair(f: FlagComplex, w: WeightFunction, k: int) -> AcyclicPair:
    """Greedy minimal-weight acyclic pair of maximal size.

    K: scan (k+1)-simplices by (weight, lex) and keep those whose
    boundary column grows the rank; matroid greediness makes any
    per-level maximal choice weight-minimal.  L: scan k-simplices the
    same way and keep those staying independent from the boundary image
    and the earlier picks.
    """
    n_k = f.count(k)
    rank_inc = IncrementalRank(n_k)
    chosen_k: list[Simplex] = []
    order_k = sorted(
        f.simplices(k + 1), key=lambda s: (simplex_weight(s, w), s.indices)
    )
    for sigma, col in zip(order_k, _boundary_columns(f, k, order_k)):
        if rank_inc.add(col):
            chosen_k.append(sigma)

    image_rank = rank_inc.rank
    chosen_l: list[Simplex] = []
    order_l = sorted(f.simplices(k), key=lambda s: (simplex_weight(s, w), s.indices))
    for tau in order_l:
        vec = [0] * n_k
        vec[f.position(k, tau.indices)] = 1
        if rank_inc.add(vec):
            chosen_l.append(tau)

    if len(chosen_l) != n_k - image_rank:
        raise ConsistencyError("greedy complement has the wrong size")
    pair = AcyclicPair(k=k, K=tuple(chosen_k), L=tuple(chosen_l), complex=f)
    if not is_acyclic(f, k, pair.K, pair.L):
        raise ConsistencyError("greedy construction produced a singular minor")
    return pair


def fitting_weight(pair: AcyclicPair, w: WeightFunction) -> int:
    """Weight of K plus weight of L minus the total weight of the
    k-simplices: the valuation carried by this minor's determinant."""
    f = pair.complex
    wk = sum(simplex_weight(s, w) for s in pair.K)
    wl = sum(simplex_weight(s, w) for s in pair.L)
    return wk + wl - total_weight(f, w, pair.k)
