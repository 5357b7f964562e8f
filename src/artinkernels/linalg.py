"""Exact linear algebra: one sparse column reduction over Q, local Smith
forms of graded matrices over Q[s]/s^K and the Smith normal form over
Q[t].

Over Q there is one elimination, reduce_columns.  It takes integer
columns held sparse, as dicts from row to nonzero entry, the form in
which flagcomplex.boundary_matrix reads them off the face table, and
reduces each against the earlier pivot that owns its least row, as the
standard persistence reduction does.  Ranks, leads, kernels and span
intersections all run on it; a caller that tests vectors for
independence one at a time carries the pivots dict across calls.  Dense
rows are read as vectors too; only a vector holding a Fraction is scaled
by its common denominator, so the arithmetic never leaves the integers.
Each reduced column is divided by its content.  Unlike Bareiss
elimination, whose entries are minors of the input, this bounds no
entry, so entries may grow past the input's heights.  Kernels come back
as primitive integer vectors.

local_smith_valuations takes a graded matrix, whose entry at (r, c) is
an int times s^(col weight - row weight), and returns the valuations of
its Smith form over the local ring Q[s]_(s) that lie below K.  It pivots
on an entry of least valuation and clears the pivot row with column
moves scaled by the pivot's unit.  Every move keeps each entry on its
grade, so the entries stay monomials and the arithmetic is on plain
ints.  The direct pipeline runs it at t = -1 for non-resonant
characters, whose exponents there have a known bound.

Polynomial matrices hold integer coefficient sequences only (constant
term first), as the twisted boundaries are built.  The Smith form over
Q[t] serves degenerate characters and is the oracle of the local path.
It eliminates on plain-int coefficient lists with the arithmetic of polys
(pseudo-division, exact quotients, primitive gcd).  It diagonalizes with degree-minimal pivoting
(ties broken by coefficient height, then position) by Euclidean steps:
an entry is reduced by a pseudo-quotient multiple of the pivot line, and
a nonzero remainder is swapped in as the new pivot, of lower degree
(Newman, Integral Matrices, 1972, ch. II).  A move computes c*y - q*x on
each entry y of the line, x being the pivot line's entry there, in one
pass over the nonzero terms of q and x (polys._submul); where x is zero,
y is kept as it is, or only scaled when c is not 1.  Pseudo-division
walks the divisor's nonzero terms alone, so the sparse binomial pivots
t^n - 1 cost two terms a step.  Rows and columns are divided by their
integer content and their power of t after every step to control
coefficient growth.  It then repairs the divisibility chain with
two-by-two moves on the diagonal, which cause no fill-in and need only a
gcd; equal entries are skipped, and each distinct invariant factor
becomes one ExactPoly, read off its ints as they are when its leading
coefficient is 1.  A caller that knows a bound on the rank over Q(t),
as homology.smith_decomposition knows the kernel rank of the boundary
below from d∘d = 0, stops the elimination one pivot early: the trailing
block B left after bound - 1 pivots has rank at most 1, B = c*u*v^T, and
its one invariant factor c is gcd(row p) * gcd(col q) / B_pq at the
pivot (p, q) the elimination would take, both gcds folded from B_pq
(_fold_gcd, which skips every entry the running gcd divides exactly and
takes the primitive gcd of polys only on a remainder).  The last
passes, on the most swollen entries, are skipped, and by the uniqueness
of the Smith form the factors are unchanged.  A matrix with at most one
row or column (every boundary out of the vertices is one) closes at
t = 0 under any positive bound: its one-entry column or row folds to
the pivot itself, so its factor is the gcd of its entries.  Unbounded,
it is eliminated like any other matrix.  Every move is unimodular over
the Laurent ring Q[t^±1], where nonzero constants and powers of t are
units, and the reported invariant factors are monic with their t-power
content stripped, the normalization of that ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .graphs import ConsistencyError
from .polys import ExactPoly, _exquo, _gcd, _mul, _pdivmod, _submul, _terms, _trim

_INT = frozenset((int,))


# ---------------------------------------------------------------------------
# rational matrices: one sparse column reduction
# ---------------------------------------------------------------------------
#
# A sparse column is a dict from row to nonzero int.


def _sparse(vec) -> dict[int, int]:
    """vec as a sparse column: a dict is taken as it is; a sequence keeps
    its nonzero entries by index, scaled by the lcm of their denominators
    when one of them is a Fraction."""
    if isinstance(vec, dict):
        return vec
    col = {i: x for i, x in enumerate(vec) if x}
    if not _INT.issuperset(map(type, col.values())):
        fracs = {i: Fraction(x) for i, x in col.items()}
        den = lcm(*(x.denominator for x in fracs.values()))
        col = {i: x.numerator * (den // x.denominator) for i, x in fracs.items()}
    return col


def _move(col: dict[int, int], pivot: dict[int, int], p: int, a: int) -> dict[int, int]:
    """p*col - a*pivot divided by its content, with p and a first divided
    by their gcd and p made positive: the column move of reduce_columns
    and local_smith_valuations, where p and a are the pivot's and the
    column's entries in the pivot row, so that row cancels.  Neither
    column is mutated."""
    if p < 0:
        p, a = -p, -a
    g = gcd(p, a)
    if g != 1:
        p //= g
        a //= g
    new = col.copy() if p == 1 else {r: p * x for r, x in col.items()}
    for r, y in pivot.items():
        x = new.get(r, 0) - a * y
        if x:
            new[r] = x
        else:
            del new[r]
    g = gcd(*new.values())
    if g > 1:
        new = {r: x // g for r, x in new.items()}
    return new


def reduce_columns(
    cols: Iterable,
    pivots: Optional[dict[int, dict[int, int]]] = None,
    height: Optional[int] = None,
) -> list[Optional[int]]:
    """Reduce integer columns left to right; returns the lead of each, or
    None for a column that depends on the columns before it.  Columns are
    sparse, or dense sequences read by _sparse.

    A column's lead is its least row.  While an earlier pivot owns that
    row, the column c becomes p*c - a*pivot, where p > 0 and a are the
    pivot's and the column's entries there divided by their gcd, and is
    then divided by its content (_move); a column left nonzero becomes
    the pivot that owns its lead.  Only the rows of the pivots met are
    touched, so zeros cost nothing (Zomorodian and Carlsson, "Computing
    persistent homology", DCG 2005, §4).  The pivots have distinct leads,
    so the leads among the first i columns that lie above row r number
    the rank of those columns cut to the rows above r, which fixes every
    lead.

    pivots maps each lead to its reduced column and carries a reduction
    across calls; height, the number of rows when known, ends the
    reduction once every row has a pivot.  The input is never mutated.
    """
    if pivots is None:
        pivots = {}
    leads: list[Optional[int]] = []
    for col in cols:
        if not isinstance(col, dict):
            col = _sparse(col)
        lead = None
        while col and len(pivots) != height:
            low = min(col)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = col
                lead = low
                break
            col = _move(col, pivot, pivot[low], col[low])
        leads.append(lead)
    return leads


def rank_rational(rows: Sequence, pivots: Optional[dict] = None, height: Optional[int] = None) -> int:
    """Rank over the rationals of dense rows or sparse columns.  pivots and
    height are reduce_columns': pivots, if given, collects the leads."""
    pivots = {} if pivots is None else pivots
    reduce_columns(rows, pivots, height)
    return len(pivots)


def nullspace(rows: Sequence, ncols: int) -> list[list[int]]:
    """Basis of {x : M x = 0} for the matrix M with these rows (dense or
    sparse): one primitive integer vector of length ncols per column of M
    that depends on the columns before it, positive at that column and
    zero at every other such column.

    Each column of M carries a record of the combination it is, at rows
    past M's in reverse column order.  A column that reduces to zero
    leads at its own record row, which no other column's record reaches
    first, so its reduced record, primitive after the content division,
    is its kernel vector.
    """
    base = len(rows)
    tag = base + ncols - 1
    cols: list[dict[int, int]] = [{tag - c: 1} for c in range(ncols)]
    for r, row in enumerate(rows):
        for c, x in _sparse(row).items():
            cols[c][r] = x
    pivots: dict[int, dict[int, int]] = {}
    basis = []
    for c, lead in enumerate(reduce_columns(cols, pivots)):
        if lead is not None and lead >= base:
            record = pivots[lead]
            sign = 1 if record[lead] > 0 else -1
            vec = [0] * ncols
            for r, x in record.items():
                vec[tag - r] = sign * x
            basis.append(vec)
    return basis


def _primitive(vec: list[int]) -> list[int]:
    g = gcd(*vec)
    return vec if g in (0, 1) else [x // g for x in vec]


def span_rank(cols: Sequence) -> int:
    """Rank of the span of the given column vectors."""
    return rank_rational(cols)


def intersect_spans(a_cols: Sequence[Sequence], b_cols: Sequence[Sequence]) -> list[list[int]]:
    """Basis of span(a_cols) ∩ span(b_cols), as primitive integer columns:
    the A-parts of the kernel of [A | B] that are independent."""
    if not a_cols or not b_cols:
        return []
    a = [_sparse(col) for col in a_cols]
    stacked = a + [_sparse(col) for col in b_cols]
    rows: dict[int, dict[int, int]] = {}
    for j, col in enumerate(stacked):
        for r, x in col.items():
            rows.setdefault(r, {})[j] = x
    pivots: dict[int, dict[int, int]] = {}
    basis: list[list[int]] = []
    for vec in nullspace(list(rows.values()), len(stacked)):
        combo = [0] * len(a_cols[0])
        for coef, col in zip(vec, a):
            if coef:
                for r, x in col.items():
                    combo[r] += coef * x
        if reduce_columns([combo], pivots)[0] is not None:
            basis.append(_primitive(combo))
    return basis


# ---------------------------------------------------------------------------
# local Smith form of a graded matrix over Q[s]/s^K
# ---------------------------------------------------------------------------


def local_smith_valuations(
    cols: Iterable[dict[int, int]], col_weight: Sequence[int], row_weight: Sequence[int], K: int
) -> list[int]:
    """Valuations of the Smith form over the local ring Q[s]_(s) of a
    graded matrix, truncated at K: one valuation below K per pivot, in
    elimination order.

    Columns are sparse, dicts from row to nonzero int; the int x at
    (r, c) stands for x * s^(col_weight[c] - row_weight[r]), which must
    not be negative.  Each step pivots on an entry of least valuation v,
    s^v times the unit u, and gives every other column holding an entry
    e in the pivot row the move col <- u*col - (e / s^v)*pivot col, which
    is invertible over the local ring: reduce_columns' move (_move) on
    the ints, with u and e's int as the two entries.  The pivot row
    cancels and the pivot column is dropped: its other entries have
    valuation at least v, so row moves would clear them without touching
    another column.

    For the int y at row r of column c and the pivot column p, e / s^v
    is y * s^(col_weight[c] - col_weight[p]), a polynomial since v is
    least, so the move lifts each entry of the pivot column to the grade
    of the same row in column c.  Every entry keeps its grade, the
    arithmetic is on plain ints, and an entry of valuation K or more,
    0 mod s^K, never reaches a lower grade (the
    graded boundary of a persistence module; Zomorodian and Carlsson,
    "Computing persistent homology", DCG 2005, §3-4).  The elimination
    stops when the least valuation reaches K, so the Smith form has one
    diagonal entry s^e per pivot with e < K and its other nonzero
    entries have e >= K; a caller that knows the rank over Q(s) sees
    them as missing pivots (Newman, Integral Matrices, 1972, ch. II).
    The input is never mutated.
    """
    live = [(col_weight[c], col) for c, col in enumerate(cols) if col]
    vals = []
    while live:
        best = (K, 0, 0)
        for i, (a, col) in enumerate(live):
            r = max(col, key=row_weight.__getitem__)
            v = a - row_weight[r]
            if v < best[0]:
                best = (v, i, r)
                if not v:
                    break
        v, i, r = best
        if v == K:
            break
        _, pivot = live.pop(i)
        u = pivot[r]
        rest = []
        for b, col in live:
            y = col.get(r)
            if y is not None:
                col = _move(col, pivot, u, y)
            if col:
                rest.append((b, col))
        live = rest
        vals.append(v)
    return vals


# ---------------------------------------------------------------------------
# Smith normal form over Q[t]: integer coefficient lists
# ---------------------------------------------------------------------------
#
# A polynomial is a list of ints, constant term first, with no trailing
# zeros; [] is zero.  The arithmetic on these lists lives in polys.
# Entries are never mutated, so entries may share one list or tuple.


def _divisor(entries) -> tuple[int, int]:
    """(content, t-power) of a row or column: the gcd of all coefficients
    and the least t-adic order of its nonzero entries."""
    g = 0
    low = None
    for e in entries:
        if e:
            if g != 1:
                g = gcd(g, *e)
            if low != 0:
                k = 0
                while not e[k]:
                    k += 1
                low = k if low is None else min(low, k)
    return g, low or 0


def _divide(e: list[int], g: int, low: int) -> list[int]:
    return [x // g for x in e[low:]] if e else e


def _strip_row(row: list[list[int]]) -> None:
    """Divide a row by its content and its t-power, both units of Q[t^±1]."""
    g, low = _divisor(row)
    if g > 1 or low:
        row[:] = [_divide(e, g, low) for e in row]


def _strip_col(a: list[list[list[int]]], j: int) -> None:
    g, low = _divisor(row[j] for row in a)
    if g > 1 or low:
        for row in a:
            row[j] = _divide(row[j], g, low)


def _row_step(a: list[list[list[int]]], t: int, i: int) -> None:
    """Clear a[i][t] against the pivot a[t][t] by Euclidean division:
    row i becomes c*row i - q*row t, which leaves the remainder at
    a[i][t]; a nonzero remainder has lower degree than the pivot, so the
    two rows swap and the division repeats."""
    while a[i][t]:
        c, q, _ = _pdivmod(a[i][t], a[t][t])
        q = _terms(q)
        a[i] = [_submul(c, y, q, x) for x, y in zip(a[t], a[i])]
        _strip_row(a[i])
        if a[i][t]:
            a[t], a[i] = a[i], a[t]


def _col_step(a: list[list[list[int]]], t: int, j: int) -> None:
    """Clear a[t][j] against the pivot a[t][t]; _row_step on columns."""
    while a[t][j]:
        c, q, _ = _pdivmod(a[t][j], a[t][t])
        q = _terms(q)
        for row in a:
            row[j] = _submul(c, row[j], q, row[t])
        _strip_col(a, j)
        if a[t][j]:
            for row in a:
                row[t], row[j] = row[j], row[t]


def _find_pivot(a: list[list[list[int]]], t: int) -> Optional[tuple[int, int]]:
    """Position of a lowest-degree entry in the trailing block, ties
    broken by coefficient height, then by position."""
    best = None
    size = height = 0
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            e = row[j]
            if e and (best is None or len(e) <= size):
                h = max(map(abs, e))
                if best is None or len(e) < size or h < height:
                    best, size, height = (i, j), len(e), h
                    if size == 1 and h == 1:
                        return best
    return best


@dataclass
class SmithForm:
    """Smith normal form data for a polynomial matrix.

    invariant_factors are the nonzero ones, monic with t-power content
    stripped (the normalization over the Laurent ring, where t is a
    unit); rank is the rank over Q(t).
    """

    invariant_factors: tuple[ExactPoly, ...]
    rank: int
    nrows: int
    ncols: int


def _normal(e: list[int]) -> list[int]:
    """e divided by its content, signed to a positive leading
    coefficient, and by its power of t: the one associate over Q[t^±1]
    that the invariant factors are read from."""
    g, low = _divisor([e])
    return _divide(e, g if e[-1] > 0 else -g, low)


def _factor(d: list[int]) -> ExactPoly:
    """A primitive invariant factor with positive leading coefficient as a
    monic ExactPoly; a leading 1 needs no division."""
    lead = d[-1]
    return ExactPoly(d if lead == 1 else [Fraction(x, lead) for x in d])


def _fold_gcd(g: list[int], entries: Iterable[list[int]]) -> list[int]:
    """A gcd over Q[t] of g and the entries, up to a nonzero rational: an
    entry g divides exactly is skipped, g itself with no division, and
    only one that leaves a pseudo-remainder r takes the primitive gcd of
    g and r (polys._gcd).  g comes back as it is when it divides every
    entry, and the fold stops at a constant.  g and the nonzero entries
    carry no trailing zeros."""
    for e in entries:
        if len(g) == 1:
            break
        if e and e is not g:
            r = _pdivmod(e, g)[2]
            if r:
                g = _gcd(g, r)
    return g


def _close_rank_one(a: list[list[list[int]]], t: int, p: int, q: int) -> list[int]:
    """The one invariant factor of the nonzero trailing block B of rank 1,
    up to a unit: gcd(row p) * gcd(col q) / B_pq at its entry (p, q).

    B = c * u * v^T with u and v of gcd 1 over Q[t], so row p has the gcd
    c * u_p, col q has c * v_q and B_pq = c * u_p * v_q.  Both folds start
    from B_pq, so on a block of one row or column the fold across its one
    entry returns B_pq itself and the factor is the other fold, the gcd
    of the line.  A remainder in the final division shows a block of
    higher rank: ConsistencyError.  A block of higher rank can also
    divide exactly, so this guard is partial; the rank bound itself is
    the caller's."""
    b = a[p][q]
    g_row = _fold_gcd(b, a[p][t:])
    g_col = _fold_gcd(b, (row[q] for row in a[t:]))
    if g_row is b:
        return g_col
    if g_col is b:
        return g_row
    _, c, r = _pdivmod(_mul(g_row, g_col), b)
    if r:
        raise ConsistencyError(
            "the trailing block at the rank bound has rank above 1: the bound is too low"
        )
    return c


def smith_normal_form(
    matrix: Sequence[Sequence[Sequence[int]]], ncols: Optional[int] = None, rank_bound: Optional[int] = None
) -> SmithForm:
    """Smith normal form over Q[t] of a list of rows of integer coefficient
    sequences, constant term first, trailing zeros allowed.

    ncols is only needed when the matrix has no rows.  Every move is
    unimodular over the Laurent ring Q[t^±1]: rows and columns are
    divided by their content and t-power after every step.

    rank_bound, when given, must bound the rank over Q(t), as the
    kernel rank of the boundary below bounds a boundary's in a chain
    complex.  The diagonalization then stops at the bound: once the
    pivots number one less, the trailing block left has rank at most 1,
    so a nonzero one is closed by its one invariant factor
    (_close_rank_one) instead of its last row and column passes.  A
    matrix with at most one row or column closes at t = 0, its factor
    the gcd of its entries; unbounded, it is eliminated.  By the
    uniqueness of the Smith form the factors are those of the full
    elimination.  A nonzero matrix with a bound of 0 raises
    ConsistencyError, as does a closure whose division leaves a
    remainder.
    """
    nrows = len(matrix)
    if nrows:
        ncols = len(matrix[0])
    elif ncols is None:
        raise ValueError("ncols required for a matrix with no rows")
    if rank_bound is not None and rank_bound <= 0:
        if any(any(e) for row in matrix for e in row):
            raise ConsistencyError(f"a nonzero matrix with rank bound {rank_bound}")
        return SmithForm(invariant_factors=(), rank=0, nrows=nrows, ncols=ncols)
    a = [[e if not e or e[-1] else _trim(list(e)) for e in row] for row in matrix]

    # phase 1: diagonalize (no divisibility enforcement); a division
    # that leaves a remainder swaps it in as a pivot of lower degree, so
    # the row/column alternation terminates
    stop = min(nrows, ncols) if rank_bound is None else min(rank_bound, nrows, ncols)
    last: list[list[int]] = []
    t = 0
    while t < stop:
        pos = _find_pivot(a, t)
        if pos is None:
            break
        i, j = pos
        if rank_bound is not None and t == stop - 1:
            last.append(_normal(_close_rank_one(a, t, i, j)))
            break
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, nrows):
                if a[i][t]:
                    _row_step(a, t, i)
            for j in range(t + 1, ncols):
                if a[t][j]:
                    _col_step(a, t, j)
            # the column pass leaves row t clear, but a column swap can
            # refill column t
            if not any(a[i][t] for i in range(t + 1, nrows)):
                break
        t += 1
    rank = t + len(last)

    # phase 2: repair the divisibility chain on the diagonal; replacing
    # (a, b) by (gcd, a*b/gcd) is a unimodular 2x2 move on rows and
    # columns that are otherwise zero, so there is no fill-in; only the
    # new diagonal is computed, which needs the gcd but no cofactors.
    # Entries are primitive with a positive leading coefficient, so two
    # associates are equal lists, and equal entries divide each other.
    diag = [_normal(a[i][i]) for i in range(t)] + last
    changed = True
    while changed:
        changed = False
        for i in range(rank):
            for j in range(i + 1, rank):
                if diag[i] != diag[j] and _pdivmod(diag[j], diag[i])[2]:
                    g = _gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, _mul(diag[i], _exquo(diag[j], g))
                    changed = True
    # equal factors of a divisibility chain are neighbours and share one
    # ExactPoly
    invariant: list[ExactPoly] = []
    for d, run in groupby(diag):
        invariant += [_factor(d)] * len(list(run))
    return SmithForm(invariant_factors=tuple(invariant), rank=rank, nrows=nrows, ncols=ncols)
