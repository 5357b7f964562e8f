"""Exact linear algebra: one sparse column reduction over Q, local Smith
forms over Q[s]/s^K and the Smith normal form over Q[t].

Over Q there is one elimination, reduce_columns.  It takes integer
columns held sparse, as dicts from row to nonzero entry, the form in
which flagcomplex.boundary_matrix reads them off the face table, and
reduces each against the earlier pivot that owns its least row, as the
standard persistence reduction does.  Ranks, leads, kernels, span
intersections and incremental independence tests all run on it.  Dense
rows are read as vectors too; only a vector holding a Fraction is scaled
by its common denominator, so the arithmetic never leaves the integers.
Each reduced column is divided by its content.  Unlike Bareiss
elimination, whose entries are minors of the input, this bounds no
entry, so entries may grow past the input's heights.  Kernels come back
as primitive integer vectors.

local_smith_valuations takes a matrix of integer series in s, cut at s^K,
and returns the valuations of its Smith form over the local ring
Q[s]_(s) that lie below K.  It pivots on an entry of least valuation and
clears the pivot column with row moves scaled by the pivot's unit, so it
needs no gcd of series and no fraction, and no degree reaches K.  The
direct pipeline runs it at t = -1 for non-resonant characters, whose
exponents there have a known bound.

Polynomial matrices hold integer coefficient sequences only (constant
term first), as the twisted boundaries are built.  The Smith form over
Q[t] serves degenerate characters and is the oracle of the local path.
It eliminates on plain-int coefficient lists with the arithmetic of
polys (pseudo-division, exact quotients, primitive gcd).  It
diagonalizes with degree-minimal pivoting (ties broken by coefficient
height, then position) by Euclidean steps: an entry is reduced by a
pseudo-quotient multiple of the pivot line, and a nonzero remainder is
swapped in as the new pivot, of lower degree (Newman, Integral
Matrices, 1972, ch. II).  Rows and columns are divided by their integer
content and their power of t after every step to control coefficient
growth.  It then repairs the divisibility chain with two-by-two moves on
the diagonal, which cause no fill-in and need only a gcd.  Every move is
unimodular over the Laurent ring Q[t^±1], where nonzero constants and
powers of t are units, and the reported invariant factors are monic with
their t-power content stripped, the normalization of that ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .polys import ExactPoly, _exquo, _gcd, _lin, _mul, _pdivmod, _trim

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
    then divided by its content; a column left nonzero becomes the pivot
    that owns its lead.  Only the rows of the pivots met are touched, so
    zeros cost nothing (Zomorodian and Carlsson, "Computing persistent
    homology", DCG 2005, §4).  The pivots have distinct leads, so the
    leads among the first i columns that lie above row r number the rank
    of those columns cut to the rows above r, which fixes every lead.

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
            p, a = pivot[low], col[low]
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
            col = new
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
    inc = IncrementalRank(len(a_cols[0]))
    basis: list[list[int]] = []
    for vec in nullspace(list(rows.values()), len(stacked)):
        combo = [0] * inc.dim
        for coef, col in zip(vec, a):
            if coef:
                for r, x in col.items():
                    combo[r] += coef * x
        if inc.add(combo):
            basis.append(_primitive(combo))
    return basis


class IncrementalRank:
    """A growing independent set of vectors over Q, as the pivots of one
    column reduction."""

    def __init__(self, dim: int):
        self.dim = dim
        self._pivots: dict[int, dict[int, int]] = {}  # lead -> reduced column

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, vec) -> bool:
        """Add vec (dense or sparse) if independent from the current set;
        True when added."""
        return reduce_columns([vec], self._pivots)[0] is not None


# ---------------------------------------------------------------------------
# local Smith form over Q[s]/s^K
# ---------------------------------------------------------------------------
#
# A truncated series is a tuple of ints, index = power of s, with no
# trailing zeros and fewer than K terms; () is zero.


def _truncated(e: Sequence[int], K: int) -> tuple[int, ...]:
    n = min(len(e), K)
    while n and not e[n - 1]:
        n -= 1
    return tuple(e[:n])


def _local_move(u: tuple[int, ...], x, q: tuple[int, ...], y, K: int) -> tuple[int, ...]:
    """u*x - q*y mod s^K, for series x and y of which either may be None."""
    if len(u) == 1 and len(q) == 1:
        c, a = u[0], -q[0]
        if y is None:
            return x if c == 1 else tuple(c * b for b in x)
        if x is None:
            return tuple(a * b for b in y)
        out = [c * b for b in x]
        out.extend([0] * (len(y) - len(x)))
        for j, b in enumerate(y):
            out[j] += a * b
        return _truncated(out, K)
    out = [0] * K
    for a, b, sign in ((u, x, 1), (q, y, -1)):
        if b:
            for i, c in enumerate(a):
                if c:
                    c *= sign
                    for j in range(min(len(b), K - i)):
                        out[i + j] += c * b[j]
    return _truncated(out, K)


def local_smith_valuations(rows: Sequence, K: int) -> list[int]:
    """Valuations of the Smith form of a matrix over the local ring
    Q[s]_(s), truncated at K: one valuation below K per pivot, in
    elimination order.

    Rows are dense, or sparse as dicts from column to entry; the columns
    of a matrix serve as well, since transposing keeps the Smith form.
    Entries are series in s (index = power of s, () for zero), cut at
    s^K.  Each step pivots on an entry of least valuation v, s^v times a
    unit u, and gives every other row holding an entry e in the pivot
    column the move row <- u*row - (e / s^v)*pivot row, mod s^K, which
    is invertible over the local ring; the row is then divided by its
    integer content.  The pivot row and column are dropped: the other
    entries of the pivot row have valuation at least v, so column moves
    would clear them without touching another row.  The elimination stops
    when every entry is 0 mod s^K, so the Smith form has one diagonal
    entry s^e per pivot with e < K and its other nonzero entries have
    e >= K; a caller that knows the rank over Q(s) sees them as missing
    pivots.  No gcd of series, no division and no Fraction: every degree
    stays below K (Newman, Integral Matrices, 1972, ch. II).
    """
    live = []
    for row in rows:
        sparse = {}
        for c, e in row.items() if isinstance(row, dict) else enumerate(row):
            if e and (len(e) > K or not e[-1]):
                e = _truncated(e, K)
            if e:
                sparse[c] = e
        if sparse:
            live.append(sparse)
    vals = []
    while live:
        best = (K, 0, 0)
        for i, row in enumerate(live):
            for c, e in row.items():
                v = 0
                while not e[v]:
                    v += 1
                if v < best[0]:
                    best = (v, i, c)
                    if not v:
                        break
            if not best[0]:
                break
        v, i, c = best
        pivot = live.pop(i)
        unit = pivot.pop(c)[v:]
        rest = []
        for row in live:
            e = row.pop(c, None)
            if e is not None:
                q = e[v:]
                # a unit times a nonzero series is nonzero mod s^K, so
                # only the pivot row's columns can cancel
                if unit == (1,):
                    moved = row
                else:
                    moved = {col: _local_move(unit, x, q, None, K) for col, x in row.items()}
                for col, y in pivot.items():
                    x = _local_move(unit, row.get(col), q, y, K)
                    if x:
                        moved[col] = x
                    else:
                        moved.pop(col, None)
                g = gcd(*chain.from_iterable(moved.values()))
                if g > 1:
                    moved = {col: tuple(a // g for a in x) for col, x in moved.items()}
                row = moved
            if row:
                rest.append(row)
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
        u, v = [c], [-x for x in q]
        a[i] = [_lin(u, y, v, x) if x or y else y for x, y in zip(a[t], a[i])]
        _strip_row(a[i])
        if a[i][t]:
            a[t], a[i] = a[i], a[t]


def _col_step(a: list[list[list[int]]], t: int, j: int) -> None:
    """Clear a[t][j] against the pivot a[t][t]; _row_step on columns."""
    while a[t][j]:
        c, q, _ = _pdivmod(a[t][j], a[t][t])
        u, v = [c], [-x for x in q]
        for row in a:
            x, y = row[t], row[j]
            if x or y:
                row[j] = _lin(u, y, v, x)
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


def smith_normal_form(matrix: Sequence[Sequence[Sequence[int]]], ncols: Optional[int] = None) -> SmithForm:
    """Smith normal form over Q[t] of a list of rows of integer coefficient
    sequences, constant term first, trailing zeros allowed.

    ncols is only needed when the matrix has no rows.  Every move is
    unimodular over the Laurent ring Q[t^±1]: rows and columns are
    divided by their content and t-power after every step.
    """
    a = [[e if not e or e[-1] else _trim(list(e)) for e in row] for row in matrix]
    nrows = len(a)
    if nrows:
        ncols = len(a[0])
    elif ncols is None:
        raise ValueError("ncols required for a matrix with no rows")

    # phase 1: diagonalize (no divisibility enforcement); a division
    # that leaves a remainder swaps it in as a pivot of lower degree, so
    # the row/column alternation terminates
    t = 0
    while t < min(nrows, ncols):
        pos = _find_pivot(a, t)
        if pos is None:
            break
        i, j = pos
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
    rank = t

    # phase 2: repair the divisibility chain on the diagonal; replacing
    # (a, b) by (gcd, a*b/gcd) is a unimodular 2x2 move on rows and
    # columns that are otherwise zero, so there is no fill-in; only the
    # new diagonal is computed, which needs the gcd but no cofactors
    diag = []
    for i in range(rank):
        g, low = _divisor([a[i][i]])
        diag.append(_divide(a[i][i], g, low))
    changed = True
    while changed:
        changed = False
        for i in range(rank):
            for j in range(i + 1, rank):
                if _pdivmod(diag[j], diag[i])[2]:
                    g = _gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, _mul(diag[i], _exquo(diag[j], g))
                    changed = True
    invariant = tuple(ExactPoly([Fraction(x, d[-1]) for x in d]) for d in diag)
    return SmithForm(invariant_factors=invariant, rank=rank, nrows=nrows, ncols=ncols)
