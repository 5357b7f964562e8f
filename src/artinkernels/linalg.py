"""Exact linear algebra: integer elimination over Q, local Smith forms
over Q[s]/s^K and the Smith normal form over Q[t].

Rational matrices are plain lists of rows with int or Fraction entries.
Rows of ints are used as they are and only rows holding a Fraction are
scaled by their common denominator, so the 0/±1/±2 incidence matrices of
the formula pipeline never leave the integers.  One fraction-free
(Bareiss) elimination serves ranks, kernels, span intersections and
incremental independence tests; kernels come back as primitive integer
vectors.

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
from typing import Optional, Sequence

from .polys import ExactPoly, _exquo, _gcd, _lin, _mul, _pdivmod, _trim

_INT = frozenset((int,))


# ---------------------------------------------------------------------------
# rational matrices: fraction-free integer elimination
# ---------------------------------------------------------------------------


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Rows with integer entries spanning the same lines as the input:
    int rows are passed through, rows holding a Fraction are scaled by the
    lcm of their denominators."""
    out = []
    for row in rows:
        if _INT.issuperset(map(type, row)):
            out.append(row)
            continue
        fracs = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in fracs))
        out.append([x.numerator * (den // x.denominator) for x in fracs])
    return out


def _apply_steps(row: list[int], steps: Sequence[tuple[int, list[int]]], prev: int = 1) -> list[int]:
    """Apply Bareiss elimination steps to a row; never mutates arguments.

    Each step (col, pivot_row) clears row[col]: the row becomes
    (p * row - a * pivot_row) / prev, where p = pivot_row[col], a = row[col]
    and prev is the pivot of the step before (1 before the first).  By
    Sylvester's identity every entry is then a minor of the input matrix,
    so the division is exact and entries stay as small as those minors.
    """
    for col, pivot_row in steps:
        p = pivot_row[col]
        a = row[col]
        if a:
            if prev == 1:
                row = [p * x - a * y for x, y in zip(row, pivot_row)]
            else:
                row = [(p * x - a * y) // prev for x, y in zip(row, pivot_row)]
        elif p != prev:
            row = [p * x // prev for x in row]
        prev = p
    return row


def _add_row(pivots: list[tuple[int, list[int]]], row: list[int]) -> bool:
    """Reduce a new row by every elimination step so far; when it stays
    nonzero it becomes the next pivot, at its first nonzero column and
    negated if needed so that every pivot is positive.  True when added."""
    row = _apply_steps(row, pivots)
    for col, x in enumerate(row):
        if x:
            pivots.append((col, row if x > 0 else [-y for y in row]))
            return True
    return False


def _echelon(rows: Sequence[list[int]], ncols: int, reduced: bool = False) -> list[tuple[int, list[int]]]:
    """Fraction-free elimination of integer rows; returns the pivots as
    (column, row) pairs in elimination order, one per unit of rank.

    With reduced=True each pivot row also gets the steps of the later
    pivots, which clears the other pivot columns (fraction-free
    Gauss-Jordan); every pivot entry then equals the last pivot.
    """
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        if len(pivots) == ncols:
            break
        if any(row):
            _add_row(pivots, row)
    if reduced:
        for i, (col, row) in enumerate(pivots):
            pivots[i] = (col, _apply_steps(row, pivots[i + 1 :], prev=row[col]))
    return pivots


def leading_columns(rows: Sequence[Sequence], ncols: int) -> list[Optional[int]]:
    """For each row, in the order given, the column at which the
    elimination makes it a new pivot, or None when it depends on the
    rows before it.

    Each pivot row is its input row reduced against the earlier ones, and
    the pivot rows have distinct leading columns, so a nonzero combination
    of them leads at the first leading column it involves.
    """
    pivots: list[tuple[int, list[int]]] = []
    leads: list[Optional[int]] = []
    for row in _integer_rows(rows):
        if len(pivots) < ncols and any(row) and _add_row(pivots, row):
            leads.append(pivots[-1][0])
        else:
            leads.append(None)
    return leads


def rank_rational(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals via fraction-free integer elimination."""
    if not rows:
        return 0
    return len(_echelon(_integer_rows(rows), len(rows[0])))


def _primitive(vec: list[int]) -> list[int]:
    g = gcd(*vec)
    return vec if g in (0, 1) else [x // g for x in vec]


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[list[int]]:
    """Basis of {x : M x = 0}: one primitive integer vector of length
    ncols per non-pivot column, positive at that column."""
    pivots = _echelon(_integer_rows(rows), ncols, reduced=True)
    pivot_cols = {col for col, _ in pivots}
    scale = pivots[-1][1][pivots[-1][0]] if pivots else 1
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [0] * ncols
        vec[free] = scale
        for col, row in pivots:
            vec[col] = -row[free]
        basis.append(_primitive(vec))
    return basis


def columns_to_rows(cols: Sequence[Sequence]) -> list[list]:
    """Transpose a list of column vectors into a row-major matrix."""
    if not cols:
        return []
    return [list(col) for col in zip(*cols)]


def span_rank(cols: Sequence[Sequence]) -> int:
    """Rank of the span of the given column vectors."""
    # row rank equals column rank, so the columns serve as rows unchanged
    return rank_rational(cols)


def intersect_spans(a_cols: Sequence[Sequence], b_cols: Sequence[Sequence]) -> list[list[int]]:
    """Basis of span(a_cols) ∩ span(b_cols), as primitive integer columns."""
    if not a_cols or not b_cols:
        return []
    a_int = _integer_rows(a_cols)
    stacked = columns_to_rows(a_int + _integer_rows(b_cols))
    kern = nullspace(stacked, len(a_cols) + len(b_cols))
    inc = IncrementalRank(len(a_int[0]))
    basis: list[list[int]] = []
    for vec in kern:
        combo = [0] * inc.dim
        for coef, col in zip(vec, a_int):
            if coef:
                combo = [x + coef * y for x, y in zip(combo, col)]
        if inc.add(combo):
            basis.append(_primitive(combo))
    return basis


class IncrementalRank:
    """Maintains a growing independent set of vectors over Q, as the
    pivots of the fraction-free elimination."""

    def __init__(self, dim: int):
        self.dim = dim
        self._pivots: list[tuple[int, list[int]]] = []  # (column, reduced row)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, vec: Sequence) -> bool:
        """Add vec if independent from the current set; True when added."""
        return _add_row(self._pivots, _integer_rows([list(vec)])[0])


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


def local_smith_valuations(rows: Sequence[Sequence[Sequence[int]]], K: int) -> list[int]:
    """Valuations of the Smith form of a matrix over the local ring
    Q[s]_(s), truncated at K: one valuation below K per pivot, in
    elimination order.

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
        for c, e in enumerate(row):
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
