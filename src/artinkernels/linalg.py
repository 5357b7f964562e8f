"""Exact linear algebra: integer elimination over Q and Smith normal form
over Q[t].

Rational matrices are plain lists of rows with int or Fraction entries.
Rows of ints are used as they are and only rows holding a Fraction are
scaled by their common denominator, so the 0/±1/±2 incidence matrices of
the formula pipeline never leave the integers.  One fraction-free
(Bareiss) elimination serves ranks, kernels, span intersections and
incremental independence tests; kernels come back as primitive integer
vectors.  Polynomial matrices hold ExactPoly entries.  The Smith form
routine first diagonalizes with degree-minimal pivoting (ties broken by
coefficient height, then position), stripping rational content after
every elementary operation to control coefficient growth, and then
repairs the divisibility chain with two-by-two Bezout steps on the
diagonal, which cause no fill-in.  Reported invariant factors are monic
with their t-power content stripped, the normalization of Q[t^±1] where
t is a unit; without transforms the elimination may also divide rows and
columns by powers of t, exact for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .polys import ZERO, ONE, ExactPoly, poly_xgcd

Row = list
Matrix = list  # list of rows
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
# Smith normal form over Q[t]
# ---------------------------------------------------------------------------


@dataclass
class SmithForm:
    """Smith normal form data for a polynomial matrix.

    invariant_factors are monic with t-power content stripped (the
    normalization over the Laurent ring, where t is a unit); diagonal
    keeps the raw monic Q[t] diagonal so that left @ M @ right equals
    diag(diagonal) when transforms were requested.
    """

    invariant_factors: tuple[ExactPoly, ...]
    rank: int
    diagonal: tuple[ExactPoly, ...]
    nrows: int
    ncols: int
    left: Optional[list[list[ExactPoly]]] = None
    right: Optional[list[list[ExactPoly]]] = None
    right_inv: Optional[list[list[ExactPoly]]] = None


def _identity(n: int) -> list[list[ExactPoly]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def poly_mat_mul(a: Sequence[Sequence[ExactPoly]], b: Sequence[Sequence[ExactPoly]]) -> list[list[ExactPoly]]:
    if not a:
        return []
    inner = len(b)
    ncols = len(b[0]) if b else 0
    out = [[ZERO] * ncols for _ in range(len(a))]
    for i, row in enumerate(a):
        for k in range(inner):
            aik = row[k]
            if aik.is_zero():
                continue
            brow = b[k]
            orow = out[i]
            for j in range(ncols):
                if not brow[j].is_zero():
                    orow[j] = orow[j] + aik * brow[j]
    return out


class _Eliminator:
    """Shared state for the diagonalization; tracks optional transforms."""

    def __init__(self, matrix, nrows, ncols, transforms, laurent):
        self.a = matrix
        self.nrows = nrows
        self.ncols = ncols
        self.left = _identity(nrows) if transforms else None
        self.right = _identity(ncols) if transforms else None
        self.right_inv = _identity(ncols) if transforms else None
        self.laurent = laurent

    def swap_rows(self, i: int, j: int) -> None:
        if i == j:
            return
        a = self.a
        a[i], a[j] = a[j], a[i]
        if self.left is not None:
            self.left[i], self.left[j] = self.left[j], self.left[i]

    def swap_cols(self, i: int, j: int) -> None:
        if i == j:
            return
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        if self.right is not None:
            for row in self.right:
                row[i], row[j] = row[j], row[i]
            ri = self.right_inv
            ri[i], ri[j] = ri[j], ri[i]

    def scale_row(self, i: int, c: Fraction) -> None:
        self.a[i] = [entry * c for entry in self.a[i]]
        if self.left is not None:
            self.left[i] = [entry * c for entry in self.left[i]]

    def scale_col(self, j: int, c: Fraction) -> None:
        for row in self.a:
            row[j] = row[j] * c
        if self.right is not None:
            for row in self.right:
                row[j] = row[j] * c
            inv = 1 / c
            self.right_inv[j] = [entry * inv for entry in self.right_inv[j]]

    def strip_row(self, i: int) -> None:
        row = self.a[i]
        content = Fraction(0)
        tmin = None
        for e in row:
            if not e.is_zero():
                c = e.content()
                content = c if not content else Fraction(
                    gcd(content.numerator * c.denominator, c.numerator * content.denominator),
                    content.denominator * c.denominator,
                )
                if self.laurent:
                    tp = e.t_power_content()
                    tmin = tp if tmin is None else min(tmin, tp)
        if content and content != 1:
            self.scale_row(i, 1 / content)
        if self.laurent and tmin:
            self.a[i] = [
                ExactPoly(e.coeffs[tmin:]) if not e.is_zero() else e for e in self.a[i]
            ]

    def strip_col(self, j: int) -> None:
        content = Fraction(0)
        tmin = None
        for row in self.a:
            e = row[j]
            if not e.is_zero():
                c = e.content()
                content = c if not content else Fraction(
                    gcd(content.numerator * c.denominator, c.numerator * content.denominator),
                    content.denominator * c.denominator,
                )
                if self.laurent:
                    tp = e.t_power_content()
                    tmin = tp if tmin is None else min(tmin, tp)
        if content and content != 1:
            self.scale_col(j, 1 / content)
        if self.laurent and tmin:
            for row in self.a:
                if not row[j].is_zero():
                    row[j] = ExactPoly(row[j].coeffs[tmin:])

    def addmul_row(self, dst: int, src: int, q: ExactPoly) -> None:
        if q.is_zero():
            return
        arow, srow = self.a[dst], self.a[src]
        for j in range(self.ncols):
            if not srow[j].is_zero():
                arow[j] = arow[j] + q * srow[j]
        if self.left is not None:
            lrow, lsrc = self.left[dst], self.left[src]
            for j in range(self.nrows):
                if not lsrc[j].is_zero():
                    lrow[j] = lrow[j] + q * lsrc[j]
        self.strip_row(dst)

    def addmul_col(self, dst: int, src: int, q: ExactPoly) -> None:
        if q.is_zero():
            return
        for row in self.a:
            if not row[src].is_zero():
                row[dst] = row[dst] + q * row[src]
        if self.right is not None:
            for row in self.right:
                if not row[src].is_zero():
                    row[dst] = row[dst] + q * row[src]
            # the inverse picks up the inverse elementary op on the left
            rsrc, rdst = self.right_inv[src], self.right_inv[dst]
            for jj in range(self.ncols):
                if not rdst[jj].is_zero():
                    rsrc[jj] = rsrc[jj] - q * rdst[jj]
        self.strip_col(dst)

    # -- fused two-by-two Bezout combines (one step instead of a
    #    remainder cascade; the cascade is where coefficients explode) --

    def _row_combine(self, i, j, p11, p12, p21, p22):
        mats = [(self.a, self.ncols)]
        if self.left is not None:
            mats.append((self.left, self.nrows))
        for mat, width in mats:
            ri, rj = mat[i], mat[j]
            new_i = [p11 * ri[c] + p12 * rj[c] for c in range(width)]
            new_j = [p21 * ri[c] + p22 * rj[c] for c in range(width)]
            mat[i], mat[j] = new_i, new_j
        self.strip_row(i)
        self.strip_row(j)

    def _col_combine(self, i, j, q11, q21, q12, q22):
        # new_col_i = q11*col_i + q21*col_j, new_col_j = q12*col_i + q22*col_j
        for row in self.a:
            ci, cj = row[i], row[j]
            row[i] = q11 * ci + q21 * cj
            row[j] = q12 * ci + q22 * cj
        if self.right is not None:
            for row in self.right:
                ci, cj = row[i], row[j]
                row[i] = q11 * ci + q21 * cj
                row[j] = q12 * ci + q22 * cj
            # right_inv <- Qinv @ right_inv with Qinv = [[q22, -q12], [-q21, q11]] / det
            det = q11 * q22 - q12 * q21
            if det.degree != 0:
                raise AssertionError("column combine is not unimodular")
            scale = 1 / det.leading()
            ri, rj = self.right_inv[i], self.right_inv[j]
            new_i = [(q22 * ri[c] - q12 * rj[c]) * scale for c in range(self.ncols)]
            new_j = [(-q21 * ri[c] + q11 * rj[c]) * scale for c in range(self.ncols)]
            self.right_inv[i], self.right_inv[j] = new_i, new_j
        self.strip_col(i)
        self.strip_col(j)

    def row_gcd_step(self, t: int, i: int) -> None:
        """Zero out a[i][t] against the pivot a[t][t] in one unimodular
        move; the pivot becomes the gcd when it did not already divide."""
        pivot = self.a[t][t]
        entry = self.a[i][t]
        q, r = divmod(entry, pivot)
        if r.is_zero():
            self.addmul_row(i, t, -q)
            return
        g, x, y = poly_xgcd(pivot, entry)
        self._row_combine(t, i, x, y, -(entry // g), pivot // g)

    def col_gcd_step(self, t: int, j: int) -> None:
        pivot = self.a[t][t]
        entry = self.a[t][j]
        q, r = divmod(entry, pivot)
        if r.is_zero():
            self.addmul_col(j, t, -q)
            return
        g, x, y = poly_xgcd(pivot, entry)
        # columns t, j: new_col_t = x*col_t + y*col_j, new_col_j = -(entry/g)*col_t + (pivot/g)*col_j
        self._col_combine(t, j, x, y, -(entry // g), pivot // g)

    def chain_step(self, i: int, j: int) -> None:
        """Replace diag entries (a, b) by (gcd, lcm) via unimodular 2x2
        transforms touching only rows and columns i and j; since those
        rows and columns are otherwise zero there is no fill-in."""
        a_val = self.a[i][i]
        b_val = self.a[j][j]
        g, x, y = poly_xgcd(a_val, b_val)
        ag = a_val // g
        bg = b_val // g
        if self.left is None:
            self.a[i][i] = g
            self.a[j][j] = a_val * bg
            return
        # P = [[x, y], [-bg, ag]], Q = [[1, -y*bg], [1, x*ag]]
        self._row_combine(i, j, x, y, -bg, ag)
        self._col_combine(i, j, ONE, ONE, -y * bg, x * ag)


def smith_normal_form(
    matrix: Sequence[Sequence[ExactPoly]],
    ncols: Optional[int] = None,
    transforms: bool = False,
) -> SmithForm:
    """Smith normal form over Q[t] (matrix as a list of rows of ExactPoly).

    ncols is only needed when the matrix has no rows.  With
    transforms=True the returned left and right matrices are unimodular
    over Q[t] and satisfy left @ M @ right == diag(diagonal); right_inv
    is the inverse of right.  Without transforms the elimination
    additionally strips t-powers (units of the Laurent ring), which only
    changes the diagonal by units.
    """
    a = [list(row) for row in matrix]
    nrows = len(a)
    if nrows:
        ncols = len(a[0])
    elif ncols is None:
        raise ValueError("ncols required for a matrix with no rows")

    elim = _Eliminator(a, nrows, ncols, transforms, laurent=not transforms)

    def find_pivot(t: int) -> Optional[tuple[int, int]]:
        best = None
        best_key = None
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                e = row[j]
                if e.is_zero():
                    continue
                key = (e.degree, e.height(), i, j)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j)
        return best

    # phase 1: diagonalize (no divisibility enforcement); each non-exact
    # division is a fused Bezout combine that strictly drops the pivot
    # degree, so the row/column alternation terminates quickly
    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        pos = find_pivot(t)
        if pos is None:
            break
        elim.swap_rows(t, pos[0])
        elim.swap_cols(t, pos[1])
        while True:
            for i in range(t + 1, nrows):
                if not a[i][t].is_zero():
                    elim.row_gcd_step(t, i)
            for j in range(t + 1, ncols):
                if not a[t][j].is_zero():
                    elim.col_gcd_step(t, j)
            col_clear = all(a[i][t].is_zero() for i in range(t + 1, nrows))
            row_clear = all(a[t][j].is_zero() for j in range(t + 1, ncols))
            if col_clear and row_clear:
                break
        t += 1
    rank = t

    # phase 2: repair the divisibility chain on the diagonal
    changed = True
    while changed:
        changed = False
        for i in range(rank):
            for j in range(i + 1, rank):
                if not (a[j][j] % a[i][i]).is_zero():
                    elim.chain_step(i, j)
                    changed = True

    diagonal = []
    for i in range(rank):
        d = a[i][i]
        lead = d.leading()
        if lead != 1:
            elim.scale_row(i, 1 / lead)
            d = a[i][i]
        diagonal.append(d)
    invariant = tuple(d.strip_t_power().monic() for d in diagonal)
    return SmithForm(
        invariant_factors=invariant,
        rank=rank,
        diagonal=tuple(diagonal),
        nrows=nrows,
        ncols=ncols,
        left=elim.left,
        right=elim.right,
        right_inv=elim.right_inv,
    )
