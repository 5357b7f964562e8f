"""Exact linear algebra: ranks, integer kernels, span intersections and
incremental ranks against an independent elimination oracle, Smith forms
against the determinantal-divisor (minor-gcd) oracle, local Smith forms
against the Smith form over Q[t], identities of the integer polynomial
helpers, permutation invariance."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from artinkernels import ConsistencyError, build_flag_complex, boundary_matrix
from artinkernels.linalg import (
    intersect_spans,
    local_smith_valuations,
    nullspace,
    rank_rational,
    reduce_columns,
    smith_normal_form,
    span_rank,
)
from artinkernels.crosscheck import random_connected_graph, random_nonresonant_character
from artinkernels.homology import twisted_boundary
from artinkernels.polys import (
    ONE,
    ZERO,
    ExactPoly,
    _exquo,
    _gcd,
    _cyclotomic_coeffs,
    _integer_coeffs,
    _mul,
    _pdivmod,
    _submul,
    _terms,
    factor_cyclotomic,
    poly_gcd,
    t_power_minus_one,
)

from conftest import make_tree, make_triforce, oracle_rank


def p(*coeffs):
    return ExactPoly(coeffs)


def int_rows(mat):
    """ExactPoly rows as the integer coefficient rows smith_normal_form
    takes, each row scaled by the lcm of its denominators."""
    return [_integer_coeffs([e.coeffs for e in row]) for row in mat]


def rand_matrix(rng, n, m, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_rank_identity():
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert rank_rational(eye) == 5


def test_rank_tree_boundary():
    g, _ = make_tree()
    f = build_flag_complex(g)
    assert rank_rational(boundary_matrix(f, 1)) == 3


def test_rank_triforce_triangles():
    g, _ = make_triforce()
    f = build_flag_complex(g)
    assert rank_rational(boundary_matrix(f, 2)) == 4


def test_rank_against_oracle():
    rng = random.Random(2)
    for _ in range(150):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = rand_matrix(rng, n, m)
        assert rank_rational(mat) == oracle_rank(mat)
    # rational entries
    for _ in range(40):
        mat = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3)]
            for _ in range(4)
        ]
        assert rank_rational(mat) == oracle_rank(mat)


def test_nullspace_properties():
    rng = random.Random(4)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        mat = rand_matrix(rng, n, m)
        kern = nullspace(mat, m)
        assert len(kern) == m - oracle_rank(mat)
        for vec in kern:
            for row in mat:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_span_helpers():
    cols_a = [[1, 0, 0], [0, 1, 0]]
    cols_b = [[1, 1, 0], [0, 0, 1]]
    assert span_rank(cols_a + cols_b) == 3
    inter = intersect_spans(cols_a, cols_b)
    assert len(inter) == 1
    v = inter[0]
    assert v[2] == 0 and (v[0], v[1]) != (0, 0) and v[0] == v[1]


def test_incremental_rank():
    # one reduce_columns call per vector, on one pivots dict carried
    # across the calls, tests each vector against those kept before it
    pivots = {}
    assert reduce_columns([[1, 0, 0]], pivots)[0] is not None
    assert reduce_columns([[2, 0, 0]], pivots)[0] is None
    assert reduce_columns([{0: 1, 1: 1}], pivots)[0] is not None
    assert len(pivots) == 2


# -- integer kernels against the oracle ----------------------------------------


def rand_fraction_matrix(rng, n, m):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(m)] for _ in range(n)]


def random_boundaries(rng, count):
    """Boundary matrices of random flag complexes, every degree."""
    mats = []
    for _ in range(count):
        f = build_flag_complex(random_connected_graph(rng, rng.randint(2, 7)))
        mats.extend(boundary_matrix(f, k) for k in range(0, f.dim + 1))
    return [m for m in mats if m and m[0]]


def property_matrices(seed):
    """Random int matrices (some with repeated rows), random Fraction
    matrices and boundary matrices of random flag complexes."""
    rng = random.Random(seed)
    mats = []
    for _ in range(60):
        mat = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        if rng.random() < 0.3:
            mat.append([2 * x for x in rng.choice(mat)])
        mats.append(mat)
    mats += [rand_fraction_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(30)]
    mats += random_boundaries(rng, 12)
    return mats


def as_columns(mat):
    return [list(col) for col in zip(*mat)]


def test_nullspace_vectors_are_primitive_integer_kernel_basis():
    # one vector per free column, positive there and zero at the other free columns
    assert nullspace([[-2, 4, -6]], 3) == [[2, 1, 0], [-3, 0, 1]]
    assert nullspace([[0, Fraction(1, 2)], [0, 3]], 2) == [[1, 0]]
    for mat in property_matrices(31):
        ncols = len(mat[0])
        kern = nullspace(mat, ncols)
        assert len(kern) == ncols - oracle_rank(mat)
        for vec in kern:
            assert len(vec) == ncols
            assert all(type(x) is int for x in vec)
            assert gcd(*vec) == 1
            for row in mat:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        if kern:
            assert oracle_rank(kern) == len(kern)


def test_intersect_spans_dimension_against_oracle():
    rng = random.Random(37)
    mats = property_matrices(37)
    for _ in range(80):
        a_cols = as_columns(rng.choice(mats))
        dim = len(a_cols[0])
        b_cols = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(1, dim + 1))]
        if rng.random() < 0.5:
            # share part of the span on purpose
            b_cols.append([x + y for x, y in zip(rng.choice(a_cols), rng.choice(a_cols))])
        inter = intersect_spans(a_cols, b_cols)
        r_a, r_b = oracle_rank(a_cols), oracle_rank(b_cols)
        assert len(inter) == r_a + r_b - oracle_rank(a_cols + b_cols)
        for vec in inter:
            assert all(type(x) is int for x in vec) and gcd(*vec) == 1
            assert oracle_rank(a_cols + [vec]) == r_a
            assert oracle_rank(b_cols + [vec]) == r_b
        if inter:
            assert oracle_rank(inter) == len(inter)


def test_intersect_spans_of_cycles_and_boundaries():
    rng = random.Random(41)
    for _ in range(12):
        f = build_flag_complex(random_connected_graph(rng, rng.randint(3, 7)))
        for k in range(0, f.dim):
            cycles = nullspace(boundary_matrix(f, k), f.count(k))
            images = as_columns(boundary_matrix(f, k + 1))
            if not cycles or not images:
                continue
            # every boundary is a cycle, so the intersection is the image
            inter = intersect_spans(cycles, images)
            assert len(inter) == oracle_rank(images)
            assert len(inter) == oracle_rank(cycles) + oracle_rank(images) - oracle_rank(cycles + images)


def test_incremental_rank_matches_oracle():
    for mat in property_matrices(43):
        pivots = {}
        added = []
        for row in mat + [[0] * len(mat[0])]:
            before = len(pivots)
            grew = reduce_columns([row], pivots)[0] is not None
            added.append(row)
            assert len(pivots) == oracle_rank(added)
            assert grew == (len(pivots) == before + 1)


def test_reduce_columns_with_height_match_prefix_ranks():
    # the leads among the first i rows that fall before column c number
    # exactly the rank of those rows cut to their first c columns, which
    # pins down every lead, and None for dependent rows
    rng = random.Random(47)
    mats = property_matrices(47)
    mats += [as_columns(mat) for mat in random_boundaries(rng, 8)]
    for mat in mats:
        rows = mat + [[0] * len(mat[0])]
        ncols = len(rows[0])
        leads = reduce_columns(rows, height=ncols)
        assert len(leads) == len(rows)
        for i in range(len(rows) + 1):
            for c in range(ncols + 1):
                below = sum(1 for lead in leads[:i] if lead is not None and lead < c)
                assert below == oracle_rank([row[:c] for row in rows[:i]]), (mat, i, c)


def random_sparse_columns(rng, nrows, ncols, bits):
    """Sparse integer columns with entries up to 2^bits in size, about a
    third of them combinations of two earlier columns."""
    cols = []
    for _ in range(ncols):
        if cols and rng.random() < 0.35:
            a, b = rng.choice(cols), rng.choice(cols)
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            col = {r: x * a.get(r, 0) + y * b.get(r, 0) for r in set(a) | set(b)}
        else:
            rows = rng.sample(range(nrows), rng.randint(0, min(nrows, 4)))
            col = {r: rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, bits)) for r in rows}
        cols.append({r: v for r, v in col.items() if v})
    return cols


def test_reduce_columns_leads_match_prefix_ranks_on_large_entries():
    # a column leads exactly where the rank of the columns so far grows,
    # at the least row that grows it: the leads among the first i columns
    # that lie above row c number the rank of those columns cut to the
    # rows above c; dense and sparse input give the same leads, and the
    # input is left as it was
    rng = random.Random(53)
    for _ in range(120):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        cols = random_sparse_columns(rng, nrows, ncols, 120)
        before = [dict(col) for col in cols]
        dense = [[col.get(r, 0) for r in range(nrows)] for col in cols]
        leads = reduce_columns(cols)
        assert cols == before
        assert leads == reduce_columns(dense) == reduce_columns(cols, height=nrows) == reduce_columns(dense, height=nrows)
        assert rank_rational(cols) == rank_rational(dense) == oracle_rank(dense)
        for i in range(ncols + 1):
            for c in range(nrows + 1):
                above = sum(1 for lead in leads[:i] if lead is not None and lead < c)
                assert above == oracle_rank([col[:c] for col in dense[:i]])


def test_reduce_columns_carries_pivots_across_calls():
    rng = random.Random(59)
    for _ in range(40):
        cols = random_sparse_columns(rng, 6, 7, 120)
        pivots = {}
        split = rng.randint(0, len(cols))
        leads = reduce_columns(cols[:split], pivots) + reduce_columns(cols[split:], pivots)
        assert leads == reduce_columns(cols)
        assert sorted(pivots) == sorted(lead for lead in leads if lead is not None)


def test_rank_rational_collects_the_leads_of_reduce_columns():
    # the clearing driver reads a rank-only complex's leads off these pivots
    rng = random.Random(67)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        cols = random_sparse_columns(rng, nrows, rng.randint(0, 8), 120)
        leads = reduce_columns(cols)
        rank = oracle_rank([[col.get(r, 0) for r in range(nrows)] for col in cols])
        for height in (None, nrows):
            pivots = {}
            assert rank_rational(cols, pivots, height) == rank
            assert list(pivots) == [lead for lead in leads if lead is not None]


def test_nullspace_of_sparse_rows_with_large_entries():
    rng = random.Random(61)
    for _ in range(60):
        ncols = rng.randint(1, 7)
        rows = random_sparse_columns(rng, ncols, rng.randint(1, 6), 120)
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        kern = nullspace(rows, ncols)
        assert kern == nullspace(dense, ncols)
        assert len(kern) == ncols - oracle_rank(dense)
        for vec in kern:
            assert gcd(*vec) == 1
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in dense)


# -- Smith normal form -------------------------------------------------------


def minors_gcd(mat, size):
    """gcd of all size x size minors, as a monic polynomial (oracle)."""
    n, m = len(mat), len(mat[0])
    best = ZERO
    for rows in combinations(range(n), size):
        for cols in combinations(range(m), size):
            det = _det([[mat[i][j] for j in cols] for i in rows])
            if det.is_zero():
                continue
            best = det.monic() if best.is_zero() else poly_gcd(best, det)
    return best


def _det(sq):
    n = len(sq)
    if n == 1:
        return sq[0][0]
    total = ZERO
    for j in range(n):
        if sq[0][j].is_zero():
            continue
        minor = [[sq[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = sq[0][j] * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_snf_examples():
    snf = smith_normal_form(int_rows([[p(-1, 1), ZERO], [ZERO, p(-1, 0, 1)]]))
    assert snf.invariant_factors == (p(-1, 1), p(-1, 0, 1))

    snf = smith_normal_form(int_rows([[p(-1, 1), p(-1, 1)], [ZERO, p(-1, 0, 1)]]))
    # oracle: d1 = gcd of entries, d1*d2 = gcd of 2x2 minors (determinant)
    mat = [[p(-1, 1), p(-1, 1)], [ZERO, p(-1, 0, 1)]]
    d1 = minors_gcd(mat, 1)
    d1d2 = minors_gcd(mat, 2)
    assert d1 == p(-1, 1)
    assert d1d2 == (p(-1, 1) * p(-1, 0, 1)).monic()
    assert snf.invariant_factors == (d1, (d1d2 // d1).monic())

    snf = smith_normal_form([[(0, 0, 0, 0, 0, 1)]])
    assert snf.invariant_factors == (ONE,)
    assert snf.rank == 1


def test_snf_zero_and_empty_shapes():
    snf = smith_normal_form([], ncols=3)
    assert snf.rank == 0 and snf.invariant_factors == ()
    snf = smith_normal_form([[(), ()]])
    assert snf.rank == 0


def test_snf_fitting_ideals_against_minor_oracle():
    # invariant factors are normalized over the Laurent ring, so the
    # minor-gcd oracle is compared with its t-power content stripped
    rng = random.Random(9)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        mat = [
            [ExactPoly([rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]) for _ in range(m)]
            for _ in range(n)
        ]
        snf = smith_normal_form(int_rows(mat))
        prod = ONE
        for size, d in enumerate(snf.invariant_factors, start=1):
            prod = (prod * d).monic()
            assert minors_gcd(mat, size).strip_t_power().monic() == prod
        assert minors_gcd(mat, snf.rank + 1).is_zero() or snf.rank == min(n, m)


def test_snf_permutation_invariance():
    rng = random.Random(13)
    base = [
        [t_power_minus_one(rng.randint(1, 6)) * rng.randint(-1, 1) for _ in range(4)]
        for _ in range(3)
    ]
    reference = smith_normal_form(int_rows(base)).invariant_factors
    for _ in range(10):
        rows = list(range(3))
        cols = list(range(4))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = [[base[i][j] for j in cols] for i in rows]
        assert smith_normal_form(int_rows(shuffled)).invariant_factors == reference


def assert_determinantal_divisors(mat, snf):
    """The k-th determinantal divisor (gcd of the k x k minors) equals the
    product of the first k invariant factors, up to units of Q[t^±1]; the
    rank is the largest size of a nonzero minor and the factors form a
    divisibility chain."""
    prod = ONE
    for size, d in enumerate(snf.invariant_factors, start=1):
        assert not d.is_zero() and d.leading() == 1 and d.constant() != 0
        prod = (prod * d).monic()
        assert minors_gcd(mat, size).strip_t_power().monic() == prod
    if snf.rank < min(len(mat), len(mat[0])):
        assert minors_gcd(mat, snf.rank + 1).is_zero()
    for lo, hi in zip(snf.invariant_factors, snf.invariant_factors[1:]):
        assert (hi % lo).is_zero()


def test_snf_determinantal_divisors_of_random_matrices():
    rng = random.Random(21)
    for trial in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)

        def coeff():
            c = rng.randint(-3, 3)
            return Fraction(c, rng.randint(1, 4)) if trial % 2 else c

        mat = [[ExactPoly([coeff() for _ in range(rng.randint(0, 4))]) for _ in range(m)] for _ in range(n)]
        assert_determinantal_divisors(mat, smith_normal_form(int_rows(mat)))
    # integer rows on which a column swap of phase 1 refills the pivot
    # column, so the elimination must pass over it again
    refill = [
        [(4, -4), (1, 0, 0, 0, 0, 0, -1), (0, -1, 2, -3), (), ()],
        [(), (1, 0, 0, -1), (1, 0, 0, 0, 0, 0, 0, 0, -1), (), ()],
        [(), (-4, -1, -4, 2, -4), (), (1, 0, -1), (0,)],
        [(0, -3, 2, -2, 4), (), (), (), (1, 0, 0, 0, 0, 0, 0, 0, -1)],
    ]
    snf = smith_normal_form(refill)
    assert_determinantal_divisors([[ExactPoly(e) for e in row] for row in refill], snf)
    assert snf.invariant_factors == (ONE, ONE, ONE, p(1, -1, -1, 1))


def test_snf_determinantal_divisors_of_twisted_boundaries():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        g = random_connected_graph(rng, 5)
        chi = random_nonresonant_character(rng, g, 12)
        f = build_flag_complex(g)
        for k in range(0, f.dim + 1):
            tb = twisted_boundary(f, chi, k)
            # the Laplace-expansion oracle is exponential in the minor size
            if not tb.nrows or not tb.ncols or min(tb.nrows, tb.ncols) > 5 or max(tb.nrows, tb.ncols) > 7:
                continue
            mat = tb.polynomial_matrix()
            assert_determinantal_divisors(mat, smith_normal_form(int_rows(mat)))
            checked += min(tb.nrows, tb.ncols) > 1


def test_snf_of_one_row_or_column_against_determinantal_divisors():
    # a matrix with at most one row or column has one invariant factor,
    # the gcd of its entries.  Unbounded, it is eliminated; under a rank
    # bound, as every boundary out of the vertices is taken, it closes at
    # t = 0 by the gcd folds of _close_rank_one.  The entries have zeros,
    # t-power content, negative leading coefficients and more than two
    # terms; padding the matrix with zeros to two rows and two columns
    # changes no invariant factor.
    rng = random.Random(37)
    shapes = {"row": 0, "column": 0, "t-power": 0, "negative": 0}
    for trial in range(300):
        n = rng.randint(1, 6)
        rows, cols = (1, n) if trial % 2 else (n, 1)
        shift = rng.choice((0, 0, 1, 3))
        sign = rng.choice((1, -1))
        common = random_int_poly(rng, 2) if trial % 3 == 0 else [1]
        ints = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                if rng.random() < 0.25:
                    row.append(())
                    continue
                body = gappy_int_poly(rng, 4) if rng.random() < 0.5 else random_int_poly(rng, 4)
                e = [0] * shift + [sign * x for x in _mul(body, common)]
                row.append(tuple(e) + (0,) * rng.randint(0, 1))
            ints.append(row)
        snf = smith_normal_form(ints)
        assert (snf.nrows, snf.ncols) == (rows, cols)
        assert smith_normal_form(ints, rank_bound=1) == snf == smith_normal_form(ints, rank_bound=n + 1)
        mat = [[ExactPoly(e) for e in row] for row in ints]
        assert_determinantal_divisors(mat, snf)
        nonzero = [e for row in mat for e in row if not e.is_zero()]
        assert snf.rank == (1 if nonzero else 0)
        if nonzero:
            # the fold of polys._gcd that gives the factor is primitive with
            # a positive leading coefficient, the normalization of the
            # elimination's diagonal
            g = []
            for e in nonzero:
                g = _gcd(int_coeffs(e), g)
            assert gcd(*g) == 1 and g[-1] > 0
            assert ExactPoly(g).strip_t_power().monic() == snf.invariant_factors[0]
        padded = [list(row) + [()] * (2 - cols) for row in ints] + [[()] * max(cols, 2)] * (2 - rows)
        assert smith_normal_form(padded).invariant_factors == snf.invariant_factors
        shapes["row" if rows == 1 else "column"] += 1
        shapes["t-power"] += bool(shift and nonzero)
        shapes["negative"] += bool(nonzero) and all(e.leading() < 0 for e in nonzero)
    assert min(shapes.values()) >= 30
    # a t-power and a sign are units of Q[t^±1]: the factor is monic with
    # nonzero constant term
    snf = smith_normal_form([[(0, 0, -2, -2), (0, 0, 0, -4, 0, 4)]])
    assert snf.invariant_factors == (p(1, 1),)
    snf = smith_normal_form([[(0, 3, 0, -3)], [()], [(0, 0, -6, 0, 6)]])
    assert snf.invariant_factors == (p(-1, 0, 1),) and snf.rank == 1
    # empty shapes have no invariant factor
    for rows, cols in ((0, 3), (3, 0), (0, 0), (1, 0), (0, 1)):
        snf = smith_normal_form([[()] * cols for _ in range(rows)], ncols=cols)
        assert (snf.invariant_factors, snf.rank, snf.nrows, snf.ncols) == ((), 0, rows, cols)
    snf = smith_normal_form([[(), (0,), (0, 0)]])
    assert (snf.invariant_factors, snf.rank) == ((), 0)


# -- local Smith forms of graded matrices over Q[s]/s^K ------------------------


def at_t_minus_1(series):
    """Integer coefficients in t of sum c_i s^i at s = t - 1, by Horner."""
    out = []
    for c in reversed(series):
        nxt = [0] * (len(out) + 1)
        for i, x in enumerate(out):
            nxt[i + 1] += x
            nxt[i] -= x
        nxt[0] += c
        out = nxt
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def smith_valuations(mat, ncols):
    """s-adic valuations of the invariant factors of smith_normal_form,
    as multiplicities of t - 1 after s = t - 1; one per unit of rank."""
    snf = smith_normal_form([[at_t_minus_1(e) for e in row] for row in mat], ncols=ncols)
    return sorted(factor_cyclotomic(q, [])[0].get(1, 0) for q in snf.invariant_factors)


def random_graded_matrix(rng):
    """Sparse columns of a random graded integer matrix with row and
    column weights 0-4, and its dense series view for smith_valuations:
    the int x at (r, c) stands for x * s^(col_weight[c] - row_weight[r]).
    Some columns combine earlier ones of no greater weight, so ranks drop
    and Smith forms go deep."""
    n, m = rng.randint(1, 5), rng.randint(1, 6)
    row_weight = [rng.randint(0, 4) for _ in range(n)]
    col_weight = []
    cols = []
    for _ in range(m):
        if cols and rng.random() < 0.35:
            parts = rng.sample(range(len(cols)), min(len(cols), rng.randint(1, 2)))
            weight = max(col_weight[p] for p in parts) + rng.randint(0, 1)
            col: dict[int, int] = {}
            for p in parts:
                coef = rng.choice((-2, -1, 1, 2))
                for r, x in cols[p].items():
                    col[r] = col.get(r, 0) + coef * x
            col = {r: x for r, x in col.items() if x}
        else:
            weight = rng.randint(0, 4)
            col = {
                r: rng.choice((-3, -2, -1, 1, 2, 3))
                for r in range(n)
                if row_weight[r] <= weight and rng.random() < 0.6
            }
        col_weight.append(weight)
        cols.append(col)
    dense = [
        [(0,) * (col_weight[c] - row_weight[r]) + (cols[c][r],) if r in cols[c] else () for c in range(m)]
        for r in range(n)
    ]
    return cols, col_weight, row_weight, dense


def test_local_smith_valuations_against_smith_form():
    rng = random.Random(31)
    deep = 0
    for _ in range(320):
        cols, col_weight, row_weight, dense = random_graded_matrix(rng)
        want = smith_valuations(dense, len(cols))
        K = max(want, default=0) + 1 + rng.randint(0, 2)
        assert sorted(local_smith_valuations(cols, col_weight, row_weight, K)) == want
        # a shorter cut keeps exactly the valuations below it
        K = rng.randint(1, max(want, default=0) + 1)
        assert sorted(local_smith_valuations(cols, col_weight, row_weight, K)) == [v for v in want if v < K]
        deep += max(want, default=0) >= 2
    assert deep >= 50


def test_local_smith_valuations_truncate_at_K():
    rng = random.Random(37)
    for _ in range(60):
        exps = [rng.randint(0, 5) for _ in range(rng.randint(1, 5))]
        K = rng.randint(1, 5)
        size = len(exps)
        row_weight = [rng.randint(0, 4) for _ in range(size)]
        order = list(range(size + 1))
        rng.shuffle(order)
        cols = [{} for _ in range(size + 1)]
        col_weight = [rng.randint(0, 4) for _ in range(size + 1)]
        for i, e in enumerate(exps):
            cols[order[i]] = {i: rng.choice((-2, -1, 1, 3))}
            col_weight[order[i]] = row_weight[i] + e
        below = sorted(e for e in exps if e < K)
        assert sorted(local_smith_valuations(cols, col_weight, row_weight, K)) == below
    # an exponent below K is found, one at K is invisible
    assert local_smith_valuations([{0: 5}, {1: 1}], [2, 3], [0, 0], 3) == [2]
    assert local_smith_valuations([{0: 7}], [4], [1], 3) == []
    assert local_smith_valuations([], [], [], 3) == []


# -- integer polynomial helpers ------------------------------------------------


def int_coeffs(poly):
    assert all(c.denominator == 1 for c in poly.coeffs)
    return [int(c) for c in poly.coeffs]


def random_int_poly(rng, max_degree):
    """Random integer coefficients, with a nonzero leading one in [-3, 3]."""
    cs = [rng.randint(-4, 4) for _ in range(rng.randint(0, max_degree))]
    return cs + [rng.choice([-3, -2, -1, 1, 2, 3])]


def gappy_int_poly(rng, max_degree):
    """Random integer coefficients, mostly zero, with a nonzero leading one."""
    cs = [rng.choice([0, 0, 0, -2, 1, 3]) for _ in range(rng.randint(0, max_degree))]
    return cs + [rng.choice([-2, -1, 1, 3])]


def test_pseudo_division_identity():
    rng = random.Random(27)
    pairs = []
    for _ in range(300):
        a = random_int_poly(rng, 7) if rng.random() < 0.9 else []
        pairs.append((a, random_int_poly(rng, 4)))
    # sparse divisors, as Smith pivots and cyclotomic trial division meet
    # them: t^n - 1, Phi_d and divisors with zero gaps
    sparse = [[-1] + [0] * (n - 1) + [1] for n in range(1, 9)]
    sparse += [list(_cyclotomic_coeffs(d)) for d in (2, 3, 5, 6, 8, 9, 12, 15, 20)]
    sparse += [gappy_int_poly(rng, 6) for _ in range(12)]
    for b in sparse:
        for _ in range(8):
            a = random_int_poly(rng, 12) if rng.random() < 0.5 else gappy_int_poly(rng, 14)
            pairs.append((a, b))
    for a, b in pairs:
        c, q, r = _pdivmod(a, b)
        assert type(c) is int and c > 0
        assert all(type(x) is int for x in q + r)
        assert len(r) < len(b) and (not r or r[-1] != 0)
        assert ExactPoly([c * x for x in a]) == ExactPoly(q) * ExactPoly(b) + ExactPoly(r)
        if abs(b[-1]) == 1:
            assert c == 1
        # the remainder is zero exactly when b divides a over Q[t]
        assert (not r) == (ExactPoly(a) % ExactPoly(b)).is_zero()
        # a product with a primitive factor divides back exactly
        prim = [x // gcd(*b) for x in b]
        assert _exquo(int_coeffs(ExactPoly(a) * ExactPoly(prim)), prim) == a


def test_fused_move_matches_mul():
    # c*y - q*x against _mul, with q and x sparse and c scaling
    rng = random.Random(31)
    for trial in range(240):
        c = (1, 3, -2)[trial % 3]
        y = [] if trial % 5 == 0 else random_int_poly(rng, 6)
        q = [] if trial % 11 == 0 else gappy_int_poly(rng, 5)
        x = [] if trial % 7 == 0 else gappy_int_poly(rng, 6)
        expected = ExactPoly(_mul([c], y)) - ExactPoly(_mul(q, x))
        got = _submul(c, y, _terms(q), x)
        assert got == int_coeffs(expected)
        if c == 1 and not (q and x):
            # the entry is left as it is
            assert got is y


def test_primitive_gcd_matches_poly_gcd():
    rng = random.Random(29)
    for trial in range(300):
        a, b = random_int_poly(rng, 6), random_int_poly(rng, 6)
        if trial % 3 == 0:
            # give the pair a common factor
            common = random_int_poly(rng, 3)
            a = int_coeffs(ExactPoly(a) * ExactPoly(common))
            b = int_coeffs(ExactPoly(b) * ExactPoly(common))
        g = _gcd(a, b)
        assert all(type(x) is int for x in g)
        assert gcd(*g) == 1 and g[-1] > 0
        assert ExactPoly(g).monic() == poly_gcd(ExactPoly(a), ExactPoly(b))
        # either argument may be zero
        assert _gcd(a, []) == _gcd([], a) == _gcd(a, a)


def test_snf_integer_rows_with_trailing_zeros_match_trimmed_rows():
    def trimmed(e):
        e = list(e)
        while e and not e[-1]:
            e.pop()
        return tuple(e)

    rng = random.Random(31)
    padded = 0
    for trial in range(80):
        n, m = rng.randint(0, 5), rng.randint(1, 5)
        ints = []
        for _ in range(n):
            row = []
            for _ in range(m):
                if rng.random() < 0.3:
                    row.append(())
                elif trial % 2:
                    # labels as the twisted boundaries carry them
                    e = rng.choice((1, -1))
                    row.append((-e,) + (0,) * (rng.randint(1, 8) - 1) + (e,))
                else:
                    # lists with trailing zeros are accepted too
                    row.append([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [0] * rng.randint(0, 1))
            ints.append(row)
        padded += sum(1 for row in ints for e in row if e and not e[-1])
        trims = [[trimmed(e) for e in row] for row in ints]
        assert smith_normal_form(ints, ncols=m) == smith_normal_form(trims, ncols=m)
    assert padded >= 40


def test_snf_rank_bound_closes_rank_one_blocks():
    # B = c * u * v^T has one invariant factor, c up to a unit; the
    # rank-1 closure reads it off one row and one column.  A diagonal
    # block in front of B is eliminated by the usual passes first.
    rng = random.Random(71)
    for trial in range(120):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        c = random_int_poly(rng, 2)
        u = [random_int_poly(rng, 2) if rng.random() < 0.8 else [] for _ in range(n)]
        v = [random_int_poly(rng, 2) if rng.random() < 0.8 else [] for _ in range(m)]
        u[0] = u[0] or [1]
        v[-1] = v[-1] or [0, 0, 1]
        front = rng.randint(0, 2)
        mat = [[[] for _ in range(front + m)] for _ in range(front + n)]
        for i in range(front):
            mat[i][i] = random_int_poly(rng, 3)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                mat[front + i][front + j] = _mul(c, _mul(ui, vj))
        want = smith_normal_form(mat)
        assert want.rank == front + 1
        assert smith_normal_form(mat, rank_bound=front + 1) == want
        assert smith_normal_form(mat, rank_bound=front + 1 + trial % 3) == want
        if not front:
            # B's one factor is c times the gcds of u and of v
            factor = ExactPoly(c)
            for line in (u, v):
                g = ZERO
                for e in line:
                    g = poly_gcd(g, ExactPoly(e)) if e else g
                factor = factor * g
            assert want.invariant_factors == (factor.strip_t_power().monic(),)


def test_snf_rank_bound_guards():
    # a rank-2 block planted behind one pivot: under a bound one too low
    # the closure's division leaves a remainder
    planted = [
        [(-1, 1), (), ()],
        [(), (1, 1), (2, 1)],
        [(), (3, 1), (4, 1)],
    ]
    assert smith_normal_form(planted, rank_bound=3) == smith_normal_form(planted)
    assert smith_normal_form(planted).rank == 3
    with pytest.raises(ConsistencyError):
        smith_normal_form(planted, rank_bound=2)
    # a nonzero matrix with bound 0, line or not; zero matrices pass
    for mat in ([[(), (0, 1)]], [[(), ()], [(), (2,)]]):
        with pytest.raises(ConsistencyError):
            smith_normal_form(mat, rank_bound=0)
    assert smith_normal_form([[(), (0,)], [(), ()]], rank_bound=0).rank == 0
    assert smith_normal_form([], ncols=2, rank_bound=0).rank == 0
