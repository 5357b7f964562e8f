"""Exact linear algebra: ranks, integer kernels, span intersections and
incremental ranks against an independent elimination oracle, Smith forms
against minor-gcd oracles, transform identities, permutation invariance."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from artinkernels import build_flag_complex, boundary_matrix
from artinkernels.linalg import (
    IncrementalRank,
    intersect_spans,
    nullspace,
    poly_mat_mul,
    rank_rational,
    smith_normal_form,
    span_rank,
)
from artinkernels.crosscheck import random_connected_graph
from artinkernels.polys import ONE, ZERO, ExactPoly, poly_gcd, t_power_minus_one

from conftest import make_tree, make_triforce, oracle_rank


def p(*coeffs):
    return ExactPoly(coeffs)


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
    inc = IncrementalRank(3)
    assert inc.add([1, 0, 0])
    assert not inc.add([2, 0, 0])
    assert inc.add([1, 1, 0])
    assert inc.rank == 2


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
        inc = IncrementalRank(len(mat[0]))
        added = []
        for row in mat + [[0] * len(mat[0])]:
            before = inc.rank
            grew = inc.add(row)
            added.append(row)
            assert inc.rank == oracle_rank(added)
            assert grew == (inc.rank == before + 1)


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
    snf = smith_normal_form([[p(-1, 1), ZERO], [ZERO, p(-1, 0, 1)]])
    assert snf.invariant_factors == (p(-1, 1), p(-1, 0, 1))

    snf = smith_normal_form([[p(-1, 1), p(-1, 1)], [ZERO, p(-1, 0, 1)]])
    # oracle: d1 = gcd of entries, d1*d2 = gcd of 2x2 minors (determinant)
    mat = [[p(-1, 1), p(-1, 1)], [ZERO, p(-1, 0, 1)]]
    d1 = minors_gcd(mat, 1)
    d1d2 = minors_gcd(mat, 2)
    assert d1 == p(-1, 1)
    assert d1d2 == (p(-1, 1) * p(-1, 0, 1)).monic()
    assert snf.invariant_factors == (d1, (d1d2 // d1).monic())

    snf = smith_normal_form([[ExactPoly([0, 0, 0, 0, 0, 1])]])
    assert snf.invariant_factors == (ONE,)
    assert snf.rank == 1


def test_snf_zero_and_empty_shapes():
    snf = smith_normal_form([], ncols=3)
    assert snf.rank == 0 and snf.invariant_factors == ()
    snf = smith_normal_form([[ZERO, ZERO]])
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
        snf = smith_normal_form(mat)
        prod = ONE
        for size, d in enumerate(snf.invariant_factors, start=1):
            prod = (prod * d).monic()
            assert minors_gcd(mat, size).strip_t_power().monic() == prod
        assert minors_gcd(mat, snf.rank + 1).is_zero() or snf.rank == min(n, m)
        # with transforms the raw diagonal generates the Q[t] Fitting ideals
        raw = smith_normal_form(mat, transforms=True)
        prod = ONE
        for size, d in enumerate(raw.diagonal, start=1):
            prod = (prod * d).monic()
            assert minors_gcd(mat, size) == prod


def test_snf_permutation_invariance():
    rng = random.Random(13)
    base = [
        [t_power_minus_one(rng.randint(1, 6)) * rng.randint(-1, 1) for _ in range(4)]
        for _ in range(3)
    ]
    reference = smith_normal_form(base).invariant_factors
    for _ in range(10):
        rows = list(range(3))
        cols = list(range(4))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = [[base[i][j] for j in cols] for i in rows]
        assert smith_normal_form(shuffled).invariant_factors == reference


def test_snf_transform_identities():
    rng = random.Random(21)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = [
            [ExactPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]) for _ in range(m)]
            for _ in range(n)
        ]
        snf = smith_normal_form(mat, transforms=True)
        prod = poly_mat_mul(poly_mat_mul(snf.left, mat), snf.right)
        for i in range(n):
            for j in range(m):
                want = snf.diagonal[i] if i == j and i < snf.rank else ZERO
                assert prod[i][j] == want
        eye = poly_mat_mul(snf.right, snf.right_inv)
        for i in range(m):
            for j in range(m):
                assert eye[i][j] == (ONE if i == j else ZERO)
        for i in range(snf.rank - 1):
            assert (snf.diagonal[i + 1] % snf.diagonal[i]).is_zero()
            assert (snf.invariant_factors[i + 1] % snf.invariant_factors[i]).is_zero()
