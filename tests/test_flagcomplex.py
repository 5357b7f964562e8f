"""Flag complex: clique enumeration against brute force, incidence signs,
boundary matrices, weights, and the filtration levels."""

import random

from artinkernels import (
    Simplex,
    boundary_matrix,
    build_flag_complex,
    derive_weight,
    filtration_level,
    incidence,
    rank_rational,
    simplex_weight,
    total_weight,
)
from artinkernels import Character, WeightFunction, relative_betti, twisted_boundary
from artinkernels.flagcomplex import full_skeleton, level_boundary_matrix
from artinkernels.formulas import anti_invariant_entry

from conftest import (
    brute_force_cliques,
    make_kite,
    make_square_frame,
    make_tree,
    make_triforce,
    oracle_rank,
)
from artinkernels import SimplicialGraph


def counts(f):
    return {d: f.count(d) for d in range(-1, f.dim + 1)}


def test_tree_complex(tree_graphs=None):
    g, _ = make_tree()
    f = build_flag_complex(g)
    assert counts(f) == {-1: 1, 0: 4, 1: 3}


def test_kite_complex():
    g, _ = make_kite()
    f = build_flag_complex(g)
    assert counts(f) == {-1: 1, 0: 6, 1: 6, 2: 1}
    assert f.simplices(2)[0].vertices == ("v0", "v1", "v2")


def test_square_frame_complex_against_brute_force():
    g, _ = make_square_frame()
    f = build_flag_complex(g)
    oracle = brute_force_cliques(g)
    assert f.count(0) == 7 and f.count(1) == 14 and f.count(2) == 8 and f.count(3) == 0
    for size, cliques in oracle.items():
        got = {s.indices for s in f.simplices(size - 1)}
        assert got == set(cliques)


def test_random_complex_against_brute_force():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(1, 6)
        names = [f"x{i}" for i in range(n)]
        edges = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = SimplicialGraph(names, edges)
        f = build_flag_complex(g)
        oracle = brute_force_cliques(g)
        for size in range(1, n + 1):
            got = {s.indices for s in f.simplices(size - 1)}
            assert got == set(oracle.get(size, []))


def test_max_dim_pruning():
    g, _ = make_square_frame()
    f = build_flag_complex(g, max_dim=1)
    assert f.dim == 1
    assert f.count(2) == 0 and f.count(1) == 14


def test_incidence_examples():
    ab = Simplex(("a", "b"), (0, 1))
    a = Simplex(("a",), (0,))
    b = Simplex(("b",), (1,))
    assert incidence(ab, a) == 1
    assert incidence(ab, b) == -1
    assert incidence(ab, ab) == 0
    abc = Simplex(("a", "b", "c"), (0, 1, 2))
    ac = Simplex(("a", "c"), (0, 2))
    assert incidence(abc, ac) == -1
    empty = Simplex((), ())
    assert incidence(a, empty) == 1
    unrelated = Simplex(("c",), (2,))
    assert incidence(ab, unrelated) == 0


def test_boundary_matrix_shapes_and_augmentation():
    g, _ = make_tree()
    f = build_flag_complex(g)
    aug = boundary_matrix(f, 0)
    assert aug == [[1, 1, 1, 1]]
    d1 = boundary_matrix(f, 1)
    assert len(d1) == 4 and len(d1[0]) == 3
    assert rank_rational(d1) == 3 == oracle_rank(d1)
    beyond = boundary_matrix(f, 3)
    assert beyond == []


def test_boundary_squares_to_zero():
    for maker in (make_kite, make_triforce, make_square_frame):
        g, _ = maker()
        f = build_flag_complex(g)
        for k in range(0, f.dim + 1):
            low = boundary_matrix(f, k)
            high = boundary_matrix(f, k + 1)
            if not low or not high or not high[0]:
                continue
            for col in range(len(high[0])):
                for row in range(len(low)):
                    total = sum(
                        low[row][mid] * high[mid][col] for mid in range(len(high))
                    )
                    assert total == 0


def test_simplex_weights():
    g, chi = make_square_frame()
    f = build_flag_complex(g)
    w = derive_weight(chi, 2)
    inner = next(s for s in f.simplices(2) if s.vertices == ("v4", "v5", "v6"))
    assert simplex_weight(inner, w) == 3
    assert simplex_weight(f.simplices(-1)[0], w) == 0

    gk, chik = make_kite()
    fk = build_flag_complex(gk)
    wk = derive_weight(chik, 2)
    spoke = next(s for s in fk.simplices(1) if s.vertices == ("v0", "v3"))
    assert simplex_weight(spoke, wk) == 1


def test_total_weight():
    gk, chik = make_kite()
    fk = build_flag_complex(gk)
    assert total_weight(fk, derive_weight(chik, 2), 0) == 3
    g, chi = make_tree()
    f = build_flag_complex(g)
    assert total_weight(f, derive_weight(chi, 6), 0) == 2
    assert total_weight(f, derive_weight(chi, 1000), 0) == 0


def test_filtration_levels_square_frame():
    g, chi = make_square_frame()
    f = build_flag_complex(g)
    w = derive_weight(chi, 2)
    level10 = filtration_level(f, w, 1, 0)
    assert level10.count(0) == 7
    kept = {s.vertices for s in level10.simplices(1)}
    assert kept == {("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v0", "v3")}

    level21 = filtration_level(f, w, 2, 1)
    assert level21.count(1) == 14
    tri = {s.vertices for s in level21.simplices(2)}
    assert tri == {
        ("v0", "v1", "v4"),
        ("v1", "v2", "v6"),
        ("v2", "v3", "v5"),
        ("v0", "v3", "v4"),
    }
    full = filtration_level(f, w, 2, 3)
    assert full.count(2) == 8


def test_filtration_full_at_weight_bound():
    g, chi = make_kite()
    f = build_flag_complex(g)
    w = derive_weight(chi, 2)
    for m in range(0, f.dim + 1):
        level = filtration_level(f, w, m, m + 1)
        assert level.count(m) == f.count(m)


def test_filtration_face_closure():
    g, chi = make_square_frame()
    f = build_flag_complex(g)
    w = derive_weight(chi, 2)
    for m in range(0, f.dim + 1):
        for j in range(0, m + 2):
            level = filtration_level(f, w, m, j)
            for dim in range(0, m + 1):
                present = {s.indices for s in level.simplices(dim - 1)}
                for s in level.simplices(dim):
                    for drop in range(len(s.indices)):
                        assert s.facet(drop) in present


def test_euler_characteristic_consistency():
    # alternating simplex counts match alternating reduced Betti numbers
    for maker in (make_tree, make_kite, make_triforce, make_square_frame):
        g, _ = maker()
        f = build_flag_complex(g)
        chi_counts = sum((-1) ** d * f.count(d) for d in range(-1, f.dim + 1))
        betti_sum = 0
        for d in range(-1, f.dim + 1):
            cells = f.count(d)
            low = rank_rational(boundary_matrix(f, d)) if d >= 0 else 0
            high = rank_rational(boundary_matrix(f, d + 1))
            betti_sum += (-1) ** d * (cells - low - high)
        assert chi_counts == betti_sum


def test_level_boundary_matrix_matches_full():
    g, chi = make_square_frame()
    f = build_flag_complex(g)
    w = derive_weight(chi, 2)
    level = full_skeleton(f, w, 2)
    assert level_boundary_matrix(level, 2) == boundary_matrix(f, 2)


# -- every builder against dense matrices from incidence ---------------------


def dense_view(columns, nrows):
    """Rows of the matrix with these sparse columns."""
    return [[col.get(r, 0) for col in columns] for r in range(nrows)]


def oracle_boundary(cols, rows, coeff=lambda sign, v: sign):
    """Dense boundary from incidence alone: coeff(sign, dropped vertex)
    where tau is a facet of sigma, 0 elsewhere."""
    mat = [[0] * len(cols) for _ in rows]
    for c, sigma in enumerate(cols):
        for r, tau in enumerate(rows):
            sign = incidence(sigma, tau)
            if sign:
                (v,) = set(sigma.vertices) - set(tau.vertices)
                mat[r][c] = coeff(sign, v)
    return mat


def oracle_level(f, w, m, j, dim):
    if dim < m:
        return f.simplices(dim)
    if dim == m:
        return tuple(s for s in f.simplices(m) if sum(w[v] for v in s.vertices) <= j)
    return ()


def oracle_relative_betti(f, w, i, k, j):
    """Betti number of (full (k+1)-skeleton, level (k, j)) from the
    quotient complex, with ranks from the fraction oracle."""

    def cells(dim):
        inside = set(oracle_level(f, w, k, j, dim))
        return [s for s in oracle_level(f, w, k + 1, k + 2, dim) if s not in inside]

    if not cells(i):
        return 0
    lower = oracle_rank(oracle_boundary(cells(i), cells(i - 1)))
    upper = oracle_rank(oracle_boundary(cells(i + 1), cells(i)))
    return len(cells(i)) - lower - upper


def laurent_terms(entry):
    return {e + entry.shift: c for e, c in enumerate(entry.poly.coeffs) if c}


def test_boundary_builders_against_incidence_oracle():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 6)
        names = [f"x{i}" for i in range(n)]
        edges = [
            (names[a], names[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.6
        ]
        g = SimplicialGraph(names, edges)
        f = build_flag_complex(g)
        labels = {v: rng.choice([-1, 1]) * rng.randint(1, 12) for v in names}
        w = WeightFunction({v: rng.randint(0, 1) for v in names}, 2)
        rho = Character({v: rng.choice([1, 2]) for v in names})
        chi = Character(labels)
        anti = anti_invariant_entry(rho)
        for k in range(-1, f.dim + 3):
            full = oracle_boundary(f.simplices(k), f.simplices(k - 1))
            assert boundary_matrix(f, k) == full
            assert dense_view(boundary_matrix(f, k, sparse=True), f.count(k - 1)) == full

            for m in range(0, f.dim + 2):
                for j in range(0, m + 2):
                    level = filtration_level(f, w, m, j)
                    want = oracle_boundary(oracle_level(f, w, m, j, k), f.simplices(k - 1))
                    assert level_boundary_matrix(level, k) == want

            if 0 <= k <= f.dim:
                x = full_skeleton(f, w, k + 1)
                for j in range(0, k + 2):
                    pair = (x, filtration_level(f, w, k, j))
                    for i in range(0, k + 3):
                        assert relative_betti(f, w, i, pair) == oracle_relative_betti(f, w, i, k, j)

            tb = twisted_boundary(f, chi, k, allow_degenerate=True)
            terms = [[laurent_terms(e) or 0 for e in row] for row in tb.matrix]
            assert terms == oracle_boundary(
                f.simplices(k),
                f.simplices(k - 1),
                lambda sign, v: {labels[v]: sign, 0: -sign},
            )

            assert boundary_matrix(f, k, entry=anti) == oracle_boundary(
                f.simplices(k),
                f.simplices(k - 1),
                lambda sign, v: -2 * sign if rho[v] == 1 else 0,
            )
