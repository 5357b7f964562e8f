"""Flag complex: clique enumeration against brute force, incidence signs,
boundary matrices, weights, and the filtration levels."""

import random
import sys
import threading
from itertools import combinations

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
from artinkernels import flagcomplex
from artinkernels.crosscheck import random_connected_graph
from artinkernels.flagcomplex import level_boundary_matrix, reduce_complex, simplex_weights
from artinkernels.formulas import anti_invariant_entry

from conftest import (
    brute_force_cliques,
    make_kite,
    make_square_frame,
    make_tree,
    make_triforce,
    oracle_rank,
    scan_star,
    tuple_cliques,
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

    # by position, under the weights in vertex order
    for cx, weight in ((f, w), (fk, wk)):
        key = tuple(weight[v] for v in cx.graph.vertices)
        for k in range(-1, cx.dim + 2):
            assert simplex_weights(cx, key, k) == [simplex_weight(s, weight) for s in cx.simplices(k)]


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
    level = filtration_level(f, w, 2, 3)
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
                x = filtration_level(f, w, k + 1, k + 2)
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


def test_reduce_complex_builds_and_reduces_no_empty_degree(monkeypatch):
    # a quotient by a closed star has no cells in degree -1, none in the
    # degrees above its own dimension, and no rows in degree 0: each such
    # degree is reported as {} with no matrix built or reduced, and every
    # other degree leads as its own reduction does, clearing or not
    rng = random.Random(41)
    log = []

    def logged(name, real):
        def call(*args, **kwargs):
            log.append((name, args[1]) if name == "build" else (name,))
            return real(*args, **kwargs)
        return call

    for name, attr in (("build", "boundary_matrix"), ("rank", "rank_rational"), ("reduce", "reduce_columns")):
        monkeypatch.setattr(flagcomplex, attr, logged(name, getattr(flagcomplex, attr)))
    skipped = 0
    for trial in range(40):
        g = random_connected_graph(rng, 8)
        f = build_flag_complex(g)
        key = [rng.randint(0, 1) for _ in range(g.n_vertices)]
        weight = {k: simplex_weights(f, key, k) for k in range(-1, f.dim + 3)}
        degrees = range(-1, f.dim + 3)
        for cells in (None, *(f.star(u).cells for u in range(g.n_vertices))):
            kept = cells or {k: range(f.count(k)) for k in range(-1, f.dim + 3)}
            empty = {m for m in degrees if not kept.get(m) or not kept.get(m - 1)}
            for weights in (None, weight):
                log.clear()
                leads = reduce_complex(f, degrees, weights=weights, cells=cells)
                assert list(leads) == list(reversed(degrees)), trial
                built = [step[1] for step in log if step[0] == "build"]
                assert log == [step for m in built for step in (("build", m), ("reduce" if weights else "rank",))]
                assert not empty & set(built), (trial, empty, built)
                for m in degrees:
                    if m in empty:
                        assert leads[m] == {}, (trial, m)
                        skipped += 1
                    else:
                        assert leads[m] == reduce_complex(f, range(m, m + 1), weights=weights, cells=cells)[m], (trial, m)
    assert skipped > 500


# -- clique codes against the tuple enumeration ------------------------------


def code_cases():
    """200 random graphs on 0 .. 9 vertices, edgeless to complete, so many
    disconnected, each with a max_dim of None, 0, 1 or 2, and the tuple
    oracle's cliques per dimension."""
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(0, 9)
        p = rng.choice((0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
        names = [f"x{i}" for i in range(n)]
        edges = [(names[a], names[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        g = SimplicialGraph(names, edges)
        max_dim = rng.choice((None, None, 0, 1, 2))
        yield g, build_flag_complex(g, max_dim), tuple_cliques(g, max_dim)


def test_clique_codes_match_the_tuple_enumeration():
    dims = set()
    for g, f, oracle in code_cases():
        assert f.dim == max(oracle) and list(f.codes) == list(oracle)
        for d in range(-1, f.dim + 2):
            cliques = oracle.get(d, [])
            assert f.codes.get(d, []) == [sum(1 << i for i in c) for c in cliques]
            assert f.count(d) == len(cliques)
            assert f.simplices(d) == tuple(Simplex(tuple(g.vertices[i] for i in c), c) for c in cliques)
            assert all(f.position(d, c) == p for p, c in enumerate(cliques))
        dims.add(f.dim)
    assert dims >= {-1, 0, 1, 2, 3}


def test_face_table_matches_the_tuple_enumeration():
    for g, f, oracle in code_cases():
        slot = {c: p for cliques in oracle.values() for p, c in enumerate(cliques)}
        for k in range(-1, f.dim + 2):
            assert f.faces(k) == tuple(
                tuple((slot[c[:i] + c[i + 1 :]], -1 if (k - i) % 2 else 1, g.vertices[v]) for i, v in enumerate(c))
                for c in oracle.get(k, [])
            ), k


def test_closed_stars_match_the_tuple_enumeration():
    # star(u).cells by adjacency tests on the index tuples, and its offsets
    # as the ranks of the boundary restricted to the star's own cells
    for g, f, oracle in code_cases():
        for u in range(g.n_vertices):
            near = {u} | {v for v in range(g.n_vertices) if g.adjacent(u, v)}
            outside = {d: [p for p, c in enumerate(oracle.get(d, [])) if not near.issuperset(c)] for d in range(-1, f.dim + 2)}
            assert f.star(u).cells == outside, u
            star = {d: [p for p in range(f.count(d)) if p not in outside.get(d, ())] for d in range(-2, f.dim + 2)}
            ranks = {m: rank_rational(boundary_matrix(f, m, cols=star[m], rows=star[m - 1], sparse=True), height=len(star[m - 1])) for m in range(0, f.dim + 2)}
            assert f.star(u).offsets == {-1: 0, **ranks}, u
            assert f.star(u) is f.star(u)


def apex_cases():
    """Complete graphs on 1 .. 7 vertices, and cones over 200 random graphs
    on 0 .. 7 vertices, edgeless to nearly complete, with 1 .. 3 apexes
    (next to every other vertex) at random places in the vertex order;
    each with a max_dim of None, 0, 1 or 2."""
    for n in range(1, 8):
        names = [f"x{i}" for i in range(n)]
        for max_dim in (None, 0, 1, 2):
            yield build_flag_complex(SimplicialGraph(names, list(combinations(names, 2))), max_dim)
    rng = random.Random(79)
    for _ in range(200):
        n, p = rng.randint(0, 7), rng.choice((0.0, 0.3, 0.6, 0.9))
        names = [f"x{i}" for i in range(n)]
        for a in range(rng.randint(1, 3)):
            names.insert(rng.randint(0, len(names)), f"c{a}")
        edges = [(a, b) for a, b in combinations(names, 2) if "c" in (a[0], b[0]) or rng.random() < p]
        yield build_flag_complex(SimplicialGraph(names, edges), rng.choice((None, None, 0, 1, 2)))


def test_apex_stars_match_a_scan_of_every_cell():
    # an apex's closed star is the whole complex, so star takes no scan
    # for it; every vertex, apex or not, and those missing one neighbour
    # among them, must match the scan of every cell, and the quotient is
    # empty exactly when the scan keeps no cell
    apexes = near = 0
    for f in apex_cases():
        g = f.graph
        for u in range(g.n_vertices):
            outside, ranks = scan_star(f, u)
            assert f.star(u).cells == outside and f.star(u).offsets == ranks, (g, u)
            assert f.star(u).empty == (not any(outside.values())), (g, u)
            missing = sum(v != u and not g.adjacent(u, v) for v in range(g.n_vertices))
            if not missing:
                apexes += 1
                assert not any(outside.values()), (g, u)
            near += missing == 1
    assert apexes > 600 and near > 100


def test_cones_and_class_weights_match_the_tuple_enumeration():
    # every 0/1 key: the cone's vertex is the weight-0 vertex through the
    # most simplices, the lowest index on ties, and each simplex weighs
    # the sum of its vertices' weights
    ties = 0
    for g, f, oracle in code_cases():
        n = g.n_vertices
        through = [sum(v in c for cliques in oracle.values() for c in cliques) for v in range(n)]
        every = range(-1, f.dim + 2)
        for bits in range(1 << n):
            key = tuple(bits >> i & 1 for i in range(n))
            zeros = [i for i in range(n) if not key[i]]
            if zeros:
                most = max(through[i] for i in zeros)
                u = min(i for i in zeros if through[i] == most)
                ties += sum(through[i] == most for i in zeros) > 1
                assert f.cone(key) is f.star(u) and f.cone(key).coned == 1 << u, key
            else:
                assert f.cone(key) == (0, {d: range(f.count(d)) for d in every}, dict.fromkeys(every, 0), False)
            for k in every:
                weights = [sum(key[i] for i in c) for c in oracle.get(k, [])]
                assert simplex_weights(f, key, k) == weights, (key, k)
                assert simplex_weights(f, list(key), k, range(1, f.count(k), 2)) == weights[1::2], (key, k)
    assert ties > 1000


def test_code_memos_across_threads_match_serial():
    # more threads than cores, short switch interval: threads race to fill
    # one complex's Simplex, closed-star and weight-mask memos, each from
    # another vertex on; every read must equal the serial one
    g = random_connected_graph(random.Random(71), 8)
    n = g.n_vertices
    keys = [tuple(int(i == u) for i in range(n)) for u in range(n)]

    def read(f, slot):
        order = [(slot + j) % n for j in range(n)]
        dims = range(-1, f.dim + 2)
        return (
            [f.simplices(k) for k in dims],
            [f.star(u).offsets for u in order],
            [simplex_weights(f, keys[u], k) for u in order for k in dims],
        )

    expected = [read(build_flag_complex(g), slot) for slot in range(4)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared, results = build_flag_complex(g), [None] * 4

            def work(slot):
                results[slot] = read(shared, slot)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == expected
    finally:
        sys.setswitchinterval(old_interval)
