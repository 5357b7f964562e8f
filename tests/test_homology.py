"""Direct pipeline: twisted boundaries, module decompositions against the
worked examples, free-rank and order-1 checks, invariants, and the local
Smith forms against the raw Smith forms over Q[t]."""

import dataclasses
import random
from collections import Counter
from math import gcd

import pytest

from artinkernels import (
    Character,
    ConsistencyError,
    InputError,
    SimplicialGraph,
    boundary_matrix,
    build_flag_complex,
    candidate_torsion_orders,
    formula_decomposition,
    free_rank_check,
    full_decomposition,
    max_exponent,
    rank_rational,
    simplex_weight,
    smith_normal_form,
    summand_counts,
    t_minus_1_part,
    top_jordan_count,
    torsion_profile,
    twisted_boundary,
    weighted_exponent_sum,
)
from artinkernels import homology
from artinkernels.crosscheck import (
    even_reduction_check,
    fuzz,
    monodromy_check,
    random_connected_graph,
    random_nonresonant_character,
)
from artinkernels.flagcomplex import reduce_complex, simplex_weights
from artinkernels.formulas import _weight_pairs, anti_invariant_entry, anti_invariant_homology
from artinkernels.graphs import derive_weight, even_reduction, torsion_candidates, weight_classes
from artinkernels.homology import _decomposition_from_smith, smith_decomposition
from artinkernels.linalg import SmithForm, local_smith_valuations
from artinkernels.report import compare_pipelines
from artinkernels.polys import ExactPoly, _integer_coeffs, _mul, t_power_minus_one

from conftest import (
    bars,
    full_weight_pairs,
    make_kite,
    make_square_frame,
    make_tree,
    make_tree_resonant,
    make_triforce,
    oracle_rank,
)


def entry(tb, r, c):
    e = tb.matrix[r][c]
    return e.poly.shift(e.shift) if not e.is_zero() else ExactPoly()


def test_twisted_boundary_single_vertex():
    g = SimplicialGraph(["a"], [])
    f = build_flag_complex(g)
    tb = twisted_boundary(f, Character({"a": 1}), 0)
    assert tb.nrows == 1 and tb.ncols == 1
    assert entry(tb, 0, 0) == t_power_minus_one(1)


def test_twisted_boundary_resonant_path():
    g, chi = make_tree_resonant()
    f = build_flag_complex(g)
    row = twisted_boundary(f, chi, 0, allow_degenerate=True)
    got = [entry(row, 0, c) for c in range(4)]
    assert got == [
        t_power_minus_one(1),
        ExactPoly(),
        t_power_minus_one(2),
        t_power_minus_one(2),
    ]
    d2 = twisted_boundary(f, chi, 1, allow_degenerate=True)
    # columns are the path edges; each boundary is incidence sign times t^n - 1
    p1, p2 = t_power_minus_one(1), t_power_minus_one(2)
    cols = [[entry(d2, r, c) for r in range(4)] for c in range(3)]
    assert cols[0] == [ExactPoly(), -p1, ExactPoly(), ExactPoly()]
    assert cols[1] == [ExactPoly(), p2, ExactPoly(), ExactPoly()]
    assert cols[2] == [ExactPoly(), ExactPoly(), p2, -p2]


def test_twisted_boundary_composes_to_zero():
    g, chi = make_kite()
    f = build_flag_complex(g)
    for k in range(0, f.dim + 1):
        low = twisted_boundary(f, chi, k)
        high = twisted_boundary(f, chi, k + 1)
        lowp = low.polynomial_matrix()
        highp = high.polynomial_matrix()
        for c in range(high.ncols):
            for r in range(low.nrows):
                acc = ExactPoly()
                for mid in range(low.ncols):
                    acc = acc + lowp[r][mid] * highp[mid][c]
                assert acc.is_zero()


def test_twisted_boundary_requires_admissible_character():
    g, chi = make_tree_resonant()
    f = build_flag_complex(g)
    with pytest.raises(InputError):
        twisted_boundary(f, chi, 0)
    with pytest.raises(InputError):
        full_decomposition(f, chi)


def test_tree_h1_decomposition(tree):
    g, chi = tree
    f = build_flag_complex(g)
    dec = full_decomposition(f, chi)[1]
    assert dec.free_rank == 0
    assert dec.torsion == {
        1: (3,), 2: (2,), 3: (2,), 4: (1,), 6: (0, 1), 9: (1,), 12: (1,), 18: (1,)
    }
    assert dec.remainder_factors == ()


def test_resonant_decomposition():
    g, chi = make_tree_resonant()
    f = build_flag_complex(g)
    full = full_decomposition(f, chi, allow_degenerate=True)
    assert full[0].torsion == {1: (1,)} and full[0].free_rank == 0
    assert full[1].free_rank == 1
    assert full[1].torsion == {1: (2,), 2: (1,)}


def test_square_frame_even_character():
    g, rho = make_square_frame()
    f = build_flag_complex(g)
    full = full_decomposition(f, rho)
    h1 = full[1]
    assert h1.free_rank == 0 and h1.torsion == {1: (6,)}
    h2 = full[2]
    assert h2.torsion == {1: (8,), 2: (0, 0, 1)}


def test_free_rank_check():
    g, _ = make_tree()
    f = build_flag_complex(g)
    assert free_rank_check(f, 0) == 0

    from conftest import make_triforce

    g, _ = make_triforce()
    f = build_flag_complex(g)
    d1 = boundary_matrix(f, 1)
    d2 = boundary_matrix(f, 2)
    assert f.count(1) == 9
    assert oracle_rank(d1) == 5 and oracle_rank(d2) == 4
    assert free_rank_check(f, 1) == 9 - 5 - 4 == 0

    two_points = SimplicialGraph(["a", "b"], [])
    assert free_rank_check(build_flag_complex(two_points), 0) == 1


def test_t_minus_1_part():
    g, _ = make_tree()
    assert t_minus_1_part(build_flag_complex(g), 0) == 3
    g, _ = make_kite()
    assert t_minus_1_part(build_flag_complex(g), 1) == 1
    g, _ = make_square_frame()
    assert t_minus_1_part(build_flag_complex(g), 1) == 8


def test_free_rank_matches_direct(tree, kite, square_frame):
    for g, chi in (tree, kite, square_frame):
        f = build_flag_complex(g)
        full = full_decomposition(f, chi)
        for m, dec in full.items():
            if m == 0:
                assert dec.free_rank == 0
            else:
                assert dec.free_rank == free_rank_check(f, m - 1)
            v1 = dec.exponent_vector(1)
            want = t_minus_1_part(f, m - 1) if m >= 1 else 1
            assert sum(v1) == (want if m >= 1 else 1)
            assert len(v1) <= 1


def test_euler_consistency(kite, square_frame):
    # alternating free ranks equal the alternating Laurent ranks of the
    # chain groups (chain group in degree m is free on the (m-1)-simplices)
    for g, chi in (kite, square_frame):
        f = build_flag_complex(g)
        full = full_decomposition(f, chi)
        lhs = sum((-1) ** m * dec.free_rank for m, dec in full.items())
        rhs = sum((-1) ** m * f.count(m - 1) for m in range(0, f.dim + 2))
        assert lhs == rhs


def test_relabeling_invariance(kite):
    g, chi = kite
    f = build_flag_complex(g)
    reference = {m: d.sort_key() for m, d in full_decomposition(f, chi).items()}
    rng = random.Random(3)
    order = list(g.vertices)
    for _ in range(4):
        rng.shuffle(order)
        g2 = g.reordered(order)
        f2 = build_flag_complex(g2)
        got = {m: d.sort_key() for m, d in full_decomposition(f2, chi).items()}
        assert got == reference


def test_sign_flip_of_labels_keeps_the_decomposition():
    # inverting a set of generators is an automorphism of the RAAG that
    # carries the kernel of chi onto the kernel of the flipped character,
    # so the two modules are isomorphic; mixed signs reach the t-shift
    # path of polynomial_matrix
    rng = random.Random(53)
    for _ in range(120):
        g = random_connected_graph(rng, 6)
        chi = random_nonresonant_character(rng, g, 12)
        flipped = Character({v: -n if rng.random() < 0.5 else n for v, n in chi.values.items()})
        f = build_flag_complex(g)
        ref = {m: d.sort_key() for m, d in full_decomposition(f, chi).items()}
        got = {m: d.sort_key() for m, d in full_decomposition(f, flipped, allow_degenerate=True).items()}
        assert got == ref


def test_negative_labels_against_positive_mirror():
    # flipping the sign of every label inverts t, which does not change
    # the decomposition; accepted only behind the override flag
    g = SimplicialGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    pos = Character({"a": 2, "b": 3, "c": 2})
    neg = Character({"a": -2, "b": -3, "c": -2})
    f = build_flag_complex(g)
    with pytest.raises(InputError):
        full_decomposition(f, neg)
    ref = {m: d.sort_key() for m, d in full_decomposition(f, pos).items()}
    got = {
        m: d.sort_key()
        for m, d in full_decomposition(f, neg, allow_degenerate=True).items()
    }
    assert got == ref


def test_integer_boundaries_match_laurent_boundaries():
    # smith_decomposition builds its boundaries on integer coefficients and
    # rescales cells to clear negative labels; the Laurent matrices of
    # twisted_boundary with their per-column t-lift are the reference
    rng = random.Random(61)
    labels = [n for n in range(-12, 13) if n] + [0] * 3
    for _ in range(200):
        g = random_connected_graph(rng, 6)
        chi = Character({v: rng.choice(labels) for v in g.vertices})
        f = build_flag_complex(g)
        orders = torsion_candidates(chi)
        snfs = {}
        for k in range(-1, f.dim + 2):
            tb = twisted_boundary(f, chi, k, allow_degenerate=True)
            rows = [_integer_coeffs([e.coeffs for e in row]) for row in tb.polynomial_matrix()]
            snfs[k] = smith_normal_form(rows, ncols=tb.ncols)
        want = {
            k + 1: _decomposition_from_smith(k, orders, snfs[k], snfs[k + 1]).sort_key()
            for k in range(-1, f.dim + 1)
        }
        got = {m: d.sort_key() for m, d in smith_decomposition(f, chi).items()}
        assert got == want


def integer_boundaries(f, chi):
    """smith_decomposition's integer twisted boundaries in every degree,
    as sparse columns and as dense rows."""
    values = chi.values

    def hook(sign, v):
        return homology._label_coeffs(values[v], sign)

    ks = range(-1, f.dim + 2)
    sparse = {k: boundary_matrix(f, k, entry=hook, sparse=True) for k in ks}
    dense = {k: boundary_matrix(f, k, entry=hook, zero=()) for k in ks}
    return sparse, dense


def assert_chain_complex(f, sparse):
    """D_{k-1} D_k = 0 on the integer boundaries, entry by entry."""
    for k in range(0, f.dim + 2):
        for col in sparse[k]:
            acc = {}
            for m, x in col.items():
                for r, y in sparse[k - 1][m].items():
                    z = _mul(list(x), list(y))
                    s = acc.setdefault(r, [0] * len(z))
                    s.extend([0] * (len(z) - len(s)))
                    for i, c in enumerate(z):
                        s[i] += c
            assert not any(any(s) for s in acc.values())


def assert_bounded_smith_forms_match(f, dense):
    """The Smith form under the rank bound count(k - 1) - rank D_{k-1}
    equals the unbounded one in every degree; returns how many of them
    the bound cut below the matrix's smaller side with the bound met,
    where the rank-1 closure does work the unbounded form would not."""
    cut = 0
    below = 0
    for k in range(-1, f.dim + 2):
        bound = f.count(k - 1) - below
        want = smith_normal_form(dense[k], ncols=f.count(k))
        assert smith_normal_form(dense[k], ncols=f.count(k), rank_bound=bound) == want
        assert want.rank <= bound
        cut += want.rank == bound < min(f.count(k - 1), f.count(k))
        below = want.rank
    return cut


def test_rank_bounded_smith_forms_match_unbounded():
    # the corpus style of test_integer_boundaries_match_laurent_boundaries:
    # labels -12..12 with 0 among them, so degenerate and resonant
    # characters whose boundaries hold zero entries are included
    rng = random.Random(67)
    labels = [n for n in range(-12, 13) if n] + [0] * 3
    cut = 0
    for _ in range(300):
        g = random_connected_graph(rng, 6)
        chi = Character({v: rng.choice(labels) for v in g.vertices})
        f = build_flag_complex(g)
        sparse, dense = integer_boundaries(f, chi)
        assert_chain_complex(f, sparse)
        cut += assert_bounded_smith_forms_match(f, dense)
    assert cut >= 200


def test_rank_bounded_smith_forms_of_the_swelling_k6():
    # trial 281 of `fuzz --seed 31`: K_6 with labels 6, 12, 4, 6, 7, 4,
    # whose 15 x 20 degree-2 boundary swells the most under elimination
    names = [f"v{i}" for i in range(6)]
    g = SimplicialGraph(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]])
    chi = Character(dict(zip(names, (6, 12, 4, 6, 7, 4))))
    f = build_flag_complex(g)
    sparse, dense = integer_boundaries(f, chi)
    assert_chain_complex(f, sparse)
    # the bound is met below the smaller side in degrees 1 to 4
    assert assert_bounded_smith_forms_match(f, dense) == 4


# -- local Smith forms against the raw Smith forms over Q[t] -------------------


def sort_keys(full):
    return {m: d.sort_key() for m, d in full.items()}


def random_inputs(seed, count, max_vertices, max_label):
    rng = random.Random(seed)
    for _ in range(count):
        g = random_connected_graph(rng, max_vertices)
        yield build_flag_complex(g), random_nonresonant_character(rng, g, max_label)


def test_local_decomposition_matches_smith_decomposition():
    # 200 default-tier inputs, then the set "labels60_seed60": 40 graphs on
    # at most 5 vertices with labels up to 60 drawn from seed 60, whose raw
    # Smith forms take under 1 s in total
    inputs = list(random_inputs(59, 200, 6, 12)) + list(random_inputs(60, 40, 5, 60))
    with_order_d = 0
    for f, chi in inputs:
        local = full_decomposition(f, chi)
        assert sort_keys(local) == sort_keys(smith_decomposition(f, chi))
        with_order_d += any(d >= 2 for dec in local.values() for d in dec.torsion)
    assert with_order_d >= 100


def test_local_valuations_are_the_weight_filtration_bars():
    # the graded weight-class boundary's Smith form is the barcode of the
    # weight filtration: its nonzero valuations are, as a multiset, the
    # positive weight - lead weight of the pairs of the full complex's
    # weight-ordered reduction, whose bars the formula pipeline keeps, and
    # its pivots number those pairs; a cross-check only, since neither
    # pipeline reads the other's elimination
    found = 0
    for f, chi in random_inputs(89, 150, 8, 12):
        for key, orders in weight_classes(f.graph, chi, torsion_candidates(chi)).items():
            w = derive_weight(chi, orders[0])
            every = full_weight_pairs(f, key)
            for m in range(1, f.dim + 1):
                vals = local_smith_valuations(
                    boundary_matrix(f, m, sparse=True), simplex_weights(f, key, m), simplex_weights(f, key, m - 1), m + 2
                )
                pairs = every[m]
                assert len(vals) == len(pairs), (key, m)
                lengths = sorted(weight - lead for weight, lead in pairs if weight > lead)
                assert sorted(v for v in vals if v) == lengths, (key, m)
                assert Counter(_weight_pairs(f, w, m)) == bars(pairs), (key, m)
                found += len(lengths)
    assert found >= 200


def test_max_degree_cuts_both_paths_alike(square_frame):
    g, chi = square_frame
    f = build_flag_complex(g)
    for top in (0, 1, 2):
        local = full_decomposition(f, chi, max_degree=top)
        assert sorted(local) == list(range(top + 1))
        assert sort_keys(local) == sort_keys(smith_decomposition(f, chi, max_degree=top))


def test_short_truncation_trips_the_pivot_guard(monkeypatch, square_frame):
    # the square frame has an order-2 summand of exponent 3 in degree 2,
    # one below the truncation s^4; cut one power shorter, it leaves one
    # pivot fewer than the rank at t = 2
    g, chi = square_frame
    f = build_flag_complex(g)
    assert full_decomposition(f, chi)[2].torsion[2] == (0, 0, 1)
    real = homology.local_smith_valuations
    monkeypatch.setattr(
        homology, "local_smith_valuations", lambda cols, col_weight, row_weight, K: real(cols, col_weight, row_weight, K - 1)
    )
    with pytest.raises(ConsistencyError, match="local pivots"):
        full_decomposition(f, chi)


def test_rank_drop_at_t_1_trips_the_order_1_guard(monkeypatch, kite):
    # D_j = (t - 1) U, and the order-1 part is (r_j,) only while U keeps
    # the rank r_j at t = 1, where its entries are sign * n_v; here the
    # degree-1 quotient at t = 1 (told apart by v0's label 2, which reads
    # 3 at t = 2) loses its rank 2, so U keeps only the star's rank 3 of
    # its 5 and an order-1 exponent would exceed 1; the rank complexes
    # take the cone of the all-zero key, the largest star
    g, chi = kite
    f = build_flag_complex(g)
    assert full_decomposition(f, chi)[1].torsion[1] == (5,)
    whole = f.cone((0,) * g.n_vertices)
    assert whole == f.star(whole.coned.bit_length() - 1) and whole.offsets[1] == 3
    real = homology.reduce_complex

    def rank_lost_at_t_1(f, degrees, entry=None, **kwargs):
        leads = real(f, degrees, entry=entry, **kwargs)
        if entry is not None and entry(1, "v0") == chi["v0"]:
            leads[1] = {}
        return leads

    monkeypatch.setattr(homology, "reduce_complex", rank_lost_at_t_1)
    with pytest.raises(ConsistencyError, match="degree-1 boundary .* rank 3 at t = 1 and 5 at t = 2"):
        full_decomposition(f, chi)


def test_an_empty_cone_calls_no_local_smith_form(monkeypatch, apex_over_5_cycle):
    # the apex, label 1, weighs 0 in all four classes and its closed star
    # is the whole complex: every quotient is empty, the torsion is the
    # order-1 part alone, and no class reaches the local kernel
    g, chi = apex_over_5_cycle
    f = build_flag_complex(g)
    classes = weight_classes(g, chi, torsion_candidates(chi))
    assert len(classes) == 4
    for key in [(0,) * g.n_vertices, *classes]:
        cone = f.cone(key)
        assert cone.coned == 1 << g.index("c") and cone.empty and not any(cone.cells.values()), key
    calls = []
    real = homology.local_smith_valuations
    monkeypatch.setattr(homology, "local_smith_valuations", lambda *args: calls.append(args) or real(*args))
    got = full_decomposition(f, chi)
    assert calls == []
    want = smith_decomposition(f, chi)
    assert list(got) == list(want)
    for j in want:
        assert got[j] == want[j], j
    assert got[2].torsion == {1: (5,)}


def test_a_tampered_star_rank_trips_the_pivot_count_guard_of_an_empty_quotient(monkeypatch, apex_over_5_cycle):
    # the empty quotient skips the kernel but not the count: its pivots
    # (none) must number the rank at t = 2 less the star's, so a class
    # star rank one short in degree 2 raises, as a dropped pivot would
    g, chi = apex_over_5_cycle
    f = build_flag_complex(g)
    real = f.cone

    def short_star(key):
        cone = real(key)
        return cone._replace(offsets={**cone.offsets, 2: cone.offsets[2] - 1}) if any(key) else cone

    monkeypatch.setattr(f, "cone", short_star)
    with pytest.raises(ConsistencyError, match="0 local pivots below s\\^4 for rank 1"):
        full_decomposition(f, chi)


def test_a_tampered_betti_number_trips_the_summand_count_guard_of_an_empty_quotient(apex_over_5_cycle):
    # the formula side's twin: an empty quotient has no anti-invariant
    # homology, so its summand counts are -b~_k less the one before, and
    # a degree-1 boundary rank one short, b~_0 = 1, must raise
    g, chi = apex_over_5_cycle
    f = build_flag_complex(g)
    orders = candidate_torsion_orders(chi)
    assert all(not any(f.cone(key).cells.values()) for key in weight_classes(g, chi, orders))
    homology.boundary_rank(f, 0)
    f.boundary_ranks = {**f.boundary_ranks, 1: f.boundary_ranks[1] - 1}
    assert free_rank_check(f, 0) == 1
    with pytest.raises(ConsistencyError, match="negative summand count -1 in degree 1"):
        formula_decomposition(f, chi, orders)


def apex_inputs(rng, count):
    """count random connected graphs on 2 .. 4 vertices, each coned by one
    or two apexes (next to every other vertex) at random places in the
    vertex order, with non-resonant labels up to 12, an apex's among 4, 6
    and 12: it weighs 1 in the classes of the orders that divide its
    label and 0 in the others."""
    for _ in range(count):
        base = random_connected_graph(rng, 4 if rng.random() < 0.5 else 3)
        names = list(base.vertices)
        apexes = [f"c{a}" for a in range(1 if base.n_vertices == 4 else rng.randint(1, 2))]
        for c in apexes:
            names.insert(rng.randint(0, len(names)), c)
        edges = list(base.edges) + [(c, v) for i, c in enumerate(apexes) for v in names if v not in apexes[: i + 1]]
        labels = [0]
        while gcd(*labels) != 1:
            labels = [rng.choice((4, 6, 12)) if v in apexes else rng.randint(1, 12) for v in names]
        yield SimplicialGraph(names, edges), Character(dict(zip(names, labels)))


def test_apex_classes_agree_with_the_public_readers_and_the_raw_smith_form():
    # both pipelines skip the classes whose cone is an apex, whose quotient
    # is empty, and read the others, among them those whose only apex
    # weighs 1 and whose cone is some other vertex; every order's answer
    # must match the per-order readers on a fresh complex, and the whole
    # decomposition the Smith forms over Q[t]
    empty = apex_one = apex_one_torsion = 0
    for g, chi in apex_inputs(random.Random(83), 300):
        orders = candidate_torsion_orders(chi)
        direct = full_decomposition(build_flag_complex(g), chi)
        formula = formula_decomposition(build_flag_complex(g), chi, orders)
        assert direct == smith_decomposition(build_flag_complex(g), chi) == formula, g
        fresh = build_flag_complex(g)
        apexes = [u for u in range(g.n_vertices) if all(g.adjacent(u, v) for v in range(g.n_vertices) if v != u)]
        for key, ds in weight_classes(g, chi, orders).items():
            if not any(fresh.cone(key).cells.values()):
                empty += 1
            elif all(key[u] for u in apexes):
                apex_one += 1
                apex_one_torsion += any(ds[0] in direct[j].torsion for j in direct)
            for d in ds:
                w, counts = derive_weight(chi, d), summand_counts(fresh, even_reduction(chi, d))
                for k in range(fresh.dim + 1):
                    vec = direct[k + 1].exponent_vector(d)
                    assert torsion_profile(fresh, chi, d, k, counts[k]).exponents == vec, (g, d, k)
                    assert counts[k] == sum(vec)
                    assert weighted_exponent_sum(fresh, w, k) == sum(j * r for j, r in enumerate(vec, start=1))
                    assert top_jordan_count(fresh, w, k) == (vec[k + 1] if len(vec) > k + 1 else 0)
                    assert max_exponent(fresh, w, k, counts[k]) == len(vec)
                    assert free_rank_check(fresh, k) == direct[k + 1].free_rank
    assert empty > 1000 and apex_one > 60 and apex_one_torsion > 50, (empty, apex_one, apex_one_torsion)


def star_cells(f, u, k):
    outside = set(f.star(u).cells.get(k, ()))
    return [p for p in range(f.count(k)) if p not in outside]


def test_coned_ranks_plus_star_ranks_are_the_full_ranks():
    # every label is nonzero, so the closed star of any vertex is a cone
    # under the untwisted boundary and both rank hooks: its rank, the
    # offsets of star(u), is an alternating count of its cells, and the
    # quotient's rank plus it is the full complex's, in every degree
    nonzero = 0
    for f, chi in random_inputs(101, 30, 7, 60):
        degrees = range(-1, f.dim + 2)
        for entry in (None, *homology.rank_entries(chi)):
            full = reduce_complex(f, degrees, entry=entry)
            for u in range(f.graph.n_vertices):
                star = f.star(u).offsets
                coned = reduce_complex(f, degrees, entry=entry, cells=f.star(u).cells)
                for k in degrees:
                    rows = star_cells(f, u, k - 1)
                    assert oracle_rank(boundary_matrix(f, k, cols=star_cells(f, u, k), rows=rows, entry=entry)) == star[k]
                    assert len(coned[k]) + star[k] == len(full[k]), (u, k)
                    nonzero += bool(coned[k]) and bool(star[k])
    assert nonzero > 500


def coned_valuations(f, key, m, u=None):
    """Local valuations of the degree-m graded boundary of the weight
    class key, on the quotient by St(u), or on the full complex for None."""
    kept = {k: range(f.count(k)) for k in (m - 1, m)} if u is None else f.star(u).cells
    cols = boundary_matrix(f, m, cols=kept[m], rows=kept[m - 1], sparse=True)
    return local_smith_valuations(cols, simplex_weights(f, key, m, kept[m]), simplex_weights(f, key, m - 1, kept[m - 1]), m + 2)


def test_coned_local_valuations_keep_every_positive_valuation():
    # the star of a weight-0 vertex is a cone by units over the local
    # ring, so the quotient keeps the torsion: its positive valuations are
    # the full matrix's, and its pivots number the full ones less the
    # star's rank
    positive = 0
    for f, chi in random_inputs(103, 80, 8, 12):
        for key in weight_classes(f.graph, chi, torsion_candidates(chi)):
            for m in range(0, f.dim + 2):
                full = coned_valuations(f, key, m)
                for u in (i for i, x in enumerate(key) if not x):
                    vals = coned_valuations(f, key, m, u)
                    assert sorted(v for v in vals if v) == sorted(v for v in full if v), (key, m, u)
                    assert len(vals) == len(full) - f.star(u).offsets[m], (key, m, u)
                    positive += sum(1 for v in vals if v)
    assert positive > 300


def test_coning_off_a_weight_1_vertex_changes_the_valuations(tree):
    # negative control: the order-2 class of the tree fixture weighs v3
    # 0 and v0, v1, v2 1; its degree-1 boundary has valuations 1, 1, kept
    # by St(v3) and changed by the star of each weight-1 vertex, whose
    # cone vertex carries s, not a unit
    g, chi = tree
    f = build_flag_complex(g)
    key = next(k for k, orders in weight_classes(g, chi, torsion_candidates(chi)).items() if 2 in orders)
    assert key == (1, 1, 1, 0)
    full = sorted(v for v in coned_valuations(f, key, 1) if v)
    assert full == [1, 1]
    assert sorted(v for v in coned_valuations(f, key, 1, 3) if v) == full
    for u in (0, 1, 2):
        assert sorted(v for v in coned_valuations(f, key, 1, u) if v) != full, u


def compose(low, high):
    """Columns of low * high, for sparse columns."""
    out = []
    for col in high:
        image: dict = {}
        for mid, x in col.items():
            for r, y in low[mid].items():
                image[r] = image.get(r, 0) + y * x
        out.append({r: x for r, x in image.items() if x})
    return out


def test_rank_entry_hooks_compose_to_zero():
    # clearing leans on d∘d = 0: D at t = 2 and U = D / (t - 1) at t = 1
    # are chain complexes
    rng = random.Random(79)
    nonzero = 0
    for _ in range(25):
        g = random_connected_graph(rng, 7)
        chi = random_nonresonant_character(rng, g, 60)
        f = build_flag_complex(g)
        for entry in homology.rank_entries(chi):
            for k in range(-1, f.dim + 2):
                high = boundary_matrix(f, k + 1, entry=entry, sparse=True)
                assert not any(compose(boundary_matrix(f, k, entry=entry, sparse=True), high))
                nonzero += any(high)
    assert nonzero > 50


def test_cleared_ranks_of_every_complex_match_the_oracle():
    # the five complexes ranked through reduce_complex: untwisted, weight
    # ordered, anti-invariant, and D at t = 2 (labels up to 120) and U at
    # t = 1; every degree against an independent elimination, and the
    # sites that read them
    rng = random.Random(83)
    for trial in range(24):
        g = random_connected_graph(rng, 8)
        chi = random_nonresonant_character(rng, g, 120 if trial % 2 else 12)
        f = build_flag_complex(g)
        d = rng.choice(torsion_candidates(chi))
        w = derive_weight(chi, d)
        weight = {k: [simplex_weight(s, w) for s in f.simplices(k)] for k in range(-2, f.dim + 3)}
        rho = even_reduction(chi, d)
        at_2, at_1 = homology.rank_entries(chi)
        degrees = range(-1, f.dim + 3)
        oracle = {}
        for name, entry, weights in (
            ("untwisted", None, None),
            ("weight ordered", None, weight),
            ("anti-invariant", anti_invariant_entry(rho), None),
            ("t = 2", at_2, None),
            ("t = 1", at_1, None),
        ):
            leads = reduce_complex(f, degrees, entry=entry, weights=weights)
            if weights is not None:
                ordered = leads
            for k in degrees:
                oracle[name, k] = oracle_rank(boundary_matrix(f, k, entry=entry))
                assert len(leads[k]) == oracle[name, k], (trial, name, k)
            if weights is None:
                # the rank-only branch (rank_rational's pivots) and the
                # weight-ordered one (reduce_columns' leads) agree when
                # every weight is 0
                zero = {k: [0] * len(ws) for k, ws in weight.items()}
                assert reduce_complex(f, degrees, entry=entry, weights=zero) == leads, (trial, name)
        for k in degrees:
            assert homology.boundary_rank(f, k) == oracle["untwisted", k]
        for m in range(1, f.dim + 2):
            pairs = [(wt, weight[m - 1][lead]) for lead, wt in ordered[m].items()]
            assert len(pairs) == oracle["untwisted", m]
            # the formula pipeline keeps the bars alone
            assert Counter(_weight_pairs(f, w, m)) == bars(pairs), (trial, m)
        assert anti_invariant_homology(f, rho) == tuple(
            f.count(m - 1) - oracle["anti-invariant", m - 1] - oracle["anti-invariant", m]
            for m in range(0, f.dim + 2)
        )
        for j, dec in full_decomposition(f, chi).items():
            assert dec.free_rank == f.count(j - 1) - oracle["t = 2", j - 1] - oracle["t = 2", j]
            assert oracle["t = 1", j] == oracle["t = 2", j]


def test_decomposition_factors_each_run_of_equal_invariant_factors_once(monkeypatch):
    # a divisibility chain with runs of equal factors, the last with
    # non-cyclotomic content t^2 + 2
    chain = [(1,), (-1, 1), (-1, 1), (-1, 0, 1), (-1, 0, 1), (-2, 0, 1, 0, 1), (-2, 0, 1, 0, 1)]
    factors = tuple(ExactPoly(c) for c in chain)
    upper = SmithForm(invariant_factors=factors, rank=len(factors), nrows=len(factors), ncols=9)
    lower = SmithForm(invariant_factors=(), rank=0, nrows=0, ncols=len(factors))
    orders = [2, 3]
    # the per-factor loop
    per_d, remainders = {}, []
    for q in factors:
        if not q.is_one():
            mults, rem = homology.factor_cyclotomic(q, orders)
            if not rem.is_one():
                remainders.append(rem)
            for d, mult in mults.items():
                vec = per_d.setdefault(d, [])
                vec.extend([0] * (mult - len(vec)))
                vec[mult - 1] += 1
    assert per_d == {1: [6], 2: [4]}
    real, calls = homology.factor_cyclotomic, []

    def counting(q, orders):
        calls.append(q)
        return real(q, orders)

    monkeypatch.setattr(homology, "factor_cyclotomic", counting)
    dec = _decomposition_from_smith(0, orders, lower, upper)
    assert dec.torsion == {d: tuple(vec) for d, vec in per_d.items()}
    assert dec.remainder_factors == tuple(remainders) == (ExactPoly([2, 0, 1]),) * 2
    assert dec.free_rank == 0
    assert calls == [factors[1], factors[3], factors[5]]


def test_raw_path_reports_non_cyclotomic_content(monkeypatch, kite):
    # no real non-resonant input has non-cyclotomic content, so t^2 + 2 is
    # planted in every factor: the raw path reports it instead of raising,
    # both thorough checks name it, and a thorough fuzz runs every trial
    g, chi = kite
    f = build_flag_complex(g)
    direct = full_decomposition(f, chi)
    real = homology.factor_cyclotomic
    monkeypatch.setattr(homology, "factor_cyclotomic", lambda q, orders: (real(q, orders)[0], ExactPoly([2, 0, 1])))
    raw = smith_decomposition(f, chi)
    for m, dec in direct.items():
        # one remainder per non-unit invariant factor, whose number is the
        # largest summand count of a divisibility chain
        factors = max((dec.summand_count(d) for d in dec.torsion), default=0)
        assert raw[m].remainder_factors == (ExactPoly([2, 0, 1]),) * factors
    assert raw[1].remainder_factors
    assert sort_keys(direct) == sort_keys(
        {m: dataclasses.replace(dec, remainder_factors=()) for m, dec in raw.items()}
    )
    assert even_reduction_check(f, chi, "", direct, raw)[0] == (
        "H_0: remainder factors differ from the raw Smith form's"
    )
    assert "H_1: non-cyclotomic invariant factor content" in monodromy_check(f, chi, "", raw, candidate_torsion_orders(chi))
    result = fuzz(5, 3, check_reduction=True, check_monodromy=True)
    assert result.trials == 5
    for trial in range(5):
        named = [m for m in result.mismatches if m.startswith(f"trial {trial} ")]
        assert any(m.endswith("remainder factors differ from the raw Smith form's") for m in named)
        assert any(m.endswith("non-cyclotomic invariant factor content") for m in named)


def raw_smith_forbidden(*args, **kwargs):
    raise AssertionError("raw Smith form taken for a non-resonant character")


def test_labels_up_to_120_trial_finishes_without_raw_smith_forms(monkeypatch):
    # trial 38 of `fuzz --seed 14 --max-label 120`: the raw Smith form of
    # its 11 x 8 degree-2 boundary swells past 30 minutes
    g = SimplicialGraph(
        ["v0", "v1", "v2", "v3", "v4", "v5"],
        [
            ("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v0", "v4"), ("v0", "v5"), ("v1", "v2"),
            ("v2", "v3"), ("v2", "v4"), ("v2", "v5"), ("v3", "v4"), ("v3", "v5"),
        ],
    )
    chi = Character({"v0": 40, "v1": 82, "v2": 65, "v3": 116, "v4": 35, "v5": 86})
    f = build_flag_complex(g)
    assert [f.count(k) for k in range(4)] == [6, 11, 8, 2]
    monkeypatch.setattr(homology, "smith_normal_form", raw_smith_forbidden)
    direct = full_decomposition(f, chi)
    orders = candidate_torsion_orders(chi)
    assert compare_pipelines(direct, formula_decomposition(f, chi, orders), orders) == []
    for maker in (make_tree, make_kite, make_triforce, make_square_frame):
        g, chi = maker()
        full_decomposition(build_flag_complex(g), chi)


def test_even_reduction_check_names_each_difference(kite):
    g, chi = kite
    f = build_flag_complex(g)
    raw = smith_decomposition(f, chi)
    assert even_reduction_check(f, chi, "", full_decomposition(f, chi), raw) == []
    h1 = raw[1]
    changes = {
        "free rank": dataclasses.replace(h1, free_rank=h1.free_rank + 1),
        "order-1": dataclasses.replace(h1, torsion={**h1.torsion, 1: (4,)}),
        "order-2": dataclasses.replace(h1, torsion={**h1.torsion, 2: (1, 1)}),
        "order-3": dataclasses.replace(h1, torsion={**h1.torsion, 3: (1,)}),
        "remainder": dataclasses.replace(h1, remainder_factors=(ExactPoly([1, 1, 1, 1]),)),
    }
    for what, changed in changes.items():
        issues = even_reduction_check(f, chi, "", {**raw, 1: changed}, raw)
        assert len(issues) == 1 and issues[0].startswith("H_1: " + what), issues


def test_compare_pipelines_names_each_difference(kite):
    # one line per difference: the free rank, the order-1 part, or one
    # order's exponent vector, never a line per statistic of that vector
    g, chi = kite
    f = build_flag_complex(g)
    orders = candidate_torsion_orders(chi)
    direct, formula = full_decomposition(f, chi), formula_decomposition(f, chi, orders)
    assert compare_pipelines(direct, formula, orders) == []
    h1 = direct[1]
    changes = {
        ": free rank": dataclasses.replace(h1, free_rank=h1.free_rank + 1),
        ": order-1 part": dataclasses.replace(h1, torsion={**h1.torsion, 1: (4,)}),
        " d=2: exponents": dataclasses.replace(h1, torsion={**h1.torsion, 2: (1, 1)}),
    }
    for what, changed in changes.items():
        issues = compare_pipelines({**direct, 1: changed}, formula, orders)
        assert len(issues) == 1 and issues[0].startswith("H_1" + what), issues
