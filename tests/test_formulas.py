"""Formula pipeline: filtration Betti numbers, relative pairs, weighted
exponent sums, anti-invariant homology (with an explicit double-cover
oracle), Jordan block counts, the degree-1 closed form, and the exponent
solver."""

import gc
import itertools
import random
import sys
import threading
from collections import Counter, defaultdict

import pytest

from artinkernels import (
    Character,
    ConsistencyError,
    InputError,
    SimplicialGraph,
    TorsionProfile,
    WeightFunction,
    anti_invariant_homology,
    boundary_matrix,
    build_flag_complex,
    c_rank,
    candidate_torsion_orders,
    derive_weight,
    even_reduction,
    filtration_betti,
    formula_decomposition,
    filtration_level,
    free_rank_check,
    full_decomposition,
    h1_even_summary,
    max_exponent,
    relative_betti,
    solve_exponents,
    summand_counts,
    top_jordan_count,
    torsion_profile,
    weighted_exponent_sum,
)
from artinkernels import formulas
from artinkernels.crosscheck import (
    cross_validate_once,
    fuzz,
    random_connected_graph,
    random_nonresonant_character,
)
from artinkernels.flagcomplex import Quotient, reduce_complex
from artinkernels.formulas import _weight_pairs, anti_invariant_entry
from artinkernels.linalg import reduce_columns
from artinkernels.graphs import torsion_candidates, weight_classes
from artinkernels.homology import ModuleDecomposition
from artinkernels.report import JobSpec, canonical_input_json, run

from conftest import (
    bars,
    count_admission_calls,
    full_weight_pairs,
    kernel_map_rank,
    make_kite,
    make_square_frame,
    make_tree,
    make_triforce,
    oracle_rank,
)


def report_profiles(g, chi):
    """The formula profiles of a formulas-only report, degree -> order -> profile."""
    report, code = run(JobSpec(data=canonical_input_json(g, chi), method="formulas"))
    assert code == 0
    return report.profiles


def w2(pair):
    g, chi = pair
    return build_flag_complex(g), derive_weight(chi, 2), chi


def summands_of(f, chi, d, k):
    """Summand count of the order-d part in degree k+1: 0 when no label
    is divisible by d, else from the double cover of the even reduction."""
    if all(n % d for n in chi.values.values()):
        return 0
    return summand_counts(f, even_reduction(chi, d))[k]


# -- filtration and relative Betti numbers ----------------------------------


def test_filtration_betti_square_frame():
    f, w, _ = w2(make_square_frame())
    assert [filtration_betti(f, w, 1, 2, j) for j in (0, 1, 2)] == [8, 4, 1]
    assert filtration_betti(f, w, 1, 1, 0) == 1
    assert filtration_betti(f, w, 0, 1, 0) == 3
    assert filtration_betti(f, w, 1, 1, 1) == 5


def test_filtration_betti_full_skeleton_matches_complex():
    f, w, _ = w2(make_triforce())
    for i in range(0, f.dim + 1):
        assert filtration_betti(f, w, i, f.dim, f.dim + 1) == free_rank_check(f, i)


def test_relative_betti_trivial_pair():
    f, w, _ = w2(make_kite())
    top = filtration_level(f, w, 1, 2)
    assert relative_betti(f, w, 1, (top, top)) == 0


def test_relative_betti_kite_against_les_oracle():
    # pair of the 1-skeleton against the weight-0 vertices: the long exact
    # sequence gives dim = h1(X) + h0~(A) - rank(H0~(A) -> H0~(X))
    f, w, _ = w2(make_kite())
    x = filtration_level(f, w, 1, 2)
    a = filtration_level(f, w, 0, 0)
    got = relative_betti(f, w, 1, (x, a))
    h1_x = filtration_betti(f, w, 1, 1, 2)
    h0_a = a.count(0) - 1
    # X is connected, so the reduced map has rank h0_a minus (components of
    # X hit by A merging) ... here X connected makes the rank 0
    oracle = h1_x + h0_a - 0 if True else None
    assert got == oracle == 1 + 2


def test_relative_betti_triforce_rank_oracle():
    # quotient complex rank oracle, computed by hand from plain matrices
    f, w, _ = w2(make_triforce())
    x = filtration_level(f, w, 1, 2)
    a = filtration_level(f, w, 0, 0)
    keep_rows = [i for i, s in enumerate(f.simplices(0)) if s.vertices not in {("v0",), ("v1",), ("v2",)}]
    d1 = boundary_matrix(f, 1)
    quotient = [[d1[i][j] for j in range(9)] for i in keep_rows]
    oracle = 9 - oracle_rank(quotient)
    assert relative_betti(f, w, 1, (x, a)) == oracle


# -- weighted exponent sums ---------------------------------------------------


def test_weighted_exponent_sum_tree_order_6():
    g, chi = make_tree()
    f = build_flag_complex(g)
    assert weighted_exponent_sum(f, derive_weight(chi, 6), 0) == 2


def test_weighted_exponent_sum_square_frame():
    f, w, _ = w2(make_square_frame())
    assert weighted_exponent_sum(f, w, 1) == 3


def test_weighted_exponent_sum_kite():
    f, w, _ = w2(make_kite())
    assert weighted_exponent_sum(f, w, 1) == 1
    assert weighted_exponent_sum(f, w, 0) == 4


# -- anti-invariant homology --------------------------------------------------


def double_cover_dims(f, rho):
    """Oracle: homology of the double cover's chain complex over Q, built
    with two cells per simplex and the deck generator as a 2x2 block."""
    blocks = {1: [[-1, 1], [1, -1]], 2: [[0, 0], [0, 0]]}
    dims = []
    mats = {}
    for m in range(0, f.dim + 3):
        rows = 2 * f.count(m - 2)
        cols = f.simplices(m - 1)
        mat = [[0] * (2 * len(cols)) for _ in range(rows)]
        for c, sigma in enumerate(cols):
            for drop, v in enumerate(sigma.vertices):
                r = f.position(m - 2, sigma.facet(drop))
                sign = -1 if (len(sigma.indices) - 1 - drop) % 2 else 1
                # t^{rho(v)} - 1 with t the deck swap
                block = blocks[rho[v]]
                for bi in range(2):
                    for bj in range(2):
                        mat[2 * r + bi][2 * c + bj] += sign * block[bi][bj]
        mats[m] = mat
    for m in range(0, f.dim + 2):
        cells = 2 * f.count(m - 1)
        low = oracle_rank(mats[m]) if mats[m] else 0
        high = oracle_rank(mats[m + 1]) if mats[m + 1] else 0
        dims.append(cells - low - high)
    return dims


def test_anti_invariant_square_frame():
    g, rho = make_square_frame()
    f = build_flag_complex(g)
    assert anti_invariant_homology(f, rho) == (0, 0, 1, 1)


def test_anti_invariant_kite():
    g, rho = make_kite()
    f = build_flag_complex(g)
    dims = anti_invariant_homology(f, rho)
    assert dims[1] == 2


def test_anti_invariant_constant_character_shifts_betti():
    g, _ = make_triforce()
    f = build_flag_complex(g)
    rho = Character({v: 1 for v in g.vertices})
    dims = anti_invariant_homology(f, rho)
    for m in range(0, f.dim + 2):
        assert dims[m] == free_rank_check(f, m - 1)


def test_anti_invariant_rejects_non_even():
    g, chi = make_tree()
    f = build_flag_complex(g)
    with pytest.raises(InputError):
        anti_invariant_homology(f, chi)


def test_anti_invariant_complex_composes_to_zero():
    g, rho = make_square_frame()
    f = build_flag_complex(g)
    entry = anti_invariant_entry(rho)
    composed = 0
    for m in range(1, f.dim + 2):
        low = boundary_matrix(f, m - 1, entry=entry, sparse=True)
        high = boundary_matrix(f, m, entry=entry, sparse=True)
        for col in high:
            image: dict = {}
            for k, x in col.items():
                for r, y in low[k].items():
                    image[r] = image.get(r, 0) + y * x
            assert not any(image.values())
            composed += bool(col)
    assert composed


def test_double_cover_identity_on_fixtures_and_random():
    # anti-invariant dims equal double-cover homology minus the invariant
    # part, whose dimension is the simplex count one degree down
    cases = [make_kite(), make_square_frame()]
    rng = random.Random(17)
    while len(cases) < 8:
        g = random_connected_graph(rng, 5)
        chi = random_nonresonant_character(rng, g, 6)
        for d in candidate_torsion_orders(chi)[:1]:
            cases.append((g, even_reduction(chi, d)))
            break
    for g, rho in cases:
        if set(rho.values.values()) != {1, 2}:
            continue
        f = build_flag_complex(g)
        dims = anti_invariant_homology(f, rho)
        cover = double_cover_dims(f, rho)
        for m in range(0, f.dim + 2):
            assert dims[m] == cover[m] - f.count(m - 1), (m, dims, cover)


# -- summand counts -----------------------------------------------------------


def test_summand_count_kite():
    g, rho = make_kite()
    f = build_flag_complex(g)
    assert summand_counts(f, rho) == [2, 1, 0]


def test_summand_count_square_frame():
    g, rho = make_square_frame()
    f = build_flag_complex(g)
    assert summand_counts(f, rho) == [0, 1, 0]


def test_summand_count_rejects_constant():
    g, _ = make_kite()
    f = build_flag_complex(g)
    with pytest.raises(InputError):
        summand_counts(f, Character({v: 1 for v in g.vertices}))


# -- Jordan block ranks -------------------------------------------------------


def test_top_jordan_count_examples():
    f, w, _ = w2(make_kite())
    assert top_jordan_count(f, w, 0) == 2
    f, w, _ = w2(make_square_frame())
    assert top_jordan_count(f, w, 1) == 1
    f, w, _ = w2(make_triforce())
    assert top_jordan_count(f, w, 0) == 0


def test_c_rank_examples():
    f, w, _ = w2(make_kite())
    assert c_rank(f, w, 0, 2, 0) == 2 == top_jordan_count(f, w, 0)
    f, w, _ = w2(make_triforce())
    assert c_rank(f, w, 0, 2, 0) == 0
    with pytest.raises(InputError):
        c_rank(f, w, 0, 1, 1)


def test_max_exponent_examples():
    f, w, chi = w2(make_square_frame())
    assert max_exponent(f, w, 1) == 3
    f, w, chi = w2(make_triforce())
    assert max_exponent(f, w, 1) == 2
    g, chi = make_tree()
    f = build_flag_complex(g)
    assert max_exponent(f, derive_weight(chi, 2), 0) == 1
    assert max_exponent(f, derive_weight(chi, 6), 0) == 2


def test_max_exponent_reads_the_bars_alone():
    # the kite's order-2 class has two bars of length 2 in degree 1, so
    # its largest exponent is 2
    f, w, chi = w2(make_kite())
    assert _weight_pairs(f, w, 1) == ((2, 0), (2, 0)) and summands_of(f, chi, 2, 0) == 2
    assert max_exponent(f, w, 0) == 2


def per_level_weighted_sum(f, w, k):
    """The weighted exponent sum as its per-level formula: filtration
    Betti numbers of the (k+1)-skeleton and relative pairs against the
    filtered k-skeleton, with full-skeleton corrections."""
    top = filtration_level(f, w, k + 1, k + 2)
    total = sum(filtration_betti(f, w, k, k + 1, j) for j in range(k + 2))
    total -= (k + 2) * free_rank_check(f, k)
    total += sum(relative_betti(f, w, k + 1, (top, filtration_level(f, w, k, j))) for j in range(k + 1))
    total -= (k + 1) * relative_betti(f, w, k + 1, (top, filtration_level(f, w, k, k + 1)))
    return total


def test_weight_pair_readers_match_level_oracles():
    # random 0/1 weights as well as weights derived from characters; every
    # degree and every source/target level of the located-cycle ranks
    rng = random.Random(67)
    checked = 0
    for trial in range(160):
        g = random_connected_graph(rng, 8)
        if trial % 2:
            w = WeightFunction({v: rng.randint(0, 1) for v in g.vertices}, 2)
        else:
            chi = random_nonresonant_character(rng, g, 12)
            w = derive_weight(chi, rng.choice(candidate_torsion_orders(chi)))
        f = build_flag_complex(g)
        for k in range(0, f.dim + 1):
            assert weighted_exponent_sum(f, w, k) == per_level_weighted_sum(f, w, k), (trial, k)
            ranks = {
                (p, q): kernel_map_rank(f, w, k, p, q) for p in range(k + 2) for q in range(p, k + 3)
            }
            assert top_jordan_count(f, w, k) == ranks[0, k + 1], (trial, k)
            for (p, q), rank in ranks.items():
                assert c_rank(f, w, k, q + 1, p) == rank, (trial, k, p, q)
            gaps = [q - p + 1 for (p, q), rank in ranks.items() if q <= k + 1 and rank > 0]
            assert max_exponent(f, w, k) == max(gaps, default=0), (trial, k)
            checked += 1
    assert checked > 300


def weight_ordered_pairs(f, key, clear, reverse_ties):
    """Counter of (weight, lead weight) per degree 1 .. dim + 1 of the
    weight-ordered reduction, written out here from the top down, with or
    without clearing.  Rows run in stable descending weight, or in the
    exact reverse of the column order, (weight, position) descending."""
    weight = {k: [sum(key[i] for i in s.indices) for s in f.simplices(k)] for k in range(-1, f.dim + 2)}
    out, cleared = {}, set()
    for m in range(f.dim + 1, 0, -1):
        cols = sorted((c for c in range(f.count(m)) if c not in cleared), key=weight[m].__getitem__)
        if reverse_ties:
            rows = sorted(range(f.count(m - 1)), key=lambda r: (weight[m - 1][r], r), reverse=True)
        else:
            rows = sorted(range(f.count(m - 1)), key=weight[m - 1].__getitem__, reverse=True)
        leads = reduce_columns(boundary_matrix(f, m, cols=cols, rows=rows, sparse=True))
        pairs = [(c, rows[lead]) for c, lead in zip(cols, leads) if lead is not None]
        out[m] = Counter((weight[m][c], weight[m - 1][r]) for c, r in pairs)
        cleared = {r for _, r in pairs} if clear else set()
    return out


def test_cleared_weight_pairs_match_uncleared_under_both_tie_orders():
    # clearing keeps every B_q, so the (weight, lead weight) multiset of
    # each class and degree is that of the uncleared reduction, whichever
    # order breaks weight ties; the classes with one vertex of the other
    # weight give long runs of equal simplex weights
    rng = random.Random(71)
    for trial in range(60):
        g = random_connected_graph(rng, 12)
        f = build_flag_complex(g)
        n = g.n_vertices
        if trial % 3 == 0:
            key = [rng.randint(0, 1) for _ in range(n)]
        else:
            key = [trial % 3 - 1] * n
            key[rng.randrange(n)] ^= 1
        w = WeightFunction(dict(zip(g.vertices, key)), 2)
        expected = weight_ordered_pairs(f, key, clear=False, reverse_ties=False)
        for clear, reverse_ties in ((False, True), (True, False), (True, True)):
            assert weight_ordered_pairs(f, key, clear, reverse_ties) == expected, (trial, clear, reverse_ties)
        every = full_weight_pairs(f, key)
        for m in range(1, f.dim + 2):
            pairs = every[m]
            assert Counter(pairs) == expected[m], (trial, m)
            # the formula pipeline keeps the bars alone
            assert Counter(_weight_pairs(f, w, m)) == bars(pairs), (trial, m)
            # per-level oracle: the pairs of weight > j are b(F_j) - b(X)
            # in degree m - 1, and those of lead weight > j are
            # b(X, X') - b(X, F'_j) in degree m
            full = filtration_betti(f, w, m - 1, m, m + 1)
            x = filtration_level(f, w, m, m + 1)
            base = relative_betti(f, w, m, (x, filtration_level(f, w, m - 1, m)))
            for j in range(0, m + 2):
                assert sum(1 for weight, _ in pairs if weight > j) == filtration_betti(f, w, m - 1, m, j) - full
                source = filtration_level(f, w, m - 1, j)
                assert sum(1 for _, lead in pairs if lead > j) == base - relative_betti(f, w, m, (x, source))


def star_apex(f, key):
    """The weight-0 vertex of key whose closed star, the simplices sigma
    (the empty one included) with sigma + {u} a clique, holds the most
    simplices, the lowest index on ties; counted by brute force."""
    g = f.graph

    def in_star(sigma, u):
        return all(g.adjacent(a, b) for a, b in itertools.combinations(set(sigma) | {u}, 2))

    sizes = {
        u: sum(in_star(s.indices, u) for k in range(-1, f.dim + 1) for s in f.simplices(k))
        for u in range(g.n_vertices)
        if not key[u]
    }
    return max(sizes, key=sizes.__getitem__) if sizes else None


def expected_cone(f, key):
    """FlagComplex.cone(key) by brute force: the star of star_apex, or
    every cell, zero offsets and nothing coned when no vertex weighs 0."""
    apex = star_apex(f, key)
    if apex is None:
        every = range(-1, f.dim + 2)
        return Quotient(0, {k: range(f.count(k)) for k in every}, dict.fromkeys(every, 0), False)
    return f.star(apex)


def anti_invariant_dims(f, entry, cells):
    """Anti-invariant dimensions, degree 0 .. dim + 1, of the full complex
    (cells None) or of the quotient keeping cells, by oracle_rank."""
    keep = cells or {k: range(f.count(k)) for k in range(-1, f.dim + 2)}
    ranks = {
        k: oracle_rank(boundary_matrix(f, k, cols=keep[k], rows=keep[k - 1], entry=entry))
        for k in range(0, f.dim + 2)
    }
    return tuple(len(keep[m - 1]) - ranks.get(m - 1, 0) - ranks[m] for m in range(0, f.dim + 2))


def test_quotient_by_a_weight_0_star_keeps_bars_and_anti_invariant_homology():
    # the closed star of a weight-0 vertex u is a cone at every weight
    # level and a contractible sub-complex of the anti-invariant complex,
    # so the quotient by it keeps every positive-length bar and every
    # anti-invariant dimension, whichever weight-0 vertex is coned off;
    # keys with one vertex of the other weight give long runs of equal
    # simplex weights, and an all-ones key keeps the full complex
    rng = random.Random(97)
    coned = dropped = 0
    for trial in range(90):
        g = random_connected_graph(rng, 10)
        f = build_flag_complex(g)
        n = g.n_vertices
        if trial % 5 == 0:
            key = [1] * n
        elif trial % 3 == 0:
            key = [rng.randint(0, 1) for _ in range(n)]
        else:
            key = [trial % 3 - 1] * n
            key[rng.randrange(n)] ^= 1
        weight = {k: [sum(key[i] for i in s.indices) for s in f.simplices(k)] for k in range(-1, f.dim + 2)}
        every = full_weight_pairs(f, key)
        rho = Character({v: 1 + x for v, x in zip(g.vertices, key)})
        entry = anti_invariant_entry(rho)
        dims = anti_invariant_dims(f, entry, None)
        for u in (i for i in range(n) if not key[i]):
            cells = f.star(u).cells
            for k in range(-1, f.dim + 2):
                kept = [p for p, s in enumerate(f.simplices(k)) if not all(
                    g.adjacent(a, b) for a, b in itertools.combinations(set(s.indices) | {u}, 2))]
                assert cells[k] == kept, (trial, u, k)
            leads = reduce_complex(f, range(1, f.dim + 2), weights=weight, cells=cells)
            for m in range(1, f.dim + 2):
                pairs = [(wt, weight[m - 1][lead]) for lead, wt in leads[m].items()]
                assert bars(pairs) == bars(every[m]), (trial, u, m)
                dropped += len(every[m]) - len(pairs)
            assert anti_invariant_dims(f, entry, cells) == dims, (trial, u)
            coned += 1
        # one rule for every key: the all-ones key cones off nothing, and
        # the all-zero key of the direct pipeline's rank complexes cones
        # off the largest star of all
        assert f.cone(key) == expected_cone(f, key), trial
        assert f.cone((0,) * n) == expected_cone(f, (0,) * n), trial
        w = WeightFunction(dict(zip(g.vertices, key)), 2)
        for m in range(1, f.dim + 2):
            assert Counter(_weight_pairs(f, w, m)) == bars(every[m]), (trial, m)
        assert anti_invariant_homology(f, rho) == dims, trial
    assert coned > 180
    assert dropped > 1800


def test_formula_decomposition_is_invariant_under_vertex_relabelling():
    # the coned-off vertex is the first of the largest stars in vertex
    # order, so a relabelling may cone off another one; the answers stay
    rng = random.Random(101)
    moved = 0
    for trial in range(30):
        g = random_connected_graph(rng, 9)
        chi = random_nonresonant_character(rng, g, 12)
        orders = candidate_torsion_orders(chi)
        f = build_flag_complex(g)
        expected = formula_decomposition(f, chi, orders)
        apexes = {key: star_apex(f, key) for key in weight_classes(g, chi, orders)}
        for _ in range(3):
            order = rng.sample(range(g.n_vertices), g.n_vertices)
            name = {g.vertices[i]: f"x{j}" for j, i in enumerate(order)}
            h = SimplicialGraph([name[g.vertices[i]] for i in order], [(name[a], name[b]) for a, b in g.edges])
            psi = Character({name[v]: x for v, x in chi.values.items()})
            fh = build_flag_complex(h)
            assert formula_decomposition(fh, psi, orders) == expected, trial
            for key, apex in apexes.items():
                there = star_apex(fh, tuple(key[i] for i in order))
                moved += apex is not None and order[there] != apex
    assert moved > 80


@pytest.mark.parametrize("make", [make_kite, make_square_frame, make_triforce, make_tree])
def test_formula_readers_reject_degrees_out_of_range(make):
    g, chi = make()
    f = build_flag_complex(g)
    w = derive_weight(chi, 2)
    for k in (-1, f.dim + 1):
        for call in (
            lambda: weighted_exponent_sum(f, w, k),
            lambda: top_jordan_count(f, w, k),
            lambda: c_rank(f, w, k, 1, 0),
            lambda: max_exponent(f, w, k),
            lambda: torsion_profile(f, chi, 2, k, 1),
        ):
            with pytest.raises(InputError, match="degree index"):
                call()


# -- degree-1 closed form -----------------------------------------------------


def test_h1_even_summary_examples():
    g, rho = make_kite()
    assert h1_even_summary(g, rho) == (4, 2)
    g, rho = make_triforce()
    assert h1_even_summary(g, rho) == (2, 0)
    g, rho = make_square_frame()
    assert h1_even_summary(g, rho) == (0, 0)


def test_h1_even_summary_matches_direct_on_random_even_characters():
    rng = random.Random(23)
    done = 0
    while done < 12:
        g = random_connected_graph(rng, 6)
        rho = Character({v: rng.choice((1, 2)) for v in g.vertices})
        if set(rho.values.values()) != {1, 2}:
            continue
        f = build_flag_complex(g)
        dec = full_decomposition(f, rho)[1]
        dim, blocks = h1_even_summary(g, rho)
        vec = dec.exponent_vector(2)
        assert dim == sum((j + 1) * r for j, r in enumerate(vec))
        assert blocks == (vec[1] if len(vec) > 1 else 0)
        done += 1


def test_h1_even_summary_rejects_disconnected():
    g = SimplicialGraph(["a", "b", "c"], [("a", "b")])
    with pytest.raises(InputError):
        h1_even_summary(g, Character({"a": 1, "b": 2, "c": 1}))


# -- exponent solver ----------------------------------------------------------


def test_solve_exponents_fixture_profiles():
    assert solve_exponents(TorsionProfile(0, 2, 4, 2, 2, 2), 0) == (0, 2)
    assert solve_exponents(TorsionProfile(1, 2, 3, 1, 1, 3), 1) == (0, 0, 1)
    assert solve_exponents(TorsionProfile(1, 2, 2, 1, 0, 2), 1) == (0, 1)
    assert solve_exponents(TorsionProfile(0, 2, 0, 0, 0, 0), 0) == ()


def test_solve_exponents_undetermined_and_inconsistent():
    assert solve_exponents(TorsionProfile(2, 2, 8, 4, 0, 3), 2) is None
    with pytest.raises(ConsistencyError):
        solve_exponents(TorsionProfile(0, 2, 5, 1, 0, 1), 0)


def small_exponent_vectors(k, most):
    """Every exponent vector (r_1 .. r_{k+2}) with at most `most` summands."""
    for count in range(most + 1):
        for parts in itertools.combinations_with_replacement(range(1, k + 3), count):
            vec = [0] * (k + 2)
            for j in parts:
                vec[j - 1] += 1
            yield tuple(vec)


def test_solve_exponents_against_enumeration():
    # every vector with <= 8 summands, grouped by its profile (weighted
    # sum, count, top count, max exponent): a profile of one vector gives
    # that vector, a profile of several gives None, and a profile one
    # step off that no vector has raises
    solved = raised = 0
    for k in range(5):
        groups = defaultdict(list)
        for vec in small_exponent_vectors(k, 8):
            maxe = max((j + 1 for j, r in enumerate(vec) if r), default=0)
            groups[sum((j + 1) * r for j, r in enumerate(vec)), sum(vec), vec[-1], maxe].append(vec)
        for (total, count, top, maxe), vecs in groups.items():
            want = vecs[0][:maxe] if len(vecs) == 1 else None
            assert solve_exponents(TorsionProfile(k, 2, total, count, top, maxe), k) == want
            solved += 1
            for off in (
                (total - 1, count, top, maxe),
                (total + 1, count, top, maxe),
                (total, count, top - 1, maxe),
                (total, count, top + 1, maxe),
                (total, count, top, maxe - 1),
                (total, count, top, maxe + 1),
            ):
                if off not in groups:
                    with pytest.raises(ConsistencyError, match="no exponent vector"):
                        solve_exponents(TorsionProfile(k, 2, *off), k)
                    raised += 1
    assert (solved, raised) == (1705, 5750)


@pytest.mark.parametrize("count", [20, 40, 60])
def test_solve_exponents_many_summands(count):
    # one maximal block and the rest anywhere in 1 .. 5: many vectors
    assert solve_exponents(TorsionProfile(4, 2, 3 * count, count, 1, 6), 4) is None
    assert solve_exponents(TorsionProfile(4, 2, count, count, 0, 1), 4) == (count,)


def test_complex_and_solver_leave_no_cyclic_garbage():
    # nothing built here may need the cycle collector: with it switched
    # off, every object must be freed by reference counting alone
    g, chi = make_square_frame()
    gc.disable()
    try:
        gc.collect()
        f = build_flag_complex(g)
        assert solve_exponents(TorsionProfile(1, 2, 3, 1, 1, 3), 1) == (0, 0, 1)
        assert solve_exponents(TorsionProfile(2, 2, 8, 4, 0, 3), 2) is None
        full_decomposition(f, chi)
        formula_decomposition(f, chi, candidate_torsion_orders(chi))
        del f
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_torsion_profile_square_frame():
    g, rho = make_square_frame()
    f = build_flag_complex(g)
    profile = torsion_profile(f, rho, 2, 1, summand_counts(f, rho)[1])
    assert (profile.weighted_sum, profile.summand_count, profile.top_count) == (3, 1, 1)
    assert profile.max_exponent == 3
    assert profile.exponents == (0, 0, 1)


def test_torsion_profile_no_divisible_vertex():
    g, chi = make_tree()
    f = build_flag_complex(g)
    profile = torsion_profile(f, chi, 5, 0, summands_of(f, chi, 5, 0))
    assert profile.exponents == () and profile.summand_count == 0


def test_an_empty_cone_has_no_bars_and_its_profile_is_still_checked(monkeypatch, apex_over_5_cycle):
    # every class cones off the apex c, whose closed star is the whole
    # complex: no bars, zero anti-invariant homology and zero summands,
    # with no reduction run, so each profile is the zero profile; a
    # summand count of 1 with no bars is still refused by the profile check
    g, chi = apex_over_5_cycle
    f = build_flag_complex(g)
    calls = []
    monkeypatch.setattr(formulas, "reduce_complex", lambda *args, **kwargs: calls.append(args))
    for key, orders in weight_classes(g, chi, candidate_torsion_orders(chi)).items():
        rho = even_reduction(chi, orders[0])
        assert anti_invariant_homology(f, rho) == (0,) * (f.dim + 2), key
        assert summand_counts(f, rho) == [0] * (f.dim + 1), key
        for k in range(0, f.dim + 1):
            assert _weight_pairs(f, derive_weight(chi, orders[0]), k + 1) == (), (key, k)
            assert torsion_profile(f, chi, orders[0], k, 0) == TorsionProfile(k, orders[0], 0, 0, 0, 0, ())
            with pytest.raises(ConsistencyError, match="weighted sum 0 outside \\[1, "):
                torsion_profile(f, chi, orders[0], k, 1)
    assert calls == []


def drop_shortest_bar(monkeypatch):
    # formula_decomposition reads the bar tables _class_bars returns
    real = formulas._class_bars

    def short_one(f, key, cone):
        tables = real(f, key, cone)
        return {m: tuple(sorted(table, key=lambda bar: bar[0] - bar[1])[1:]) for m, table in tables.items()}

    monkeypatch.setattr(formulas, "_class_bars", short_one)


def test_a_dropped_bar_trips_the_count_guard(monkeypatch, kite):
    # the kite's order-2 part of H_1 is (0, 2): one of its two bars left
    # still passes the profile check, and only the double cover's count
    # of 2 summands refuses it
    g, chi = kite
    drop_shortest_bar(monkeypatch)
    want = "bar count 1 differs from the double cover's summand count 2 in degree 1, order 2"
    with pytest.raises(ConsistencyError, match=want):
        formula_decomposition(build_flag_complex(g), chi, candidate_torsion_orders(chi))


def test_fuzz_records_a_tripped_count_guard_as_a_mismatch(monkeypatch):
    # most trials lose a bar of exponent 1 and fail the profile check on
    # their weighted sum; trial 5 keeps its weighted sum in bounds and
    # fails on the count alone, and fuzz runs on after each failure
    drop_shortest_bar(monkeypatch)
    result = fuzz(20, 1)
    assert result.trials == 20 and len(result.mismatches) > 1
    count = [msg for msg in result.mismatches if "differs from the double cover's summand count" in msg]
    assert len(count) == 1 and count[0].startswith("trial 5 ("), result.mismatches


def test_formula_decomposition_refuses_degenerate_characters():
    # the rule of full_decomposition, with no override, before any
    # elimination: on the path a - b - c with labels 2, 0, 3 the direct
    # side reads H_1 = K[t±1] ⊕ Φ1, and the formulas, which assume a
    # non-resonant character, would read Φ1^2 ⊕ Φ2 ⊕ Φ3 with free rank 0
    g = SimplicialGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    f = build_flag_complex(g)
    for labels, kind in (((2, 0, 3), "Resonant"), ((2, -1, 3), "NonPositive"), ((2, 4, 6), "NonSurjective")):
        chi = Character(dict(zip(g.vertices, labels)))
        with pytest.raises(InputError, match=f"character is {kind}; only the direct pipeline takes it"):
            formula_decomposition(f, chi, torsion_candidates(chi))
    assert f.boundary_ranks is None and f.weight_pairs == {}
    resonant = Character({"a": 2, "b": 0, "c": 3})
    assert full_decomposition(f, resonant, allow_degenerate=True)[1] == ModuleDecomposition(1, 1, {1: (1,)})


def test_formula_decomposition_calls_no_solver(monkeypatch, ambiguous_h3):
    def forbidden(*args):
        raise AssertionError("solve_exponents called")

    monkeypatch.setattr(formulas, "solve_exponents", forbidden)
    for g, chi in (make_kite(), make_square_frame(), make_triforce(), make_tree(), ambiguous_h3):
        profiles = report_profiles(g, chi)
        assert all(p.exponents is not None for per in profiles.values() for p in per.values())


def test_solver_agrees_with_the_bars_wherever_it_resolves(ambiguous_h3):
    # the solver stays an oracle: where the four statistics pin a vector
    # down it is the bar vector; the ambiguous H_3 profile is left open
    rng = random.Random(71)
    cases = [ambiguous_h3]
    for _ in range(40):
        g = random_connected_graph(rng, 8)
        cases.append((g, random_nonresonant_character(rng, g, 12)))
    resolved, unresolved = Counter(), []
    for g, chi in cases:
        for m, per in report_profiles(g, chi).items():
            for d, profile in per.items():
                vec = solve_exponents(profile, m - 1)
                if vec is None:
                    unresolved.append(profile.exponents)
                else:
                    assert vec == profile.exponents, (m, d, profile)
                    resolved[len(vec) > 0] += 1
    assert resolved[True] > 50 and (0, 2, 1) in unresolved


# -- properties ----------------------------------------------------------------


def test_filtration_betti_monotone_in_j():
    rng = random.Random(29)
    cases = [make_kite(), make_square_frame(), make_triforce()]
    for _ in range(6):
        g = random_connected_graph(rng, 6)
        cases.append((g, random_nonresonant_character(rng, g, 8)))
    for g, chi in cases:
        f = build_flag_complex(g)
        for d in ([2] if set(chi.values.values()) <= {1, 2} else candidate_torsion_orders(chi)):
            w = derive_weight(chi, d)
            for k in range(0, f.dim):
                values = [filtration_betti(f, w, k, k + 1, j) for j in range(k + 3)]
                assert all(a >= b for a, b in zip(values, values[1:]))


def test_zero_summands_means_zero_sum_and_exponent():
    rng = random.Random(31)
    done = 0
    while done < 10:
        g = random_connected_graph(rng, 6)
        chi = random_nonresonant_character(rng, g, 9)
        f = build_flag_complex(g)
        for d in candidate_torsion_orders(chi):
            for k in range(0, f.dim + 1):
                profile = torsion_profile(f, chi, d, k, summands_of(f, chi, d, k))
                if profile.summand_count == 0:
                    assert profile.weighted_sum == 0
                    assert profile.max_exponent == 0
        done += 1


def test_pipeline_agreement_small_corpus():
    rng = random.Random(37)
    for _ in range(20):
        g = random_connected_graph(rng, 6)
        chi = random_nonresonant_character(rng, g, 10)
        f = build_flag_complex(g)
        issues = cross_validate_once(f, chi, "", full_decomposition(f, chi), candidate_torsion_orders(chi))
        assert not issues, issues


def test_thorough_fuzz_builds_one_complex_per_trial(monkeypatch, capsys):
    import artinkernels.crosscheck as crosscheck
    from artinkernels.cli import main

    built = []

    def counting_build(g, *args, **kwargs):
        built.append(g)
        return build_flag_complex(g, *args, **kwargs)

    monkeypatch.setattr(crosscheck, "build_flag_complex", counting_build)
    result = crosscheck.fuzz(1, 11, check_reduction=True, check_monodromy=True)
    assert (result.trials, result.comparisons, result.mismatches) == (1, 1, [])
    assert len(built) == 1
    assert main(["fuzz", "--seed", "11", "--trials", "12", "--max-vertices", "7", "--thorough"]) == 0
    assert capsys.readouterr().out == "12 trials, 0 mismatches\n"
    assert len(built) == 13


def test_thorough_trial_lists_its_candidate_orders_once(monkeypatch):
    # a trial admits its character once (homology.require_admissible):
    # its class, its candidate orders and their weight classes are read
    # once and shared by both pipelines and the raw Smith forms
    import artinkernels.crosscheck as crosscheck

    calls = count_admission_calls(monkeypatch)
    for thorough in (False, True):
        calls.clear()
        result = crosscheck.fuzz(3, 11, check_reduction=thorough, check_monodromy=thorough)
        assert (result.trials, result.mismatches) == (3, [])
        assert Counter(name for name, _ in calls) == {
            "classify_character": 3,
            "torsion_candidates": 3,
            "weight_classes": 3,
        }


def test_weight_classes_and_pair_memo_key_by_vertex():
    g, chi = make_kite()
    permuted = Character(dict(reversed(list(chi.values.items()))))
    # key -> orders, each class's orders ascending whatever order they come in
    assert weight_classes(g, permuted, [2, 3, 4]) == weight_classes(g, chi, [4, 2, 3]) == {
        (1, 1, 1, 0, 0, 0): [2],
        (0, 0, 0, 0, 0, 0): [3, 4],
    }
    with pytest.raises(InputError):
        weight_classes(g, chi, [1])
    # the weight-pair memo keys by vertex too: the same map listed in
    # another order shares its entries, and another map with the same
    # values in its own order does not
    w = derive_weight(chi, 2)
    flipped = WeightFunction({v: w[v] for v in reversed(g.vertices)}, 2)
    mirrored = WeightFunction(dict(zip(reversed(g.vertices), w.weights.values())), 2)
    f = build_flag_complex(g)
    for weights in (w, flipped, mirrored):
        for k in range(f.dim + 1):
            assert weighted_exponent_sum(f, weights, k) == per_level_weighted_sum(f, weights, k)
            assert top_jordan_count(f, weights, k) == kernel_map_rank(f, weights, k, 0, k + 1)
    assert len({key for key, _ in f.weight_pairs}) == 2


# -- per-complex rank memo and per-weight-class profiles ----------------------


def test_profiles_shared_per_weight_class_match_fresh_profiles():
    rng = random.Random(53)
    cases = []
    for _ in range(12):
        g = random_connected_graph(rng, 6)
        cases.append((g, random_nonresonant_character(rng, g, 12)))
    # labels 12 and 5 put the orders 2, 3, 4, 6 and 12 in one class with
    # torsion: several summands, top counts, longest bars shorter than the sum
    for g, chi in (make_kite(), make_triforce(), make_square_frame()):
        cases.append((g, Character({v: 12 if n == 2 else 5 for v, n in chi.values.items()})))
    shared_classes = shared_tops = shared_multiples = 0
    for g, chi in cases:
        orders = candidate_torsion_orders(chi)
        f = build_flag_complex(g)
        formula_decomposition(f, chi, orders)
        profiles = report_profiles(g, chi)
        classes = set(weight_classes(g, chi, orders))
        shared_classes += len(orders) - len(classes)
        # the weight-pair memo is keyed by the same class keys, one table
        # per degree of every class with a weight-1 vertex
        assert f.weight_pairs.keys() == {
            (key, m) for key in classes if any(key) for m in range(1, f.dim + 2)
        }
        fresh = build_flag_complex(g)
        for m, per in profiles.items():
            for d, profile in per.items():
                assert profile.d == d
                assert profile == torsion_profile(fresh, chi, d, m - 1, summands_of(fresh, chi, d, m - 1))
        # every order of a shared class, read statistic by statistic off a
        # complex the decomposition never touched
        for key, ds in weight_classes(g, chi, orders).items():
            if len(ds) < 2:
                continue
            for d in ds:
                alone = build_flag_complex(g)
                w = derive_weight(chi, d)
                counts = summand_counts(alone, even_reduction(chi, d)) if any(key) else [0] * (alone.dim + 1)
                for k in range(alone.dim + 1):
                    profile = profiles[k + 1][d]
                    assert profile.summand_count == counts[k]
                    assert profile.weighted_sum == weighted_exponent_sum(alone, w, k)
                    assert profile.top_count == top_jordan_count(alone, w, k)
                    assert profile.max_exponent == max_exponent(alone, w, k)
                    assert profile.exponents == profiles[k + 1][ds[0]].exponents
                    shared_tops += profile.top_count > 0
                    shared_multiples += profile.summand_count > 1
    assert shared_classes > 0 and shared_tops > 0 and shared_multiples > 0


def test_max_degree_cuts_the_formula_decomposition():
    # a cut at m keeps the uncut answer's degrees <= m; at m = 0 the
    # complex's boundaries are never read
    rng = random.Random(67)
    for _ in range(25):
        g = random_connected_graph(rng, 7)
        chi = random_nonresonant_character(rng, g, 12)
        orders = candidate_torsion_orders(chi)
        full = formula_decomposition(build_flag_complex(g), chi, orders)
        dim = max(full) - 1
        for m in range(-1, dim + 3):
            f = build_flag_complex(g)
            assert formula_decomposition(f, chi, orders, max_degree=m) == {j: e for j, e in full.items() if j <= m}
            if m == 0:
                assert f.boundary_ranks is None and f.weight_pairs == {} and f._faces == {}


def test_boundary_rank_memo_matches_oracle():
    rng = random.Random(59)
    for _ in range(8):
        g = random_connected_graph(rng, 7)
        chi = random_nonresonant_character(rng, g, 12)
        f = build_flag_complex(g)
        formula_decomposition(f, chi, candidate_torsion_orders(chi))
        assert f.boundary_ranks
        for k, rank in f.boundary_ranks.items():
            assert rank == oracle_rank(boundary_matrix(f, k))


def test_shared_complex_across_threads_matches_serial():
    # more threads than cores, short switch interval: threads race to fill
    # the same complex's rank, weight-pair and closed-star memos; every
    # result must equal the serial one
    rng = random.Random(61)
    g = random_connected_graph(rng, 7)
    chi = random_nonresonant_character(rng, g, 12)
    orders = candidate_torsion_orders(chi)
    serial_complex = build_flag_complex(g)
    expected = formula_decomposition(serial_complex, chi, orders)
    expected_betti = [free_rank_check(serial_complex, k) for k in range(-1, serial_complex.dim + 2)]
    n = g.n_vertices
    keys = [tuple(int(i == u) for i in range(n)) for u in range(n)] + [(0,) * n, (1,) * n]
    expected_cells = [build_flag_complex(g).cone(key) for key in keys]
    assert expected_cells[-1] == expected_cone(serial_complex, keys[-1])
    expected_stars = [build_flag_complex(g).star(u) for u in range(n)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared, fresh, starred = build_flag_complex(g), build_flag_complex(g), build_flag_complex(g)
            results, betti, cells = [None] * 4, [None] * 4, [None] * 4

            def work(slot):
                # the first boundary_rank call fills every degree of fresh;
                # a racing thread must never read a partial table, nor a
                # partial Quotient of starred, which it compares by ==:
                # two racing threads may store equal but distinct values
                betti[slot] = [free_rank_check(fresh, k) for k in range(-1, fresh.dim + 2)]
                cells[slot] = [starred.cone(key) for key in keys[slot:] + keys[:slot]]
                cells[slot] += [starred.star((slot - j) % n) for j in range(n)]
                results[slot] = formula_decomposition(shared, chi, orders)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [expected] * 4
            assert betti == [expected_betti] * 4
            for slot in range(4):
                stars = [expected_stars[(slot - j) % n] for j in range(n)]
                assert cells[slot] == expected_cells[slot:] + expected_cells[:slot] + stars
            assert shared.boundary_ranks == serial_complex.boundary_ranks
            assert shared.weight_pairs == serial_complex.weight_pairs
    finally:
        sys.setswitchinterval(old_interval)
