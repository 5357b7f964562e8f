"""Formula pipeline: filtration Betti numbers, relative pairs, weighted
exponent sums, anti-invariant homology (with an explicit double-cover
oracle), Jordan block counts, the degree-1 closed form, and the exponent
solver."""

import random
import sys
import threading

import pytest

from artinkernels import (
    Character,
    ConsistencyError,
    InputError,
    SimplicialGraph,
    TorsionProfile,
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
    summand_count,
    summand_counts,
    top_jordan_count,
    torsion_profile,
    weighted_exponent_sum,
)
from artinkernels.crosscheck import (
    cross_validate_once,
    random_connected_graph,
    random_nonresonant_character,
)
from artinkernels.flagcomplex import full_skeleton
from artinkernels.formulas import anti_invariant_complex

from conftest import make_kite, make_square_frame, make_tree, make_triforce, oracle_rank


def w2(pair):
    g, chi = pair
    return build_flag_complex(g), derive_weight(chi, 2), chi


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
    top = full_skeleton(f, w, 1)
    assert relative_betti(f, w, 1, (top, top)) == 0


def test_relative_betti_kite_against_les_oracle():
    # pair of the 1-skeleton against the weight-0 vertices: the long exact
    # sequence gives dim = h1(X) + h0~(A) - rank(H0~(A) -> H0~(X))
    f, w, _ = w2(make_kite())
    x = full_skeleton(f, w, 1)
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
    x = full_skeleton(f, w, 1)
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
    mats = anti_invariant_complex(f, rho).matrices
    for m in range(1, f.dim + 2):
        low, high = mats[m], mats[m + 1]
        if not low or not high or not high[0]:
            continue
        for c in range(len(high[0])):
            for r in range(len(low)):
                assert sum(low[r][k] * high[k][c] for k in range(len(high))) == 0


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
    assert summand_count(f, rho, 0, lower=0) == 2
    assert summand_counts(f, rho) == [2, 1, 0]


def test_summand_count_square_frame():
    g, rho = make_square_frame()
    f = build_flag_complex(g)
    assert summand_counts(f, rho) == [0, 1, 0]


def test_summand_count_rejects_constant():
    g, _ = make_kite()
    f = build_flag_complex(g)
    with pytest.raises(InputError):
        summand_count(f, Character({v: 1 for v in g.vertices}), 0, lower=0)


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
    f, w, _ = w2(make_square_frame())
    assert max_exponent(f, w, 1) == 3
    f, w, _ = w2(make_triforce())
    assert max_exponent(f, w, 1) == 2
    g, chi = make_tree()
    f = build_flag_complex(g)
    assert max_exponent(f, derive_weight(chi, 2), 0) == 1
    assert max_exponent(f, derive_weight(chi, 6), 0) == 2


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


def test_torsion_profile_square_frame():
    g, rho = make_square_frame()
    f = build_flag_complex(g)
    profile = torsion_profile(f, rho, 2, 1)
    assert (profile.weighted_sum, profile.summand_count, profile.top_count) == (3, 1, 1)
    assert profile.max_exponent == 3
    assert profile.exponents == (0, 0, 1)


def test_torsion_profile_no_divisible_vertex():
    g, chi = make_tree()
    f = build_flag_complex(g)
    profile = torsion_profile(f, chi, 5, 0)
    assert profile.exponents == () and profile.summand_count == 0


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
                profile = torsion_profile(f, chi, d, k)
                if profile.summand_count == 0:
                    assert profile.weighted_sum == 0
                    assert profile.max_exponent == 0
        done += 1


def test_pipeline_agreement_small_corpus():
    rng = random.Random(37)
    for _ in range(20):
        g = random_connected_graph(rng, 6)
        chi = random_nonresonant_character(rng, g, 10)
        issues = cross_validate_once(g, chi)
        assert not issues, issues


# -- per-complex rank memo and per-weight-class profiles ----------------------


def test_profiles_shared_per_weight_class_match_fresh_profiles():
    rng = random.Random(53)
    shared_classes = 0
    for _ in range(12):
        g = random_connected_graph(rng, 6)
        chi = random_nonresonant_character(rng, g, 12)
        orders = candidate_torsion_orders(chi)
        f = build_flag_complex(g)
        out = formula_decomposition(f, chi, orders)
        classes = {tuple(derive_weight(chi, d).weights.values()) for d in orders}
        shared_classes += len(orders) - len(classes)
        fresh = build_flag_complex(g)
        for m, entry in out.items():
            for d, profile in entry["profiles"].items():
                assert profile.d == d
                assert profile == torsion_profile(fresh, chi, d, m - 1)
    assert shared_classes > 0


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
    # the same complex's rank memo; every result must equal the serial one
    rng = random.Random(61)
    g = random_connected_graph(rng, 7)
    chi = random_nonresonant_character(rng, g, 12)
    orders = candidate_torsion_orders(chi)
    serial_complex = build_flag_complex(g)
    expected = formula_decomposition(serial_complex, chi, orders)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = build_flag_complex(g)
            results = [None] * 4

            def work(slot):
                results[slot] = formula_decomposition(shared, chi, orders)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [expected] * 4
            assert shared.boundary_ranks == serial_complex.boundary_ranks
    finally:
        sys.setswitchinterval(old_interval)
