"""Direct pipeline: twisted boundaries, module decompositions against the
worked examples, free-rank and order-1 checks, invariants."""

import random

import pytest

from artinkernels import (
    Character,
    InputError,
    SimplicialGraph,
    boundary_matrix,
    build_flag_complex,
    free_rank_check,
    full_decomposition,
    rank_rational,
    smith_normal_form,
    t_minus_1_part,
    twisted_boundary,
)
from artinkernels.crosscheck import random_connected_graph, random_nonresonant_character
from artinkernels.graphs import torsion_candidates
from artinkernels.homology import _decomposition_from_smith, require_admissible
from artinkernels.polys import ExactPoly, t_power_minus_one

from conftest import make_kite, make_square_frame, make_tree, make_tree_resonant, oracle_rank


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
    # full_decomposition builds its boundaries on integer coefficients and
    # rescales cells to clear negative labels; the Laurent matrices of
    # twisted_boundary with their per-column t-lift are the reference
    rng = random.Random(61)
    labels = [n for n in range(-12, 13) if n] + [0] * 3
    for _ in range(200):
        g = random_connected_graph(rng, 6)
        chi = Character({v: rng.choice(labels) for v in g.vertices})
        f = build_flag_complex(g)
        cls = require_admissible(f, chi, allow_degenerate=True)
        orders = torsion_candidates(chi)
        snfs = {}
        for k in range(-1, f.dim + 2):
            tb = twisted_boundary(f, chi, k, allow_degenerate=True)
            snfs[k] = smith_normal_form(tb.polynomial_matrix(), ncols=tb.ncols)
        want = {
            k + 1: _decomposition_from_smith(k, cls, orders, snfs[k], snfs[k + 1]).sort_key()
            for k in range(-1, f.dim + 1)
        }
        got = {m: d.sort_key() for m, d in full_decomposition(f, chi, allow_degenerate=True).items()}
        assert got == want
