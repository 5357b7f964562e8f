"""Acceptance suite: one test per criterion, exact tolerances.

Each test prints a single PASS/FAIL line (run with -s to see them on
success).  The random corpus for the property criteria is generated once
per session from a fixed seed: at least 200 connected graphs on up to 7
vertices with non-resonant surjective labels up to 12.
"""

import random
from itertools import combinations

import pytest

from artinkernels import (
    boundary_matrix,
    build_flag_complex,
    candidate_torsion_orders,
    derive_weight,
    fitting_weight,
    full_decomposition,
    minimal_acyclic_pair,
    rank_rational,
    simplex_weight,
    total_weight,
    weighted_exponent_sum,
)
from artinkernels.crosscheck import (
    cross_validate_once,
    even_reduction_check,
    monodromy_check,
    random_connected_graph,
    random_nonresonant_character,
)
from artinkernels.homology import smith_decomposition

from conftest import (
    make_kite,
    make_square_frame,
    make_tree,
    make_tree_resonant,
    make_triforce,
    oracle_rank,
)

CORPUS_TRIALS = 200
CORPUS_SEED = 2024


def _report(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number}: {status} - {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    cases = []
    for _ in range(CORPUS_TRIALS):
        g = random_connected_graph(rng, 7)
        chi = random_nonresonant_character(rng, g, 12)
        f = build_flag_complex(g)
        direct = full_decomposition(f, chi)
        cases.append((f, chi, direct, smith_decomposition(f, chi)))
    return cases


def test_criterion_1_tree_fixture():
    g, chi = make_tree()
    full = full_decomposition(build_flag_complex(g), chi)
    failures = []
    if full[1].free_rank != 0:
        failures.append(f"free rank {full[1].free_rank}")
    expected = {1: (3,), 2: (2,), 3: (2,), 4: (1,), 6: (0, 1), 9: (1,), 12: (1,), 18: (1,)}
    if full[1].torsion != expected:
        failures.append(f"torsion {full[1].torsion}")
    _report(1, "tree fixture reproduces the degree-1 module exactly", failures)


def test_criterion_2_resonant_fixture():
    g, chi = make_tree_resonant()
    full = full_decomposition(build_flag_complex(g), chi, allow_degenerate=True)
    failures = []
    if full[0].torsion != {1: (1,)} or full[0].free_rank != 0:
        failures.append(f"H_0 {full[0]}")
    if full[1].free_rank != 1:
        failures.append(f"H_1 free rank {full[1].free_rank}")
    if full[1].torsion != {1: (2,), 2: (1,)}:
        failures.append(f"H_1 torsion {full[1].torsion}")
    _report(2, "resonant fixture: degenerate labels handled by the direct pipeline", failures)


def test_criterion_3_kite_fixture():
    g, chi = make_kite()
    full = full_decomposition(build_flag_complex(g), chi)
    failures = []
    if full[1].torsion != {1: (5,), 2: (0, 2)} or full[1].free_rank != 0:
        failures.append(f"H_1 {full[1]}")
    # the degree-2 free rank is 0 by the rank check, despite the published
    # display for this example showing a free summand (suspected erratum)
    if full[2].free_rank != 0 or full[2].torsion != {1: (1,), 2: (1,)}:
        failures.append(f"H_2 {full[2]}")
    if not full[3].is_zero():
        failures.append(f"H_3 {full[3]}")
    _report(3, "kite fixture incl. zero free rank in degree 2", failures)


def test_criterion_4_triforce_fixture():
    g, chi = make_triforce()
    full = full_decomposition(build_flag_complex(g), chi)
    failures = []
    if full[1].torsion != {1: (5,), 2: (2,)} or full[1].free_rank != 0:
        failures.append(f"H_1 {full[1]}")
    if full[2].torsion != {1: (4,), 2: (0, 1)} or full[2].free_rank != 0:
        failures.append(f"H_2 {full[2]}")
    if not full[3].is_zero():
        failures.append(f"H_3 {full[3]}")
    _report(4, "subdivided-triangle fixture exact in degrees 1..3", failures)


def test_criterion_5_square_frame_fixture():
    from artinkernels import anti_invariant_homology

    g, chi = make_square_frame()
    f = build_flag_complex(g)
    full = full_decomposition(f, chi)
    failures = []
    if full[1].torsion != {1: (6,)} or full[1].free_rank != 0:
        failures.append(f"H_1 {full[1]}")
    if full[2].torsion != {1: (8,), 2: (0, 0, 1)} or full[2].free_rank != 0:
        failures.append(f"H_2 {full[2]}")
    if not full[3].is_zero():
        failures.append(f"H_3 {full[3]}")
    if anti_invariant_homology(f, chi) != (0, 0, 1, 1):
        failures.append("anti-invariant dims")
    _report(5, "square-frame fixture incl. the exponent-3 block and cover dims", failures)


def test_criterion_6_pipeline_cross_validation(corpus):
    failures = []
    for idx, (f, chi, direct, _) in enumerate(corpus):
        failures.extend(cross_validate_once(f, chi, f"trial {idx}: ", direct, candidate_torsion_orders(chi)))
    _report(6, f"pipeline agreement on {len(corpus)} random graphs", failures)


def test_criterion_7_even_reduction(corpus):
    failures = []
    for idx, (f, chi, direct, raw) in enumerate(corpus):
        failures.extend(even_reduction_check(f, chi, f"trial {idx}: ", direct=direct, raw=raw))
    _report(7, "direct decompositions, by even reduction, match the raw Smith forms of chi", failures)


def test_criterion_8_monodromy_invariants(corpus):
    failures = []
    for idx, (f, chi, _, raw) in enumerate(corpus):
        failures.extend(monodromy_check(f, chi, f"trial {idx}: ", raw, candidate_torsion_orders(chi)))
    _report(8, "cyclotomic factors, semisimple order-1 part, exponent bounds", failures)


def test_criterion_9_acyclic_pair_witnesses():
    rng = random.Random(77)
    failures = []
    checked = 0
    while checked < 25:
        g = random_connected_graph(rng, 6)
        chi = random_nonresonant_character(rng, g, 10)
        orders = candidate_torsion_orders(chi)
        if not orders:
            continue
        f = build_flag_complex(g)
        d = rng.choice(orders)
        w = derive_weight(chi, d)
        for k in range(0, f.dim + 1):
            if f.count(k + 1) > 18:
                continue
            rank = rank_rational(boundary_matrix(f, k + 1))
            pair = minimal_acyclic_pair(f, w, k)
            if pair.size != rank:
                failures.append(f"size {pair.size} != rank {rank}")
            got = fitting_weight(pair, w)
            want = weighted_exponent_sum(f, w, k)
            if got != want:
                failures.append(f"fitting weight {got} != weighted sum {want}")
            best = _exhaustive_best(f, w, k, rank)
            if best is not None and got != best:
                failures.append(f"greedy weight {got} != exhaustive {best}")
        checked += 1
    _report(9, "greedy minimal pairs are maximal, minimal, and match the sums", failures)


def _exhaustive_best(f, w, k, rank):
    d = boundary_matrix(f, k + 1)
    n_hi, n_lo = f.count(k + 1), f.count(k)
    if n_hi > 14 or n_lo > 14:
        return None
    best_k = None
    for combo in combinations(range(n_hi), rank):
        sub = [[row[c] for c in combo] for row in d]
        if rank == 0 or oracle_rank(sub) == rank:
            weight = sum(simplex_weight(f.simplices(k + 1)[c], w) for c in combo)
            best_k = weight if best_k is None else min(best_k, weight)
    image_cols = [[row[c] for row in d] for c in range(n_hi)]
    best_l = None
    for combo in combinations(range(n_lo), n_lo - rank):
        unit = []
        for idx in combo:
            vec = [0] * n_lo
            vec[idx] = 1
            unit.append(vec)
        cols = image_cols + unit
        stacked = [list(col) for col in zip(*cols)] if cols else []
        if oracle_rank(stacked) == rank + len(combo):
            weight = sum(simplex_weight(f.simplices(k)[i], w) for i in combo)
            best_l = weight if best_l is None else min(best_l, weight)
    if best_k is None or best_l is None:
        return None
    return best_k + best_l - total_weight(f, w, k)


def test_criterion_10_convention_independence():
    rng = random.Random(99)
    failures = []
    for maker, degenerate in [
        (make_tree, False),
        (make_tree_resonant, True),
        (make_kite, False),
        (make_triforce, False),
        (make_square_frame, False),
    ]:
        g, chi = maker()
        reference = {
            m: dec.sort_key()
            for m, dec in full_decomposition(
                build_flag_complex(g), chi, allow_degenerate=degenerate
            ).items()
        }
        order = list(g.vertices)
        for _ in range(4):
            rng.shuffle(order)
            got = {
                m: dec.sort_key()
                for m, dec in full_decomposition(
                    build_flag_complex(g.reordered(order)), chi, allow_degenerate=degenerate
                ).items()
            }
            if got != reference:
                failures.append(f"{maker.__name__} under order {order}")
    _report(10, "vertex reordering never changes a decomposition", failures)
