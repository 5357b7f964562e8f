"""Graph and character layer: classification, weights, even reduction,
candidate torsion orders, and the validation rules."""

import random

import pytest

from artinkernels import (
    Character,
    CharacterClass,
    InputError,
    SimplicialGraph,
    candidate_torsion_orders,
    classify_character,
    derive_weight,
    even_reduction,
)
from artinkernels.graphs import divisors

from conftest import make_tree, oracle_divisors


def test_graph_validation():
    with pytest.raises(InputError):
        SimplicialGraph(["a", "a"], [])
    with pytest.raises(InputError):
        SimplicialGraph(["a", "b"], [("a", "a")])
    with pytest.raises(InputError):
        SimplicialGraph(["a", "b"], [("a", "c")])
    with pytest.raises(InputError):
        SimplicialGraph(["a", "b"], [("a", "b"), ("b", "a")])
    # nothing is read through str: a string edge, int endpoints or
    # vertices, and a mapping are all rejected
    with pytest.raises(InputError, match="not a pair of vertex strings"):
        SimplicialGraph(["a", "b"], ["ab"])
    with pytest.raises(InputError, match="not a pair of vertex strings"):
        SimplicialGraph(["1", "2"], [(1, 2)])
    with pytest.raises(InputError, match="not all strings"):
        SimplicialGraph([1, 2], [])
    with pytest.raises(InputError, match="not a pair of vertex strings"):
        SimplicialGraph(["a", "b"], [{"a": 1, "b": 2}])
    g = SimplicialGraph(["b", "a"], [("a", "b")])
    assert g.vertices == ("b", "a")
    assert g.edges == (("b", "a"),)  # stored in declaration order


def test_parsers_graph_checks_only_the_graph_rules():
    # the input parsers type-check each edge once and build the graph
    # through _from_string_pairs, which gives the graph the constructor
    # gives and keeps every rule of the graph itself
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 7)
        verts = [f"x{k}" for k in rng.sample(range(20), n)]
        edges = [[verts[i], verts[j]] for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        rng.shuffle(edges)
        edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
        want = SimplicialGraph(verts, edges)
        got = SimplicialGraph._from_string_pairs(verts, edges)
        assert (got.vertices, got.edges) == (want.vertices, want.edges)
        assert all(got.adjacent(i, j) == want.adjacent(i, j) for i in range(n) for j in range(n))
    for verts, edges, message in (
        (["a", "a"], [], "duplicate vertex"),
        (["a", "b"], [("a", "a")], "self-loop"),
        (["a", "b"], [("a", "c")], "not a declared vertex"),
        (["a", "b"], [("a", "b"), ("b", "a")], "duplicate edge"),
    ):
        with pytest.raises(InputError, match=message):
            SimplicialGraph._from_string_pairs(verts, edges)
        with pytest.raises(InputError, match=message):
            SimplicialGraph(verts, edges)


def test_classify_examples(tree):
    g, chi = tree
    assert classify_character(g, chi) is CharacterClass.NON_RESONANT_SURJECTIVE
    assert (
        classify_character(g, Character({"v0": 1, "v1": 0, "v2": 2, "v3": 2}))
        is CharacterClass.RESONANT
    )
    edge = SimplicialGraph(["a", "b"], [("a", "b")])
    assert classify_character(edge, Character({"a": 2, "b": 4})) is CharacterClass.NON_SURJECTIVE
    assert classify_character(edge, Character({"a": -1, "b": 2})) is CharacterClass.NON_POSITIVE


def test_classify_domain_mismatch(tree):
    g, _ = tree
    with pytest.raises(InputError):
        classify_character(g, Character({"v0": 1}))


def test_classify_permutation_equivariant(tree):
    g, chi = tree
    rng = random.Random(0)
    order = list(g.vertices)
    for _ in range(5):
        rng.shuffle(order)
        assert classify_character(g.reordered(order), chi) is classify_character(g, chi)


def test_derive_weight_examples(tree):
    g, chi = tree
    w6 = derive_weight(chi, 6)
    assert [w6[v] for v in g.vertices] == [1, 0, 1, 0]
    w2 = derive_weight(chi, 2)
    assert [w2[v] for v in g.vertices] == [1, 1, 1, 0]
    w_big = derive_weight(chi, 1000)
    assert all(w_big[v] == 0 for v in g.vertices)
    with pytest.raises(InputError):
        derive_weight(chi, 1)


def test_even_reduction_examples(tree):
    g, chi = tree
    rho6 = even_reduction(chi, 6)
    assert [rho6[v] for v in g.vertices] == [2, 1, 2, 1]
    rho4 = even_reduction(chi, 4)
    assert [rho4[v] for v in g.vertices] == [1, 2, 2, 1]
    rho_coprime = even_reduction(chi, 5)
    assert set(rho_coprime.values.values()) == {1}
    with pytest.raises(InputError):
        even_reduction(Character({"a": 2, "b": 4}), 2)


def test_even_reduction_value_set(tree):
    g, chi = tree
    for d in range(2, 20):
        vals = set(even_reduction(chi, d).values.values())
        assert vals <= {1, 2}
        divisible = [v for v in g.vertices if chi[v] % d == 0]
        assert (vals == {1, 2}) == (0 < len(divisible) < g.n_vertices)


def test_reduction_preserves_weight(tree):
    g, chi = tree
    for d in range(2, 20):
        w = derive_weight(chi, d)
        rho = even_reduction(chi, d)
        w2 = derive_weight(rho, 2)
        assert all(w[v] == w2[v] for v in g.vertices)


def test_candidate_torsion_orders(tree):
    _, chi = tree
    expected = set()
    for n in chi.values.values():
        expected.update(d for d in oracle_divisors(n) if d >= 2)
    assert candidate_torsion_orders(chi) == sorted(expected)
    assert candidate_torsion_orders(chi) == [2, 3, 4, 6, 9, 12, 18]
    assert candidate_torsion_orders(Character({"a": 1, "b": 1, "c": 1})) == []
    assert candidate_torsion_orders(Character({"a": 2, "b": 3})) == [2, 3]
    with pytest.raises(InputError):
        candidate_torsion_orders(Character({"a": 0, "b": 1}))


def test_divisors_helper():
    for n in (1, 2, 12, 36, 97):
        assert divisors(n) == oracle_divisors(n)
