"""Shared test fixtures and independent oracles.

The oracles deliberately avoid the library's own code paths: ranks use a
plain fraction Gaussian elimination, cliques come from brute-force subset
enumeration, and polynomial expectations are computed with raw divmod
arithmetic in the tests themselves.  The located-cycle ranks of the
formula pipeline are checked against their definition, from explicit
cycle and boundary spans of single filtration levels built with the
library's kernels and span intersections, which test_linalg checks
against oracle_rank.
"""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import artinkernels.graphs as graphs
from artinkernels import Character, SimplicialGraph, boundary_matrix, filtration_level, simplex_weight
from artinkernels.flagcomplex import level_boundary_matrix, reduce_complex
from artinkernels.linalg import intersect_spans, nullspace, span_rank


# -- the worked example graphs ---------------------------------------------


def make_tree():
    g = SimplicialGraph(["v0", "v1", "v2", "v3"], [("v0", "v1"), ("v0", "v2"), ("v2", "v3")])
    chi = Character({"v0": 18, "v1": 4, "v2": 12, "v3": 9})
    return g, chi


def make_tree_resonant():
    g = SimplicialGraph(["v1", "v2", "v3", "v4"], [("v1", "v2"), ("v2", "v3"), ("v3", "v4")])
    chi = Character({"v1": 1, "v2": 0, "v3": 2, "v4": 2})
    return g, chi


def make_kite():
    g = SimplicialGraph(
        ["v0", "v1", "v2", "v3", "v4", "v5"],
        [("v0", "v1"), ("v0", "v2"), ("v1", "v2"), ("v0", "v3"), ("v1", "v4"), ("v2", "v5")],
    )
    chi = Character({"v0": 2, "v1": 2, "v2": 2, "v3": 1, "v4": 1, "v5": 1})
    return g, chi


def make_triforce():
    g = SimplicialGraph(
        ["v0", "v1", "v2", "v3", "v4", "v5"],
        [
            ("v0", "v4"), ("v4", "v1"), ("v1", "v3"), ("v3", "v2"), ("v2", "v5"),
            ("v5", "v0"), ("v4", "v3"), ("v3", "v5"), ("v5", "v4"),
        ],
    )
    chi = Character({"v0": 1, "v1": 1, "v2": 1, "v3": 2, "v4": 2, "v5": 2})
    return g, chi


def make_square_frame():
    g = SimplicialGraph(
        ["v0", "v1", "v2", "v3", "v4", "v5", "v6"],
        [
            ("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0"),
            ("v4", "v5"), ("v5", "v6"), ("v6", "v4"),
            ("v0", "v4"), ("v4", "v1"), ("v1", "v6"), ("v6", "v2"),
            ("v2", "v5"), ("v5", "v3"), ("v3", "v4"),
        ],
    )
    chi = Character({"v0": 1, "v1": 1, "v2": 1, "v3": 1, "v4": 2, "v5": 2, "v6": 2})
    return g, chi


def make_apex_over_5_cycle():
    # a cone: the apex c, label 1, weighs 0 in every class and is next to
    # every vertex, so its closed star is the whole complex and every
    # quotient of both pipelines is empty
    ring = ["v0", "v1", "v2", "v3", "v4"]
    edges = [("c", v) for v in ring] + [(ring[i], ring[(i + 1) % 5]) for i in range(5)]
    g = SimplicialGraph(["c"] + ring, edges)
    chi = Character({"c": 1, "v0": 2, "v1": 4, "v2": 6, "v3": 3, "v4": 2})
    return g, chi


def make_ambiguous_h3():
    # labels 2 on a, d, f, g and 1 elsewhere: the order-2 part of H_3 is
    # (0, 2, 1), whose count 3, weighted sum 7, largest exponent 3 and
    # top count 0 fit (1, 0, 2) as well, so those four statistics leave
    # it open and only the bars pin it down
    g = SimplicialGraph(
        list("abcdefghijkl"),
        [
            ("a", "c"), ("a", "d"), ("a", "e"), ("a", "f"), ("a", "g"), ("a", "j"), ("a", "k"), ("a", "l"),
            ("b", "c"), ("b", "f"), ("b", "g"), ("b", "h"), ("b", "i"), ("c", "e"), ("c", "f"), ("c", "g"),
            ("c", "j"), ("c", "k"), ("d", "e"), ("d", "f"), ("d", "g"), ("d", "h"), ("d", "i"), ("d", "j"),
            ("d", "k"), ("d", "l"), ("e", "g"), ("e", "h"), ("e", "i"), ("e", "l"), ("f", "g"), ("f", "h"),
            ("f", "i"), ("f", "k"), ("f", "l"), ("g", "h"), ("g", "i"), ("g", "j"), ("h", "j"), ("h", "l"),
            ("i", "l"), ("j", "k"), ("k", "l"),
        ],
    )
    chi = Character({v: 2 if v in "adfg" else 1 for v in g.vertices})
    return g, chi


@pytest.fixture
def tree():
    return make_tree()


@pytest.fixture
def tree_resonant():
    return make_tree_resonant()


@pytest.fixture
def kite():
    return make_kite()


@pytest.fixture
def triforce():
    return make_triforce()


@pytest.fixture
def square_frame():
    return make_square_frame()


@pytest.fixture
def apex_over_5_cycle():
    return make_apex_over_5_cycle()


@pytest.fixture
def ambiguous_h3():
    return make_ambiguous_h3()


# -- independent oracles -----------------------------------------------------


def oracle_rank(rows):
    """Plain fraction Gaussian elimination, independent of the library."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def brute_force_cliques(g: SimplicialGraph):
    """Every clique of g by subset enumeration, grouped by size."""
    n = g.n_vertices
    by_size = {}
    for size in range(1, n + 1):
        found = []
        for combo in combinations(range(n), size):
            if all(g.adjacent(a, b) for a, b in combinations(combo, 2)):
                found.append(combo)
        if found:
            by_size[size] = found
    return by_size


def tuple_cliques(g: SimplicialGraph, max_dim=None):
    """Every clique of g as an index tuple, per dimension -1 .. dim, each
    dimension sorted lexicographically: depth-first extension over the
    ordered vertex set with an explicit stack and adjacency tests, no
    vertex masks.  max_dim prunes as build_flag_complex does: cliques
    with more than max_dim + 1 vertices are not extended to."""
    levels = {-1: [()]}
    stack = [((), list(range(g.n_vertices)))]
    while stack:
        prefix, candidates = stack.pop()
        for v in candidates:
            clique = prefix + (v,)
            levels.setdefault(len(clique) - 1, []).append(clique)
            if max_dim is not None and len(clique) >= max_dim + 1:
                continue
            extended = [w for w in candidates if w > v and g.adjacent(v, w)]
            if extended:
                stack.append((clique, extended))
    return {d: sorted(cliques) for d, cliques in sorted(levels.items())}


def oracle_divisors(n: int):
    return [d for d in range(1, abs(n) + 1) if n % d == 0]


# -- located-cycle ranks from explicit cycle and boundary spans ---------------


def cycle_columns(f, w, k, j):
    """Cycles of the filtered k-skeleton, as columns in full k-chain
    coordinates."""
    level = filtration_level(f, w, k, j)
    local = nullspace(level_boundary_matrix(level, k), level.count(k))
    cols = []
    for vec in local:
        full = [0] * f.count(k)
        for v, slot in zip(vec, level.positions(k)):
            full[slot] = v
        cols.append(full)
    return cols


def image_columns(f, w, k, j=None):
    """Columns of the boundary out of the (k+1)-simplices of weight <= j
    (all of them when j is None), as vectors in k-chain coordinates."""
    full = boundary_matrix(f, k + 1)
    keep = [
        c for c, sigma in enumerate(f.simplices(k + 1)) if j is None or simplex_weight(sigma, w) <= j
    ]
    return [[row[c] for row in full] for c in keep]


def kernel_map_rank(f, w, k, p, q):
    """Rank of the inclusion-induced map between boundary-trivial cycle
    classes: from cycles of the weight-<=p k-skeleton that die in the full
    complex, to the same kind of classes of the weight-<=q (k+1)-level."""
    source = intersect_spans(cycle_columns(f, w, k, p), image_columns(f, w, k))
    if not source:
        return 0
    b_q = image_columns(f, w, k, q)
    return span_rank(source + b_q) - span_rank(b_q)


# -- the weight pairs of the full complex -------------------------------------


def full_weight_pairs(f, key):
    """(weight, lead weight) of every pair of the weight-ordered
    reduce_complex run on the full complex, zero-length pairs included,
    per degree 1 .. dim + 1, under 0/1 vertex weights key in vertex order.
    Not an oracle: the formula pipeline reduces a quotient that keeps only
    the bars, and these pairs are what its bars are checked against; the
    full run itself is checked against written-out reductions and the
    per-level oracle."""
    weight = {k: [sum(key[i] for i in s.indices) for s in f.simplices(k)] for k in range(-1, f.dim + 2)}
    leads = reduce_complex(f, range(1, f.dim + 2), weights=weight)
    return {m: [(wt, weight[m - 1][lead]) for lead, wt in leads[m].items()] for m in leads}


def bars(pairs):
    """The pairs of positive length, weight > lead weight, as a multiset."""
    return Counter(pair for pair in pairs if pair[0] > pair[1])


# -- call counts ----------------------------------------------------------------


def count_admission_calls(monkeypatch):
    """Wrap classify_character, torsion_candidates and weight_classes at
    every module global of the package bound to them, graphs' own
    included, so calls between and inside modules all count; returns the
    list of (name, args) calls, appended to as they happen."""
    calls = []
    modules = [m for n, m in sys.modules.items() if n == "artinkernels" or n.startswith("artinkernels.")]
    for name in ("classify_character", "torsion_candidates", "weight_classes"):
        real = getattr(graphs, name)

        def counted(*args, _name=name, _real=real):
            calls.append((_name, args))
            return _real(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return calls


# -- the generic report writer ----------------------------------------------------


def _decomposition_json(dec):
    out = {"free_rank": dec.free_rank, "torsion": {str(d): list(vec) for d, vec in sorted(dec.torsion.items())}}
    if dec.remainder_factors:
        out["remainder_factors"] = [str(p) for p in dec.remainder_factors]
    return out


def _profile_json(profile):
    return {
        "summand_count": profile.summand_count,
        "weighted_sum": profile.weighted_sum,
        "top_count": profile.top_count,
        "max_exponent": profile.max_exponent,
        "exponents": list(profile.exponents),
    }


def reference_report_json(report):
    """The report as the dict whose json.dumps(sort_keys=True, indent=2)
    text is the JSON report: the reference of report.emit_report, which
    writes that text from the report's fields without building the dict."""
    obj = {
        "method": report.method,
        "agreement": report.agreement,
        "provenance": report.provenance,
        "degrees": {
            str(m): _decomposition_json(dec)
            for m, dec in sorted((report.degrees or report.formula_degrees).items())
        },
    }
    if report.profiles:
        obj["profiles"] = {
            str(m): {str(d): _profile_json(p) for d, p in sorted(per.items())}
            for m, per in sorted(report.profiles.items())
        }
    if report.mismatches:
        obj["mismatches"] = list(report.mismatches)
    return obj
