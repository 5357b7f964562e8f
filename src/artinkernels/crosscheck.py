"""Randomized cross-validation of the two pipelines.

Generates random connected graphs with random non-resonant surjective
characters, runs the Smith-form pipeline and the filtration-formula
pipeline, and compares every comparable statistic.  Any disagreement is
reported verbatim; agreement across a corpus is the strongest artifact
level check, since the two pipelines share no linear algebra beyond
rational ranks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from .flagcomplex import FlagComplex, build_flag_complex
from .formulas import formula_decomposition
from .graphs import (
    Character,
    InputError,
    SimplicialGraph,
    candidate_torsion_orders,
    even_reduction,
    weight_classes,
)
from .homology import full_decomposition
from .report import compare_pipelines


def random_connected_graph(rng: random.Random, max_vertices: int) -> SimplicialGraph:
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    p = rng.uniform(0.25, 0.75)
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    # force connectivity with a random spanning tree
    order = list(range(n))
    rng.shuffle(order)
    for pos in range(1, n):
        a = order[pos]
        b = order[rng.randrange(pos)]
        edges.add((min(a, b), max(a, b)))
    return SimplicialGraph(names, [(names[i], names[j]) for i, j in sorted(edges)])


def random_nonresonant_character(
    rng: random.Random, g: SimplicialGraph, max_label: int
) -> Character:
    while True:
        values = {v: rng.randint(1, max_label) for v in g.vertices}
        acc = 0
        for n in values.values():
            acc = gcd(acc, n)
        if acc == 1:
            return Character(values)


@dataclass
class CrossCheckResult:
    trials: int = 0
    comparisons: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def cross_validate_once(f: FlagComplex, chi: Character, tag: str, direct: dict) -> list[str]:
    """Compare the two pipelines on one input, given the direct
    decomposition; returns mismatch strings prefixed with tag."""
    orders = candidate_torsion_orders(chi)
    formula = formula_decomposition(f, chi, orders)
    return [tag + msg for msg in compare_pipelines(direct, formula, orders)]


def even_reduction_check(f: FlagComplex, chi: Character, tag: str, direct: dict) -> list[str]:
    """Order-d exponents of chi must equal order-2 exponents of the
    associated even character, both through the direct pipeline.

    Orders with the same 0/1 weight vector have the same even character,
    so its decomposition is computed once per weight class and compared
    with every order of the class.
    """
    issues = []
    reduced_by_class = {}
    for d, key in weight_classes(f.graph, chi, candidate_torsion_orders(chi)).items():
        if not any(key):
            continue
        reduced = reduced_by_class.get(key)
        if reduced is None:
            reduced = reduced_by_class[key] = full_decomposition(f, even_reduction(chi, d))
        for m in direct:
            lhs = direct[m].exponent_vector(d)
            rhs = reduced[m].exponent_vector(2)
            if lhs != rhs:
                issues.append(
                    f"{tag}H_{m}: order-{d} exponents {lhs} differ from the even "
                    f"character's order-2 exponents {rhs}"
                )
    return issues


def monodromy_check(f: FlagComplex, chi: Character, tag: str, direct: dict) -> list[str]:
    """Non-resonant invariants: cyclotomic-only factors with orders
    dividing a label, order-1 vectors of length <= 1, order-d vectors in
    degree k+1 of length <= k+2."""
    allowed = set(candidate_torsion_orders(chi)) | {1}
    issues = []
    for m, dec in direct.items():
        if dec.remainder_factors:
            issues.append(f"{tag}H_{m}: non-cyclotomic invariant factor content")
        for d, vec in dec.torsion.items():
            if d not in allowed:
                issues.append(f"{tag}H_{m}: torsion at non-dividing order {d}")
            if d == 1 and len(vec) > 1:
                issues.append(f"{tag}H_{m}: order-1 part is not semisimple: {vec}")
            if d >= 2 and len(vec) > m + 1:
                issues.append(f"{tag}H_{m}: exponent {len(vec)} exceeds bound {m + 1}")
    return issues


def fuzz(
    trials: int,
    seed: int,
    max_vertices: int = 6,
    max_label: int = 12,
    check_reduction: bool = False,
    check_monodromy: bool = False,
) -> CrossCheckResult:
    if trials < 0:
        raise InputError(f"trials must be at least 0, got {trials}")
    if max_vertices < 2:
        raise InputError(f"max vertices must be at least 2, got {max_vertices}")
    if max_label < 1:
        raise InputError(f"max label must be at least 1, got {max_label}")
    rng = random.Random(seed)
    result = CrossCheckResult()
    for trial in range(trials):
        g = random_connected_graph(rng, max_vertices)
        chi = random_nonresonant_character(rng, g, max_label)
        tag = f"trial {trial} ({list(chi.values.values())} on {len(g.edges)} edges): "
        result.trials += 1
        result.comparisons += 1
        f = build_flag_complex(g)
        direct = full_decomposition(f, chi)
        result.mismatches.extend(cross_validate_once(f, chi, tag, direct))
        if check_reduction:
            result.mismatches.extend(even_reduction_check(f, chi, tag, direct))
        if check_monodromy:
            result.mismatches.extend(monodromy_check(f, chi, tag, direct))
    return result
