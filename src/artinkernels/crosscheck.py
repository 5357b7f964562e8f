"""Randomized cross-validation of the two pipelines.

Generates random connected graphs with random non-resonant surjective
characters, runs the direct pipeline and the filtration-formula
pipeline, and compares every comparable statistic.  Any disagreement is
reported verbatim; agreement across a corpus is the strongest artifact
level check, since the two pipelines share no linear algebra beyond
rational ranks.  The thorough checks also take the raw Smith forms of the
character over Q[t] (homology.smith_decomposition), which lean on no
theorem of the paper, and test the direct pipeline and the non-resonant
invariants against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from typing import Optional, Sequence

from .flagcomplex import FlagComplex, build_flag_complex
from .formulas import formula_decomposition
from .graphs import Character, ConsistencyError, InputError, SimplicialGraph
from .homology import Admission, full_decomposition, require_admissible, smith_decomposition
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


def cross_validate_once(
    f: FlagComplex,
    chi: Character,
    tag: str,
    direct: dict,
    orders: Sequence[int],
    admitted: Optional[Admission] = None,
) -> list[str]:
    """Compare the two pipelines on one input, given the direct
    decomposition and the candidate torsion orders of chi (and chi's
    admission, when the caller holds it); returns mismatch strings
    prefixed with tag."""
    formula = formula_decomposition(f, chi, orders, admitted=admitted)
    return [tag + msg for msg in compare_pipelines(direct, formula, orders)]


def even_reduction_check(f: FlagComplex, chi: Character, tag: str, direct: dict, raw: dict) -> list[str]:
    """The direct decomposition must equal the raw one, from Smith forms
    of chi over Q[t], degree by degree: free rank, every order's exponent
    vector (order 1 included) and the remainder.

    The direct pipeline reads order d >= 2 off the even character of d at
    t = -1 and free ranks off t = 2, and cuts its local Smith forms at the
    non-resonant exponent bound, so this tests the even-reduction and
    rank theorems and the truncation against chi itself.
    """
    issues = []
    for m, want in raw.items():
        got = direct[m]
        if got.free_rank != want.free_rank:
            issues.append(
                f"{tag}H_{m}: free rank {got.free_rank} differs from the raw Smith form's {want.free_rank}"
            )
        for d in sorted(set(got.torsion) | set(want.torsion)):
            lhs, rhs = got.exponent_vector(d), want.exponent_vector(d)
            if lhs != rhs:
                issues.append(
                    f"{tag}H_{m}: order-{d} exponents {lhs} differ from the raw Smith form's {rhs}"
                )
        if got.remainder_factors != want.remainder_factors:
            issues.append(f"{tag}H_{m}: remainder factors differ from the raw Smith form's")
    return issues


def monodromy_check(f: FlagComplex, chi: Character, tag: str, raw: dict, orders: Sequence[int]) -> list[str]:
    """Non-resonant invariants of the raw decomposition (the local one
    cannot show non-cyclotomic content): cyclotomic-only factors with
    orders dividing a label (orders, the candidate torsion orders of
    chi), order-1 vectors of length <= 1, order-d vectors in degree k+1
    of length <= k+2."""
    allowed = set(orders) | {1}
    issues = []
    for m, dec in raw.items():
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
        # one admission per trial, read by every pipeline below
        admitted = require_admissible(f, chi, allow_degenerate=False)
        orders = admitted.orders
        try:
            direct = full_decomposition(f, chi, admitted=admitted)
            result.mismatches.extend(cross_validate_once(f, chi, tag, direct, orders, admitted))
            if check_reduction or check_monodromy:
                raw = smith_decomposition(f, chi, admitted=admitted)
            if check_reduction:
                result.mismatches.extend(even_reduction_check(f, chi, tag, direct, raw))
            if check_monodromy:
                result.mismatches.extend(monodromy_check(f, chi, tag, raw, orders))
        except ConsistencyError as exc:
            result.mismatches.append(tag + str(exc))
    return result
