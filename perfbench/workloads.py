"""Workload corpora for the benchmark, built with the standard library only.

A workload is a fixed problem set plus a presentation of it.  The problem
set (graphs and characters, or fuzz seeds) is drawn by the tier's
generator from the workload's corpus seed in workloads.json.  The run's
--seed draws the presentation: vertex names, edge order and orientation,
and the order in which inputs are sent.  Answers do not depend on the
presentation, so one recorded digest checks every seed, while a fixed
problem set keeps heavy-tailed inputs from making totals depend on luck.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())


@dataclass
class Item:
    """One input of a pass: report bytes or a fuzz seed."""

    index: int  # position in the problem set; fixtures come first
    kind: str  # "fixture" | "report" | "fuzz"
    data: bytes = b""
    method: str = "both"
    allow_resonant: bool = False
    golden: Optional[bytes] = None
    fuzz_seed: int = 0


def _connected_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Random graph with edge probability p plus a random spanning tree."""
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    order = list(range(n))
    rng.shuffle(order)
    for pos in range(1, n):
        a, b = order[pos], order[rng.randrange(pos)]
        edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def _labels(rng: random.Random, n: int, max_label: int) -> list[int]:
    """Positive labels with gcd 1: a non-resonant surjective character."""
    while True:
        values = [rng.randint(1, max_label) for _ in range(n)]
        acc = 0
        for x in values:
            acc = gcd(acc, x)
        if acc == 1:
            return values


def _problem(n: int, edges: list[tuple[int, int]], labels: list[int]) -> dict:
    names = [f"v{i}" for i in range(n)]
    return {
        "vertices": names,
        "edges": [[names[a], names[b]] for a, b in edges],
        "character": dict(zip(names, labels)),
    }


def generate_problems(gen: dict, corpus_seed: int) -> list:
    """The problem set of one workload: input dicts, or fuzz seeds."""
    rng = random.Random(corpus_seed)
    kind, count = gen["kind"], gen["count"]
    out: list = []
    for _ in range(count):
        if kind == "default_tier":
            n = rng.randint(2, gen["max_vertices"])
            edges = _connected_edges(rng, n, rng.uniform(0.25, 0.75))
            out.append(_problem(n, edges, _labels(rng, n, gen["max_label"])))
        elif kind == "fuzz_seeds":
            out.append(rng.getrandbits(32))
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
    return out


def present(problem: dict, rng: random.Random) -> bytes:
    """The problem as input bytes, with seeded vertex names and edge order.

    Vertex order is kept: it fixes the matrices' row and column order, and
    on 70-100 cell inputs drawing it per seed moved direct_s by a factor
    of 2.5.
    """
    order = list(problem["vertices"])
    fresh = [f"x{k}" for k in rng.sample(range(10 * len(order)), len(order))]
    rename = dict(zip(order, fresh))
    edges = [[rename[a], rename[b]] for a, b in problem["edges"]]
    for e in edges:
        if rng.random() < 0.5:
            e.reverse()
    rng.shuffle(edges)
    doc = {
        "vertices": [rename[v] for v in order],
        "edges": edges,
        "character": {rename[v]: problem["character"][v] for v in order},
    }
    return (json.dumps(doc) + "\n").encode("utf-8")


def build_corpus(name: str, seed: int, cli, corpus_seed: Optional[int] = None) -> list[Item]:
    """Items of one pass, in the order the run sends them.

    Fixtures run as the CLI runs them and lead every pass; the generated
    inputs follow in an order drawn from seed.
    """
    spec = SPEC[name]
    if corpus_seed is None:
        corpus_seed = spec["corpus_seed"]
    items: list[Item] = []
    if spec["fixtures"]:
        for fixture, cfg in cli.FIXTURES.items():
            items.append(
                Item(
                    index=len(items),
                    kind="fixture",
                    data=cli.fixture_bytes(fixture),
                    method=cfg.get("method", "both"),
                    allow_resonant=cfg.get("allow_resonant", False),
                    golden=cli.golden_bytes(fixture),
                )
            )
    rng = random.Random(seed)
    generated = []
    for problem in generate_problems(spec["generator"], corpus_seed):
        index = len(items) + len(generated)
        if spec["entry"] == "fuzz":
            generated.append(Item(index=index, kind="fuzz", fuzz_seed=problem))
        else:
            generated.append(
                Item(index=index, kind="report", data=present(problem, rng), method=spec["method"])
            )
    rng.shuffle(generated)
    return items + generated
