"""Machine-speed reference: a fixed pure-Python kernel timed between inputs.

The host's speed drifts by up to 2x over minutes, and CPU time drifts
with wall time, so raw seconds from two runs of the same code can differ
by more than any useful bound.  The worker therefore times this kernel
before the first input of a pass and after every input, and scales each
input's time by NOMINAL_S / (the kernel's time around that input).  A
reported second is a second on a machine where the kernel takes
NOMINAL_S; the kernel never changes, so a change to the package moves the
scaled times exactly as it moves the raw ones, and a change of machine
speed cancels out.

The kernel does the kind of work the package does: Fraction elimination
on a small integer matrix, integer polynomial products and dict/tuple
bookkeeping.  Its answer is checked, so it cannot be optimised away.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The kernel's median time on the machine the bounds were measured on
# (2-vCPU shared virtual machine, CPython 3.11).
NOMINAL_S = 0.0009

_MATRIX = [[(3 * i + 5 * j * j + 1) % 11 - 5 for j in range(7)] for i in range(6)]
_POLY_A = [(7 * i) % 13 - 6 for i in range(24)]
_POLY_B = [(5 * i) % 11 - 5 for i in range(24)]


def _rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def kernel() -> int:
    rank = _rank(_MATRIX)
    prod = _poly_mul(_POLY_A, _POLY_B)
    seen: dict[tuple, int] = {}
    for k in range(0, len(prod) - 3, 2):
        key = tuple(prod[k:k + 4])
        seen[key] = seen.get(key, 0) + k
    return rank * 1000 + len(seen) + sum(prod) % 997


EXPECTED = kernel()


def sample() -> float:
    """Seconds taken by one run of the kernel."""
    start = time.perf_counter()
    answer = kernel()
    elapsed = time.perf_counter() - start
    if answer != EXPECTED:
        raise RuntimeError("reference kernel gave a different answer")
    return elapsed


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to reference seconds, given the kernel's
    times just before and just after the timed work.  Speed changes within
    seconds, so only the two adjacent samples are used."""
    return 2 * NOMINAL_S / (before + after)
