"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is a dense tuple of Fractions, constant term first, with no
trailing zeros; the zero polynomial is the empty tuple.  Laurent elements
of Q[t^±1] are represented by a polynomial with nonzero constant term
together with the power of t that was factored out; the unit group of the
Laurent ring is {c*t^k}, so two Laurent elements generate the same ideal
exactly when their polynomial parts agree up to a nonzero rational scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Union

Scalar = Union[int, Fraction]


class ExactPoly:
    """Dense rational polynomial, immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (Fraction(1),)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def height(self) -> int:
        """Max of |numerator| and denominator over all coefficients."""
        h = 0
        for c in self.coeffs:
            h = max(h, abs(c.numerator), c.denominator)
        return h

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; 0 for zero."""
        if not self.coeffs:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            if c:
                num = gcd(num, c.numerator)
                den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(abs(num), den)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPoly(out)

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        out = list(self.coeffs)
        b = other.coeffs
        if len(out) < len(b):
            out.extend([Fraction(0)] * (len(b) - len(out)))
        for i, c in enumerate(b):
            out[i] -= c
        return ExactPoly(out)

    def __neg__(self) -> "ExactPoly":
        return ExactPoly([-c for c in self.coeffs])

    def __mul__(self, other: Union["ExactPoly", Scalar]) -> "ExactPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return ZERO
            return ExactPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    if d:
                        out[i + j] += c * d
        return ExactPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "ExactPoly") -> tuple["ExactPoly", "ExactPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        if len(rem) - 1 < d:
            return ZERO, self
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - d] = q
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] -= q * oc
        return ExactPoly(quot), ExactPoly(rem)

    def __floordiv__(self, other: "ExactPoly") -> "ExactPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "ExactPoly") -> "ExactPoly":
        return divmod(self, other)[1]

    def __pow__(self, n: int) -> "ExactPoly":
        if n < 0:
            raise ValueError("negative power")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def monic(self) -> "ExactPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == 1:
            return self
        return ExactPoly([c / lead for c in self.coeffs])

    def shift(self, k: int) -> "ExactPoly":
        """Multiply by t^k, k >= 0."""
        if k < 0:
            raise ValueError("negative shift on a polynomial")
        if self.is_zero():
            return self
        return ExactPoly([Fraction(0)] * k + list(self.coeffs))

    def t_power_content(self) -> int:
        """Largest k with t^k dividing self; 0 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return 0

    def strip_t_power(self) -> "ExactPoly":
        k = self.t_power_content()
        return ExactPoly(self.coeffs[k:]) if k else self

    def evaluate(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExactPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __repr__(self) -> str:
        return f"ExactPoly({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(f"{sign}{body}" if not parts else f" {sign} {body}")
        return "".join(parts)


ZERO = ExactPoly()
ONE = ExactPoly([1])
T = ExactPoly([0, 1])


def poly_from_ints(*coeffs: int) -> ExactPoly:
    return ExactPoly(coeffs)


def t_power_minus_one(n: int) -> ExactPoly:
    """t^n - 1 for n >= 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    return ExactPoly([-1] + [0] * (n - 1) + [1])


def poly_gcd(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """Monic greatest common divisor; error if both arguments are zero."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_xgcd(a: ExactPoly, b: ExactPoly) -> tuple[ExactPoly, ExactPoly, ExactPoly]:
    """Extended Euclid: (g, x, y) with g monic, x*a + y*b = g.

    Each remainder is rescaled to primitive integer form (with the Bezout
    row rescaled alongside), the primitive-sequence cure for the
    exponential coefficient growth of the naive remainder sequence.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    r0, r1 = a, b
    x0, x1 = ONE, ZERO
    y0, y1 = ZERO, ONE
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        x2 = x0 - q * x1
        y2 = y0 - q * y1
        c = r.content()
        if c and c != 1:
            inv = 1 / c
            r, x2, y2 = r * inv, x2 * inv, y2 * inv
        r0, x0, y0 = r1, x1, y1
        r1, x1, y1 = r, x2, y2
    lead = r0.leading()
    inv = 1 / lead
    return r0 * inv, x0 * inv, y0 * inv


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> ExactPoly:
    """The d-th cyclotomic polynomial, monic with integer coefficients.

    Computed by dividing t^d - 1 by the cyclotomic polynomials of all
    proper divisors of d.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    p = t_power_minus_one(d)
    for e in range(1, d):
        if d % e == 0:
            q, r = divmod(p, cyclotomic(e))
            if not r.is_zero():
                raise AssertionError(f"cyclotomic division failed at d={d}, e={e}")
            p = q
    return p


def factor_cyclotomic(
    p: ExactPoly, candidates: Iterable[int]
) -> tuple[dict[int, int], ExactPoly]:
    """Split off cyclotomic factors Phi_d for d in candidates (1 is always tried).

    Returns (multiplicities, remainder) with
    p == remainder * prod(Phi_d ** mult[d]) and no Phi_d dividing the
    remainder for tried d.  A remainder different from 1 is a legal
    outcome; callers decide whether it violates their hypotheses.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rem = p.monic()
    mults: dict[int, int] = {}
    for d in sorted(set(candidates) | {1}):
        phi = cyclotomic(d)
        while True:
            q, r = divmod(rem, phi)
            if not r.is_zero():
                break
            rem = q
            mults[d] = mults.get(d, 0) + 1
    return mults, rem.monic()


@dataclass(frozen=True)
class LaurentClass:
    """Element of Q[t^±1]: poly has nonzero constant term, times t^shift."""

    poly: ExactPoly
    shift: int = 0

    @staticmethod
    def from_poly(p: ExactPoly, shift: int = 0) -> "LaurentClass":
        if p.is_zero():
            return LaurentClass(ZERO, 0)
        k = p.t_power_content()
        return LaurentClass(ExactPoly(p.coeffs[k:]), shift + k)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def is_associate(self, other: "LaurentClass") -> bool:
        """True when the two elements differ by a unit c*t^k."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.poly.monic() == other.poly.monic()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if self.shift == 0:
            return str(self.poly)
        return f"t^{self.shift}*({self.poly})"
