"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is a dense tuple of Fractions, constant term first, with no
trailing zeros; the zero polynomial is the empty tuple.  Laurent elements
of Q[t^±1] are represented by a polynomial with nonzero constant term
together with the power of t that was factored out; the unit group of the
Laurent ring is {c*t^k}, so two Laurent elements generate the same ideal
exactly when their polynomial parts agree up to a nonzero rational scalar.

The module also holds the integer coefficient-list kernel that the exact
computations run on: plain lists of ints, constant term first, with
pseudo-division, exact quotients and a primitive gcd.  The Smith normal
form of linalg eliminates with it, and cyclotomic and factor_cyclotomic
divide by the integer cyclotomic polynomials through the same
pseudo-division; ExactPoly values are built only for results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, Union

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
        return self.coeffs == ONE.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

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


# ---------------------------------------------------------------------------
# integer coefficient lists
# ---------------------------------------------------------------------------
#
# A polynomial is a list of ints, constant term first, with no trailing
# zeros; [] is zero.  Only _trim changes its argument, so the other
# helpers take tuples as well.


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _integer_coeffs(polys: Sequence[Sequence[Scalar]]) -> list[list[int]]:
    """Coefficient sequences of ints and Fractions, all scaled by the lcm
    of their denominators, as integer coefficient lists."""
    den = lcm(*(c.denominator for e in polys for c in e))
    return [_trim([c.numerator * (den // c.denominator) for c in e]) for e in polys]


def _terms(a: list[int]) -> list[tuple[int, int]]:
    """(power, coefficient) for each nonzero coefficient of a."""
    return [(i, x) for i, x in enumerate(a) if x]


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    if len(a) == 1:
        c = a[0]
        return [c * y for y in b]
    out = [0] * (len(a) + len(b) - 1)
    terms = _terms(b)
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _submul(c: int, y: list[int], q: list[tuple[int, int]], x: list[int]) -> list[int]:
    """c*y - q*x, for q given by _terms.  Only the nonzero coefficients of
    x are walked; when q*x is zero and c == 1, y itself is returned."""
    if c != 1:
        y = [c * z for z in y]
    if not x or not q:
        return y
    out = list(y)
    n = len(x) + q[-1][0]
    if len(out) < n:
        out.extend([0] * (n - len(out)))
    for i, u in enumerate(x):
        if u:
            for j, z in q:
                out[i + j] -= u * z
    return _trim(out)


def _pdivmod(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
    """Pseudo-division: (c, q, r) with c*a == q*b + r, c a positive int
    and deg r < deg b.  Each step scales by no more than it needs to make
    the leading coefficient divisible, so c is 1 whenever the quotient
    has integer coefficients.  Only the nonzero terms of b are
    subtracted."""
    db = len(b) - 1
    if len(a) <= db:
        return 1, [], a
    lead = b[-1]
    terms = _terms(b)
    r = list(a)
    q = [0] * (len(a) - db)
    c = 1
    for k in range(len(q) - 1, -1, -1):
        x = r[k + db]
        if not x:
            continue
        if x % lead:
            m = abs(lead) // gcd(x, lead)
            c *= m
            r = [m * y for y in r]
            q = [m * y for y in q]
            x *= m
        y = x // lead
        q[k] = y
        for j, z in terms:
            r[k + j] -= y * z
    return c, q, _trim(r[:db])


def _exquo(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b dividing a over Q[t]; by Gauss's lemma the
    quotient has integer coefficients."""
    c, q, r = _pdivmod(a, b)
    if c != 1 or r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd with a positive leading coefficient, by a
    primitive pseudo-remainder sequence: each remainder is divided by its
    content (Collins, J. ACM 1967).  a and b must not both be zero."""
    while b:
        a, b = b, _pdivmod(a, b)[2]
        if b:
            h = gcd(*b)
            b = [x // h for x in b]
    h = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [x // h for x in a]


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


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(d: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_d: t^d - 1 divided exactly by the
    cyclotomic polynomials of all proper divisors of d."""
    if d < 1:
        raise ValueError("need d >= 1")
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            p = _exquo(p, _cyclotomic_coeffs(e))
    return tuple(p)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> ExactPoly:
    """The d-th cyclotomic polynomial, monic with integer coefficients."""
    return ExactPoly(_cyclotomic_coeffs(d))


def factor_cyclotomic(
    p: ExactPoly, candidates: Iterable[int]
) -> tuple[dict[int, int], ExactPoly]:
    """Split off cyclotomic factors Phi_d for d in candidates (1 is always
    tried, first).

    Returns (multiplicities, remainder) with
    p == remainder * prod(Phi_d ** mult[d]) up to a nonzero scalar, the
    remainder monic and no Phi_d dividing it for tried d; it is the
    shared ONE when p is a product of the Phi_d.  A remainder different
    from 1 is a legal outcome; callers decide whether it violates their
    hypotheses.  The Phi_d of distinct orders are coprime irreducibles,
    so the candidates are tried in the order given and need no sorting;
    a repeated order divides no further.  The division runs on integer
    coefficients: Phi_d is monic, so an exact quotient of an integer
    polynomial by it is again integer.  Integral coefficients are read
    as they are, and only a p with a fractional one is scaled by the lcm
    of its denominators.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    cs = p.coeffs
    rem = [c.numerator for c in cs if c.denominator == 1]
    if len(rem) != len(cs):
        rem = _integer_coeffs([cs])[0]
    mults: dict[int, int] = {}
    for d in (1, *candidates):
        phi = _cyclotomic_coeffs(d)
        while len(rem) >= len(phi):
            _, q, r = _pdivmod(rem, phi)
            if r:
                break
            rem = q
            mults[d] = mults.get(d, 0) + 1
        if len(rem) == 1:
            # a constant: no Phi_d divides it
            return mults, ONE
    return mults, ExactPoly(rem).monic()


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
