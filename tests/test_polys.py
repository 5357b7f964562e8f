"""Polynomial layer: arithmetic, cyclotomics, gcd, Laurent normalization.

Expected values for the nontrivial cases are computed first with raw
divmod arithmetic (division oracle) and then asserted against the API.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from artinkernels.polys import (
    ONE,
    ZERO,
    ExactPoly,
    LaurentClass,
    cyclotomic,
    factor_cyclotomic,
    poly_gcd,
    t_power_minus_one,
)


def p(*coeffs):
    return ExactPoly(coeffs)


def test_arithmetic_basics():
    a = p(1, 2)  # 1 + 2t
    b = p(0, 0, 3)  # 3t^2
    assert a + b == p(1, 2, 3)
    assert a - a == ZERO
    assert a * b == p(0, 0, 3, 6)
    assert (-a).coeffs == (-1, -2)
    assert p(2, 4).monic() == p(Fraction(1, 2), 1)
    assert a.evaluate(Fraction(1, 2)) == 2


def test_divmod_matches_reconstruction():
    rng = random.Random(3)
    for _ in range(200):
        a = ExactPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))])
        b = ExactPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(p(1), ZERO)


def test_t_power_content():
    assert p(0, 0, 2, 1).t_power_content() == 2
    assert p(0, 0, 2, 1).strip_t_power() == p(2, 1)
    assert ZERO.strip_t_power() == ZERO


def test_cyclotomic_small():
    assert cyclotomic(1) == p(-1, 1)
    assert cyclotomic(2) == p(1, 1)


def test_cyclotomic_6_against_division_oracle():
    # oracle: divide t^6 - 1 by the cyclotomics of the proper divisors
    num = t_power_minus_one(6)
    for den in (p(-1, 1), p(1, 1), p(1, 1, 1)):
        q, r = divmod(num, den)
        assert r.is_zero()
        num = q
    assert num == p(1, -1, 1)
    assert cyclotomic(6) == num


def test_cyclotomic_divides_t_n_minus_one_iff_divisor():
    for n in range(1, 13):
        target = t_power_minus_one(n)
        for d in range(1, 14):
            _, r = divmod(target, cyclotomic(d))
            assert r.is_zero() == (n % d == 0)


def test_cyclotomic_product_is_t_n_minus_one():
    for n in (1, 2, 6, 12):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == t_power_minus_one(n)


def test_poly_gcd_examples():
    assert poly_gcd(t_power_minus_one(18), t_power_minus_one(4)) == t_power_minus_one(2)
    assert poly_gcd(p(2, 4), ZERO) == p(Fraction(1, 2), 1)
    assert poly_gcd(cyclotomic(6), cyclotomic(3)) == ONE
    with pytest.raises(ValueError):
        poly_gcd(ZERO, ZERO)


def test_factor_cyclotomic_flagship_product():
    target = (
        cyclotomic(6) * cyclotomic(6) * cyclotomic(4)
        * cyclotomic(9) * cyclotomic(12) * cyclotomic(18)
    )
    mults, rem = factor_cyclotomic(target, range(2, 19))
    assert mults == {6: 2, 4: 1, 9: 1, 12: 1, 18: 1}
    assert rem == ONE


def test_factor_cyclotomic_trivial_and_remainder():
    mults, rem = factor_cyclotomic(ONE, {2, 3})
    assert mults == {} and rem == ONE
    mults, rem = factor_cyclotomic(p(-1, 1) * p(2, 0, 1), {2})
    assert mults == {1: 1}
    assert rem == p(2, 0, 1)


def test_factor_cyclotomic_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        orders = [rng.randint(1, 10) for _ in range(rng.randint(0, 4))]
        prod = ONE
        for d in orders:
            prod = prod * cyclotomic(d)
        mults, rem = factor_cyclotomic(prod, range(2, 11))
        rebuilt = rem
        for d, m in mults.items():
            rebuilt = rebuilt * cyclotomic(d) ** m
        assert rebuilt == prod
        assert rem == ONE


def test_laurent_normalization_and_associates():
    lc = LaurentClass.from_poly(p(0, 0, -1, 0, 1))  # t^2*(t^2 - 1)
    assert lc.shift == 2 and lc.poly == p(-1, 0, 1)
    assert lc.is_associate(LaurentClass.from_poly(p(-3, 0, 3), 5))
    assert not lc.is_associate(LaurentClass.from_poly(p(1, 1)))
    zero = LaurentClass.from_poly(ZERO)
    assert zero.is_zero() and zero.is_associate(LaurentClass(ZERO, 7))


def test_str_rendering():
    assert str(p(-1, 0, 1)) == "t^2 - 1"
    assert str(ZERO) == "0"
    assert str(p(1, -1, 1)) == "t^2 - t + 1"


@lru_cache(maxsize=None)
def oracle_cyclotomic(d):
    """Phi_d by ExactPoly division of t^d - 1 by the proper-divisor Phi_e."""
    num = t_power_minus_one(d)
    for e in range(1, d):
        if d % e == 0:
            num, r = divmod(num, oracle_cyclotomic(e))
            assert r.is_zero()
    return num


def oracle_factor_cyclotomic(poly, candidates):
    """Trial division by each Phi_d over the rationals."""
    rem = poly.monic()
    mults = {}
    for d in sorted(set(candidates) | {1}):
        while True:
            q, r = divmod(rem, oracle_cyclotomic(d))
            if not r.is_zero():
                break
            rem = q
            mults[d] = mults.get(d, 0) + 1
    return mults, rem.monic()


def test_factor_cyclotomic_against_trial_division_oracle():
    rng = random.Random(17)
    cofactors = [ONE, p(2, 0, 1), p(1, 3, 0, 1), p(Fraction(-1, 3), Fraction(1, 2))]
    for trial in range(120):
        d1, d2 = rng.randint(1, 18), rng.randint(1, 18)
        q = rng.choice(cofactors)
        if trial % 3 == 0:
            # a random cofactor with fraction coefficients
            q = ExactPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))])
            if q.is_zero():
                q = ONE
        prod = q * Fraction(rng.randint(1, 6), rng.randint(1, 6)) * rng.choice((1, -1))
        prod = prod * cyclotomic(d1) ** rng.randint(0, 3) * cyclotomic(d2) ** rng.randint(0, 2)
        candidates = rng.sample(range(2, 19), rng.randint(0, 8)) + [d1, d2][: rng.randint(0, 2)]
        assert factor_cyclotomic(prod, candidates) == oracle_factor_cyclotomic(prod, candidates)


def test_factor_cyclotomic_reads_integral_and_rational_multiples_alike():
    # the integral coefficients are read as they are, a rational multiple
    # through the lcm of its denominators: both give the same answer,
    # with or without a non-cyclotomic remainder
    rng = random.Random(19)
    cofactors = [ONE, p(2, 0, 1), p(1, 3, 0, 1), p(-5, 0, 0, 2)]
    for trial in range(150):
        prod = rng.choice(cofactors) * rng.choice((1, -1))
        for _ in range(rng.randint(0, 4)):
            prod = prod * cyclotomic(rng.randint(1, 12))
        candidates = rng.sample(range(2, 13), rng.randint(0, 11))
        scale = Fraction(rng.randint(1, 7), rng.randint(2, 7)) * rng.choice((1, -1))
        assert all(c.denominator == 1 for c in prod.coeffs)
        got = factor_cyclotomic(prod, candidates)
        assert factor_cyclotomic(prod * scale, candidates) == got
        assert got == oracle_factor_cyclotomic(prod, candidates)
        if got[1] == ONE:
            # a product of the Phi_d gives back the shared ONE
            assert got[1] is ONE
    # Phi_7 has degree 6, more than Phi_8 (4) and Phi_8 * Phi_1 (5): a loop
    # that stopped at the first Phi_d longer than what is left would miss
    # Phi_8
    for cofactor in (ONE, p(-1, 1), p(2, 0, 1)):
        prod = cyclotomic(8) * cofactor
        for scale in (1, Fraction(-3, 2)):
            mults, rem = factor_cyclotomic(prod * scale, [2, 7, 8])
            assert mults.get(8) == 1 and not mults.get(7)
            assert rem == (p(2, 0, 1) if cofactor == p(2, 0, 1) else ONE)


def test_factor_cyclotomic_ignores_candidate_order_and_repeats():
    # the Phi_d of distinct orders are coprime, so the candidates need no
    # sorting, and a repeated order divides no further
    rng = random.Random(23)
    for _ in range(60):
        prod = rng.choice([ONE, p(2, 0, 1)])
        for _ in range(rng.randint(0, 5)):
            prod = prod * cyclotomic(rng.randint(1, 10))
        candidates = list(range(2, 11))
        want = factor_cyclotomic(prod, candidates)
        rng.shuffle(candidates)
        assert factor_cyclotomic(prod, candidates + candidates[:3] + [1]) == want
        assert factor_cyclotomic(prod, iter(candidates)) == want


def test_cyclotomic_matches_division_oracle():
    for d in range(1, 61):
        assert cyclotomic(d) == oracle_cyclotomic(d)
