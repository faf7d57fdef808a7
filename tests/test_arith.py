import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from campana import arith
from campana.arith import INF
from campana.errors import SearchExhausted


def brute_crt(congruences):
    m = math.prod(mi for mi, _ in congruences)
    for x in range(m):
        if all(x % mi == ri % mi for mi, ri in congruences):
            return x
    raise AssertionError


def test_crt_matches_brute_force():
    cases = [
        [(9, 3), (5, 1)],
        [(4, 1), (9, 2), (25, 3)],
        [(7, 0)],
        [(2, 1), (3, 2), (5, 4), (7, 6)],
    ]
    for case in cases:
        assert arith.crt(case) == brute_crt(case)


def test_crt_value_frozen():
    # 21 = 3 mod 9 and 1 mod 5, found by scanning 0..44
    assert arith.crt([(9, 3), (5, 1)]) == 21


def test_crt_rejects_bad_input():
    with pytest.raises(ValueError):
        arith.crt([])
    with pytest.raises(ValueError):
        arith.crt([(6, 1), (4, 3)])  # gcd 2
    with pytest.raises(ValueError):
        arith.crt([(0, 0)])


def test_legendre_against_enumerated_squares():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert arith.legendre(a, p) == (1 if a in squares else -1)
    assert arith.legendre(2, 5) == -1  # squares mod 5 are {1, 4}
    assert arith.legendre(0, 7) == 0


def test_legendre_rejects_non_odd_prime():
    with pytest.raises(ValueError):
        arith.legendre(3, 2)
    with pytest.raises(ValueError):
        arith.legendre(3, 15)


def test_is_prime_against_sieve():
    sieve = set(arith.primes_up_to(2000))
    for n in range(2000):
        assert arith.is_prime(n) == (n in sieve)


def test_is_prime_large():
    assert arith.is_prime(2**61 - 1)
    assert not arith.is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_is_prime_lookup_agrees_with_miller_rabin_across_the_bound():
    bound = arith.TRIAL_DIVISION_BOUND
    near = [bound + k for k in range(-60, 61)]
    for n in [0, 1, 2, 3, -1, -2, -7, -999_983, 999_983, 10**6, 1_000_003] + near:
        want = n > 0 and sympy.isprime(n)
        assert arith.is_prime(n) == arith._miller_rabin(n) == want, n


def test_next_prime():
    assert arith.next_prime(0) == 2
    assert arith.next_prime(2) == 3
    assert arith.next_prime(89) == 97


@given(st.integers(min_value=2, max_value=10**9))
def test_factorize_round_trip(n):
    fac = arith.factorize(n)
    assert fac.value() == n
    for p in fac.factors:
        assert arith.is_prime(p)


def test_factorize_square_cofactor_beyond_float_range():
    # the composite cofactor p^2 r^2 (about 1e338) is a perfect square,
    # split by an integer square root, not a float one
    p = arith.next_prime(10**160)
    r = arith.next_prime(10**9)
    assert arith.factorize(p * p * r * r).factors == {p: 2, r: 2}
    assert arith.factorize(7 * p * p).factors == {7: 1, p: 2}


def test_factorize_gives_up_on_a_balanced_semiprime():
    # both factors are near 1e20: Pollard rho would need about 1e10 steps
    n = arith.next_prime(10**20) * arith.next_prime(3 * 10**20)
    t0 = time.monotonic()
    with pytest.raises(SearchExhausted):
        arith.factorize(n)
    assert time.monotonic() - t0 < 30


@given(st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000),
                    max_denominator=10**6))
def test_factorize_rationals(q):
    if q == 0:
        with pytest.raises(ValueError):
            arith.factorize(q)
    else:
        assert arith.factorize(q).value() == q


def test_valuation_examples():
    assert arith.valuation(12, 2) == 2
    assert arith.valuation(Fraction(9, 2), 3) == 2
    assert arith.valuation(Fraction(5, 8), 2) == -3
    assert arith.valuation_ext(0, 7) is INF
    with pytest.raises(ValueError):
        arith.valuation(0, 2)
    with pytest.raises(ValueError):
        arith.valuation(5, 6)
    with pytest.raises(ValueError):
        arith.unit_part(5, 6)
    with pytest.raises(ValueError):
        arith.unit_part(0, 5)


@given(
    st.fractions(min_value=Fraction(-500), max_value=Fraction(500),
                 max_denominator=100).filter(lambda q: q != 0),
    st.fractions(min_value=Fraction(-500), max_value=Fraction(500),
                 max_denominator=100).filter(lambda q: q != 0),
    st.sampled_from([2, 3, 5, 7]),
)
def test_valuation_additive(x, y, p):
    assert arith.valuation(x * y, p) == arith.valuation(x, p) + arith.valuation(y, p)


def test_inf_sentinel_ordering():
    assert INF > 10**100
    assert INF >= INF
    assert not INF < 5
    assert INF == INF
    assert INF + 3 is INF


def test_unit_part():
    assert arith.unit_part(12, 2) == 3
    assert arith.unit_part(Fraction(5, 8), 2) == 5


def test_is_square_local_examples():
    assert arith.is_square_local(2, 7)  # 3^2 = 2 mod 7
    assert not arith.is_square_local(2, 5)
    assert arith.is_square_local(17, 2)  # 17 = 1 mod 8
    assert not arith.is_square_local(3, 2)
    assert arith.is_square_local(4, "inf")
    assert not arith.is_square_local(-4, "inf")
    assert not arith.is_square_local(Fraction(1, 2), 2)  # odd valuation


@given(
    st.fractions(min_value=Fraction(-300), max_value=Fraction(300),
                 max_denominator=60).filter(lambda q: q != 0),
    st.sampled_from(["inf", 2, 3, 5, 7, 11]),
)
def test_squares_are_local_squares(x, v):
    assert arith.is_square_local(x * x, v)
