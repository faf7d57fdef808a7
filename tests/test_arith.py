import bisect
import functools
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from campana import arith
from campana.errors import SearchExhausted


def _value(fac):
    return fac.sign * math.prod(Fraction(p) ** e for p, e in fac.factors.items())


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


def _reference_sieve(n):
    flags = [True] * n
    flags[:2] = [False] * min(n, 2)
    for i in range(2, math.isqrt(n - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(range(i * i, n, i))
    return [i for i, fl in enumerate(flags) if fl]


def test_small_prime_table_ends_and_count():
    odd, ps = arith._small_primes()
    assert len(ps) == 78_498 and ps.typecode == "I"
    assert ps[:3].tolist() == [2, 3, 5]
    assert ps[-1] == 999_983
    assert len(odd) == arith.TRIAL_DIVISION_BOUND // 2
    assert odd[:4] == bytes([0, 1, 1, 1])  # 1, 3, 5, 7
    assert odd.count(1) == 78_498 - 1  # every prime but 2
    assert arith._small_primes()[1] is ps  # one table, sieved once


def test_small_prime_table_matches_a_reference_sieve():
    odd, ps = arith._small_primes()
    want = _reference_sieve(10**5)
    assert ps[: ps.index(100_003)].tolist() == want
    assert [2 * i + 1 for i in range(10**5 // 2) if odd[i]] == want[1:]


def test_small_prime_table_takes_under_a_megabyte():
    odd, ps = arith._small_primes()
    assert type(odd) is bytes
    assert sys.getsizeof(odd) + sys.getsizeof(ps) < 10**6


def test_small_prime_table_holds_python_ints():
    # a numpy integer would fail the type gates, the factor dict keys and json
    assert all(type(p) is int for p in arith._small_primes()[1])
    assert type(next(iter(arith.factorize(6).factors))) is int
    assert type(arith.primes_up_to(10)[-1]) is int


def test_import_leaves_the_small_prime_table_unbuilt():
    import os
    import pathlib
    import subprocess
    code = ("import campana; from campana import arith;"
            "print(arith._small_primes_cache is None)")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(arith.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True"]


@settings(max_examples=300)
@given(st.one_of(
    st.integers(min_value=-10**3, max_value=2 * 10**6),
    st.sampled_from([0, 1, 2, 999_983, 999_999, 10**6, 1_000_003]),
    st.integers(min_value=-10**3, max_value=2 * 10**6).map(np.int64),
    st.integers(min_value=0, max_value=4 * 10**9).map(np.uint32),
    st.booleans()))
def test_is_prime_matches_sympy(n):
    assert arith.is_prime(n) is (int(n) > 1 and sympy.isprime(int(n)))


@functools.cache
def _sympy_primes():
    return list(sympy.primerange(arith.TRIAL_DIVISION_BOUND))


@settings(deadline=None)  # the first example sieves the sympy reference
@given(st.integers(min_value=-10, max_value=arith.TRIAL_DIVISION_BOUND - 1))
def test_primes_up_to_matches_sympy_and_holds_ints(n):
    ps = arith.primes_up_to(n)
    assert type(ps) is list and all(type(p) is int for p in ps)
    want = _sympy_primes()
    assert ps == want[: bisect.bisect_right(want, n)]


@pytest.mark.parametrize("n", [0, 1, -1, -2, -3, -999_983, -(10**30)])
def test_is_prime_below_two_is_false(n):
    assert arith.is_prime(n) is False


def test_next_prime():
    assert arith.next_prime(0) == 2
    assert arith.next_prime(2) == 3
    assert arith.next_prime(89) == 97


@given(st.integers(min_value=2, max_value=10**9))
def test_factorize_round_trip(n):
    fac = arith.factorize(n)
    assert _value(fac) == n
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
        assert _value(arith.factorize(q)) == q


def test_valuation_examples():
    assert arith.valuation(12, 2) == 2
    assert arith.valuation(Fraction(9, 2), 3) == 2
    assert arith.valuation(Fraction(5, 8), 2) == -3
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


def test_an_exact_power_past_the_bit_bound_is_refused():
    bound = arith.POWER_BITS
    assert arith._power(2, bound - 1).bit_length() == bound
    assert arith._power(Fraction(-3, 2), bound - 1).denominator.bit_length() == bound
    for x, k in [(2, bound), (-3, bound), (Fraction(1, 2), bound), (Fraction(3, 5), bound // 2),
                 (2**64, 10**40)]:
        with pytest.raises(ValueError, match="POWER_BITS"):
            arith._power(x, k)
    # a base of at most one bit has a power of at most one bit
    for x in (0, 1, -1):
        assert arith._power(x, 10**40 + 1) == x
