import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from campana import arith, places
from campana.errors import SearchExhausted
from campana.places import PlaceSet, REAL_PLACE, Place


nonzero_small = st.fractions(
    min_value=Fraction(-200), max_value=Fraction(200), max_denominator=50
).filter(lambda q: q != 0)
place_st = st.sampled_from(["inf", 2, 3, 5, 7, 11, 13])


def test_place_type():
    assert Place(7).prime == 7
    assert REAL_PLACE.is_real
    for bad in (8, 1, 7.0, "7", Fraction(7)):
        with pytest.raises(ValueError):
            Place(bad)
    assert sorted([Place(5), REAL_PLACE, Place(2)]) == [REAL_PLACE, Place(2), Place(5)]


def test_place_set_canonical():
    s = PlaceSet(["inf", 7, 2, 7])
    assert repr(s) == "{inf, 2, 7}"
    assert s.primes() == (2, 7)
    assert 7 in s and "inf" in s and 3 not in s
    assert (s & PlaceSet([7, 3])) == PlaceSet([7])
    assert (PlaceSet([2]) | PlaceSet([3])) == PlaceSet([3, 2])
    assert PlaceSet([2]).isdisjoint(PlaceSet([3, "inf"]))


def test_hilbert_examples():
    assert places.hilbert(-1, -1, "inf") == -1
    assert places.hilbert(2, 5, 5) == -1
    for a in (2, -3, Fraction(5, 7), -1):
        for v in ("inf", 2, 3, 5):
            assert places.hilbert(a, 1, v) == 1
    with pytest.raises(ValueError):
        places.hilbert(0, 1, 2)


def test_composite_prime_is_a_value_error():
    for call in (
        lambda: arith.valuation(Fraction(3, 4), 6),
        lambda: places.hilbert(2, 3, 6),
        lambda: places.hilbert_oracle(2, 3, 6, 3),
        lambda: places.default_oracle_precision(2, 3, 6),
        lambda: arith.is_square_local(2, 6),
    ):
        with pytest.raises(ValueError):
            call()


def test_hilbert_place_forms():
    assert places.hilbert(2, 5, Place(5)) == places.hilbert(2, 5, 5) == -1
    for v in (REAL_PLACE, "inf", None):
        assert places.hilbert(-1, -1, v) == -1
        assert places.hilbert(-1, 3, v) == 1
    for bad in (1, 0, -5, 9, 7.0, "7", "oo", Fraction(7), object()):
        with pytest.raises(ValueError):
            places.hilbert(2, 5, bad)
        with pytest.raises(ValueError):
            arith.is_square_local(2, bad)


def _rational_at(p):
    """sign * p^i * n/d with n, d coprime to p most of the time."""
    return st.builds(
        lambda s, i, n, d: s * Fraction(p) ** i * Fraction(n, d),
        st.sampled_from([1, -1]), st.integers(-3, 3),
        st.integers(1, 10**4), st.integers(1, 10**4))


@given(st.sampled_from(arith.primes_up_to(200)).flatmap(
    lambda p: st.tuples(st.just(p), _rational_at(p), _rational_at(p))))
@settings(max_examples=300)
def test_fixed_a_fast_path_matches_hilbert(case):
    p, a, b = case
    alpha, u = places.local_data(a.numerator * a.denominator, p)
    beta, w = arith.split_power(b.numerator * b.denominator, p)
    assert places.local_symbol(p, alpha, u, beta, w) == places.hilbert(a, b, p)


def _legendre_reference(a, b, p):
    """(a,b)_p = (-1)^(alpha beta (p-1)/2) (u|p)^beta (w|p)^alpha, odd p."""
    def split(r):
        v, num, den = 0, r.numerator, r.denominator
        while num % p == 0:
            num, v = num // p, v + 1
        while den % p == 0:
            den, v = den // p, v - 1
        return v, num * den  # (num/den | p) = (num*den | p)

    alpha, u = split(a)
    beta, w = split(b)
    s = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
    if beta % 2:
        s *= sympy.legendre_symbol(u % p, p)
    if alpha % 2:
        s *= sympy.legendre_symbol(w % p, p)
    return s


@given(st.integers(arith.TRIAL_DIVISION_BOUND, 10**12).map(sympy.nextprime).flatmap(
    lambda p: st.tuples(st.just(p), _rational_at(p), _rational_at(p))))
@settings(max_examples=300)
def test_hilbert_above_the_lookup_bound_matches_legendre(case):
    p, a, b = case
    assert places.hilbert(a, b, p) == _legendre_reference(a, b, p)


def test_hilbert_oracle_examples():
    assert places.hilbert_oracle(2, 5, 5, 3) == -1
    assert places.hilbert_oracle(1, 1, 3, 3) == 1
    assert places.hilbert_oracle(-1, -1, 2, 5) == -1
    with pytest.raises(ValueError):
        places.hilbert_oracle(2, 5, 5, 2)  # precision below the Hensel bound


def test_hilbert_matches_oracle_sampled():
    rng = random.Random(17)
    for _ in range(400):
        a = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        p = rng.choice([2, 3, 5, 7, 11, 13, 17])
        prec = places.default_oracle_precision(a, b, p)
        assert places.hilbert(a, b, p) == places.hilbert_oracle(a, b, p, prec), (a, b, p)


@given(nonzero_small, nonzero_small, place_st)
@settings(max_examples=200)
def test_hilbert_symmetric(a, b, v):
    assert places.hilbert(a, b, v) == places.hilbert(b, a, v)


@given(nonzero_small, nonzero_small, nonzero_small, place_st)
@settings(max_examples=200)
def test_hilbert_multiplicative(a, b1, b2, v):
    lhs = places.hilbert(a, b1 * b2, v)
    assert lhs == places.hilbert(a, b1, v) * places.hilbert(a, b2, v)


@given(nonzero_small, nonzero_small, place_st)
@settings(max_examples=150)
def test_hilbert_square_invariance(a, c, v):
    assert places.hilbert(a, c * c, v) == 1


@given(nonzero_small, place_st)
def test_hilbert_a_minus_a(a, v):
    assert places.hilbert(a, -a, v) == 1


def test_odd_support_examples():
    assert places.odd_support(1155) == PlaceSet([3, 5, 7, 11])
    assert places.odd_support(Fraction(4, 9)) == PlaceSet([])
    assert places.odd_support(Fraction(1, 8)) == PlaceSet([2])
    with pytest.raises(ValueError):
        places.odd_support(0)


def test_delta_examples():
    assert places.delta(1, 1) == PlaceSet([])
    assert places.delta(-1, -1) == PlaceSet(["inf", 2])
    assert Place(5) in places.delta(2, 5)


def test_delta_upper_and_omega():
    assert places.delta_upper(1, 1) == PlaceSet([])
    assert places.delta_upper(-1, -1) == PlaceSet([])  # -1 has empty odd support
    assert places.omega(1, 1, 1, 1) == PlaceSet([])
    assert places.omega(3, 5, 1, 1) == PlaceSet([])


@given(nonzero_small, nonzero_small)
@settings(max_examples=200)
def test_delta_even_cardinality_and_reciprocity(a, b):
    assert len(places.delta(a, b)) % 2 == 0
    assert places.reciprocity_check(a, b)


def test_reciprocity_examples():
    assert places.reciprocity_check(-1, -1)
    assert places.reciprocity_check(1, Fraction(77, 30))


def test_symbol_trivial_off_scan_set():
    rng = random.Random(5)
    for _ in range(100):
        a = rng.randint(-300, 300) or 1
        b = rng.randint(-300, 300) or 1
        p = arith.next_prime(rng.randint(300, 5000))
        assert places.hilbert(a, b, p) == 1


def test_find_local_counterexample():
    assert places.find_local_counterexample(-1, "inf") == -1
    b = places.find_local_counterexample(5, 5)
    assert places.hilbert(5, b, 5) == -1
    with pytest.raises(ValueError):
        places.find_local_counterexample(2, 7)  # 2 is a square in Q_7


@given(nonzero_small, place_st)
@settings(max_examples=150)
def test_prop_lin_both_directions(a, v):
    if arith.is_square_local(a, v):
        for b in (-1, 2, 3, 5, -30):
            assert places.hilbert(a, b, v) == 1
    else:
        b = places.find_local_counterexample(a, v)
        assert places.hilbert(a, b, v) == -1
