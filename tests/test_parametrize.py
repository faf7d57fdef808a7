import random
import time
from fractions import Fraction

import pytest

from campana import arith, parametrize as pz, places
from campana.errors import InvariantError, SearchExhausted


def test_uniformizer_product():
    y = pz.uniformizer_product([3, 5])
    for p in (3, 5):
        assert arith.valuation(y, p) == 1
    with pytest.raises(ValueError):
        pz.uniformizer_product([])


def test_uniformizer_product_invariant_raises(monkeypatch):
    monkeypatch.setattr(pz.arith, "valuation", lambda a, p: 2)
    with pytest.raises(InvariantError):
        pz.uniformizer_product([3, 5])


def test_generator_mod_invariant_raises(monkeypatch):
    # with 1 as the only "prime factor" of q - 1, no g passes the test
    monkeypatch.setattr(pz.arith, "_factor_int", lambda n: {1: 1})
    with pytest.raises(InvariantError):
        pz._generator_mod(7)


def test_find_b_reverification_raises(monkeypatch):
    monkeypatch.setattr(pz.places, "delta", lambda a, b: places.PlaceSet())
    with pytest.raises(InvariantError):
        pz.find_b(pz.uniformizer_product([3, 5]), [3, 5])


def test_construct_odd_invariant_raises(monkeypatch):
    monkeypatch.setattr(pz.arith, "is_square_local", lambda a, p: True)
    with pytest.raises(InvariantError):
        pz.construct_odd([3])


def test_find_b_small_examples():
    for S in ([3, 5], [2, 3], [3, 7], [2, 5, 7, 11]):
        a = pz.uniformizer_product(S)
        b = pz.find_b(a, S)
        assert places.delta(a, b) == places.PlaceSet.of_primes(S)


def test_find_b_rejects_bad_precondition():
    # |S| odd can never be a ramification set
    with pytest.raises(ValueError):
        pz.find_b(3, [3])
    # a must be a local nonsquare at every p in S
    with pytest.raises(ValueError):
        pz.find_b(1, [3, 5])


def test_find_b_respects_candidate_cap():
    cfg = pz.SearchConfig(candidate_cap=1)
    with pytest.raises(SearchExhausted):
        pz.find_b(pz.uniformizer_product([3, 5]), [3, 5], cfg)


def test_construct_even():
    a, b = pz.construct_even([3, 5])
    assert places.delta(a, b) == places.PlaceSet.of_primes([3, 5])
    a, b = pz.construct_even([])
    assert places.delta(a, b).primes() == ()


def test_construct_odd():
    a, b, aux = pz.construct_odd([3])
    assert places.delta(a, b) == places.PlaceSet.of_primes([3, aux])
    assert aux not in (2, 3)
    assert arith.valuation(a, 3) == 1
    assert arith.valuation(a, aux) == 2
    assert not arith.is_square_local(arith.unit_part(a, aux), aux)
    # avoid forces a different auxiliary prime
    _, _, aux2 = pz.construct_odd([3], avoid=(aux,))
    assert aux2 != aux


def test_construct_omega_round_trip():
    for S in ([], [3, 5], [2], [5], [2, 3, 5], [97], [2, 89, 97]):
        report = pz.construct_omega(S)
        assert report.success
        assert places.omega(report.a, report.b, report.c, report.d) == \
            places.PlaceSet.of_primes(S)
        assert report.achieved.primes() == tuple(sorted(S))
        assert report.search_steps >= 0


def test_construct_omega_even_uses_one_pair():
    report = pz.construct_omega([3, 5])
    assert (report.a, report.b) == (report.c, report.d)
    assert report.auxiliary_primes == []


def test_construct_omega_odd_uses_distinct_aux():
    report = pz.construct_omega([3])
    assert len(report.auxiliary_primes) == 2
    assert report.auxiliary_primes[0] != report.auxiliary_primes[1]
    assert (report.a, report.b) != (report.c, report.d)


def test_report_to_dict_shape():
    report = pz.construct_omega([2, 7])
    d = report.to_dict()
    assert sorted(d) == ["a", "achieved", "aux", "b", "c", "d",
                         "search_steps", "target"]
    for key in "abcd":
        assert isinstance(d[key], str)
        Fraction(d[key])  # parses back
    assert d["target"] == [2, 7]
    assert d["achieved"] == [2, 7]


def test_construct_omega_rejects_composites():
    with pytest.raises(ValueError):
        pz.construct_omega([4])
    with pytest.raises(ValueError):
        pz.construct_omega([1])


def test_construct_omega_random_sets_fast():
    rng = random.Random(11)
    pool = [p for p in arith.primes_up_to(100)]
    for _ in range(15):
        S = sorted(rng.sample(pool, rng.randint(0, 4)))
        t0 = time.monotonic()
        report = pz.construct_omega(S)
        assert time.monotonic() - t0 < 5.0
        assert report.success
        assert places.omega(report.a, report.b, report.c, report.d) == \
            places.PlaceSet.of_primes(S)


def test_deadline_enforced():
    cfg = pz.SearchConfig(deadline=time.monotonic() - 1)
    with pytest.raises(SearchExhausted):
        pz.construct_omega([3, 5], cfg)
