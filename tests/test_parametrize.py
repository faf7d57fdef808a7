import collections
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from campana import arith, parametrize as pz, places
from campana.errors import InvariantError, SearchExhausted


def test_uniformizer_product():
    y = pz.uniformizer_product([3, 5])
    for p in (3, 5):
        assert arith.valuation(y, p) == 1
    with pytest.raises(ValueError):
        pz.uniformizer_product([])


def test_uniformizer_product_invariant_raises(monkeypatch):
    monkeypatch.setattr(pz.arith, "split_power", lambda n, p: (2, n))
    with pytest.raises(InvariantError):
        pz.uniformizer_product([3, 5])


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
    # the generators -1, 2, 3, 5 solve S = {3, 5}, with no helper prime
    cfg = pz.SearchConfig(candidate_cap=1)
    assert places.delta(15, pz.find_b(15, [3, 5], cfg)) == places.PlaceSet.of_primes([3, 5])
    assert cfg.steps == 0
    # S = {2, 17} takes one helper; calls that share a config share its cap
    pz.find_b(34, [2, 17], cfg)
    assert cfg.steps == 1
    with pytest.raises(SearchExhausted):
        pz.find_b(34, [2, 17], cfg)


def test_find_b_stops_when_the_auxiliary_primes_run_out():
    # no product of -1, 2 and 17 works for S = {2, 17}; the first helper
    # prime, 3 (34 is a square mod 3), is b
    cfg = pz.SearchConfig()
    assert pz.find_b(34, [2, 17], cfg) == 3
    assert cfg.steps == 1
    with pytest.raises(SearchExhausted):
        pz.find_b(34, [2, 17], pz.SearchConfig(candidate_cap=0))


@given(st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**4), st.data())
@settings(max_examples=150, deadline=None)
def test_find_b_meets_its_target(num, den, data):
    a = Fraction(num, den)
    candidates = [p for p in arith.primes_up_to(60) if not arith.is_square_local(a, p)]
    S = data.draw(st.lists(st.sampled_from(candidates), unique=True, max_size=10)
                  if candidates else st.just([]))
    S = S[: len(S) // 2 * 2]
    b = pz.find_b(a, S)
    assert places.delta(a, b) == places.PlaceSet.of_primes(S)


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


@pytest.mark.parametrize("config", [5, "cfg", {"candidate_cap": 5}])
@pytest.mark.parametrize("call", [
    lambda cfg: pz.find_b(3, [5, 7], cfg),
    lambda cfg: pz.construct_even([2, 3], cfg),
    lambda cfg: pz.construct_odd([7], cfg),
    lambda cfg: pz.construct_omega([2, 3], cfg),
    lambda cfg: pz.construct_omega([], cfg),
], ids=["find_b", "construct_even", "construct_odd", "construct_omega", "construct_omega[]"])
def test_a_config_that_is_not_a_search_config_is_a_value_error(call, config):
    # construct_omega([2, 3], 5) raised AttributeError
    with pytest.raises(ValueError, match="SearchConfig"):
        call(config)


@pytest.mark.parametrize("S", [[3, 5, 7, 11], [3, 5, 7]], ids=["even", "odd"])
def test_construct_omega_proves_each_prime_of_S_once(monkeypatch, S):
    proofs = collections.Counter()
    prime = arith.prime
    monkeypatch.setattr(arith, "prime", lambda p: proofs.update([p]) or prime(p))
    report = pz.construct_omega(S)
    assert report.success
    assert {p: proofs[p] for p in S} == dict.fromkeys(S, 1)
    # next_prime has proved the auxiliary primes of an odd |S| already
    assert all(proofs[q] <= 1 for q in report.auxiliary_primes)


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


def test_construct_omega_five_primes():
    # raised SearchExhausted when a was a CRT product of uniformizers
    for cfg in (None, pz.SearchConfig(candidate_cap=30_000)):
        report = pz.construct_omega([2, 3, 5, 7, 11], cfg)
        assert report.success
        assert places.omega(report.a, report.b, report.c, report.d) == \
            places.PlaceSet.of_primes([2, 3, 5, 7, 11])


@given(st.lists(st.sampled_from(arith.primes_up_to(200)), max_size=7, unique=True))
@example([13, 17, 23, 89, 137, 139, 151])  # seven primes, four above 100
@settings(max_examples=150, deadline=None)
def test_construct_omega_small_support(S):
    cfg = pz.SearchConfig(candidate_cap=30_000)
    report = pz.construct_omega(S, cfg)
    assert report.success
    assert places.omega(report.a, report.b, report.c, report.d) == \
        places.PlaceSet.of_primes(S)
    assert report.search_steps <= 30_000
    # a and c have no prime factor outside S and the auxiliaries, so
    # find_b's symbol system has |S| + 2 rows at most
    allowed = set(S) | set(report.auxiliary_primes)
    for x in (report.a, report.c):
        assert set(arith.factorize(x).factors) <= allowed


@pytest.mark.parametrize("k", [12, 16, 20, 30, 40, 41])
def test_construct_omega_scales_with_S(k):
    # the odd primes from 3 up; b is a product of distinct generators
    S = arith.primes_up_to(200)[1:k + 1]
    t0 = time.monotonic()
    report = pz.construct_omega(S)
    assert time.monotonic() - t0 < 0.5
    assert report.success
    assert places.omega(report.a, report.b, report.c, report.d) == \
        places.PlaceSet.of_primes(S)
    assert set(arith.factorize(report.b).factors.values()) == {1}
