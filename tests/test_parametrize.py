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


def test_construct_omega_aux_invariant_raises(monkeypatch):
    # the unit of a at its auxiliary prime is read as a square
    monkeypatch.setattr(pz.arith, "_is_square_at", lambda a, p: True)
    with pytest.raises(InvariantError):
        pz.construct_omega([3])


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


def check_report(S, report):
    """Each pair (a, b) of the report ramifies exactly on S and its
    auxiliary prime, if any, with valuation 1 in a on S and valuation 2 and
    a nonsquare unit at the auxiliary; the auxiliaries are distinct."""
    pairs = [(report.a, report.b), (report.c, report.d)]
    aux = report.auxiliary_primes
    if len(S) % 2 == 0:
        assert aux == [] and pairs[0] == pairs[1]
    else:
        assert len(aux) == 2 and aux[0] != aux[1]
    for (a, b), extra in zip(pairs, aux or [None, None]):
        ramified = set(S) | ({extra} if extra else set())
        assert places.delta(a, b) == places.PlaceSet.of_primes(ramified)
        assert all(arith.valuation(a, p) == 1 for p in S)
        if extra:
            assert extra not in S and extra != 2
            assert arith.valuation(a, extra) == 2
            assert not arith.is_square_local(arith.unit_part(a, extra), extra)
    assert report.success
    assert report.achieved == places.PlaceSet.of_primes(S)


@given(st.lists(st.sampled_from(arith.primes_up_to(100)), max_size=6, unique=True))
@settings(max_examples=100, deadline=None)
def test_construct_omega_pairs_meet_their_definition(S):
    check_report(S, pz.construct_omega(S))


#: construct_omega(S).to_dict() for fixed S: a change in the choice of a,
#: b, the auxiliary primes or the step count shows here
PINNED = {
    (): ("1", "1", "1", "1", 0, []),
    (2,): ("18", "3", "50", "5", 0, [3, 5]),
    (3,): ("75", "5", "147", "-7", 0, [5, 7]),
    (3, 5): ("15", "2", "15", "2", 0, []),
    (2, 3, 5): ("3630", "-22", "15870", "23", 0, [11, 23]),
    (97,): ("2425", "5", "4753", "7", 0, [5, 7]),
    (2, 89, 97): ("2089186", "165", "2917954", "13", 2, [11, 13]),
    (3, 5, 7, 11, 13): ("7942935", "138", "14429415", "930", 0, [23, 31]),
}


# () checks that the empty set gives an empty delta
@pytest.mark.parametrize("S", sorted(PINNED), ids=str)
def test_construct_omega_pairs_ramify_on_S_and_the_auxiliaries(S):
    check_report(S, pz.construct_omega(S))


@pytest.mark.parametrize("S", sorted(PINNED), ids=str)
def test_construct_omega_is_pinned(S):
    a, b, c, d, steps, aux = PINNED[S]
    assert pz.construct_omega(list(S)).to_dict() == {
        "a": a, "b": b, "c": c, "d": d, "target": list(S), "achieved": list(S),
        "search_steps": steps, "aux": aux}


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


# each search that takes a config, called with one
searches = pytest.mark.parametrize("call", [
    lambda cfg: pz.find_b(3, [5, 7], cfg),
    lambda cfg: pz.construct_omega([2, 3], cfg),
    lambda cfg: pz.construct_omega([], cfg),
], ids=["find_b", "construct_omega", "construct_omega[]"])


@pytest.mark.parametrize("config", [5, "cfg", {"candidate_cap": 5}])
@searches
def test_a_config_that_is_not_a_search_config_is_a_value_error(call, config):
    # construct_omega([2, 3], 5) raised AttributeError
    with pytest.raises(ValueError, match="SearchConfig"):
        call(config)


@pytest.mark.parametrize("cap", ["5", None, 2.5])
@searches
def test_a_cap_assigned_after_construction_is_read_by_the_gate(call, cap):
    cfg = pz.SearchConfig()
    cfg.candidate_cap = cap
    with pytest.raises(ValueError, match="candidate_cap"):
        call(cfg)


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
