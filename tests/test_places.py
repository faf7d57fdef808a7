import copy
import pickle
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import campana
from campana import arith, kernels, parametrize, places
from campana.places import PlaceSet


nonzero_small = st.fractions(
    min_value=Fraction(-200), max_value=Fraction(200), max_denominator=50
).filter(lambda q: q != 0)
place_st = st.sampled_from(["inf", 2, 3, 5, 7, 11, 13])


def test_a_place_is_a_prime_or_the_real_place():
    assert list(PlaceSet([5, "inf", 2])) == list(PlaceSet([2, None, 5])) == [None, 2, 5]
    for bad in (8, 1, 7.0, "7", Fraction(7)):
        with pytest.raises(ValueError):
            PlaceSet([bad])


def test_place_set_canonical():
    s = PlaceSet(["inf", 7, 2, 7])
    assert repr(s) == "{inf, 2, 7}"
    assert s.primes() == (2, 7)
    assert 7 in s and "inf" in s and 3 not in s
    assert (s & PlaceSet([7, 3])) == PlaceSet([7])
    assert (PlaceSet([2]) | PlaceSet([3])) == PlaceSet([3, 2])
    assert PlaceSet([2]).isdisjoint(PlaceSet([3, "inf"]))


_model_primes = [2, 3, 5, 7, 11, 13, 10**9 + 7]
_REAL = (None, "inf")
# a place as a prime int, or the real place as None or "inf"
_model_place = st.sampled_from([*_REAL, *_model_primes])


def _model(items):
    """(whether the real place is in items, the frozenset of their primes)."""
    return any(v in _REAL for v in items), frozenset(v for v in items if v not in _REAL)


def _model_places(real, primes):
    return [None] * real + sorted(primes)


@given(st.lists(_model_place, max_size=8), st.lists(_model_place, max_size=8),
       st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_place_set_agrees_with_a_set_model(items, other_items, rnd):
    s, t = PlaceSet(items), PlaceSet(other_items)
    (real, primes), (other_real, other_primes) = _model(items), _model(other_items)
    assert len(s) == real + len(primes)
    assert list(s) == _model_places(real, primes)
    assert s.primes() == tuple(sorted(primes))
    assert repr(s) == "{" + ", ".join(["inf"] * real + [str(p) for p in sorted(primes)]) + "}"
    for v in [*_REAL, *_model_primes]:
        assert (v in s) == (real if v in _REAL else v in primes)
    assert PlaceSet(list(s)) == s
    shuffled = list(items)
    rnd.shuffle(shuffled)
    assert PlaceSet(shuffled) == s and hash(PlaceSet(shuffled)) == hash(s)
    same = (real, primes) == (other_real, other_primes)
    assert (s == t) == same and (not same or hash(s) == hash(t))
    assert list(s | t) == _model_places(real or other_real, primes | other_primes)
    assert list(s & t) == _model_places(real and other_real, primes & other_primes)
    assert s.isdisjoint(t) == (not (real and other_real) and not primes & other_primes)
    copied = pickle.loads(pickle.dumps(s))
    assert copied == s and list(copied) == list(s) and hash(copied) == hash(s)


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
    assert places.hilbert(2, 5, 5) == -1
    for v in ("inf", None):
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


def _oracle_case(p):
    """p, and integers a, b with v_p at most 1, which the oracle scans as
    they are: then m = 2 * (v_p(2) + max(v_p(a), v_p(b))) + 1."""
    # small values, so that classes repeat across primes and examples
    unit_or_p = st.one_of(st.integers(-60, 60), st.integers(-10**6, 10**6)).filter(
        lambda n: n % (p * p))
    return st.tuples(st.just(p), unit_or_p, unit_or_p,
                     st.integers(-3, 3), st.integers(-3, 3))


@given(st.sampled_from(arith.primes_up_to(50)).flatmap(_oracle_case))
@settings(max_examples=300)
def test_the_oracle_memo_answers_each_class_as_the_kernel_does(case):
    p, a, b, j, k = case
    m = 2 * ((p == 2) + max(a % p == 0, b % p == 0)) + 1
    M = p ** m
    precision = places.default_oracle_precision(a, b, p)
    kernel = kernels.conic_has_solution
    # one class: shifted by multiples of p^m, and swapped
    pairs = [(a, b), (a + j * M, b + k * M), (b, a), (b + k * M, a + j * M)]
    calls = []
    # the memo is kept from earlier examples, so a wrongly keyed entry shows
    before = campana.memos()["places._scan_class"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "conic_has_solution",
                   lambda *args: calls.append(args) or kernel(*args))
        for x, y in pairs:
            assert places.default_oracle_precision(x, y, p) == precision
            got = places.hilbert_oracle(x, y, p, precision)
            assert got == (1 if kernel(x, y, p, m) else -1), (x, y)
            with pytest.raises(ValueError):  # checked before the lookup
                places.hilbert_oracle(x, y, p, 2)
    after = campana.memos()["places._scan_class"]
    assert len(calls) == after.misses - before.misses <= 1
    assert after.hits - before.hits == len(pairs) - len(calls)


@given(st.sampled_from(arith.primes_up_to(47)),
       *[st.integers(-10**4, 10**4).filter(bool), st.integers(0, 4)] * 2)
@settings(max_examples=200)
def test_oracle_precision_past_the_gate_changes_no_answer(p, x, i, y, j):
    a, b = x * p**i, y * p**j
    va, vb = (arith.split_power(arith.square_class(r, "r"), p)[0] for r in (a, b))
    gate = max(3, 2 * max(va, vb) + (3 if p == 2 else 1))
    want = places.hilbert_oracle(a, b, p, places.default_oracle_precision(a, b, p))
    for k in range(gate, gate + 11):
        assert places.hilbert_oracle(a, b, p, k) == want, k
    for k in range(gate):
        with pytest.raises(ValueError):
            places.hilbert_oracle(a, b, p, k)


def test_the_oracle_memo_keeps_primes_apart():
    # small residues recur at every prime, with different symbols
    values = [n for n in range(-20, 21) if n]
    for p in arith.primes_up_to(13):
        for a in values:
            for b in values:
                prec = places.default_oracle_precision(a, b, p)
                assert places.hilbert_oracle(a, b, p, prec) == places.hilbert(a, b, p)


def test_the_oracle_pair_proves_p_once(monkeypatch):
    calls = []
    is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    for p in (2, 3, 47):
        a, b = Fraction(6 * p, 35), -p * p * 5
        # a scan class not yet memoized runs the conic kernel, whose own gate
        # proves p once more
        for scanned, want in ((False, [p, p]), (True, [p])):
            places._last_cleared.cache_clear()
            if not scanned:
                places._scan_class.cache_clear()
            calls.clear()
            symbol = places.hilbert_oracle(
                a, b, p, places.default_oracle_precision(a, b, p))
            assert calls == want
            assert symbol == places.hilbert(a, b, p)


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


def test_delta_examples():
    assert places.delta(1, 1) == PlaceSet([])
    assert places.delta(-1, -1) == PlaceSet(["inf", 2])
    assert 5 in places.delta(2, 5)


def test_delta_upper_and_omega():
    assert places.delta_upper(1, 1) == PlaceSet([])
    assert places.delta_upper(-1, -1) == PlaceSet([])  # -1 has empty odd support
    assert places.omega(1, 1, 1, 1) == PlaceSet([])
    assert places.omega(3, 5, 1, 1) == PlaceSet([])


@given(nonzero_small, nonzero_small, nonzero_small, nonzero_small)
@settings(max_examples=200)
def test_delta_upper_and_omega_match_their_definitions(a, b, c, d):
    odd = PlaceSet(p for x in (a, b) for p, e in arith.factorize(x).factors.items() if e % 2)
    upper = places.delta(a, b) & odd
    assert places.delta_upper(a, b) == upper
    assert places.omega(a, b, c, d) == upper & places.delta_upper(c, d)
    assert places.omega(a, b, a, b) == upper


def test_each_value_is_factorized_once_per_call(monkeypatch):
    seen = []
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda r: seen.append(r) or factorize(r))
    x, y = Fraction(-1155, 8), Fraction(98, 3)
    for call, args, count in ((places.delta, (x, y), 2),
                              (places.delta_upper, (x, y), 2),
                              (places.omega, (x, y, 6, -35), 4),
                              (places.omega, (x, y, x, y), 2),
                              (places.reciprocity_check, (x, y), 2)):
        seen.clear()
        places._pair.cache_clear()
        call(*args)
        assert len(seen) == count, call.__name__


def test_the_views_of_one_pair_factorize_it_once(monkeypatch):
    seen = []
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda r: seen.append(r) or factorize(r))
    x, y = Fraction(-1155, 8), Fraction(98, 3)
    places.delta(x, y)
    places.delta_upper(x, y)
    places.omega(x, y, 6, -35)
    places.reciprocity_check(x, y)
    assert seen == [x, y, 6, -35]


def test_place_set_refuses_assignment():
    s = places.omega(6, 35, 6, 35)
    before = s.primes()
    for slot, value in (("_real", True), ("_primes", ())):
        with pytest.raises(AttributeError):
            setattr(s, slot, value)
        with pytest.raises(AttributeError):
            delattr(s, slot)
    with pytest.raises(AttributeError):
        s.extra = 1
    assert s.primes() == before
    assert places.omega(6, 35, 6, 35).primes() == before
    assert pickle.loads(pickle.dumps(s)) == s and copy.deepcopy(s) == s


@pytest.mark.parametrize("other", [{3}, [3], None, 3, "inf"], ids=repr)
def test_place_set_operators_refuse_what_is_not_a_place_set(other):
    s = places.PlaceSet([2])
    for op in (lambda: s | other, lambda: s & other, lambda: other | s, lambda: other & s):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()
    with pytest.raises(ValueError, match="takes a PlaceSet"):
        s.isdisjoint(other)
    assert s | places.PlaceSet([3, None]) == places.PlaceSet([None, 2, 3])
    assert (s & places.PlaceSet([2, 5])).primes() == (2,)
    assert s.isdisjoint(places.PlaceSet([3])) and not s.isdisjoint(s)


# a small pool, so that drawn quadruples repeat, with each integer drawn
# both as an int and as a Fraction
_memo_pool = [Fraction(v) for v in (-35, -10, -6, -1, 1, 2, 3, 5, 6, 15)] + [
    Fraction(98, 3), Fraction(-1155, 8), Fraction(5, 12)]
_memo_value = st.builds(lambda q, as_int: int(q) if as_int and q.denominator == 1 else q,
                        st.sampled_from(_memo_pool), st.booleans())
_memo_quadruple = st.tuples(_memo_value, _memo_value, _memo_value, _memo_value)


@given(st.lists(_memo_quadruple, min_size=1, max_size=10))
@settings(max_examples=60)
def test_memoized_omega_equals_the_computation(quadruples):
    def computed(q):
        return places._omega.__wrapped__(*map(Fraction, q))

    for q in quadruples + quadruples:
        assert places.omega(*q) == computed(q)
    # more distinct keys than the memo holds, so every drawn key is evicted
    for k in range(places.OMEGA_CACHE_SIZE + 1):
        places.omega(k + 1, -1, k + 1, -1)
    assert campana.memos()["places._omega"].entries == places.OMEGA_CACHE_SIZE
    for q in quadruples:
        assert places.omega(*q) == computed(q)


def test_equal_values_share_one_memo_entry():
    places.omega(3, 5, 3, 5)
    hits = campana.memos()["places._omega"].hits
    assert places.omega(Fraction(3), Fraction(10, 2), 3, np.int64(5)) == PlaceSet([3, 5])
    assert campana.memos()["places._omega"].hits == hits + 1


def test_omega_errors_are_not_memoized():
    for _ in range(2):
        with pytest.raises(ValueError):
            places.omega(0, 1, 1, 1)
        with pytest.raises(ValueError):
            places.omega(1, 1, 1, float("nan"))


def test_threads_sharing_the_omega_memo_get_the_computed_sets():
    workers = 4
    # more keys than the memo holds, so the threads also evict each other's
    keys = [(k, -1, k, -1) for k in range(1, places.OMEGA_CACHE_SIZE + 40)]
    start = threading.Barrier(workers)
    errors = []

    def work(order):
        try:
            start.wait(timeout=60)
            for _ in range(3):
                for q in order:
                    if places.omega(*q) != places._omega.__wrapped__(*map(Fraction, q)):
                        errors.append(q)
        except Exception as exc:  # a thread cannot raise into the test
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(keys[::1 if i % 2 else -1],))
                   for i in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads) and not errors
    assert campana.memos()["places._omega"].entries == places.OMEGA_CACHE_SIZE


def _count_prime_proofs(monkeypatch):
    """Count arith.is_prime calls made outside arith.factorize."""
    counts = {"inside": 0, "outside": 0}
    depth = [0]
    is_prime, factorize = arith.is_prime, arith.factorize

    def counted_is_prime(n):
        counts["inside" if depth[0] else "outside"] += 1
        return is_prime(n)

    def counted_factorize(r):
        depth[0] += 1
        try:
            return factorize(r)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(arith, "is_prime", counted_is_prime)
    monkeypatch.setattr(arith, "factorize", counted_factorize)
    return counts


def test_primes_from_factorize_are_not_proved_again(monkeypatch):
    counts = _count_prime_proofs(monkeypatch)
    x, y = Fraction(-1155, 8), Fraction(98, 3)
    places.omega(x, y, 6, -35)
    places.delta(x, y)
    places.delta_upper(x, y)
    places.reciprocity_check(x, y)
    assert counts["inside"] > 0
    assert counts["outside"] == 0


def test_a_prime_is_proved_once_per_membership_test(monkeypatch):
    s = PlaceSet.of_primes([3, 5, 7])
    counts = _count_prime_proofs(monkeypatch)
    assert 5 in s
    assert counts["outside"] == 1
    assert 11 not in s
    assert counts["outside"] == 2
    with pytest.raises(ValueError):
        4 in s  # noqa: B015


@given(nonzero_small, nonzero_small)
@settings(max_examples=200)
def test_delta_even_cardinality_and_reciprocity(a, b):
    assert len(places.delta(a, b)) % 2 == 0
    assert places.reciprocity_check(a, b)


_nonzero_int_or_fraction = st.one_of(
    st.integers(-10**6, 10**6).filter(lambda n: n != 0),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
    .filter(lambda q: q != 0))


def _expected_views(a, b):
    """delta(a, b), delta_upper(a, b) and reciprocity_check(a, b) read off
    the public symbol at inf, 2 and the supports."""
    fa, fb = arith.factorize(a).factors, arith.factorize(b).factors
    symbols = {v: places.hilbert(a, b, v) for v in ["inf", *sorted({2, *fa, *fb})]}
    ramified = PlaceSet(v for v, s in symbols.items() if s == -1)
    odd = PlaceSet(p for f in (fa, fb) for p, e in f.items() if e % 2)
    product = 1
    for s in symbols.values():
        product *= s
    return ramified, ramified & odd, product == 1


@given(st.lists(st.tuples(_nonzero_int_or_fraction, _nonzero_int_or_fraction),
                min_size=1, max_size=4))
@settings(max_examples=150)
def test_one_scan_agrees_with_the_public_symbol(pairs):
    want = [_expected_views(a, b) for a, b in pairs]
    # the views of different pairs interleave, so that a stale or wrongly
    # keyed entry of the pair memo would be read
    n = len(pairs)
    for k in range(3 * n):
        i, j = k % n, (2 * k + 1) % n
        (a, b), (c, d) = pairs[i], pairs[j]
        assert places.delta(a, b) == want[i][0]
        assert places.delta_upper(c, d) == want[j][1]
        places._omega.cache_clear()  # so that omega reads the pair memo
        assert places.omega(a, b, c, d) == want[i][1] & want[j][1]
        assert places.reciprocity_check(c, d) == want[j][2]
        assert places.delta_upper(a, b) == want[i][1]


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


def test_find_local_counterexample_proves_v_once(monkeypatch):
    calls = []
    prime = arith.prime
    monkeypatch.setattr(arith, "prime", lambda p: calls.append(p) or prime(p))
    for a, v in ((3, 7), (2, 3), (Fraction(5, 12), 2), (-1, "inf")):
        calls.clear()
        b = places.find_local_counterexample(a, v)
        assert calls == ([] if v == "inf" else [v])
        assert places.hilbert(a, b, v) == -1


#: Odd primes past 5,000, where a scan of b = +-1 .. +-5,000 finds no b
#: when v_p(a) is even
_LARGE_PRIMES = (5003, 10007, 10**9 + 7, 2**61 - 1)


@pytest.mark.parametrize("p", _LARGE_PRIMES)
def test_counterexamples_at_large_primes(p):
    cases = [x for a in (-1, 2, 3, 5, 7) for x in (a, a * p * p, a * p)
             if not arith.is_square_local(x, p)]
    assert len(cases) >= 6
    for a in cases:
        b = places.find_local_counterexample(a, p)
        assert type(b) is Fraction and places.hilbert(a, b, p) == -1, (a, b)


#: (a, v): b, the first b = 1, -1, 2, -2, ... with (a, b)_v = -1; at an
#: odd p with v_p(a) even that first b is the theorem's b = p
_COUNTEREXAMPLE_PINS = {
    (-1, "inf"): -1, (Fraction(-7, 2), "inf"): -1,
    (-1, 2): -1, (3, 2): -1, (5, 2): 2, (6, 2): -1, (Fraction(1, 2), 2): 3,
    (Fraction(-2, 3), 2): 2, (Fraction(7, 4), 2): -1,
    (2, 3): 3, (3, 3): -1, (Fraction(-3, 4), 3): -1,
    (5, 5): 2, (10, 5): 2, (Fraction(2, 9), 5): 5,
    (-1, 7): 7, (7, 7): -1, (-13, 13): 2, (Fraction(-17, 9), 17): 3,
    (-41, 41): 3, (Fraction(59, 12), 59): -1, (2, 997): 997,
    (-1, 4999): 4999, (3, 4999): 4999,
}


def test_counterexamples_keep_their_pinned_values():
    got = {key: places.find_local_counterexample(*key) for key in _COUNTEREXAMPLE_PINS}
    assert got == _COUNTEREXAMPLE_PINS
    assert {type(b) for b in got.values()} == {Fraction}


@given(nonzero_small, st.sampled_from(["inf", 2, 3, 5, 7, 11, 13, *_LARGE_PRIMES]))
@settings(max_examples=150)
def test_prop_lin_both_directions(a, v):
    if arith.is_square_local(a, v):
        for b in (-1, 2, 3, 5, -30):
            assert places.hilbert(a, b, v) == 1
    else:
        b = places.find_local_counterexample(a, v)
        assert places.hilbert(a, b, v) == -1


#: Each function that reads its a (and its b) through arith.square_class:
#: a call on (a, b) with its other arguments valid, and the names it reads.
_SQUARE_CLASS_READERS = {
    "hilbert": (lambda a, b: places.hilbert(a, b, 5), "ab"),
    "hilbert_oracle": (lambda a, b: places.hilbert_oracle(a, b, 5, 9), "ab"),
    "default_oracle_precision":
        (lambda a, b: places.default_oracle_precision(a, b, 5), "ab"),
    "delta": (places.delta, "ab"),
    "delta_upper": (places.delta_upper, "ab"),
    "omega": (lambda a, b: places.omega(a, b, 3, 5), "ab"),
    "reciprocity_check": (places.reciprocity_check, "ab"),
    "find_local_counterexample":
        (lambda a, b: places.find_local_counterexample(a, 5), "a"),
    "arith.is_square_local": (lambda a, b: arith.is_square_local(a, 5), "a"),
    "parametrize.find_b": (lambda a, b: parametrize.find_b(a, [5, 7]), "a"),
}


@pytest.mark.parametrize("name, zero", [
    (name, zero) for name, (_, names) in sorted(_SQUARE_CLASS_READERS.items())
    for zero in names])
def test_a_zero_argument_is_refused_by_name(name, zero):
    # 0 has no square class: each reader refuses it through the one gate
    call, _ = _SQUARE_CLASS_READERS[name]
    args = {"a": 3, "b": 3, zero: 0}
    with pytest.raises(ValueError, match=f"^{zero} must be nonzero$"):
        call(args["a"], args["b"])


@given(nonzero_small, nonzero_small, nonzero_small, place_st)
@settings(max_examples=200)
def test_a_and_a_times_a_square_read_alike(a, b, s, v):
    # a and a s^2 have one square class, which is all the gate passes on
    a2 = a * s * s
    assert places.hilbert(a, b, v) == places.hilbert(a2, b, v)
    assert arith.is_square_local(a, v) == arith.is_square_local(a2, v)
    assert places.delta(a, b) == places.delta(a2, b)
    if v != "inf":
        assert (places.hilbert_oracle(a, b, v, places.default_oracle_precision(a, b, v))
                == places.hilbert_oracle(a2, b, v, places.default_oracle_precision(a2, b, v)))


# delta against an oracle that shares no code with it: by Legendre's theorem
# and Hasse-Minkowski, x^2 = a y^2 + b z^2 has a nonzero rational point iff
# delta(a, b) is empty, and sympy finds such a point or none without a
# Hilbert symbol.

_XYZ = sympy.symbols("x y z", integer=True)


def sympy_point(a: int, b: int):
    """sympy's point on x^2 = a y^2 + b z^2, checked, or None."""
    from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic
    x, y, z = _XYZ
    point = diop_ternary_quadratic(x**2 - a * y**2 - b * z**2)
    if point[0] is None:
        return None
    x, y, z = map(int, point)
    assert (x, y, z) != (0, 0, 0) and x * x == a * y * y + b * z * z, (a, b, point)
    return x, y, z


_signed = st.builds(lambda s, m: s * m, st.sampled_from([-1, 1]),
                    st.sampled_from([10**4, 10**8, 10**12]).flatmap(lambda k: st.integers(1, k)))


@st.composite
def _ternary_pairs(draw):
    """(a, b) up to 10^12: drawn at random, mostly without a point, or made
    solvable, b = X^2 - a Y^2, so that both answers occur."""
    if draw(st.booleans()):
        return draw(_signed), draw(_signed)
    a = draw(st.integers(-10**6, 10**6).filter(bool))
    b = draw(st.integers(0, 7 * 10**5))**2 - a * draw(st.integers(1, 700))**2
    return a, b or a


@given(_ternary_pairs())
@settings(max_examples=150, deadline=None)
def test_delta_is_empty_exactly_where_sympy_finds_a_point(pair):
    a, b = pair
    assert (sympy_point(a, b) is None) == bool(places.delta(a, b)), pair


@given(st.integers(-10**6, 10**6).filter(bool), st.sampled_from(["inf", 2, 3, 5, 7, 10**9 + 7]))
@settings(max_examples=60, deadline=None)
def test_a_local_counterexample_leaves_no_point(a, v):
    if arith.is_square_local(a, v):
        return
    b = places.find_local_counterexample(a, v)
    assert sympy_point(a, int(b)) is None, (a, v, b)
