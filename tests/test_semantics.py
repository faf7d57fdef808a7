import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from campana import arith, places, semantics as sm
from campana.errors import DegenerateSampler, InvariantError, SearchExhausted
from campana.forms import BinaryForm

# (3,5,3,5) has radical place set {3,5}; (-10,-10,-10,-10) has {2};
# (-1,-1,-1,-1) has the empty set (verified through the places module)
OMEGA_35 = (3, 5, 3, 5)
OMEGA_2 = (-10, -10, -10, -10)
OMEGA_EMPTY = (-1, -1, -1, -1)
X_FORM = BinaryForm({(1, 0): 1})  # F = x, the identity divisor case


def test_fixture_omegas():
    assert places.omega(*OMEGA_35).primes() == (3, 5)
    assert places.omega(*OMEGA_2).primes() == (2,)
    assert places.omega(*OMEGA_EMPTY).primes() == ()


def test_in_J_examples():
    assert sm.in_J(*OMEGA_35, 15)
    assert not sm.in_J(*OMEGA_35, 1)
    assert sm.in_J(*OMEGA_35, 0)
    assert sm.in_J(*OMEGA_EMPTY, Fraction(1, 30))  # vacuous


def test_in_Jn_examples():
    a, b = -10, -6  # omega {3}
    assert places.omega(a, b, a, b).primes() == (3,)
    assert sm.in_Jn(a, b, a, b, 2, Fraction(9, 2))
    assert not sm.in_Jn(a, b, a, b, 2, 3)
    with pytest.raises(ValueError):
        sm.in_Jn(a, b, a, b, 0, 3)


@given(st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                    max_denominator=50))
def test_Jn_base_case_is_J(r):
    assert sm.in_Jn(*OMEGA_35, 1, r) == sm.in_J(*OMEGA_35, r)


def test_in_inv_Jn_examples():
    assert sm.in_inv_Jn(*OMEGA_2, 3, Fraction(5, 8))
    assert not sm.in_inv_Jn(*OMEGA_2, 3, Fraction(1, 4))
    assert not sm.in_inv_Jn(*OMEGA_2, 3, 0)


@given(st.fractions(min_value=Fraction(-80), max_value=Fraction(80),
                    max_denominator=80),
       st.integers(min_value=1, max_value=4))
def test_inverse_relation(r, n):
    want = r != 0 and sm.in_Jn(*OMEGA_35, n, 1 / r)
    assert sm.in_inv_Jn(*OMEGA_35, n, r) == want


def test_Jn_product_structure():
    rng = random.Random(77)
    for _ in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        r = Fraction(rng.randint(-200, 200), rng.randint(1, 20))
        s = Fraction(rng.randint(-200, 200), rng.randint(1, 20))
        if sm.in_Jn(*OMEGA_35, n, r) and sm.in_Jn(*OMEGA_35, m, s):
            assert sm.in_Jn(*OMEGA_35, n + m, r * s)


def test_disjoint_omegas():
    assert sm.disjoint_omegas(*OMEGA_2, *OMEGA_35)       # {2} vs {3,5}
    assert not sm.disjoint_omegas(*OMEGA_35, *OMEGA_35)  # {3,5} vs itself
    assert sm.disjoint_omegas(*OMEGA_EMPTY, *OMEGA_35)   # empty vs anything
    assert sm.disjoint_omegas(*OMEGA_EMPTY, *OMEGA_EMPTY)
    a, b = -10, -6  # omega {3}
    assert not sm.disjoint_omegas(a, b, a, b, *OMEGA_35)


def test_disjoint_omegas_invariant_raises(monkeypatch):
    monkeypatch.setattr(sm, "_sum_criterion", lambda *args: False)
    with pytest.raises(InvariantError):
        sm.disjoint_omegas(*OMEGA_2, *OMEGA_35)


@pytest.mark.parametrize("call", [
    lambda: sm.in_J(0, 1, 1, 1, 0),
    lambda: sm.in_Jn(0, 1, 1, 1, 2, 0),
    lambda: sm.in_inv_Jn(0, 1, 1, 1, 2, 0),
    lambda: sm.campana_member([4], 2, 0),
    lambda: sm.s_integer_member([4], 0),
], ids=["in_J", "in_Jn", "in_inv_Jn", "campana_member", "s_integer_member"])
def test_every_argument_is_checked_before_the_r_zero_shortcut(call):
    with pytest.raises(ValueError):
        call()


#: name -> (call on its rational arguments, their letters, valid values).
#: omega read a zero c or d as the a or b of its second pair.
ZERO_BY_LETTER = {
    "places.omega": (places.omega, "a b c d", OMEGA_35),
    "in_J": (lambda *abcd: sm.in_J(*abcd, 1), "a b c d", OMEGA_35),
    "disjoint_omegas": (sm.disjoint_omegas, "a b c d a2 b2 c2 d2", OMEGA_2 + OMEGA_35),
    "generate_trace_element":
        (lambda a, b: sm.generate_trace_element(a, b, 1), "a b", (3, 5)),
}


@pytest.mark.parametrize("name, i", [
    pytest.param(name, i, id=f"{name}[{letter}]")
    for name, (_, letters, _) in ZERO_BY_LETTER.items()
    for i, letter in enumerate(letters.split())])
def test_a_zero_argument_is_refused_by_its_own_letter(name, i):
    call, letters, valid = ZERO_BY_LETTER[name]
    args = list(valid)
    args[i] = 0
    with pytest.raises(ValueError, match=f"^{letters.split()[i]} must be nonzero$"):
        call(*args)


def test_valuations_on_omega_primes_are_not_proved_again(monkeypatch):
    places.omega(*OMEGA_35)  # the memo now holds {3, 5}
    proofs = []
    is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: proofs.append(n) or is_prime(n))
    for r in (Fraction(225, 7), Fraction(7, 225), 2):
        sm.in_Jn(*OMEGA_35, 2, r)
        sm.in_inv_Jn(*OMEGA_35, 2, r)
    assert proofs == []


@pytest.mark.parametrize("n, message", [
    (2.5, "an integer"), (2.0, "an integer"), (True, "an integer"),
    (False, "an integer"), ("3", "an integer"), (Fraction(3), "an integer"),
    (None, "an integer"), (0, ">= 1"), (-2, ">= 1"),
], ids=["2.5", "2.0", "True", "False", "str", "Fraction", "None", "0", "-2"])
@pytest.mark.parametrize("call", [
    lambda n: sm.in_Jn(*OMEGA_35, n, 1),
    lambda n: sm.in_inv_Jn(*OMEGA_35, n, 1),
    lambda n: sm.campana_member([2, 3], n, Fraction(1, 8)),
    lambda n: sm.campana_via_coordinates(1, 8, [2, 3], n),
], ids=["in_Jn", "in_inv_Jn", "campana_member", "campana_via_coordinates"])
def test_n_must_be_an_int_at_least_1(call, n, message):
    with pytest.raises(ValueError, match=f"n must be {message}"):
        call(n)


def test_campana_member_examples():
    assert sm.campana_member([], 3, Fraction(1, 8))
    assert not sm.campana_member([], 3, Fraction(1, 4))
    assert sm.campana_member([2], 3, Fraction(1, 4))
    assert sm.campana_member([3], 2, 0)


def test_s_integer_member_examples():
    assert sm.s_integer_member([5], Fraction(7, 25))
    assert not sm.s_integer_member([5], Fraction(7, 10))
    assert sm.s_integer_member([], 42)
    assert sm.s_integer_member([], 0)


def test_campana_member_form_examples():
    F = BinaryForm({(2, 0): 1, (0, 2): 1})
    assert sm.campana_member_form([], 2, F, Fraction(1, 2))   # value 5/4
    assert not sm.campana_member_form([], 3, F, Fraction(1, 3))  # value 10/9
    root_form = BinaryForm.from_x_coeffs([-1, 1])  # x - y
    with pytest.raises(ValueError):
        sm.campana_member_form([], 2, root_form, 1)


@given(st.fractions(min_value=Fraction(-100), max_value=Fraction(100),
                    max_denominator=64),
       st.integers(min_value=1, max_value=5))
def test_form_x_reduces_to_plain_membership(lam, n):
    if lam != 0:
        assert sm.campana_member_form([], n, X_FORM, lam) == \
            sm.campana_member([], n, lam)


def test_coordinates_prove_only_the_primes_of_S(monkeypatch):
    proofs = []
    prime = arith.prime
    monkeypatch.setattr(arith, "prime", lambda p: proofs.append(p) or prime(p))
    # factorize proves 2, 3 and 7; only S's 5 is proved here
    assert not sm.campana_via_coordinates(1, 2**3 * 3**5 * 7, [5], 2)
    assert proofs == [5]


def test_campana_via_coordinates_examples():
    assert sm.campana_via_coordinates(1, 8, [], 3)
    assert not sm.campana_via_coordinates(1, 4, [], 3)


@given(st.integers(min_value=-5000, max_value=5000),
       st.integers(min_value=1, max_value=5000),
       st.integers(min_value=1, max_value=6),
       st.sets(st.sampled_from([2, 3, 5, 7]), max_size=2))
@settings(max_examples=400)
def test_coordinate_equivalence(x0, x1, n, S):
    assert sm.campana_via_coordinates(x0, x1, S, n) == \
        sm.campana_member(S, n, Fraction(x0, x1))


@given(st.fractions(min_value=Fraction(-500), max_value=Fraction(500), max_denominator=500),
       st.fractions(min_value=Fraction(-500), max_value=Fraction(500), max_denominator=500)
       .filter(lambda x: x != 0),
       st.integers(min_value=1, max_value=6),
       st.sets(st.sampled_from([2, 3, 5, 7]), max_size=2))
@settings(max_examples=300)
def test_coordinate_equivalence_on_rational_coordinates(x0, x1, n, S):
    # e > 0 only at primes of num(x1) and den(x0), which are all it factors
    assert sm.campana_via_coordinates(x0, x1, S, n) == sm.campana_member(S, n, x0 / x1)


def test_membership_factors_only_what_decides_it():
    # the numerator p q is a balanced product that Pollard rho gives up on,
    # but only the denominator 4 decides membership
    p, q = arith.next_prime(10**15), arith.next_prime(3 * 10**15)
    start = time.perf_counter()
    assert sm.campana_member([], 2, Fraction(p * q, 4))
    assert sm.s_integer_member([2], Fraction(p * q, 4))
    assert sm.campana_via_coordinates(p * q, 4, [], 2)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(SearchExhausted):
        arith.factorize(p * q)


@given(st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000),
                    max_denominator=1024),
       st.integers(min_value=1, max_value=9),
       st.sets(st.sampled_from([2, 3, 5]), max_size=2))
@settings(max_examples=300)
def test_filtration(r, n, S):
    assert sm.campana_member(S, 1, r)
    if sm.campana_member(S, n + 1, r):
        assert sm.campana_member(S, n, r)
    if sm.s_integer_member(S, r):
        assert sm.campana_member(S, n, r)


def test_filtration_sinteger_limit():
    # once n exceeds every denominator exponent, membership at all levels
    # up to n forces integrality outside S
    r = Fraction(7, 8)  # denominator exponent 3 at p = 2
    assert not sm.campana_member([], 4, r) or sm.s_integer_member([], r)
    assert all(sm.campana_member([], n, Fraction(1, 2**n)) for n in range(1, 9))


def test_generate_trace_element_examples():
    t, w = sm.generate_trace_element(3, 5, 0)
    assert t * t - 12 * w[1]**2 - 20 * w[2]**2 + 60 * w[3]**2 == 4
    # the identity quaternion gives trace 2 with witness (1,0,0,0)
    assert Fraction(2)**2 - 4 == 0
    for seed in range(100):
        a, b = -1, -1
        t, w = sm.generate_trace_element(a, b, seed)
        assert t * t - 4 * a * w[1]**2 - 4 * b * w[2]**2 + 4 * a * b * w[3]**2 == 4


def test_generate_trace_element_invariant_raises(monkeypatch):
    real = sm._trace_witness

    def off_by_one(z, nrd):
        t, w = real(z, nrd)
        return t + 1, w

    monkeypatch.setattr(sm, "_trace_witness", off_by_one)
    with pytest.raises(InvariantError):
        sm.generate_trace_element(3, 5, 0)


def test_generate_trace_element_deterministic():
    assert sm.generate_trace_element(2, 3, 5) == sm.generate_trace_element(2, 3, 5)
    with pytest.raises(ValueError):
        sm.generate_trace_element(0, 1, 1)
