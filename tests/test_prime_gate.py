"""Every public function that takes a prime p, a place v or a prime set S
sends it through arith.prime, so anything but a prime int is a ValueError:
never a truncation, a TypeError or a silent reading as the real place."""
import inspect
from fractions import Fraction
from types import SimpleNamespace

import pytest

from campana import arith, kernels, parametrize, places, semantics
from campana.forms import X_FORM

#: Not primes: non-integers with and without an integral value, a str,
#: integers that are not prime, and an object with a prime attribute, as a
#: place is a prime int and never an object that holds one.  A p and an S
#: also refuse None; a v takes None (or "inf") as the real place.
NOT_PRIMES = (3.7, 7.0, "7", Fraction(7), 4, 1, SimpleNamespace(prime=9))

#: name -> (kind of argument, call).  call(x) passes x as that argument, an
#: S as a list, and is a valid call for x = 7 (an S of [7]).
GATED = {
    "arith.prime": ("p", lambda p: arith.prime(p)),
    "arith.place_prime": ("v", lambda v: arith.place_prime(v)),
    "arith.valuation": ("p", lambda p: arith.valuation(12, p)),
    "arith.legendre": ("p", lambda p: arith.legendre(3, p)),
    "arith.unit_part": ("p", lambda p: arith.unit_part(12, p)),
    "arith.is_square_local": ("v", lambda v: arith.is_square_local(2, v)),
    "places.PlaceSet.of_primes": ("S", lambda S: places.PlaceSet.of_primes(S)),
    "places.PlaceSet": ("v", lambda v: places.PlaceSet([v])),
    "places.PlaceSet.__contains__": ("v", lambda v: v in places.PlaceSet.of_primes([7])),
    "places.hilbert": ("v", lambda v: places.hilbert(2, 3, v)),
    "places.hilbert_oracle": ("p", lambda p: places.hilbert_oracle(2, 3, p, 5)),
    "places.default_oracle_precision":
        ("p", lambda p: places.default_oracle_precision(2, 3, p)),
    "places.find_local_counterexample":
        ("v", lambda v: places.find_local_counterexample(3, v)),
    "semantics.campana_member": ("S", lambda S: semantics.campana_member(S, 2, 0)),
    "semantics.s_integer_member": ("S", lambda S: semantics.s_integer_member(S, 0)),
    "semantics.campana_member_form":
        ("S", lambda S: semantics.campana_member_form(S, 2, X_FORM, 3)),
    "semantics.campana_via_coordinates":
        ("S", lambda S: semantics.campana_via_coordinates(1, 9, S, 2)),
    "parametrize.uniformizer_product": ("S", lambda S: parametrize.uniformizer_product(S)),
    "parametrize.find_b": ("S", lambda S: parametrize.find_b(3, [5, *S])),
    "parametrize.construct_omega": ("S", lambda S: parametrize.construct_omega(S)),
    "kernels.conic_has_solution":
        ("p", lambda p: kernels.conic_has_solution(2, 3, p, 2)),
}

#: name -> call(S) for each function in GATED that takes a prime set S,
#: which passes S itself rather than inside a list.
TAKES_S = {
    "places.PlaceSet.of_primes": lambda S: places.PlaceSet.of_primes(S),
    "semantics.campana_member": lambda S: semantics.campana_member(S, 2, 0),
    "semantics.s_integer_member": lambda S: semantics.s_integer_member(S, 0),
    "semantics.campana_member_form":
        lambda S: semantics.campana_member_form(S, 2, X_FORM, 3),
    "semantics.campana_via_coordinates":
        lambda S: semantics.campana_via_coordinates(1, 9, S, 2),
    "parametrize.uniformizer_product": lambda S: parametrize.uniformizer_product(S),
    "parametrize.find_b": lambda S: parametrize.find_b(3, S),
    "parametrize.construct_omega": lambda S: parametrize.construct_omega(S),
}

#: Documented to take a prime that is already proved.
EXEMPT = {"arith.split_power", "places.local_data", "places.local_symbol"}


def _argument(kind, x):
    return [x] if kind == "S" else x


@pytest.mark.parametrize("name", sorted(GATED))
def test_a_prime_passes_the_gate(name):
    kind, call = GATED[name]
    call(_argument(kind, 7))


@pytest.mark.parametrize("name, bad", [
    pytest.param(name, bad, id=f"{name}({bad!r})")
    for name, (kind, _) in sorted(GATED.items())
    for bad in NOT_PRIMES + (() if kind == "v" else (None,))
])
def test_anything_but_a_prime_is_a_value_error(name, bad):
    kind, call = GATED[name]
    with pytest.raises(ValueError):
        call(_argument(kind, bad))


#: name -> (call(v), its answer at the real place) for each function in GATED
#: that takes a place v, which must read None and "inf" alike.
AT_THE_REAL_PLACE = {
    "arith.place_prime": (lambda v: arith.place_prime(v), None),
    "arith.is_square_local":
        (lambda v: (arith.is_square_local(2, v), arith.is_square_local(-2, v)),
         (True, False)),
    "places.PlaceSet": (lambda v: list(places.PlaceSet([v, 7])), [None, 7]),
    "places.PlaceSet.__contains__":
        (lambda v: (v in places.PlaceSet([None, 7]), v in places.PlaceSet.of_primes([7])),
         (True, False)),
    "places.hilbert":
        (lambda v: (places.hilbert(-1, -1, v), places.hilbert(2, 3, v)), (-1, 1)),
    "places.find_local_counterexample":
        (lambda v: places.hilbert(-3, places.find_local_counterexample(-3, v), v), -1),
}


def test_every_function_that_takes_a_place_is_in_the_real_place_table():
    assert AT_THE_REAL_PLACE.keys() == {
        name for name, (kind, _) in GATED.items() if kind == "v"}


@pytest.mark.parametrize("name, real", [
    pytest.param(name, real, id=f"{name}({real!r})")
    for name in sorted(AT_THE_REAL_PLACE) for real in (None, "inf")
])
def test_a_place_takes_none_or_inf_as_the_real_place(name, real):
    call, answer = AT_THE_REAL_PLACE[name]
    assert call(real) == answer


#: TAKES_S, and PlaceSet, which takes its places v in an iterable too.
TAKES_ITERABLE = {**TAKES_S, "places.PlaceSet": lambda S: places.PlaceSet(S)}


@pytest.mark.parametrize("name, S", [
    pytest.param(name, S, id=f"{name}({S!r})")
    for name in sorted(TAKES_ITERABLE) for S in (None, 7)
])
def test_a_prime_set_that_is_not_iterable_is_a_value_error(name, S):
    with pytest.raises(ValueError):
        TAKES_ITERABLE[name](S)


def test_every_function_that_takes_a_prime_set_is_in_the_table():
    assert TAKES_S.keys() == {name for name, (kind, _) in GATED.items() if kind == "S"}


def test_every_function_that_takes_a_prime_is_in_the_table():
    found = set()
    for module in (arith, places, semantics, parametrize, kernels):
        prefix = module.__name__.rsplit(".", 1)[-1]
        for name, fn in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and {"p", "v", "S"} & set(inspect.signature(fn).parameters)):
                found.add(f"{prefix}.{name}")
    assert found - GATED.keys() - EXEMPT == set()
    assert EXEMPT <= found


def test_the_oracle_pair_memo_does_not_let_an_equal_non_int_through():
    # the pair shares one proof of p; 7.0 == 7 and hashes alike, but it is
    # not a prime int, and an unhashable p is refused all the same
    assert places.default_oracle_precision(2, 3, 7) == 3
    with pytest.raises(ValueError):
        places.hilbert_oracle(2, 3, 7.0, 5)
    places.default_oracle_precision(2, 3, 7)
    with pytest.raises(ValueError):
        places.hilbert_oracle(2, 3, [7], 5)


def test_above_the_deterministic_bound_the_gate_is_a_probable_prime_test():
    # past _MR_DETERMINISTIC_BOUND is_prime adds 20 seeded random bases: a
    # Mersenne prime passes and a product of two Mersenne primes does not
    big_prime, composite = 2**89 - 1, (2**61 - 1) * (2**31 - 1)
    assert min(big_prime, composite) > arith._MR_DETERMINISTIC_BOUND
    assert arith.prime(big_prime) == big_prime
    with pytest.raises(ValueError, match="is not prime"):
        arith.prime(composite)
