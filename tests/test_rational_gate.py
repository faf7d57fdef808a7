"""Every public rational argument enters through arith.rational, and every
integer argument that is not a prime or an n through arith.integer, so
anything else is a ValueError: never a float reaching an answer, a parsed
string, or a TypeError."""
import inspect
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from campana import arith, kernels, parametrize, places, semantics
from campana.circuits import Circuit
from campana.forms import BinaryForm

#: Not rationals: floats with and without an integral value, strings, a
#: Decimal, None, a list and a complex number.
NOT_RATIONALS = (0.1, 2.0, float("nan"), "3/4", "3", Decimal("0.1"), None, [3], 1 + 2j)

#: Rationals that are not integers, or not of an integer type.
NOT_INTEGERS = NOT_RATIONALS + (Fraction(3, 4), Fraction(6, 2))

X = Circuit.var("x")
X_FORM = BinaryForm({(1, 0): 1})  # F = x


def _terms(*items):
    """A mapping as BinaryForm reads one, whose keys need not be hashable."""
    return SimpleNamespace(items=lambda: items)


#: "function(parameter)" -> call(x), which passes x as that parameter and
#: is a valid call for x = 3 and for x = 3/4.
RATIONAL = {
    "arith.rational(r)": lambda x: arith.rational(x),
    "arith.num_den(r)": lambda x: arith.num_den(x),
    "arith.factorize(r)": lambda x: arith.factorize(x),
    "arith.square_class(r)": lambda x: arith.square_class(x, "r"),
    "arith.valuation(r)": lambda x: arith.valuation(x, 3),
    "arith.unit_part(r)": lambda x: arith.unit_part(x, 3),
    "arith.is_square_local(a)": lambda x: arith.is_square_local(x, 5),
    "places.hilbert(a)": lambda x: places.hilbert(x, 5, 5),
    "places.hilbert(b)": lambda x: places.hilbert(5, x, 5),
    "places.hilbert_oracle(a)": lambda x: places.hilbert_oracle(x, 5, 5, 9),
    "places.hilbert_oracle(b)": lambda x: places.hilbert_oracle(5, x, 5, 9),
    "places.default_oracle_precision(a)":
        lambda x: places.default_oracle_precision(x, 5, 2),
    "places.default_oracle_precision(b)":
        lambda x: places.default_oracle_precision(5, x, 2),
    "places.delta(a)": lambda x: places.delta(x, 5),
    "places.delta(b)": lambda x: places.delta(5, x),
    "places.delta_upper(a)": lambda x: places.delta_upper(x, 5),
    "places.delta_upper(b)": lambda x: places.delta_upper(5, x),
    "places.omega(a)": lambda x: places.omega(x, 5, 3, 5),
    "places.omega(b)": lambda x: places.omega(5, x, 3, 5),
    "places.omega(c)": lambda x: places.omega(3, 5, x, 5),
    "places.omega(d)": lambda x: places.omega(3, 5, 5, x),
    "places.reciprocity_check(a)": lambda x: places.reciprocity_check(x, 5),
    "places.reciprocity_check(b)": lambda x: places.reciprocity_check(5, x),
    "places.find_local_counterexample(a)":
        lambda x: places.find_local_counterexample(x, 5),
    **{f"semantics.{name}({arg})": (
        lambda x, fn=getattr(semantics, name), i=i, n=n:
        fn(*(3, 5, 3, 5)[:i], x, *(3, 5, 3, 5)[i + 1:], *n, 7))
       for name, n in (("in_J", ()), ("in_Jn", (2,)), ("in_inv_Jn", (2,)))
       for i, arg in enumerate("abcd")},
    **{f"semantics.in_{name}(r)": (
        lambda x, fn=getattr(semantics, f"in_{name}"), n=n: fn(3, 5, 3, 5, *n, x))
       for name, n in (("J", ()), ("Jn", (1,)), ("inv_Jn", (1,)))},
    **{f"semantics.disjoint_omegas({arg})": (
        lambda x, i=i: semantics.disjoint_omegas(
            *(3, 5, 3, 5, -10, -10, -10, -10)[:i], x,
            *(3, 5, 3, 5, -10, -10, -10, -10)[i + 1:]))
       for i, arg in enumerate(("a", "b", "c", "d", "a2", "b2", "c2", "d2"))},
    "semantics.campana_member(r)": lambda x: semantics.campana_member([], 2, x),
    "semantics.s_integer_member(r)": lambda x: semantics.s_integer_member([], x),
    "semantics.campana_member_form(lam)":
        lambda x: semantics.campana_member_form([], 2, X_FORM, x),
    "semantics.campana_via_coordinates(x0)":
        lambda x: semantics.campana_via_coordinates(x, 9, [], 2),
    "semantics.campana_via_coordinates(x1)":
        lambda x: semantics.campana_via_coordinates(1, x, [], 2),
    "semantics.generate_trace_element(a)":
        lambda x: semantics.generate_trace_element(x, 5, 1),
    "semantics.generate_trace_element(b)":
        lambda x: semantics.generate_trace_element(5, x, 1),
    "parametrize.find_b(a)": lambda x: parametrize.find_b(x, [5, 7]),
    "kernels.norm_value(values)": lambda x: kernels.norm_value([1, x, 2]),
    "kernels.norm_is_zero(values)": lambda x: kernels.norm_is_zero([1, x, 2]),
    "Circuit.const": lambda x: Circuit.const(x),
    "Circuit.evaluate(env)": lambda x: (X * X + 1).evaluate({"x": x}),
    "BinaryForm(coeffs)": lambda x: BinaryForm({(1, 1): x, (2, 0): 1}).coeffs,
    "BinaryForm.__call__(x)": lambda x: X_FORM(x, 2),
    "BinaryForm.__call__(y)": lambda x: X_FORM(2, x),
}

#: The same for integer arguments, valid for x = 3.
INTEGER = {
    "arith.integer(x)": lambda x: arith.integer(x),
    "arith.legendre(a)": lambda x: arith.legendre(x, 7),
    "arith.is_prime(n)": lambda x: arith.is_prime(x),
    "arith.next_prime(n)": lambda x: arith.next_prime(x),
    "arith.primes_up_to(n)": lambda x: arith.primes_up_to(x),
    "arith.crt(modulus)": lambda x: arith.crt([(x, 1), (5, 2)]),
    "arith.crt(residue)": lambda x: arith.crt([(7, x), (5, 2)]),
    "places.hilbert_oracle(precision)": lambda x: places.hilbert_oracle(2, 3, 7, x),
    "semantics.generate_trace_element(seed)":
        lambda x: semantics.generate_trace_element(3, 5, x),
    "kernels.conic_has_solution(a)": lambda x: kernels.conic_has_solution(x, 5, 7, 3),
    "kernels.conic_has_solution(b)": lambda x: kernels.conic_has_solution(5, x, 7, 3),
    "kernels.crt_primes(k)": lambda x: kernels.crt_primes(x),
    "kernels.norm_int(w)": lambda x: kernels.norm_int([x, 1]),
    "kernels.norm_mod(coeffs)": lambda x: kernels.norm_mod([x, 1], 7),
    "kernels.norm_mod(q)": lambda x: kernels.norm_mod([2, 1], x),
    "kernels.norm_mod_rows(H)": lambda x: kernels.norm_mod_rows([[x, 1]], [7]),
    "kernels.norm_mod_rows(qs)": lambda x: kernels.norm_mod_rows([[2, 1]], [x]),
    "Circuit.evaluate_mod(q)": lambda x: (X * X).evaluate_mod({"x": 2}, x),
    "Circuit.evaluate_vec(q)": lambda x: int((X * X).evaluate_vec({"x": [2]}, x)[0]),
    "BinaryForm(i)": lambda x: BinaryForm(_terms(((x, 0), 1))).degree,
    "BinaryForm(j)": lambda x: BinaryForm(_terms(((0, x), 1))).degree,
    "parametrize.SearchConfig(candidate_cap)":
        lambda x: parametrize.SearchConfig(candidate_cap=x).candidate_cap,
}

#: "function(parameter)" -> call(xs), which passes xs as that parameter: an
#: iterable of numbers or of pairs, or a mapping for BinaryForm's coeffs.
#: Before their gates, most raised TypeError or AttributeError on these.
COLLECTION = {
    "arith.crt(congruences)": lambda xs: arith.crt(xs),
    "arith.crt(a congruence)": lambda xs: arith.crt([xs]),
    "kernels.norm_value(values)": lambda xs: kernels.norm_value(xs),
    "kernels.norm_int(w)": lambda xs: kernels.norm_int(xs),
    "kernels.norm_is_zero(values)": lambda xs: kernels.norm_is_zero(xs),
    "BinaryForm(coeffs)": lambda xs: BinaryForm(xs),
    "BinaryForm(a key)": lambda xs: BinaryForm({xs: 1}),
    "BinaryForm.from_x_coeffs(coeffs)": lambda xs: BinaryForm.from_x_coeffs(xs),
}

#: Values that no call in COLLECTION takes; a list only where it takes none.
NOT_COLLECTIONS = {name: (None, 7) for name in COLLECTION}
NOT_COLLECTIONS["arith.crt(a congruence)"] += ([5],)
NOT_COLLECTIONS["BinaryForm(coeffs)"] += ([((1, 0), 1)],)

#: Parameters of the scanned modules that carry a number other than a
#: prime, a place, a prime set or an n.
NUMBER_PARAMETERS = {"a", "b", "c", "d", "a2", "b2", "c2", "d2", "r", "x", "x0", "x1",
                     "lam", "values", "w", "u", "precision", "k", "seed"}

#: Documented to take integers that are already proved: places.local_data
#: and places.local_symbol read the cleared integers of a rational (as does
#: arith.split_power, whose n is no number parameter in the sense above).
EXEMPT = {"places.local_data", "places.local_symbol"}


class _OtherRational(Fraction):
    """A numbers.Rational that is not a Fraction, read by the slow branch."""


@pytest.mark.parametrize("name, bad", [
    pytest.param(name, bad, id=f"{name}-{bad!r}")
    for name in sorted(RATIONAL) for bad in NOT_RATIONALS
] + [
    pytest.param(name, bad, id=f"{name}-{bad!r}")
    for name in sorted(INTEGER) for bad in NOT_INTEGERS
])
def test_anything_else_is_a_value_error(name, bad):
    call = RATIONAL.get(name) or INTEGER[name]
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("name, bad", [
    pytest.param(name, bad, id=f"{name}-{bad!r}")
    for name, bads in sorted(NOT_COLLECTIONS.items()) for bad in bads
])
def test_a_collection_of_the_wrong_kind_is_a_value_error(name, bad):
    with pytest.raises(ValueError):
        COLLECTION[name](bad)


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_every_rational_type_gives_the_fraction_answer(name):
    call = RATIONAL[name]
    want = call(Fraction(3))
    for good in (3, np.int64(3), Fraction(6, 2), _OtherRational(3)):
        assert call(good) == want
    assert call(_OtherRational(3, 4)) == call(Fraction(3, 4))


@pytest.mark.parametrize("name", sorted(INTEGER))
def test_every_integer_type_gives_the_int_answer(name):
    call = INTEGER[name]
    assert call(np.int64(3)) == call(3)


def test_the_gate_returns_an_int_or_a_reduced_fraction():
    for r, want in [(3, 3), (True, 1), (np.int64(-3), -3), (Fraction(6, 2), 3),
                    (Fraction(6, 8), Fraction(3, 4)), (_OtherRational(6, 8), Fraction(3, 4))]:
        got = arith.rational(r)
        assert got == want and type(got) is type(want)


def test_every_function_that_takes_a_number_is_in_a_table():
    found = set()
    for module in (arith, places, semantics, parametrize, kernels):
        prefix = module.__name__.rsplit(".", 1)[-1]
        for name, fn in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                params = NUMBER_PARAMETERS & set(inspect.signature(fn).parameters)
                found |= {f"{prefix}.{name}({p})" for p in params}
    exempt = {key for key in found if key.split("(")[0] in EXEMPT}
    assert found - RATIONAL.keys() - INTEGER.keys() - exempt == set()
    assert {key.split("(")[0] for key in exempt} == EXEMPT



class _Index:
    """An integer that is no int: it has __index__ and nothing else."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_Index({self.value})"


Q = 7


def nested_rows(col):
    """norm_mod_rows on a list of two lists: a plain row of norm 3^2 - 2 2^2
    = 1, then the column's items, so that an item that is refused comes
    after a row read whole."""
    first, second = kernels.norm_mod_rows([[3, 2], list(col)], [Q, Q]).tolist()
    assert first == 1
    return second


#: Every entry that reads integer values mod q, on a column (a, b) of two
#: values: each value alone, the column, and the row a + b x, whose norm
#: Res(x^2 - 2, a + b x) is a^2 - 2 b^2.
VALUE_ENTRIES = {
    "Circuit.evaluate_mod": lambda col: [X.evaluate_mod({"x": v}, Q) for v in col],
    "Circuit.evaluate_vec(scalar)": lambda col: [int(X.evaluate_vec({"x": v}, Q)) for v in col],
    "Circuit.evaluate_vec(column)": lambda col: X.evaluate_vec({"x": col}, Q).tolist(),
    "kernels.norm_mod(one value)": lambda col: [kernels.norm_mod([v], Q) for v in col],
    "kernels.norm_mod(row)": lambda col: kernels.norm_mod(col, Q),
    "kernels.norm_mod_rows": lambda col: int(kernels.norm_mod_rows(
        col[None] if isinstance(col, np.ndarray) else [col], [Q])[0]),
    "kernels.norm_mod_rows(nested lists)": nested_rows,
}

#: (column, its values as ints, or None where every entry refuses it)
VALUE_COLUMNS = [
    ([9, -3], [9, -3]),
    ([True, 2**70], [1, 2**70]),
    ([np.int64(9), np.uint64(2**64 - 1)], [9, 2**64 - 1]),
    ([_Index(4), 1], [4, 1]),
    ([True, np.int64(-3)], [1, -3]),
    ([-2**64, 2**63], [-2**64, 2**63]),
    ([np.True_, 1], None),
    ([1, np.True_], None),
    ([2.0, 1], None),
    ([1, np.float64(2.0)], None),
    (["9", 1], None),
    ([Fraction(9), 1], None),
    ([None, 1], None),
    (np.array([9, -3], dtype=np.int64), [9, -3]),
    (np.array([200, 3], dtype=np.uint8), [200, 3]),
    (np.array([2**64 - 1, 5], dtype=np.uint64), [2**64 - 1, 5]),
    (np.array([2**70, _Index(3)], dtype=object), [2**70, 3]),
    (np.array([True, False]), None),
    (np.array([np.True_, 1], dtype=object), None),
    (np.array([2.0, 1.0]), None),
]


@pytest.mark.parametrize("col, ints", VALUE_COLUMNS, ids=[repr(c) for c, _ in VALUE_COLUMNS])
def test_every_entry_reads_an_integer_value_alike(col, ints):
    # one definition of an integer value, arith.integer's: anything with
    # __index__, so a numpy bool, which has none, is refused everywhere;
    # and rows of two lengths are refused as such, whatever they hold
    with pytest.raises(ValueError, match="need an L x n array"):
        kernels.norm_mod_rows([list(col), list(col)[:1]], [Q, Q])
    for name, entry in VALUE_ENTRIES.items():
        if ints is None:
            with pytest.raises(ValueError, match="must be an integer, not"):
                entry(col)
            continue
        a, b = ints
        want = (a * a - 2 * b * b) % Q if "norm_mod(row)" in name or "rows" in name \
            else [a % Q, b % Q]
        assert entry(col) == want, name
