"""Public refusals that no other test reaches, in one table: each call is a
ValueError with its own message, and the CLI turns its one refusal of
--abcd into exit 2."""
import re

import pytest

from campana import arith, cli, formulas as fm, kernels, semantics
from campana.circuits import Circuit
from campana.forms import BinaryForm

x, r, lam = Circuit.var("x"), Circuit.var("r"), Circuit.var("lam")
ALL_X = fm.Formula([("forall", "x")], ("neq", x), [])
SOME_X = fm.Formula([("exists", "x")], ("eq", x), [])
X_FORM = BinaryForm.from_x_coeffs([0, 1])

#: id -> (the call, its message)
REFUSALS = {
    "primes_up_to past the sieve": (
        lambda: arith.primes_up_to(10**6), "primes_up_to supports bounds below 1000000"),
    "Formula binding a name twice": (
        lambda: fm.Formula([("exists", "x"), ("exists", "x")], ("eq", x), []),
        "a variable is bound twice"),
    "combine_many of nothing": (lambda: fm.combine_many([]), "need at least one circuit"),
    "combine_sos of nothing": (lambda: fm.combine_sos([]), "need at least one circuit"),
    "prenex_or, universal part with an exists": (
        lambda: fm.prenex_or(SOME_X, SOME_X), "universal part must have an all-forall prefix"),
    "prenex_or, universal part an equation": (
        lambda: fm.prenex_or(fm.Formula([("forall", "x")], ("eq", x), []), SOME_X),
        "universal part must be a single inequation"),
    "prenex_or, existential part with a forall": (
        lambda: fm.prenex_or(ALL_X, ALL_X), "existential part must have an all-exists prefix"),
    "prenex_or, existential part an inequation": (
        lambda: fm.prenex_or(ALL_X, fm.Formula([("exists", "x")], ("neq", x), [])),
        "existential part must be a single equation"),
    "substitute_form with no free r": (
        lambda: fm.substitute_form(fm.build_disjoint(), X_FORM), "'r' is not free in the formula"),
    "substitute_form with lam free": (
        lambda: fm.substitute_form(fm.Formula([("exists", "x")], ("eq", x - r - lam),
                                              ["r", "lam"]), X_FORM),
        "'lam' already occurs in the formula"),
    "conic scan past 4,000,000": (  # 163^3 = 4,330,747
        lambda: kernels.conic_has_solution(1, 1, 163, 3),
        "modulus p^m too large for the scan kernel"),
    "campana_via_coordinates at x1 = 0": (
        lambda: semantics.campana_via_coordinates(1, 0, [], 2), "x1 must be nonzero"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_public_refusal(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_member_abcd_needs_four_rationals(capsys):
    code = cli.main(["member", "J", "1", "--abcd", "1,2,3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: --abcd needs exactly four rationals\n"
