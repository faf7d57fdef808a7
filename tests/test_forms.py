import time
from fractions import Fraction

import pytest

from campana.forms import BinaryForm


def test_evaluation_and_degree():
    F = BinaryForm({(2, 0): 1, (0, 2): 1})  # x^2 + y^2
    assert F.degree == 2
    assert F(Fraction(1, 2), 1) == Fraction(5, 4)
    assert F(3, 4) == 25


def test_from_x_coeffs():
    # x^2 - 3xy + 2y^2
    F = BinaryForm.from_x_coeffs([2, -3, 1])
    assert F(1, 1) == 0
    assert F(2, 1) == 0
    assert F(5, 1) == 12


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        BinaryForm({(1, 0): 1, (0, 2): 1})
    with pytest.raises(ValueError):
        BinaryForm({})


def test_exponents_are_integers_at_least_zero():
    # (1.5, 0.5) was truncated to x; (-1, 2) was accepted, and F(0, 1) then
    # raised ZeroDivisionError
    for coeffs in ({(1.5, 0.5): 1}, {(-1, 2): 1}, {(2, -1): 1}):
        with pytest.raises(ValueError):
            BinaryForm(coeffs)


def test_dehomogenized():
    F = BinaryForm({(2, 0): 1, (1, 1): -3, (0, 2): 2})
    assert F.dehomogenized() == {2: Fraction(1), 1: Fraction(-3), 0: Fraction(2)}


def test_identity_form():
    x_form = BinaryForm({(1, 0): 1})  # F = x, the identity divisor case
    assert x_form.degree == 1
    assert x_form(Fraction(7, 3), 1) == Fraction(7, 3)


def test_homogeneous_scaling():
    F = BinaryForm({(3, 0): 2, (1, 2): -1})
    lam = Fraction(5, 2)
    assert F(lam * 3, lam * 7) == lam**3 * F(3, 7)


def test_a_huge_power_is_refused_at_once():
    # each ran until memory was gone
    start = time.perf_counter()
    for F, x, y in [(BinaryForm({(10**40, 0): 1}), 2, 1),
                    (BinaryForm({(0, 10**40): 1}), 1, Fraction(1, 2))]:
        with pytest.raises(ValueError, match="POWER_BITS"):
            F(x, y)
    assert time.perf_counter() - start < 1
    assert BinaryForm({(10**40, 0): 1})(-1, 1) == 1
