"""Homogeneous binary forms F(x, y) with exact rational coefficients."""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

from . import arith


class BinaryForm:
    """F = sum of coef * x^i * y^j with i + j constant (homogeneity is
    checked at construction).  coeffs maps each pair (i, j) to its
    coefficient; coefficients and points go through arith.rational, and
    i, j must be integers >= 0 (ValueError otherwise)."""

    __slots__ = ("coeffs", "degree")

    def __init__(self, coeffs: Mapping[Tuple[int, int], "Fraction | int"]):
        if not callable(getattr(coeffs, "items", None)):
            raise ValueError(f"coeffs must map (i, j) to a coefficient, not {coeffs!r}")
        cleaned: Dict[Tuple[int, int], Fraction] = {}
        for key, c in coeffs.items():
            if not (type(key) is tuple and len(key) == 2):
                raise ValueError(f"a key of coeffs is a pair (i, j), not {key!r}")
            i, j = key
            c, i, j = Fraction(arith.rational(c)), arith.integer(i, "i"), arith.integer(j, "j")
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in x^{i} y^{j}")
            if c != 0:
                cleaned[(i, j)] = c
        if not cleaned:
            raise ValueError("zero form")
        degrees = {i + j for i, j in cleaned}
        if len(degrees) != 1:
            raise ValueError(f"form is not homogeneous: degrees {sorted(degrees)}")
        self.coeffs = cleaned
        self.degree = degrees.pop()

    @classmethod
    def from_x_coeffs(cls, coeffs: Sequence["Fraction | int"]) -> "BinaryForm":
        """coeffs[k] multiplies x^k y^(d-k), with d = len(coeffs) - 1;
        coeffs that is not iterable, such as None or 7, is a ValueError."""
        coeffs = arith.listed(coeffs, "coeffs")
        d = len(coeffs) - 1
        return cls({(k, d - k): c for k, c in enumerate(coeffs)})

    def __call__(self, x: "Fraction | int", y: "Fraction | int") -> Fraction:
        x, y = arith.rational(x), arith.rational(y)
        return sum(
            (c * arith._power(x, i) * arith._power(y, j) for (i, j), c in self.coeffs.items()),
            start=Fraction(0),
        )

    def dehomogenized(self) -> Dict[int, Fraction]:
        """Coefficients of f(x) = F(x, 1) as {power: coef}."""
        return {i: c for (i, j), c in self.coeffs.items()}

    def __repr__(self):
        terms = " + ".join(
            f"{c}*x^{i}*y^{j}" for (i, j), c in sorted(self.coeffs.items())
        )
        return f"BinaryForm({terms})"


def binary_form(F) -> BinaryForm:
    """F itself, the check every function that takes a form F makes first:
    anything but a BinaryForm (None, a str, a function) is a ValueError."""
    if not isinstance(F, BinaryForm):
        raise ValueError(f"F must be a BinaryForm, not {type(F).__name__}")
    return F


X_FORM = BinaryForm({(1, 0): 1})  # F = x, the identity divisor case
