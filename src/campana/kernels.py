"""Kernel selection and exact norm-form evaluation.

At import we prefer the compiled extension (campana._kernels) and fall back
to the numpy implementation.  On top of the modular kernel this module
provides an exact evaluator for the degree-n norm form N(v_1..v_n) =
Res(x^n - 2, sum v_j x^(j-1)): Graeffe halving over Z while n is even, then
CRT up to a Hadamard-style bound on the odd part.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from . import arith
from .errors import InvariantError

try:  # pragma: no cover - depends on the build
    from . import _kernels as _impl
except ImportError:  # pragma: no cover
    from . import _kernels_py as _impl

BACKEND = _impl.BACKEND
conic_has_solution = _impl.conic_has_solution
norm_mod = _impl.norm_mod

if BACKEND == "py":
    norm_mod_rows = _impl.norm_mod_rows
else:  # pragma: no cover - the compiled extension has the scalar kernel only
    def norm_mod_rows(H, qs) -> np.ndarray:
        """Res(x^n - 2, h_i) mod qs[i] for every row h_i of H, one scalar
        call per row."""
        qs = [operator.index(q) for q in qs]
        if len(qs) != len(H) or not all(2 <= q < 1 << 31 for q in qs):
            raise ValueError("need one modulus 2 <= q < 2^31 per row")
        return np.array([_impl.norm_mod([operator.index(c) for c in row], q)
                         for row, q in zip(H, qs)], dtype=np.int64)

_CRT_PRIME_CEILING = (1 << 31) - 1
_crt_primes: List[int] = []


def crt_primes(k: int) -> List[int]:
    """The k largest primes below 2^31, cached."""
    while len(_crt_primes) < k:
        n = (_crt_primes[-1] if _crt_primes else _CRT_PRIME_CEILING + 2) - 2
        while not arith.is_prime(n):
            n -= 2
        _crt_primes.append(n)
    return _crt_primes[:k]


def _norm_int_bound_bits(w: Sequence[int]) -> int:
    """bits of a bound on |det| of the multiplication matrix of sum w_j t^(j-1)
    in Z[t]/(t^n - 2): rows have entries among {w_j, 2 w_j} permuted."""
    n = len(w)
    mw = max(abs(x) for x in w)
    row = 2 * mw * math.isqrt(n) + 2 * mw
    return n * max(1, row.bit_length()) + 2


def _square_exact(c: List[int]) -> List[int]:
    """The coefficients of c(y)^2 for integer coefficients c, by one
    Kronecker-substituted square.

    A coefficient of c^2 is a sum of at most m = len(c) products, so its
    absolute value is at most B = m max|c_j|^2.  Slots of s bytes with
    2^(8s - 1) > B hold each one as a balanced digit in [-2^(8s-1),
    2^(8s-1)), and those digits are unique; the square is read back slot by
    slot, carrying one into the next slot when a digit is negative.
    """
    m = len(c)
    bound = m * max(map(abs, c)) ** 2
    s = (bound.bit_length() + 8) // 8
    shift, half, full = 8 * s, 1 << (8 * s - 1), 1 << (8 * s)
    v = 0
    for x in reversed(c):
        v = (v << shift) + x
    sq = (v * v).to_bytes((2 * m - 1) * s, "little")
    out, carry = [], 0
    for i in range(0, len(sq), s):
        d = int.from_bytes(sq[i:i + s], "little") + carry
        carry = d >= half
        out.append(d - full if carry else d)
    if carry:  # the top digit is c[m-1]^2 >= 0
        raise InvariantError("Kronecker slot too narrow for an exact square")
    return out


def _halve_exact(w: List[int]) -> List[int]:
    """Graeffe's root squaring over Z while len(w) is even: the odd-length
    vector whose norm equals the norm of w.

    For h = h0(x^2) + x h1(x^2), h(x) h(-x) = H(x^2) with H = h0^2 - y h1^2,
    and Res(x^n - 2, h) = Res(y^m - 2, H mod (y^m - 2)) for m = n/2 (see
    _kernels_py._halve_rows).  The squares are exact, so coefficient bit
    lengths roughly double with every step.
    """
    if not w:
        raise ValueError("a norm needs at least one coefficient")
    while len(w) % 2 == 0:
        m = len(w) // 2
        h = _square_exact(w[0::2]) + [0]
        for j, x in enumerate(_square_exact(w[1::2]), 1):
            h[j] -= x
        w = [h[j] + 2 * h[j + m] for j in range(m)]
    return w


def norm_int(w: Sequence[int]) -> int:
    """Exact norm Res(x^n - 2, sum w_j x^(j-1)) of an integer vector.

    While n is even, w is halved exactly over Z (_halve_exact).  An odd part
    of length 1 is the norm; a longer one is evaluated by CRT of modular
    resultants up to the Hadamard-style bound of that odd part, with all
    primes in one row call.
    """
    w = [operator.index(x) for x in w]
    if not any(w):
        return 0
    w = _halve_exact(w)
    if len(w) == 1:
        return w[0]
    bits = _norm_int_bound_bits(w)
    primes, m = [], 1
    for q in crt_primes(bits // 30 + 2):
        primes.append(q)
        m *= q
        if m.bit_length() > bits + 1:
            break
    residues = norm_mod_rows([w] * len(primes), primes)
    x, m = 0, 1
    for q, r in zip(primes, residues.tolist()):
        t = (r - x) * pow(m, -1, q) % q
        x += m * t
        m *= q
    if x > m // 2:
        x -= m
    return x


def norm_value(values: Sequence[Fraction]) -> Fraction:
    """Exact norm-form value at a rational point (homogeneous of degree n)."""
    vals = [Fraction(v) for v in values]
    n = len(vals)
    if n == 1:
        return vals[0]
    lcm = 1
    for v in vals:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    w = [int(v * lcm) for v in vals]
    return Fraction(norm_int(w), lcm**n)


def norm_is_zero(values: Sequence[Fraction]) -> bool:
    """Exact zero test, cheap path first: a single nonzero residue certifies
    nonvanishing; otherwise fall back to the exact value."""
    vals = [Fraction(v) for v in values]
    if all(v == 0 for v in vals):
        return True
    lcm = 1
    for v in vals:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    w = [int(v * lcm) for v in vals]
    if norm_mod_rows([w] * 3, crt_primes(3)).any():
        return False
    return norm_int(w) == 0
