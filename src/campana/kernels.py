"""The hot kernels and exact norm-form evaluation.

The oracle's conic scan (conic_has_solution) and the mod-q norm resultant
(norm_mod, and norm_mod_rows for many rows at once) are the numpy/Python-int
kernels of _kernels_py.  Both halve the row while n is even and read an odd
part of length 3 in closed form.  An odd part of m >= 5 values goes, in
one-row norm_mod at a prime q > m with gcd(m, q - 1) = 1, through the group
algebra F_q[z]/(z^m - 1), and otherwise through a Euclid.  On top of the
modular kernel this module provides an exact evaluator for the degree-n
norm form N(v_1..v_n) = Res(x^n - 2, sum v_j x^(j-1)): Graeffe halving over
Z while n is even, then the odd part itself when it has length 1, the norm
form of Q(2^(1/3)) when it has length 3, and otherwise CRT up to a
Hadamard-style bound on it, whose primes go through norm_mod_rows.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import arith
from ._kernels_py import _cubic, conic_has_solution, norm_mod, norm_mod_rows
from .errors import InvariantError

#: The one kernel implementation; benchmark records carry its name.
BACKEND = "py"

_CRT_PRIME_CEILING = (1 << 31) - 1
#: How many primes crt_primes can give: the odd primes below 2^31, that is
#: pi(2^31) - 1 = 105,097,565 - 1, as its search steps down over odd n.
CRT_PRIME_COUNT = 105_097_564
_crt_primes: List[int] = []


def crt_primes(k: int) -> List[int]:
    """The k largest primes below 2^31, cached; k is an int with
    0 <= k <= CRT_PRIME_COUNT."""
    if not 0 <= arith.integer(k, "k") <= CRT_PRIME_COUNT:
        raise ValueError(f"k must be in [0, {CRT_PRIME_COUNT}], not {k}")
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
    of length 1 is the norm, and one of length 3 (n = 3 * 2^k) gives it as
    w0^3 + 2 w1^3 + 4 w2^3 - 6 w0 w1 w2, the norm form of Q(2^(1/3)); a
    longer one is evaluated by CRT of modular resultants up to the
    Hadamard-style bound of that odd part, with all primes in one row call.
    """
    w = [arith.integer(x, "a coefficient") for x in arith.listed(w, "w")]
    if not w:
        raise ValueError("a norm needs at least one coefficient")
    if not any(w):
        return 0
    w = _halve_exact(w)
    if len(w) == 1:
        return w[0]
    if len(w) == 3:
        return _cubic(*w)
    bits = _norm_int_bound_bits(w)
    primes, m = [], 1
    for q in crt_primes(bits // 30 + 2):
        primes.append(q)
        m *= q
        if m.bit_length() > bits + 1:
            break
    residues = norm_mod_rows([w] * len(primes), primes)
    x = arith.crt(list(zip(primes, residues.tolist())))
    if x > m // 2:
        x -= m
    return x


def _clear_denominators(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(w, l) with l the least common denominator of a nonempty vector of
    rationals and w = l * values, a vector of integers.  values that is not
    iterable is a ValueError, and each value is read by arith.num_den, so a
    float is refused, as its binary expansion would reach the exact answer."""
    pairs = [arith.num_den(v) for v in arith.listed(values, "values")]
    if not pairs:
        raise ValueError("a norm needs at least one coefficient")
    lcm = math.lcm(*(d for _, d in pairs))
    return [n * (lcm // d) for n, d in pairs], lcm


def norm_value(values: Sequence[Fraction]) -> Fraction:
    """Exact norm-form value at a rational point (homogeneous of degree n)."""
    w, lcm = _clear_denominators(values)
    return Fraction(norm_int(w), lcm**len(w))


def norm_is_zero(values: Sequence[Fraction]) -> bool:
    """Exact zero test, cheap path first: a single nonzero residue certifies
    nonvanishing; otherwise fall back to the exact value."""
    w, _ = _clear_denominators(values)
    if not any(w):
        return True
    if norm_mod_rows([w] * 3, crt_primes(3)).any():
        return False
    return norm_int(w) == 0
