"""Exact integer/rational arithmetic: factorization, valuations, CRT, symbols.

Everything here is pure and operates on arbitrary-precision integers and
`fractions.Fraction`; nothing is ever rounded.
"""
from __future__ import annotations

import bisect
import math
import numbers
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import SearchExhausted

RationalLike = Union[int, Fraction]

TRIAL_DIVISION_BOUND = 10**6

# Deterministic Miller-Rabin witness set: correct for all n < 3.3 * 10^24,
# which covers every 64-bit input.  Larger inputs get extra random rounds.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


_small_primes_cache: List[int] = []


def _small_primes() -> List[int]:
    """Primes below TRIAL_DIVISION_BOUND as Python ints, sieved once, on
    first use: a numpy sieve over the odd numbers, whose slot i stands for
    2i + 1, read out with one flatnonzero."""
    global _small_primes_cache
    if not _small_primes_cache:
        n = TRIAL_DIVISION_BOUND
        odd = np.ones(n // 2, dtype=bool)
        for i in range(3, math.isqrt(n) + 1, 2):
            if odd[i >> 1]:
                odd[i * i >> 1 :: i] = False
        ps = np.flatnonzero(odd)
        del odd
        ps *= 2
        ps += 1
        ps[0] = 2  # slot 0 stands for 1, not a prime; it holds 2, the even one
        _small_primes_cache = ps.tolist()
    return _small_primes_cache


def primes_up_to(n: int) -> List[int]:
    n = integer(n, "n")
    if n >= TRIAL_DIVISION_BOUND:
        raise ValueError(f"primes_up_to supports bounds below {TRIAL_DIVISION_BOUND}")
    ps = _small_primes()
    return ps[: bisect.bisect_right(ps, n)]


def is_prime(n: int) -> bool:
    """A lookup in the sieved primes below TRIAL_DIVISION_BOUND; above it,
    Miller-Rabin, deterministic below _MR_DETERMINISTIC_BOUND (about 3.3e24)
    and with 20 more seeded random bases, a probable-prime test, above."""
    if type(n) is not int:
        n = integer(n, "n")
    if n < TRIAL_DIVISION_BOUND:
        ps = _small_primes()
        i = bisect.bisect_left(ps, n)
        return i < len(ps) and ps[i] == n
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Miller-Rabin; deterministic below _MR_DETERMINISTIC_BOUND."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    for a in _MR_WITNESSES:
        if witness(a):
            return False
    if n >= _MR_DETERMINISTIC_BOUND:
        rng = random.Random(n)
        for _ in range(20):
            if witness(rng.randrange(2, n - 1)):
                return False
    return True


def next_prime(n: int) -> int:
    k = integer(n, "n") + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


#: Squarings Pollard rho may spend on one input before it gives up.  A
#: factor near f needs about sqrt(f) of them, so every factor below about
#: 10^12 is found well inside the budget; balanced products of two larger
#: primes raise SearchExhausted instead of running for hours.
RHO_STEP_BUDGET = 1 << 21


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of an odd composite n by Brent's cycle variant;
    SearchExhausted after RHO_STEP_BUDGET squarings."""
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if steps > RHO_STEP_BUDGET:
                raise SearchExhausted(
                    f"Pollard rho found no factor of a {n.bit_length()}-bit "
                    f"cofactor within {RHO_STEP_BUDGET} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            steps += 2 * r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor_int(n: int) -> Dict[int, int]:
    """Factor a positive integer into {prime: exponent}."""
    factors: Dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n == 1:
        return factors
    if is_prime(n):  # no smaller prime divides it, so it is new here
        factors[n] = 1
        return factors
    stack = [n]
    rng = random.Random(0xC0FFEE ^ n)
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        d = _pollard_rho(m, rng)
        stack.extend([d, m // d])
    return factors


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p**e) reconstructs the input exactly; exponents nonzero."""

    sign: int
    factors: Dict[int, int] = field(default_factory=dict)


def factorize(r: RationalLike) -> Factorization:
    """Exact factorization of a nonzero rational (denominator exponents < 0).
    A factor above _MR_DETERMINISTIC_BOUND is a probable prime (is_prime)."""
    num, den = num_den(r)
    if num == 0:
        raise ValueError("cannot factorize 0")
    sign = 1 if num > 0 else -1
    factors = _factor_int(abs(num))
    for p, e in _factor_int(den).items():
        factors[p] = factors.get(p, 0) - e
    factors = {p: e for p, e in factors.items() if e != 0}
    return Factorization(sign, factors)


def rational(r) -> RationalLike:
    """r as an exact rational, the one gate for every rational argument: a
    Python int for any numbers.Integral (bools and numpy integers too); for
    any other numbers.Rational a Fraction in lowest terms, or an int if its
    denominator is 1.  Anything else raises ValueError: a float (even an
    integral one), a str, a Decimal, None, a list."""
    if type(r) is int:
        return r
    if type(r) is not Fraction:
        if isinstance(r, numbers.Integral):
            return int(r)
        if not isinstance(r, numbers.Rational):
            raise ValueError(f"not a rational: {r!r}")
        r = Fraction(r)
    return r.numerator if r.denominator == 1 else r


def integer(x, name: str = "the argument") -> int:
    """x as an int, for a modulus, a precision, a coefficient or an exponent:
    anything with __index__; a float, a str or a Fraction is a ValueError."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {x!r}") from None


def listed(xs, name: str) -> list:
    """The items of xs as a list; anything not iterable, such as None or 7,
    is a ValueError."""
    try:
        items = iter(xs)
    except TypeError:
        raise ValueError(f"{name} must be iterable, not {xs!r}") from None
    return list(items)


def num_den(r: RationalLike) -> Tuple[int, int]:
    """(numerator, denominator) of r, read by rational(), in lowest terms."""
    if type(r) is int:
        return r, 1
    if type(r) is not Fraction:
        r = Fraction(rational(r))
    return r.numerator, r.denominator


def square_class(r: RationalLike, name: str) -> int:
    """num * den for r read by rational(): r * den^2, an integer in the
    square class of r, so with its Hilbert symbols and local squareness.
    The one gate for an argument read that way: 0, which has no square
    class, is refused with a ValueError naming the argument."""
    # an int skips the call: hilbert and the oracle read two per call
    num, den = (r, 1) if type(r) is int else num_den(r)
    if num == 0:
        raise ValueError(f"{name} must be nonzero")
    return num * den


def split_power(n: int, p: int) -> Tuple[int, int]:
    """(v, m) with n = p**v * m and p not dividing m, for a nonzero integer
    n and a p already known to be prime (not checked again)."""
    v = 0
    q, r = divmod(n, p)
    while not r:
        n = q
        v += 1
        q, r = divmod(n, p)
    return v, n


#: The bit bound of an exact power x^k (Circuit.evaluate, BinaryForm): with
#: b the bit length of x's numerator or of its denominator, x^k is refused
#: with ValueError, before it is computed, when (b - 1) k >= POWER_BITS, as
#: that part of x^k is then at least 2^POWER_BITS.  A power let through has
#: fewer than 2 POWER_BITS bits in each part; the largest, 3^(2^22 - 1),
#: takes about 0.4 s on a 2-vCPU x86-64 machine.  So 2^(10^40), which would
#: run until memory is gone, is refused at once.
POWER_BITS = 1 << 22


def _bits(x: RationalLike) -> int:
    """The bit length of an int, or of a Fraction's numerator or
    denominator, whichever is longer."""
    if type(x) is int:
        return x.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _power(x: RationalLike, k: int) -> RationalLike:
    """x ** k for an int or a Fraction x and an int k >= 0, checked against
    POWER_BITS before it is computed."""
    bits = _bits(x)
    if (bits - 1) * k >= POWER_BITS:
        raise ValueError(f"x^{k} with x of {bits} bits would exceed "
                         f"POWER_BITS = {POWER_BITS} bits")
    return x ** k


def _product(x: RationalLike, y: RationalLike) -> RationalLike:
    """x * y for ints or Fractions x and y, refused with ValueError before it
    is computed when their bit lengths (as _bits reads them) sum past
    2 POWER_BITS, the size a power let through keeps below.  So a chain of
    products, such as 60 squarings of 2, is refused where it passes the
    bound instead of running until memory is gone; a bound on the degree
    would miss a chain of constants, whose degree is 0."""
    if type(x) is int and type(y) is int:
        bits = x.bit_length() + y.bit_length()
    else:
        bits = _bits(x) + _bits(y)
    if bits > 2 * POWER_BITS:
        raise ValueError(f"a product of factors of {bits} bits in all would "
                         f"exceed 2 POWER_BITS = {2 * POWER_BITS} bits")
    return x * y


def prime(p) -> int:
    """p as a prime: the one gate for every prime argument.

    p must be an integer (an int, or any type with __index__; never a
    float, a str or a Fraction, even one with an integral value) that is
    prime.  Anything else raises ValueError.  The check is is_prime's, so
    above _MR_DETERMINISTIC_BOUND (about 3.3e24) p is a probable prime.
    """
    q = integer(p, "a prime")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    return q


def check_n(n) -> int:
    """n as an int >= 1: the gate for an exponent or a degree n.  A bool, a
    float or any other non-integer is refused with ValueError."""
    if isinstance(n, bool):
        raise ValueError(f"n must be an integer, not {n!r}")
    n = integer(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    return n


def valuation(r: RationalLike, p: int) -> int:
    """p-adic valuation of a nonzero rational; rejects r = 0."""
    p = prime(p)
    num, den = num_den(r)
    if num == 0:
        raise ValueError("valuation of 0 is not an integer")
    return split_power(num, p)[0] - split_power(den, p)[0]


def crt(congruences: Sequence[Tuple[int, int]]) -> int:
    """Least nonnegative x with x = r_i (mod m_i), for a list of pairs
    (m_i, r_i); moduli must be coprime."""
    congruences = listed(congruences, "congruences")
    if not congruences:
        raise ValueError("empty congruence list")
    x, m = 0, 1
    for pair in congruences:
        mi, ri = listed(pair, "a congruence")
        mi, ri = integer(mi, "a modulus"), integer(ri, "a residue")
        if mi <= 0:
            raise ValueError(f"modulus {mi} must be positive")
        g = math.gcd(m, mi)
        if g != 1:
            raise ValueError(f"moduli not pairwise coprime (gcd {g})")
        # x + m*t = ri (mod mi)
        t = (ri - x) * pow(m, -1, mi) % mi
        x += m * t
        m *= mi
    return x % m


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p."""
    p = prime(p)
    if p == 2:
        raise ValueError("2 is not an odd prime")
    a = integer(a, "a") % p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def unit_part(r: RationalLike, p: int) -> Fraction:
    """r / p**valuation(r, p); a p-adic unit."""
    p = prime(p)
    num, den = num_den(r)
    if num == 0:
        raise ValueError("unit part of 0 is undefined")
    return Fraction(split_power(num, p)[1], split_power(den, p)[1])


def place_prime(v) -> Optional[int]:
    """The prime of a place: None for the real place, given as None or
    "inf", and otherwise v through prime(), so a prime int (or any type
    with __index__)."""
    if v is None or isinstance(v, str) and v == "inf":
        return None
    return prime(v)


def is_square_local(a: RationalLike, v) -> bool:
    """Squareness of a nonzero rational in the completion at v: a prime, or
    "inf"/None for the real place."""
    return _is_square_at(a, place_prime(v))


def _is_square_at(a: RationalLike, p: Optional[int]) -> bool:
    """is_square_local(a, p) for p None (the real place) or a prime already
    proved (not checked again)."""
    x = square_class(a, "a")
    if p is None:
        return x > 0
    val, u = split_power(x, p)
    if val % 2:
        return False
    if p == 2:
        return u % 8 == 1  # a unit is a square in Q_2 iff it is 1 mod 8
    return pow(u, (p - 1) // 2, p) == 1
