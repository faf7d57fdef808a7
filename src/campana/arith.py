"""Exact integer/rational arithmetic: factorization, valuations, CRT, symbols.

Everything here is pure and operates on arbitrary-precision integers and
`fractions.Fraction`; nothing is ever rounded.
"""
from __future__ import annotations

import bisect
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import SearchExhausted

RationalLike = Union[int, Fraction]

TRIAL_DIVISION_BOUND = 10**6

# Deterministic Miller-Rabin witness set: correct for all n < 3.3 * 10^24,
# which covers every 64-bit input.  Larger inputs get extra random rounds.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


class _PlusInfinity:
    """Sentinel for the valuation of zero: larger than every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __ge__(self, other):
        return True

    def __gt__(self, other):
        return not isinstance(other, _PlusInfinity)

    def __le__(self, other):
        return isinstance(other, _PlusInfinity)

    def __lt__(self, other):
        return False

    def __eq__(self, other):
        return isinstance(other, _PlusInfinity)

    def __hash__(self):
        return hash("campana-plus-infinity")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "+inf"


INF = _PlusInfinity()

_small_primes_cache: List[int] = []


def _small_primes() -> List[int]:
    """Primes below TRIAL_DIVISION_BOUND, sieved once on demand."""
    global _small_primes_cache
    if not _small_primes_cache:
        n = TRIAL_DIVISION_BOUND
        sieve = bytearray([1]) * n
        sieve[0] = sieve[1] = 0
        for i in range(2, int(math.isqrt(n)) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(range(i * i, n, i)))
        _small_primes_cache = [i for i, fl in enumerate(sieve) if fl]
    return _small_primes_cache


def primes_up_to(n: int) -> List[int]:
    if n >= TRIAL_DIVISION_BOUND:
        raise ValueError(f"primes_up_to supports bounds below {TRIAL_DIVISION_BOUND}")
    ps = _small_primes()
    return ps[: bisect.bisect_right(ps, n)]


def is_prime(n: int) -> bool:
    """A lookup in the sieved primes below TRIAL_DIVISION_BOUND; above it,
    Miller-Rabin, deterministic below _MR_DETERMINISTIC_BOUND."""
    if n < TRIAL_DIVISION_BOUND:
        ps = _small_primes()
        i = bisect.bisect_left(ps, n)
        return i < len(ps) and ps[i] == n
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Miller-Rabin; deterministic below _MR_DETERMINISTIC_BOUND."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    k = n + 1
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

    def value(self) -> Fraction:
        out = Fraction(self.sign)
        for p, e in self.factors.items():
            out *= Fraction(p) ** e
        return out

    def support(self) -> List[int]:
        return sorted(self.factors)


def factorize(r: RationalLike) -> Factorization:
    """Exact factorization of a nonzero rational (denominator exponents < 0)."""
    q = Fraction(r)
    if q == 0:
        raise ValueError("cannot factorize 0")
    sign = 1 if q > 0 else -1
    factors = _factor_int(abs(q.numerator))
    for p, e in _factor_int(q.denominator).items():
        factors[p] = factors.get(p, 0) - e
    factors = {p: e for p, e in factors.items() if e != 0}
    return Factorization(sign, factors)


def num_den(r: RationalLike) -> Tuple[int, int]:
    """(numerator, denominator) of a rational in lowest terms, den > 0."""
    if type(r) is int:
        return r, 1
    if not isinstance(r, Fraction):
        r = Fraction(r)
    return r.numerator, r.denominator


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


def valuation(r: RationalLike, p: int) -> int:
    """p-adic valuation of a nonzero rational; rejects r = 0."""
    num, den = num_den(r)
    if num == 0:
        raise ValueError("valuation of 0 is not an integer; use valuation_ext")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return split_power(num, p)[0] - split_power(den, p)[0]


def valuation_ext(r: RationalLike, p: int):
    """Like valuation, but with the +inf sentinel at r = 0."""
    if num_den(r)[0] == 0:
        return INF
    return valuation(r, p)


def crt(congruences: Sequence[Tuple[int, int]]) -> int:
    """Least nonnegative x with x = r_i (mod m_i); moduli must be coprime."""
    if not congruences:
        raise ValueError("empty congruence list")
    x, m = 0, 1
    for mi, ri in congruences:
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
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def unit_part(r: RationalLike, p: int) -> Fraction:
    """r / p**valuation(r, p); a p-adic unit."""
    num, den = num_den(r)
    if num == 0:
        raise ValueError("unit part of 0 is undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Fraction(split_power(num, p)[1], split_power(den, p)[1])


def place_prime(v) -> Optional[int]:
    """The prime of a place-like argument, or None for the real place.

    v may be a places.Place (its prime was proved at construction), None or
    "inf" for the real place, or an integer, which must be prime.
    """
    if v is None or isinstance(v, str) and v == "inf":
        return None
    if hasattr(v, "prime"):
        return v.prime
    try:
        p = operator.index(v)
    except TypeError:
        raise ValueError(f"not a place: {v!r}") from None
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def is_square_local(a: RationalLike, v) -> bool:
    """Squareness of a nonzero rational in the completion at v.

    v may be a places.Place, a prime, or "inf"/None for the real place.
    """
    num, den = num_den(a)
    if num == 0:
        raise ValueError("a must be nonzero")
    p = place_prime(v)
    if p is None:
        return num > 0
    # a * den^2 is an integer in the square class of a
    val, u = split_power(num * den, p)
    if val % 2:
        return False
    if p == 2:
        return u % 8 == 1  # a unit is a square in Q_2 iff it is 1 mod 8
    return pow(u, (p - 1) // 2, p) == 1
