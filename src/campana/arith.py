"""Exact integer/rational arithmetic: factorization, valuations, CRT, symbols.

Everything here is pure and operates on arbitrary-precision integers and
`fractions.Fraction`; nothing is ever rounded.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple, Union

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
    import bisect

    return ps[: bisect.bisect_right(ps, n)]


def is_prime(n: int) -> bool:
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


def _pollard_rho(n: int, rng: random.Random) -> int:
    """Brent's cycle variant; n must be odd, composite, not a prime power hit
    by trial division."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
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
    stack = [n]
    rng = random.Random(0xC0FFEE ^ n)
    while stack:
        m = stack.pop()
        if m == 1:
            continue
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


def valuation(r: RationalLike, p: int) -> int:
    """p-adic valuation of a nonzero rational; rejects r = 0."""
    q = Fraction(r)
    if q == 0:
        raise ValueError("valuation of 0 is not an integer; use valuation_ext")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = 0
    n = abs(q.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def valuation_ext(r: RationalLike, p: int):
    """Like valuation, but with the +inf sentinel at r = 0."""
    if Fraction(r) == 0:
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
    return Fraction(r) / Fraction(p) ** valuation(r, p)


def _place_prime(v) -> Union[int, None]:
    """Normalize a place-like argument: None for the real place, else prime."""
    if v is None or v == "inf":
        return None
    if isinstance(v, int):
        if not is_prime(v):
            raise ValueError(f"{v} is not prime")
        return v
    if getattr(v, "is_real", False):
        return None
    p = getattr(v, "prime", None)
    if p is None:
        raise ValueError(f"not a place: {v!r}")
    return p


def is_square_local(a: RationalLike, v) -> bool:
    """Squareness of a nonzero rational in the completion at v.

    v may be a places.Place, a prime, or "inf"/None for the real place.
    """
    q = Fraction(a)
    if q == 0:
        raise ValueError("a must be nonzero")
    p = _place_prime(v)
    if p is None:
        return q > 0
    val = valuation(q, p)
    if val % 2 != 0:
        return False
    u = unit_part(q, p)
    if p == 2:
        # unit u is a square in Q_2 iff u = 1 (mod 8)
        num, den = u.numerator, u.denominator
        return (num * pow(den, -1, 8)) % 8 == 1
    num_mod = u.numerator % p
    den_inv = pow(u.denominator, -1, p)
    return legendre(num_mod * den_inv % p, p) == 1
