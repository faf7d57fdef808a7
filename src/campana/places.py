"""Places of Q, local Hilbert symbols, and the place-set invariants.

The closed-form local symbol is the classical one (signs at the real place,
Legendre-symbol formulas at odd p, the eps/omega formula at 2).  It is
validated against hilbert_oracle, an independent exhaustive search for
Hensel-liftable solutions of z^2 = a x^2 + b y^2 over Z/p^m.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple, Union

from . import arith, kernels
from .arith import RationalLike
from .errors import SearchExhausted


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime, or the single real archimedean place
    (prime is None)."""

    prime: Optional[int]

    def __post_init__(self):
        if self.prime is None:
            return
        try:
            p = operator.index(self.prime)  # an int, never a float
        except TypeError:
            raise ValueError(f"not a prime: {self.prime!r}") from None
        if not arith.is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "prime", p)

    @property
    def is_real(self) -> bool:
        return self.prime is None

    def _sort_key(self) -> Tuple[int, int]:
        return (0, 0) if self.is_real else (1, self.prime)

    def __lt__(self, other: "Place") -> bool:
        return self._sort_key() < other._sort_key()

    def __repr__(self):
        return "Place(inf)" if self.is_real else f"Place({self.prime})"


REAL_PLACE = Place(None)


def finite(p: int) -> Place:
    return Place(p)


class PlaceSet:
    """Finite set of places, canonically ordered: infinity first, then
    primes ascending."""

    __slots__ = ("_places",)

    def __init__(self, places: Iterable = ()):
        seen = {v if isinstance(v, Place) else Place(arith.place_prime(v))
                for v in places}
        object.__setattr__(self, "_places", tuple(sorted(seen, key=Place._sort_key)))

    @classmethod
    def of_primes(cls, primes: Iterable[int]) -> "PlaceSet":
        return cls(Place(p) for p in primes)

    def primes(self) -> Tuple[int, ...]:
        return tuple(p.prime for p in self._places if not p.is_real)

    def __iter__(self) -> Iterator[Place]:
        return iter(self._places)

    def __len__(self) -> int:
        return len(self._places)

    def __contains__(self, v) -> bool:
        if not isinstance(v, Place):
            v = Place(arith.place_prime(v))
        return v in self._places

    def __eq__(self, other) -> bool:
        if isinstance(other, PlaceSet):
            return self._places == other._places
        return NotImplemented

    def __hash__(self):
        return hash(self._places)

    def __or__(self, other: "PlaceSet") -> "PlaceSet":
        return PlaceSet(tuple(self._places) + tuple(other._places))

    def __and__(self, other: "PlaceSet") -> "PlaceSet":
        return PlaceSet(p for p in self._places if p in other)

    def isdisjoint(self, other: "PlaceSet") -> bool:
        return len(self & other) == 0

    def __repr__(self):
        inner = ", ".join("inf" if p.is_real else str(p.prime) for p in self._places)
        return "{" + inner + "}"


def local_data(x: int, p: int) -> Tuple[int, int]:
    """(alpha, u) with x = p^alpha u' for a nonzero integer x and a proved
    prime p: u is the unit u' reduced mod p, or mod 8 at p = 2, which is all
    local_symbol reads of it."""
    alpha, u = arith.split_power(x, p)
    return alpha, u % (8 if p == 2 else p)


def local_symbol(p: int, alpha: int, u: int, beta: int, w: int) -> int:
    """(p^alpha u, p^beta w)_p by the closed form, for p-adic units u, w
    given as integers: Legendre symbols at odd p, the eps/omega formula at
    p = 2.  With (alpha, u) from local_data, this is the fixed-a fast path:
    find_b evaluates it against many b for one a."""
    if p == 2:
        u, w = u % 8, w % 8
        eps_u, eps_w = u % 4 == 3, w % 4 == 3  # (u - 1)/2 mod 2
        om_u, om_w = u in (3, 5), w in (3, 5)  # (u^2 - 1)/8 mod 2
        e = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if e % 2 else 1
    h = (p - 1) // 2
    s = -1 if alpha * beta * h % 2 else 1
    if beta % 2 and pow(u, h, p) != 1:
        s = -s
    if alpha % 2 and pow(w, h, p) != 1:
        s = -s
    return s


def hilbert(a: RationalLike, b: RationalLike, v) -> int:
    """Quadratic Hilbert symbol (a,b)_v over Q_v, by the closed-form local
    formulas.  Returns +1 or -1."""
    an, ad = arith.num_den(a)
    bn, bd = arith.num_den(b)
    if an == 0 or bn == 0:
        raise ValueError("a, b must be nonzero")
    p = arith.place_prime(v)
    if p is None:
        return -1 if (an < 0 and bn < 0) else 1
    # a * den(a)^2 and b * den(b)^2 are integers with the same symbol
    alpha, u = local_data(an * ad, p)
    beta, w = local_data(bn * bd, p)
    return local_symbol(p, alpha, u, beta, w)


def _cleared_at(a: RationalLike, b: RationalLike, p: int):
    """(v, u) of a * den(a)^2 and of b * den(b)^2 at p, where p must be
    prime; v is |v_p(a)| (resp. |v_p(b)|), as p divides only one of a
    rational's numerator and denominator."""
    an, ad = arith.num_den(a)
    bn, bd = arith.num_den(b)
    if an == 0 or bn == 0:
        raise ValueError("a, b must be nonzero")
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    return arith.split_power(an * ad, p), arith.split_power(bn * bd, p)


def hilbert_oracle(a: RationalLike, b: RationalLike, p: int, precision: int) -> int:
    """Independent local-solvability oracle at a finite prime.

    Clears denominators and strips square factors of p (both are exact
    changes of variables on the conic z^2 = a x^2 + b y^2), then scans all
    primitive triples mod p^m for a Hensel-liftable solution.  m is capped
    at 2*(v_p(2) + max residual valuation) + 1, which is always <= precision
    given the stated precondition, and suffices for lifting.
    """
    (va, ua), (vb, ub) = _cleared_at(a, b, p)
    # tight Hensel requirement: 2*(v_p(2) + max residual valuation) + 1
    min_precision = max(3, 2 * max(va, vb) + (3 if p == 2 else 1))
    if precision < min_precision:
        raise ValueError(
            f"precision {precision} too small; need >= {min_precision}"
        )
    ra = ua * p ** (va % 2)
    rb = ub * p ** (vb % 2)
    resid = max(va % 2, vb % 2)
    m = min(precision, 2 * ((1 if p == 2 else 0) + resid) + 1)
    return 1 if kernels.conic_has_solution(ra, rb, p, m) else -1


def default_oracle_precision(a: RationalLike, b: RationalLike, p: int) -> int:
    (va, _), (vb, _) = _cleared_at(a, b, p)
    return 2 * max(va, vb) + 3


def odd_support(lam: RationalLike) -> PlaceSet:
    """Finite primes at which the valuation of lam is odd."""
    if Fraction(lam) == 0:
        raise ValueError("lam must be nonzero")
    fac = arith.factorize(lam)
    return PlaceSet.of_primes(p for p, e in fac.factors.items() if e % 2)


def _scan_places(a: Fraction, b: Fraction) -> PlaceSet:
    """Places where the symbol can be -1: infinity, 2, and the supports."""
    supp = set(arith.factorize(a).factors) | set(arith.factorize(b).factors)
    supp.add(2)
    return PlaceSet([REAL_PLACE] + [Place(p) for p in supp])


def delta(a: RationalLike, b: RationalLike) -> PlaceSet:
    """Places v with (a,b)_v = -1 (ramification set of the quaternion
    algebra); the scan is restricted to the finite set where -1 can occur."""
    a, b = Fraction(a), Fraction(b)
    return PlaceSet(v for v in _scan_places(a, b) if hilbert(a, b, v) == -1)


def delta_upper(a: RationalLike, b: RationalLike) -> PlaceSet:
    return delta(a, b) & (odd_support(a) | odd_support(b))


def omega(a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike) -> PlaceSet:
    return delta_upper(a, b) & delta_upper(c, d)


def reciprocity_check(a: RationalLike, b: RationalLike) -> bool:
    """Product of the local symbols over the scan set; always +1."""
    a, b = Fraction(a), Fraction(b)
    prod = 1
    for v in _scan_places(a, b):
        prod *= hilbert(a, b, v)
    return prod == 1


def find_local_counterexample(
    a: RationalLike, v, cap: int = 10_000
) -> Fraction:
    """Given a nonsquare in Q_v, find b with (a,b)_v = -1 by bounded
    enumeration over small integers (existence is guaranteed, so hitting
    the cap raises SearchExhausted)."""
    a = Fraction(a)
    p = arith.place_prime(v)
    if arith.is_square_local(a, p):
        raise ValueError(f"{a} is a square in Q_v at {v}; no counterexample")
    if p is None:
        return Fraction(-1)
    count = 0
    n = 1
    while count < cap:
        for b in (n, -n):
            count += 1
            if hilbert(a, b, p) == -1:
                return Fraction(b)
        n += 1
    raise SearchExhausted(f"no b with (a,b)_v = -1 found within {cap} candidates")
