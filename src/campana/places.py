"""Places of Q, local Hilbert symbols, and the place-set invariants.

The closed-form local symbol is the classical one (signs at the real place,
Legendre-symbol formulas at odd p, the eps/omega formula at 2).  It is
validated against hilbert_oracle, an independent exhaustive search for
Hensel-liftable solutions of z^2 = a x^2 + b y^2 over Z/p^m.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import arith, kernels
from .arith import RationalLike
from .memo import memo


class PlaceSet:
    """Finite set of places, canonically ordered: infinity first, then
    primes ascending.  It holds a real flag and the sorted tuple of its
    proved primes; iterating gives None for the real place, then the
    primes as ints.  Immutable, so a memoized one can be shared."""

    __slots__ = ("_real", "_primes")

    def __init__(self, places: Iterable = ()):
        primes = {arith.place_prime(v) for v in arith.listed(places, "places")}
        object.__setattr__(self, "_real", None in primes)
        object.__setattr__(self, "_primes", tuple(sorted(primes - {None})))

    def __setattr__(self, name, value):
        raise AttributeError("PlaceSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("PlaceSet is immutable")

    def __reduce__(self):
        return PlaceSet._of_proved, (self._primes, self._real)

    @classmethod
    def of_primes(cls, primes: Iterable[int]) -> "PlaceSet":
        """The places of an iterable of primes, each through arith.prime
        (so None, or "inf", is refused rather than taken as the real
        place); a PlaceSet gives its finite places, proved already.
        Anything not iterable, such as None or 7, is a ValueError."""
        if isinstance(primes, PlaceSet):
            return cls._of_proved(primes._primes)
        return cls._of_proved(sorted({arith.prime(p) for p in arith.listed(primes, "S")}))

    @classmethod
    def _of_proved(cls, primes: Iterable[int], real: bool = False) -> "PlaceSet":
        """The places of distinct primes in ascending order, each already
        proved, after the real place if real: no place is gated or sorted
        again."""
        s = object.__new__(cls)
        object.__setattr__(s, "_real", real)
        object.__setattr__(s, "_primes", tuple(primes))
        return s

    def primes(self) -> Tuple[int, ...]:
        return self._primes

    def __iter__(self) -> Iterator[Optional[int]]:
        return iter([None] * self._real + list(self._primes))

    def __len__(self) -> int:
        return self._real + len(self._primes)

    def __contains__(self, v) -> bool:
        p = arith.place_prime(v)
        return self._real if p is None else p in self._primes

    def __eq__(self, other) -> bool:
        if isinstance(other, PlaceSet):
            return self._real == other._real and self._primes == other._primes
        return NotImplemented

    def __hash__(self):
        return hash((self._real, self._primes))

    def __or__(self, other: "PlaceSet") -> "PlaceSet":
        if not isinstance(other, PlaceSet):
            return NotImplemented
        return self._of_proved(sorted({*self._primes, *other._primes}), self._real or other._real)

    def __and__(self, other: "PlaceSet") -> "PlaceSet":
        if not isinstance(other, PlaceSet):
            return NotImplemented
        return self._of_proved([p for p in self._primes if p in other._primes],
                               self._real and other._real)

    def isdisjoint(self, other: "PlaceSet") -> bool:
        """Whether no place is in both; other that is not a PlaceSet is a
        ValueError."""
        if not isinstance(other, PlaceSet):
            raise ValueError(f"isdisjoint takes a PlaceSet, not {type(other).__name__}")
        return len(self & other) == 0

    def __repr__(self):
        inner = ["inf"] * self._real + [str(p) for p in self._primes]
        return "{" + ", ".join(inner) + "}"


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
    find_b evaluates it for one a against each of its generators."""
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
    formulas, on the square classes of a and b.  Returns +1 or -1."""
    x, y = arith.square_class(a, "a"), arith.square_class(b, "b")
    p = arith.place_prime(v)
    if p is None:
        return -1 if (x < 0 and y < 0) else 1
    alpha, u = local_data(x, p)
    beta, w = local_data(y, p)
    return local_symbol(p, alpha, u, beta, w)


def _clear(a: RationalLike, b: RationalLike, p: int):
    """(p, (v, u) of the square class of a, the same of b), with p through
    arith.prime; v is |v_p(a)| (resp. |v_p(b)|), as p divides only one of
    a rational's numerator and denominator."""
    p = arith.prime(p)
    x, y = arith.square_class(a, "a"), arith.square_class(b, "b")
    return p, arith.split_power(x, p), arith.split_power(y, p)


# typed keys: 7.0 == 7 and both hash alike, but only the int is a prime
_last_cleared = memo("places._last_cleared", maxsize=1, typed=True)(_clear)


def _cleared_at(a: RationalLike, b: RationalLike, p: int):
    """_clear(a, b, p), memoized for the last arguments, so that the pair
    hilbert_oracle(a, b, p, default_oracle_precision(a, b, p)) proves p and
    splits a and b once.  Errors are not memoized."""
    try:
        return _last_cleared(a, b, p)
    except TypeError:  # an unhashable argument; _clear gives its own error
        return _clear(a, b, p)


#: How many residue classes hilbert_oracle remembers; see hilbert_oracle.
_ORACLE_CACHE_SIZE = 1 << 14


@memo("places._scan_class", maxsize=_ORACLE_CACHE_SIZE)
def _scan_class(ra: int, rb: int, p: int, m: int) -> bool:
    """kernels.conic_has_solution on one class: ra <= rb, reduced mod p^m."""
    return kernels.conic_has_solution(ra, rb, p, m)


def hilbert_oracle(a: RationalLike, b: RationalLike, p: int, precision: int) -> int:
    """Independent local-solvability oracle at a finite prime.

    Clears denominators and strips square factors of p (both are exact
    changes of variables on the conic z^2 = a x^2 + b y^2), then searches
    for a primitive point mod p^m with kernels.conic_has_solution, an
    exhaustive scan that tests each distinct value of the conic once: every
    primitive point has x or y a unit and scales to x = 1 or y = 1, and
    a x^2 + b y^2 then depends on x or y only through a square, so the
    scan misses no point.  It reads no Legendre symbol, so it stays
    independent of hilbert.  m is 2*(v_p(2) + max residual valuation) + 1,
    which suffices for Hensel lifting; precision below
    2*(v_p(2) + max valuation) + 1 (and below 3) is refused, and a precision
    that passes is never below m, so it is read for that check only.

    The scan reads a and b only mod p^m, and is symmetric in them, so its
    answer is memoized per class (p, m and the sorted residues): the
    _ORACLE_CACHE_SIZE most recently used classes.  The arguments are
    checked on every call and errors are not memoized; hits and misses are
    campana.memos()["places._scan_class"].
    """
    p, (va, ua), (vb, ub) = _cleared_at(a, b, p)
    precision = arith.integer(precision, "precision")
    # tight Hensel requirement: 2*(v_p(2) + max residual valuation) + 1
    min_precision = max(3, 2 * max(va, vb) + (3 if p == 2 else 1))
    if precision < min_precision:
        raise ValueError(
            f"precision {precision} too small; need >= {min_precision}"
        )
    ra = ua * p ** (va % 2)
    rb = ub * p ** (vb % 2)
    resid = max(va % 2, vb % 2)
    m = 2 * ((1 if p == 2 else 0) + resid) + 1
    M = p ** m
    ra, rb = ra % M, rb % M
    if ra > rb:
        ra, rb = rb, ra
    return 1 if _scan_class(ra, rb, p, m) else -1


def default_oracle_precision(a: RationalLike, b: RationalLike, p: int) -> int:
    _, (va, _), (vb, _) = _cleared_at(a, b, p)
    return 2 * max(va, vb) + 3


# two entries, as omega reads two pairs
@memo("places._pair", maxsize=2, typed=True)
def _pair(a: RationalLike, b: RationalLike
          ) -> Tuple[bool, List[int], Dict[int, int], Dict[int, int]]:
    """(whether (a,b)_inf = -1, the primes p with (a,b)_p = -1 in ascending
    order, the exponent maps of a and b) for a and b read by arith.rational.

    Off 2 and the supports the symbol is +1, so one scan reads the closed
    form at those primes, which factorize has proved already.  The scan is
    memoized for the two most recent pairs, so delta, delta_upper, omega
    and reciprocity_check on one pair factorize it once; the list and maps
    are shared, and only read.  Errors are not memoized."""
    x, y = arith.square_class(a, "a"), arith.square_class(b, "b")
    fa = arith.factorize(a).factors
    fb = fa if b == a else arith.factorize(b).factors
    primes = [p for p in sorted({2, *fa, *fb})
              if local_symbol(p, *local_data(x, p), *local_data(y, p)) == -1]
    return x < 0 and y < 0, primes, fa, fb


def _delta_upper(a: RationalLike, b: RationalLike) -> List[int]:
    """The primes of delta(a, b) with an odd exponent in a or in b."""
    _, primes, fa, fb = _pair(a, b)
    return [p for p in primes if fa.get(p, 0) % 2 or fb.get(p, 0) % 2]


def delta(a: RationalLike, b: RationalLike) -> PlaceSet:
    """Places v with (a,b)_v = -1 (ramification set of the quaternion
    algebra); the scan is restricted to the finite set where -1 can occur."""
    real, primes, _, _ = _pair(arith.rational(a), arith.rational(b))
    return PlaceSet._of_proved(primes, real)


def delta_upper(a: RationalLike, b: RationalLike) -> PlaceSet:
    """delta(a, b) restricted to the odd supports of a and b."""
    return PlaceSet._of_proved(_delta_upper(arith.rational(a), arith.rational(b)))


#: How many (a, b, c, d) quadruples omega remembers; see omega.
OMEGA_CACHE_SIZE = 64


def omega(a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike) -> PlaceSet:
    """delta_upper(a, b) & delta_upper(c, d): the primes that define the
    radical set J of (a, b, c, d).

    Memoized per quadruple: the OMEGA_CACHE_SIZE most recently used
    quadruples (read by arith.rational, so 3 and Fraction(6, 2) are one key)
    keep their PlaceSet, which is immutable.  Errors are raised again on
    every call, and a zero is refused by its own letter before the scan;
    hits and misses are campana.memos()["places._omega"]."""
    args = tuple(map(arith.rational, (a, b, c, d)))
    if 0 in args:
        raise ValueError(f"{'abcd'[args.index(0)]} must be nonzero")
    return _omega(*args)


@memo("places._omega", maxsize=OMEGA_CACHE_SIZE)
def _omega(a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike) -> PlaceSet:
    primes = _delta_upper(a, b)
    if (a, b) != (c, d):
        second = set(_delta_upper(c, d))
        primes = [p for p in primes if p in second]
    return PlaceSet._of_proved(primes)


def reciprocity_check(a: RationalLike, b: RationalLike) -> bool:
    """Whether the local symbols over the scan set (inf, 2 and the
    supports) multiply to +1, i.e. are -1 at an even number of places;
    always True, by Hilbert reciprocity."""
    real, primes, _, _ = _pair(arith.rational(a), arith.rational(b))
    return (real + len(primes)) % 2 == 0


def find_local_counterexample(a: RationalLike, v) -> Fraction:
    """Given a nonsquare a in Q_v, a b with (a,b)_v = -1, by the local
    theory (Serre, A Course in Arithmetic, III 1.2): -1 at the real place;
    p at an odd p when v_p(a) is even, as a is then a unit nonsquare times a
    square; otherwise the first of b = 1, -1, 2, -2, ... with symbol -1,
    a unit nonresidue below p at an odd p and at most 3 in size at p = 2.
    v is proved once: the candidates are read by the closed form at the
    proved prime."""
    x = arith.square_class(a, "a")
    p = arith.place_prime(v)
    if arith._is_square_at(x, p):
        raise ValueError(f"{a} is a square in Q_v at {v}; no counterexample")
    if p is None:
        return Fraction(-1)
    alpha, u = local_data(x, p)
    if p != 2 and alpha % 2 == 0:
        return Fraction(p)
    for n in itertools.count(1):
        for b in (n, -n):
            if local_symbol(p, alpha, u, *local_data(b, p)) == -1:
                return Fraction(b)
