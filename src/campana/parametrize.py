"""Constructing (a,b,c,d) with omega(a,b,c,d) equal to a prescribed prime set.

The route: a CRT product of uniformizers pins the valuations of a, a bounded
search finds b with the prescribed ramification, an auxiliary prime handles
odd-size sets, and two overlapping constructions with distinct auxiliaries
are intersected.  Every output is verified independently by the places
module before it is returned.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from . import arith, places
from .arith import RationalLike
from .errors import InvariantError, SearchExhausted


@dataclass
class SearchConfig:
    """Knobs for the bounded witness searches; `steps` counts candidates
    examined and is mutated by find_b."""

    candidate_cap: int = 100_000
    q_prime_bound: int = 100_000
    deadline: Optional[float] = None  # time.monotonic() timestamp
    steps: int = 0

    def tick(self):
        self.steps += 1
        if self.steps > self.candidate_cap:
            raise SearchExhausted(
                f"candidate cap {self.candidate_cap} reached after {self.steps - 1} steps"
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchExhausted("search deadline exceeded")


@dataclass
class ConstructionReport:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    target: places.PlaceSet
    achieved: places.PlaceSet
    search_steps: int
    auxiliary_primes: List[int] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.achieved == self.target

    def to_dict(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "c": str(self.c),
            "d": str(self.d),
            "target": list(self.target.primes()),
            "achieved": list(self.achieved.primes()),
            "search_steps": self.search_steps,
            "aux": list(self.auxiliary_primes),
        }


def _normalize_prime_set(S: Iterable[int]) -> Tuple[int, ...]:
    out = sorted(set(int(p) for p in S))
    for p in out:
        if not arith.is_prime(p):
            raise ValueError(f"{p} is not prime")
    return tuple(out)


def uniformizer_product(S: Iterable[int]) -> int:
    """Product of CRT uniformizers: each factor y_p is p mod p^2 and 1 mod
    every other prime of S, so the product has valuation exactly 1 at each
    p in S."""
    primes = _normalize_prime_set(S)
    if not primes:
        raise ValueError("S must be nonempty")
    a = 1
    for p in primes:
        rest = math.prod(q for q in primes if q != p)
        if rest == 1:
            y = p
        else:
            y = arith.crt([(p * p, p), (rest, 1)])
        a *= y
    if any(arith.valuation(a, p) != 1 for p in primes):
        raise InvariantError(f"uniformizer product {a} is not squarefree on {primes}")
    return a


def _generator_mod(q: int) -> int:
    """Smallest generator of the multiplicative group mod a prime q."""
    if q == 2:
        return 1
    order_factors = arith._factor_int(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in order_factors):
            return g
    raise InvariantError(f"no generator mod the prime {q}")


def find_b(a: RationalLike, S: Iterable[int], config: Optional[SearchConfig] = None) -> Fraction:
    """Find b with hilbert(a,b,p) = -1 exactly at the primes of S.

    Requires |S| even (reciprocity makes an odd count impossible) and a a
    nonsquare in Q_p for every p in S.  Candidates are products of a sign,
    primes from {2} u S u supp(a), and one auxiliary prime, enumerated in
    increasing height; each hit is re-verified through the places module.
    """
    cfg = config if config is not None else SearchConfig()
    a = Fraction(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    primes = _normalize_prime_set(S)
    if len(primes) % 2:
        raise ValueError("|S| must be even")
    for p in primes:
        if arith.is_square_local(a, p):
            raise ValueError(f"a is a square in Q_{p}; no b can ramify there")
    if not primes:
        return Fraction(1)

    supp = arith.factorize(a).factors
    factor_primes = [2] + sorted((set(supp) | set(primes)) - {2})
    x = a.numerator * a.denominator
    local = {p: places.local_data(x, p) for p in factor_primes}
    target = {p: (-1 if p in primes else 1) for p in factor_primes}
    k = len(factor_primes)
    forbidden = set(factor_primes) | set(primes)

    # auxiliary primes, ascending; 1 first so pure subset products lead
    aux = [1] + [
        q for q in arith.primes_up_to(cfg.q_prime_bound)
        if q > 2 and q not in forbidden
    ]
    mask_prods = []
    for mask in range(1 << k):
        prod = 1
        for i in range(k):
            if mask >> i & 1:
                prod *= factor_primes[i]
        mask_prods.append((prod, mask))
    # lazy merge in increasing height: one heap lane per subset product
    heap = [(prod, mask, 0) for prod, mask in mask_prods]
    heapq.heapify(heap)
    while heap:
        height, mask, j = heapq.heappop(heap)
        if j + 1 < len(aux):
            prod = height // aux[j]
            heapq.heappush(heap, (prod * aux[j + 1], mask, j + 1))
        q = aux[j]
        for b in (height, -height):
            if a < 0 and b < 0:
                continue  # would ramify at the real place
            cfg.tick()
            ok = True
            for i, p in enumerate(factor_primes):
                beta = mask >> i & 1
                alpha, u = local[p]
                w = b // p if beta else b
                if places.local_symbol(p, alpha, u, beta, w) != target[p]:
                    ok = False
                    break
            if not ok:
                continue
            if q != 1 and places.hilbert(a, b, q) != 1:
                continue
            # independent re-verification over the full scan set
            if places.delta(a, b) != places.PlaceSet.of_primes(primes):
                raise InvariantError(
                    f"fast local check accepted b={b} but delta disagrees"
                )
            return Fraction(b)
    raise SearchExhausted(
        f"no b found for S={primes} with auxiliary primes up to {cfg.q_prime_bound}"
    )


def construct_even(
    S: Iterable[int], config: Optional[SearchConfig] = None
) -> Tuple[Fraction, Fraction]:
    """(a,b) whose ramification set (and its odd-support refinement) is
    exactly S; requires |S| even."""
    primes = _normalize_prime_set(S)
    if len(primes) % 2:
        raise ValueError("|S| must be even")
    if not primes:
        return Fraction(1), Fraction(1)
    a = Fraction(uniformizer_product(primes))
    b = find_b(a, primes, config)
    return a, b


def construct_odd(
    S: Iterable[int],
    config: Optional[SearchConfig] = None,
    avoid: Iterable[int] = (),
) -> Tuple[Fraction, Fraction, int]:
    """(a,b,q) for odd |S|: q is an auxiliary odd prime outside S (and
    outside `avoid`), a has valuation 1 on S and 2 at q with a nonsquare
    unit, and b ramifies exactly on S u {q}; then the ramification primes
    where a has odd valuation are exactly S."""
    primes = _normalize_prime_set(S)
    if len(primes) % 2 == 0:
        raise ValueError("|S| must be odd")
    blocked = set(primes) | set(avoid)
    q = 3
    while q in blocked:
        q = arith.next_prime(q)
    s_prime = tuple(sorted(primes + (q,)))
    a0 = uniformizer_product(s_prime)
    rest = math.prod(p for p in s_prime if p != q)
    y_q = q if rest == 1 else arith.crt([(q * q, q), (rest, 1)])
    g = _generator_mod(q)
    cofactor = a0 // y_q  # product of the other uniformizers; a unit mod q
    congruences = [(q, g * pow(cofactor % q, -1, q) % q)]
    s_prod = math.prod(primes)
    if s_prod > 1:
        congruences.append((s_prod, 1))
    tau = arith.crt(congruences)
    a = Fraction(tau * y_q * a0)
    if (any(arith.valuation(a, p) != 1 for p in primes)
            or arith.valuation(a, q) != 2 or arith.is_square_local(a, q)):
        raise InvariantError(
            f"a = {a} lacks valuation 1 on {primes} or a nonsquare "
            f"valuation-2 unit at the auxiliary prime {q}")
    b = find_b(a, s_prime, config)
    return a, b, q


def construct_omega(
    S: Iterable[int], config: Optional[SearchConfig] = None
) -> ConstructionReport:
    """(a,b,c,d) with omega(a,b,c,d) = S, for any finite set of primes.

    Even |S|: one even construction used twice.  Odd |S|: two odd
    constructions with distinct auxiliary primes; their ramification sets
    are S plus one auxiliary each, so the intersection is exactly S.
    """
    cfg = config if config is not None else SearchConfig()
    primes = _normalize_prime_set(S)
    target = places.PlaceSet.of_primes(primes)
    aux: List[int] = []
    if len(primes) % 2 == 0:
        a, b = construct_even(primes, cfg)
        c, d = a, b
    else:
        a, b, q1 = construct_odd(primes, cfg)
        c, d, q2 = construct_odd(primes, cfg, avoid=[q1])
        aux = [q1, q2]
    achieved = places.omega(a, b, c, d)
    return ConstructionReport(
        a=a, b=b, c=c, d=d,
        target=target, achieved=achieved,
        search_steps=cfg.steps, auxiliary_primes=aux,
    )
