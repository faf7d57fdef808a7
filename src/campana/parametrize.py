"""Constructing (a,b,c,d) with omega(a,b,c,d) equal to a prescribed prime set.

The route: a is built from S alone (the product of S, times the square of
an auxiliary prime for odd-size sets), so it has no prime factor outside S
and the auxiliary; a bounded search finds b with the prescribed
ramification; and two overlapping odd constructions with distinct
auxiliaries are intersected.  Every output is verified independently by
the places module before it is returned.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from . import arith, places
from .arith import RationalLike
from .errors import InvariantError, SearchExhausted


@dataclass
class SearchConfig:
    """Knobs for the bounded witness searches.  `steps` is not one: it
    counts the candidates find_b has examined."""

    candidate_cap: int = 100_000
    q_prime_bound: int = 100_000
    steps: int = field(default=0, init=False)

    def tick(self):
        self.steps += 1
        if self.steps > self.candidate_cap:
            raise SearchExhausted(
                f"candidate cap {self.candidate_cap} reached after {self.steps - 1} steps"
            )


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


def uniformizer_product(S: Iterable[int]) -> int:
    """The product of the primes of S: valuation exactly 1 at each p in S
    and no other prime factor, which keeps find_b's subset listing at
    2^(|S| + 1) products at most."""
    primes = places.PlaceSet.of_primes(S).primes()
    if not primes:
        raise ValueError("S must be nonempty")
    a = math.prod(primes)
    if any(arith.split_power(a, p)[0] != 1 for p in primes):
        raise InvariantError(f"uniformizer product {a} is not squarefree on {primes}")
    return a


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
    target_set = places.PlaceSet.of_primes(S)
    primes = target_set.primes()
    if len(primes) % 2:
        raise ValueError("|S| must be even")
    for v in target_set:
        if arith.is_square_local(a, v):
            raise ValueError(f"a is a square in Q_{v.prime}; no b can ramify there")
    if not primes:
        return Fraction(1)

    supp = arith.factorize(a).factors
    factor_primes = [2] + sorted((set(supp) | set(primes)) - {2})
    x = a.numerator * a.denominator
    local = {p: places.local_data(x, p) for p in factor_primes}
    target = {p: (-1 if p in primes else 1) for p in factor_primes}
    k = len(factor_primes)
    forbidden = set(factor_primes) | set(primes)

    # auxiliary primes, ascending, listed as the first lane reaches each;
    # 1 first so pure subset products lead
    pool = (q for q in arith.primes_up_to(cfg.q_prime_bound)
            if q > 2 and q not in forbidden)
    aux = [1]
    # at an odd p where a has even valuation and a nonsquare unit,
    # (a,b)_p = -1 exactly when p divides b: that mask bit is forced
    fixed = forced = 0
    for i, p in enumerate(factor_primes):
        alpha, u = local[p]
        if p != 2 and alpha % 2 == 0 and pow(u, (p - 1) // 2, p) != 1:
            fixed |= 1 << i
            forced |= (target[p] == -1) << i
    # lazy merge in increasing height: one heap lane per subset product
    heap = []
    for mask in range(1 << k):
        if mask & fixed != forced:
            continue
        prod = 1
        for i in range(k):
            if mask >> i & 1:
                prod *= factor_primes[i]
        heap.append((prod, mask, 0))
    heapq.heapify(heap)
    while heap:
        height, mask, j = heapq.heappop(heap)
        if j + 1 == len(aux):
            aux.extend(itertools.islice(pool, 1))
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
            if places.delta(a, b) != target_set:
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
    target = places.PlaceSet.of_primes(S)
    if len(target) % 2:
        raise ValueError("|S| must be even")
    if not target:
        return Fraction(1), Fraction(1)
    a = Fraction(uniformizer_product(target))
    b = find_b(a, target, config)
    return a, b


def construct_odd(
    S: Iterable[int],
    config: Optional[SearchConfig] = None,
    avoid: Iterable[int] = (),
) -> Tuple[Fraction, Fraction, int]:
    """(a,b,q) for odd |S|: q is the smallest odd prime outside S (and
    outside `avoid`) at which prod(S) is a nonsquare, a = prod(S) * q^2 has
    valuation 1 on S and 2 at q with a nonsquare unit, and b ramifies
    exactly on S u {q}; then the ramification primes where a has odd
    valuation are exactly S."""
    target = places.PlaceSet.of_primes(S)
    primes = target.primes()
    if len(primes) % 2 == 0:
        raise ValueError("|S| must be odd")
    blocked = set(primes) | set(avoid)
    a0 = uniformizer_product(target)
    # a0 is squarefree and > 1, so it is a nonsquare mod infinitely many q.
    # next_prime has proved each q, so the search reads Euler's criterion
    # and the checks below read q's place, with no second proof
    q = 3
    while q in blocked or pow(a0, (q - 1) // 2, q) != q - 1:
        q = arith.next_prime(q)
    aux = places.Place._proved(q)
    a = a0 * q * q
    if (any(arith.split_power(a, p)[0] != 1 for p in primes)
            or arith.split_power(a, q)[0] != 2 or arith.is_square_local(a, aux)):
        raise InvariantError(
            f"a = {a} lacks valuation 1 on {primes} or a nonsquare "
            f"valuation-2 unit at the auxiliary prime {q}")
    b = find_b(a, target | places.PlaceSet([aux]), config)
    return Fraction(a), b, q


def construct_omega(
    S: Iterable[int], config: Optional[SearchConfig] = None
) -> ConstructionReport:
    """(a,b,c,d) with omega(a,b,c,d) = S, for any finite set of primes.

    Even |S|: one even construction used twice.  Odd |S|: two odd
    constructions with distinct auxiliary primes; their ramification sets
    are S plus one auxiliary each, so the intersection is exactly S.
    """
    cfg = config if config is not None else SearchConfig()
    target = places.PlaceSet.of_primes(S)
    primes = target.primes()
    aux: List[int] = []
    if len(primes) % 2 == 0:
        a, b = construct_even(target, cfg)
        c, d = a, b
    else:
        a, b, q1 = construct_odd(target, cfg)
        c, d, q2 = construct_odd(target, cfg, avoid=[q1])
        aux = [q1, q2]
    achieved = places.omega(a, b, c, d)
    return ConstructionReport(
        a=a, b=b, c=c, d=d,
        target=target, achieved=achieved,
        search_steps=cfg.steps, auxiliary_primes=aux,
    )
