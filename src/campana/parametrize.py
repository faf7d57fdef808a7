"""Constructing (a,b,c,d) with omega(a,b,c,d) equal to a prescribed prime set.

One routine builds every pair (a, b): a is the product of S, times the
square of an auxiliary prime q when |S| is odd, so it has no prime factor
outside S and q; b, ramified exactly on S and q, solves one linear system
over F_2 in the local symbols of a.  Even |S| uses its pair twice; odd |S|
intersects two pairs with distinct auxiliaries.  Every output is
verified independently by the places module before it is returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from . import arith, places
from .arith import RationalLike
from .errors import InvariantError, SearchExhausted


@dataclass
class SearchConfig:
    """The bound on find_b's helper primes, an integer (ValueError
    otherwise).  `steps` is not a knob: it counts the helper primes find_b
    has tried, over every call that shares the config."""

    candidate_cap: int = 100_000
    steps: int = field(default=0, init=False)

    def __post_init__(self):
        self.candidate_cap = arith.integer(self.candidate_cap, "candidate_cap")

    def tick(self):
        self.steps += 1
        if self.steps > self.candidate_cap:
            raise SearchExhausted(
                f"candidate cap {self.candidate_cap} reached after {self.steps - 1} steps"
            )


def _search_config(config) -> SearchConfig:
    """config itself, or a fresh SearchConfig for None; anything else is
    a ValueError.  The cap is read again by arith.integer, as it may have
    been assigned since the config was made."""
    if config is None:
        return SearchConfig()
    if not isinstance(config, SearchConfig):
        raise ValueError(f"config must be a SearchConfig, not {config!r}")
    config.candidate_cap = arith.integer(config.candidate_cap, "candidate_cap")
    return config


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
    and no other prime factor, so find_b's symbol system for it has a row
    for 2 and each prime of S, and no more."""
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
    nonsquare in Q_p for every p in S.  This is the proof of Serre, A Course
    in Arithmetic, Ch. III 2.2 Theorem 4, with small primes in place of
    Dirichlet's: (a,b)_v is multiplicative in b, so over
    V = {2} u supp(a) u S each generator g (-1, 2, the odd primes of V,
    then helper primes l outside V with a a square mod l, smallest first)
    has a vector of symbols in F_2^|V|, and b is the squarefree product of
    the generators whose vectors sum to the target: -1 exactly on S.  A
    helper changes no symbol outside V, so by reciprocity b's symbol at
    inf is the product of those on V, +1 as |S| is even: inf needs no row.
    Each helper prime tried is one step of the config; b is re-verified
    through the places module.
    """
    cfg = _search_config(config)
    x = arith.square_class(a, "a")
    target_set = places.PlaceSet.of_primes(S)
    primes = target_set.primes()
    if len(primes) % 2:
        raise ValueError("|S| must be even")
    for p in primes:
        if arith._is_square_at(x, p):
            raise ValueError(f"a is a square in Q_{p}; no b can ramify there")
    if not primes:
        return Fraction(1)

    # bit i of a symbol vector is V[i]
    V = [2] + sorted((set(arith.factorize(a).factors) | set(primes)) - {2})
    local = [(p, *places.local_data(x, p)) for p in V]
    target = sum(1 << i for i, p in enumerate(V) if p in primes)
    gens: List[int] = []
    # reduced rows by leading bit: (symbol vector, generators combined as a mask)
    basis: Dict[int, Tuple[int, int]] = {}

    def reduce(vec: int, combo: int) -> Tuple[int, int]:
        while vec and vec.bit_length() - 1 in basis:
            row, row_combo = basis[vec.bit_length() - 1]
            vec, combo = vec ^ row, combo ^ row_combo
        return vec, combo

    def add(g: int):
        vec = 0
        for i, (p, alpha, u) in enumerate(local):
            beta = int(g == p)
            if places.local_symbol(p, alpha, u, beta, g // p if beta else g) == -1:
                vec |= 1 << i
        gens.append(g)
        vec, combo = reduce(vec, 1 << len(gens) - 1)
        if vec:
            basis[vec.bit_length() - 1] = vec, combo

    for g in [-1] + V:
        add(g)
    rest, combo = reduce(target, 0)
    ell = 2
    while rest:
        ell = arith.next_prime(ell)
        if ell in V:
            continue
        cfg.tick()
        if pow(x, (ell - 1) // 2, ell) == 1:
            add(ell)
            rest, combo = reduce(target, 0)
    b = math.prod(g for j, g in enumerate(gens) if combo >> j & 1)
    # independent re-verification over the full scan set
    if places.delta(a, b) != target_set:
        raise InvariantError(f"the symbol system gave b={b} but delta disagrees")
    return Fraction(b)


def _ramified_pair(
    target: places.PlaceSet, cfg: SearchConfig, avoid: Iterable[int] = ()
) -> Tuple[Fraction, Fraction, Optional[int]]:
    """(a, b, q) with b ramified exactly on S u {q} and a = prod(S) * q^2,
    so the ramification primes where a has odd valuation are exactly S.
    q is None for even |S| (and a = b = 1 for empty S).  For odd |S|, q is
    the smallest odd prime outside S and `avoid` at which prod(S) is a
    nonsquare, so the unit of a at q, of valuation 2, is a nonsquare."""
    primes = target.primes()
    if not primes:
        return Fraction(1), Fraction(1), None
    a, q = uniformizer_product(target), None
    if len(primes) % 2:
        blocked = set(primes) | set(avoid)
        # a is squarefree and > 1, so it is a nonsquare mod infinitely many
        # q.  next_prime has proved each q, so the search reads Euler's
        # criterion and the check below takes q as proved, with no second proof
        q = 3
        while q in blocked or pow(a, (q - 1) // 2, q) != q - 1:
            q = arith.next_prime(q)
        a *= q * q
        if arith.split_power(a, q)[0] != 2 or arith._is_square_at(a, q):
            raise InvariantError(
                f"a = {a} lacks a nonsquare valuation-2 unit at the auxiliary prime {q}")
        target |= places.PlaceSet._of_proved([q])
    return Fraction(a), find_b(a, target, cfg), q


def construct_omega(
    S: Iterable[int], config: Optional[SearchConfig] = None
) -> ConstructionReport:
    """(a,b,c,d) with omega(a,b,c,d) = S, for any finite set of primes.

    Even |S|: one ramified pair, used twice.  Odd |S|: two pairs with
    distinct auxiliary primes; their ramification sets are S plus one
    auxiliary each, so the intersection is exactly S.
    """
    cfg = _search_config(config)
    target = places.PlaceSet.of_primes(S)
    a, b, q = _ramified_pair(target, cfg)
    c, d, q2 = (a, b, None) if q is None else _ramified_pair(target, cfg, avoid=[q])
    aux = [] if q is None else [q, q2]
    achieved = places.omega(a, b, c, d)
    return ConstructionReport(
        a=a, b=b, c=c, d=d,
        target=target, achieved=achieved,
        search_steps=cfg.steps, auxiliary_primes=aux,
    )
