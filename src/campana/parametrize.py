"""Constructing (a,b,c,d) with omega(a,b,c,d) equal to a prescribed prime set.

The route: a is built from S alone (the product of S, times the square of
an auxiliary prime for odd-size sets), so it has no prime factor outside S
and the auxiliary; b with the prescribed ramification solves one linear
system over F_2 in the local symbols of a; and two overlapping odd
constructions with distinct auxiliaries are intersected.  Every output is
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
    a ValueError."""
    if config is None:
        return SearchConfig()
    if not isinstance(config, SearchConfig):
        raise ValueError(f"config must be a SearchConfig, not {config!r}")
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
    a = arith.rational(a)
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

    # a * den(a)^2 has the symbols of a; bit i is V[i]
    x = a.numerator * a.denominator
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
    cfg = _search_config(config)
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
