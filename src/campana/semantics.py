"""Valuation-based membership oracles for the definable sets.

Radical sets J and J_n, their inverse sets, Campana sets C_{S,n} (plain,
form-twisted, and in projective coordinates), S-integers, and a sound
generator of trace elements for the base conic.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Tuple

from . import arith, places
from .arith import INF, RationalLike
from .errors import DegenerateSampler, InvariantError
from .forms import BinaryForm


def _coerce_prime_set(S) -> places.PlaceSet:
    if isinstance(S, places.PlaceSet):
        return S
    return places.PlaceSet.of_primes(S)


def in_J(a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike,
         r: RationalLike) -> bool:
    """r lies in the radical set J of (a,b,c,d): r = 0 or v_p(r) >= 1 at
    every prime of omega(a,b,c,d)."""
    return in_Jn(a, b, c, d, 1, r)


def in_Jn(a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike,
          n: int, r: RationalLike) -> bool:
    """r = 0, or v_p(r) >= n at every prime of omega(a,b,c,d)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = Fraction(r)
    if r == 0:
        return True
    return all(arith.valuation(r, p) >= n for p in places.omega(a, b, c, d).primes())


def in_inv_Jn(a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike,
              n: int, r: RationalLike) -> bool:
    """r is an inverse of a nonzero element of J_n: r != 0 and v_p(r) <= -n
    at every prime of omega(a,b,c,d)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = Fraction(r)
    if r == 0:
        return False
    return all(arith.valuation(r, p) <= -n for p in places.omega(a, b, c, d).primes())


def _sum_criterion(omega1: places.PlaceSet, omega2: places.PlaceSet,
                   check1, check2) -> bool:
    """Whether 1 = z + (1-z) splits with z in J and 1-z in J'.

    Constructive direction by CRT: z = 0 mod each prime of omega1, z = 1 mod
    each prime of omega2.  A common prime p forces v_p(z) >= 1 and
    v_p(1-z) >= 1 at once, which is impossible, so the criterion fails.
    """
    p1, p2 = omega1.primes(), omega2.primes()
    if set(p1) & set(p2):
        return False
    if not p1 and not p2:
        z = Fraction(0)
    else:
        z = Fraction(arith.crt([(p, 0) for p in p1] + [(p, 1) for p in p2]))
    return check1(z) and check2(1 - z)


def disjoint_omegas(a, b, c, d, a2, b2, c2, d2) -> bool:
    """omega(a,b,c,d) and omega(a2,b2,c2,d2) are disjoint.  Decided directly
    on the place sets, and cross-checked against the 1 in J + J' splitting
    criterion; the two verdicts must agree."""
    o1 = places.omega(a, b, c, d)
    o2 = places.omega(a2, b2, c2, d2)
    direct = o1.isdisjoint(o2)
    via_sum = _sum_criterion(
        o1, o2,
        lambda z: in_J(a, b, c, d, z),
        lambda z: in_J(a2, b2, c2, d2, z),
    )
    if direct != via_sum:
        raise InvariantError(
            f"disjointness criteria disagree: direct={direct} sum={via_sum} "
            f"for omegas {o1}, {o2}"
        )
    return direct


def campana_member(S, n: int, r: RationalLike) -> bool:
    """r in C_{S,n}: r = 0, or v_p(r) >= 0 or <= -n at every prime outside S.
    Only denominator primes can violate this."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = Fraction(r)
    if r == 0:
        return True
    S = _coerce_prime_set(S)
    for p, e in arith.factorize(r).factors.items():
        if e < 0 and -n < e and p not in S:
            return False
    return True


def s_integer_member(S, r: RationalLike) -> bool:
    """r is integral outside S: every denominator prime lies in S."""
    r = Fraction(r)
    if r == 0:
        return True
    S = _coerce_prime_set(S)
    return all(e > 0 or p in S for p, e in arith.factorize(r).factors.items())


def campana_member_form(S, n: int, F: BinaryForm, lam: RationalLike) -> bool:
    """Campana condition twisted by a binary form: tests F(lam, 1)."""
    value = F(Fraction(lam), 1)
    if value == 0:
        raise ValueError("F(lam, 1) = 0: lam is a root of the form")
    return campana_member(S, n, value)


def denominator_exponent(x0: RationalLike, x1: RationalLike, p: int) -> int:
    """Exponent of p in the reduced denominator of x0/x1, i.e.
    v_p(x1) - min(v_p(x0), v_p(x1)), with v_p(0) = +inf."""
    x0, x1 = Fraction(x0), Fraction(x1)
    if x1 == 0:
        raise ValueError("x1 must be nonzero")
    v1 = arith.valuation(x1, p)
    v0 = arith.valuation_ext(x0, p)
    return 0 if v0 is INF or v0 >= v1 else v1 - v0


def campana_via_coordinates(x0: RationalLike, x1: RationalLike, S, n: int) -> bool:
    """Campana membership of x0/x1 read off projective coordinates: the
    reduced denominator exponent e must satisfy e^2 >= n*e outside S."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x0, x1 = Fraction(x0), Fraction(x1)
    if x1 == 0:
        raise ValueError("x1 must be nonzero")
    S = _coerce_prime_set(S)
    # e > 0 only where v_p(x1) > v_p(x0), so the supports suffice
    support = set(arith.factorize(x1).factors)
    if x0 != 0:
        support |= set(arith.factorize(x0).factors)
    for p in support:
        if p in S:
            continue
        e = denominator_exponent(x0, x1, p)
        if e * e < n * e:
            return False
    return True


def _trace_witness(z, nrd):
    """t = trd(z)^2/nrd(z) - 2 and w = z^2/nrd(z), from z^2 = trd(z) z - nrd(z)."""
    x1, x2, x3, x4 = z
    w = (
        (2 * x1 * x1 - nrd) / nrd,
        2 * x1 * x2 / nrd,
        2 * x1 * x3 / nrd,
        2 * x1 * x4 / nrd,
    )
    return 4 * x1 * x1 / nrd - 2, w


def generate_trace_element(
    a: RationalLike, b: RationalLike, seed: int
) -> Tuple[Fraction, Tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Sample a reduced trace t of a norm-1 quaternion in H_{a,b}.

    Draws z = (x1,x2,x3,x4) with nrd(z) = x1^2 - a x2^2 - b x3^2 + ab x4^2
    nonzero and returns t = trd(z)^2/nrd(z) - 2 with the coordinates of
    w = z^2/nrd(z), computed via z^2 = trd(z) z - nrd(z).  The witness
    satisfies t^2 - 4a w2^2 - 4b w3^2 + 4ab w4^2 = 4 exactly.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("a, b must be nonzero")
    rng = random.Random(seed)
    for _ in range(100):
        z = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)
        )
        x1, x2, x3, x4 = z
        nrd = x1 * x1 - a * x2 * x2 - b * x3 * x3 + a * b * x4 * x4
        if nrd == 0:
            continue
        t, w = _trace_witness(z, nrd)
        check = t * t - 4 * a * w[1] ** 2 - 4 * b * w[2] ** 2 + 4 * a * b * w[3] ** 2
        if check != 4:
            raise InvariantError(f"trace witness {t}, {w} failed the defining conic")
        return t, w
    raise DegenerateSampler(
        f"could not sample a nonzero reduced norm in H_({a},{b}) from seed {seed}"
    )
