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
from .arith import RationalLike
from .errors import DegenerateSampler, InvariantError
from .forms import BinaryForm, binary_form


def in_J(a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike,
         r: RationalLike) -> bool:
    """r lies in the radical set J of (a,b,c,d): r = 0 or v_p(r) >= 1 at
    every prime of omega(a,b,c,d)."""
    return in_Jn(a, b, c, d, 1, r)


def in_Jn(a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike,
          n: int, r: RationalLike) -> bool:
    """r = 0, or v_p(r) >= n at every prime of omega(a,b,c,d)."""
    n = arith.check_n(n)
    num, _ = arith.num_den(r)
    primes = places.omega(a, b, c, d).primes()
    if num == 0:
        return True
    # n >= 1, so v_p(r) >= n is read off the numerator alone
    return all(arith.split_power(num, p)[0] >= n for p in primes)


def in_inv_Jn(a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike,
              n: int, r: RationalLike) -> bool:
    """r is an inverse of a nonzero element of J_n: r != 0 and v_p(r) <= -n
    at every prime of omega(a,b,c,d), that is, 1/r lies in J_n."""
    num, den = arith.num_den(r)
    # 1/r, or 0 for r = 0 so that in_Jn still checks every other argument
    return in_Jn(a, b, c, d, n, Fraction(den, num) if num else 0) and num != 0


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
    for name, r in zip(("a2", "b2", "c2", "d2"), (a2, b2, c2, d2)):
        arith.square_class(r, name)
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
    Only denominator primes can violate this, so only the denominator is
    factored."""
    n = arith.check_n(n)
    S = places.PlaceSet.of_primes(S).primes()
    num, den = arith.num_den(r)
    return num == 0 or all(
        k >= n or p in S for p, k in arith.factorize(den).factors.items())


def s_integer_member(S, r: RationalLike) -> bool:
    """r is integral outside S: every prime of its denominator lies in S."""
    S = places.PlaceSet.of_primes(S).primes()
    num, den = arith.num_den(r)
    return num == 0 or all(p in S for p in arith.factorize(den).factors)


def campana_member_form(S, n: int, F: BinaryForm, lam: RationalLike) -> bool:
    """Campana condition twisted by a binary form: tests F(lam, 1).  F must
    be a BinaryForm (ValueError otherwise, as in formulas.substitute_form)."""
    value = binary_form(F)(lam, 1)
    if value == 0:
        raise ValueError("F(lam, 1) = 0: lam is a root of the form")
    return campana_member(S, n, value)


def campana_via_coordinates(x0: RationalLike, x1: RationalLike, S, n: int) -> bool:
    """Campana membership of x0/x1 read off projective coordinates: the
    reduced denominator exponent e must satisfy e^2 >= n*e outside S."""
    n = arith.check_n(n)
    (n0, d0), (n1, d1) = arith.num_den(x0), arith.num_den(x1)
    if n1 == 0:
        raise ValueError("x1 must be nonzero")
    S = places.PlaceSet.of_primes(S).primes()
    if n0 == 0:
        return True  # every exponent is 0
    # e = v_p(x1) - v_p(x0) = v_p(n1 d0) - v_p(d1 n0) is > 0 only at primes
    # of n1 or d0, so only those are factored; for e > 0, e^2 < n e means e < n
    for p in arith.factorize(n1).factors.keys() | arith.factorize(d0).factors.keys():
        e = arith.split_power(n1 * d0, p)[0] - arith.split_power(d1 * n0, p)[0]
        if 0 < e < n and p not in S:
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
    arith.square_class(a, "a")
    arith.square_class(b, "b")
    a, b = arith.rational(a), arith.rational(b)
    rng = random.Random(arith.integer(seed, "seed"))
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
