"""The kernels: the oracle's conic scan and the norm form, mod q and exact.

conic_has_solution is the Hilbert-symbol oracle's exhaustive scan for a
primitive point on z^2 = a x^2 + b y^2 mod p^m; it tests each distinct
value the conic takes on its two families of points once, and reads no
Legendre symbol.

The norm form of degree n is N(w_1..w_n) = Res(x^n - 2, sum w_j x^(j-1)).
norm_mod_rows gives it mod q for every row of an array, each with its own
modulus, norm_mod for one row, norm_int exactly over Z, and norm_value and
norm_is_zero at a rational point.  Each first halves the row by Graeffe's
root squaring while n is even (mod q in _halve_rows, over Z in
_halve_exact), and then reads the odd part w of length m that is left (mod
q in _odd_part_norms, over Z in norm_int):

- m = 1: the norm is w_0.
- m = 3: the norm form of Q(2^(1/3)), w0^3 + 2 w1^3 + 4 w2^3 - 6 w0 w1 w2
  (_cubic), in Python ints.
- m >= 5, mod q: each row by itself at a prime q; _twist_plan refuses a
  composite q, naming q and m.  In the group algebra F_q[z]/(z^m - 1)
  twisted by the m-th root of 2 mod q (_twisted_norm), whose ring products
  are exact int64 convolutions (_times), when q > m, gcd(m, q - 1) = 1 and
  m is within their int64 bound (m <= 65,535 at q = 2^31 - 1); otherwise
  by one Euclidean remainder sequence over F_q (_resultant).
- m >= 5, exact: norm_int takes CRT of norm_mod_rows over crt_primes, up
  to a Hadamard-style bound on the odd part.

A modulus is an int q with 2 <= q < 2^31.  Odd parts of 1 and 3 answer
exactly at any q, as the halving and the cubic hold over Z.  An integer is
what arith.integer reads, anything with __index__.  In reading a modulus and
its values, only _modulus, the shape check of _residues and _read_mod
refuse; a shortcut only answers, as _residues does for a list of lists of
ints, read by array("q") without an object array, and norm_mod for a list
of one int.  No answer goes through a float.
"""
from __future__ import annotations

import array
import math
import operator
from collections import OrderedDict
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from . import arith
from .arith import integer, is_prime, listed, prime
from .errors import InvariantError
from .memo import MemoInfo, memo, register

#: The one kernel implementation; benchmark records carry its name.
BACKEND = "py"

#: Residues mod M kept across calls by the conic scan, summed over M (at
#: most about 5 bytes each: the bool mask, and the int64 list of the
#: distinct squares, which holds at most about half of the residues).
SCAN_TABLE_BUDGET = 1 << 22
_scan_tables: "OrderedDict[int, tuple]" = OrderedDict()
_scan_counts = [0, 0]  # hits, misses of _square_tables


def _scan_info() -> MemoInfo:
    """The square tables' memo: its entries are residues, summed over M."""
    return MemoInfo(*_scan_counts, sum(_scan_tables), SCAN_TABLE_BUDGET)


def _scan_clear() -> None:
    _scan_tables.clear()
    _scan_counts[:] = [0, 0]


register("kernels._scan_tables", _scan_info, _scan_clear)


def _square_tables(M: int) -> tuple:
    """(the distinct squares mod M in increasing order, mask of the squares
    mod M), both read-only; the least recently used moduli are dropped
    beyond SCAN_TABLE_BUDGET."""
    tables = _scan_tables.get(M)
    if tables is not None:
        _scan_counts[0] += 1
        _scan_tables.move_to_end(M)
        return tables
    _scan_counts[1] += 1
    t = np.arange(M // 2 + 1, dtype=np.int64)  # (M - t)^2 = t^2 mod M
    is_square = np.zeros(M, dtype=bool)
    is_square[t * t % M] = True
    squares = np.flatnonzero(is_square).astype(np.int64, copy=False)
    squares.flags.writeable = False
    is_square.flags.writeable = False
    _scan_tables[M] = tables = (squares, is_square)
    total = sum(_scan_tables)
    while total > SCAN_TABLE_BUDGET and len(_scan_tables) > 1:
        total -= _scan_tables.popitem(last=False)[0]
    return tables


def conic_has_solution(a: int, b: int, p: int, m: int) -> bool:
    """Whether z^2 = a*x^2 + b*y^2 has a primitive solution mod M = p^m (one
    of x, y, z a unit), by an exhaustive scan that tests each distinct
    value of the conic once, for any a, b and m >= 1.

    If p divides x and y, it divides z^2 and so z; so a primitive point has
    x or y a unit, and scales to x = 1 or to y = 1.  The conic is
    symmetric under (a, x) <-> (b, y), so a and b are first ordered with
    g = gcd(b, M) >= gcd(a, M).  Then:

    - x = 1, y = t: a + b t^2 mod M depends only on t^2 mod M/g, so it is
      tested at each distinct square s mod M/g.
    - y = 1, x = t: a point with t a unit scales by 1/t to one with x = 1,
      seen above; so only t = p k is left, where t^2 = p^2 k^2 mod M
      depends only on k^2 mod p^(m-2) (nothing when m <= 2), and a t^2 + b
      is tested at p^2 s for each distinct square s mod p^max(m-2, 0).

    Each value goes through the mask of the squares mod M.  The caller keeps
    the valuations of a and b at p in {0, 1} and takes m large enough for
    Hensel lifting; then the answer is whether the conic has a point over
    Q_p, i.e. whether the Hilbert symbol (a, b)_p is 1.  a and b are
    integers, p a prime and m an integer >= 1, and p^m must not exceed
    4,000,000; anything else is a ValueError.
    """
    a, b, p, m = integer(a, "a"), integer(b, "b"), prime(p), integer(m, "m")
    if m < 1:
        raise ValueError(f"m must be >= 1, not {m}")
    M = p**m
    if M > 4_000_000:
        raise ValueError("modulus p^m too large for the scan kernel")
    am, bm = a % M, b % M
    ga, g = math.gcd(am, M), math.gcd(bm, M)
    if ga > g:
        am, bm, g = bm, am, ga
    is_square = _square_tables(M)[1]
    if is_square[(am + bm * _square_tables(M // g)[0]) % M].any():
        return True
    s = _square_tables(p ** max(m - 2, 0))[0]
    return bool(is_square[(am * p * p % M * s + bm) % M].any())


def norm_mod(coeffs: list, q: int) -> int:
    """Res(x^n - 2, h) mod q for h = sum(coeffs[j] x^j), len(coeffs) = n,
    as int(norm_mod_rows([coeffs], [q])[0]) gives it, with the same
    refusals.  A list of one int at an int q in range is read as it is:
    Res(x - 2, c) = c."""
    if (type(coeffs) is list and len(coeffs) == 1 and type(coeffs[0]) is int
            and type(q) is int and 2 <= q < 1 << 31):
        return coeffs[0] % q
    g, qs, column = _residues([coeffs], [q])
    return _odd_part_norms(_halve_rows(g, qs, column), qs)[0]


def norm_mod_rows(H, qs) -> np.ndarray:
    """Res(x^n - 2, h_i) mod qs[i] for every row h_i of the L x n array H
    (coefficients by ascending power), as an int64 array of length L.  H
    holds integers as _read_mod reads them."""
    g, qlist, column = _residues(H, qs)
    if not qlist:
        return np.zeros(0, dtype=np.int64)
    return np.array(_odd_part_norms(_halve_rows(g, qlist, column), qlist), dtype=np.int64)


def _residues(H, qs):
    """(the rows of H read mod their moduli, the moduli as a list and as an
    int64 column), after the checks of norm_mod_rows; H itself for no rows.

    A list or tuple of L lists of one length n >= 1 is read into one
    array("q"), list by list, which reads each item as _read_mod reads the
    items of the object array _as_array would make of it, without making
    that array.  Anything else, and rows with an item array("q") refuses
    (not an integer, or past int64), go through _as_array and _read_mod,
    which answer or refuse."""
    qlist = [_modulus(m) for m in listed(qs, "qs")]
    column = np.array(qlist, dtype=np.int64)[:, None]
    if (type(H) in (list, tuple) and len(H) == len(qlist) > 0
            and all(type(h) is list and len(h) == len(H[0]) > 0 for h in H)):
        items = array.array("q")
        try:
            for h in H:
                items.fromlist(h)
        except (TypeError, OverflowError):  # not an integer, or past int64
            pass
        else:
            return np.frombuffer(items, dtype=np.int64).reshape(len(H), -1) % column, \
                qlist, column
    rows = _as_array(H)
    if not qlist and rows.size == 0:
        return H, qlist, column
    if rows.ndim != 2 or rows.shape[0] != len(qlist) or rows.shape[1] == 0:
        raise ValueError("need an L x n array of coefficients, n >= 1, "
                         "and one modulus per row")
    return _read_mod(rows, column, "a coefficient"), qlist, column


def _read_mod(x, q, what: str) -> np.ndarray:
    """x mod q in int64, elementwise, for x made an array by _as_array and
    q int64 moduli that broadcast against it.  An integer is what
    arith.integer reads, anything with __index__: an int (True is 1) or a
    numpy integer.  A numpy bool has none, so np.True_ and a bool array are
    a ValueError naming what, as are a float, a str and a Fraction.  A
    signed dtype, or an unsigned one below 64 bits, promotes exactly to
    int64 against q; other items are read by array("q"), which calls
    __index__, and in Python ints past int64 (uint64 % int64 is float64)."""
    x = _as_array(x)
    kind = x.dtype.kind
    if kind == "i" or kind == "u" and x.dtype.itemsize < 8:
        return x % q
    if kind not in "uO":
        raise ValueError(f"{what} must be an integer, not a {x.dtype} array")
    items = x.ravel().tolist()
    try:
        return np.frombuffer(array.array("q", items), dtype=np.int64).reshape(x.shape) % q
    except (TypeError, OverflowError):  # not an integer, or past int64
        ints = np.array([integer(c, what) for c in items], dtype=object)
        return np.asarray(ints.reshape(x.shape) % q, dtype=np.int64)


def _as_array(x) -> np.ndarray:
    """x as an array: a sequence that starts with an array stacked, keeping
    the dtype an object array loses, else an object array of x's items."""
    if isinstance(x, np.ndarray):
        return x
    if type(x) in (list, tuple) and x and type(x[0]) is np.ndarray:
        return np.stack(x)
    return np.array(x, dtype=object)


def _cubic(w0: int, w1: int, w2: int) -> int:
    """Res(y^3 - 2, w0 + w1 y + w2 y^2) over Z: the norm form of Q(2^(1/3))."""
    return w0 ** 3 + 2 * w1 ** 3 + 4 * w2 ** 3 - 6 * w0 * w1 * w2


def _odd_part_norms(g, qs: list) -> list:
    """Res(y^m - 2, g_i) mod qs[i] for the rows g_i of odd length m, as a
    list of ints, for g of at least one column; the one place that decides
    how an odd part is read: at m = 1 the value, at m = 3 _cubic in Python
    ints, both at any q, and at m >= 5 each row by itself, where its own
    _twist_plan(m, q) refuses a composite q, then _twisted_norm where the
    plan applies and the one-row Euclid (_resultant) over F_q otherwise."""
    m = g.shape[1]
    if m == 1:
        return g[:, 0].tolist()
    if m == 3:
        return [_cubic(*w) % q for w, q in zip(g.tolist(), qs)]
    return [_resultant(w, q) if (plan := _twist_plan(m, q)) is None
            else _twisted_norm(w, q, plan) for w, q in zip(g, qs)]


def _modulus(q) -> int:
    """q, an int with 2 <= q < 2^31; anything else is a ValueError."""
    if type(q) is int and 2 <= q < 1 << 31:
        return q
    q = integer(q, "q")
    if q >= (1 << 31) or q < 2:
        raise ValueError("q out of range")
    return q


# Kronecker substitution: residues mod q (below 2^31) in slots of s bytes of
# one Python int, squared as a big int, and each slot read back mod q as the
# dot product of its bytes with 256^j mod q.

def _slot_bytes(terms: int, top: int) -> int:
    """The least s >= 4 with 256^s > terms * top^2: a slot of s bytes holds
    a residue up to top, and a sum of that many products of two, whole."""
    return max(4, ((terms * top * top).bit_length() + 7) // 8)


#: Moduli whose slot weights are kept; certify reads three, the CRT primes.
SLOT_WEIGHTS = 64


@memo("kernels._slot_weights", maxsize=SLOT_WEIGHTS)
def _slot_weights(q: int) -> np.ndarray:
    """256^j mod q for j < 16, read-only int64: the weights of any slot
    _halve_rows takes, _slot_bytes(4m + 1, t) bytes with 4m + 1 < 2^64 and
    t^2 < 2^62, so at most 16."""
    weights = np.array([pow(256, j, q) for j in range(16)], dtype=np.int64)
    weights.flags.writeable = False
    return weights


def _halve_rows(g, qs: list, q: np.ndarray):
    """Graeffe's root squaring mod q on the rows of g while their length n
    is even; returns the rows of odd length left.  qs are the rows' moduli,
    and q the same as an int64 column.

    The roots of x^n - 2 come in pairs +-a.  For h = h0(x^2) + x h1(x^2),
    h(x) h(-x) = H(x^2) with H = h0^2 - y h1^2, so Res(x^n - 2, h) =
    Res(y^m - 2, H mod (y^m - 2)) for m = n/2, exactly: x^n - 2 is monic.
    Reducing mod y^m - 2 folds H[j + m] into H[j] twice: the row left is
    R_j = H_j + 2 H_(j+m), j < m.

    Each row is one Python int per step, by Kronecker substitution.  The m
    coefficients of h0 (or h1), each at most t = max(qs) - 1, fill slots
    of s bytes, X = 256^s, and h0 is squared once: A = sum a_k X^k, where
    a_k sums at most m products of two coefficients.  So is B = h1^2 =
    sum b_k X^k.  R is then formed on the same ints as (A mod X^m) +
    2 (A >> m slots) - X (B mod X^(m-1)) - 2 (B >> m - 1 slots) + C (1 +
    X + ... + X^(m-1)): in slot j, a_j + 2 a_(j+m), at most (2m - 1) t^2,
    less b_(j-1) + 2 b_(j+m-1), at most 2m t^2, plus C, the least multiple
    of the row's q at or above 2m t^2.  Every slot of R is then in
    [0, (4m - 1) t^2 + q), and s = _slot_bytes(4m + 1, t) holds it whole,
    so no slot of A, B or R carries into the next (to_bytes raises
    OverflowError otherwise), and R's slot j is R_j + C, the same mod q.
    A slot is read mod q as the dot product of its bytes with 256^j mod q
    (_slot_weights): at most s 255 (q - 1) < 2^63 in int64 before its one
    reduction.  No float is involved.  g has at least one column: every
    caller refuses an empty row first.
    """
    top = max(qs) - 1
    weights = None
    while g.shape[1] % 2 == 0:
        rows, n = g.shape
        m = n // 2
        s = _slot_bytes(4 * m + 1, top)
        if weights is None:  # the first step has the widest slots
            # one row of weights per distinct modulus: one broadcasts over
            # every row, and moduli that are all distinct are in order
            distinct = dict.fromkeys(qs)
            weights = np.array([_slot_weights(p) for p in distinct])[:, :, None]
            if 1 < len(distinct) < len(qs):
                position = {p: k for k, p in enumerate(distinct)}
                weights = weights[list(map(position.get, qs))]
        # per row, h0's m slots and then h1's: each residue's four low bytes
        slots = np.zeros((rows, 2, m, s), dtype=np.uint8)
        slots[..., :4] = g.astype("<i8", copy=False).reshape(rows, m, 2, 1).transpose(
            0, 2, 1, 3).view(np.uint8)[..., :4]
        packed = slots.tobytes()
        width, bits = m * s, 8 * s
        low, high = (1 << bits * m) - 1, (1 << bits * (m - 1)) - 1
        ones = int.from_bytes(b"\x01".ljust(s, b"\x00") * m, "little")
        least = 2 * m * top * top
        out = []
        for i, p in zip(range(0, len(packed), 2 * width), qs):
            h0 = int.from_bytes(packed[i:i + width], "little")
            h1 = int.from_bytes(packed[i + width:i + 2 * width], "little")
            a, b = h0 * h0, h1 * h1
            r = ((a & low) + (a >> bits * m << 1) - ((b & high) << bits)
                 - (b >> bits * (m - 1) << 1) + -(-least // p) * p * ones)
            out.append(r.to_bytes(width, "little"))
        d = np.frombuffer(b"".join(out), dtype=np.uint8).reshape(rows, m, s)
        g = (d @ weights[:, :s])[..., 0] % q
    return g


def _factors(m: int) -> dict:
    """{p: a} with m = prod p^a, for m >= 1, by trial division by 2 and the
    odd d <= sqrt(m)."""
    out, d = {}, 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _generator(p: int, pi: int, e: int) -> int:
    """A c whose powers mod e run over the factor (Z/p^i)^* of (Z/e)^*, for
    p odd and pi = p^i exactly dividing e: c = 1 mod e / p^i, and c = g
    mod p^i for g the least primitive root mod p (g^((p - 1)/l) != 1 for
    every prime l | p - 1).  The plan's int64 bound keeps m below
    11,863,373, so p^2 | e only for p < 3,445, where g^(p - 1) != 1 mod p^2
    and so g is a primitive root mod every power of p."""
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // l, p) != 1 for l in _factors(p - 1)))
    rest = e // pi
    return g + pi * ((1 - g) * pow(pi, -1, rest) % rest)


def _chain(c: int, r: int, e: int) -> tuple:
    """The steps that multiply out prod_{k < r} sigma^k(G) for sigma the
    automorphism z -> z^(1/c) of F_q[z]/(z^e - 1), c of order r mod e.

    With A_k = prod_{i < k} sigma^i(G), A_2k = A_k sigma^k(A_k) and A_(k+1)
    = G sigma(A_k); r is read by its bits from the top, so about 2 log2 r
    products.  sigma^k(A) is A[index] for index[j] = j c^k mod e.  A step is
    (index, True) for A <- A sigma^k(A), (index, False) for A <- G sigma(A).
    """
    steps, k, j = [], 1, np.arange(e)
    for bit in bin(r)[3:]:
        steps.append((j * pow(c, k, e) % e, True))
        k *= 2
        if bit == "1":
            steps.append((j * c % e, False))
            k += 1
    return tuple(steps)


#: (m, q) pairs whose twist plan (or None) is kept; certify reads at most
#: nine, m = 5, 97 and 145 at the three CRT primes.
TWIST_PLANS = 32


@memo("kernels._twist_plan", maxsize=TWIST_PLANS)
def _twist_plan(m: int, q: int):
    """The plan of _twisted_norm for an odd part of length m >= 5 mod q,
    or None where it does not apply: q <= m, gcd(m, q - 1) > 1, or m past
    the int64 bound of _times, (q - 1)(m (2^16 - 1) + 2^17) < 2^63, which
    at q = 2^31 - 1 admits m <= 65,535.  The one place that decides which
    moduli an odd part of m >= 5 is read at: q is proved prime first, and a
    composite q is a ValueError naming q and m (lru_cache keeps no error),
    so _twisted_norm and _resultant only ever see a prime q.

    The plan is (alpha^j mod q for j < m, the stages).  A stage, one per
    p^a || m by increasing p^a, is (r, its parts); a part, one per
    1 <= i <= a, is (e = p^i r, the _chain of a generator of the factor
    (Z/p^i)^* of (Z/e)^*, the contraction weights of length e).  Every ring
    product of the norm has length e <= m."""
    if not is_prime(q):
        raise ValueError(f"an odd part of {m} values is read mod a prime q, "
                         f"and q = {q} is not prime")
    if q <= m or math.gcd(m, q - 1) != 1 or (q - 1) * (m * 0xFFFF + (1 << 17)) >= 1 << 63:
        return None
    alpha = pow(2, pow(m, -1, q - 1), q)
    stages, length = [], m
    # _factors, not arith.factorize, whose sieve certify never loads; the
    # longest chains run on the shortest rows
    for p, a in sorted(_factors(m).items(), key=lambda f: f[0] ** f[1]):
        r = length // p**a
        parts = []
        for i in range(1, a + 1):
            pi, e = p**i, p**i * r
            # the Ramanujan sum c_(p^i)(j) over phi(p^i): 1 where p^i | j,
            # -1/(p - 1) where only p^(i-1) | j, and 0 elsewhere
            contract = np.zeros(e, dtype=np.int64)
            contract[::pi // p] = q - pow(p - 1, -1, q)
            contract[::pi] = 1
            parts.append((e, _chain(_generator(p, pi, e), pi // p * (p - 1), e), contract))
        stages.append((r, tuple(parts)))
        length = r
    return np.array([pow(alpha, j, q) for j in range(m)], dtype=np.int64), tuple(stages)


def _times(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a b in F_q[z]/(z^e - 1), for a and b int64 residues mod q of length
    e, as exact int64 convolutions: b splits into 16-bit limbs, b = lo +
    2^16 hi, each limb is convolved with a, and c = a lo + 2^16 (a hi mod q)
    is folded mod z^e - 1 and reduced.

    The int64 bound, fold included: c_j and c_(j + e), which the fold adds,
    take j + 1 and e - 1 - j products of a lo, e in all, each at most
    (q - 1)(2^16 - 1), and one 2^16 (a hi mod q) each, below (q - 1) 2^16;
    so a folded coefficient is at most (q - 1)(e (2^16 - 1) + 2^17), which
    must stay below 2^63: _twist_plan admits no longer product.  a hi,
    before its reduction, is at most e (q - 1) 2^15, below that bound.  At
    q = 2^31 - 1 that is e <= 65,535.  No float is involved.
    """
    e = len(a)
    c = np.convolve(a, b & 0xFFFF) + (np.convolve(a, b >> 16) % q << 16)
    c[:e - 1] += c[e:]
    return c[:e] % q


def _twisted_norm(g, q: int, plan: tuple) -> int:
    """Res(y^m - 2, g) mod q for one row g of odd length m, in the group
    algebra F_q[z]/(z^m - 1).

    q is a prime above m with gcd(m, q - 1) = 1, so alpha = 2^(1/m mod
    (q - 1)) is the one m-th root of 2 mod q, and the roots of y^m - 2 are
    alpha zeta over the m-th roots of unity zeta, all distinct.  With x_j
    = g_j alpha^j, the resultant is prod_zeta x(zeta), a circulant
    determinant.  By CRT, F_q[Z/m] = F_q[Z/p^a] (x) F_q[Z/r] for each
    p^a || m and r = m / p^a, and each stage takes the product over the
    p^a-th roots of unity u, y(v) = prod_u x(u, v), down to F_q[Z/r]:
    - u = 1 gives x folded mod z^r - 1;
    - the u of order p^i, 1 <= i <= a: with e = p^i r, X = x mod (z^e - 1)
      and P = prod X(z^c) over the c of the factor (Z/p^i)^* of (Z/e)^*,
      multiplied out by its generator's chain (_chain), P(u, v) is the same
      at every such u.  So it is the mean over them, sum_j P_j w_j folded
      mod z^r - 1, where w_j = c_(p^i)(j) / phi(p^i) with c the Ramanujan
      sum: the constant Phi_(p^i)-component of P in u.
    The last stage leaves r = 1, the resultant.  The Ramanujan sums are
    multiplicative, so this is the mean sum_j P_j c_e(j) / phi(e) of the
    whole-ring product taken one prime at a time.

    Every value is a residue mod q in int64: a step of a chain permutes one
    (p.take(index)) and multiplies two by _times, whose int64 bound the
    plan's m meets.  No float is involved.  Each product is an O(e^2)
    convolution: on one row at q = 2^31 - 1 this took 0.14 ms at m = 97
    and 145 and 68 ms at m = 1,999, against 0.29-0.34 ms and 79 ms for
    the Kronecker big-int products it replaced, which are O(e^1.58) and
    pass it by m = 4,001 (228 against 269 ms; 2-core x86-64).
    """
    alpha, stages = plan

    def fold(x, e):
        return x.reshape(-1, e).sum(axis=0) % q if len(x) > e else x

    x = g * alpha % q
    for r, parts in stages:
        y = fold(x, r)
        for e, chain, contract in parts:
            p = base = fold(x, e)
            for index, double in chain:
                p = _times(p if double else base, p.take(index), q)
            z = fold(p * contract % q, r)
            y = y * z % q if r == 1 else _times(y, z, q)
        x = y
    return int(x[0])


def _resultant(g, q: int) -> int:
    """Res(x^n - 2, g) mod q for one row g of n int64 residues mod a prime
    q, by one Euclidean remainder sequence over F_q, where every leading
    coefficient is a unit.

    Each step divides f (x^n - 2 at first) by g and uses Res(f, g) =
    (-1)^(df dg) lc(g)^(df - dr) Res(g, r): of the power of lc(g) it takes
    df - dg now, together with the pending power of lc(f), and leaves
    dg - dr pending for the next step, where g is the new f.  The quotient
    comes from the top coefficients in Python ints; each of its terms c is
    then one int64 update f - c g of f, reduced mod q at once: c g is at
    most (q - 1)^2 < 2^62, so no value leaves int64.
    """
    n = len(g)
    f = np.zeros(n + 1, dtype=np.int64)
    f[0], f[n] = -2 % q, 1
    g = np.array(g, dtype=np.int64)
    res = 1
    while True:
        nonzero = np.flatnonzero(g)
        if not len(nonzero):
            return 0
        df, dg = len(f) - 1, int(nonzero[-1])
        g = g[:dg + 1]
        e, a = df - dg, int(g[dg])
        top = f[dg:].tolist()
        if dg == 0:
            return res * pow(top[e] * a, df, q) % q
        res = (-res if df & dg & 1 else res) * pow(top[e] * a, e, q) % q
        inv = pow(a, -1, q)
        # quotient coefficients, highest first: term t cancels x^(dg + t),
        # where the earlier terms met g's coefficients just below its lead
        head, low, quo = g[max(dg - e, 0):dg].tolist(), g[:dg], []
        for t in range(e, -1, -1):
            c = (top[t] - sum(map(operator.mul, reversed(quo), reversed(head)))) * inv % q
            quo.append(c)
            f[t:t + dg] = (f[t:t + dg] - c * low) % q
        f, g = g, f[:dg]

_CRT_PRIME_CEILING = (1 << 31) - 1
#: How many primes crt_primes can give: the odd primes below 2^31, that is
#: pi(2^31) - 1 = 105,097,565 - 1, as its search steps down over odd n.
CRT_PRIME_COUNT = 105_097_564
_crt_primes: List[int] = []


def crt_primes(k: int) -> List[int]:
    """The k largest primes below 2^31, cached; k is an int with
    0 <= k <= CRT_PRIME_COUNT."""
    if not 0 <= integer(k, "k") <= CRT_PRIME_COUNT:
        raise ValueError(f"k must be in [0, {CRT_PRIME_COUNT}], not {k}")
    while len(_crt_primes) < k:
        n = (_crt_primes[-1] if _crt_primes else _CRT_PRIME_CEILING + 2) - 2
        while not arith.is_prime(n):
            n -= 2
        _crt_primes.append(n)
    return _crt_primes[:k]


def _norm_int_bound_bits(w: Sequence[int]) -> int:
    """bits of a bound on |det| of the multiplication matrix of sum w_j t^(j-1)
    in Z[t]/(t^n - 2): rows have entries among {w_j, 2 w_j} permuted."""
    n = len(w)
    mw = max(abs(x) for x in w)
    row = 2 * mw * math.isqrt(n) + 2 * mw
    return n * max(1, row.bit_length()) + 2


def _square_exact(c: List[int]) -> List[int]:
    """The coefficients of c(y)^2 for integer coefficients c, by one
    Kronecker-substituted square.

    A coefficient of c^2 is a sum of at most m = len(c) products, so its
    absolute value is at most B = m max|c_j|^2.  Slots of s bytes with
    2^(8s - 1) > B hold each one as a balanced digit in [-2^(8s-1),
    2^(8s-1)), and those digits are unique; the square is read back slot by
    slot, carrying one into the next slot when a digit is negative.
    """
    m = len(c)
    bound = m * max(map(abs, c)) ** 2
    s = (bound.bit_length() + 8) // 8
    shift, half, full = 8 * s, 1 << (8 * s - 1), 1 << (8 * s)
    v = 0
    for x in reversed(c):
        v = (v << shift) + x
    sq = (v * v).to_bytes((2 * m - 1) * s, "little")
    out, carry = [], 0
    for i in range(0, len(sq), s):
        d = int.from_bytes(sq[i:i + s], "little") + carry
        carry = d >= half
        out.append(d - full if carry else d)
    if carry:  # the top digit is c[m-1]^2 >= 0
        raise InvariantError("Kronecker slot too narrow for an exact square")
    return out


def _halve_exact(w: List[int]) -> List[int]:
    """Graeffe's root squaring over Z while len(w) is even: the odd-length
    vector whose norm equals the norm of w.

    For h = h0(x^2) + x h1(x^2), h(x) h(-x) = H(x^2) with H = h0^2 - y h1^2,
    and Res(x^n - 2, h) = Res(y^m - 2, H mod (y^m - 2)) for m = n/2 (see
    _halve_rows).  The squares are exact, so coefficient bit
    lengths roughly double with every step.  w is nonempty: norm_int
    refuses an empty vector first.
    """
    while len(w) % 2 == 0:
        m = len(w) // 2
        h = _square_exact(w[0::2]) + [0]
        for j, x in enumerate(_square_exact(w[1::2]), 1):
            h[j] -= x
        w = [h[j] + 2 * h[j + m] for j in range(m)]
    return w


def norm_int(w: Sequence[int]) -> int:
    """Exact norm Res(x^n - 2, sum w_j x^(j-1)) of an integer vector; the
    CRT primes of an odd part of 5 or more go through one norm_mod_rows
    call."""
    w = [integer(x, "a coefficient") for x in listed(w, "w")]
    if not w:
        raise ValueError("a norm needs at least one coefficient")
    if not any(w):
        return 0
    w = _halve_exact(w)
    if len(w) == 1:
        return w[0]
    if len(w) == 3:
        return _cubic(*w)
    bits = _norm_int_bound_bits(w)
    primes, m = [], 1
    for q in crt_primes(bits // 30 + 2):
        primes.append(q)
        m *= q
        if m.bit_length() > bits + 1:
            break
    residues = norm_mod_rows([w] * len(primes), primes)
    x = arith.crt(list(zip(primes, residues.tolist())))
    if x > m // 2:
        x -= m
    return x


def _clear_denominators(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(w, l) with l the least common denominator of a nonempty vector of
    rationals and w = l * values, a vector of integers.  values that is not
    iterable is a ValueError, and each value is read by arith.num_den, so a
    float is refused, as its binary expansion would reach the exact answer."""
    pairs = [arith.num_den(v) for v in listed(values, "values")]
    if not pairs:
        raise ValueError("a norm needs at least one coefficient")
    lcm = math.lcm(*(d for _, d in pairs))
    return [n * (lcm // d) for n, d in pairs], lcm


def norm_value(values: Sequence[Fraction]) -> Fraction:
    """Exact norm-form value at a rational point (homogeneous of degree n)."""
    w, lcm = _clear_denominators(values)
    return Fraction(norm_int(w), lcm**len(w))


def norm_is_zero(values: Sequence[Fraction]) -> bool:
    """Exact zero test, cheap path first: a single nonzero residue certifies
    nonvanishing; otherwise fall back to the exact value."""
    w, _ = _clear_denominators(values)
    if not any(w):
        return True
    if norm_mod_rows([w] * 3, crt_primes(3)).any():
        return False
    return norm_int(w) == 0
