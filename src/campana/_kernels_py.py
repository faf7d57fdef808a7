"""The hot kernels, in numpy and Python ints.

conic_has_solution is the Hilbert-symbol oracle's exhaustive scan for a
primitive point on z^2 = a x^2 + b y^2 mod p^m; it tests each distinct
value the conic takes on its two families of points once, and reads no
Legendre symbol.  norm_mod and norm_mod_rows give the resultant
Res(x^n - 2, h) mod q, for one row h or for every row of an array, each
with its own modulus, by Graeffe halving, then the norm form of
Q(2^(1/3)) for an odd part of length 3.  A longer odd part of one row
(norm_mod) is read in the group algebra F_q[z]/(z^m - 1), twisted by the
m-th root of 2 mod q, when q is a prime above m with gcd(m, q - 1) = 1;
every other one, and every odd part of norm_mod_rows, goes through a
Euclid.  campana.kernels builds the exact norm on them.  No answer goes
through a float.
"""
from __future__ import annotations

import math
import operator
from collections import OrderedDict

import numpy as np

from .arith import integer, is_prime, listed, prime
from .memo import MemoInfo, memo, register

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


register("_kernels_py._scan_tables", _scan_info, _scan_clear)


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
    """Res(x^n - 2, h) mod q for h = sum(coeffs[j] x^j), len(coeffs) = n;
    coeffs without a length, such as None or 7, is a ValueError.  q need
    not be prime (see norm_mod_rows).

    The row is halved as norm_mod_rows halves it.  An odd part of length 3
    is read by the same cubic as there, but in Python ints, reduced mod q
    once.  An odd part of length m >= 5 is read in the group algebra of
    Z/m (_twisted_norm) when q is a prime with q > m and gcd(m, q - 1) = 1,
    as at the tower's m = 97 and 145 and every CRT prime; any other odd
    part is read as norm_mod_rows reads it."""
    try:
        n = len(coeffs)
    except TypeError:
        raise ValueError(f"coeffs must be a sequence, not {coeffs!r}") from None
    if n == 1:  # Res(x - 2, c) = c; an int, and an int q in range, as they are
        c = coeffs[0]
        if type(c) is not int:
            c = integer(c, "a coefficient")
        if type(q) is not int or not 2 <= q < 1 << 31:
            q = _modulus(q)
        return c % q
    g, qs = _residues([coeffs], [q])
    g = _halve_rows(g, qs)
    if g.shape[1] == 3:
        return _cubic(*g[0].tolist()) % qs[0]
    plan = _twist_plan(g.shape[1], qs[0]) if g.shape[1] >= 5 else None
    if plan is None:
        return int(_odd_part_norms(g, qs)[0])
    return _twisted_norm(g[0], qs[0], plan)


def norm_mod_rows(H, qs) -> np.ndarray:
    """Res(x^n - 2, h_i) mod qs[i] for every row h_i of the L x n array H
    (coefficients by ascending power), as an int64 array of length L.

    While n is even, every row is first halved mod its q (_halve_rows): the
    resultant becomes one with y^(n/2) - 2 and a row of length n/2.  An odd
    part w of length 3 (n = 3 * 2^k, such as the tower's n = 48) is read by
    the norm form of Q(2^(1/3)), w0^3 + 2 w1^3 + 4 w2^3 - 6 w0 w1 w2, on all
    rows at once in int64, each product of two residues reduced before the
    next, so that nothing passes (q - 1)^2 < 2^62.  A longer odd part goes
    through one Euclidean remainder sequence for all rows at once
    (_resultant_rows), which gives c for an odd part c of length 1; only
    one-row norm_mod reads it in the group algebra instead.  H may hold
    int64 or Python ints of any size; q must satisfy 2 <= q < 2^31.

    q need not be prime, and every answer is exact mod q.  Odd parts of
    length 1 and 3 always answer; a longer one is a ValueError naming q
    when the Euclid meets a leading coefficient that is not a unit mod q.
    """
    g, qlist = _residues(H, qs)
    if not qlist:
        return np.zeros(0, dtype=np.int64)
    return _odd_part_norms(_halve_rows(g, qlist), qlist)


def _residues(H, qs):
    """(the rows of H reduced mod their moduli, as int64, the moduli as a
    list), after the checks of norm_mod_rows; (H, []) for no rows."""
    qlist = [_modulus(m) for m in listed(qs, "qs")]
    rows = np.asarray(H)
    if rows.dtype.kind == "f" and not isinstance(H, np.ndarray):
        # Python ints on both sides of 2^63 promote to float64: keep them exact
        rows = np.asarray(H, dtype=object)
    if not qlist and rows.size == 0:
        return H, qlist
    if rows.ndim != 2 or rows.shape[0] != len(qlist) or rows.shape[1] == 0:
        raise ValueError("need an L x n array of coefficients, n >= 1, "
                         "and one modulus per row")
    if rows.dtype.kind == "i" or (rows.dtype.kind in "ub" and rows.dtype.itemsize < 8):
        return rows.astype(np.int64) % np.array(qlist, dtype=np.int64)[:, None], qlist
    # Python ints of any size; anything else is refused by integer(), which
    # reads H's own items, as asarray may have made them all str
    items = rows.tolist() if isinstance(H, np.ndarray) else H
    return np.array([[integer(c, "a coefficient") % m for c in row]
                     for row, m in zip(items, qlist)], dtype=np.int64), qlist


def _cubic(w0: int, w1: int, w2: int) -> int:
    """Res(y^3 - 2, w0 + w1 y + w2 y^2) over Z: the norm form of Q(2^(1/3))."""
    return w0 ** 3 + 2 * w1 ** 3 + 4 * w2 ** 3 - 6 * w0 * w1 * w2


def _odd_part_norms(g, qs: list) -> np.ndarray:
    """Res(y^n - 2, g_i) mod qs[i] for rows g_i of odd length n: the norm
    form of Q(2^(1/3)) for n = 3, the Euclid otherwise."""
    q = np.array(qs, dtype=np.int64)
    n = g.shape[1]
    if n == 3:  # the norm form of Q(2^(1/3))
        c0, c1, c2 = (g * g % q[:, None] * g % q[:, None]).T
        w0, w1, w2 = g.T
        return (c0 + 2 * c1 + 4 * c2 - 6 * (w0 * w1 % q * w2 % q)) % q
    f = np.zeros((len(q), n + 1), dtype=np.int64)
    f[:, n] = 1
    f[:, 0] = -2 % q
    return np.array(_resultant_rows(f, g, qs, [1] * len(qs)), dtype=np.int64)


def _modulus(q) -> int:
    q = integer(q, "q")
    if q >= (1 << 31) or q < 2:
        raise ValueError("q out of range")
    return q


# Kronecker substitution: residues mod q (below 2^31) in slots of s bytes of
# one Python int, multiplied as big ints, and each slot of the product read
# back mod q as the dot product of its bytes with 256^j mod q.

def _slot_bytes(terms: int, top: int) -> int:
    """The least s >= 4 with 256^s > terms * top^2: a slot of s bytes holds
    a residue up to top, and a sum of that many products of two, whole."""
    return max(4, ((terms * top * top).bit_length() + 7) // 8)


def _slot_weights(qs: list, s: int) -> np.ndarray:
    """256^j mod q for j < s, one row per q in qs, in int64."""
    rows = {p: [pow(256, j, p) for j in range(s)] for p in set(qs)}
    return np.array([rows[p] for p in qs], dtype=np.int64)


def _pack(g, s: int) -> np.ndarray:
    """The residues g as an array of slots of s >= 4 bytes (void items, so
    that indexing copies every byte), each holding its residue's four
    little-endian bytes and zeros; its tobytes(), read little-endian, is
    the packed int."""
    slots = np.zeros(np.shape(g), dtype=f"V{s}")
    slots.view(np.dtype({"names": ["v"], "formats": ["<u4"], "offsets": [0],
                         "itemsize": s}))["v"] = g
    return slots


def _slot_sums(digits: bytes, weights) -> np.ndarray:
    """The slots of digits, split evenly among the rows of weights (256^j
    mod q, one row per q), each dotted with its row: int64, one row of
    slot sums per q, each at most s * 255 * (q - 1) < 2^63 and congruent
    mod q to its slot, but not reduced."""
    rows, s = weights.shape
    d = np.frombuffer(digits, dtype=np.uint8).reshape(rows, -1, s)
    return (d @ weights[:, :, None])[..., 0]


def _halve_rows(g, qs: list):
    """Graeffe's root squaring mod q on the rows of g while their length n
    is even; returns the rows of odd length left.

    The roots of x^n - 2 come in pairs +-a.  For h = h0(x^2) + x h1(x^2),
    h(x) h(-x) = H(x^2) with H = h0^2 - y h1^2, so Res(x^n - 2, h) =
    Res(y^m - 2, H mod (y^m - 2)) for m = n/2, exactly: x^n - 2 is monic.
    Reducing mod y^m - 2 folds H[j + m] into H[j] twice.

    Both squares are taken on Python ints by Kronecker substitution: the m
    coefficients of h0 (or h1), each below q, fill slots of s bytes of one
    integer, which is squared once.  A coefficient of h0^2 is a sum of at
    most m products, each at most (q - 1)^2, and s = _slot_bytes(m, q - 1),
    so every slot holds its coefficient whole, and the square's 2m - 1
    slots are the coefficients of h0^2 (to_bytes raises OverflowError
    otherwise).  h0^2 is read in 2m slots with a zero slot on top, and
    y h1^2 in 2m slots with a zero slot at the bottom, so their slot sums
    d0 - d1 = d are H's coefficients up to multiples of q, and the row
    left is (d_lo + 2 d_hi) mod q: at most 3 s 255 (q - 1) < 2^63 in int64
    before its one reduction.  No float is involved.
    """
    if g.shape[1] == 0:
        raise ValueError("a norm needs at least one coefficient")
    q = np.array(qs, dtype=np.int64)[:, None]
    top = max(qs) - 1
    weights = None
    while g.shape[1] % 2 == 0:
        rows, n = g.shape
        m = n // 2
        s = _slot_bytes(m, top)
        if weights is None:  # the first step has the widest slots
            weights = _slot_weights(qs, s)
        # per row, h0's m slots and then h1's
        packed = _pack(g.reshape(rows, m, 2).transpose(0, 2, 1), s).tobytes()
        width, pad = m * s, bytes(s)
        squares = []
        for i in range(0, len(packed), 2 * width):
            h0 = int.from_bytes(packed[i:i + width], "little")
            h1 = int.from_bytes(packed[i + width:i + 2 * width], "little")
            squares += [(h0 * h0).to_bytes(n * s, "little"), pad,
                        (h1 * h1).to_bytes(n * s - s, "little")]
        d = _slot_sums(b"".join(squares), weights[:, :s]).reshape(rows, 2, n)
        d = d[:, 0] - d[:, 1]
        g = (d[:, :m] + 2 * d[:, m:]) % q
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
    mod p^i for a primitive root g mod p (g^((p - 1)/l) != 1 for every
    prime l | p - 1), moved to g + p when g^(p - 1) = 1 mod p^2, which
    makes it a primitive root mod every power of p."""
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // l, p) != 1 for l in _factors(p - 1)))
    if pi > p and pow(g, p - 1, p * p) == 1:
        g += p
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
#: six, m = 97 and 145 at the three CRT primes.
TWIST_PLANS = 32


@memo("_kernels_py._twist_plan", maxsize=TWIST_PLANS)
def _twist_plan(m: int, q: int):
    """What _twisted_norm needs for an odd part of length m >= 5 mod q, or
    None when it does not apply: q not prime, q <= m, or gcd(m, q - 1) > 1.

    The plan is (alpha^j mod q for j < m, the slot bytes s of its ring
    products, the weights 256^j mod q for j < s, the stages).  A stage,
    one per prime p^a || m, is (r, the length it leaves, its parts); a
    part, one per 1 <= i <= a, is (e = p^i r, the _chain of a generator of
    the factor (Z/p^i)^* of (Z/e)^*, the contraction weights of length e).
    The stages take the primes of m by increasing p^a, so that the longest
    chains run on the shortest rows.  m is factored by _factors, not
    arith.factorize, whose sieve certify never loads."""
    if q <= m or math.gcd(m, q - 1) != 1 or not is_prime(q):
        return None
    alpha = pow(2, pow(m, -1, q - 1), q)
    stages, length = [], m
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
    s = _slot_bytes(m, q - 1)
    return (np.array([pow(alpha, j, q) for j in range(m)], dtype=np.int64),
            s, _slot_weights([q], s), tuple(stages))


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

    Each ring product is one Kronecker product of two packed ints (see
    _halve_rows) of 2e - 1 slots of s = _slot_bytes(m, q - 1) bytes; its
    slot sums are folded mod z^e - 1 before one reduction mod q, at most
    2 s 255 (q - 1) < 2^63.  No float is involved.
    """
    alpha, s, weights, stages = plan

    def fold(x, e):
        return x.reshape(-1, e).sum(axis=0) % q if len(x) > e else x

    def times(a, b):  # a b in F_q[z]/(z^e - 1), both packed
        e = len(a)
        c = _slot_sums((int.from_bytes(a.tobytes(), "little")
                        * int.from_bytes(b.tobytes(), "little")).to_bytes(
            (2 * e - 1) * s, "little"), weights)[0]
        c[:e - 1] += c[e:]
        return c[:e] % q

    x = g * alpha % q
    for r, parts in stages:
        y = fold(x, r)
        for e, chain, contract in parts:
            p = fold(x, e)
            base = _pack(p, s)
            for index, double in chain:
                slots = _pack(p, s)
                p = times(slots if double else base, slots[index])
            z = fold(p * contract % q, r)
            y = y * z % q if r == 1 else times(_pack(y, s), _pack(z, s))
        x = y
    return int(x[0])


def _resultant_rows(f, g, qs: list, res: list) -> list:
    """res[i] * lc(f_i)^(df - dg_i) * Res(f_i, g_i) mod qs[i], row by row.

    Every row of f has the exact degree df = f.shape[1] - 1 and the rows of
    g have degree dg_i < df; f and g are overwritten.  Each step divides f
    by g and uses Res(f, g) = (-1)^(df dg) lc(g)^(df - dr) Res(g, r): of
    the power of lc(g) it takes df - dg now, together with the pending power
    of lc(f), and leaves dg - dr pending for the next step, where g is the
    new f.  The quotient comes from the top coefficients, one row at a time;
    each of its terms is then one int64 update of all rows, reduced mod q
    after every second term, since two products sum to at most
    2 (q - 1)^2 < 2^63.  A row whose g has a lower degree than the highest
    one in the batch is finished by a call on that row alone.

    q need not be prime: a division by a leading coefficient that is not a
    unit mod q is a ValueError naming q, and every answer given is exact.

    norm_mod_rows calls it on the odd part left after halving only, f =
    y^n - 2 with n odd and at least 5: 97 and 145 for the tower's n = 194
    and 290 (the tower's n = 48 leaves 3, which norm_mod_rows reads in
    closed form).  One-row norm_mod reaches it only where _twisted_norm
    does not apply: q composite, q <= n or gcd(n, q - 1) > 1.  It is the
    one general resultant of the package.
    """
    out = [0] * len(qs)
    live = list(range(len(qs)))
    q = np.array(qs, dtype=np.int64)[:, None]
    buf = np.empty_like(g)
    while True:
        df = f.shape[1] - 1
        dg = g.shape[1] - 1
        lcs = g[:, dg].tolist()
        if 0 in lcs:
            nonzero = g != 0
            deg = np.where(nonzero.any(axis=1),
                           dg - np.argmax(nonzero[:, ::-1], axis=1), -1).tolist()
            dg = max(deg)
            for k, d in enumerate(deg):
                if 0 <= d < dg:
                    out[live[k]], = _resultant_rows(
                        f[[k]], g[[k], :d + 1], [qs[k]], [res[k]])
            if dg < 0:
                return out
            keep = [k for k, d in enumerate(deg) if d == dg]
            f, g, q, buf = f[keep], g[keep, :dg + 1], q[keep], buf[keep]
            qs, res, live = ([seq[k] for k in keep] for seq in (qs, res, live))
            lcs = g[:, dg].tolist()
        e = df - dg
        tops = f[:, dg:].tolist()
        if dg == 0:
            for r, c, m, top, a in zip(live, res, qs, tops, lcs):
                out[r] = c * pow(top[e] * a, df, m) % m
            return out
        # quotient coefficients, highest first: term t cancels x^(df - t),
        # where the earlier terms met g's coefficients just below its lead
        heads = g[:, max(dg - e, 0):dg].tolist()
        sign = -1 if df & dg & 1 else 1
        quotients = []
        for k, (m, top, head, a) in enumerate(zip(qs, tops, heads, lcs)):
            res[k] = sign * res[k] * pow(top[e] * a, e, m) % m
            try:
                inv = pow(a, -1, m)
            except ValueError:  # only a composite q has a zero divisor a
                raise ValueError(f"the norm's remainder sequence mod q = {m} met "
                                 f"the leading coefficient {a}, which is not a "
                                 f"unit mod q; take q prime") from None
            quo = []
            for t in range(e, -1, -1):
                c = top[t] - sum(map(operator.mul, reversed(quo), reversed(head)))
                quo.append(c * inv % m)
            quotients.append(quo)
        quo = np.array(quotients, dtype=np.int64)
        prod = buf[:, :dg + 1]
        hi = df
        for t in range(e + 1):
            i = df - t
            span = f[:, i - dg:i + 1]
            np.multiply(g, quo[:, t:t + 1], out=prod)
            np.subtract(span, prod, out=span)
            if t % 2 or i == dg:
                span = f[:, i - dg:hi + 1]
                np.remainder(span, q, out=span)
                hi = i - 1
        f, g = g, f[:, :dg]
