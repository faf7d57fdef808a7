"""The hot kernels, in numpy and Python ints.

conic_has_solution is the Hilbert-symbol oracle's exhaustive scan for a
primitive point on z^2 = a x^2 + b y^2 mod p^m; it tests each distinct
value the conic takes on its two families of points once, and reads no
Legendre symbol.  norm_mod and norm_mod_rows give the resultant
Res(x^n - 2, h) mod q, for one row h or for every row of an array, each
with its own modulus, by Graeffe halving, then the norm form of
Q(2^(1/3)) for an odd part of length 3 and a Euclid for any other;
campana.kernels builds the exact norm on them.  No answer goes through a float.
"""
from __future__ import annotations

import math
import operator
from collections import OrderedDict

import numpy as np

from .arith import integer, listed, prime
from .memo import MemoInfo, register

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
    not be prime (see norm_mod_rows)."""
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
    return int(norm_mod_rows([coeffs], [q])[0])


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
    (_resultant_rows), which gives c for an odd part c of length 1.  H may
    hold int64 or Python ints of any size; q must satisfy 2 <= q < 2^31.

    q need not be prime, and every answer is exact mod q.  Odd parts of
    length 1 and 3 always answer; a longer one is a ValueError naming q
    when the Euclid meets a leading coefficient that is not a unit mod q.
    """
    qlist = [_modulus(m) for m in listed(qs, "qs")]
    rows = np.asarray(H)
    if rows.dtype.kind == "f" and not isinstance(H, np.ndarray):
        # Python ints on both sides of 2^63 promote to float64: keep them exact
        rows = np.asarray(H, dtype=object)
    if not qlist and rows.size == 0:
        return np.zeros(0, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[0] != len(qlist) or rows.shape[1] == 0:
        raise ValueError("need an L x n array of coefficients, n >= 1, "
                         "and one modulus per row")
    q = np.array(qlist, dtype=np.int64)
    if rows.dtype.kind == "i" or (rows.dtype.kind in "ub" and rows.dtype.itemsize < 8):
        g = rows.astype(np.int64) % q[:, None]
    else:  # Python ints of any size; anything else is refused by integer(),
        # which reads H's own items, as asarray may have made them all str
        items = rows.tolist() if isinstance(H, np.ndarray) else H
        g = np.array([[integer(c, "a coefficient") % m for c in row]
                      for row, m in zip(items, qlist)], dtype=np.int64)
    g = _halve_rows(g, qlist)
    n = g.shape[1]
    if n == 3:  # the norm form of Q(2^(1/3))
        c0, c1, c2 = (g * g % q[:, None] * g % q[:, None]).T
        w0, w1, w2 = g.T
        return (c0 + 2 * c1 + 4 * c2 - 6 * (w0 * w1 % q * w2 % q)) % q
    f = np.zeros((len(q), n + 1), dtype=np.int64)
    f[:, n] = 1
    f[:, 0] = -2 % q
    return np.array(_resultant_rows(f, g, qlist, [1] * len(qlist)), dtype=np.int64)


def _modulus(q) -> int:
    q = integer(q, "q")
    if q >= (1 << 31) or q < 2:
        raise ValueError("q out of range")
    return q


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
    most m products, each at most (q - 1)^2, and s is the least byte count
    with 256^s > m (q - 1)^2 >= q - 1, so every slot holds its coefficient
    whole, with no carry into the next, and the square's 2m - 1 slots are
    the coefficients of h0^2 (to_bytes raises OverflowError otherwise).  A
    slot is reduced mod q as the dot product of its bytes with 256^j mod q,
    at most s * 255 * (q - 1) < 2^63 in int64.  No float is involved.
    """
    if g.shape[1] == 0:
        raise ValueError("a norm needs at least one coefficient")
    q = np.array(qs, dtype=np.int64)[:, None]
    top = max(qs) - 1
    weights = None
    while g.shape[1] % 2 == 0:
        rows, n = g.shape
        m = n // 2
        s = max(1, ((m * top * top).bit_length() + 7) // 8)
        if weights is None:  # the first step has the widest slots
            slot = {p: [pow(256, j, p) for j in range(s)] for p in set(qs)}
            weights = np.array([slot[p] for p in qs], dtype=np.int64)
        # little-endian bytes of the coefficients (< 2^31) in their slots;
        # per row, h0's m slots and then h1's
        raw = np.ascontiguousarray(g, dtype="<i8").view(np.uint8).reshape(rows, m, 2, 8)
        slots = np.zeros((rows, 2, m, s), dtype=np.uint8)
        k = min(s, 8)
        slots[..., :k] = raw[..., :k].transpose(0, 2, 1, 3)
        packed = slots.tobytes()
        width, length = m * s, (2 * m - 1) * s
        squares = []
        for i in range(0, len(packed), width):
            v = int.from_bytes(packed[i:i + width], "little")
            squares.append((v * v).to_bytes(length, "little"))
        digits = np.frombuffer(b"".join(squares), dtype=np.uint8)
        c = digits.reshape(rows, 2 * (2 * m - 1), s) @ weights[:, :s, None]
        c = c.reshape(rows, 2, 2 * m - 1) % q[:, :, None]
        h = np.zeros((rows, n), dtype=np.int64)
        h[:, :n - 1] = c[:, 0]
        h[:, 1:] -= c[:, 1]
        g = (h[:, :m] + 2 * h[:, m:]) % q
    return g


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
    closed form).  It is the one general resultant of the package.
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
