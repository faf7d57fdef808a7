import math
import random
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from campana import arith, kernels, places
from campana.circuits import Circuit


def dumb_conic_scan(a, b, p, m):
    """Reference implementation: try every triple mod p^m, primitive only."""
    M = p**m
    for z in range(M):
        for x in range(M):
            for y in range(M):
                if z % p == 0 and x % p == 0 and y % p == 0:
                    continue
                if (z * z - a * x * x - b * y * y) % M == 0:
                    return True
    return False


def test_conic_kernel_vs_dumb_scan():
    rng = random.Random(1)
    for _ in range(60):
        p = rng.choice([3, 5])
        a = rng.randint(-10, 10) or 1
        b = rng.randint(-10, 10) or 1
        # strip square factors of p the way the oracle does
        for _ in range(3):
            if a % (p * p) == 0:
                a //= p * p
            if b % (p * p) == 0:
                b //= p * p
        m = 3
        want = dumb_conic_scan(a, b, p, m)
        # in both orders: the scan puts the coefficient with more p first
        assert kernels.conic_has_solution(a, b, p, m) == want, (a, b, p)
        assert kernels.conic_has_solution(b, a, p, m) == want, (b, a, p)
    # the scan is exact for any a, b and m >= 1, zeros and p^2 | a, b included
    for p, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
        for a in range(-2 * p * p, 2 * p * p + 1):
            for b in (0, 1, -1, p, -p, 3 * p, p * p, -p * p, 2 * p * p, p**3):
                want = dumb_conic_scan(a, b, p, m)
                assert kernels.conic_has_solution(a, b, p, m) == want, (a, b, p, m)
                assert kernels.conic_has_solution(b, a, p, m) == want, (b, a, p, m)


def two_full_passes(a, b, p, m):
    """The scan as it was before it tested each distinct value once: x = 1
    and then y = 1, each over every t mod p^m."""
    M = p**m
    t2 = np.arange(M, dtype=np.int64) ** 2 % M
    is_square = np.zeros(M, dtype=bool)
    is_square[t2] = True
    am, bm = a % M, b % M
    return bool(is_square[(am + bm * t2) % M].any()
                or is_square[(am * t2 + bm) % M].any())


PRIMES_TO_50 = list(sympy.primerange(2, 51))


@st.composite
def conic_inputs(draw):
    """(a, b, p, m) with p <= 50 and m <= 3, or p <= 7 and m <= 5; a and b
    are 0 or a unit times p^0..p^3, so p and p^2 often divide them."""
    p = draw(st.sampled_from(PRIMES_TO_50))
    m = draw(st.integers(1, 5 if p <= 7 else 3))
    coefficient = st.one_of(
        st.just(0),
        st.builds(lambda u, k: u * p**k, st.integers(-10**4, 10**4), st.integers(0, 3)))
    return draw(coefficient), draw(coefficient), p, m


@settings(max_examples=300, deadline=None)
@given(conic_inputs())
def test_conic_kernel_agrees_with_two_full_passes(case):
    a, b, p, m = case
    assert kernels.conic_has_solution(a, b, p, m) == two_full_passes(a, b, p, m)


def _strip_square(x, p):
    while x % (p * p) == 0:
        x //= p * p
    return x


@pytest.mark.parametrize("p, m", [(p, m) for p in (3, 5, 7, 11, 13) for m in (3, 4)]
                         + [(2, 5), (2, 6)]
                         + [(p, 3) for p in (17, 23, 29, 31, 37, 41, 43, 47)])
def test_conic_kernel_matches_hilbert_symbol(p, m):
    # with p^2 stripped from a and b, a primitive point mod p^m exists
    # exactly when (a, b)_p = 1; the oracle itself never asks for m = 4 at
    # an odd p
    rng = random.Random(100 * p + m)
    for _ in range(150):
        a = _strip_square(rng.randint(-200, 200) or 1, p)
        b = _strip_square(rng.randint(-200, 200) or 1, p)
        assert kernels.conic_has_solution(a, b, p, m) == \
            (places.hilbert(a, b, p) == 1), (a, b, p, m)


def test_norm_mod_closed_forms():
    rng = random.Random(2)
    q = 2147483629
    for _ in range(200):
        y1, y2 = rng.randint(-99, 99), rng.randint(-99, 99)
        assert kernels.norm_mod([y1, y2], q) == (y1 * y1 - 2 * y2 * y2) % q
        y3 = rng.randint(-99, 99)
        want = y1**3 + 2 * y2**3 + 4 * y3**3 - 6 * y1 * y2 * y3
        assert kernels.norm_mod([y1, y2, y3], q) == want % q


def test_norm_int_exact_small():
    assert kernels.norm_int([3, 1]) == 7
    assert kernels.norm_int([1, 1, 1]) == 1
    assert kernels.norm_int([0, 0, 0]) == 0
    assert kernels.norm_int([5]) == 5


def test_norm_int_multiplicative():
    # the norm of a product is the product of norms; multiply in Z[t]/(t^3-2)
    rng = random.Random(3)
    for _ in range(50):
        u = [rng.randint(-50, 50) for _ in range(3)]
        v = [rng.randint(-50, 50) for _ in range(3)]
        w = [0] * 3
        for i in range(3):
            for j in range(3):
                k = i + j
                c = u[i] * v[j]
                if k >= 3:
                    k -= 3
                    c *= 2
                w[k] += c
        assert kernels.norm_int(w) == kernels.norm_int(u) * kernels.norm_int(v)


def test_norm_value_rational_and_homogeneous():
    v = [Fraction(1, 2), Fraction(1, 3)]
    assert kernels.norm_value(v) == Fraction(1, 4) - 2 * Fraction(1, 9)
    lam = Fraction(7, 5)
    n = len(v)
    assert kernels.norm_value([lam * x for x in v]) == lam**n * kernels.norm_value(v)
    # degree 1: the norm is the coordinate itself
    assert kernels.norm_value([Fraction(-3, 4)]) == Fraction(-3, 4)
    assert kernels.norm_value([lam * Fraction(-3, 4)]) == lam * Fraction(-3, 4)


def test_exact_norms_refuse_floats():
    # a float once reached the exact answer as its binary expansion
    for f in (kernels.norm_value, kernels.norm_is_zero):
        for bad in ([0.5, 1, 0.1], [1, 2.0], [Fraction(1, 2), "1/3"]):
            with pytest.raises(ValueError):
                f(bad)
    assert kernels.norm_value([np.int64(3), 2, Fraction(1, 2)]) == \
        kernels.norm_value([3, 2, Fraction(1, 2)])


def test_norm_is_zero():
    assert kernels.norm_is_zero([0, 0, 0, 0])
    assert not kernels.norm_is_zero([1, 0, 0, 0])
    assert not kernels.norm_is_zero([Fraction(1, 7), Fraction(2, 3)])
    # only the trivial rational zero exists
    rng = random.Random(4)
    for _ in range(300):
        v = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(4)]
        if any(v):
            assert not kernels.norm_is_zero(v)


def test_norm_large_degree():
    rng = random.Random(5)
    w = [rng.randint(-10**6, 10**6) for _ in range(290)]
    n = kernels.norm_int(w)
    # spot-check the exact value against three independent moduli
    for q in kernels.crt_primes(6)[3:]:
        assert n % q == kernels.norm_mod(w, q)


_X = sympy.symbols("x")
MODULI = [2, 3, 5, 7] + kernels.crt_primes(3)


def sympy_norm(coeffs):
    """Res(x^n - 2, h) over Z, computed by sympy."""
    h = sum(c * _X**j for j, c in enumerate(coeffs))
    return int(sympy.resultant(_X ** len(coeffs) - 2, h, _X))


@st.composite
def coefficient_rows(draw, coeff=st.integers(-3, 3), max_rows=6):
    """Rows of one length n <= 8, each with its own modulus; small
    coefficients make the remainder degrees drop often."""
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(coeff, min_size=n, max_size=n),
                         min_size=1, max_size=max_rows))
    qs = draw(st.lists(st.sampled_from(MODULI), min_size=len(rows),
                       max_size=len(rows)))
    return rows, qs


@settings(max_examples=150, deadline=None)
@given(coefficient_rows())
def test_norm_mod_rows_matches_sympy(case):
    rows, qs = case
    got = kernels.norm_mod_rows(rows, qs)
    assert got.dtype == np.int64
    assert got.tolist() == [sympy_norm(h) % q for h, q in zip(rows, qs)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=8),
       st.sampled_from(MODULI))
def test_norm_mod_matches_sympy(coeffs, q):
    assert kernels.norm_mod(coeffs, q) == sympy_norm(coeffs) % q


@settings(max_examples=40, deadline=None)
@given(coefficient_rows(coeff=st.integers(-2**3000, 2**3000), max_rows=3))
def test_norm_mod_big_coefficients(case):
    rows, qs = case
    want = [sympy_norm(h) % q for h, q in zip(rows, qs)]
    assert kernels.norm_mod_rows(rows, qs).tolist() == want
    assert [kernels.norm_mod(h, q) for h, q in zip(rows, qs)] == want


def test_norm_mod_rows_degree_drop_at_large_q():
    # full-size residues through divisions with several quotient terms:
    # rows of low degree, whose first division has 8 - deg h terms, and
    # monic rows of degree n - 1 with h[n-3] = h[n-2]^2, whose first
    # remainder mod q loses two degrees; generic rows share the calls
    rng = random.Random(13)
    n = 8
    for q in kernels.crt_primes(3):
        rows = []
        for _ in range(40):
            d = rng.randint(0, n - 2)
            rows.append([rng.randrange(q) for _ in range(d + 1)] + [0] * (n - d - 1))
            h = [rng.randrange(q) for _ in range(n - 1)] + [1]
            h[n - 3] = h[n - 2] ** 2 % q
            rows.append(h)
            rows.append([rng.randrange(q) for _ in range(n)])
        got = kernels.norm_mod_rows(rows, [q] * len(rows))
        assert got.tolist() == [sympy_norm(h) % q for h in rows]


def test_norm_mod_rows_edge_rows():
    # all-zero rows, n = 1, a zero constant, a vanishing leading
    # coefficient and mixed moduli side by side in one call
    q = kernels.crt_primes(1)[0]
    assert kernels.norm_mod_rows([[0, 0, 0], [0, 0, 5], [3, 0, 0], [1, 1, 1]],
                                     [q, 7, 2, 3]).tolist() == \
        [0, sympy_norm([0, 0, 5]) % 7, sympy_norm([3, 0, 0]) % 2, 1]
    assert kernels.norm_mod_rows([[-5], [0], [12]], [q, 3, 7]).tolist() == \
        [q - 5, 0, 5]
    assert kernels.norm_mod([-5], q) == q - 5
    assert kernels.norm_mod_rows(np.zeros((0, 4), dtype=np.int64), []).size == 0
    H = np.array([[3, 1], [1, 1]], dtype=np.int32)
    assert kernels.norm_mod_rows(H, np.array([q, q])).tolist() == [7, q - 1]


def test_norm_mod_rows_ints_across_2_63():
    # numpy reads a list with ints on both sides of 2^63 as float64
    rows = [[1, 2**63], [3, -1, 2**63 + 5], [2**64 - 1, -(2**63), 7]]
    for h in rows:
        for q in (7, 101, kernels.crt_primes(1)[0]):
            assert kernels.norm_mod(h, q) == sympy_norm(h) % q
    assert kernels.norm_mod_rows([rows[0], [5, 6]], [7, 11]).tolist() == \
        [sympy_norm(rows[0]) % 7, sympy_norm([5, 6]) % 11]


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(max_value=1), st.integers(min_value=2**31)))
def test_norm_mod_rejects_modulus_out_of_range(q):
    with pytest.raises(ValueError):
        kernels.norm_mod([1, 2, 3], q)
    with pytest.raises(ValueError):
        kernels.norm_mod([4], q)
    with pytest.raises(ValueError):
        kernels.norm_mod_rows([[1, 2], [3, 4]], [7, q])
    with pytest.raises(ValueError):
        kernels.norm_mod_rows([[1, 2]], [q])


@pytest.mark.parametrize("bad", [True, 7.0, 1, 2**31, "7"])
def test_norm_mod_rows_refuses_a_bad_modulus_in_any_row(bad):
    # an int q in range skips the gate; no other modulus may
    for row in range(3):
        qs = [2**31 - 1] * 3
        qs[row] = bad
        with pytest.raises(ValueError):
            kernels.norm_mod_rows([[1, 2, 3]] * 3, qs)


def test_the_benchmark_shim_is_the_kernels_module():
    from campana import _kernels_py
    public = {name for name in vars(_kernels_py) if not name.startswith("_")}
    assert public == {"conic_has_solution", "norm_mod"}
    assert _kernels_py.conic_has_solution is kernels.conic_has_solution
    assert _kernels_py.norm_mod is kernels.norm_mod


def test_norm_mod_rows_rejects_bad_shapes_and_types():
    with pytest.raises(ValueError):
        kernels.norm_mod_rows([[1, 2]], [7, 11])
    with pytest.raises(ValueError):
        kernels.norm_mod_rows([[1, 2]], [])
    with pytest.raises(ValueError):
        kernels.norm_mod_rows([[]], [7])
    with pytest.raises(ValueError):
        kernels.norm_mod_rows([1, 2], [7, 7])
    with pytest.raises(ValueError):
        kernels.norm_mod_rows([[1, 2], [3, 4]], [-1, 2**63])
    with pytest.raises(ValueError):
        kernels.norm_mod_rows([[1.5, 2]], [7])
    with pytest.raises(ValueError):
        kernels.norm_mod([Fraction(1, 2), 1], 7)
    for coeffs in (None, 7):
        with pytest.raises(ValueError):
            kernels.norm_mod(coeffs, 7)


@pytest.mark.parametrize("args, message", [
    ((1, 1, 2, -1), "m must be >= 1"),
    ((1, 1, 2, 0), "m must be >= 1"),
    ((1, 1, 3, 1.0), "m must be an integer"),
    ((1.5, 1, 3, 1), "a must be an integer"),
    ((1, Fraction(1), 3, 1), "b must be an integer"),
    ((1, 1, 4, 2), "4 is not prime"),
    ((1, 1, 7.0, 2), "a prime must be an integer"),
])
def test_conic_kernel_refuses_bad_arguments_by_name(args, message):
    with pytest.raises(ValueError, match=message):
        kernels.conic_has_solution(*args)


def test_norm_mod_rows_refuses_by_the_argument_or_item_at_fault():
    with pytest.raises(ValueError, match="qs must be iterable, not 7"):
        kernels.norm_mod_rows([[1, 2]], 7)
    # asarray makes a row of an int and a str all str: the str is refused
    for row, bad in (([1, "2"], "'2'"), (["1", 2], "'1'")):
        with pytest.raises(ValueError, match=f"not {bad}$"):
            kernels.norm_mod_rows([row], [7])


def test_norm_int_and_zero_test_use_row_kernel():
    rng = random.Random(12)
    for n in (2, 5, 8):
        for _ in range(5):
            w = [rng.randint(-9, 9) for _ in range(n)]
            assert kernels.norm_int(w) == sympy_norm(w)
            assert kernels.norm_is_zero(w) == (not any(w))


def test_crt_primes_takes_an_int_at_least_zero():
    # -1 gave all cached primes but the last (non-integers: test_rational_gate)
    assert kernels.crt_primes(0) == []
    with pytest.raises(ValueError):
        kernels.crt_primes(-1)


def test_crt_primes_refuses_more_than_the_odd_primes_below_2_31():
    # pi(2^31) = 105,097,565 counts 2, which the search over odd n never
    # reaches; past the last odd prime it stepped down forever
    assert kernels.crt_primes(3) and kernels.CRT_PRIME_COUNT == 105_097_564
    cached = list(kernels._crt_primes)
    with pytest.raises(ValueError, match="105097564"):
        kernels.crt_primes(105_097_565)
    assert kernels._crt_primes == cached


def test_crt_primes_are_prime_and_descending():
    ps = kernels.crt_primes(5)
    assert ps == sorted(ps, reverse=True)
    assert all(p < 2**31 for p in ps)
    from campana import arith
    assert all(arith.is_prime(p) for p in ps)


# Graeffe halving: norm_mod_rows and norm_int square away the 2-part of n
# before the Euclidean finish.

HALVING_MODULI = [2, 3, 7] + kernels.crt_primes(3)
HALVING_LENGTHS = [2, 4, 8, 16, 32, 64, 48, 96]


def euclid(row, q):
    """The Euclid of _resultant on x^n - 2 itself, with no halving."""
    return kernels._resultant([c % q for c in row], q)


def unhalved_norm_mod_rows(rows, qs):
    return [euclid(row, q) for row, q in zip(rows, qs)]


@st.composite
def halving_rows(draw):
    """Rows of one even length n, each with its own modulus, among them
    zero rows, rows with h1 = 0 and rows c x^(n/2) - c' whose H has one
    nonzero coefficient left after the first step."""
    n = draw(st.sampled_from(HALVING_LENGTHS))
    small = st.integers(-3, 3)
    big = st.integers(-2**40, 2**40)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["small", "big", "zero", "even", "binomial"]),
                              min_size=1, max_size=4)):
        if kind == "zero":
            row = [0] * n
        elif kind == "binomial":
            row = [0] * n
            row[0] = -draw(st.integers(1, 50))
            row[n // 2] = draw(st.integers(1, 50))
        else:
            row = draw(st.lists(small if kind in ("small", "even") else big,
                                min_size=n, max_size=n))
            if kind == "even":
                row[1::2] = [0] * (n // 2)
        rows.append(row)
    qs = draw(st.lists(st.sampled_from(HALVING_MODULI), min_size=len(rows),
                       max_size=len(rows)))
    return rows, qs


@settings(max_examples=120, deadline=None)
@given(halving_rows())
def test_halving_matches_unhalved_euclid(case):
    rows, qs = case
    assert kernels.norm_mod_rows(rows, qs).tolist() == unhalved_norm_mod_rows(rows, qs)


@settings(max_examples=40, deadline=None)
@given(halving_rows())
def test_halving_matches_sympy(case):
    rows, qs = case
    want = [sympy_norm(h) % q for h, q in zip(rows, qs)]
    assert kernels.norm_mod_rows(rows, qs).tolist() == want
    assert [kernels.norm_mod(h, q) for h, q in zip(rows, qs)] == want


def test_halving_degree_drops():
    # h = c x^(n/2) - c' gives H = c'^2 - c^2 y^(n/2) = c'^2 - 2 c^2 after one
    # step: a constant, which the later steps square; h1 = 0 gives H = h0^2
    for n in (2, 4, 8, 16, 32, 64, 48, 96):
        for q in HALVING_MODULI:
            h = [0] * n
            h[0], h[n // 2] = -5, 3
            assert kernels.norm_mod(h, q) == sympy_norm(h) % q
            h = [0] * n
            h[0::2] = [j % 5 - 2 for j in range(n // 2)]
            assert kernels.norm_mod(h, q) == sympy_norm(h) % q
            assert kernels.norm_mod([0] * n, q) == 0


def test_halving_widest_slot():
    # every coefficient q - 1 at q = 2^31 - 1 and n = 512 fills the middle
    # slot of the first square with exactly m (q - 1)^2, m = 256.  The norm
    # of (q - 1)(1 + x + ... + x^(n-1)) is (q - 1)^n (-1)^(n+1), -1 mod q.
    q, n = 2**31 - 1, 512
    row = [q - 1] * n
    assert kernels.norm_mod(row, q) == q - 1
    assert kernels.norm_mod_rows([row, row], [q, 3]).tolist() == \
        unhalved_norm_mod_rows([row, row], [q, 3])
    # h1 = 0 makes the row left after a step, H_j + 2 H_(j+m), its largest,
    # and h0 = 0 its most negative
    rows = [[q - 1, 0] * (n // 2), [0, q - 1] * (n // 2)]
    assert kernels.norm_mod_rows(rows, [q, q]).tolist() == unhalved_norm_mod_rows(rows, [q, q])


@pytest.mark.parametrize("n", [48, 194, 290])
def test_norm_mod_rows_tower_degrees_mixed_moduli(n):
    # the tower's n, past the halving tests' n <= 96: big rows and a row
    # whose degree drops, each with its own modulus in one call
    rng = random.Random(n)
    rows = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(4)]
    rows.append([rng.randint(-1, 1) for _ in range(n - 1)] + [0])
    qs = [2147483629, 7, 3, kernels.crt_primes(2)[1], 2]
    want = unhalved_norm_mod_rows(rows, qs)
    assert kernels.norm_mod_rows(rows, qs).tolist() == want
    assert [kernels.norm_mod(h, q) for h, q in zip(rows, qs)] == want


def test_norm_int_powers_of_two_need_no_crt(monkeypatch):
    # n = 2^k halves down to one coefficient, the norm itself
    rng = random.Random(21)

    def no_crt(*args):
        raise AssertionError("norm_int reached the CRT for n = 2^k")

    monkeypatch.setattr(kernels, "norm_mod_rows", no_crt)
    for n in (2, 4, 8, 16, 32, 64):
        for bits in (3, 60):
            w = [rng.randint(-2**bits, 2**bits) for _ in range(n)]
            assert kernels.norm_int(w) == sympy_norm(w)


def test_norm_int_n48_sixty_bit():
    # n = 48 = 2^4 * 3 leaves an odd part of length 3, read in closed form
    rng = random.Random(22)
    for _ in range(3):
        w = [rng.randint(-2**60, 2**60) for _ in range(48)]
        assert len(kernels._halve_exact(w)) == 3
        assert kernels.norm_int(w) == sympy_norm(w)
    w = [0] * 48
    w[7] = 2**60 - 1
    assert kernels.norm_int(w) == sympy_norm(w)


# An odd part of length 3 (n = 3 * 2^k) is read by the norm form of
# Q(2^(1/3)), w0^3 + 2 w1^3 + 4 w2^3 - 6 w0 w1 w2, in place of the Euclid.

CUBIC_LENGTHS = [3, 6, 12, 24, 48, 96]
WIDEST_Q = 2**31 - 1


@st.composite
def cubic_rows(draw):
    """Rows of one length n = 3 * 2^k, each with its own prime modulus,
    among them zero rows and the widest row, every coefficient q - 1 at
    q = 2^31 - 1, whose residues make the largest products."""
    n = draw(st.sampled_from(CUBIC_LENGTHS))
    rows, qs = [], []
    for kind in draw(st.lists(st.sampled_from(["small", "big", "zero", "widest"]),
                              min_size=1, max_size=4)):
        if kind == "widest":
            rows.append([WIDEST_Q - 1] * n)
            qs.append(WIDEST_Q)
            continue
        if kind == "zero":
            rows.append([0] * n)
        else:
            coeff = st.integers(-3, 3) if kind == "small" else st.integers(-2**40, 2**40)
            rows.append(draw(st.lists(coeff, min_size=n, max_size=n)))
        qs.append(draw(st.sampled_from(HALVING_MODULI)))
    return rows, qs


@settings(max_examples=60, deadline=None)
@given(cubic_rows())
def test_cubic_odd_part_matches_euclid_and_sympy(case):
    rows, qs = case
    got = kernels.norm_mod_rows(rows, qs)
    assert got.dtype == np.int64
    assert got.tolist() == unhalved_norm_mod_rows(rows, qs)
    assert got.tolist() == [sympy_norm(h) % q for h, q in zip(rows, qs)]


def test_cubic_odd_part_widest_row():
    # the norm of (q - 1)(1 + x + ... + x^(n-1)) is (q - 1)^n (-1)^(n+1)
    for n in CUBIC_LENGTHS:
        row = [WIDEST_Q - 1] * n
        want = (-1) ** (n + 1) * (WIDEST_Q - 1) ** n % WIDEST_Q
        assert kernels.norm_mod(row, WIDEST_Q) == want
        assert kernels.norm_int(row) == (-1) ** (n + 1) * (WIDEST_Q - 1) ** n


def test_norm_int_three_times_powers_of_two_need_no_crt(monkeypatch):
    # n = 3 * 2^k halves down to three coefficients, whose norm is a cubic
    rng = random.Random(23)

    def no_crt(*args):
        raise AssertionError("norm_int reached the CRT for n = 3 * 2^k")

    monkeypatch.setattr(kernels, "norm_mod_rows", no_crt)
    for n in CUBIC_LENGTHS:
        for bits in (3, 60):
            w = [rng.randint(-2**bits, 2**bits) for _ in range(n)]
            assert kernels.norm_int(w) == sympy_norm(w)
        assert kernels.norm_int([0] * (n - 1) + [1]) == sympy_norm([0] * (n - 1) + [1])


@pytest.mark.parametrize("q", [4, 6, 15, 2**31 - 2])
def test_norm_mod_composite_q_answers_odd_parts_one_and_three(q):
    # no Euclid runs for n = 2^k or 3 * 2^k, so any q in range answers,
    # exactly: the halving and the cubic hold over Z
    rng = random.Random(q)
    for n in [1, 2, 4] + CUBIC_LENGTHS:
        rows = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(3)]
        want = [kernels.norm_int(h) % q for h in rows]
        assert kernels.norm_mod_rows(rows, [q] * 3).tolist() == want
        assert [kernels.norm_mod(h, q) for h in rows] == want


def test_norm_mod_composite_q_euclid_refusal_names_q():
    # Res(x^5 - 2, h) mod 15 by the Euclid meets the leading coefficient 3
    rng = random.Random(0)
    h = [rng.randint(-9, 9) for _ in range(5)]
    with pytest.raises(ValueError, match=r"mod q = 15 met the leading coefficient 3, "
                                         r"which is not a unit mod q"):
        kernels.norm_mod(h, 15)
    with pytest.raises(ValueError, match="mod q = 15"):
        kernels.norm_mod_rows([h, h], [7, 15])
    assert kernels.norm_mod(h, 7) == sympy_norm(h) % 7


# norm_mod is the one row of norm_mod_rows, for every odd part left after
# halving: m = 1, the cubic at m = 3, the group algebra at m >= 5 where its
# plan applies (a prime q > m with gcd(m, q - 1) = 1), the Euclid at every
# other m >= 5, and any q in range, composite too.  A row alone and a row
# beside a copy of itself get one answer, or one refusal naming q.

ONE_ROW_ODD_PARTS = [1, 3, 5, 15, 97]
ONE_ROW_MODULI = kernels.crt_primes(3) + [2, 3, 5, 7, 11, 31, 4, 15, 2**31 - 2, 2**31 - 3]


@st.composite
def one_rows(draw):
    """One row of length n = 2^k m for an odd part m, and its modulus; the
    widest row has every coefficient q - 1."""
    m = draw(st.sampled_from(ONE_ROW_ODD_PARTS))
    n = m << draw(st.integers(0, 5 if m <= 3 else 1))
    q = draw(st.sampled_from(ONE_ROW_MODULI))
    kind = draw(st.sampled_from(["small", "big", "widest"]))
    if kind == "widest":
        return [q - 1] * n, q
    coeff = st.integers(-3, 3) if kind == "small" else st.integers(-2**40, 2**40)
    return draw(st.lists(coeff, min_size=n, max_size=n)), q


def answer_or_refusal(call):
    try:
        return int(call())
    except ValueError as e:
        return str(e)


@settings(max_examples=120, deadline=None)
@given(one_rows())
@example(([5, -3, 2, 7], 7))                    # m = 1
@example(([1, 2, 3, 4, 5, 6], 15))              # m = 3, composite q
@example(([1, -2, 3, 0, 5], 7))                 # m = 5, twisted
@example(([1, -2, 3, 0, 5], 5))                 # m = 5, q <= m: the Euclid
@example(([1, -2, 3, 0, 5], 11))                # m = 5, gcd(5, 10) = 5: the Euclid
@example(([3, 4, -8, -1, 7], 15))               # m = 5, composite q: refused
@example(([2, 1] + [0] * 95, 7))                # m = 97, q <= m: the Euclid
def test_one_row_is_the_rows_kernel_for_every_odd_part(case):
    row, q = case
    got = [answer_or_refusal(lambda: kernels.norm_mod(row, q)),
           answer_or_refusal(lambda: kernels.norm_mod_rows([row], [q])[0]),
           answer_or_refusal(lambda: kernels.norm_mod_rows([row, row], [q, q])[0])]
    assert got[0] == got[1] == got[2]
    # a batch that mixes a prime the twist takes, a prime it leaves to the
    # Euclid (11: gcd(m, 10) = 5 at m = 5 and 15, q <= m at m = 97) and a
    # composite q reads each row as it is read alone, or refuses as the
    # first refused row does
    m = len(row) // (len(row) & -len(row))
    moduli = [next(p for p in TWIST_MODULI if twist_applies(m, p)), 11,
              2**31 - 3 if arith.is_prime(q) else q]
    alone = [answer_or_refusal(lambda p=p: kernels.norm_mod(row, p)) for p in moduli]
    refusals = [a for a in alone if isinstance(a, str)]
    try:
        batch = kernels.norm_mod_rows([row] * 3, moduli).tolist()
    except ValueError as e:
        batch = str(e)
    assert batch == (refusals[0] if refusals else alone)
    if isinstance(got[0], str):
        assert f"mod q = {q} met the leading coefficient" in got[0]
        assert not arith.is_prime(q)
        return
    assert type(kernels.norm_mod(row, q)) is int
    if len(row) <= 50:  # sympy's time
        assert got[0] == sympy_norm(row) % q


def test_every_norm_entry_reads_its_odd_part_in_one_place(monkeypatch):
    # norm_mod past one value, norm_mod_rows, norm_is_zero, norm_int's CRT
    # and evaluate_vec's norm nodes all go through _odd_part_norms
    calls = []
    odd_part_norms = kernels._odd_part_norms

    def counted(g, qs):
        calls.append(g.shape)
        return odd_part_norms(g, qs)

    monkeypatch.setattr(kernels, "_odd_part_norms", counted)
    q = kernels.crt_primes(1)[0]
    x, y = Circuit.var("x"), Circuit.var("y")
    entries = [(f"norm_mod n = {n}", lambda n=n: kernels.norm_mod(list(range(1, n + 1)), q))
               for n in (2, 3, 48, 5, 194, 290)]
    entries += [
        ("norm_mod_rows", lambda: kernels.norm_mod_rows([[1, 2, 3]] * 2, [q, 7])),
        ("norm_is_zero", lambda: kernels.norm_is_zero([Fraction(1, 2), 3, 0, 1])),
        ("norm_int's CRT", lambda: kernels.norm_int([1, 2, 3, 4, 5])),
        ("evaluate_vec", lambda: Circuit.norm([x, y, x * y]).evaluate_vec(
            {"x": np.arange(4), "y": 5}, q)),
    ]
    for name, call in entries:
        calls.clear()
        call()
        assert calls, name


def test_each_row_of_a_batch_takes_its_own_odd_part_path(monkeypatch):
    # five rows at n = 194 and one CRT prime are each twisted, as they are
    # alone; m = 5 at q = 11, where gcd(5, 10) = 5, goes to the Euclid
    calls = {"_twisted_norm": 0, "_resultant": 0}
    for name in calls:
        def counted(*args, name=name, kernel=getattr(kernels, name)):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(kernels, name, counted)
    q = kernels.crt_primes(1)[0]
    rng = random.Random(52)
    rows = [[rng.randrange(q) for _ in range(194)] for _ in range(5)]
    got = kernels.norm_mod_rows(rows, [q] * 5).tolist()
    assert calls == {"_twisted_norm": 5, "_resultant": 0}
    assert got == [kernels.norm_mod(row, q) for row in rows]
    calls.update(_twisted_norm=0, _resultant=0)
    assert kernels.norm_mod([1, -2, 3, 0, 5], 11) == sympy_norm([1, -2, 3, 0, 5]) % 11
    assert calls == {"_twisted_norm": 0, "_resultant": 1}


# Each row reads an odd part of m >= 5 values in the group algebra
# F_q[z]/(z^m - 1), twisted by the m-th root of 2 mod q, when its q is a
# prime above m with gcd(m, q - 1) = 1; any other row goes to the Euclid.

TWIST_ODD_PARTS = [5, 15, 25, 97, 145, 251]
# beside the CRT primes, where m = 15 meets gcd(15, q - 1) = 3: small primes
# where some m are twisted (7, 17, 23, 97, 101, 151, 1009) and some are not,
# as q - 1 shares a factor with m (11, 31, 151 and 1009 with 5, 15 or 25)
# or q <= m (every q here but 1009 and the CRT primes, for m = 145 and 251)
TWIST_MODULI = kernels.crt_primes(3) + [7, 11, 17, 23, 31, 97, 101, 151, 1009]


def twist_applies(m, q):
    return arith.is_prime(q) and q > m and math.gcd(m, q - 1) == 1


def test_twist_applies_where_its_conditions_hold():
    for m in TWIST_ODD_PARTS:
        for q in TWIST_MODULI + [49, 2**31 - 3]:
            assert (kernels._twist_plan(m, q) is not None) == twist_applies(m, q), (m, q)
    assert [twist_applies(m, q) for m in TWIST_ODD_PARTS
            for q in kernels.crt_primes(3)] == [True] * 3 + [False] * 3 + [True] * 12


@st.composite
def twist_rows(draw):
    """A modulus among TWIST_MODULI, and for each m in TWIST_ODD_PARTS a
    row of length n = 2^k m: small coefficients, residues mod q, zeros, or
    every coefficient q - 1, whose residues make the largest products."""
    q = draw(st.sampled_from(TWIST_MODULI))
    rows = []
    for m in TWIST_ODD_PARTS:
        n = m << draw(st.integers(0, 1 if m > 25 else 3))
        kind = draw(st.sampled_from(["small", "residue", "zero", "widest"]))
        if kind in ("small", "residue"):
            coeff = st.integers(-3, 3) if kind == "small" else st.integers(0, q - 1)
            rows.append((draw(st.lists(coeff, min_size=n, max_size=n)), kind))
        else:
            rows.append(([0 if kind == "zero" else q - 1] * n, kind))
    return rows, q


@settings(max_examples=40, deadline=None)
@given(twist_rows())
def test_twisted_norm_matches_sympy_and_the_euclid(case):
    rows, q = case
    for row, kind in rows:
        got = kernels.norm_mod(row, q)
        assert type(got) is int
        assert got == euclid(row, q)
        if kind == "widest":  # the norm of (q - 1)(1 + x + ... + x^(n-1))
            assert got == (-1) ** (len(row) + 1) * (q - 1) ** len(row) % q
        elif len(row) <= (150 if kind == "small" else 100):  # sympy's time
            assert got == sympy_norm(row) % q


def test_twisted_norm_at_every_modulus():
    # each (m, q) pair once, twisted or not, against the Euclid on the row
    # itself, whatever the examples above drew
    rng = random.Random(46)
    for m in TWIST_ODD_PARTS:
        for q in TWIST_MODULI:
            for n in (m, 2 * m):
                row = [rng.randrange(q) for _ in range(n)]
                assert kernels.norm_mod(row, q) == euclid(row, q), (n, q)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 7, 65537, 2**31 - 1]), st.integers(1, 40), st.randoms())
def test_ring_product_is_the_cyclic_convolution(q, e, rng):
    # residues, with every coefficient q - 1 drawn often
    a, b = ([rng.choice([q - 1, rng.randrange(q)]) for _ in range(e)] for _ in "ab")
    want = [0] * e
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[(i + j) % e] += x * y
    got = kernels._times(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), q)
    assert got.tolist() == [c % q for c in want]


#: The largest ring product _twisted_norm may take mod q: the largest e
#: with (q - 1)(e (2^16 - 1) + 2^17) < 2^63, _times' int64 bound.
def largest_ring_product(q):
    return ((2**63 - 1) // (q - 1) - 2**17) // 0xFFFF


@pytest.mark.slow
def test_ring_product_at_the_largest_length_the_plan_admits():
    # every coefficient q - 1 at q = 2^31 - 1 makes the largest lo and hi
    # limbs; (q - 1)^2 (1 + z + ... + z^(e-1))^2 = e (1 + ... + z^(e-1))
    # mod z^e - 1, as (q - 1)^2 = 1 mod q.  About 5 s: two convolutions of
    # 65,535 values.
    q = 2**31 - 1
    e = largest_ring_product(q)
    assert e == 65_535
    a = np.full(e, q - 1, dtype=np.int64)
    assert (kernels._times(a, a, q) == e % q).all()


def test_twist_plan_stops_at_the_ring_products_bound():
    # at this q the bound admits e = 65,536, and m = 65,537 meets every
    # other condition (q prime, q > m, gcd(m, q - 1) = 1): only the bound
    # refuses it
    q = 2147450861
    m = largest_ring_product(q) + 1
    assert m == 65_537 and twist_applies(m, q)
    assert kernels._twist_plan(m, q) is None


@pytest.mark.parametrize("m", TWIST_ODD_PARTS)
def test_twist_leaves_composite_q_to_the_euclid(m):
    # q = 2^31 - 3 = 5 * 19 * 22605091 is above m and prime to m, but not
    # prime: the Euclid answers, or refuses naming q, as norm_mod_rows does;
    # it refuses most rows, as a remainder soon leads with a multiple of 5
    q = 2**31 - 3
    rng = random.Random(m)
    answered = refused = 0
    for _ in range(8):
        h = [rng.randint(-9, 9) for _ in range(m)]
        try:
            want = int(kernels.norm_mod_rows([h], [q])[0])
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match=f"mod q = {q} met the leading coefficient"):
                kernels.norm_mod(h, q)
        else:
            answered += 1
            assert kernels.norm_mod(h, q) == want == sympy_norm(h) % q
    assert refused and (answered or m > 5)


# The one-value path of norm_mod reads a list of one int and an int q in
# [2, 2^31) as they are; everything else goes through the rows kernel, with
# its answers and messages.
ONE_VALUE_COEFFICIENTS = [
    (7, 7 % 11),
    (True, 1),
    (np.int64(7), 7),
    (2**80, 2**80 % 11),
    (-7, -7 % 11),
    (7.0, "a coefficient must be an integer, not 7.0"),
    ("7", "a coefficient must be an integer, not '7'"),
    (None, "a coefficient must be an integer, not None"),
    (Fraction(7), r"a coefficient must be an integer, not Fraction\(7, 1\)"),
]
ONE_VALUE_MODULI = [
    (11, 9 % 11),
    (np.int32(11), 9 % 11),
    (True, "q out of range"),
    (1, "q out of range"),
    (2**31, "q out of range"),
    (7.0, "q must be an integer, not 7.0"),
    ("7", "q must be an integer, not '7'"),
]


@pytest.mark.parametrize("c, want", ONE_VALUE_COEFFICIENTS)
def test_norm_mod_one_value_reads_coefficients_as_the_gate_does(c, want):
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{want}$"):
            kernels.norm_mod([c], 11)
    else:
        got = kernels.norm_mod([c], 11)
        assert type(got) is int and got == want


@pytest.mark.parametrize("q, want", ONE_VALUE_MODULI)
def test_norm_mod_one_value_reads_q_as_the_gate_does(q, want):
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{want}$"):
            kernels.norm_mod([9], q)
        # a bad q is named first, as the rows kernel names it
        with pytest.raises(ValueError, match=f"^{want}$"):
            kernels.norm_mod(["9"], q)
    else:
        got = kernels.norm_mod([9], q)
        assert type(got) is int and got == want


def _answer_or_refusal(f):
    try:
        got = f()
    except ValueError as e:
        return "ValueError", str(e)
    return type(got), got


def test_norm_mod_answers_and_refuses_as_its_row():
    # every one-item container, at a good and a bad q, and the one-value
    # tables: norm_mod gives its row's answer or its ValueError, and no
    # other exception
    one_item = [[5], (5,), range(1), deque([5]), np.array([5]), {5: 3}, {0: 1},
                Counter([5]), {5}, frozenset([5]), {5: 3}.keys(), b"\x05", "5", None, 7]
    cases = [(x, q) for x in one_item for q in (7, 7.0)]
    cases += [([c], 11) for c, _ in ONE_VALUE_COEFFICIENTS]
    cases += [(x, q) for q, _ in ONE_VALUE_MODULI for x in ([9], ["9"])]
    for x, q in cases:
        got = _answer_or_refusal(lambda: kernels.norm_mod(x, q))
        row = _answer_or_refusal(lambda: int(kernels.norm_mod_rows([x], [q])[0]))
        assert got == row, (x, q)


@settings(max_examples=100, deadline=None)
@given(st.integers(-2**100, 2**100), st.integers(2, 2**31 - 1))
def test_norm_mod_one_value_is_the_row_kernel(c, q):
    assert kernels.norm_mod([c], q) == int(kernels.norm_mod_rows([[c]], [q])[0]) == c % q


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2**200, 2**200), min_size=1, max_size=12))
def test_square_exact_matches_schoolbook(c):
    want = [0] * (2 * len(c) - 1)
    for i, x in enumerate(c):
        for j, y in enumerate(c):
            want[i + j] += x * y
    assert kernels._square_exact(c) == want


def test_exact_norms_refuse_empty_vectors():
    for f in (kernels.norm_int, kernels.norm_value, kernels.norm_is_zero):
        with pytest.raises(ValueError):
            f([])


def test_halving_helpers_refuse_empty_rows():
    with pytest.raises(ValueError):
        kernels._halve_exact([])
    with pytest.raises(ValueError):
        kernels._halve_rows(np.zeros((1, 0), dtype=np.int64), [7], np.array([[7]]))


def test_conic_square_tables_cached_read_only_and_bounded(monkeypatch):
    squares, is_square = kernels._square_tables(125)
    assert kernels._square_tables(125)[0] is squares
    assert not squares.flags.writeable and not is_square.flags.writeable
    # the distinct squares in increasing order, and their mask; M = 1 is the
    # y = 1 pass's modulus p^(m-2) at m <= 2
    for M in (1, 2, 8, 16, 27, 49, 125):
        squares, is_square = kernels._square_tables(M)
        want = sorted({t * t % M for t in range(M)})
        assert squares.dtype == np.int64 and squares.tolist() == want, M
        assert len(is_square) == M and np.flatnonzero(is_square).tolist() == want, M
    monkeypatch.setattr(kernels, "SCAN_TABLE_BUDGET", 1000)
    for M in (27, 243, 343, 625, 729):
        kernels._square_tables(M)
    assert sum(kernels._scan_tables) <= 1000
    assert 729 in kernels._scan_tables


def test_norm_kernels_same_under_python_O():
    # no answer may depend on an assert: python -O strips them
    import os
    import pathlib
    import subprocess
    import sys
    code = ("from campana import kernels;"
            "print(kernels.norm_int(list(range(-24, 24))),"
            " kernels.norm_mod(list(range(290)), 7),"
            " kernels.norm_mod([-7], 11), kernels.norm_mod([2**80], 2**31 - 1),"
            " kernels.norm_mod([2**31 - 2] * 48, 2**31 - 1),"
            " kernels.norm_mod([2**31 - 3] * 96, 2**31 - 2), kernels.norm_mod([14] * 3, 15),"
            " kernels.norm_mod(list(range(-24, 24)), 4),"
            " kernels.norm_mod_rows([[2**31 - 2] * 512], [2**31 - 1]).tolist(),"
            " kernels.norm_mod(list(range(290)), 2**31 - 1))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(kernels.__file__).parents[1]))
    out = [subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout for flags in ([], ["-O"])]
    assert out[0] == out[1]
    assert out[0].split()[0] == str(sympy_norm(list(range(-24, 24))))
    # the twisted odd part 145, against the Euclid
    assert out[0].split()[-1] == str(euclid(list(range(290)), 2**31 - 1))
