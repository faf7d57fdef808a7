import random
from fractions import Fraction

import pytest
import sympy

from campana.circuits import Circuit


def test_basic_arithmetic():
    x, y = Circuit.var("x"), Circuit.var("y")
    f = (x + y) * (x - y)
    assert f.evaluate({"x": 5, "y": 3}) == 16
    assert (-x).evaluate({"x": 4}) == -4
    assert (2 * x + 1).evaluate({"x": Fraction(1, 2)}) == 2
    assert (x**3).evaluate({"x": -2}) == -8
    assert (1 - x).evaluate({"x": 5}) == -4


def test_degree_rules():
    x, y = Circuit.var("x"), Circuit.var("y")
    assert Circuit.const(7).degree() == 0
    assert x.degree() == 1
    assert (x + y).degree() == 1
    assert (x * y).degree() == 2
    assert (x**5).degree() == 5
    assert ((x * y + 1)**3).degree() == 6
    assert Circuit.norm([x, y, x * y]).degree() == 3 * 2
    assert (x + y**4).degree() == 4


def test_degree_matches_expansion_on_random_small_circuits():
    rng = random.Random(9)
    xs = sympy.symbols("x y z")
    for _ in range(150):
        # random circuit of <= 6 operations over dense polynomials
        sym_vals = list(xs)
        circs = [Circuit.var(str(s)) for s in xs]
        exprs = list(sym_vals)
        for _ in range(rng.randint(1, 6)):
            op = rng.choice(["add", "mul", "neg", "pow"])
            i = rng.randrange(len(circs))
            j = rng.randrange(len(circs))
            if op == "add":
                circs.append(circs[i] + circs[j])
                exprs.append(exprs[i] + exprs[j])
            elif op == "mul":
                circs.append(circs[i] * circs[j])
                exprs.append(exprs[i] * exprs[j])
            elif op == "neg":
                circs.append(-circs[i])
                exprs.append(-exprs[i])
            else:
                k = rng.randint(1, 3)
                circs.append(circs[i]**k)
                exprs.append(exprs[i]**k)
        poly = sympy.Poly(sympy.expand(exprs[-1]), *xs)
        # syntactic degree is an upper bound, exact absent cancellation
        assert circs[-1].degree() >= poly.total_degree()


def test_exact_vs_modular_evaluation():
    rng = random.Random(10)
    x, y, z = Circuit.var("x"), Circuit.var("y"), Circuit.var("z")
    f = (x**2 + 3 * y - z) * (y + 1) - Circuit.norm([x, y, z])
    q = 2147483629
    for _ in range(100):
        env = {n: rng.randint(-50, 50) for n in "xyz"}
        exact = f.evaluate(env)
        assert exact.denominator == 1
        assert exact.numerator % q == f.evaluate_mod(env, q)


def test_vectorized_evaluation():
    import numpy as np

    x, y = Circuit.var("x"), Circuit.var("y")
    f = x**2 - 2 * y**2 + 1
    q = 2147483629
    env = {"x": np.arange(50), "y": np.arange(50) + 1}
    vec = f.evaluate_vec(env, q)
    for i in range(50):
        assert int(vec[i]) == f.evaluate_mod({"x": i, "y": i + 1}, q)


def test_vectorized_norm_node_rows():
    import numpy as np

    rng = random.Random(11)
    x, y, z = Circuit.var("x"), Circuit.var("y"), Circuit.var("z")
    f = Circuit.norm([x, y * z, x - z, 3 * y]) + x
    for q in (2147483629, 101, 2):
        env = {n: np.array([rng.randint(-5, 5) for _ in range(200)]) for n in "xyz"}
        vec = f.evaluate_vec(env, q)
        for i in range(200):
            point = {n: int(v[i]) for n, v in env.items()}
            assert int(vec[i]) == f.evaluate_mod(point, q)
    # a point given as scalars, and a norm node over constants only
    assert int(f.evaluate_vec({"x": 2, "y": 1, "z": 0}, 101)) == \
        f.evaluate_mod({"x": 2, "y": 1, "z": 0}, 101)
    g = Circuit.norm([Circuit.const(3), Circuit.const(1)])
    assert int(g.evaluate_vec({}, 101)) == 7


@pytest.mark.parametrize("q", [2**32 + 15, 2**31, 1, 0, -7])
def test_vectorized_evaluation_rejects_modulus_out_of_range(q):
    import numpy as np

    x = Circuit.var("x")
    with pytest.raises(ValueError):
        (x * x + 1).evaluate_vec({"x": np.arange(4)}, q)


def test_rational_constants():
    x = Circuit.var("x")
    f = Circuit.const(Fraction(1, 3)) * x + Circuit.const(Fraction(2, 5))
    assert f.evaluate({"x": 3}) == Fraction(7, 5)
    q = 101
    want = (pow(3, -1, q) * 3 + 2 * pow(5, -1, q)) % q
    assert f.evaluate_mod({"x": 3}, q) == want


def test_free_vars_and_unbound_error():
    x, y = Circuit.var("x"), Circuit.var("y")
    f = x * y + x
    assert f.free_vars() == ("x", "y")
    with pytest.raises(ValueError):
        f.evaluate({"x": 1})


def test_structural_equality_is_layout_independent():
    x, y = Circuit.var("x"), Circuit.var("y")
    f = x**2 - 2 * y**2
    g = x**2 - 2 * y**2
    assert f == g and hash(f) == hash(g)
    assert f != x**2 + 2 * y**2
    # same polynomial, different circuit shape: not structurally equal
    h = (x - y) * (x + y) - y * y
    assert f != h


def test_pow_rejects_bad_exponent():
    x = Circuit.var("x")
    with pytest.raises(ValueError):
        x**0
    with pytest.raises(ValueError):
        x**(-1)


def test_norm_node_empty_rejected():
    with pytest.raises(ValueError):
        Circuit.norm([])


def test_vectorized_evaluation_of_big_integers():
    import numpy as np

    x = Circuit.var("x")
    f = x**3 - 5 * x + Circuit.norm([x, x + 1])
    values = [2**70, -2**70, 3**50, 2**63, -2**63 - 1, 12]
    for q in (7, 2147483629):
        want = [f.evaluate_mod({"x": v}, q) for v in values]
        assert f.evaluate_vec({"x": values}, q).tolist() == want
        assert f.evaluate_vec({"x": np.array(values, dtype=object)}, q).tolist() == want
        for v, w in zip(values, want):
            assert int(f.evaluate_vec({"x": v}, q)) == w
    assert int(x.evaluate_vec({"x": 2**70}, 7)) == 2**70 % 7


def test_vectorized_evaluation_rejects_non_integers():
    import numpy as np

    x = Circuit.var("x")
    for bad in ([2.5, -2.5], [1, 2.0], [Fraction(1, 2)], np.array([2.5, -2.5]),
                np.array([1.0]), 2.5, np.float64(3.0), "3", [None]):
        with pytest.raises(ValueError):
            x.evaluate_vec({"x": bad}, 7)
    assert x.evaluate_vec({"x": [True, 3, np.int64(9)]}, 7).tolist() == [1, 3, 2]
    assert x.evaluate_vec({"x": np.array([9], dtype=np.uint64)}, 7).tolist() == [2]


def test_root_is_the_last_node():
    with pytest.raises(ValueError):
        Circuit((("var", "x"), ("var", "y")), 0)


def test_substitution_shares_the_replacement():
    from campana.circuits import render

    x, y = Circuit.var("x"), Circuit.var("y")
    shared = (x * x + x).substitute("x", y + 1)
    copied = (y + 1) * (y + 1) + (y + 1)
    assert len(shared.nodes) == len(copied.nodes) - 6
    assert shared.degree() == copied.degree() == 2
    assert shared.evaluate({"y": 4}) == copied.evaluate({"y": 4}) == 30
    for style in ("sexpr", "latex"):
        assert render(shared, style) == render(copied, style)
    assert x.substitute("z", y) is x
