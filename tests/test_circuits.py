import copy
import pickle
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
    with pytest.raises(ValueError):
        (x * x + 1).evaluate_mod({"x": 3}, q)


@pytest.mark.parametrize("value", [Fraction(1, 2), 2.5, Fraction(4), 3.0, "3"])
def test_modular_evaluation_rejects_non_integer_values(value):
    # returned Fraction(5, 4) and 0.25 for 1/2 and 2.5
    with pytest.raises(ValueError):
        (Circuit.var("x")**2 + 1).evaluate_mod({"x": value}, 7)


def test_modular_evaluation_takes_any_size_integers():
    import numpy as np

    f = Circuit.var("x")**2 + 1
    want = ((10**30 + 3)**2 + 1) % 7
    assert f.evaluate_mod({"x": 10**30 + 3}, 7) == want
    assert f.evaluate_mod({"x": np.int64(10**30 % 7 + 3)}, 7) == want


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


@pytest.mark.parametrize("nodes, why", [
    ((("frob",),), "not a known op"),                      # degree() raised KeyError
    ((("var", "x"), ("neg", 0, 1)), "not a known op"),     # a field too many
    ((("var", "x"), ("pow", 0)), "not a known op"),        # a field missing
    ((("var", 1),), "var name"),
    ((("int", 2.0),), "int value"),
    ((("var", "x"), ("norm", [0])), "not a known op"),     # norm children are a tuple
    ((("var", "x"), ("add", 0, 5)), "below 1"),            # evaluate raised IndexError
    ((("var", "x"), ("neg", 1)), "below 1"),
    ((("var", "x"), ("var", "y"), ("neg", 0)), "node 1 is not reachable"),
    ((("var", "x"), ("var", "x"), ("add", 0, 1)), "node 1 repeats node 0"),
    ((("var", "y"), ("var", "x"), ("add", 1, 0)), "canonical order"),
    ((), "root"),
    ((("var", "x"), ("norm", ())), "nonempty"),            # max() raised on no children
])
def test_constructor_rejects_malformed_nodes(nodes, why):
    with pytest.raises(ValueError, match=why):
        Circuit(nodes, len(nodes) - 1)


def test_constructor_returns_the_canonical_circuit():
    x, y = Circuit.var("x"), Circuit.var("y")
    f = Circuit.norm([x * y + 1, x, (x * y) ** 3])
    assert f.nodes == (("var", "x"), ("var", "y"), ("mul", 0, 1), ("int", 1),
                       ("add", 2, 3), ("pow", 2, 3), ("norm", (4, 0, 5)))
    assert Circuit(f.nodes, f.root) is f
    assert Circuit(list(f.nodes), f.root) is f
    assert copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f


def test_substitution_shares_the_replacement():
    from campana.circuits import render

    x, y = Circuit.var("x"), Circuit.var("y")
    shared = (x * x + x).substitute("x", y + 1)
    copied = (y + 1) * (y + 1) + (y + 1)
    assert shared == copied
    assert shared.degree() == copied.degree() == 2
    assert shared.evaluate({"y": 4}) == copied.evaluate({"y": 4}) == 30
    for style in ("sexpr", "latex"):
        assert render(shared, style) == render(copied, style)
    assert x.substitute("z", y) is x


def test_threads_building_the_same_circuits_get_the_same_objects():
    import sys
    import threading

    from campana import formulas as fm

    rounds, workers = 8, 4
    start = threading.Barrier(workers)
    made = [[] for _ in range(workers)]
    errors = []

    def work(out):
        try:
            for r in range(rounds):  # new names each round: every lookup misses
                start.wait(timeout=60)
                a, b, s = (Circuit.var(f"{v}{r}") for v in "pqs")
                out.append(fm._j_block(a, b, s, fm.Gensym())[1])
        except Exception as exc:  # a thread cannot raise into the test
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in made]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads) and not errors
    # a lost table insert would leave two objects for one circuit
    for out in made[1:]:
        assert len(out) == rounds
        assert all(a is b for r in range(rounds) for a, b in zip(out[r], made[0][r]))


def test_the_table_forgets_circuits_nothing_refers_to():
    from campana import circuits, formulas as fm

    # dead entries go at a lookup that misses, such as one for a new name
    Circuit.var("a name no other test uses") + 1
    before = len(circuits._TABLE)
    f = fm.build_premise()
    grown = len(circuits._TABLE) - before
    del f
    g = Circuit.var("another name no other test uses") + 1
    assert grown > 3000 and len(circuits._TABLE) <= before + 3
    assert g.nodes == (("var", "another name no other test uses"), ("int", 1), ("add", 0, 1))
