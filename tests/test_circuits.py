import copy
import json
import math
import pickle
import random
import sys
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from campana import arith, circuits, formulas as fm, kernels
from campana.circuits import OPS, Circuit, fold_nodes, read_nodes


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


@pytest.mark.parametrize("value", [Fraction(1, 2), 2.5, Fraction(4), 3.0, "3",
                                   [3], (3,), np.array([3])])
def test_modular_evaluation_rejects_non_integer_values(value):
    # returned Fraction(5, 4) and 0.25 for 1/2 and 2.5; a sequence of one
    # value raised numpy's TypeError
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
    for bad in (0, -1, 2.0, 0.5, "2", Fraction(2), None):
        with pytest.raises(ValueError):
            x**bad
    assert x ** np.int64(2) is x**2


@pytest.mark.parametrize("base", [Circuit.var("x"), Circuit.const(2)], ids=["var", "const"])
def test_exact_evaluation_of_a_squaring_chain_is_refused_at_the_bound(base):
    # 60 squarings of 2 would run until memory is gone; the chain of a
    # constant has degree 0, so a degree bound would not see it
    c = base
    for _ in range(60):
        c = c * c
    start = time.perf_counter()
    with pytest.raises(ValueError, match="POWER_BITS"):
        c.evaluate({"x": 2})
    assert time.perf_counter() - start < 2
    assert c.evaluate_mod({"x": 2}, 7) == pow(2, 2**60, 7)


def test_exact_evaluation_of_a_norm_chain_is_refused_at_the_bound():
    # norm(v, v) = v^2 - 2 v^2 = -v^2, so each level doubles the bits
    x = Circuit.var("x")
    chain = [x]
    for _ in range(60):
        chain.append(Circuit.norm([chain[-1]] * 2))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="POWER_BITS"):
        chain[-1].evaluate({"x": 2})
    assert time.perf_counter() - start < 2
    # 22 levels stay under the bound, and the 23rd passes it
    assert chain[22].evaluate({"x": 2}) == -(2 ** 2**22)
    with pytest.raises(ValueError, match="POWER_BITS"):
        chain[23].evaluate({"x": 2})


def test_a_product_just_under_the_bound_evaluates_exactly():
    bound = arith.POWER_BITS
    x = Circuit.var("x")
    half = x ** (bound - 1)  # 2^(bound - 1) has bound bits
    assert (half * half).evaluate({"x": 2}) == 2 ** (2 * bound - 2)
    assert (half * half).evaluate({"x": Fraction(1, 2)}) == Fraction(1, 2 ** (2 * bound - 2))
    with pytest.raises(ValueError, match="POWER_BITS"):
        (half * (half * x)).evaluate({"x": 2})  # factors of bound and bound + 1 bits
    # 22 squarings of 2 give 2^(2^22), of 2^22 + 1 bits; a 23rd is refused
    c = x
    for _ in range(22):
        c = c * c
    assert c.evaluate({"x": 2}) == 2 ** 2**22
    with pytest.raises(ValueError, match="POWER_BITS"):
        (c * c).evaluate({"x": 2})


def test_exact_evaluation_of_a_huge_power_is_refused_at_once():
    # it allocated until memory ran out; the mod-q forms read only k mod q
    f = Circuit.var("x") ** 10**40
    start = time.perf_counter()
    with pytest.raises(ValueError, match="POWER_BITS"):
        f.evaluate({"x": 2})
    assert time.perf_counter() - start < 1
    assert f.evaluate({"x": -1}) == 1
    assert f.evaluate_mod({"x": 2}, 7) == pow(2, 10**40, 7)
    assert int(f.evaluate_vec({"x": [2]}, 7)[0]) == pow(2, 10**40, 7)


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


#: Values at the edges of every integer dtype evaluate_vec takes; uint64
#: past 2^53 went through float64 when reduced by a 0-d int64 modulus, and
#: int8 or uint16 overflowed when reduced by a Python int past their range.
EDGE_VALUES = {
    np.int64: [2**63 - 1, -2**63, -2**63 + 1, -1, 0, 2**62 + 7],
    np.uint64: [2**64 - 1, 2**63 + 12345, 2**63, 2**53 + 1, 0, 9],
    np.int8: [-128, 127, -1, 0], np.int16: [-2**15, 2**15 - 1, -1, 5],
    np.int32: [-2**31, 2**31 - 1, -1, 2**31 - 2],
    np.uint8: [255, 0, 1, 128], np.uint16: [2**16 - 1, 0, 2**15],
    np.uint32: [2**32 - 1, 0, 2**31 - 1, 2**31],
    object: [2**64 - 1, -2**70, 2**63, 3**50, -2**63 - 1, 12],
}


@pytest.mark.parametrize("q", [7, 2**31 - 1])
@pytest.mark.parametrize("batch", [1, 4, 16384])
def test_vectorized_evaluation_is_exact_on_every_integer_dtype(q, batch):
    x, y = Circuit.var("x"), Circuit.var("y")
    f = (x**3 - 5 * x * y + Circuit.const(Fraction(2, 3)) * y**2
         + Circuit.norm([x, y + 1, x * y]) - Circuit.norm([x, y]))
    rng = random.Random(batch)
    for dtype, pool in EDGE_VALUES.items():
        picks = {nm: [rng.randrange(len(pool)) for _ in range(batch)] for nm in "xy"}
        env = {nm: np.array([pool[i] for i in picks[nm]], dtype=dtype) for nm in "xy"}
        vec = f.evaluate_vec(env, q)
        assert vec.dtype == np.int64 and vec.shape == (batch,)
        # evaluate_mod at each distinct point, of which there are few
        want = {}
        for i, j in zip(picks["x"], picks["y"]):
            if (i, j) not in want:
                want[i, j] = f.evaluate_mod({"x": int(pool[i]), "y": int(pool[j])}, q)
        assert vec.tolist() == [want[ij] for ij in zip(picks["x"], picks["y"])], dtype
    # np.int64 scalars, alone and beside an array
    for v in EDGE_VALUES[np.int64]:
        assert f.evaluate_vec({"x": np.int64(v), "y": np.int64(~v)}, q) == \
            f.evaluate_mod({"x": v, "y": ~v}, q)
        got = f.evaluate_vec({"x": np.int64(v), "y": env["y"][:4]}, q)
        assert got.dtype == np.int64
        assert got.tolist() == [f.evaluate_mod({"x": v, "y": int(w)}, q) for w in env["y"][:4]]


def test_root_is_the_last_node():
    with pytest.raises(ValueError, match="node 0 is not reachable"):
        Circuit((("var", "x"), ("var", "y")))


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
    ((("int", "1/2"),), "not a known op"),                 # the node tuple holds a Fraction
])
def test_constructor_rejects_malformed_nodes(nodes, why):
    with pytest.raises(ValueError, match=why):
        Circuit(nodes)


def test_constructor_returns_the_canonical_circuit():
    x, y = Circuit.var("x"), Circuit.var("y")
    f = Circuit.norm([x * y + 1, x, (x * y) ** 3])
    assert f.nodes == (("var", "x"), ("var", "y"), ("mul", 0, 1), ("int", 1),
                       ("add", 2, 3), ("pow", 2, 3), ("norm", (4, 0, 5)))
    assert Circuit(f.nodes) is f
    assert Circuit(list(f.nodes)) is f
    assert copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f


def test_substitution_shares_the_replacement():
    from campana.circuits import layout, render_all

    x, y = Circuit.var("x"), Circuit.var("y")
    shared = (x * x + x).substitute("x", y + 1)
    copied = (y + 1) * (y + 1) + (y + 1)
    assert shared == copied
    assert shared.degree() == copied.degree() == 2
    assert shared.evaluate({"y": 4}) == copied.evaluate({"y": 4}) == 30
    for style in ("sexpr", "latex"):
        texts = [render_all(layout((c,)), style)[c] for c in (shared, copied)]
        assert texts[0] == texts[1]
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
                out.append(fm._j_block(a, b, s, fm.Gensym()))
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

    # an entry goes as its circuit dies, so once f and the J(a,b,c,d) block
    # memo that keeps its tower are gone only g's three nodes are new
    Circuit.var("a name no other test uses") + 1
    before = len(circuits._TABLE)
    f = fm.build_campana(2)
    grown = len(circuits._TABLE) - before
    del f
    fm._jabcd_record.cache_clear()
    g = Circuit.var("another name no other test uses") + 1
    assert grown > 3000 and len(circuits._TABLE) <= before + 3
    assert g.nodes == (("var", "another name no other test uses"), ("int", 1), ("add", 0, 1))


def test_the_table_drops_each_entry_as_its_circuit_dies():
    import gc

    from campana import circuits

    gc.collect()
    gc.disable()
    try:
        before = len(circuits._TABLE)
        f = fm.build_campana(2)
        assert len(circuits._TABLE) > before + 3000
        del f  # no lookup and no collection after it
        fm._jabcd_record.cache_clear()  # which holds the tower's blocks
        assert len(circuits._TABLE) == before
    finally:
        gc.enable()


def test_a_deep_chain_is_dropped_without_a_recursion_error():
    import sys

    from campana import circuits

    before = len(circuits._TABLE)
    c = Circuit.var("the bottom of a deep chain")
    for _ in range(300_000):
        c = -c
    assert len(circuits._TABLE) == before + 300_001
    # each drop lets go of the key that holds the next node down, so the
    # whole chain goes in one cascade; an error in a drop is only reported
    lost = []
    old, sys.unraisablehook = sys.unraisablehook, lost.append
    try:
        del c
    finally:
        sys.unraisablehook = old
    assert not lost and len(circuits._TABLE) == before


def test_an_entry_whose_circuit_died_before_its_drop_ran_is_replaced():
    from campana import circuits

    class Gone:
        pass

    # a cleared reference still in the table, as the cyclic collector leaves
    # one between clearing it and calling its drop
    key, gone = ("var", "a name whose entry is dead"), Gone()
    ref = circuits._Ref(gone)
    ref.key = key
    del gone
    circuits._TABLE[key] = ref
    c = Circuit.var("a name whose entry is dead")
    assert c.nodes == (key,) and circuits._TABLE[key]() is c
    assert Circuit.var("a name whose entry is dead") is c
    del c
    assert key not in circuits._TABLE


def test_a_formula_alive_at_exit_writes_nothing_to_stderr():
    import os
    import pathlib
    import subprocess
    import sys

    from campana import circuits

    src = str(pathlib.Path(circuits.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "from campana import formulas\nf = formulas.build_campana(7)\n"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0 and done.stderr == b""


def test_substitute_lifts_the_replacement_as_an_operand_is_lifted():
    x = Circuit.var("x")
    for value in (3, Fraction(1, 2)):
        # substitute("x", 3) returned the int 3, and (x + 1) an AttributeError
        assert x.substitute("x", value) is Circuit.const(value)
        assert (x + 1).substitute("x", value) is Circuit.const(value) + 1
    # a function argument that is not a circuit is a ValueError; the
    # operators keep Python's TypeError
    with pytest.raises(ValueError):
        (x + 1).substitute("x", None)
    with pytest.raises(TypeError):
        x + None


def test_substitute_of_an_absent_name_makes_no_node_array():
    # it looked the name up in the node array, which it made and kept
    circ = Circuit.var("absent name u") * Circuit.var("absent name v") + 1
    assert circ.substitute("absent name w", 2) is circ
    assert circ._nodes is None
    assert circ.substitute("absent name u", 2) is 2 * Circuit.var("absent name v") + 1


@pytest.mark.parametrize("call", [
    lambda x: fm.combine_pair(None, x),
    lambda x: fm.combine_pair(x, 0.5),
    lambda x: fm.combine_many([None, x]),
    lambda x: fm.combine_many([None]),
    lambda x: fm.combine_sos([None]),
    lambda x: fm.combine_sos([x, "x"]),
    lambda x: Circuit.norm([None]),
    lambda x: x.substitute("x", None),
], ids=["combine_pair[f]", "combine_pair[g]", "combine_many", "combine_many[one]",
        "combine_sos", "combine_sos[str]", "Circuit.norm", "substitute[replacement]"])
def test_an_argument_that_is_not_a_circuit_is_a_value_error(call):
    # each raised TypeError, through Circuit._lift or **
    with pytest.raises(ValueError, match="cannot use .* in a circuit"):
        call(Circuit.var("x"))


@pytest.mark.parametrize("env", [None, ["x"], "x", 3, ("x", 1)])
@pytest.mark.parametrize("call", [
    lambda f, env: f.evaluate(env),
    lambda f, env: f.evaluate_mod(env, 7),
    lambda f, env: f.evaluate_vec(env, 7),
    lambda f, env: fm.evaluate_matrix(fm.build_S(), env),
], ids=["evaluate", "evaluate_mod", "evaluate_vec", "evaluate_matrix"])
def test_values_that_are_not_a_mapping_are_a_value_error(call, env):
    # None raised TypeError, and so did ["x"] (list indices)
    with pytest.raises(ValueError, match="mapping"):
        call(Circuit.var("x") * Circuit.var("x") + 1, env)


@pytest.mark.parametrize("bad", [None, 7, Fraction(1, 2)])
@pytest.mark.parametrize("name", ["Circuit.norm", "combine_many", "combine_sos"])
def test_circuits_that_are_not_iterable_are_a_value_error(name, bad):
    # each raised TypeError: ... is not iterable
    call = {"Circuit.norm": Circuit.norm, "combine_many": fm.combine_many,
            "combine_sos": fm.combine_sos}[name]
    with pytest.raises(ValueError, match="iterable"):
        call(bad)


@pytest.mark.parametrize("nodes", [None, 5, object()])
def test_nodes_that_are_not_iterable_are_a_value_error(nodes):
    # Circuit(nodes) ran tuple(nodes) first: TypeError, ... is not iterable
    with pytest.raises(ValueError, match="iterable"):
        Circuit(nodes)


@pytest.mark.parametrize("value", [0.1, 2.0, float("nan"), "1/3", "3", None, 1 + 2j,
                                   np.float64(2.0)])
def test_exact_evaluation_refuses_what_is_not_a_rational_number(value):
    # 0.1 gave 1311054956780043977645102203886633/1298074214633706907132624082305024
    # and "1/3" gave 10/9; None and 1+2j raised TypeError
    with pytest.raises(ValueError):
        (Circuit.var("x") * Circuit.var("x") + 1).evaluate({"x": value})


def test_exact_evaluation_returns_a_fraction():
    x, y = Circuit.var("x"), Circuit.var("y")
    f = x**3 - 5 * x * y + 1
    g = Circuit.const(Fraction(2, 3)) * x + y
    h = Circuit.norm([x, y + 1, x * y]) + x
    for circ, env, want in [
        (f, {"x": 2, "y": -1}, 19),
        (Circuit.const(7), {}, 7),
        (g, {"x": 3, "y": 1}, 3),
        (g, {"x": 1, "y": 1}, Fraction(5, 3)),
        (f, {"x": Fraction(1, 2), "y": 1}, Fraction(-11, 8)),
        (h, {"x": 2, "y": 0}, kernels.norm_value([Fraction(2), Fraction(1), Fraction(0)]) + 2),
    ]:
        got = circ.evaluate(env)
        assert type(got) is Fraction and got == want
    # numpy integers and bools give the values the ints give, at any size
    # (x = np.int64(2**62) gave 2**62 + 1: x**3 wrapped around in int64)
    assert f.evaluate({"x": np.int64(2**62), "y": np.int32(3)}) == \
        f.evaluate({"x": 2**62, "y": 3}) == 2**186 - 15 * 2**62 + 1
    assert h.evaluate({"x": np.uint8(2), "y": np.int64(0)}) == h.evaluate({"x": 2, "y": 0})
    assert type(f.evaluate({"x": True, "y": False})) is Fraction
    assert f.evaluate({"x": True, "y": False}) == f.evaluate({"x": 1, "y": 0}) == 2


@st.composite
def _folds_agree_case(draw):
    """A modulus, points, and random circuits over add, mul, neg, pow and
    norm, each with its value at the first point, folded in Fractions as
    the circuit is built."""
    q = draw(st.sampled_from([2, 3, 101, 2**31 - 1]))

    def value(exact: bool):
        # negative values, values congruent to q - 1, and big ones
        if exact and draw(st.booleans()):
            return draw(st.integers(-3, 3))
        return draw(st.one_of(st.integers(-10**6, 10**6),
                              st.integers(-3, 3).map(lambda m: m * q - 1),
                              st.integers(-2**70, 2**70)))

    points = [{nm: value(i == 0) for nm in "xyz"} for i in range(draw(st.integers(1, 5)))]
    # u is -1, 0 or 1 at the first point, so that u**k stays small for k near 2^20
    for i, pt in enumerate(points):
        pt["u"] = draw(st.integers(-1, 1)) if i == 0 else value(False)
    den = st.integers(1, 60).filter(lambda d: d % q != 0)
    const = st.one_of(st.integers(-50, 50), st.builds(Fraction, st.integers(-50, 50), den))
    c, k, big = draw(const), draw(st.integers(1, 40)), draw(st.integers(2**20 - 2, 2**20 + 2))
    pool = [(Circuit.var(nm), Fraction(points[0][nm])) for nm in "xyzu"]
    pool += [(Circuit.var("u") ** big, Fraction(points[0]["u"]) ** big),
             (Circuit.const(c) ** k, Fraction(c) ** k)]

    def small(v: Fraction) -> bool:
        return max(abs(v.numerator), v.denominator).bit_length() <= 256

    node = st.integers(0, 10**6).map(lambda i: pool[i % len(pool)])
    for _ in range(draw(st.integers(1, 8))):
        (a, va), (b, vb) = draw(node), draw(node)
        op = draw(st.sampled_from(["add", "mul", "neg", "pow", "const", "norm"]))
        if op == "add":
            pool.append((a + b, va + vb))
        elif op == "mul" and small(va) and small(vb):
            pool.append((a * b, va * vb))
        elif op == "pow" and small(va):
            e = draw(st.integers(1, 40))
            pool.append((a**e, va**e))
        elif op == "const":
            d = draw(const)
            pool.append((a + d, va + d))
        elif op == "norm":
            kids = [draw(node) for _ in range(draw(st.integers(1, 4)))]
            if all(small(v) for _, v in kids):
                pool.append((Circuit.norm([kid for kid, _ in kids]),
                             kernels.norm_value([v for _, v in kids])))
        else:  # neg, and a mul or pow whose value would grow too large
            pool.append((-a, -va))
    return q, points, pool


#: The degree rules of OPS, as a rule table for fold_nodes.
DEGREE_RULES = {op: row.degree for op, row in OPS.items()}


@settings(max_examples=200, deadline=None)
@given(_folds_agree_case())
def test_exact_mod_and_vec_folds_agree(case):
    q, points, pool = case
    cols = {nm: [pt[nm] for pt in points] for nm in points[0]}
    for circ, ref in pool:
        # the degree rule folded over the node list, as over a document,
        # gives the degree _intern read off the children's circuits
        assert fold_nodes(circ.nodes, DEGREE_RULES, {})[-1] == circ.degree()
        got = circ.evaluate(points[0])
        assert type(got) is Fraction and got == ref
        want = [circ.evaluate_mod(pt, q) for pt in points]
        assert want[0] == ref.numerator * pow(ref.denominator, -1, q) % q
        # scalar env values, Python ints or numpy scalars, give 0-d results
        for scalars in (points[0], {nm: np.int64(v % q) for nm, v in points[0].items()}):
            assert int(circ.evaluate_vec(scalars, q)) == want[0]
        vec = circ.evaluate_vec(cols, q)
        assert np.broadcast_to(vec, (len(points),)).tolist() == want


@settings(max_examples=200, deadline=None)
@given(_folds_agree_case())
def test_vec_fold_agrees_on_int64_and_uint64_columns(case):
    # lists take the object path; here each column is an int64 array of
    # values congruent to the drawn ones, kept as they are where int64 holds
    # them, and a uint64 array of the largest such values, past 2^63
    q, points, pool = case

    def int64_value(v):
        return v if -2**63 <= v < 2**63 else v % q + (2**63 - 1 - v % q) // q * q

    def uint64_value(v):
        return v % q + (2**64 - 1 - v % q) // q * q

    columns = [{nm: np.array([rep(pt[nm]) for pt in points], dtype=dtype) for nm in points[0]}
               for rep, dtype in ((int64_value, np.int64), (uint64_value, np.uint64))]
    for circ, _ in pool:
        want = [circ.evaluate_mod(pt, q) for pt in points]
        for cols in columns:
            vec = circ.evaluate_vec(cols, q)
            assert np.asarray(vec).dtype == np.int64
            assert np.broadcast_to(vec, (len(points),)).tolist() == want


#: Values a variable of evaluate_vec may take, by the dtype of its column:
#: the int64 and uint64 extremes and Python ints far past both.
WIDE_VALUES = {
    np.int64: [2**63 - 1, -2**63, -1, 0, 1, 2**62 + 7],
    np.uint64: [2**64 - 1, 2**63, 0, 1, 2**53 + 1],
    object: [2**200, -2**200, 2**64 - 1, -2**63 - 1, 3**50],
}


@st.composite
def _overflow_case(draw):
    """A modulus, points whose every column has a dtype of WIDE_VALUES and
    leans to q - 1, and random circuits built to push int64 bounds: add
    and neg chains 40 to 64 deep, pow k up to 64, int constants up to
    ±2^80 and Fractions, norm nodes, and subterms shared all along; a sum
    of squares at q - 1 passes 2^63 as soon as a bound lets it."""
    q = draw(st.sampled_from([2, 7, 65537, 2**31 - 19, 2**31 - 1]))
    n = draw(st.integers(1, 5))
    dtypes = {nm: draw(st.sampled_from(sorted(WIDE_VALUES, key=str))) for nm in "xyz"}
    cols = {nm: [draw(st.one_of(st.just(q - 1), st.sampled_from(WIDE_VALUES[dtypes[nm]])))
                 for _ in range(n)] for nm in "xyz"}
    den = st.integers(1, 2**40).filter(lambda d: math.gcd(d, q) == 1)
    const = st.one_of(st.integers(-2**80, 2**80), st.integers(-2**31, 2**31),
                      st.builds(Fraction, st.integers(-2**80, 2**80), den))
    pool = [Circuit.var(nm) for nm in "xyz"]
    node = st.integers(0, 10**6).map(lambda i: pool[i % len(pool)])
    for _ in range(draw(st.integers(1, 10))):
        a, b = draw(node), draw(node)
        op = draw(st.sampled_from(["add", "mul", "mul", "neg", "pow", "const", "norm", "chain"]))
        if op == "add":
            pool.append(a + b)
        elif op == "mul":
            pool.append(a * b)
        elif op == "neg":
            pool.append(-a)
        elif op == "pow":
            pool.append(a ** draw(st.integers(1, 64)))
        elif op == "const":
            pool.append(a * draw(const) if draw(st.booleans()) else a + draw(const))
        elif op == "norm":
            pool.append(Circuit.norm([draw(node) for _ in range(draw(st.integers(1, 4)))]))
        else:  # each step negates, or adds a pool node or its square
            for _ in range(draw(st.integers(40, 64))):
                b, step = draw(node), draw(st.integers(0, 3))
                a = -a if step == 0 else a + b if step == 1 else a + b * b
            pool.append(a)
    return q, {nm: np.array(col, dtype=dtypes[nm]) for nm, col in cols.items()}, pool


@settings(max_examples=300, deadline=None)
@given(_overflow_case())
def test_planned_vec_fold_never_overflows(case):
    # int64 wraps silently, so a wrong bound in the plan reads as a wrong
    # residue: every circuit of the pool, at every point, against evaluate_mod
    q, env, pool = case
    points = [{nm: int(col[i]) for nm, col in env.items()} for i in range(len(env["x"]))]
    for circ in pool:
        vec = circ.evaluate_vec(env, q)
        assert np.asarray(vec).dtype == np.int64
        assert np.broadcast_to(vec, (len(points),)).tolist() == \
            [circ.evaluate_mod(pt, q) for pt in points]
        assert int(circ.evaluate_vec(points[0], q)) == circ.evaluate_mod(points[0], q)


def _widest_circuits():
    """Circuits whose values, with every variable at q - 1, reach the
    int64 bounds the plan allows: long sums of squares and of products,
    powers up to 64, constants of 31 bits and past them."""
    x, y, z = (Circuit.var(nm) for nm in "xyz")
    sq = x * x
    total = sq
    for w in (y * y, z * z, x * y, sq * sq, -(y * z)) * 10:
        total = total + w
    yield total
    yield total * total + sq * total
    yield (sq + sq + sq) * (y * y + sq)
    yield Circuit.const(2**31 - 1) * sq * Circuit.const(-2**31) + Circuit.const(2**80) * y
    yield Circuit.norm([total, sq * z, -total, x])
    for k in (1, 2, 3, 31, 32, 63, 64):
        yield x ** k + (x * y) ** k + (sq + sq) ** k
    yield from fm.build_J().atoms()


def test_planned_vec_fold_at_every_variable_q_minus_one():
    q = 2**31 - 1
    names = ("x", "y", "z", *sorted({v for c in fm.build_J().atoms() for v in c.free_vars()}))
    for batch in (1, 5, 64):
        env = {nm: np.full(batch, q - 1, dtype=np.int64) for nm in names}
        for circ in _widest_circuits():
            want = circ.evaluate_mod({nm: q - 1 for nm in names}, q)
            assert circ.evaluate_vec(env, q).tolist() == [want] * batch


def test_planned_vec_fold_same_under_python_O():
    # no answer may depend on an assert: python -O strips them
    import os
    import pathlib
    import subprocess
    import sys
    code = ("import numpy as np; from campana.circuits import Circuit;"
            "x, y = Circuit.var('x'), Circuit.var('y'); q = 2**31 - 1;"
            "s = x * x + y * y + x * y + x * x + y * y;"
            "fs = [s * s + s, x ** 64 - y ** 3, Circuit.norm([s, x, -s]) * Circuit.const(2**80),"
            "      Circuit.const(-7)];"
            "env = {'x': np.array([q - 1, 2**63 - 1, -2**63, 3]),"
            "       'y': np.array([2**64 - 1, 2**63, q - 1, 0], dtype=np.uint64)};"
            "print([f.evaluate_vec(env, q).tolist() for f in fs[:3]], int(fs[3].evaluate_vec({}, q)))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(kernels.__file__).parents[1]))
    out = [subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout for flags in ([], ["-O"])]
    assert out[0] == out[1]
    x, y, q = Circuit.var("x"), Circuit.var("y"), 2**31 - 1
    s = x * x + y * y + x * y + x * x + y * y
    points = [(q - 1, 2**64 - 1), (2**63 - 1, 2**63), (-2**63, q - 1), (3, 0)]
    want = [[f.evaluate_mod({"x": a, "y": b}, q) for a, b in points]
            for f in (s * s + s, x ** 64 - y ** 3,
                      Circuit.norm([s, x, -s]) * Circuit.const(2**80))]
    assert out[0] == f"{want} {q - 7}\n"


def test_the_plan_is_made_once_per_circuit_and_freed_with_it(monkeypatch):
    made = []

    def counted(nodes):
        made.append(nodes)
        return plan_of(nodes)

    plan_of = circuits._vec_plan
    monkeypatch.setattr(circuits, "_vec_plan", counted)
    x = Circuit.var("x_of_a_planned_circuit")
    f = x * x + 3
    for batch in (1, 4, 16384):
        for q in (2, 7, 2**31 - 1):
            f.evaluate_vec({x.free_vars()[0]: np.arange(batch)}, q)
    assert made == [f.nodes]
    plan = f._plan
    assert plan == plan_of(f.nodes)
    # its child has a plan of its own, made when it is evaluated
    (x * x).evaluate_vec({x.free_vars()[0]: 3}, 7)
    assert len(made) == 2
    # nothing but the circuit holds its plan
    held = sys.getrefcount(plan)
    ref = weakref.ref(f)
    del f
    assert ref() is None and sys.getrefcount(plan) == held - 1


@pytest.mark.parametrize("build", [fm.build_premise, lambda: fm.build_campana(7, True)],
                         ids=["premise", "campana(7, real)"])
def test_a_documents_raw_node_list_folds_to_its_circuits_degrees(build):
    # json's lists fold as node tuples do
    nodes = json.loads(fm.emit(build()))["nodes"]
    assert fold_nodes(nodes, DEGREE_RULES, {}) == [c.degree() for c in read_nodes(nodes)]


@settings(max_examples=200, deadline=None)
@given(_folds_agree_case(), st.data())
def test_substitution_agrees_with_evaluation(case, data):
    # c with x replaced by g takes the value c takes where x is g's value
    q, points, pool = case
    g, vg = data.draw(st.sampled_from(pool))
    for c, ref in pool:
        s = c.substitute("x", g)
        if "x" not in c.free_vars():
            assert s is c
        for pt in points:
            assert s.evaluate_mod(pt, q) == c.evaluate_mod({**pt, "x": g.evaluate_mod(pt, q)}, q)
        # exactly where the values stay small: degree bounds their growth
        if c.degree() <= 64 and max(abs(vg.numerator), vg.denominator).bit_length() <= 256:
            assert s.evaluate(points[0]) == c.evaluate({**points[0], "x": g.evaluate(points[0])})


@pytest.mark.parametrize("name", [None, 3, 2.5, b"x", ("x",)],
                         ids=["None", "int", "float", "bytes", "tuple"])
def test_var_refuses_a_name_that_is_not_a_string(name):
    with pytest.raises(ValueError, match="var name must be a string"):
        Circuit.var(name)
    # substitute returned x unchanged, as if the name did not occur
    with pytest.raises(ValueError, match="var name must be a string"):
        Circuit.var("x").substitute(name, 1)
