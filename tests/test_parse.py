"""formulas.parse: validation of malformed documents, and emit/parse
properties on random circuits."""
import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from campana import formulas as fm
from campana.circuits import Circuit


def _doc(nodes, matrix=None, **top):
    """A one-atom document over the free variable x."""
    doc = {"free": ["x"], "prefix": [], "nodes": nodes,
           "matrix": {"eq": len(nodes) - 1} if matrix is None else matrix}
    doc.update(top)
    return json.dumps(doc)


# a well-formed node 0 for the malformed-node cases
XA = ["var", "x"]


def _rejects(text):
    with pytest.raises(ValueError):
        fm.parse(text)


def test_valid_document_parses():
    f = fm.parse(_doc([XA, ["pow", 0, 2], ["int", "-3/4"], ["add", 1, 2]]))
    assert f.atoms()[0] == Circuit.var("x")**2 + Fraction(-3, 4)


@pytest.mark.parametrize("k", [0, -1, True, 1.5, "2", None])
def test_pow_exponent_must_be_a_positive_int(k):
    _rejects(_doc([XA, ["pow", 0, k]]))


def test_child_index_out_of_range():
    _rejects(_doc([XA, ["neg", 7]]))


def test_negative_child_index():
    _rejects(_doc([XA, ["add", 0, -1]]))


def test_forward_reference():
    _rejects(_doc([["neg", 1], XA]))
    _rejects(_doc([XA, ["mul", 0, 1]]))  # its own index
    _rejects(_doc([XA, ["norm", [1]]]))


def test_child_index_must_be_an_int():
    _rejects(_doc([XA, ["neg", 0.0]]))
    _rejects(_doc([XA, ["neg", False]]))
    _rejects(_doc([XA, ["norm", [0, "0"]]]))
    _rejects(_doc([XA, ["norm", [True]]]))


def test_missing_prefix():
    _rejects(json.dumps({"free": ["x"], "nodes": [XA], "matrix": {"eq": 0}}))


@pytest.mark.parametrize("key", ["free", "nodes", "matrix"])
def test_missing_top_level_key(key):
    doc = json.loads(_doc([XA]))
    del doc[key]
    _rejects(json.dumps(doc))


@pytest.mark.parametrize("top", [{"extra": 1}, {"degree_override": "5"},
                                 {"degree_override": -1},
                                 {"real_embedded": 1}, {"free": "x"},
                                 {"free": [1]}, {"prefix": [["exists"]]},
                                 {"prefix": [["exists", 3]]}, {"prefix": {}},
                                 {"free": ["x", "x"]}, {"prefix": [["exists", "x"]]},
                                 {"prefix": [["some", "y"]]}])
def test_bad_top_level_values(top):
    _rejects(_doc([XA], **top))


def test_document_must_be_an_object():
    _rejects("[]")
    _rejects("not json")
    _rejects(b"\xff")
    _rejects(None)
    _rejects(3)


def test_unknown_op():
    _rejects(_doc([XA, ["sub", 0, 0]]))
    _rejects(_doc([["x"]]))
    _rejects(_doc([[0, "x"]]))
    _rejects(_doc([XA, [["add"], 0, 0]]))
    _rejects(_doc([{"name": "x"}]))
    _rejects(_doc([["var"]]))
    _rejects(_doc([["var", "x", 1]]))
    # a node is an array; an object such as {"op": "add", "args": [i, j]} is not
    for nodes, at in [([{"op": "var", "name": "x"}], 0),
                      ([{"op": "int", "value": "-3/4"}], 0),
                      ([{"op": "var", "name": "x"}, {"op": "neg", "arg": 0}], 0),
                      ([XA, {"op": "add", "args": [0, 0]}], 1),
                      ([XA, {"op": "pow", "arg": 0, "k": 2}], 1),
                      ([XA, {"op": "norm", "args": [0]}], 1)]:
        with pytest.raises(ValueError, match=f"^node {at}: .* is not a known op"):
            fm.parse(_doc(nodes))


@pytest.mark.parametrize("node", [["add", 0], ["mul", 0, 0, 0], ["add", [0, 0]],
                                  ["norm", []], ["norm", 0], ["norm"], ["neg", [0]],
                                  ["neg", 0, 2], ["pow", 0], [], "var", 0, None])
def test_wrong_arity_or_fields(node):
    with pytest.raises(ValueError, match="^node 1: "):
        fm.parse(_doc([XA, node]))


@pytest.mark.parametrize("name", [1, None, ["x"]])
def test_var_name_must_be_a_string(name):
    _rejects(_doc([["var", name]]))


@pytest.mark.parametrize("value", [1.5, "1.5", "abc", "1/0", "3", True, None,
                                   "1/-2", [1]])
def test_int_value_must_be_an_int_or_a_fraction(value):
    _rejects(_doc([["int", value]], free=[]))


@pytest.mark.parametrize("matrix", [{"eq": 0, "neq": 0}, {}, [0], {"eq": "0"},
                                    {"eq": 1}, {"eq": True}, {"and": []},
                                    {"or": {"eq": 0}}, {"xor": [{"eq": 0}]},
                                    {"and": [{"eq": 0}, 0]}])
def test_bad_matrix_shape(matrix):
    _rejects(_doc([XA], matrix=matrix))


@pytest.mark.parametrize("depth", [900, 5000])
def test_deep_nesting_is_a_value_error(depth):
    matrix = '{"and": [' * depth + '{"eq": 0}' + ']}' * depth
    _rejects(_doc([XA]).replace('{"eq": 0}', matrix))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

FREE, BOUND = ("a", "b"), ("x1", "x2")

constants = st.one_of(st.integers(-10**30, 10**30),
                      st.fractions(max_denominator=10**6))


@st.composite
def circuits(draw):
    pool = [Circuit.var(n) for n in FREE + BOUND]
    for _ in range(draw(st.integers(0, 10))):
        pick = st.sampled_from(pool)
        op = draw(st.sampled_from(["add", "sub", "mul", "neg", "pow",
                                   "norm", "const"]))
        if op == "const":
            c = Circuit.const(draw(constants))
        elif op == "add":
            c = draw(pick) + draw(pick)
        elif op == "sub":
            c = draw(pick) - draw(pick)
        elif op == "mul":
            c = draw(pick) * draw(pick)
        elif op == "neg":
            c = -draw(pick)
        elif op == "pow":
            c = draw(pick) ** draw(st.integers(1, 5))
        else:
            c = Circuit.norm(draw(st.lists(pick, min_size=1, max_size=4)))
        pool.append(c)
    return pool[-1]


@st.composite
def matrices(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return (draw(st.sampled_from(["eq", "neq"])), draw(circuits()))
    return (draw(st.sampled_from(["and", "or"])),
            tuple(draw(st.lists(matrices(depth=depth - 1), min_size=1, max_size=3))))


@st.composite
def formulas(draw):
    prefix = [(draw(st.sampled_from([fm.FORALL, fm.EXISTS])), n) for n in BOUND]
    return fm.Formula(prefix, draw(matrices()), FREE, real_embedded=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_emit_then_parse_is_the_identity(f):
    blob = fm.emit(f, "json")
    g = fm.parse(blob)
    assert g == f
    assert fm.emit(g, "json") == blob
    assert fm.stats(g) == fm.stats(f)
    for fmt in ("sexpr", "latex"):
        assert fm.emit(g, fmt) == fm.emit(f, fmt)


# loose arguments for the Formula constructor: mostly well formed, each part
# sometimes replaced by something emit could not write or parse would refuse
loose_names = st.sampled_from(FREE + BOUND) | st.none() | st.integers(0, 3) | st.text(max_size=2)
loose_pairs = (st.tuples(st.sampled_from([fm.FORALL, fm.EXISTS, "some"]), loose_names)
               | st.lists(st.sampled_from([fm.FORALL, "x1", "x2"]), max_size=3)
               | st.text(max_size=2) | st.dictionaries(st.sampled_from([fm.EXISTS, "x1"]),
                                                      st.none(), max_size=2))


@st.composite
def loose_matrices(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        atom = draw(circuits() | st.integers(0, 3) | st.text(max_size=2) | st.none())
        node = (draw(st.sampled_from(["eq", "neq", "eq", "neq", "xor"])), atom)
    else:
        kids = draw(st.lists(loose_matrices(depth=depth - 1), max_size=3))
        node = (draw(st.sampled_from(["and", "or"])),
                draw(st.sampled_from([tuple, tuple, list]))(kids))
    return draw(st.sampled_from([node, node, node, list(node), node + (None,)]))


@st.composite
def constructor_args(draw):
    valid_prefix = [(draw(st.sampled_from([fm.FORALL, fm.EXISTS])), n) for n in BOUND]
    prefix = draw(st.sampled_from([valid_prefix, tuple(valid_prefix),
                                   [list(p) for p in valid_prefix]])
                  | st.lists(loose_pairs, max_size=3) | st.text(max_size=3) | st.none())
    free = draw(st.sampled_from([list(FREE), FREE]) | st.lists(loose_names, max_size=3)
                | st.text(max_size=3) | st.frozensets(st.sampled_from(FREE)))
    return prefix, draw(loose_matrices()), free, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(constructor_args())
def test_every_formula_the_constructor_accepts_round_trips(args):
    prefix, matrix, free, real = args
    try:
        f = fm.Formula(prefix, matrix, free, real_embedded=real)
    except ValueError:
        return
    blob = fm.emit(f, "json")
    g = fm.parse(blob)
    assert g == f and fm.emit(g, "json") == blob
    for fmt in ("sexpr", "latex"):
        assert fm.emit(g, fmt) == fm.emit(f, fmt)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(["1/2", "-7/3", "var", "norm"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _mutate(data, doc):
    """Replace, delete or add one entry somewhere inside doc, in place."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            node[key] = data.draw(json_values)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[data.draw(st.text(max_size=4))] = data.draw(json_values)
        else:
            node.insert(key, data.draw(json_values))
        return
    if isinstance(node, dict):
        node[data.draw(st.text(max_size=4))] = data.draw(json_values)
    else:
        node.append(data.draw(json_values))


@settings(max_examples=300, deadline=None)
@given(formulas(), st.data())
def test_mutated_document_parses_or_raises_value_error(f, data):
    doc = json.loads(fm.emit(f, "json"))
    mutated = copy.deepcopy(doc)
    _mutate(data, mutated)
    try:
        g = fm.parse(json.dumps(mutated))
    except ValueError:
        return
    # whatever parses is a well-formed formula
    assert fm.parse(fm.emit(g, "json")) == g
    fm.stats(g)
    fm.emit(g, "sexpr"), fm.emit(g, "latex")


# ---------------------------------------------------------------------------
# the reader's refusal table: every single mutation of every node of a few
# canonical node lists is a ValueError naming that node, through parse and
# through Circuit(nodes) alike
# ---------------------------------------------------------------------------

def _bad_children(i):
    """Child indices that are not an int below the node's own index i."""
    return (-1, i, i + 1, True, 1.0, "0", None)


def _mutations(i, nd):
    """Each single mutation of node i, an array node given as a list or as a
    node tuple; the result has the same kind of array, and a norm node's
    children keep their kind too."""
    like, op = type(nd), nd[0]
    nd = list(nd)
    if op == "norm":
        kids = list(nd[1])
        for at in range(len(kids)):
            for bad in _bad_children(i):
                yield like([op, type(nd[1])(kids[:at] + [bad] + kids[at + 1:])])
    elif op != "var" and op != "int":
        for bad in _bad_children(i):
            yield like([op, bad] + nd[2:])
    if op in ("add", "mul"):
        for bad in _bad_children(i):
            yield like(nd[:2] + [bad])
    if op == "pow":
        for bad in (0, True, 2.0):
            yield like(nd[:2] + [bad])
    if op == "var":
        yield like([op, 1])
    yield like(["sub"] + nd[1:])
    for at in range(len(nd)):
        yield like(nd[:at] + nd[at + 1:])
    yield like(nd + [0])


def _fraction_and_norm_formula():
    x, y = Circuit.var("x"), Circuit.var("y")
    atom = Circuit.norm([x * Fraction(1, 3), y + 2, x]) - Fraction(-3, 4) * y
    return fm.Formula([], ("eq", atom), ["x", "y"])


REFUSAL_TABLE_FORMULAS = {"S": fm.build_S, "J": fm.build_J,
                          "fraction and norm": _fraction_and_norm_formula}


@pytest.mark.parametrize("name", sorted(REFUSAL_TABLE_FORMULAS))
def test_parse_refuses_every_single_node_mutation_at_that_node(name):
    f = REFUSAL_TABLE_FORMULAS[name]()
    text = fm.emit(f, "json").decode()
    nodes = json.loads(text)["nodes"]
    assert all(a is b for a, b in zip(fm.parse(text).atoms(), f.atoms(), strict=True))
    # the document text around its node list, so that each mutation is one join
    texts = [json.dumps(nd, separators=(",", ":")) for nd in nodes]
    head, tail = text.split(f"[{','.join(texts)}]")
    for i, nd in enumerate(nodes):
        for bad in _mutations(i, nd):
            mutated = ",".join(texts[:i] + [json.dumps(bad)] + texts[i + 1:])
            with pytest.raises(ValueError, match=rf"^node {i}: "):
                fm.parse(f"{head}[{mutated}]{tail}")


@pytest.mark.parametrize("name", sorted(REFUSAL_TABLE_FORMULAS))
def test_circuit_refuses_every_single_node_mutation_at_that_node(name):
    for atom in REFUSAL_TABLE_FORMULAS[name]().atoms():
        nodes = atom.nodes
        assert Circuit(nodes) is atom and Circuit(list(nodes)) is atom
        for i, nd in enumerate(nodes):
            for bad in _mutations(i, nd):
                with pytest.raises(ValueError, match=rf"^node {i}: "):
                    Circuit(nodes[:i] + (bad,) + nodes[i + 1:])
