"""formulas.parse: validation of malformed documents, and emit/parse
properties on random circuits."""
import copy
import gc
import json
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import campana
from campana import formulas as fm
from campana.circuits import Circuit, _refuse, read_nodes
from campana.errors import InvariantError


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
    _rejects(_doc([XA, ["add", -1, 0]]))  # made[-1] would be node 0
    _rejects(_doc([XA, ["neg", -1]]))


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


# json keeps the last value of a repeated key, so each of these read as a
# document with the first value dropped
_REPEATED_KEYS = {
    "atom": (b'{"free":["x"],"prefix":[],"nodes":[["var","x"],["int",1]],'
             b'"matrix":{"eq":0,"eq":1}}', "eq"),
    "nodes": (b'{"free":["x"],"prefix":[],"nodes":[["var","x"]],'
              b'"nodes":[["var","x"],["int",1]],"matrix":{"eq":1}}', "nodes"),
    "top level": (b'{"free":["x"],"prefix":[],"nodes":[["var","x"]],"matrix":{"eq":0},'
                  b'"real_embedded":true,"real_embedded":false}', "real_embedded"),
    "in an and": (b'{"free":["x"],"prefix":[],"nodes":[["var","x"],["int",1]],'
                  b'"matrix":{"and":[{"eq":0},{"neq":0,"neq":1}]}}', "neq"),
}


@pytest.mark.parametrize("name", sorted(_REPEATED_KEYS))
def test_a_repeated_key_is_a_value_error(name):
    data, key = _REPEATED_KEYS[name]
    json.loads(data)  # which reads it, keeping the last value
    with pytest.raises(ValueError, match=f"repeats the key '{key}'"):
        fm.parse(data)


@pytest.mark.parametrize("name", sorted(fm.TARGETS))
def test_the_reader_reads_every_emitted_target(name):
    target = fm.TARGETS[name]
    for real in (False, True) if target.has_real else (False,):
        f = target.build(7, real)
        assert fm._read(fm.emit(f)) == f


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


# ---------------------------------------------------------------------------
# the reader against a plain reference reader: the same accepted node lists,
# the same circuits and the same refusal message, field by field
# ---------------------------------------------------------------------------

def _bad(i, what, x):
    return ValueError(f"node {i}: {what}, not {x!r}")


def _kid(i, j, made):
    if type(j) is not int or not 0 <= j < i:
        raise _bad(i, f"expected child indices below {i}", j)
    return made[j]


def _reference_read(raw):
    """The reader's contract, written plainly: node i is an array of a known
    op and its fields, checked one field at a time in the order below, so
    that of two bad fields the first is named, and made with Circuit's own
    constructors."""
    made = []
    for i, nd in enumerate(raw):
        n = len(nd) if type(nd) in (list, tuple) and nd and type(op := nd[0]) is str else 0
        if n == 3 and op in ("add", "mul"):
            a, b = _kid(i, nd[1], made), _kid(i, nd[2], made)
            c = a + b if op == "add" else a * b
        elif n == 3 and op == "pow":
            a = _kid(i, nd[1], made)
            if type(k := nd[2]) is not int or k < 1:
                raise _bad(i, "pow k must be an int >= 1", k)
            c = a ** k
        elif n == 2 and op == "var":
            if type(name := nd[1]) is not str:
                raise _bad(i, "a var name must be a string", name)
            c = Circuit.var(name)
        elif n == 2 and op == "neg":
            c = -_kid(i, nd[1], made)
        elif n == 2 and op == "int":
            x = nd[1]
            if type(x) is int or type(x) is Fraction and x.denominator != 1:
                c = Circuit.const(x)
            elif type(x) is str and re.fullmatch(r"-?[0-9]+/0*[1-9][0-9]*", x):
                c = Circuit.const(Fraction(x))
            else:
                raise _bad(i, "an int value must be an int or a 'p/q' string", x)
        elif n == 2 and op == "norm":
            if type(js := nd[1]) not in (list, tuple) or not js:
                raise _bad(i, "norm takes a nonempty list of child indices", js)
            c = Circuit.norm([_kid(i, j, made) for j in js])
        else:
            raise ValueError(f"node {i}: {nd!r} is not a known op and its fields")
        made.append(c)
    return made


def _outcome(read, raw):
    """The circuits read, or the refusal's message."""
    try:
        return read(raw)
    except ValueError as e:
        return str(e)


class _NotStr(str):
    """A str subclass: an op that equals its name but is not a str."""


_OPS = ["add", "mul", "pow", "neg", "var", "int", "norm", "sub", _NotStr("add"), 1, None, ["add"]]


def _field_values(i, op, at):
    """Values field `at` of node i, of op `op`, is mutated to: for its kind
    of field, bad ones and good ones, then a few of every kind."""
    if at == 0:
        kind = _OPS
    elif op == "pow" and at == 2:
        kind = [0, -1, True, False, 2.0, 1, 3]
    elif op == "var":
        kind = [1, None, ["x"], "y", "x1"]
    elif op == "int":
        kind = [1.5, "1.5", "1/0", "3", "1/-2", True, None, [1], 7, "1/2", Fraction(2, 3)]
    else:
        kind = [-1, i, i + 1, True, 1.0, "0", None, 10**30, 0, max(i - 1, 0)]
    return kind + [[], [0], "x", 2]


def _mutate_field(data, nodes):
    """Mutate one field of one node in place (a norm node's child, or its
    whole list), or give the node a wrong arity; the node is drawn by op
    first, so that the rare ops, int and norm, come up as often as add."""
    at_op = {}
    for i, nd in enumerate(nodes):
        if nd and type(nd[0]) is str:
            at_op.setdefault(nd[0], []).append(i)
    i = data.draw(st.sampled_from(at_op[data.draw(st.sampled_from(sorted(at_op)))]))
    nd = nodes[i] = list(nodes[i])
    at = data.draw(st.integers(0, len(nd)))
    if at == len(nd):
        nd.append(0) if data.draw(st.booleans()) else nd.pop()
    elif nd[0] == "norm" and at == 1 and type(nd[1]) is list and nd[1] and data.draw(st.booleans()):
        kids = nd[1] = list(nd[1])
        kids[data.draw(st.integers(0, len(kids) - 1))] = data.draw(
            st.sampled_from(_field_values(i, "neg", 1)))
    else:
        nd[at] = data.draw(st.sampled_from(_field_values(i, nd[0], at)))


def _target_nodes():
    docs = {name: fm.emit(fm.TARGETS[name].build(2, False)) for name in ("S", "T", "I", "J")}
    docs["integrality"] = fm.emit(fm.build_integrality())  # its norm nodes
    docs["fraction and norm"] = fm.emit(_fraction_and_norm_formula())
    return {name: json.loads(doc)["nodes"] for name, doc in docs.items()}


_TARGET_NODES = _target_nodes()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_TARGET_NODES)), st.data())
def test_the_reader_is_the_reference_reader_on_mutated_targets(name, data):
    nodes = list(_TARGET_NODES[name])
    for _ in range(data.draw(st.integers(0, 2))):
        _mutate_field(data, nodes)
    tuples = [tuple(nd) if type(nd) is list else nd for nd in nodes]
    for raw in (nodes, tuples):
        want, got = _outcome(_reference_read, raw), _outcome(read_nodes, raw)
        if type(want) is str:
            assert got == want
            with pytest.raises(ValueError) as refused:
                Circuit(raw)
            assert str(refused.value) == want
        else:
            assert type(got) is list and len(got) == len(want)
            assert all(a is b for a, b in zip(got, want))
    # parse reads the nodes as JSON writes them: an op that is a str subclass becomes a str
    doc = {"free": [], "prefix": [], "nodes": nodes, "matrix": {"eq": len(nodes) - 1}}
    text = json.dumps(doc, default=str)
    want = _outcome(_reference_read, json.loads(text)["nodes"])
    if type(want) is str:
        with pytest.raises(ValueError) as refused:
            fm.parse(text)
        assert str(refused.value) == want


# node 1 after node 0, x, with both of its fields bad: the first is named
DOUBLE_FAULTS = [
    (["add", -1, 5], "node 1: expected child indices below 1, not -1"),
    (["add", 1, -1], "node 1: expected child indices below 1, not 1"),
    (["mul", 0, True], "node 1: expected child indices below 1, not True"),
    (["mul", 1.0, None], "node 1: expected child indices below 1, not 1.0"),
    (["pow", 5, 0], "node 1: expected child indices below 1, not 5"),
    (["pow", True, True], "node 1: expected child indices below 1, not True"),
    (["pow", 0, True], "node 1: pow k must be an int >= 1, not True"),
    (["norm", [0, -1, 7]], "node 1: expected child indices below 1, not -1"),
    (["norm", [1, "0"]], "node 1: expected child indices below 1, not 1"),
    (["add", -1, 0, 0], "node 1: ['add', -1, 0, 0] is not a known op and its fields"),
    ([1, -1, -1], "node 1: [1, -1, -1] is not a known op and its fields"),
]


@pytest.mark.parametrize("node, message", DOUBLE_FAULTS)
def test_of_two_bad_fields_the_reader_names_the_first(node, message):
    assert _outcome(_reference_read, [XA, node]) == message
    with pytest.raises(ValueError) as refused:
        fm.parse(_doc([XA, node]))
    assert str(refused.value) == message
    node = tuple(tuple(x) if type(x) is list else x for x in node)
    with pytest.raises(ValueError) as refused:
        Circuit((("var", "x"), node))
    assert str(refused.value) == message.replace(repr(list(node)), repr(node))


def test_an_op_equal_to_a_name_but_not_a_str_is_refused():
    for nodes in ([XA, [_NotStr("add"), 0, 0]], (("var", "x"), (_NotStr("neg"), 0))):
        message = f"node 1: {nodes[1]!r} is not a known op and its fields"
        for read in (read_nodes, Circuit):
            with pytest.raises(ValueError) as refused:
                read(nodes)
            assert str(refused.value) == message


def test_refuse_raises_invariant_error_on_a_well_formed_node():
    with pytest.raises(InvariantError, match="^node 1: "):
        _refuse([XA, ["neg", 0]], 1)


# ---------------------------------------------------------------------------
# the cyclic collector is paused while parse runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build, cold", [(lambda: fm.build_campana(7), False),
                                         (fm.build_premise, False),
                                         (lambda: fm.build_campana(7), True)],
                         ids=["campana(7)", "premise", "campana(7) read"])
def test_parse_runs_no_collection(build, cold):
    f = build()  # kept alive, so each node of the document is a table hit
    doc = fm.emit(f, "json")
    if cold:  # no template: campana(7) goes through the reader
        campana.clear_memos()
    assert (fm._template_member(doc) is None) is (cold or not f._family)
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        fm.parse(doc)
    finally:
        gc.callbacks.remove(count)
    assert started == []


BAD_DOCUMENTS = {
    "bad node": _doc([XA, ["sub", 0, 0]]),
    "bad key": _doc([XA], extra=1),
    "not str data": 123,
    "nested too deeply": _doc([XA]).replace(
        '{"eq": 0}', '{"and": [' * 5000 + '{"eq": 0}' + ']}' * 5000),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["valid"] + sorted(BAD_DOCUMENTS))
def test_parse_leaves_the_collector_as_it_found_it(case, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "valid":
            assert fm.parse(_doc([XA])).atoms() == [Circuit.var("x")]
        else:
            _rejects(BAD_DOCUMENTS[case])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_parse_in_two_threads_leaves_the_collector_as_it_found_it(enabled):
    f = fm.build_campana(7)
    doc = fm.emit(f, "json")
    parsed = []

    def parse_a_few():
        for _ in range(5):
            parsed.append(fm.parse(doc) == f)

    interval = sys.getswitchinterval()
    (gc.enable if enabled else gc.disable)()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse_a_few) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert parsed == [True] * 10
        assert gc.isenabled() is enabled
    finally:
        sys.setswitchinterval(interval)
        gc.enable()


def test_parse_leaves_no_cyclic_garbage():
    """What makes the pause safe: every object parse makes dies by refcount."""
    docs = [fm.emit(t.build(7, real), "json") for t in fm.TARGETS.values()
            for real in ((False, True) if t.has_real else (False,))]
    assert len(docs) == 15
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for doc in docs:
            fm.parse(doc)
        assert gc.collect() == 0 and gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


# ---------------------------------------------------------------------------
# an n-family document is read through its family's json template while
# that is rendered, and through the reader otherwise
# ---------------------------------------------------------------------------

_FAMILIES = [("Jn", False), ("invJn", False), ("campana", False), ("campana", True)]


def _same_outcome(doc, tag=None):
    """parse(doc) and the reader's result: the same formula, atom for atom,
    parse's tagged with tag, or the same ValueError text."""
    def outcome(read):
        try:
            return read(doc)
        except ValueError as exc:
            return str(exc)

    got, want = outcome(fm.parse), outcome(fm._read)
    if isinstance(want, str):
        assert got == want
    else:
        assert got == want and got._family == tag and want._family is None
        assert all(a is b for a, b in zip(got.atoms(), want.atoms(), strict=True))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10**9), st.sampled_from(_FAMILIES))
def test_a_family_document_parses_through_its_template_to_the_readers_formula(n, family):
    name, real = family
    doc = fm.emit(fm.TARGETS[name].build(n, real), "json")
    assert fm._template_member(doc) is not None
    g, h = fm.parse(doc), fm._read(doc)
    assert all(a is b for a, b in zip(g.atoms(), h.atoms(), strict=True))
    assert (g.prefix, g.free, g.real_embedded) == (h.prefix, h.free, h.real_embedded)
    # tagged as the builder tags it, so that its emit is the splice; the
    # reader's formula is untagged
    assert g._family == (name, real, n - 1) and h._family is None


# the text of k in a family document at n = 7, for texts that are not a
# canonical positive decimal of at most 4,300 digits
_NEAR_MISS_HOLES = ["0", "07", "-6", "6.0", "6e0", " 6", "1" * 4301]


@pytest.mark.parametrize("family", _FAMILIES, ids=[f"{n}-{r}" for n, r in _FAMILIES])
def test_a_near_miss_gets_the_readers_outcome(family):
    name, real = family
    doc = fm.emit(fm.TARGETS[name].build(7, real), "json")
    head, tail = fm._templates[family]["json"]
    other = next(f for f in _FAMILIES if f != family)
    fm.emit(fm.TARGETS[other[0]].build(7, other[1]), "json")
    near = [head + hole.encode() + tail for hole in _NEAR_MISS_HOLES]
    near += [doc + b" ", doc + b"\n", doc.decode(), bytearray(doc),
             fm._templates[other]["json"][0] + b"6" + tail]
    for bad in near:
        assert fm._template_member(bad) is None
        _same_outcome(bad)
    # the longest k the template reads
    edge = head + b"9" * 4300 + tail
    assert fm._template_member(edge) is not None
    _same_outcome(edge, (name, real, int("9" * 4300)))


def test_parse_renders_no_template_and_reads_through_the_reader_after_clear_memos(monkeypatch):
    reads = []

    def counted(nodes):
        reads.append(len(nodes))
        return read_nodes(nodes)

    read_nodes = fm.read_nodes
    monkeypatch.setattr(fm, "read_nodes", counted)
    f = fm.build_campana(7)
    doc = fm.emit(f, "json")
    info = campana.memos()["formulas._n_template"]
    assert fm.parse(doc) == f and reads == []
    campana.clear_memos()
    for _ in range(2):
        g = fm.parse(doc)
        assert g == f and g._family is None and len(reads) == 1
        reads.clear()
        assert campana.memos()["formulas._n_template"] == (0, 0, 0, 4)
    fm.emit(fm.build_campana(8), "json")  # renders the template again
    assert fm.parse(doc) == f and reads == []
    assert campana.memos()["formulas._n_template"].misses == info.misses == 1


def test_threads_that_parse_while_others_render_and_clear_templates_read_right():
    docs = {family: fm.emit(fm.TARGETS[family[0]].build(7, family[1]), "json")
            for family in _FAMILIES}
    want = {family: fm._read(doc) for family, doc in docs.items()}
    wrong, stop = [], threading.Event()

    def parse_all():
        for _ in range(10):
            for family, doc in docs.items():
                if fm.parse(doc) != want[family]:
                    wrong.append(family)

    def render_and_clear():
        while not stop.is_set():
            for n, (name, real) in enumerate(_FAMILIES, start=2):
                fm.emit(fm.TARGETS[name].build(n, real), "json")
            campana.clear_memos()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        churn = threading.Thread(target=render_and_clear)
        readers = [threading.Thread(target=parse_all) for _ in range(3)]
        churn.start()
        for t in readers:
            t.start()
        for t in readers:
            t.join(timeout=120)
        stop.set()
        churn.join(timeout=60)
        assert not any(t.is_alive() for t in readers + [churn])
        assert wrong == []
    finally:
        stop.set()
        sys.setswitchinterval(interval)
