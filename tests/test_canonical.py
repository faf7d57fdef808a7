"""The canonical form of circuits and of emitted documents.

Every circuit stores each distinct subterm once, in the left-to-right
first-visit postorder from its root; emit writes one node list for all the
atoms of a formula in the same order.  The expected forms below come from
the tests' own recursive expansion of expression trees, written as nested
tuples, not from the package.
"""
import json

from hypothesis import given, settings, strategies as st

from campana import formulas as fm
from campana.circuits import Circuit

leaves = st.one_of(st.sampled_from(["a", "b", "x1", "x2"]).map(lambda n: ("var", n)),
                   st.integers(-2, 2).map(lambda v: ("int", v)))


def _extend(kids):
    return st.one_of(
        st.tuples(st.just("add"), kids, kids),
        st.tuples(st.just("mul"), kids, kids),
        st.tuples(st.just("neg"), kids),
        st.tuples(st.just("pow"), kids, st.integers(1, 3)),
        st.lists(kids, min_size=1, max_size=3).map(lambda ks: ("norm", tuple(ks))),
    )


# few names and constants, so that equal subtrees are common
trees = st.recursive(leaves, _extend, max_leaves=14)


def _children(tree):
    op = tree[0]
    if op in ("var", "int"):
        return ()
    if op == "norm":
        return tree[1]
    return tree[1:2] if op in ("neg", "pow") else tree[1:]


def build(tree, memo=None, right_first=False):
    """The circuit of a tree.  With memo, equal subtrees share one Python
    object during the build; right_first builds a node's last child first."""
    if memo is not None and tree in memo:
        return memo[tree]
    op = tree[0]
    kids = _children(tree)
    made = {}
    for kid in (reversed(kids) if right_first else kids):
        made[kid] = build(kid, memo, right_first)
    args = [made[kid] for kid in kids]
    if op == "var":
        circ = Circuit.var(tree[1])
    elif op == "int":
        circ = Circuit.const(tree[1])
    elif op == "add":
        circ = args[0] + args[1]
    elif op == "mul":
        circ = args[0] * args[1]
    elif op == "neg":
        circ = -args[0]
    elif op == "pow":
        circ = args[0] ** tree[2]
    else:
        circ = Circuit.norm(args)
    if memo is not None:
        memo[tree] = circ
    return circ


def expected_nodes(roots):
    """The canonical node list of the roots: each distinct subtree once,
    children first, left to right, the roots in turn."""
    index, out = {}, []

    def visit(tree):
        if tree not in index:
            at = [visit(kid) for kid in _children(tree)]
            op = tree[0]
            if op in ("var", "int"):
                node = tree
            elif op == "norm":
                node = ("norm", tuple(at))
            elif op == "pow":
                node = ("pow", at[0], tree[2])
            else:
                node = (op, *at)
            index[tree] = len(out)
            out.append(node)
        return index[tree]

    for root in roots:
        visit(root)
    return tuple(out)


def subterms(tree, into):
    into.add(tree)
    for kid in _children(tree):
        subterms(kid, into)
    return into


@settings(max_examples=200, deadline=None)
@given(trees)
def test_sharing_of_python_objects_does_not_change_the_nodes(tree):
    plain = build(tree)
    for shared in (build(tree, memo={}), build(tree, right_first=True),
                   build(tree, memo={}, right_first=True)):
        assert shared.nodes == plain.nodes
        assert shared == plain
    assert plain.nodes == expected_nodes([tree])
    assert Circuit(plain.nodes) is plain


@settings(max_examples=200, deadline=None)
@given(trees)
def test_each_distinct_subterm_is_stored_once(tree):
    assert len(build(tree).nodes) == len(subterms(tree, set()))


def _formula(atom_trees):
    atoms = [build(t) for t in atom_trees]
    matrix = ("and", tuple(("eq", c) for c in atoms))
    return fm.Formula([], matrix, ["a", "b", "x1", "x2"])


@settings(max_examples=150, deadline=None)
@given(st.lists(trees, min_size=1, max_size=4))
def test_the_json_node_list_holds_each_distinct_subterm_once(atom_trees):
    doc = json.loads(fm.emit(_formula(atom_trees), "json"))
    distinct = set()
    for tree in atom_trees:
        subterms(tree, distinct)
    assert len(doc["nodes"]) == len(distinct)
    assert tuple(map(_from_json, doc["nodes"])) == expected_nodes(atom_trees)


def _from_json(nd):
    """The node tuple of an array node: the same fields, norm's children a
    tuple."""
    return ("norm", tuple(nd[1])) if nd[0] == "norm" else tuple(nd)


def _written_out(tree, out):
    """Append the JSON nodes of a tree to `out`, a repeated subtree written
    again at each use, children first; returns the index of its root."""
    at = [_written_out(kid, out) for kid in _children(tree)]
    op = tree[0]
    if op in ("var", "int"):
        node = list(tree)
    elif op == "norm":
        node = ["norm", at]
    elif op == "pow":
        node = ["pow", at[0], tree[2]]
    else:
        node = [op, *at]
    out.append(node)
    return len(out) - 1


@settings(max_examples=150, deadline=None)
@given(st.lists(trees, min_size=1, max_size=4))
def test_a_document_with_one_node_list_per_atom_parses_to_the_same_formula(atom_trees):
    # documents from before the shared node list: each atom's own nodes, one
    # list after the other, repeats included
    f = _formula(atom_trees)
    nodes = []
    roots = [_written_out(tree, nodes) for tree in atom_trees]
    doc = {"free": list(f.free), "prefix": [], "nodes": nodes,
           "matrix": {"and": [{"eq": r} for r in roots]}}
    g = fm.parse(json.dumps(doc))
    assert g == f
    assert fm.emit(g, "json") == fm.emit(f, "json")
