"""Polynomial circuits: DAGs with symbolic degree accounting.

A circuit is an immutable node array.  Every circuit keeps one invariant:
`nodes` holds exactly the nodes reachable from the root, children come
before their parents, and the root is the last node.  Evaluation, degree
computation and serialization are therefore single passes over `nodes`.
Degrees are computed without expansion (Add takes max, Mul sums), which is
the whole point: the compiled formulas have degrees in the thousands and
their expanded polynomials would be astronomically large.

Besides the usual arithmetic nodes there is an opaque "norm" node: the
norm form of degree len(children) applied to the children (see
kernels.norm_value).  It lets a conjunction of hundreds of equations be
collapsed into one equation without expanding the norm polynomial.

Everything that depends on a node's op lives in one table, OPS.
"""
from __future__ import annotations

import operator
import re
from collections import Counter
from fractions import Fraction
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from . import kernels
from ._kernels_py import _modulus

ConstLike = Union[int, Fraction]


def _coerce_const(v: ConstLike):
    if isinstance(v, int):
        return v
    f = Fraction(v)
    return f.numerator if f.denominator == 1 else f


class Circuit:
    """Immutable arithmetic circuit.  Node forms:
    ("var", name), ("int", value), ("add", i, j), ("mul", i, j),
    ("neg", i), ("pow", i, k), ("norm", (i1, ..., in)).
    `root` is always len(nodes) - 1."""

    __slots__ = ("nodes", "root", "_degree")

    def __init__(self, nodes: Tuple[tuple, ...], root: int):
        if root != len(nodes) - 1:
            raise ValueError("the root must be the last node")
        self.nodes = nodes
        self.root = root
        self._degree = None

    # -- constructors ------------------------------------------------
    @staticmethod
    def var(name: str) -> "Circuit":
        return Circuit((("var", str(name)),), 0)

    @staticmethod
    def const(value: ConstLike) -> "Circuit":
        return Circuit((("int", _coerce_const(value)),), 0)

    @staticmethod
    def _lift(x) -> "Circuit":
        if isinstance(x, Circuit):
            return x
        if isinstance(x, (int, Fraction)):
            return Circuit.const(x)
        raise TypeError(f"cannot use {type(x).__name__} in a circuit")

    def _binary(self, op: str, other) -> "Circuit":
        other = Circuit._lift(other)
        left = len(self.nodes)
        nodes = self.nodes + _shifted(other.nodes, left)
        nodes += ((op, left - 1, len(nodes) - 1),)
        return Circuit(nodes, len(nodes) - 1)

    def __add__(self, other):
        return self._binary("add", other)

    def __radd__(self, other):
        return Circuit._lift(other)._binary("add", self)

    def __mul__(self, other):
        return self._binary("mul", other)

    def __rmul__(self, other):
        return Circuit._lift(other)._binary("mul", self)

    def __neg__(self) -> "Circuit":
        nodes = self.nodes + (("neg", self.root),)
        return Circuit(nodes, len(nodes) - 1)

    def __sub__(self, other):
        return self._binary("add", -Circuit._lift(other))

    def __rsub__(self, other):
        return Circuit._lift(other)._binary("add", -self)

    def __pow__(self, k: int) -> "Circuit":
        if not isinstance(k, int) or k < 1:
            raise ValueError("pow exponent must be a positive integer")
        nodes = self.nodes + (("pow", self.root, k),)
        return Circuit(nodes, len(nodes) - 1)

    @staticmethod
    def norm(children: Sequence["Circuit"]) -> "Circuit":
        """Opaque norm-form application: the anisotropic degree-n norm form
        (n = number of children) evaluated at the children."""
        children = [Circuit._lift(c) for c in children]
        if not children:
            raise ValueError("norm needs at least one argument")
        nodes: List[tuple] = []
        roots = []
        for c in children:
            nodes.extend(_shifted(c.nodes, len(nodes)))
            roots.append(len(nodes) - 1)
        nodes.append(("norm", tuple(roots)))
        return Circuit(tuple(nodes), len(nodes) - 1)

    def substitute(self, name: str, replacement: "Circuit") -> "Circuit":
        """This circuit with every ("var", name) node replaced by one shared
        copy of `replacement`; the circuit itself if name does not occur."""
        target = ("var", name)
        if target not in self.nodes:
            return self
        nodes = list(replacement.nodes)
        where: List[int] = []
        for nd in self.nodes:
            if nd == target:
                where.append(replacement.root)
            else:
                nodes.append(_REMAP[nd[0]](nd, where.__getitem__))
                where.append(len(nodes) - 1)
        return Circuit(tuple(nodes), len(nodes) - 1)

    # -- analysis ----------------------------------------------------
    def _fold(self, rules: Mapping[str, Callable], env=None, q=None):
        """One pass over the nodes: rules[op](node, values so far, env, q)."""
        val: list = []
        for nd in self.nodes:
            val.append(rules[nd[0]](nd, val, env, q))
        return val[-1]

    def degree(self) -> int:
        """Syntactic degree bound: Var 1, const 0, Add max, Mul sum,
        Pow k*deg, norm len(children)*max(child degrees)."""
        if self._degree is None:
            self._degree = self._fold(_DEGREE)
        return self._degree

    def free_vars(self) -> Tuple[str, ...]:
        return tuple(sorted({nd[1] for nd in self.nodes if nd[0] == "var"}))

    def evaluate(self, env: Mapping[str, ConstLike]) -> Fraction:
        """Exact evaluation; norm nodes go through the exact resultant
        evaluator."""
        return self._fold(_EXACT, env)

    def evaluate_mod(self, env: Mapping[str, int], q: int) -> int:
        """Evaluation in Z/q at integer values, 2 <= q < 2^31 (ValueError otherwise);
        rational constants use modular inverses and need denominators prime to q."""
        return self._fold(_MOD, env, _modulus(q))

    def evaluate_vec(self, env: Mapping[str, "object"], q: int):
        """Vectorized mod-q evaluation over numpy int64 arrays, 2 <= q < 2^31
        so that products stay exact; a variable may also be given as Python
        ints of any size; a non-integer value raises ValueError.  The points
        of a norm node go to the kernel as rows of one call."""
        return self._fold(_VEC, env, _modulus(q))

    def __eq__(self, other):
        if isinstance(other, Circuit):
            return self.nodes == other.nodes
        return NotImplemented

    def __hash__(self):
        return hash(self.nodes)

    def __repr__(self):
        return f"Circuit({len(self.nodes)} nodes, degree {self.degree()})"


# ---------------------------------------------------------------------------
# the op table
# ---------------------------------------------------------------------------

class _Op(NamedTuple):
    """Everything that depends on one op; a node is (op, *fields).  The fold
    rules (degree, exact, mod, vec) take (node, values of the earlier nodes,
    env, q); vec is the mod rule applied to int64 arrays unless given."""

    children: Callable  # node -> child indices
    remap: Callable     # (node, f) -> the node with each child j moved to f(j)
    degree: Callable
    exact: Callable     # Fraction
    mod: Callable       # int in [0, q)
    fields: Tuple[str, ...]  # JSON fields besides "op"
    encode: Callable    # (node, index offset) -> JSON node
    decode: Callable    # (own index, JSON node) -> node, or ValueError
    sexpr: Callable     # (node, t) -> str, where t(j) is the text of child j
    latex: Callable
    vec: Optional[Callable] = None


def _lookup(env, name):
    if name not in env:
        raise ValueError(f"unbound variable {name!r}")
    return env[name]


def _int_mod(x, q: int) -> int:
    ok = isinstance(x, (int, np.integer))
    return operator.index(_checked(x, ok, "evaluate_mod takes integer values")) % q


def _const_mod(c: ConstLike, q: int) -> int:
    if isinstance(c, Fraction):
        return c.numerator * pow(c.denominator, -1, q) % q
    return c % q


def _vec_var(values, q: int):
    # Python ints of any size are reduced before the int64 conversion; a
    # float or any other non-integer is refused, never truncated
    if not isinstance(values, np.ndarray):
        values = np.array(values, dtype=object)
    if values.dtype.kind == "O":
        if not all(isinstance(x, (int, np.integer)) for x in values.flat):
            raise ValueError("evaluate_vec takes integer values only")
    elif values.dtype.kind not in "biu":
        raise ValueError(f"evaluate_vec takes integer values, not {values.dtype}")
    return np.asarray(values % q, dtype=np.int64)


def _vec_pow(base, k: int, q: int):
    acc, out = base % q, np.ones_like(base)
    while k:
        if k & 1:
            out = out * acc % q
        acc = acc * acc % q
        k >>= 1
    return out


def _vec_norm(args, q: int):
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    flat = np.stack([np.ravel(np.broadcast_to(a, shape)) for a in args], axis=1)
    return kernels.norm_mod_rows(flat, [q] * len(flat)).reshape(shape)


def _checked(x, ok: bool, what: str):
    if not ok:
        raise ValueError(f"{what}, not {x!r}")
    return x


def _indices(xs, i: int, arity: int = 0) -> Tuple[int, ...]:
    """`arity` (or, for 0, at least one) child indices of node i."""
    if type(xs) is list and (len(xs) == arity if arity else xs):
        for x in xs:
            if type(x) is not int or not 0 <= x < i:
                break
        else:
            return tuple(xs)
    raise ValueError(f"expected {arity or 'some'} child indices below {i}, not {xs!r}")


_RATIONAL = re.compile(r"-?[0-9]+/0*[1-9][0-9]*")  # p/q with q >= 1


def _value(x) -> ConstLike:
    if type(x) is int:
        return x
    _checked(x, type(x) is str and _RATIONAL.fullmatch(x) is not None,
             "an int value must be an int or a 'p/q' string")
    return _coerce_const(Fraction(x))


OPS: Dict[str, _Op] = {
    "var": _Op(
        children=lambda nd: (), remap=lambda nd, f: nd,
        degree=lambda nd, d, env, q: 1,
        exact=lambda nd, v, env, q: Fraction(_lookup(env, nd[1])),
        mod=lambda nd, v, env, q: _int_mod(_lookup(env, nd[1]), q),
        vec=lambda nd, v, env, q: _vec_var(_lookup(env, nd[1]), q),
        fields=("name",), encode=lambda nd, b: {"op": "var", "name": nd[1]},
        decode=lambda i, d: ("var", _checked(d["name"], type(d["name"]) is str,
                                          "a var name must be a string")),
        sexpr=lambda nd, t: f"(var {nd[1]})",
        latex=lambda nd, t: f"{nd[1][0]}_{{{nd[1][1:]}}}" if nd[1][1:].isdigit()
        else nd[1],
    ),
    "int": _Op(
        children=lambda nd: (), remap=lambda nd, f: nd,
        degree=lambda nd, d, env, q: 0,
        exact=lambda nd, v, env, q: Fraction(nd[1]),
        mod=lambda nd, v, env, q: _const_mod(nd[1], q),
        vec=lambda nd, v, env, q: np.int64(_const_mod(nd[1], q)),
        fields=("value",), decode=lambda i, d: ("int", _value(d["value"])),
        encode=lambda nd, b: {"op": "int", "value": nd[1] if isinstance(nd[1], int)
                              else str(nd[1])},
        sexpr=lambda nd, t: f"(int {nd[1]})",
        latex=lambda nd, t: str(nd[1]) if isinstance(nd[1], int) else
        rf"\tfrac{{{nd[1].numerator}}}{{{nd[1].denominator}}}",
    ),
    "add": _Op(
        children=lambda nd: nd[1:], remap=lambda nd, f: ("add", f(nd[1]), f(nd[2])),
        degree=lambda nd, d, env, q: max(d[nd[1]], d[nd[2]]),
        exact=lambda nd, v, env, q: v[nd[1]] + v[nd[2]],
        mod=lambda nd, v, env, q: (v[nd[1]] + v[nd[2]]) % q,
        fields=("args",),
        encode=lambda nd, b: {"op": "add", "args": [nd[1] + b, nd[2] + b]},
        decode=lambda i, d: ("add", *_indices(d["args"], i, 2)),
        sexpr=lambda nd, t: f"(add {t(nd[1])} {t(nd[2])})",
        latex=lambda nd, t: f"\\left({t(nd[1])} + {t(nd[2])}\\right)",
    ),
    "mul": _Op(
        children=lambda nd: nd[1:], remap=lambda nd, f: ("mul", f(nd[1]), f(nd[2])),
        degree=lambda nd, d, env, q: d[nd[1]] + d[nd[2]],
        exact=lambda nd, v, env, q: v[nd[1]] * v[nd[2]],
        mod=lambda nd, v, env, q: v[nd[1]] * v[nd[2]] % q,
        fields=("args",),
        encode=lambda nd, b: {"op": "mul", "args": [nd[1] + b, nd[2] + b]},
        decode=lambda i, d: ("mul", *_indices(d["args"], i, 2)),
        sexpr=lambda nd, t: f"(mul {t(nd[1])} {t(nd[2])})",
        latex=lambda nd, t: f"{t(nd[1])} \\cdot {t(nd[2])}",
    ),
    "neg": _Op(
        children=lambda nd: nd[1:], remap=lambda nd, f: ("neg", f(nd[1])),
        degree=lambda nd, d, env, q: d[nd[1]],
        exact=lambda nd, v, env, q: -v[nd[1]],
        mod=lambda nd, v, env, q: -v[nd[1]] % q,
        fields=("arg",), encode=lambda nd, b: {"op": "neg", "arg": nd[1] + b},
        decode=lambda i, d: ("neg", *_indices([d["arg"]], i, 1)),
        sexpr=lambda nd, t: f"(neg {t(nd[1])})",
        latex=lambda nd, t: f"-{t(nd[1])}",
    ),
    "pow": _Op(
        children=lambda nd: nd[1:2], remap=lambda nd, f: ("pow", f(nd[1]), nd[2]),
        degree=lambda nd, d, env, q: nd[2] * d[nd[1]],
        exact=lambda nd, v, env, q: v[nd[1]] ** nd[2],
        mod=lambda nd, v, env, q: pow(v[nd[1]], nd[2], q),
        vec=lambda nd, v, env, q: _vec_pow(v[nd[1]], nd[2], q),
        fields=("arg", "k"),
        encode=lambda nd, b: {"op": "pow", "arg": nd[1] + b, "k": nd[2]},
        decode=lambda i, d: ("pow", *_indices([d["arg"]], i, 1), _checked(
            d["k"], type(d["k"]) is int and d["k"] >= 1, "pow k must be an int >= 1")),
        sexpr=lambda nd, t: f"(pow {t(nd[1])} {nd[2]})",
        latex=lambda nd, t: f"\\left({t(nd[1])}\\right)^{{{nd[2]}}}",
    ),
    "norm": _Op(
        children=lambda nd: nd[1], remap=lambda nd, f: ("norm", tuple(map(f, nd[1]))),
        degree=lambda nd, d, env, q: len(nd[1]) * max(d[j] for j in nd[1]),
        exact=lambda nd, v, env, q: kernels.norm_value([v[j] for j in nd[1]]),
        mod=lambda nd, v, env, q: kernels.norm_mod([v[j] for j in nd[1]], q),
        vec=lambda nd, v, env, q: _vec_norm([v[j] for j in nd[1]], q),
        fields=("args",),
        encode=lambda nd, b: {"op": "norm", "args": [j + b for j in nd[1]]},
        decode=lambda i, d: ("norm", _indices(d["args"], i)),
        sexpr=lambda nd, t: f"(norm {' '.join(map(t, nd[1]))})",
        latex=lambda nd, t: rf"\mathrm{{N}}_{{{len(nd[1])}}}\!\left("
        rf"{', '.join(map(t, nd[1]))}\right)",
    ),
}

_CHILDREN = {op: row.children for op, row in OPS.items()}
_REMAP = {op: row.remap for op, row in OPS.items()}
_DEGREE = {op: row.degree for op, row in OPS.items()}
_EXACT = {op: row.exact for op, row in OPS.items()}
_MOD = {op: row.mod for op, row in OPS.items()}
_VEC = {op: row.vec or row.mod for op, row in OPS.items()}
_ENCODE = {op: row.encode for op, row in OPS.items()}
_DECODE = {op: (1 + len(row.fields), row.decode) for op, row in OPS.items()}
_RENDER = {style: {op: getattr(row, style) for op, row in OPS.items()}
           for style in ("sexpr", "latex")}


def _shifted(nodes: Tuple[tuple, ...], off: int) -> Tuple[tuple, ...]:
    if not off:
        return nodes
    return tuple([_REMAP[nd[0]](nd, off.__add__) for nd in nodes])


# ---------------------------------------------------------------------------
# interchange: JSON nodes and text renderings
# ---------------------------------------------------------------------------

def to_json(circ: Circuit, base: int) -> List[dict]:
    """The JSON nodes of circ, for a node list where it starts at index base."""
    return [_ENCODE[nd[0]](nd, base) for nd in circ.nodes]


def decode_nodes(raw) -> Tuple[tuple, ...]:
    """Nodes from a JSON node list; every child must come before its parent.
    A malformed node raises ValueError."""
    _checked(raw, type(raw) is list, "nodes must be a list")
    nodes = []
    for i, d in enumerate(raw):
        op = d.get("op") if type(d) is dict else None
        how = _DECODE.get(op) if type(op) is str else None
        try:
            if how is None or len(d) != how[0]:
                raise KeyError(op)
            nodes.append(how[1](i, d))  # KeyError if a field is missing
        except KeyError:
            raise ValueError(f"node {i}: {d!r} is not a known op and its fields") \
                from None
        except ValueError as exc:
            raise ValueError(f"node {i}: {exc}") from None
    return tuple(nodes)


def subcircuit(nodes: Sequence[tuple], root) -> Circuit:
    """The circuit rooted at nodes[root], keeping only the nodes it reaches,
    in their order.  Children must come before their parents in `nodes`."""
    _checked(root, type(root) is int and 0 <= root < len(nodes),
             "a circuit root must be a node index")
    seen = {root}
    stack = [root]
    while stack:
        nd = nodes[stack.pop()]
        for j in _CHILDREN[nd[0]](nd):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    lo = min(seen)
    if len(seen) == root + 1 - lo:  # one contiguous run, as emit writes it
        return Circuit(_shifted(tuple(nodes[lo:root + 1]), -lo), root - lo)
    order = sorted(seen)
    where = {old: new for new, old in enumerate(order)}
    out = tuple(_REMAP[nodes[i][0]](nodes[i], where.__getitem__) for i in order)
    return Circuit(out, len(out) - 1)


def render(circ: Circuit, style: str) -> str:
    """The circuit as one expression, style "sexpr" or "latex"; a node
    shared by several parents is written out at each use.  One pass over the
    nodes; each text is dropped when its last parent has used it."""
    rules, nodes = _RENDER[style], circ.nodes
    texts: Dict[int, str] = {}
    take = texts.pop
    try:
        for i, nd in enumerate(nodes):  # a tree: every node has one parent
            texts[i] = rules[nd[0]](nd, take)
    except KeyError:  # a shared node: count the uses of each node first
        uses = Counter(j for nd in nodes for j in _CHILDREN[nd[0]](nd))

        def use(j: int) -> str:
            uses[j] -= 1
            return texts[j] if uses[j] else texts.pop(j)

        texts.clear()
        for i, nd in enumerate(nodes):
            texts[i] = rules[nd[0]](nd, use)
    return texts[len(nodes) - 1]
