"""Polynomial circuits: hash-consed DAGs with symbolic degree accounting.

Circuits are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): each distinct subterm exists once in the
process, so structurally equal circuits are the same object, `==` is
identity, and an operator costs one table lookup whatever the size of its
operands.  The table holds its circuits weakly, and an entry goes as its
circuit dies, taking with it the children that nothing else holds.  An
insert is one setdefault, so the table takes no lock.

`Circuit.nodes` is a circuit's node array, made when first asked for: each
distinct subterm once, in one canonical order, the left-to-right
first-visit postorder from the root.  Children come before their parents
and the root is last, so evaluation is a single pass over the array.
Degrees are computed without expansion (Add takes max, Mul sums) as each
node is made, which is the whole point: the compiled formulas have degrees
in the thousands and their expanded polynomials would be astronomically
large.

Besides the usual arithmetic nodes there is an opaque "norm" node: the
norm form of degree len(children) applied to the children (see
kernels.norm_value).  It lets a conjunction of hundreds of equations be
collapsed into one equation without expanding the norm polynomial.

Everything that depends on a node's op lives in one table, OPS, and one
loop, fold_nodes, runs its rules over any node list whose children come
first, a document's own too.  Two per-op walks stay outside it: read_nodes
checks each op inline, as a call per node was most of parse's cost, and
render_all drops each text at its one use, where a fold keeps them all
(13.9 MB of latex for campana(7, real), whose root is 0.1 MB).
"""
from __future__ import annotations

import operator
import re
import weakref
from _weakref import _remove_dead_weakref
from collections.abc import Mapping
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import arith, kernels
from .kernels import _modulus

ConstLike = Union[int, Fraction]


class Circuit:
    """Immutable, hash-consed arithmetic circuit.  The node forms of
    `nodes` are ("var", name), ("int", value), ("add", i, j), ("mul", i, j),
    ("neg", i), ("pow", i, k) and ("norm", (i1, ..., in)), where i, j, ...
    are the indices of earlier nodes; the root is the last node.

    Circuit(nodes) is the circuit whose `nodes` are exactly `nodes`.  It
    reads them with read_nodes, as formulas.parse does, and then asks for
    more: each node must be a tuple and exactly its node form (a constant
    as an int or a Fraction, not "p/q"; norm children as a tuple).
    Anything else raises ValueError: nodes that are not iterable, no
    nodes, an unknown op or wrong fields, a child that does not come before
    its node, a node the root does not reach, a repeated node, or another
    order."""

    # _key: the node with each child given by its circuit, which is what the
    # table looks up; _kids: the child circuits; _names and _nodes: the free
    # variables and the node array, once asked for
    __slots__ = ("_key", "_kids", "_degree", "_names", "_nodes", "__weakref__")

    def __new__(cls, nodes: Sequence[tuple]) -> "Circuit":
        nodes = tuple(arith.listed(nodes, "nodes"))
        if not nodes:
            raise ValueError("a circuit has at least one node, its root")
        made = read_nodes(nodes)
        if made[-1].nodes != nodes:
            raise ValueError(_not_canonical(nodes, made))
        return made[-1]

    # -- constructors ------------------------------------------------
    @staticmethod
    def var(name: str) -> "Circuit":
        """The variable name; a name that is not a str is a ValueError, as
        in read_nodes."""
        return _intern(("var", _checked(name, type(name) is str,
                                        "a var name must be a string")))

    @staticmethod
    def const(value: ConstLike) -> "Circuit":
        """The constant value, read by arith.rational (ValueError if not rational)."""
        return _intern(("int", arith.rational(value)))

    @staticmethod
    def _lift(x, error=TypeError) -> "Circuit":
        """x as a circuit: a circuit itself, a number its constant.  Anything
        else raises error: an operator's TypeError, as Python's own operators
        raise, or the ValueError of a function that takes a circuit."""
        if type(x) is int:
            return _intern(("int", x))
        if isinstance(x, Circuit):
            return x
        if isinstance(x, (int, Fraction)):
            return Circuit.const(x)
        raise error(f"cannot use {type(x).__name__} in a circuit")

    def __add__(self, other):
        return _intern(("add", self, other if type(other) is Circuit else Circuit._lift(other)))

    def __radd__(self, other):
        return _intern(("add", Circuit._lift(other), self))

    def __mul__(self, other):
        return _intern(("mul", self, other if type(other) is Circuit else Circuit._lift(other)))

    def __rmul__(self, other):
        return _intern(("mul", Circuit._lift(other), self))

    def __neg__(self) -> "Circuit":
        return _intern(("neg", self))

    def __sub__(self, other):
        return _intern(("add", self, _intern(("neg", Circuit._lift(other)))))

    def __rsub__(self, other):
        return _intern(("add", Circuit._lift(other), _intern(("neg", self))))

    def __pow__(self, k: int) -> "Circuit":
        if type(k) is not int:
            k = arith.integer(k, "pow exponent")
        if k < 1:
            raise ValueError("pow exponent must be a positive integer")
        return _intern(("pow", self, k))

    @staticmethod
    def norm(children: Sequence["Circuit"]) -> "Circuit":
        """Opaque norm-form application: the anisotropic degree-n norm form
        (n = number of children) evaluated at the children; ValueError if
        children is not iterable or a child is not a circuit or a number."""
        kids = tuple([Circuit._lift(c, ValueError)
                      for c in arith.listed(children, "norm's children")])
        if not kids:
            raise ValueError("norm needs at least one argument")
        return _intern(("norm", kids))

    def substitute(self, name: str, replacement: "Circuit") -> "Circuit":
        """This circuit with the variable `name` replaced by `replacement`,
        lifted as an operand is (a number becomes its constant); the circuit
        itself if name does not occur.  A name that is not a str, or a
        replacement that is not a circuit or a number, is a ValueError."""
        _checked(name, type(name) is str, "a var name must be a string")
        replacement = Circuit._lift(replacement, ValueError)
        if name not in self._free_names():
            return self
        return fold_nodes(self.nodes, _SUBST, {name: replacement})[-1]

    # -- the node array ----------------------------------------------
    @property
    def nodes(self) -> Tuple[tuple, ...]:
        """Each distinct subterm once, in canonical order, root last."""
        if self._nodes is None:
            lay = layout((self,))
            at = lay.index.__getitem__
            self._nodes = tuple([_REMAP[c._key[0]](c._key, at) for c in lay.order])
        return self._nodes

    # -- analysis ----------------------------------------------------
    def degree(self) -> int:
        """Syntactic degree bound: var 1, int 0, add max, mul sum, pow k*deg, norm n*max."""
        return self._degree

    def free_vars(self) -> Tuple[str, ...]:
        return tuple(sorted(self._free_names()))

    def _free_names(self) -> frozenset:
        """The variable names, kept once known.  One walk, which takes the
        names of a circuit that knows them instead of walking it."""
        if self._names is None:
            names: set = set()
            seen = {self}
            stack = [self]
            while stack:
                circ = stack.pop()
                if circ._names is not None:
                    names |= circ._names
                    continue
                if circ._key[0] == "var":
                    names.add(circ._key[1])
                for kid in circ._kids:
                    if kid not in seen:
                        seen.add(kid)
                        stack.append(kid)
            self._names = frozenset(names)
        return self._names

    def evaluate(self, env: Mapping[str, ConstLike]) -> Fraction:
        """Exact evaluation at a rational point, as a Fraction.  Each value
        is read by arith.rational, so a float or a str raises ValueError.
        The fold works on Python ints until a rational value or constant
        meets it, and makes one Fraction at the root; norm nodes go through
        the exact resultant evaluator.  A value past the bit bounds of
        arith.POWER_BITS is refused with ValueError before it is computed:
        a power, a product whose factors' bits sum past 2 POWER_BITS, and a
        norm of m values of at most b bits with m (b + 2) past it.  That
        bounds memory, not time: an exact norm whose odd part after
        halving has 5 or more values goes through norm_int's CRT, and five
        values took 0.26 s at 10,000 bits, 2.2 s at 40,000 and 26 s at
        160,000 (2-core x86-64), growing about as bits^1.7; three values
        need no CRT."""
        return Fraction(fold_nodes(self.nodes, _EXACT, env)[-1])

    def evaluate_mod(self, env: Mapping[str, int], q: int) -> int:
        """Evaluation in Z/q at integer values, 2 <= q < 2^31 (ValueError otherwise);
        rational constants use modular inverses and need denominators prime to q."""
        return fold_nodes(self.nodes, _MOD, env, _modulus(q))[-1]

    def evaluate_vec(self, env: Mapping[str, "object"], q: int):
        """Vectorized mod-q evaluation over numpy int64 arrays, 2 <= q < 2^31
        so that products stay exact; a variable may also be given as an
        array of any integer dtype, or as Python ints of any size; a
        non-integer value raises ValueError.  Every node's values are
        reduced, in [0, q), so a product of two of them is at most
        (q-1)^2 < 2^63, and the answer is int64.  The rules reduce by q as
        a 0-d int64 array, which numpy's scalar promotion (NEP 50) makes
        cheaper per call than a Python int on a few points; a uint64 or
        Python int value is reduced by the int, as uint64 % int64 goes
        through float64.  The points of a norm node go to the kernel as
        rows of one call."""
        return fold_nodes(self.nodes, _VEC, env, np.array(_modulus(q), dtype=np.int64))[-1]

    def __eq__(self, other):
        # hash-consing: structurally equal circuits are one object
        if isinstance(other, Circuit):
            return self is other
        return NotImplemented

    __hash__ = object.__hash__

    def __reduce__(self):
        return Circuit, (self.nodes,)

    def __repr__(self):
        return f"Circuit({len(self.nodes)} nodes, degree {self.degree()})"


# ---------------------------------------------------------------------------
# the hash-consing table
# ---------------------------------------------------------------------------

class _Ref(weakref.ref):
    """A weak reference that knows its table key."""

    __slots__ = ("key",)


_TABLE: Dict[tuple, _Ref] = {}  # node key -> its circuit


def _drop(ref: _Ref, table=_TABLE, remove=_remove_dead_weakref) -> None:
    """A circuit has died: drop its entry, unless a live circuit has taken
    the key since.  One C call; the table and the helper are bound here so
    that it still works at interpreter exit.  The entry lets go of the key,
    so the children that die with it are dropped the same way."""
    remove(table, ref.key)


def _intern(key: tuple) -> Circuit:
    """The circuit whose node is `key`, each child given by its circuit:
    the one made before, while it lives, or else a new one.  The insert is
    one setdefault, so it needs no lock: a thread that loses the race takes
    the winner's circuit.  An entry whose circuit is dead but whose drop
    has not run yet (the collector clears references before it calls them)
    is removed and the insert tried again."""
    ref = _TABLE.get(key)
    circ = ref() if ref is not None else None
    if circ is None:
        op = key[0]
        circ = object.__new__(Circuit)
        circ._key, circ._kids = key, _CHILDREN[op](key)
        circ._names = circ._nodes = None
        circ._degree = OPS[op].degree(key, _KID_DEGREES, None, None)
        new = _Ref(circ, _drop)
        new.key = key
        while (ref := _TABLE.setdefault(key, new)) is not new:
            if (old := ref()) is not None:
                return old
            _remove_dead_weakref(_TABLE, key)
    return circ


class _KidDegrees:
    """The values a degree rule reads at a table key: a child circuit's degree."""
    __getitem__ = staticmethod(operator.attrgetter("_degree"))


_KID_DEGREES = _KidDegrees()


def fold_nodes(nodes: Sequence, rules: Mapping[str, Callable], env: Mapping, q=None) -> list:
    """Every node's value, in order, for a node list whose children come
    first, a circuit's or a document's: rules[op](node, values of the
    earlier nodes, env, q).  ValueError, once, if env is not a mapping.
    The exact, mod and vec rules read a constant as the int or Fraction a
    circuit holds, and a document writes a Fraction as "p/q" text, on
    which they raise TypeError; so a document's raw node list is folded
    only by rules that do not read a constant's value, such as degree."""
    if not isinstance(env, Mapping):
        raise ValueError(f"env must be a mapping of variable names, not {env!r}")
    values: list = []
    for nd in nodes:
        values.append(rules[nd[0]](nd, values, env, q))
    return values


class Layout(NamedTuple):
    """The distinct nodes that some roots reach, in canonical order: the
    left-to-right first-visit postorder from each root in turn."""

    roots: Tuple[Circuit, ...]
    order: List[Circuit]
    index: Dict[Circuit, int]  # circuit -> its position in order
    shared: set                # the nodes reached more than once


def layout(roots: Sequence[Circuit]) -> Layout:
    """The layout of the roots: one walk over their distinct nodes."""
    index: Dict[Circuit, int] = {}
    order: List[Circuit] = []
    shared: set = set()
    for root in roots:
        if root in index:
            shared.add(root)
            continue
        stack = [(root, iter(root._kids))]
        while stack:
            circ, kids = stack[-1]
            for kid in kids:
                if kid in index:
                    shared.add(kid)
                elif kid._kids:
                    stack.append((kid, iter(kid._kids)))
                    break
                else:
                    index[kid] = len(order)
                    order.append(kid)
            else:
                stack.pop()
                index[circ] = len(order)
                order.append(circ)
    return Layout(tuple(roots), order, index, shared)


# ---------------------------------------------------------------------------
# the op table
# ---------------------------------------------------------------------------

class _Op(NamedTuple):
    """Everything that depends on one op; a node is (op, *fields).  The fold
    rules (degree, exact, mod, vec) take (node, values of the earlier nodes,
    env, q), as fold_nodes runs them; _intern runs degree on a table key,
    whose children's values are their degrees.  vec is the mod rule applied
    to int64 arrays, with q a 0-d int64 array, unless given.  A rule that
    takes a function f or t calls it on the node's own child fields.
    read_nodes and render_all are the two per-op walks outside fold_nodes,
    for the module docstring's reasons."""

    children: Callable  # node -> child fields
    remap: Callable     # (node, f) -> the node with each child j moved to f(j)
    degree: Callable    # int, the syntactic degree bound
    exact: Callable     # int or Fraction
    mod: Callable       # int in [0, q)
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


def _vec_var(values, q):
    # q is the 0-d int64 modulus.  Every integer dtype but uint64 promotes
    # exactly to int64 against it; uint64, which would promote to float64,
    # and Python ints of any size are reduced by int(q) before the int64
    # conversion.  A float or any other non-integer is refused, never
    # truncated
    if not isinstance(values, np.ndarray):
        values = np.array(values, dtype=object)
    kind = values.dtype.kind
    if kind == "i" or kind in "bu" and values.dtype.itemsize < 8:
        return values % q
    if kind == "O":
        if not all(isinstance(x, (int, np.integer)) for x in values.flat):
            raise ValueError("evaluate_vec takes integer values only")
    elif kind != "u":
        raise ValueError(f"evaluate_vec takes integer values, not {values.dtype}")
    return np.asarray(values % int(q), dtype=np.int64)


def _vec_pow(base, k: int, q):
    """base**k mod q by left-to-right square-and-multiply.  base is reduced,
    as every vec rule returns its values in [0, q), so each product is at
    most (q-1)^2 < 2^63 and exact in int64; a square is one product and one
    reduction."""
    out = base
    for bit in bin(k)[3:]:
        out = out * out % q
        if bit == "1":
            out = out * base % q
    return out


def _vec_norm(args, q):
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    flat = np.stack([np.ravel(np.broadcast_to(a, shape)) for a in args], axis=1)
    return kernels.norm_mod_rows(flat, [int(q)] * len(flat)).reshape(shape)


def _exact_norm(values: list) -> ConstLike:
    """kernels.norm_value at the values, refused with ValueError before it
    is computed when len(values) * (their largest bit length + 2) passes
    2 POWER_BITS, the bound arith._product keeps for a mul node."""
    bits = len(values) * (max(map(arith._bits, values)) + 2)
    if bits > 2 * arith.POWER_BITS:
        raise ValueError(f"a norm of {len(values)} values would take about {bits} "
                         f"bits, past 2 POWER_BITS = {2 * arith.POWER_BITS}")
    return kernels.norm_value(values)


def _checked(x, ok: bool, what: str):
    if not ok:
        raise ValueError(f"{what}, not {x!r}")
    return x


_RATIONAL = re.compile(r"-?[0-9]+/0*[1-9][0-9]*")  # p/q with q >= 1


def _value(x, i: int) -> ConstLike:
    """The value of int node i: an int, a Fraction that is not one, or "p/q"."""
    if type(x) is int or type(x) is Fraction and x.denominator != 1:
        return x
    if type(x) is not str or _RATIONAL.fullmatch(x) is None:
        raise _bad(i, "an int value must be an int or a 'p/q' string", x)
    return arith.rational(Fraction(x))


OPS: Dict[str, _Op] = {
    "var": _Op(
        children=lambda nd: (), remap=lambda nd, f: nd,
        degree=lambda nd, v, env, q: 1,
        exact=lambda nd, v, env, q: arith.rational(_lookup(env, nd[1])),
        mod=lambda nd, v, env, q: _int_mod(_lookup(env, nd[1]), q),
        vec=lambda nd, v, env, q: _vec_var(_lookup(env, nd[1]), q),
        sexpr=lambda nd, t: f"(var {nd[1]})",
        latex=lambda nd, t: f"{nd[1][0]}_{{{nd[1][1:]}}}" if nd[1][1:].isdigit()
        else nd[1],
    ),
    "int": _Op(
        children=lambda nd: (), remap=lambda nd, f: nd,
        degree=lambda nd, v, env, q: 0,
        exact=lambda nd, v, env, q: nd[1],
        mod=lambda nd, v, env, q: _const_mod(nd[1], q),
        vec=lambda nd, v, env, q: np.int64(_const_mod(nd[1], int(q))),
        sexpr=lambda nd, t: f"(int {nd[1]})",
        latex=lambda nd, t: str(nd[1]) if isinstance(nd[1], int) else
        rf"\tfrac{{{nd[1].numerator}}}{{{nd[1].denominator}}}",
    ),
    "add": _Op(
        children=lambda nd: nd[1:], remap=lambda nd, f: ("add", f(nd[1]), f(nd[2])),
        degree=lambda nd, v, env, q: max(v[nd[1]], v[nd[2]]),
        exact=lambda nd, v, env, q: v[nd[1]] + v[nd[2]],
        mod=lambda nd, v, env, q: (v[nd[1]] + v[nd[2]]) % q,
        sexpr=lambda nd, t: f"(add {t(nd[1])} {t(nd[2])})",
        latex=lambda nd, t: f"\\left({t(nd[1])} + {t(nd[2])}\\right)",
    ),
    "mul": _Op(
        children=lambda nd: nd[1:], remap=lambda nd, f: ("mul", f(nd[1]), f(nd[2])),
        degree=lambda nd, v, env, q: v[nd[1]] + v[nd[2]],
        exact=lambda nd, v, env, q: arith._product(v[nd[1]], v[nd[2]]),
        mod=lambda nd, v, env, q: v[nd[1]] * v[nd[2]] % q,
        sexpr=lambda nd, t: f"(mul {t(nd[1])} {t(nd[2])})",
        latex=lambda nd, t: f"{t(nd[1])} \\cdot {t(nd[2])}",
    ),
    "neg": _Op(
        children=lambda nd: nd[1:], remap=lambda nd, f: ("neg", f(nd[1])),
        degree=lambda nd, v, env, q: v[nd[1]],
        exact=lambda nd, v, env, q: -v[nd[1]],
        mod=lambda nd, v, env, q: -v[nd[1]] % q,
        sexpr=lambda nd, t: f"(neg {t(nd[1])})",
        latex=lambda nd, t: f"-{t(nd[1])}",
    ),
    "pow": _Op(
        children=lambda nd: nd[1:2], remap=lambda nd, f: ("pow", f(nd[1]), nd[2]),
        degree=lambda nd, v, env, q: nd[2] * v[nd[1]],
        exact=lambda nd, v, env, q: arith._power(v[nd[1]], nd[2]),
        mod=lambda nd, v, env, q: pow(v[nd[1]], nd[2], q),
        vec=lambda nd, v, env, q: _vec_pow(v[nd[1]], nd[2], q),
        sexpr=lambda nd, t: f"(pow {t(nd[1])} {nd[2]})",
        latex=lambda nd, t: f"\\left({t(nd[1])}\\right)^{{{nd[2]}}}",
    ),
    "norm": _Op(
        children=lambda nd: nd[1], remap=lambda nd, f: ("norm", tuple(map(f, nd[1]))),
        degree=lambda nd, v, env, q: len(nd[1]) * max([v[j] for j in nd[1]]),
        exact=lambda nd, v, env, q: _exact_norm([v[j] for j in nd[1]]),
        mod=lambda nd, v, env, q: kernels.norm_mod([v[j] for j in nd[1]], q),
        vec=lambda nd, v, env, q: _vec_norm([v[j] for j in nd[1]], q),
        sexpr=lambda nd, t: f"(norm {' '.join(map(t, nd[1]))})",
        latex=lambda nd, t: rf"\mathrm{{N}}_{{{len(nd[1])}}}\!\left("
        rf"{', '.join(map(t, nd[1]))}\right)",
    ),
}

_CHILDREN = {op: row.children for op, row in OPS.items()}
_REMAP = {op: row.remap for op, row in OPS.items()}
_EXACT = {op: row.exact for op, row in OPS.items()}
_MOD = {op: row.mod for op, row in OPS.items()}
_VEC = {op: row.vec or row.mod for op, row in OPS.items()}
# substitution as a fold: env maps a variable name to its replacement circuit
_SUBST = {op: lambda nd, v, env, q, remap=row.remap: _intern(remap(nd, v.__getitem__))
          for op, row in OPS.items()}
_SUBST["var"] = lambda nd, v, env, q: env[nd[1]] if nd[1] in env else _intern(nd)
_RENDER = {style: {op: getattr(row, style) for op, row in OPS.items()}
           for style in ("sexpr", "latex")}


# ---------------------------------------------------------------------------
# interchange: JSON nodes and text renderings
# ---------------------------------------------------------------------------

def to_json(lay: Layout) -> List[tuple]:
    """The array nodes of a layout, in its order: each node tuple, with the
    layout's child indices and a rational constant written as "p/q"."""
    at = lay.index.__getitem__
    return [("int", str(c._key[1])) if type(c._key[1]) is Fraction
            else _REMAP[c._key[0]](c._key, at) for c in lay.order]


def _malformed(i: int, nd) -> str:
    return f"node {i}: {nd!r} is not a known op and its fields"


def read_nodes(raw) -> List[Circuit]:
    """One circuit per node of a node list whose children come first, each
    node checked, loaded and interned as it is read.  ValueError, naming
    the node, unless it is an array (a JSON array or a node tuple), its op
    is known, its length right, each child index an int below its own index
    and each other field well formed.  The list may repeat nodes, hold nodes
    no root reaches and have any such order; each circuit is canonical all
    the same.  Each op is read inline, and a circuit already in the table
    taken without a call: parse spends most of its time here."""
    _checked(raw, type(raw) in (list, tuple), "nodes must be a list")
    made: List[Circuit] = []
    get, append = _TABLE.get, made.append
    for i, nd in enumerate(raw):
        n = len(nd) if type(nd) in (list, tuple) and nd and type(op := nd[0]) is str else 0
        if n == 3:
            _, j, k = nd
            if op == "add" or op == "mul":
                if type(j) is not int or not 0 <= j < i:
                    raise _bad_kid(i, j)
                if type(k) is not int or not 0 <= k < i:
                    raise _bad_kid(i, k)
                key = ("add" if op == "add" else "mul", made[j], made[k])
            elif op == "pow":
                if type(j) is not int or not 0 <= j < i:
                    raise _bad_kid(i, j)
                if type(k) is not int or k < 1:
                    raise _bad(i, "pow k must be an int >= 1", k)
                key = ("pow", made[j], k)
            else:
                raise ValueError(_malformed(i, nd))
        elif n == 2 and op == "var":
            if type(name := nd[1]) is not str:
                raise _bad(i, "a var name must be a string", name)
            key = ("var", name)
        elif n == 2 and op == "neg":
            if type(j := nd[1]) is not int or not 0 <= j < i:
                raise _bad_kid(i, j)
            key = ("neg", made[j])
        elif n == 2 and op == "int":
            key = ("int", _value(nd[1], i))
        elif n == 2 and op == "norm":
            if type(js := nd[1]) not in (list, tuple) or not js:
                raise _bad(i, "norm takes a nonempty list of child indices", js)
            for j in js:
                if type(j) is not int or not 0 <= j < i:
                    raise _bad_kid(i, j)
            key = ("norm", tuple([made[j] for j in js]))
        else:
            raise ValueError(_malformed(i, nd))
        ref = get(key)
        if ref is None or (circ := ref()) is None:
            circ = _intern(key)
        append(circ)
    return made


def _bad(i: int, what: str, x) -> ValueError:
    return ValueError(f"node {i}: {what}, not {x!r}")


def _bad_kid(i: int, j) -> ValueError:
    return _bad(i, f"expected child indices below {i}", j)


def _not_canonical(nodes: Sequence[tuple], made: List[Circuit]) -> str:
    """Why nodes, read as the circuits made, are not a canonical node list."""
    for i, nd in enumerate(nodes):
        if type(nd) is not tuple:
            return _malformed(i, nd)
        # node i as a node tuple: its circuit's key with the child indices it gave
        key, given = made[i]._key, iter(_CHILDREN[nd[0]](nd))
        if _REMAP[key[0]](key, lambda kid: next(given)) != nd:
            return _malformed(i, nd)
    reached = {len(nodes) - 1}
    for i in range(len(nodes) - 1, -1, -1):
        if i not in reached:
            return f"node {i} is not reachable from the root"
        reached.update(_CHILDREN[nodes[i][0]](nodes[i]))
    first: Dict[tuple, int] = {}
    for i, nd in enumerate(nodes):
        if first.setdefault(nd, i) != i:
            return f"node {i} repeats node {first[nd]}"
    return "the nodes are not in canonical order (children first, left to right)"


#: The byte bound of the text a sexpr or latex render makes.  Text writes a
#: shared node out at each use, so its size doubles with each level of
#: self-sharing: x squared 20 times, a 21-node circuit, is 14.7 MB of sexpr
#: and 8.4 MB of latex, and 30 squarings would need about 15 GB.  So
#: render_all refuses with ValueError, before it makes a node's text, once
#: the texts it has made pass TEXT_BYTES, and emit's matrix join refuses
#: once the children it has taken pass it, instead of running until memory
#: is gone.  The texts a render holds are some of those it made, so it
#: holds at most TEXT_BYTES and the one text that passes it: that node's
#: children's texts, one per use, and a few bytes.  The emit target that
#: makes the most, campana(n, real) in latex, makes 13.9 MB across its
#: nodes for a root text of 125 KB; json writes each node once and is not
#: bounded.
TEXT_BYTES = 1 << 26


def _text_fits(size: int) -> None:
    """ValueError if size bytes of text pass TEXT_BYTES."""
    if size > TEXT_BYTES:
        raise ValueError(f"a text of more than TEXT_BYTES = {TEXT_BYTES} bytes; "
                         f"json writes each shared node once")


def render_all(lay: Layout, style: str) -> Dict[Circuit, str]:
    """Each root of a layout as one expression, style "sexpr" or "latex",
    by root; a node shared by several parents is written out at each use.
    One pass over the distinct nodes; the text of a node with one use is
    dropped when it is used.  ValueError, before a node's text is made,
    once the texts made pass TEXT_BYTES."""
    rules, shared, bound = _RENDER[style], lay.shared, TEXT_BYTES
    texts: Dict[Circuit, str] = {}
    take = texts.pop
    made = 0

    def t(kid: Circuit) -> str:
        return texts[kid] if kid in shared else take(kid)

    for circ in lay.order:
        if made > bound:
            _text_fits(made)
        key = circ._key
        text = texts[circ] = rules[key[0]](key, t)
        made += len(text)
    return {r: texts[r] for r in lay.roots}

