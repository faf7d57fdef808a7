"""Polynomial circuits: DAGs with symbolic degree accounting.

A circuit is an immutable node array plus a root index; children always
precede parents, so evaluation and degree computation are single passes.
Degrees are computed without expansion (Add takes max, Mul sums), which is
the whole point: the compiled formulas have degrees in the thousands and
their expanded polynomials would be astronomically large.

Besides the usual arithmetic nodes there is an opaque "norm" node: the
norm form of degree len(children) applied to the children (see
kernels.norm_value).  It lets a conjunction of hundreds of equations be
collapsed into one equation without expanding the norm polynomial.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from . import kernels

ConstLike = Union[int, Fraction]


def _coerce_const(v: ConstLike):
    if isinstance(v, int):
        return v
    f = Fraction(v)
    return f.numerator if f.denominator == 1 else f


class Circuit:
    """Immutable arithmetic circuit.  Node forms:
    ("var", name), ("int", value), ("add", i, j), ("mul", i, j),
    ("neg", i), ("pow", i, k), ("norm", (i1, ..., in))."""

    __slots__ = ("nodes", "root", "_degree")

    def __init__(self, nodes: Tuple[tuple, ...], root: int):
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
        off = len(self.nodes)
        shifted = tuple(_shift_node(nd, off) for nd in other.nodes)
        nodes = self.nodes + shifted + ((op, self.root, other.root + off),)
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
            off = len(nodes)
            nodes.extend(_shift_node(nd, off) for nd in c.nodes)
            roots.append(c.root + off)
        nodes.append(("norm", tuple(roots)))
        return Circuit(tuple(nodes), len(nodes) - 1)

    # -- analysis ----------------------------------------------------
    def _reachable(self) -> List[int]:
        """Indices reachable from the root, ascending."""
        seen = set()
        stack = [self.root]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            stack.extend(_children(self.nodes[i]))
        return sorted(seen)

    def degree(self) -> int:
        """Syntactic degree bound: Var 1, const 0, Add max, Mul sum,
        Pow k*deg, norm len(children)*max(child degrees)."""
        if self._degree is None:
            deg: Dict[int, int] = {}
            for i in self._reachable():
                nd = self.nodes[i]
                op = nd[0]
                if op == "var":
                    deg[i] = 1
                elif op == "int":
                    deg[i] = 0
                elif op == "add":
                    deg[i] = max(deg[nd[1]], deg[nd[2]])
                elif op == "mul":
                    deg[i] = deg[nd[1]] + deg[nd[2]]
                elif op == "neg":
                    deg[i] = deg[nd[1]]
                elif op == "pow":
                    deg[i] = nd[2] * deg[nd[1]]
                elif op == "norm":
                    deg[i] = len(nd[1]) * max(deg[j] for j in nd[1])
                else:
                    raise AssertionError(f"unknown node {op}")
            self._degree = deg[self.root]
        return self._degree

    def free_vars(self) -> Tuple[str, ...]:
        names = {self.nodes[i][1] for i in self._reachable()
                 if self.nodes[i][0] == "var"}
        return tuple(sorted(names))

    def evaluate(self, env: Mapping[str, ConstLike]) -> Fraction:
        """Exact evaluation; norm nodes go through the exact resultant
        evaluator."""
        val: Dict[int, Fraction] = {}
        for i in self._reachable():
            nd = self.nodes[i]
            op = nd[0]
            if op == "var":
                if nd[1] not in env:
                    raise ValueError(f"unbound variable {nd[1]!r}")
                val[i] = Fraction(env[nd[1]])
            elif op == "int":
                val[i] = Fraction(nd[1])
            elif op == "add":
                val[i] = val[nd[1]] + val[nd[2]]
            elif op == "mul":
                val[i] = val[nd[1]] * val[nd[2]]
            elif op == "neg":
                val[i] = -val[nd[1]]
            elif op == "pow":
                val[i] = val[nd[1]] ** nd[2]
            elif op == "norm":
                val[i] = kernels.norm_value([val[j] for j in nd[1]])
        return val[self.root]

    def evaluate_mod(self, env: Mapping[str, int], q: int) -> int:
        """Evaluation in Z/q (q an odd prime below 2^31); rational constants
        use modular inverses and must have denominator prime to q."""
        val: Dict[int, int] = {}
        for i in self._reachable():
            nd = self.nodes[i]
            op = nd[0]
            if op == "var":
                if nd[1] not in env:
                    raise ValueError(f"unbound variable {nd[1]!r}")
                val[i] = env[nd[1]] % q
            elif op == "int":
                c = nd[1]
                if isinstance(c, Fraction):
                    val[i] = c.numerator * pow(c.denominator, -1, q) % q
                else:
                    val[i] = c % q
            elif op == "add":
                val[i] = (val[nd[1]] + val[nd[2]]) % q
            elif op == "mul":
                val[i] = val[nd[1]] * val[nd[2]] % q
            elif op == "neg":
                val[i] = -val[nd[1]] % q
            elif op == "pow":
                val[i] = pow(val[nd[1]], nd[2], q)
            elif op == "norm":
                val[i] = kernels.norm_mod([val[j] for j in nd[1]], q)
        return val[self.root]

    def evaluate_vec(self, env: Mapping[str, "object"], q: int):
        """Vectorized mod-q evaluation over numpy int64 arrays, 2 <= q < 2^31
        so that products stay exact; the points of a norm node go to the
        kernel as rows of one call."""
        import numpy as np

        q = operator.index(q)
        if not 2 <= q < 1 << 31:
            raise ValueError("q out of range")
        val: Dict[int, "np.ndarray"] = {}
        for i in self._reachable():
            nd = self.nodes[i]
            op = nd[0]
            if op == "var":
                val[i] = np.asarray(env[nd[1]], dtype=np.int64) % q
            elif op == "int":
                c = nd[1]
                if isinstance(c, Fraction):
                    c = c.numerator * pow(c.denominator, -1, q)
                val[i] = np.int64(c % q)
            elif op == "add":
                val[i] = (val[nd[1]] + val[nd[2]]) % q
            elif op == "mul":
                val[i] = val[nd[1]] * val[nd[2]] % q
            elif op == "neg":
                val[i] = (-val[nd[1]]) % q
            elif op == "pow":
                base, out = val[nd[1]], None
                k = nd[2]
                acc = base % q
                out = np.ones_like(base)
                while k:
                    if k & 1:
                        out = out * acc % q
                    acc = acc * acc % q
                    k >>= 1
                val[i] = out
            elif op == "norm":
                cols = [np.broadcast_to(val[j], np.broadcast_shapes(
                    *(np.shape(val[c]) for c in nd[1]))) for j in nd[1]]
                flat = np.stack([np.ravel(c) for c in cols], axis=1)
                res = kernels.norm_mod_rows(flat, [q] * len(flat))
                val[i] = res.reshape(cols[0].shape)
        return val[self.root]

    def canonical_key(self) -> tuple:
        """Serialization of the reachable subgraph with remapped indices;
        two circuits are equal iff their keys match."""
        order = self._reachable()
        remap = {old: new for new, old in enumerate(order)}
        out = []
        for i in order:
            nd = self.nodes[i]
            op = nd[0]
            if op in ("var", "int"):
                out.append(nd)
            elif op in ("add", "mul"):
                out.append((op, remap[nd[1]], remap[nd[2]]))
            elif op == "neg":
                out.append((op, remap[nd[1]]))
            elif op == "pow":
                out.append((op, remap[nd[1]], nd[2]))
            elif op == "norm":
                out.append((op, tuple(remap[j] for j in nd[1])))
        return (tuple(out), remap[self.root])

    def __eq__(self, other):
        if isinstance(other, Circuit):
            return self.canonical_key() == other.canonical_key()
        return NotImplemented

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"Circuit({len(self._reachable())} nodes, degree {self.degree()})"


def _children(nd: tuple) -> Iterable[int]:
    op = nd[0]
    if op in ("var", "int"):
        return ()
    if op in ("add", "mul"):
        return (nd[1], nd[2])
    if op in ("neg",):
        return (nd[1],)
    if op == "pow":
        return (nd[1],)
    if op == "norm":
        return nd[1]
    raise AssertionError(f"unknown node {nd[0]}")


def _shift_node(nd: tuple, off: int) -> tuple:
    op = nd[0]
    if op in ("var", "int"):
        return nd
    if op in ("add", "mul"):
        return (op, nd[1] + off, nd[2] + off)
    if op == "neg":
        return (op, nd[1] + off)
    if op == "pow":
        return (op, nd[1] + off, nd[2])
    if op == "norm":
        return (op, tuple(j + off for j in nd[1]))
    raise AssertionError(f"unknown node {op}")
