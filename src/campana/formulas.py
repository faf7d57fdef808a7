"""First-order formula builders over polynomial circuits.

The definitional tower (trace set S, T, units of T, the sets I^c, the
radical sets J and their powers and inverses, disjointness) is compiled
into prenex formulas with exact quantifier/atom/degree accounting.  Two
conjunction combiners (anisotropic norm form, sum of squares) collapse
conjunctions of equations into single equations, and a prenexing identity
turns "universal-or-existential" into one forall-exists formula with a
single atom.
"""
from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, count, repeat
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from . import arith
from .circuits import Circuit, Layout, _text_fits, layout, read_nodes, render_all, to_json
from .errors import InvariantError
from .forms import BinaryForm, binary_form
from .memo import MemoInfo, memo, register

# matrix nodes: ("eq", Circuit) | ("neq", Circuit) | ("and", tuple) | ("or", tuple)
MatrixNode = tuple

FORALL = "forall"
EXISTS = "exists"

class Gensym:
    """Deterministic witness allocator: x1, x2, ... in construction order;
    names lists every name handed out, in order: the tower's prefix."""

    def __init__(self, start: int = 1):
        self.start = start
        self.names: List[str] = []

    def take(self, k: int) -> List[Circuit]:
        """k fresh variables, as circuits."""
        i = self.start + len(self.names)
        new = [f"x{j}" for j in range(i, i + k)]
        self.names += new
        return [Circuit.var(n) for n in new]


def _fold_matrix(m: MatrixNode, atom: Callable, join: Callable):
    """The one walk over a matrix: atom(kind, circuit) at an eq or neq node,
    join(kind, the folds of its children) at an and or or node.  join gets
    the children as an iterator that folds each one only when it is taken.
    A matrix nested too deeply for the recursion limit (a few hundred and/or
    levels) raises ValueError, as parse does for such a document."""
    try:
        return _fold(m, atom, join)
    except RecursionError:
        raise ValueError("matrix nested too deeply") from None


def _fold(m: MatrixNode, atom: Callable, join: Callable):
    """_fold_matrix's walk, which refuses a node that is not one of the
    four forms, so Formula's walk over its atoms checks every node.  (Not a
    closure, for _parse_matrix's reason: a recursive closure is a reference
    cycle, which would keep atom and join, and the layout they read, alive
    until the cycle collector ran.)"""
    if type(m) is tuple and len(m) == 2:
        kind, payload = m
        if kind in ("eq", "neq") and isinstance(payload, Circuit):
            return atom(kind, payload)
        if kind in ("and", "or") and type(payload) is tuple and payload:
            return join(kind, (_fold(c, atom, join) for c in payload))
    raise ValueError(f"a matrix node is (eq or neq, circuit) or (and or or, "
                     f"a nonempty tuple of nodes), not {m!r:.80}")


_SEQUENCES = {list, tuple}
_QUANTIFIERS = {FORALL, EXISTS}


class Formula:
    """Prenex formula: quantifier prefix over a quantifier-free matrix of
    polynomial (in)equations.  Immutable.  Formula(...) checks every
    argument, as parse checks a document: the prefix is a list or tuple of
    (quantifier, name) pairs, free a list or tuple of names, each name a
    str, and the matrix nodes of the forms above with each variable of an
    atom free or bound; anything else is a ValueError.  Every formula that
    parse's reader, prenex_or, substitute_form, a copy or an unpickling
    makes passes this gate.  A builder's formula comes from _built, which
    checks nothing; a test holds each build to the gate, and `verify
    formulas` reads each back through it.  Every slot is read-only once
    made, so the atoms, the layout and the documents emit keeps on a
    formula always describe it.  _family is None but on the formulas
    build_Jn, build_inv_Jn and build_campana return (see _n_family); a
    copy, a pickle or a parse by the reader has none, and == ignores it.
    The family's template (_n_template) serves both directions: emit
    writes a tagged member into it, and parse reads one back through it,
    built and so tagged."""

    __slots__ = ("prefix", "matrix", "free", "real_embedded", "_atoms", "_layout",
                 "_emitted", "_family")

    def __init__(
        self,
        prefix: Sequence[Tuple[str, str]],
        matrix: MatrixNode,
        free: Sequence[str],
        real_embedded: bool = False,
    ):
        if not (type(prefix) in _SEQUENCES and all(
                type(p) in _SEQUENCES and len(p) == 2
                and type(p[0]) is type(p[1]) is str and p[0] in _QUANTIFIERS
                for p in prefix)):
            raise ValueError("prefix must be a list of (quantifier, name) pairs, "
                             "each quantifier 'forall' or 'exists'")
        if not (type(free) in _SEQUENCES and all(type(n) is str for n in free)):
            raise ValueError(f"free must be a list of names, not {free!r}")
        prefix, free = tuple(map(tuple, prefix)), tuple(free)
        real_embedded = _real(real_embedded)
        bound, names = {n for _, n in prefix}, set(free)
        if len(bound) != len(prefix):
            raise ValueError("a variable is bound twice")
        if len(names) != len(free):
            raise ValueError("a free variable is listed twice")
        if bound & names:
            raise ValueError("a variable is both free and bound")
        atoms = _fold_matrix(matrix, lambda kind, c: [c],
                             lambda kind, kids: list(chain.from_iterable(kids)))
        names |= bound
        for circ in atoms:
            stray = circ._free_names() - names
            if stray:
                raise ValueError(f"unbound matrix variables: {sorted(stray)}")
        self._fill(prefix, matrix, free, real_embedded, atoms)

    @classmethod
    def _built(cls, prefix: Tuple[Tuple[str, str], ...], matrix: MatrixNode,
               free: Tuple[str, ...], real_embedded: bool,
               atoms: Sequence[Circuit]) -> "Formula":
        """The formula of slots a builder has made as Formula(...) would
        store them, atoms the matrix's atoms in order: nothing is checked
        or walked again."""
        f = object.__new__(cls)
        f._fill(prefix, matrix, free, real_embedded, atoms)
        return f

    def _fill(self, prefix, matrix, free, real_embedded, atoms) -> None:
        """Set every slot of a new formula, the atoms as a tuple."""
        init = partial(object.__setattr__, self)
        init("prefix", prefix)
        init("matrix", matrix)
        init("free", free)
        init("real_embedded", real_embedded)
        init("_atoms", tuple(atoms))
        init("_layout", None)  # made by the first emit
        init("_emitted", {})  # format -> the bytes emit made, filled by emit
        init("_family", None)  # (target, real_embedded, n - 1) of an n-family member

    def atoms(self) -> List[Circuit]:
        """The matrix's atoms in order, as a new list."""
        return list(self._atoms)

    def layout(self) -> Layout:
        """The distinct nodes of all the atoms in canonical order, made once."""
        if self._layout is None:
            object.__setattr__(self, "_layout", layout(self._atoms))
        return self._layout

    def __setattr__(self, name, value):
        raise AttributeError("Formula is immutable")

    def __delattr__(self, name):
        raise AttributeError("Formula is immutable")

    def __reduce__(self):
        return Formula, (self.prefix, self.matrix, self.free, self.real_embedded)

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.free == other.free
            and self.real_embedded == other.real_embedded
            and self.matrix == other.matrix
        )

    def __repr__(self):
        st = stats(self)
        return (f"Formula({st.universals} forall, {st.existentials} exists, "
                f"{st.atoms} atoms, degree<={st.degree_bound})")


def _formula(f, name: str = "f") -> Formula:
    """f itself, the check every public function that takes a Formula
    makes first: anything else, None included, is a ValueError."""
    if not isinstance(f, Formula):
        raise ValueError(f"{name} must be a Formula, not {type(f).__name__}")
    return f


def _real(real_embedded) -> bool:
    """real_embedded itself, checked: anything but a bool ('no', None, 1) is
    a ValueError.  Formula makes the check, so prenex_or and parse do too;
    the headline builders make it before they build."""
    if type(real_embedded) is not bool:
        raise ValueError(f"real_embedded must be a bool, not {real_embedded!r}")
    return real_embedded


@dataclass(frozen=True)
class FormulaStats:
    universals: int
    existentials: int
    atoms: int
    degree_bound: int
    real_embedded: bool = False


def stats(f: Formula) -> FormulaStats:
    """Quantifier counts, atom count, and the syntactic degree bound: the
    largest degree of an atom.  Read off the prefix and the atoms the
    formula keeps; the matrix is not walked."""
    f = _formula(f)
    quantifiers = [q for q, _ in f.prefix]
    return FormulaStats(quantifiers.count(FORALL), quantifiers.count(EXISTS), len(f._atoms),
                        max(c.degree() for c in f._atoms), f.real_embedded)


# ---------------------------------------------------------------------------
# the definitional tower; each block takes its witnesses from the Gensym and
# returns its atom circuits
# ---------------------------------------------------------------------------

def _s_block(a: Circuit, b: Circuit, r: Circuit, gs: Gensym) -> List[Circuit]:
    """r is a reduced trace of a norm-1 quaternion:
    exists x2,x3,x4: r^2 - 4a x2^2 - 4b x3^2 + 4ab x4^2 = 4."""
    x2, x3, x4 = gs.take(3)
    return [r**2 - 4*a*x2**2 - 4*b*x3**2 + 4*a*b*x4**2 - 4]


def _t_block(a, b, r, gs):
    """r is a sum of two traces."""
    x, = gs.take(1)
    return _s_block(a, b, x, gs) + _s_block(a, b, r - x, gs)


def _t_unit_block(a, b, r, gs):
    """r is an invertible element of T: r in T and r v = 1 with v in T."""
    atoms = _t_block(a, b, r, gs)
    v, = gs.take(1)
    return atoms + _t_block(a, b, v, gs) + [r*v - 1]


def _i_block(a, b, c, r, gs):
    """r in I^c: r = c x^2 u and r = 1 - y^2 v with u, v units of T."""
    x, y, u, v = gs.take(4)
    return (_t_unit_block(a, b, u, gs) + _t_unit_block(a, b, v, gs)
            + [r - c*x**2*u, r - 1 + y**2*v])


def _j_block(a, b, r, gs):
    """r in the radical set of (a,b): r and r-x in I^a, r and r-y in I^b."""
    x, y = gs.take(2)
    return (_i_block(a, b, a, x, gs) + _i_block(a, b, a, r - x, gs)
            + _i_block(a, b, b, y, gs) + _i_block(a, b, b, r - y, gs))


def _jabcd_block(a, b, c, d, r, gs):
    """r in J of (a,b,c,d): r = x + (r - x) with x in J(a,b), r-x in J(c,d).
    inv J, the disjointness block, J_n, inv J_n and the premise are made
    of these, so each is built once per process, by _jabcd_record."""
    atoms, names = _jabcd_record(a, b, c, d, r, gs.start + len(gs.names))
    gs.names.extend(names)
    return list(atoms)


@memo("formulas._jabcd_record")
def _jabcd_record(a, b, c, d, r, first: int) -> Tuple[Tuple[Circuit, ...], Tuple[str, ...]]:
    """The atoms of _jabcd_block at (a, b, c, d, r) with its witnesses
    numbered from first, and the witness names it took.  Circuits are
    hash-consed, so the key holds them by identity; n is never part of it,
    so the key set is finite, and the memo unbounded: the 13 emit targets
    at any n, with either combiner, use 15 keys."""
    gs = Gensym(first)
    x, = gs.take(1)
    atoms = tuple(_j_block(a, b, x, gs) + _j_block(c, d, r - x, gs))
    for atom in atoms:
        atom._free_names()  # kept, so the walk from a combined atom stops here
    return atoms, tuple(gs.names)


def _inv_j_block(a, b, c, d, r, gs):
    """r inverts an element of J: r y = 1 with y in J."""
    y, = gs.take(1)
    return _jabcd_block(a, b, c, d, y, gs) + [r*y - 1]


def _disjoint_block(a, b, c, d, a2, b2, c2, d2, gs):
    """The two radical place sets are disjoint: all eight parameters are
    nonzero and 1 = y + (1-y) splits across the two radicals."""
    x, y = gs.take(2)
    nonzero = a*b*c*d*a2*b2*c2*d2*x - 1
    return ([nonzero] + _jabcd_block(a, b, c, d, y, gs)
            + _jabcd_block(a2, b2, c2, d2, 1 - y, gs))


def _jn_block(a, b, c, d, n, r, gs):
    """r in J_n: r = x y^(n-1) with x, y in J, for an n that _n_family
    has checked."""
    x, y = gs.take(2)
    return ([r - x*y**(n - 1)] + _jabcd_block(a, b, c, d, x, gs)
            + _jabcd_block(a, b, c, d, y, gs))


def _inv_jn_block(a, b, c, d, n, r, gs):
    """r inverts an element of J_n."""
    y, = gs.take(1)
    return [r*y - 1] + _jn_block(a, b, c, d, n, y, gs)


def _premise_block(a, b, c, d, a2, b2, c2, d2, r, gs):
    """Disjointness of the two radicals together with r inverting an
    element of the second radical."""
    return (_disjoint_block(a, b, c, d, a2, b2, c2, d2, gs)
            + _inv_j_block(a2, b2, c2, d2, r, gs))


# ---------------------------------------------------------------------------
# public builders
# ---------------------------------------------------------------------------

# The builders without n are constants: each passes its block to _shared,
# which builds it once per process, so each returns one shared Formula (one
# per combiner for build_integrality), which holds its circuits (and its
# layout, once emitted) until clear_memos().  build_Jn, build_inv_Jn and
# build_campana take an unbounded n and build afresh on every call; emit
# writes their documents into one template per family (_n_template), and
# parse reads them back through it.

#: The builders' free names: the first tuple (a, b, c, d), the element r, and
#: the second tuple (a2, b2, c2, d2) of the disjointness blocks.
_ABR = ("a", "b", "r")
_ABCDR = ("a", "b", "c", "d", "r")
_EIGHT = ("a", "b", "c", "d", "a2", "b2", "c2", "d2")


def _exists_formula(block, names: Tuple[str, ...], start: int = 1) -> Formula:
    """exists (the block's witnesses, in the order it took them): the
    conjunction of its atoms, free in names.  block(one circuit per name,
    Gensym) -> atoms.  Made by Formula._built: the witnesses are the
    Gensym's own distinct names, and no check is run again."""
    gs = Gensym(start)
    atoms = block(*(Circuit.var(n) for n in names), gs)
    matrix = ("and", tuple(("eq", c) for c in atoms)) if len(atoms) > 1 \
        else ("eq", atoms[0])
    return Formula._built(tuple((EXISTS, n) for n in gs.names), matrix, names, False, atoms)


@memo("formulas._shared")
def _shared(build, *args) -> Formula:
    """build(*args), once per process: the formulas of the nine builders
    without n and of build_integrality's two combiners, eleven keys."""
    return build(*args)


def build_S() -> Formula:
    # the quaternion coordinates are x2, x3, x4
    return _shared(_exists_formula, _s_block, _ABR, 2)


def build_T() -> Formula:
    return _shared(_exists_formula, _t_block, _ABR)


def build_T_unit() -> Formula:
    return _shared(_exists_formula, _t_unit_block, _ABR)


def build_I() -> Formula:
    return _shared(_exists_formula, _i_block, ("a", "b", "c", "r"))


def build_J() -> Formula:
    return _shared(_exists_formula, _j_block, _ABR)


def build_Jabcd() -> Formula:
    return _shared(_exists_formula, _jabcd_block, _ABCDR)


def build_inv_J() -> Formula:
    return _shared(_exists_formula, _inv_j_block, _ABCDR)


def build_disjoint() -> Formula:
    return _shared(_exists_formula, _disjoint_block, _EIGHT)


def build_Jn(n: int) -> Formula:
    return _n_family("Jn", n, False, lambda n, real: _exists_formula(
        lambda a, b, c, d, r, gs: _jn_block(a, b, c, d, n, r, gs), _ABCDR))


def build_inv_Jn(n: int) -> Formula:
    return _n_family("invJn", n, False, lambda n, real: _exists_formula(
        lambda a, b, c, d, r, gs: _inv_jn_block(a, b, c, d, n, r, gs), _ABCDR))


def _n_family(target: str, n, real_embedded, build) -> Formula:
    """build(n, real_embedded), the one gate of the n-families: n through
    arith.check_n and >= 2 (at n = 1, J_1 is J and the Campana set is the
    whole field), real_embedded through _real.  The formula is tagged as
    the member at n of the target's family, so that emit writes its
    documents into the family's template (_n_template)."""
    n = arith.check_n(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    real_embedded = _real(real_embedded)
    f = build(n, real_embedded)
    object.__setattr__(f, "_family", (target, real_embedded, n - 1))
    return f


def build_premise() -> Formula:
    """The hypothesis block of the main formula: disjoint radicals and r
    inverting an element of the second radical."""
    return _shared(_exists_formula, _premise_block, _EIGHT + ("r",))


# ---------------------------------------------------------------------------
# combiners and prenexing
# ---------------------------------------------------------------------------

N_Q = 2  # smallest positive nonsquare: x^2 - 2 has no rational roots


def combine_pair(f: Circuit, g: Circuit) -> Circuit:
    """f^2 - 2 g^2 vanishes over Q iff both f and g do.  Numbers are lifted
    to constants; anything else is a ValueError."""
    f, g = Circuit._lift(f, ValueError), Circuit._lift(g, ValueError)
    return f**2 - N_Q * g**2


def combine_many(fs: Sequence[Circuit]) -> Circuit:
    """Norm-form composition: vanishes over Q iff every f does.  Degree is
    len(fs) * max degree; the norm polynomial itself stays opaque.  fs
    that is not iterable, or an f that is not a circuit or a number, is a
    ValueError."""
    fs = arith.listed(fs, "fs")
    if not fs:
        raise ValueError("need at least one circuit")
    if len(fs) == 1:
        return Circuit._lift(fs[0], ValueError)
    return Circuit.norm(fs)


def combine_sos(fs: Sequence[Circuit]) -> Circuit:
    """Sum of squares; vanishes over a real-embedded field iff every f does.
    Numbers are lifted to constants, as combine_many lifts them; fs that is
    not iterable, or an f that is not a circuit or a number, is a ValueError."""
    fs = [Circuit._lift(f, ValueError) for f in arith.listed(fs, "fs")]
    if not fs:
        raise ValueError("need at least one circuit")
    acc = fs[0]**2
    for f in fs[1:]:
        acc = acc + f**2
    return acc


#: The largest n norm_form builds.  Its subset DP makes about 2.2 times
#: the nodes of n - 1, so a larger n is refused with ValueError before any
#: node is built, instead of running until memory is gone.  On a 2-vCPU
#: x86-64 machine (time, nodes, peak RSS of the process):
#:
#:     n = 12: 0.09 s,  45,089 nodes,  54 MB
#:     n = 13: 0.20 s,  98,340 nodes,  82 MB
#:     n = 14: 0.50 s, 213,031 nodes, 140 MB
#:     n = 15: 1.17 s, 458,794 nodes, 265 MB
NORM_FORM_MAX_N = 14


def norm_form(n: int) -> Circuit:
    """The norm form of degree n in y1..yn as an explicit circuit: the
    determinant of the multiplication-by-(sum y_j t^(j-1)) matrix in
    Z[t]/(t^n - 2), by cofactor expansion, with no opaque norm node.  Its
    only rational zero is the origin.  n must be an int from 1 to
    NORM_FORM_MAX_N; anything else raises ValueError."""
    n = arith.check_n(n)
    if n > NORM_FORM_MAX_N:
        raise ValueError(f"n must be <= NORM_FORM_MAX_N = {NORM_FORM_MAX_N}, not {n}")
    ys = [Circuit.var(f"y{i + 1}") for i in range(n)]

    # M[i][j] = y_(i-j+1) if i >= j else 2*y_(n+i-j+1), 0-indexed vars, with
    # the cofactor sign (-1)^parity on the entry: -y_k and -(2*y_k) are made
    # once each, and no term needs a neg node of its own
    def entry(i: int, j: int, parity: int) -> Circuit:
        e = ys[i - j] if i >= j else 2 * ys[n + i - j]
        return -e if parity % 2 else e

    # subset DP over column sets: dets[cols] is the determinant of rows
    # 0..len(cols)-1 against the columns cols, expanded along its last row
    dets = {(j,): entry(0, j, 0) for j in range(n)}
    for row in range(1, n):
        nxt = {}
        for cols in combinations(range(n), row + 1):
            terms = [entry(row, j, row + pos) * dets[cols[:pos] + cols[pos + 1:]]
                     for pos, j in enumerate(cols)]
            nxt[cols] = sum(terms[1:], terms[0])
        dets = nxt
    return dets[tuple(range(n))]


def prenex_or(universal_part: Formula, existential_part: Formula,
              real_embedded: bool = False) -> Formula:
    """Merge "forall x: P(x) != 0" OR "exists z: Q(z) = 0" into the single
    prenex formula forall x exists y exists z: (y P(x) - 1) Q(z) = 0,
    marked real_embedded as given, with y the first of x1, x2, ... that
    neither part uses.  The merged prefix scopes over both parts: a name
    free in the existential part and bound in the universal one is bound by
    its forall, but one free in the universal part and bound in the
    existential one would be captured by its exists, a ValueError.

    Valid because when some x makes P vanish no y can invert it, forcing
    Q to vanish for a suitable z; and otherwise y = 1/P(x) frees Q."""
    universal_part = _formula(universal_part, "universal_part")
    existential_part = _formula(existential_part, "existential_part")
    if any(q != FORALL for q, _ in universal_part.prefix):
        raise ValueError("universal part must have an all-forall prefix")
    if universal_part.matrix[0] != "neq":
        raise ValueError("universal part must be a single inequation")
    if any(q != EXISTS for q, _ in existential_part.prefix):
        raise ValueError("existential part must have an all-exists prefix")
    if existential_part.matrix[0] != "eq":
        raise ValueError("existential part must be a single equation")
    universals = [n for _, n in universal_part.prefix]
    existentials = [n for _, n in existential_part.prefix]
    captured = set(universal_part.free).intersection(existentials)
    if captured:
        raise ValueError(f"the existential part binds {sorted(captured)}, "
                         f"free in the universal part")
    used = {*universals, *existentials, *universal_part.free, *existential_part.free}
    y = next(f"x{i}" for i in count(1) if f"x{i}" not in used)
    bound = set(universals)
    free = [n for n in dict.fromkeys(universal_part.free + existential_part.free)
            if n not in bound]
    prefix, atom = _prenex(universals, universal_part.matrix[1], y, existentials,
                           existential_part.matrix[1])
    return Formula(prefix, ("eq", atom), free, real_embedded=real_embedded)


def _prenex(universals, P, y, existentials, Q) -> Tuple[Tuple[Tuple[str, str], ...], Circuit]:
    """The prefix and the atom of forall universals exists y exists
    existentials: (y P - 1) Q = 0."""
    prefix = (*zip(repeat(FORALL), universals), (EXISTS, y),
              *zip(repeat(EXISTS), existentials))
    return prefix, (Circuit.var(y) * P - 1) * Q


# ---------------------------------------------------------------------------
# the headline formulas
# ---------------------------------------------------------------------------

def build_campana(n: int, real_embedded: bool = False) -> Formula:
    """The forall-exists definition of the Campana condition with modulus n,
    free in (a,b,c,d,r): for every second parameter tuple with disjoint
    radical set, if r inverts an element of its radical then r inverts an
    element of its n-th power."""
    return _n_family("campana", n, real_embedded, lambda n, real: _premise_implies(
        lambda a2, b2, c2, d2, r, gs: _inv_jn_block(a2, b2, c2, d2, n, r, gs), real))


def build_integrality(real_embedded: bool = False) -> Formula:
    """The forall-exists definition of integrality outside the radical set:
    whenever a second tuple has disjoint radical set and r inverts one of
    its radical elements, that radical must be trivial (contain 1).  Each
    variant is built once and shared (see the builders above)."""
    return _shared(_premise_implies, _trivial_radical, _real(real_embedded))


def _trivial_radical(a2, b2, c2, d2, r, gs):
    """build_integrality's conclusion: 1 lies in the second radical."""
    return _jabcd_block(a2, b2, c2, d2, Circuit.const(1), gs)


def _premise_implies(conclusion, real_embedded: bool) -> Formula:
    """forall (a2,b2,c2,d2) and premise witnesses: premise -> conclusion,
    where conclusion(a2, b2, c2, d2, r, gs) is an existential block.  Made
    by Formula._built, as _exists_formula makes its formulas; the caller
    has checked real_embedded."""
    a, b, c, d, r = (Circuit.var(nm) for nm in _ABCDR)
    gs = Gensym()
    a2, b2, c2, d2 = gs.take(4)  # the universally quantified second tuple
    prem_atoms = _premise_block(a, b, c, d, a2, b2, c2, d2, r, gs)
    split = len(gs.names)
    concl_atoms = conclusion(a2, b2, c2, d2, r, gs)
    gs.take(1)  # prenex_or's y: the first name after every block witness
    *names, y = gs.names
    combine = combine_sos if real_embedded else combine_many
    prefix, atom = _prenex(names[:split], combine(prem_atoms), y, names[split:],
                           combine(concl_atoms))
    return Formula._built(prefix, ("eq", atom), _ABCDR, real_embedded, (atom,))


class Target(NamedTuple):
    """An emit target: its builder, whether that takes n and real_embedded,
    and its (universals, existentials, atoms, degree bound) at (n, real)."""

    builder: Callable[..., Formula]
    takes_n: bool
    has_real: bool
    ledger: Callable[[Optional[int], bool], Tuple[int, int, int, int]]

    def build(self, n: Optional[int] = None, real: bool = False) -> Formula:
        """The formula; n and real reach the builder only if it takes them."""
        return self.builder(*((n,) if self.takes_n else ()),
                            *((real,) if self.has_real else ()))


# A combiner takes k atoms of degree d to degree k d (norm form) or 2 d (sum
# of squares), and the prenex merge adds one.  The headline premise has 290
# atoms of degree 9; the conclusions are inv J_n, 194 atoms of degree
# max(n, 4), and J(abcd) at r = 1, 96 atoms of degree 4.
TARGETS: Dict[str, Target] = {
    "S": Target(build_S, False, False, lambda n, real: (0, 3, 1, 4)),
    "T": Target(build_T, False, False, lambda n, real: (0, 7, 2, 4)),
    "Tunit": Target(build_T_unit, False, False, lambda n, real: (0, 15, 5, 4)),
    "I": Target(build_I, False, False, lambda n, real: (0, 34, 12, 4)),
    "J": Target(build_J, False, False, lambda n, real: (0, 138, 48, 4)),
    "Jabcd": Target(build_Jabcd, False, False, lambda n, real: (0, 277, 96, 4)),
    "invJ": Target(build_inv_J, False, False, lambda n, real: (0, 278, 97, 4)),
    "disjoint": Target(build_disjoint, False, False, lambda n, real: (0, 556, 193, 9)),
    "premise": Target(build_premise, False, False, lambda n, real: (0, 834, 290, 9)),
    "Jn": Target(build_Jn, True, False, lambda n, real: (0, 556, 193, max(n, 4))),
    "invJn": Target(build_inv_Jn, True, False, lambda n, real: (0, 557, 194, max(n, 4))),
    "campana": Target(build_campana, True, True, lambda n, real: (
        838, 558, 1, max(2 * n + 19, 27) if real else max(194 * n + 2611, 3387))),
    "integrality": Target(build_integrality, False, True,
                          lambda n, real: (838, 278, 1, 27 if real else 2995)),
}


def substitute_form(base: Formula, F: BinaryForm) -> Formula:
    """Replace the free variable r by F(lam, 1).  stats reads the degree
    bound off the substituted circuits, as for any formula: with e the
    degree of F(lam, 1), it lies between the base bound and e times it, and
    is lower than the product where r never meets the top degree.  F that
    is not a BinaryForm in which x occurs is a ValueError: a constant
    F(lam, 1), as from y^2, would drop lam from the matrix, which lists it
    free."""
    base = _formula(base, "base")
    if max(binary_form(F).dehomogenized()) < 1:
        raise ValueError(f"F must be a BinaryForm in which x occurs, not {F!r}")
    if "r" not in base.free:
        raise ValueError("'r' is not free in the formula")
    used = set(base.free) | {n for _, n in base.prefix}
    if "lam" in used - {"r"}:
        raise ValueError("'lam' already occurs in the formula")
    lam = Circuit.var("lam")
    coeffs = F.dehomogenized()
    replacement = None
    for power in sorted(coeffs):
        c = coeffs[power]
        term = Circuit.const(c) if power == 0 else \
            (Circuit.const(c) * lam**power)
        replacement = term if replacement is None else replacement + term

    matrix = _fold_matrix(base.matrix,
                          lambda kind, c: (kind, c.substitute("r", replacement)),
                          lambda kind, kids: (kind, tuple(kids)))
    free = tuple("lam" if n == "r" else n for n in base.free)
    return Formula(base.prefix, matrix, free, real_embedded=base.real_embedded)


# ---------------------------------------------------------------------------
# evaluation and interchange
# ---------------------------------------------------------------------------

def evaluate_matrix(f: Formula, assignment: Mapping[str, Union[int, Fraction]]) -> bool:
    """Exact truth value of the quantifier-free matrix under a full
    assignment (free and bound variables alike).  An and stops at its first
    false child and an or at its first true one, so the atoms after it are
    not evaluated and need no values."""
    return _fold_matrix(_formula(f).matrix,
                        lambda kind, c: (c.evaluate(assignment) == 0) == (kind == "eq"),
                        lambda kind, kids: all(kids) if kind == "and" else any(kids))


def _emit_matrix(m: MatrixNode, index: Mapping[Circuit, int]) -> dict:
    """The JSON matrix; index[atom] is the node index of each atom's root."""
    return _fold_matrix(m, lambda kind, c: {kind: index[c]},
                        lambda kind, kids: {kind: list(kids)})


# per style: the atom templates, and (open, separator, close) of and/or
_MATRIX_TEXT = {
    "sexpr": {"eq": "(eq {})", "neq": "(neq {})",
              "and": ("(and ", " ", ")"), "or": ("(or ", " ", ")")},
    "latex": {"eq": "{} = 0", "neq": "{} \\neq 0",
              "and": ("(", r" \land ", ")"), "or": ("(", r" \lor ", ")")},
}


def _text_matrix(m: MatrixNode, style: str, texts: Mapping[Circuit, str]) -> str:
    """The matrix as text; texts[atom] is the rendering of each atom.  An
    and or or whose children's texts pass circuits.TEXT_BYTES is refused
    with ValueError as it takes them, before it is joined."""
    forms = _MATRIX_TEXT[style]

    def join(kind: str, kids) -> str:
        opening, sep, closing = forms[kind]
        parts, size = [], 0
        for kid in kids:
            size += len(kid)
            _text_fits(size)
            parts.append(kid)
        return opening + sep.join(parts) + closing

    return _fold_matrix(m, lambda kind, c: forms[kind].format(texts[c]), join)


def _text(f: Formula, style: str) -> str:
    return _text_matrix(f.matrix, style, render_all(f.layout(), style))


#: The formats emit writes.
FORMATS = ("json", "sexpr", "latex")


def emit(f: Formula, format: str = "json") -> bytes:
    """Serialize a formula.  json is canonical and round-trips through
    parse(): one node list holds each distinct subterm of all the atoms
    once, in canonical order, each node an array such as ["add", i, j] with
    the indices of its children, and each atom names its root in it.  sexpr
    is a lossless prefix rendering; latex is for human eyes.  Each format is
    made once per Formula, which keeps the bytes: a later call returns the
    same bytes object, so a shared builder formula renders once per
    process.  A member of an n-family (build_Jn, build_inv_Jn and
    build_campana) is not rendered: its n - 1 is written into the family's
    template, which is rendered once per process, on the first emit."""
    f = _formula(f)
    # compared, not hashed, so that an unhashable format is a ValueError too
    key = next((known for known in FORMATS if known == format), None)
    if key is None:
        raise ValueError(f"unknown format {format!r}")
    blob = f._emitted.get(key)
    if blob is None:  # setdefault: two threads that both make it keep one
        if f._family is None:
            blob = _render(f, key)
        else:
            target, real_embedded, k = f._family
            head, tail = _n_template(target, real_embedded)[key]
            blob = b"".join((head, str(k).encode(), tail))
        blob = f._emitted.setdefault(key, blob)
    return blob


#: The exponent an n-family's template is rendered at.  Its decimal text
#: occurs nowhere else in the template's documents, which _n_template checks.
_HOLE = 10**18 + 9

#: _n_template's memo: (target, real_embedded) -> {format: (head, tail)}.
#: parse reads its json entries and never adds one.
_templates: Dict[Tuple[str, bool], Dict[str, Tuple[bytes, bytes]]] = {}
_template_counts = [0, 0]  # hits, misses of _n_template


def _templates_clear() -> None:
    _templates.clear()
    _template_counts[:] = [0, 0]


register("formulas._n_template",
         lambda: MemoInfo(*_template_counts, len(_templates), 4),
         _templates_clear)


def _n_template(target: str, real_embedded: bool) -> Dict[str, Tuple[bytes, bytes]]:
    """{format: (head, tail)}: the documents of the target's member at
    n - 1 = _HOLE, split at the hole's text, for the four n-families (Jn,
    invJn, and campana with either combiner).  n reaches one node of these
    formulas, the exponent k = n - 1 of pow(y, k) in J_n's atom
    r - x y^k, and a document's layout does not depend on k: J_n's witness
    y occurs elsewhere only linearly, so pow(y, k) is never shared and never
    equal to another node, for any k >= 1.  So the member at any n has the
    documents head + str(n - 1) + tail, byte for byte.  InvariantError
    unless the hole's text occurs exactly once in every format.

    The template serves both directions: emit writes a member into it, and
    parse reads one back (_template_member).  It is rendered on a family's
    first emit, never by parse, and kept in _templates until clear_memos()."""
    key = (target, real_embedded)
    parts = _templates.get(key)
    if parts is not None:
        _template_counts[0] += 1
        return parts
    _template_counts[1] += 1
    f = TARGETS[target].build(_HOLE + 1, real_embedded)
    hole = str(_HOLE).encode()
    parts = {}
    for fmt in FORMATS:
        pieces = _render(f, fmt).split(hole)
        if len(pieces) != 2:
            raise InvariantError(f"the {fmt} template of {target} holds the hole "
                                 f"{_HOLE} {len(pieces) - 1} times, not once")
        parts[fmt] = tuple(pieces)
    return _templates.setdefault(key, parts)


#: The text of k that a template read takes: a canonical positive decimal,
#: at most 4,300 digits, the most int() reads from text by default.
_K_TEXT = re.compile(rb"[1-9][0-9]{0,4299}")


def _template_member(data) -> Optional[Formula]:
    """The member at n = k + 1, built and so tagged, if data is bytes that
    are exactly head + k + tail for the json template of a family that
    _n_template has rendered, with k as _K_TEXT writes it; None for any
    other document, a near miss such as k = "07" or " 6", a str or a
    bytearray included.  Never renders a template."""
    if type(data) is not bytes:
        return None
    # a copy: an emit in another thread may add a template meanwhile
    for (target, real_embedded), parts in tuple(_templates.items()):
        head, tail = parts["json"]
        if (data.startswith(head) and data.endswith(tail)
                and _K_TEXT.fullmatch(data, len(head), len(data) - len(tail))):
            k = int(data[len(head):len(data) - len(tail)])
            return TARGETS[target].build(k + 1, real_embedded)
    return None


def _render(f: Formula, format: str) -> bytes:
    """emit's bytes, rendered from scratch, for a format emit has checked:
    the one renderer, which _n_template renders with too, and the oracle
    the tests and `verify formulas` hold emit's splices to."""
    if format == "json":
        lay = f.layout()
        doc = {
            "free": list(f.free),
            "prefix": [[q, n] for q, n in f.prefix],
            "nodes": to_json(lay),
            "matrix": _emit_matrix(f.matrix, lay.index),
        }
        if f.real_embedded:
            doc["real_embedded"] = True
        return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
    if format == "sexpr":
        free = " ".join(f.free)
        prefix = " ".join(f"({q} {n})" for q, n in f.prefix)
        text = (f"(formula (free {free}) (prefix {prefix}) "
                f"(matrix {_text(f, 'sexpr')}))")
        return text.encode()
    quant = {"forall": r"\forall", "exists": r"\exists"}
    prefix = r"\,".join(f"{quant[q]} {n}" for q, n in f.prefix)
    return (prefix + r"\colon " + _text(f, 'latex')).encode()


_DOC_KEYS = {"free", "prefix", "nodes", "matrix"}


def parse(data: Union[bytes, str]) -> Formula:
    """Inverse of emit(..., 'json').  The node list goes through
    circuits.read_nodes, the reader Circuit(nodes) uses too, which checks,
    loads and interns each node as it is read.  Each node is an array such
    as ["add", i, j]; any such list whose children come first parses, also
    one that repeats nodes or holds nodes no atom reaches (documents written
    before the node list was shared), and each atom is the canonical circuit
    all the same.  A malformed document raises ValueError, and so does one
    that repeats a key in an object, of which json would keep the last.

    An n-family document is read through its family's template instead
    (_template_member): bytes that are exactly head + k + tail, for the
    json (head, tail) of a family that emit has rendered in this process
    and k a canonical positive decimal of at most 4,300 digits, are the
    member at n = k + 1, built as build_Jn, build_inv_Jn or build_campana
    builds it: the formula the reader would read, but tagged as the
    builder tags it, so that its emit is the splice.  parse never renders a
    template, so after clear_memos() such a document goes through the
    reader until an emit renders its template again; so does a str, a
    bytearray and any near miss.  3 of the 13 emit targets are families:
    campana(7) takes 0.14 ms where the reader takes 3.75, and Jn(7)
    0.05 ms where it takes 1.71; the premise, which has no family, takes
    2.47 ms (min of 15 in each of 9 processes, 2-core x86-64 Xeon;
    BENCH_56.json).

    The cyclic garbage collector is paused while parse runs, and turned
    back on when it returns or raises if it was on when the call began.
    json.loads makes one list per node and per prefix pair (6,491 and
    1,396 for campana(7)); none is in a cycle and all die by refcount once
    the document is dropped, which happens before the collector comes back
    on.  Left on, they set off about three young collections a parse and
    are promoted into the oldest generation, which then starts a full
    collection over every interned circuit about every 37 parses
    (BENCH_38.json).  A template read builds inside the pause too.  A
    thread that turns the collector off while another thread is inside
    parse sees it turned back on when that parse ends."""
    if not isinstance(data, (str, bytes, bytearray)):
        raise ValueError(f"a formula document is a str or bytes, "
                         f"not {type(data).__name__}")
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        f = _template_member(data)
        return f if f is not None else _read(data)
    finally:
        if paused:
            gc.enable()


def _read(data: Union[bytes, str]) -> Formula:
    """The reader: the formula of any document, read node by node; the
    reference a template read is held to."""
    try:
        return _parse_doc(json.loads(data, object_pairs_hook=_json_object))
    except RecursionError:
        raise ValueError("document nested too deeply") from None


def _json_object(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object, refused with ValueError if it repeats a key, of which
    json would keep only the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for k in keys if keys.count(k) > 1)
        raise ValueError(f"a formula document repeats the key {key!r}")
    return obj


def _parse_doc(doc) -> Formula:
    if not (isinstance(doc, dict)
            and _DOC_KEYS <= doc.keys() <= _DOC_KEYS | {"real_embedded"}):
        raise ValueError(f"a formula document has the keys {sorted(_DOC_KEYS)} "
                         f"and optionally 'real_embedded'")
    made = read_nodes(doc["nodes"])
    return Formula(doc["prefix"], _parse_matrix(doc["matrix"], made), doc["free"],
                   real_embedded=doc.get("real_embedded", False))


def _parse_matrix(m, made: List[Circuit]) -> MatrixNode:
    """The matrix of a document whose nodes are the circuits `made`.  (Not a
    closure: a recursive closure is a reference cycle, which would keep
    every circuit of the document alive until the cycle collector ran.)"""
    if not (isinstance(m, dict) and len(m) == 1):
        raise ValueError(f"a matrix node is a one-key object, not {m!r}")
    (kind, payload), = m.items()
    if kind in ("eq", "neq"):
        if not (type(payload) is int and 0 <= payload < len(made)):
            raise ValueError(f"an atom is a node index, not {payload!r}")
        return (kind, made[payload])
    if kind in ("and", "or") and isinstance(payload, list):
        return (kind, tuple(_parse_matrix(c, made) for c in payload))
    raise ValueError(f"bad matrix node {m!r}")
