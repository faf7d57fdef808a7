"""Seeded property suites behind the `verify` CLI command.

Each suite returns a list of (name, passed, detail) rows; a failing row's
detail is a replayable description of the first counterexample.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from . import arith, formulas as fm, kernels, parametrize, places, semantics
from .circuits import OPS, Circuit, fold_nodes
from .memo import clear_memos

Row = Tuple[str, bool, str]


def _sample_rational(rng: random.Random, num: int = 10**6, den: int = 1000) -> Fraction:
    n = rng.randint(-num, num)
    d = rng.randint(1, den)
    return Fraction(n if n else 1, d)


def suite_hilbert(seed: int, samples: int) -> List[Row]:
    rng = random.Random(seed)
    rows: List[Row] = []

    bad = None
    oracle_trials = min(samples, 2000)
    for _ in range(oracle_trials):
        a = rng.randint(-50, 50) or 1
        b = rng.randint(-50, 50) or 1
        p = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23])
        got = places.hilbert(a, b, p)
        want = places.hilbert_oracle(a, b, p, places.default_oracle_precision(a, b, p))
        if got != want:
            bad = f"hilbert({a},{b},{p}) = {got}, oracle says {want}"
            break
    rows.append((f"symbol vs oracle ({oracle_trials} trials)", bad is None, bad or "agree"))

    bad = None
    for _ in range(samples):
        a, b = _sample_rational(rng, 10**4, 100), _sample_rational(rng, 10**4, 100)
        if not places.reciprocity_check(a, b):
            bad = f"product formula fails for a={a}, b={b}"
            break
    rows.append((f"reciprocity ({samples} pairs)", bad is None, bad or "product is +1"))

    bad = None
    for _ in range(min(samples, 500)):
        a = _sample_rational(rng, 1000, 50)
        v = rng.choice(["inf", 2, 3, 5, 7, 11, 10007])
        if arith.is_square_local(a, v):
            continue
        b = places.find_local_counterexample(a, v)
        if places.hilbert(a, b, v) != -1:
            bad = f"find_local_counterexample({a},{v}) = {b} but symbol is +1"
            break
    rows.append(("local counterexamples ramify", bad is None, bad or "all -1"))
    return rows


def suite_construct(seed: int, samples: int) -> List[Row]:
    rng = random.Random(seed)
    rows: List[Row] = []
    small = [p for p in arith.primes_up_to(100)]
    trials = [sorted(rng.sample(small, rng.randint(0, 6)))
              for _ in range(min(samples, 50))]
    trials += [list(s) for k in range(5)
               for s in itertools.combinations([2, 3, 5, 7], k)]
    bad = None
    for S in trials:
        try:
            report = parametrize.construct_omega(S)
        except Exception as exc:
            bad = f"construct_omega({S}) raised {exc!r}"
            break
        if not report.success:
            bad = f"construct_omega({S}) achieved {report.achieved}"
            break
    rows.append((f"round trip ({len(trials)} sets)",
                 bad is None, bad or "achieved = target"))
    return rows


def suite_semantics(seed: int, samples: int) -> List[Row]:
    rng = random.Random(seed)
    rows: List[Row] = []

    bad = None
    for _ in range(samples):
        x0 = rng.randint(-10**6, 10**6)
        x1 = rng.randint(1, 10**6)
        n = rng.randint(1, 6)
        S = sorted(rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 3)))
        via = semantics.campana_via_coordinates(x0, x1, S, n)
        direct = semantics.campana_member(S, n, Fraction(x0, x1))
        if via != direct:
            bad = f"(x0,x1,S,n)=({x0},{x1},{S},{n}): coords {via}, direct {direct}"
            break
    rows.append((f"coordinate equivalence ({samples} samples)",
                 bad is None, bad or "equivalent"))

    bad = None
    for _ in range(samples):
        r = _sample_rational(rng, 10**5, 1024)
        S = sorted(rng.sample([2, 3, 5, 7], rng.randint(0, 2)))
        if not semantics.campana_member(S, 1, r):
            bad = f"r={r}, S={S} rejected at n=1"
            break
        prev = semantics.campana_member(S, 11, r)
        for n in range(10, 0, -1):
            cur = semantics.campana_member(S, n, r)
            if prev and not cur:
                bad = f"r={r}, S={S}: member at n={n+1} but not n={n}"
                break
            prev = cur
        if bad:
            break
        if semantics.s_integer_member(S, r):
            if not all(semantics.campana_member(S, n, r) for n in range(1, 11)):
                bad = f"integer r={r}, S={S} missing from some level"
                break
    rows.append((f"filtration ({samples} samples)", bad is None, bad or "monotone"))

    bad = None
    for i in range(min(samples, 1000)):
        a = rng.randint(-20, 20) or 1
        b = rng.randint(-20, 20) or 1
        t, w = semantics.generate_trace_element(a, b, seed + i)
        if t*t - 4*a*w[1]**2 - 4*b*w[2]**2 + 4*a*b*w[3]**2 != 4:
            bad = f"trace witness broken for a={a}, b={b}, seed={seed+i}"
            break
    rows.append(("trace witnesses on the conic", bad is None, bad or "exact"))
    return rows


def _atom_indices(m: dict) -> List[int]:
    """The root node indices of the atoms of a json document's matrix."""
    (kind, payload), = m.items()
    if kind in ("and", "or"):
        return [i for kid in payload for i in _atom_indices(kid)]
    return [payload]


def suite_formulas(seed: int, samples: int) -> List[Row]:
    rng = random.Random(seed)
    rows: List[Row] = []
    degree_rules = {op: row.degree for op, row in OPS.items()}

    cases = [(name, n, real) for name, t in fm.TARGETS.items()
             for n in ((2, 7, 100) if t.takes_n else (None,))
             for real in ((False, True) if t.has_real else (False,))]
    bad = bad_trip = bad_family = bad_read = bad_fold = None
    warm = []
    for name, n, real in cases:
        target = fm.TARGETS[name]
        f = target.build(n, real)
        got = fm.stats(f)
        want = fm.FormulaStats(*target.ledger(n, real), real_embedded=real)
        if bad is None and got != want:
            bad = f"{name}(n={n}, real={real}): {got}, expected {want}"
        warm.append([fm.emit(f, fmt) for fmt in fm.FORMATS])
        parsed = fm.parse(warm[-1][0])
        if bad_trip is None and parsed != f:
            bad_trip = f"{name}(n={n}, real={real}) changes under emit/parse"
        # the document's own node list, folded by the degree rules as it
        # stands, nothing interned, gives its largest atom the ledger degree
        doc = json.loads(warm[-1][0])
        degrees = fold_nodes(doc["nodes"], degree_rules, {})
        top = max(degrees[i] for i in _atom_indices(doc["matrix"]))
        if bad_fold is None and top != want.degree_bound:
            bad_fold = (f"{name}(n={n}, real={real}): its document folds to degree "
                        f"{top}, expected {want.degree_bound}")
        # parse reads an n-family member's json through its family's
        # template; the reader itself must give the same formula
        if bad_read is None and target.takes_n and parsed != fm._read(warm[-1][0]):
            bad_read = f"{name}(n={n}, real={real}) parses other than the reader reads"
        # an n-family member's documents are spliced into its family's
        # template; the renderer itself must give the same bytes
        differ = [fmt for fmt, blob in zip(fm.FORMATS, warm[-1])
                  if target.takes_n and blob != fm._render(f, fmt)]
        if bad_family is None and differ:
            bad_family = (f"{name}(n={n}, real={real}) emits other "
                          f"{'/'.join(differ)} than a fresh render")
    rows.append((f"quantifier/atom/degree ledger ({len(cases)} builds)",
                 bad is None, bad or "exact match"))
    rows.append((f"emit/parse round trip ({len(cases)} builds)",
                 bad_trip is None, bad_trip or "identity"))
    rows.append((f"documents fold to the ledger degree ({len(cases)} builds)",
                 bad_fold is None, bad_fold or "exact match"))
    families = sum(1 for name, _, _ in cases if fm.TARGETS[name].takes_n)
    rows.append((f"n-family emits equal a fresh render ({families} builds)",
                 bad_family is None, bad_family or "same bytes"))
    rows.append((f"n-family parses equal a fresh read ({families} builds)",
                 bad_read is None, bad_read or "same formula"))

    # each build again from empty memos: the formula builders' and the
    # J(a,b,c,d) blocks' memos, and the bytes emit keeps on a formula, must
    # give in every format the bytes a build from scratch gives
    bad = None
    for (name, n, real), blobs in zip(cases, warm):
        clear_memos()
        cold = fm.TARGETS[name].build(n, real)
        differ = [fmt for fmt, blob in zip(fm.FORMATS, blobs) if fm.emit(cold, fmt) != blob]
        if differ:
            bad = f"{name}(n={n}, real={real}) emits other {'/'.join(differ)} when built cold"
            break
    rows.append((f"cold and warm builds agree ({len(cases)} builds)",
                 bad is None, bad or "same bytes"))

    bad = None
    x, y = Circuit.var("x"), Circuit.var("y")
    pair = fm.combine_pair(x, y)
    for _ in range(min(samples, 2000)):
        px = _sample_rational(rng, 100, 10) if rng.random() < 0.8 else Fraction(0)
        py = _sample_rational(rng, 100, 10) if rng.random() < 0.8 else Fraction(0)
        want = px == 0 and py == 0
        if (pair.evaluate({"x": px, "y": py}) == 0) != want:
            bad = f"combine_pair zero set broken at ({px},{py})"
            break
    rows.append(("combine_pair zero set", bad is None, bad or "preserved"))

    bad = None
    for n in range(1, 7):
        nf = fm.norm_form(n)
        if nf.degree() != n:
            bad = f"norm_form({n}) degree {nf.degree()}"
            break
        lam = Fraction(rng.randint(2, 9))
        pt = {f"y{i+1}": Fraction(rng.randint(-30, 30)) for i in range(n)}
        scaled = {k: lam * v for k, v in pt.items()}
        if nf.evaluate(scaled) != lam**n * nf.evaluate(pt):
            bad = f"norm_form({n}) not homogeneous at {pt}"
            break
        for _ in range(min(samples, 200)):
            pt = [_sample_rational(rng, 50, 8) for _ in range(n)]
            value = nf.evaluate({f"y{i+1}": v for i, v in enumerate(pt)})
            if value == 0 or value != kernels.norm_value(pt):
                bad = (f"norm_form({n}) is {value} at nonzero {pt}, "
                       f"the norm kernel {kernels.norm_value(pt)}")
                break
        if bad:
            break
    rows.append(("norm forms anisotropic + homogeneous", bad is None, bad or "ok"))
    return rows


SUITES: Dict[str, Callable[[int, int], List[Row]]] = {
    "hilbert": suite_hilbert,
    "construct": suite_construct,
    "semantics": suite_semantics,
    "formulas": suite_formulas,
}


def run(suite: str, seed: int = 42, samples: int = 1000) -> Tuple[bool, str]:
    """Run one suite (or 'all'); returns (all_passed, printable table).
    suite is a str, 'all' or a SUITES key, and seed and samples are
    integers; anything else is a ValueError.  samples < 1 would pass
    without testing anything, so it is refused too.  The formulas suite
    empties every process-wide memo (clear_memos, once per build it checks
    cold), so a caller's warm memos are gone when it returns."""
    if not (type(suite) is str and (suite == "all" or suite in SUITES)):
        raise ValueError(f"unknown suite {suite!r}")
    seed, samples = arith.integer(seed, "seed"), arith.integer(samples, "samples")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    names = list(SUITES) if suite == "all" else [suite]
    lines = []
    ok = True
    for name in names:
        for label, passed, detail in SUITES[name](seed, samples):
            ok &= passed
            mark = "PASS" if passed else "FAIL"
            lines.append(f"{mark}  {name}: {label} -- {detail}")
    lines.append("all suites passed" if ok else "FAILURES above")
    return ok, "\n".join(lines)
