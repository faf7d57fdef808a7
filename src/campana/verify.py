"""Seeded property suites behind the `verify` CLI command.

Each suite returns a list of (name, passed, detail) rows.  A row is a
label, a generator that yields counterexamples, and the detail shown when
it yields none; `_row` reads every one.  A failing row's detail is a
replayable description of its first counterexample, and only that one is
drawn, so the random draws of later rows do not depend on how many more
there are.  A check that raises is its row's failure, with the detail
"raised ...", and the suite's later rows still run; a suite whose own
set-up raises is one failing row, "set-up".
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Tuple

from . import arith, formulas as fm, kernels, parametrize, places, semantics
from .circuits import OPS, Circuit, fold_nodes
from .memo import clear_memos

Row = Tuple[str, bool, str]


def _row(label: str, counterexamples: Iterator[str], holds: str) -> Row:
    """The row of one check: the first counterexample the generator
    yields, or holds when it yields none, and "raised ..." when it raises."""
    try:
        bad = next(counterexamples, None)
    except Exception as exc:
        bad = f"raised {exc!r}"
    return label, bad is None, holds if bad is None else bad


def _documents(f: fm.Formula) -> List[bytes]:
    """f's bytes in every format, in the order of formulas.FORMATS."""
    return [fm.emit(f, fmt) for fmt in fm.FORMATS]


def _sample_rational(rng: random.Random, num: int = 10**6, den: int = 1000) -> Fraction:
    n = rng.randint(-num, num)
    d = rng.randint(1, den)
    return Fraction(n if n else 1, d)


def suite_hilbert(seed: int, samples: int) -> List[Row]:
    rng = random.Random(seed)
    oracle_trials = min(samples, 2000)

    def oracle_disagreements():
        for _ in range(oracle_trials):
            a = rng.randint(-50, 50) or 1
            b = rng.randint(-50, 50) or 1
            p = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23])
            got = places.hilbert(a, b, p)
            want = places.hilbert_oracle(a, b, p, places.default_oracle_precision(a, b, p))
            if got != want:
                yield f"hilbert({a},{b},{p}) = {got}, oracle says {want}"

    def reciprocity_failures():
        for _ in range(samples):
            a, b = _sample_rational(rng, 10**4, 100), _sample_rational(rng, 10**4, 100)
            if not places.reciprocity_check(a, b):
                yield f"product formula fails for a={a}, b={b}"

    def unramified_counterexamples():
        for _ in range(min(samples, 500)):
            a = _sample_rational(rng, 1000, 50)
            v = rng.choice(["inf", 2, 3, 5, 7, 11, 10007])
            if arith.is_square_local(a, v):
                continue
            b = places.find_local_counterexample(a, v)
            if places.hilbert(a, b, v) != -1:
                yield f"find_local_counterexample({a},{v}) = {b} but symbol is +1"

    return [
        _row(f"symbol vs oracle ({oracle_trials} trials)", oracle_disagreements(), "agree"),
        _row(f"reciprocity ({samples} pairs)", reciprocity_failures(), "product is +1"),
        _row("local counterexamples ramify", unramified_counterexamples(), "all -1"),
    ]


def suite_construct(seed: int, samples: int) -> List[Row]:
    rng = random.Random(seed)
    small = arith.primes_up_to(100)
    trials = [sorted(rng.sample(small, rng.randint(0, 6)))
              for _ in range(min(samples, 50))]
    trials += [list(s) for k in range(5)
               for s in itertools.combinations([2, 3, 5, 7], k)]

    def misses():
        for S in trials:
            try:
                report = parametrize.construct_omega(S)
            except Exception as exc:  # named with its S, which _row cannot
                yield f"construct_omega({S}) raised {exc!r}"
                continue
            if not report.success:
                yield f"construct_omega({S}) achieved {report.achieved}"

    return [_row(f"round trip ({len(trials)} sets)", misses(), "achieved = target")]


def suite_semantics(seed: int, samples: int) -> List[Row]:
    rng = random.Random(seed)

    def coordinate_disagreements():
        for _ in range(samples):
            x0 = rng.randint(-10**6, 10**6)
            x1 = rng.randint(1, 10**6)
            n = rng.randint(1, 6)
            S = sorted(rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 3)))
            via = semantics.campana_via_coordinates(x0, x1, S, n)
            direct = semantics.campana_member(S, n, Fraction(x0, x1))
            if via != direct:
                yield f"(x0,x1,S,n)=({x0},{x1},{S},{n}): coords {via}, direct {direct}"

    def filtration_breaks():
        for _ in range(samples):
            r = _sample_rational(rng, 10**5, 1024)
            S = sorted(rng.sample([2, 3, 5, 7], rng.randint(0, 2)))
            if not semantics.campana_member(S, 1, r):
                yield f"r={r}, S={S} rejected at n=1"
            prev = semantics.campana_member(S, 11, r)
            for n in range(10, 0, -1):
                cur = semantics.campana_member(S, n, r)
                if prev and not cur:
                    yield f"r={r}, S={S}: member at n={n+1} but not n={n}"
                prev = cur
            if semantics.s_integer_member(S, r) and not all(
                    semantics.campana_member(S, n, r) for n in range(1, 11)):
                yield f"integer r={r}, S={S} missing from some level"

    def broken_traces():
        for i in range(min(samples, 1000)):
            a = rng.randint(-20, 20) or 1
            b = rng.randint(-20, 20) or 1
            t, w = semantics.generate_trace_element(a, b, seed + i)
            if t*t - 4*a*w[1]**2 - 4*b*w[2]**2 + 4*a*b*w[3]**2 != 4:
                yield f"trace witness broken for a={a}, b={b}, seed={seed+i}"

    return [
        _row(f"coordinate equivalence ({samples} samples)",
             coordinate_disagreements(), "equivalent"),
        _row(f"filtration ({samples} samples)", filtration_breaks(), "monotone"),
        _row("trace witnesses on the conic", broken_traces(), "exact"),
    ]


def _atom_indices(m: dict) -> List[int]:
    """The root node indices of the atoms of a json document's matrix."""
    (kind, payload), = m.items()
    if kind in ("and", "or"):
        return [i for kid in payload for i in _atom_indices(kid)]
    return [payload]


def suite_formulas(seed: int, samples: int) -> List[Row]:
    rng = random.Random(seed)
    degree_rules = {op: row.degree for op, row in OPS.items()}
    # (case, target, n, real, its bytes in every format): each case is
    # built once here and only its bytes are kept, so that no formula of
    # this warm pass is alive when the cold row builds; a row that needs
    # the formula builds it again
    cases = [(f"{name}(n={n}, real={real})", t, n, real, _documents(t.build(n, real)))
             for name, t in fm.TARGETS.items()
             for n in ((2, 7, 100) if t.takes_n else (None,))
             for real in ((False, True) if t.has_real else (False,))]
    families = [case for case in cases if case[1].takes_n]

    def ledger_misses():
        for what, t, n, real, _ in cases:
            got = fm.stats(t.build(n, real))
            want = fm.FormulaStats(*t.ledger(n, real), real_embedded=real)
            if got != want:
                yield f"{what}: {got}, expected {want}"

    def round_trip_changes():
        for what, t, n, real, blobs in cases:
            if fm.parse(blobs[0]) != t.build(n, real):
                yield f"{what} changes under emit/parse"

    def misfolded_documents():
        # the document's own node list, folded by the degree rules as it
        # stands, nothing interned, gives its largest atom the ledger degree
        for what, t, n, real, blobs in cases:
            doc = json.loads(blobs[0])
            degrees = fold_nodes(doc["nodes"], degree_rules, {})
            top = max(degrees[i] for i in _atom_indices(doc["matrix"]))
            want = fm.FormulaStats(*t.ledger(n, real)).degree_bound
            if top != want:
                yield f"{what}: its document folds to degree {top}, expected {want}"

    def unlike_a_fresh_render():
        # an n-family member's documents are spliced into its family's
        # template; the renderer itself must give the same bytes
        for what, t, n, real, blobs in families:
            f = t.build(n, real)
            differ = [fmt for fmt, blob in zip(fm.FORMATS, blobs) if blob != fm._render(f, fmt)]
            if differ:
                yield f"{what} emits other {'/'.join(differ)} than a fresh render"

    def unlike_a_fresh_read():
        # parse reads an n-family member's json through its family's
        # template; the reader itself must give the same formula
        for what, _, _, _, blobs in families:
            if fm.parse(blobs[0]) != fm._read(blobs[0]):
                yield f"{what} parses other than the reader reads"

    def unlike_a_cold_build():
        # each build again from empty memos: the formula builders' and the
        # J(a,b,c,d) blocks' memos, and the bytes emit keeps on a formula,
        # must give in every format the bytes a build from scratch gives
        for what, t, n, real, blobs in cases:
            clear_memos()
            cold = _documents(t.build(n, real))
            differ = [fmt for fmt, blob, got in zip(fm.FORMATS, blobs, cold) if got != blob]
            if differ:
                yield f"{what} emits other {'/'.join(differ)} when built cold"

    def pair_zero_set_misses():
        pair = fm.combine_pair(Circuit.var("x"), Circuit.var("y"))
        for _ in range(min(samples, 2000)):
            px = _sample_rational(rng, 100, 10) if rng.random() < 0.8 else Fraction(0)
            py = _sample_rational(rng, 100, 10) if rng.random() < 0.8 else Fraction(0)
            if (pair.evaluate({"x": px, "y": py}) == 0) != (px == 0 and py == 0):
                yield f"combine_pair zero set broken at ({px},{py})"

    def norm_form_faults():
        for n in range(1, 7):
            nf = fm.norm_form(n)
            if nf.degree() != n:
                yield f"norm_form({n}) degree {nf.degree()}"
            lam = Fraction(rng.randint(2, 9))
            pt = {f"y{i+1}": Fraction(rng.randint(-30, 30)) for i in range(n)}
            scaled = {k: lam * v for k, v in pt.items()}
            if nf.evaluate(scaled) != lam**n * nf.evaluate(pt):
                yield f"norm_form({n}) not homogeneous at {pt}"
            for _ in range(min(samples, 200)):
                pt = [_sample_rational(rng, 50, 8) for _ in range(n)]
                value = nf.evaluate({f"y{i+1}": v for i, v in enumerate(pt)})
                if value == 0 or value != kernels.norm_value(pt):
                    yield (f"norm_form({n}) is {value} at nonzero {pt}, "
                           f"the norm kernel {kernels.norm_value(pt)}")

    builds, family_builds = f"({len(cases)} builds)", f"({len(families)} builds)"
    return [
        _row(f"quantifier/atom/degree ledger {builds}", ledger_misses(), "exact match"),
        _row(f"emit/parse round trip {builds}", round_trip_changes(), "identity"),
        _row(f"documents fold to the ledger degree {builds}",
             misfolded_documents(), "exact match"),
        _row(f"n-family emits equal a fresh render {family_builds}",
             unlike_a_fresh_render(), "same bytes"),
        _row(f"n-family parses equal a fresh read {family_builds}",
             unlike_a_fresh_read(), "same formula"),
        _row(f"cold and warm builds agree {builds}", unlike_a_cold_build(), "same bytes"),
        _row("combine_pair zero set", pair_zero_set_misses(), "preserved"),
        _row("norm forms anisotropic + homogeneous", norm_form_faults(), "ok"),
    ]


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
    without testing anything, so it is refused too.  Past these checks
    nothing raises: a check that raises, a ValueError included, is a
    failing row that names what it raised, and a suite whose set-up
    raises is one failing row, "set-up".  The formulas suite empties every
    process-wide memo (clear_memos, once per build it checks cold), so a
    caller's warm memos are gone when it returns."""
    if not (type(suite) is str and (suite == "all" or suite in SUITES)):
        raise ValueError(f"unknown suite {suite!r}")
    seed, samples = arith.integer(seed, "seed"), arith.integer(samples, "samples")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    names = list(SUITES) if suite == "all" else [suite]
    lines = []
    ok = True
    for name in names:
        try:
            rows = SUITES[name](seed, samples)
        except Exception as exc:
            rows = [("set-up", False, f"raised {exc!r}")]
        for label, passed, detail in rows:
            ok &= passed
            mark = "PASS" if passed else "FAIL"
            lines.append(f"{mark}  {name}: {label} -- {detail}")
    lines.append("all suites passed" if ok else "FAILURES above")
    return ok, "\n".join(lines)
