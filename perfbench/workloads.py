"""The four benchmark workloads.

Each workload is built from the campana modules (passed in, so that the
tracer can patch them) and offers:

- requests(rng): an endless, seeded stream of requests;
- warmup(rng): a few requests run during set-up to fill caches;
- run(req): one user-level query, the only timed part;
- check(req, answer): problems found by an independent reference, as a
  list of strings (empty when the answer is right);
- finish(): problems from checks that check() deferred to the end of the
  run, so that their memory stays out of the peak-RSS reading;
- answer_bytes(answer): the size of the answer serialized as JSON.

Streams are stratified: every round of `round_size` requests holds each
kind once in a seeded order, and a run stops only at the end of a round, so
the request mix of a run does not depend on the seed.  Why each workload
exists, and the inputs it draws, are in README.md.
"""
from __future__ import annotations

import gc
import json
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, Iterator, List

import numpy as np


def _nonzero(rng, bound: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, bound)


class RequestTimeout(Exception):
    """A request ran past the workload's time bound."""


class GrowthBudgetExceeded(Exception):
    """A request kept more new objects alive than its budget allows."""


class GrowthBudget:
    """Fails the request in its `with` block once the block has allocated
    `objects` more gc-tracked objects (tuples, lists, instances, ...) than
    it has freed.

    CPython starts a young-generation collection each time the net count
    of tracked allocations passes gc.get_threshold()[0], so the number of
    collections in the block counts net growth.  The count depends only on
    what the block computes, never on the speed of the machine, so the same
    request always passes or always fails.  Once the budget runs out, a
    profile function raises GrowthBudgetExceeded at the block's next call
    (built-in calls included), or on leaving the block if none comes.
    """

    def __init__(self, objects: int):
        self.limit = objects // gc.get_threshold()[0]
        self.collections = 0

    def _error(self) -> GrowthBudgetExceeded:
        return GrowthBudgetExceeded(
            f"more than {self.limit} collections' worth of new objects")

    def _on_collection(self, phase, info):
        if phase == "stop":
            self.collections += 1
            if self.collections == self.limit + 1:
                sys.setprofile(self._stop)

    def _stop(self, frame, event, arg):
        # frame is the caller's for a built-in call; the budget's own
        # methods may run
        if event in ("call", "c_call") and frame.f_code not in _OWN_CODE:
            sys.setprofile(None)
            raise self._error()

    def __enter__(self):
        gc.collect(0)  # count from an empty young generation
        self.collections = 0
        gc.callbacks.append(self._on_collection)
        return self

    def __exit__(self, kind, value, tb):
        sys.setprofile(None)
        gc.callbacks.remove(self._on_collection)
        if kind is None and self.collections > self.limit:
            raise self._error()
        return False


_OWN_CODE = (GrowthBudget.__exit__.__code__, GrowthBudget._on_collection.__code__)


@contextmanager
def _time_limit(seconds: float):
    """Raise RequestTimeout in this thread once `seconds` have passed."""

    def expire(signum, frame):
        raise RequestTimeout(f"request exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    round_size = 1
    #: nominal requests per second on the reference machine; a run of
    #: --seconds sends that many seconds' worth (harness.request_count)
    rate = 1.0
    #: a run sends at least this many requests (harness.MIN_REQUESTS if less)
    min_requests = 0

    def __init__(self, cp):
        self.cp = cp
        #: tallies the traced run turns into work ratios
        self.counters: Dict[str, float] = {}

    def finish(self) -> List[str]:
        return []


# ---------------------------------------------------------------------------
# symbols: arith + places + the conic-scan kernel
# ---------------------------------------------------------------------------

class Symbols(Workload):
    """One request: a small integer pair (a, b) checked at every place in
    inf + {primes <= 50} against the scanning oracle (criterion 1), and a
    pair of rationals (x, y) run through delta, delta_upper, omega and
    reciprocity_check (criterion 2)."""

    name = "symbols"
    rate = 300.0

    def __init__(self, cp):
        super().__init__(cp)
        self.primes = cp.arith.primes_up_to(50)

    def requests(self, rng) -> Iterator[tuple]:
        while True:
            yield (_nonzero(rng, 50), _nonzero(rng, 50),
                   Fraction(_nonzero(rng, 10**4), rng.randint(1, 100)),
                   Fraction(_nonzero(rng, 10**4), rng.randint(1, 100)))

    def warmup(self, rng) -> List[tuple]:
        stream = self.requests(rng)
        return [next(stream) for _ in range(3)]

    def run(self, req):
        a, b, x, y = req
        pl = self.cp.places
        return {
            "symbols": [pl.hilbert(a, b, v) for v in ["inf"] + self.primes],
            "oracle": [pl.hilbert_oracle(a, b, p, pl.default_oracle_precision(a, b, p))
                       for p in self.primes],
            "delta": pl.delta(x, y),
            "delta_upper": pl.delta_upper(x, y),
            "omega": pl.omega(x, y, a, b),
            "reciprocity": pl.reciprocity_check(x, y),
        }

    def check(self, req, ans) -> List[str]:
        a, b, _, _ = req
        problems = []
        sign = -1 if a < 0 and b < 0 else 1
        if ans["symbols"][0] != sign:
            problems.append(f"(a,b)_inf = {ans['symbols'][0]}, sign rule says {sign}")
        for p, got, want in zip(self.primes, ans["symbols"][1:], ans["oracle"]):
            if got != want:
                problems.append(f"(a,b)_{p} = {got}, oracle says {want}")
        if len(ans["delta"]) % 2:
            problems.append(f"|delta| odd: {ans['delta']}")
        if not ans["reciprocity"]:
            problems.append("reciprocity_check is False")
        if ans["delta_upper"] & ans["delta"] != ans["delta_upper"]:
            problems.append("delta_upper is not inside delta")
        if ans["omega"] & ans["delta_upper"] != ans["omega"]:
            problems.append("omega is not inside delta_upper(x, y)")
        return problems

    def answer_bytes(self, ans) -> int:
        return len(json.dumps({k: v if isinstance(v, (list, bool)) else repr(v)
                               for k, v in ans.items()}))


# ---------------------------------------------------------------------------
# construct: parametrize + semantics
# ---------------------------------------------------------------------------

#: Step budget of one construct request: SearchConfig.candidate_cap, shared
#: by every find_b call of the construction.  A request that needs more
#: steps raises SearchExhausted and counts as failed.  About one |S| = 3
#: request in seven needs more (see README.md).
CONSTRUCT_STEP_CAP = 30_000
#: Growth budget of one construct request, in gc-tracked objects (see
#: GrowthBudget).  It bounds the work before the candidate search, which
#: the step cap does not reach: find_b first lists all 2^k subset products
#: of the k primes dividing a, two tuples each, so a request with k >= 17
#: fails here.  For |S| = 5, k reaches 22 and more, and the listing alone
#: would run for tens of seconds.
CONSTRUCT_GROWTH_BUDGET = 2**18
#: Wall-clock safety bound of one construct request.  Both budgets above
#: end every request well inside it; it only guards a run against a hang.
CONSTRUCT_SAFETY_S = 10.0


class Construct(Workload):
    """One request: construct_omega(S) with S drawn from the primes below
    100 and |S| uniform in 0..5, then twelve membership queries with known
    answers: in_Jn, in_inv_Jn and campana_member on r = prod p^n * u, on r
    with one exponent lowered to n - 1, and on both inverses."""

    name = "construct"
    round_size = 6
    rate = 9.0
    #: latency_p90_ms falls among the |S| = 5 failures, whose times spread
    #: with k, and latency_p50_ms among the |S| = 1 and 2 answers; 40
    #: rounds steady both (over ten seeds, 30 rounds left the median at a
    #: 9% spread, 40 at under 5%)
    min_requests = 240

    def __init__(self, cp):
        super().__init__(cp)
        self.pool = cp.arith.primes_up_to(100)
        self.others = cp.arith.primes_up_to(200)
        self.counters["search_steps"] = 0
        self._oracle_checks: List[tuple] = []

    def _draw(self, rng, size: int) -> dict:
        S = tuple(sorted(rng.sample(self.pool, size)))
        n = rng.randint(2, 5)
        q1, q2, d = rng.sample([p for p in self.others if p not in S], 3)
        # u: a unit at every p in S, with a known factorization
        unit = {q1: rng.randint(1, n + 1), q2: rng.randint(1, n + 1)}
        k = rng.choice((0, n - 1, n))
        if k:
            unit[d] = -k
        full = {p: n for p in S}
        full.update(unit)
        short = dict(full)
        if S:
            short[rng.choice(S)] = n - 1
        inv = lambda e: {p: -x for p, x in e.items()}  # noqa: E731
        return {"S": S, "n": n, "sign": rng.choice((1, -1)),
                "exponents": [full, short, inv(full), inv(short)]}

    def requests(self, rng) -> Iterator[dict]:
        while True:
            for size in rng.sample(range(6), 6):
                yield self._draw(rng, size)

    def warmup(self, rng) -> List[dict]:
        return [self._draw(rng, size) for size in (0, 1, 2)]

    @staticmethod
    def _value(sign: int, exponents: Dict[int, int]) -> Fraction:
        r = Fraction(sign)
        for p, e in exponents.items():
            r *= Fraction(p) ** e
        return r

    def run(self, req):
        pz, sem = self.cp.parametrize, self.cp.semantics
        S, n = req["S"], req["n"]
        cfg = pz.SearchConfig(candidate_cap=CONSTRUCT_STEP_CAP)
        try:
            with _time_limit(CONSTRUCT_SAFETY_S), GrowthBudget(CONSTRUCT_GROWTH_BUDGET):
                report = pz.construct_omega(S, cfg)
                abcd = (report.a, report.b, report.c, report.d)
                verdicts = []
                for e in req["exponents"]:
                    r = self._value(req["sign"], e)
                    verdicts += [sem.in_Jn(*abcd, n, r), sem.in_inv_Jn(*abcd, n, r),
                                 sem.campana_member(S, n, r)]
        finally:
            self.counters["search_steps"] += cfg.steps
        return {"report": report, "verdicts": verdicts}

    @staticmethod
    def expected(req) -> List[bool]:
        S, n = req["S"], req["n"]
        out = []
        for e in req["exponents"]:
            out += [all(e[p] >= n for p in S),
                    all(e[p] <= -n for p in S),
                    all(x >= 0 or x <= -n for p, x in e.items() if p not in S)]
        return out

    def check(self, req, ans) -> List[str]:
        rep = ans["report"]
        problems = []
        if not rep.success:
            problems.append(f"omega = {rep.achieved}, wanted {rep.target}")
        want = self.expected(req)
        if ans["verdicts"] != want:
            problems.append(f"membership verdicts {ans['verdicts']}, wanted {want}")
        # the oracle scans arrays of up to 97^3 entries: run it in finish()
        for x, y in {(rep.a, rep.b), (rep.c, rep.d)}:  # one pair for even |S|
            self._oracle_checks += [(x, y, p) for p in req["S"]]
        return problems

    def finish(self) -> List[str]:
        pl = self.cp.places
        problems = []
        for x, y, p in self._oracle_checks:
            sym = pl.hilbert_oracle(x, y, p, pl.default_oracle_precision(x, y, p))
            if sym != -1:
                problems.append(f"oracle ({x},{y})_{p} = {sym}, wanted -1")
        self._oracle_checks = []
        return problems

    def answer_bytes(self, ans) -> int:
        return len(json.dumps({**ans["report"].to_dict(), "verdicts": ans["verdicts"]}))


# ---------------------------------------------------------------------------
# compile: the write side of circuits, and formulas
# ---------------------------------------------------------------------------

#: The CLI emit targets: builder, whether it takes n, whether it has a
#: sum-of-squares (--real) variant.
TARGETS = {
    "S": ("build_S", False, False),
    "T": ("build_T", False, False),
    "Tunit": ("build_T_unit", False, False),
    "I": ("build_I", False, False),
    "J": ("build_J", False, False),
    "Jabcd": ("build_Jabcd", False, False),
    "invJ": ("build_inv_J", False, False),
    "disjoint": ("build_disjoint", False, False),
    "premise": ("build_premise", False, False),
    "Jn": ("build_Jn", True, False),
    "invJn": ("build_inv_Jn", True, False),
    "campana": ("build_campana", True, True),
    "integrality": ("build_integrality", False, True),
}

#: Hand-written criterion-4 ledger of the tower: (existentials, atoms,
#: degree); every tower formula is purely existential.
TOWER_LEDGER = {
    "S": (3, 1, 4), "T": (7, 2, 4), "Tunit": (15, 5, 4), "I": (34, 12, 4),
    "J": (138, 48, 4), "Jabcd": (277, 96, 4), "invJ": (278, 97, 4),
    "disjoint": (556, 193, 9), "premise": (834, 290, 9),
}


def expected_ledger(target: str, n: int, real: bool) -> tuple:
    """(universals, existentials, atoms, degree bound) of a target."""
    if target in TOWER_LEDGER:
        return (0,) + TOWER_LEDGER[target]
    if target == "Jn":
        return (0, 556, 193, max(n, 4))
    if target == "invJn":
        return (0, 557, 194, max(n, 4))
    if target == "campana":
        degree = max(2 * n + 19, 27) if real else max(194 * n + 2611, 3387)
        return (838, 558, 1, degree)
    # integrality: the premise (degree 2610, or 18 as a sum of squares)
    # against the J(abcd) conclusion (96 atoms of degree 4)
    return (838, 278, 1, 27 if real else 2611 + 96 * 4)


class Compile(Workload):
    """One request: build a seeded CLI emit target, then stats, emit as
    json, sexpr and latex, parse the json and compare with the original."""

    name = "compile"
    round_size = len(TARGETS)
    rate = 27.0

    def __init__(self, cp):
        super().__init__(cp)
        self.counters.update(emitted_nodes=0, stored_nodes=0)

    def _draw(self, rng, target: str) -> tuple:
        _, takes_n, has_real = TARGETS[target]
        n = rng.randint(2, 100) if takes_n else None
        real = has_real and rng.random() < 0.5
        return (target, n, real)

    def requests(self, rng) -> Iterator[tuple]:
        while True:
            for target in rng.sample(sorted(TARGETS), len(TARGETS)):
                yield self._draw(rng, target)

    def warmup(self, rng) -> List[tuple]:
        return [self._draw(rng, t) for t in ("S", "premise", "campana")]

    def run(self, req):
        fm = self.cp.formulas
        target, n, real = req
        builder, takes_n, has_real = TARGETS[target]
        args = ((n,) if takes_n else ()) + ((real,) if has_real else ())
        f = getattr(fm, builder)(*args)
        st = fm.stats(f)
        js = fm.emit(f, "json")
        sexpr, latex = fm.emit(f, "sexpr"), fm.emit(f, "latex")
        same = fm.parse(js) == f
        return {"formula": f, "stats": st, "json": js, "sexpr_bytes": len(sexpr),
                "latex_bytes": len(latex), "round_trip": same}

    def check(self, req, ans) -> List[str]:
        target, n, real = req
        st = ans["stats"]
        problems = []
        got = (st.universals, st.existentials, st.atoms, st.degree_bound)
        want = expected_ledger(target, n, real)
        if got != want:
            problems.append(f"ledger {got}, wanted {want}")
        if st.real_embedded != real:
            problems.append(f"real_embedded {st.real_embedded}, wanted {real}")
        if not ans["round_trip"]:
            problems.append("parse(emit(f)) != f")
        if not (ans["sexpr_bytes"] and ans["latex_bytes"]):
            problems.append("empty sexpr or latex rendering")
        # tallies for formulas.emit.node_ratio; each JSON node has one "op"
        self.counters["emitted_nodes"] += ans["json"].count(b'"op":')
        self.counters["stored_nodes"] += sum(
            len(c.nodes) for c in {id(c): c for c in ans["formula"].atoms()}.values())
        return problems

    def answer_bytes(self, ans) -> int:
        return len(ans["json"])


# ---------------------------------------------------------------------------
# certify: the read side of circuits, and the norm kernels
# ---------------------------------------------------------------------------

#: Points per request for each combiner block.  On the pure-Python backend
#: S, J and invJn(2) take about 50 ms of point work per request and
#: premise (n = 290, the costliest per point) about 100 ms, so a quarter of
#: the requests form a cluster of their own at the top.  The 90th
#: percentile then falls inside that cluster rather than in the tail of a
#: single one, where clock-scaling noise sits (see harness.SpeedProbe).
CERTIFY_BATCH = {"S": 16384, "J": 64, "invJn(2)": 5, "premise": 4}


class Certify(Workload):
    """One request: the criterion-7 zero-set certification of one combiner
    block at a batch of integer points in [-50, 50] (residues of the atoms
    by evaluate_vec mod the first CRT prime, norm_mod per point, the next
    primes and then norm_is_zero for points left at zero), plus one exact
    norm_value of the J-block atoms (n = 48) and one expanded norm_form(n),
    n <= 6, against norm_value at a rational point."""

    name = "certify"
    round_size = len(CERTIFY_BATCH)
    rate = 10.0

    def __init__(self, cp):
        super().__init__(cp)
        fm = cp.formulas
        self.blocks = {
            "S": fm.build_S().atoms(),
            "J": fm.build_J().atoms(),
            "invJn(2)": fm.build_inv_Jn(2).atoms(),
            "premise": fm.build_premise().atoms(),
        }
        self.names = {label: sorted({v for c in atoms for v in c.free_vars()})
                      for label, atoms in self.blocks.items()}
        self.norm_forms = {n: fm.norm_form(n) for n in range(1, 7)}

    def _draw(self, rng, label: str) -> dict:
        batch = CERTIFY_BATCH[label]
        n = rng.randint(1, 6)
        vec = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(n)]
        if not any(vec):
            vec[0] = Fraction(1)
        return {
            "block": label,
            "points": {nm: [rng.randint(-50, 50) for _ in range(batch)]
                       for nm in self.names[label]},
            "sampled": rng.sample(range(batch), 2),
            "j_point": {nm: rng.randint(-50, 50) for nm in self.names["J"]},
            "vec": vec,
        }

    def requests(self, rng) -> Iterator[dict]:
        while True:
            for label in rng.sample(sorted(self.blocks), len(self.blocks)):
                yield self._draw(rng, label)

    def warmup(self, rng) -> List[dict]:
        return [self._draw(rng, "J")]

    def run(self, req):
        kn = self.cp.kernels
        atoms = self.blocks[req["block"]]
        env = {nm: np.array(v, dtype=np.int64) for nm, v in req["points"].items()}
        batch = len(next(iter(env.values())))
        nonzero = [False] * batch
        pending = np.arange(batch)
        first = None
        for q in kn.crt_primes(3):
            sub = {nm: v[pending] for nm, v in env.items()}
            residues = np.stack([np.broadcast_to(c.evaluate_vec(sub, q), pending.shape)
                                 for c in atoms])
            if first is None:
                first = residues
            left = []
            for col, j in enumerate(pending):
                vals = [int(x) for x in residues[:, col]]
                if any(vals) and kn.norm_mod(vals, q) != 0:
                    nonzero[j] = True
                else:
                    left.append(j)
            pending = np.array(left, dtype=np.int64)
            if not len(pending):
                break
        exact = {}
        for j in pending:
            point = {nm: int(v[j]) for nm, v in env.items()}
            vals = [c.evaluate(point) for c in atoms]
            exact[int(j)] = (vals, kn.norm_is_zero(vals))
        j_vals = [c.evaluate(req["j_point"]) for c in self.blocks["J"]]
        vec = req["vec"]
        form = self.norm_forms[len(vec)]
        return {
            "nonzero": nonzero,
            "first_residues": first,
            "exact": exact,
            "j_vals": j_vals,
            "j_norm": kn.norm_value(j_vals),
            "form_value": form.evaluate({f"y{i + 1}": v for i, v in enumerate(vec)}),
            "norm_value": kn.norm_value(vec),
        }

    def check(self, req, ans) -> List[str]:
        kn = self.cp.kernels
        atoms = self.blocks[req["block"]]
        q = kn.crt_primes(1)[0]
        problems = []
        for j in req["sampled"]:
            point = {nm: v[j] for nm, v in req["points"].items()}
            want = [c.evaluate_mod(point, q) for c in atoms]
            got = [int(x) for x in ans["first_residues"][:, j]]
            if got != want:
                problems.append(f"evaluate_vec residues differ from evaluate_mod at point {j}")
        for j, (vals, zero) in ans["exact"].items():
            if zero != all(v == 0 for v in vals):
                problems.append(f"norm_is_zero {zero} at point {j}, atoms {vals}")
        if (ans["j_norm"] == 0) != all(v == 0 for v in ans["j_vals"]):
            problems.append(f"J-block norm {ans['j_norm']} breaks anisotropy")
        if ans["form_value"] != ans["norm_value"]:
            problems.append(f"norm_form {ans['form_value']} != norm_value {ans['norm_value']}")
        if ans["form_value"] == 0:
            problems.append(f"norm_form vanishes at nonzero {req['vec']}")
        return problems

    def answer_bytes(self, ans) -> int:
        return len(json.dumps({
            "nonzero": sum(ans["nonzero"]),
            "exact_zero": {j: z for j, (_, z) in ans["exact"].items()},
            "j_norm": str(ans["j_norm"]),
            "norm_value": str(ans["norm_value"]),
        }))


WORKLOADS = {cls.name: cls for cls in (Symbols, Construct, Compile, Certify)}
