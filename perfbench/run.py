"""Run one campana benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is symbols, construct, compile or certify (see README.md), or all,
which runs the four in turn, each in its own process.  The package is
imported from src/ next to this directory; nothing is built or installed.

A run sends a fixed number of requests, --seconds of work at the
workload's nominal rate on the reference machine (see harness.py), so the
same seed and --seconds give the same requests, answers and failures.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
first runs half that work untraced, then replays the same requests with a
span wrapper on every public layer function, and reports per-layer calls
and self time per request, a few work ratios, the tracing overhead and the
kernel micro rows.  Every line before the last is for people; the last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Every answer is checked against an independent reference outside the timed
span.  A wrong answer makes the run exit with status 1; a failed request
(an exception, such as SearchExhausted) is counted, not fatal.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

START = time.perf_counter()
# one thread: pin BLAS before the modules below load numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

from harness import (SpeedProbe, closed_loop,  # noqa: E402
                     end_to_end_metrics, environment, request_count)
from kernelrows import kernel_rows  # noqa: E402
from tracing import LAYERS, Tracer, span_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up (fresh import, inputs, pre-builds, warm-up) runs this many times;
#: setup_s is the median, scaled like every other time.
SETUP_REPEATS = 9
#: Stop sending requests this long after start, whatever the counts, so a
#: run always ends well inside three minutes.
WALL_LIMIT_S = 140.0
MODULES = ("arith", "places", "kernels", "parametrize", "semantics",
           "circuits", "formulas")


def load_campana() -> SimpleNamespace:
    """Import campana afresh from SRC and return its layer modules."""
    for name in [m for m in sys.modules if m == "campana" or m.startswith("campana.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("campana")
    where = Path(pkg.__file__).resolve().parent
    if where != SRC / "campana":
        raise ImportError(f"campana imported from {where}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"campana.{m}")
                              for m in MODULES})


def set_up(name: str, probe: SpeedProbe):
    """Fresh import, workload construction and warm-up, SETUP_REPEATS
    times; returns the last (modules, workload) and every duration, scaled
    to the reference machine."""
    durations = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous repeat's modules, outside the timing
        before = probe.update()
        t0 = time.perf_counter()
        cp = load_campana()
        wl = WORKLOADS[name](cp)
        # the same warm-up for every seed, so setup_s measures the same work
        for req in wl.warmup(random.Random(f"{name}/warmup")):
            wl.run(req)
        elapsed = time.perf_counter() - t0
        durations.append(elapsed * probe.scale(before, probe.update()))
    for key in wl.counters:
        wl.counters[key] = 0
    return cp, wl, durations


def _m(value, unit):
    return {"value": float(value), "unit": unit}


def layer_metrics(tracer: Tracer, wl, requests: int) -> dict:
    """Per-layer metrics of the traced pass, per traced request."""
    summary = tracer.summary()
    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in span_names():
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = _m(row["calls"] / requests, "count/req")
        out[f"{name}.self_s"] = _m(row["self_s"] / requests, "s/req")
        layer_self[name.split(".")[0]] += row["self_s"]
    for layer, busy in layer_self.items():
        out[f"{layer}.self_s"] = _m(busy / requests, "s/req")

    def per(count, base):
        return count / base if base else 0.0

    calls = {name: summary.get(name, {"calls": 0})["calls"] for name in span_names()}
    out["kernels.norm_int.primes_per_call"] = _m(per(
        tracer.child_calls("kernels.norm_mod", "kernels.norm_int"),
        calls["kernels.norm_int"]), "count")
    out["kernels.norm_is_zero.exact_ratio"] = _m(per(
        tracer.child_calls("kernels.norm_int", "kernels.norm_is_zero"),
        calls["kernels.norm_is_zero"]), "ratio")
    out["parametrize.find_b.steps_per_call"] = _m(per(
        wl.counters.get("search_steps", 0), calls["parametrize.find_b"]), "count")
    out["formulas.emit.node_ratio"] = _m(per(
        wl.counters.get("emitted_nodes", 0), wl.counters.get("stored_nodes", 0)), "ratio")
    return out


def _report_failures(loop, label: str) -> None:
    if loop.errors:
        kinds = Counter(e.split(":")[0] for e in loop.errors)
        print(f"{label}failed requests by exception: {dict(kinds)}")
    for problem in loop.wrong[:20]:
        print(f"{label}WRONG ANSWER: {problem}")


def traced_passes(cp, wl, requests, stop_at, probe):
    """An untraced pass over the stream `requests()` returns, then the same
    requests again with the tracer's wrappers on while each request runs.
    Returns the tracer and both passes."""
    plain = closed_loop(wl, requests(), stop_at, probe=probe)
    for key in wl.counters:
        wl.counters[key] = 0
    tracer = Tracer()
    tracer.plan(cp)

    def before(i):
        tracer.request_id = i
        tracer.install()

    traced = closed_loop(wl, itertools.islice(requests(), plain.attempted), stop_at,
                         before, lambda i: tracer.uninstall(), probe=probe)
    return tracer, plain, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_requests: Optional[int] = None) -> dict:
    """Set up, measure and check one workload; returns the result line."""
    stop_at = START + WALL_LIMIT_S
    probe = SpeedProbe()
    cp, wl, setups = set_up(name, probe)
    setup_s = statistics.median(setups)
    first_request_s = time.perf_counter() - START
    env = environment(ROOT, cp.kernels.BACKEND, seed)
    # the traced run times half the work twice: untraced, then traced
    count = request_count(wl, seconds / 2 if trace else seconds,
                          min(min_requests or 12, 12) if trace else min_requests)

    def requests():
        """The run's requests, drawn afresh (a list of them can be large)."""
        return itertools.islice(wl.requests(random.Random(f"{name}/{seed}")), count)

    info = {"workload": name, **env, "setup_runs_s": setups,
            "start_to_first_request_s": first_request_s, "requests": count}

    if not trace:
        loop = closed_loop(wl, requests(), stop_at, probe=probe)
        metrics = end_to_end_metrics(loop, setup_s)
        loops = [loop]
    else:
        tracer, plain, traced = traced_passes(cp, wl, requests, stop_at, probe)
        metrics = layer_metrics(tracer, wl, max(1, traced.attempted))
        # the same requests, traced against untraced, in scaled time
        for label, lp in (("untraced", plain), ("traced", traced)):
            metrics[f"trace.{label}_throughput_rps"] = _m(
                (lp.attempted - lp.failed) / lp.scaled_busy_s, "1/s")
        metrics["trace.overhead_ratio"] = _m(
            traced.scaled_busy_s / plain.scaled_busy_s, "ratio")
        rows = kernel_rows()
        for row, us in rows["py"].items():
            metrics[f"kernels.bench.{row}.py_us"] = _m(us, "us")
        for row, us in rows.get("c", {}).items():
            print(f"kernel row {row}: py {rows['py'][row]:.1f} us, c {us:.1f} us, "
                  f"speedup {rows['py'][row] / us:.1f}x")
        spans = OUT / f"spans-{name}-seed{seed}.npz"
        tracer.write(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
        info["spans"] = len(tracer.start)
        info["replayed_requests"] = traced.attempted
        loops = [plain, traced]
        loop = traced

    for lp, label in zip(loops, ("", "traced ") if trace else ("",)):
        _report_failures(lp, label)
    correct = not any(lp.wrong for lp in loops)
    result = {"correct": correct, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    for key, val in info.items():
        print(f"# {key}: {val}")
    print(f"# requests: {loop.attempted} attempted, {loop.failed} failed "
          f"(failed_ratio {loop.failed / max(1, loop.attempted):.4f}), "
          f"{loop.busy_s:.2f} s timed, {loop.scaled_busy_s:.2f} s scaled")
    for key, val in metrics.items():
        print(f"{key} = {val['value']:.6g} {val['unit']}")
    OUT.mkdir(exist_ok=True)
    record = {**info, **result, "errors": loop.errors[:50],
              "wrong": [w for lp in loops for w in lp.wrong][:50],
              "probe_s": probe.samples,
              "latencies_s": [(s.latency_s, s.scale, s.failed) for s in loop.samples]}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return result


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        sys.stdout.flush()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_campana()  # fail before any output; also compiles the .pyc files
    except ImportError as exc:
        print(f"cannot import campana from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
