"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""
import gc
import itertools
import json
import random
import re
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_percentile_small_cases():
    assert harness.percentile([7.0], 50) == pytest.approx(7.0)
    assert harness.percentile([3.0] * 10, 90) == pytest.approx(3.0)
    # symmetric weights: the median of a symmetric sample is its centre
    assert harness.percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)
    assert harness.percentile([1, 2], 50) == pytest.approx(1.5)
    xs = [1, 2, 3, 4, 10]
    assert 1 < harness.percentile(xs, 10) < harness.percentile(xs, 50) \
        < harness.percentile(xs, 90) < 10
    for values, q in (([], 50), ([1.0], 0), ([1.0], 100)):
        with pytest.raises(ValueError):
            harness.percentile(values, q)


def test_percentile_is_harrell_davis():
    rng = random.Random(3)
    # Beta(1.5, 1.5) mass on [0, 1/2] and [1/2, 1] is 1/2 each; on thirds of
    # Beta(2, 2) it is 7/27, 13/27, 7/27
    assert harness.percentile([0.0, 2.0], 50) == pytest.approx(1.0)
    assert harness.percentile([27.0, 0.0, 27.0], 50) == pytest.approx(20.0, rel=1e-4)
    for size in (50, 1000):
        xs = [rng.expovariate(1.0) for _ in range(size)]
        quartiles = statistics.quantiles(xs, n=4, method="inclusive")
        for q, near in zip((25, 50, 75), quartiles):
            assert harness.percentile(xs, q) == pytest.approx(near, rel=0.1)
    try:
        from scipy.stats.mstats import hdquantiles
    except ImportError:
        return
    # from 20 samples on, the Beta density has no singular end at p = 0.9
    for size in (20, 120, 2000):
        xs = [rng.expovariate(1.0) for _ in range(size)]
        for q in (50, 90):
            want = float(hdquantiles(xs, prob=[q / 100])[0])
            assert harness.percentile(xs, q) == pytest.approx(want, rel=1e-4)


def test_self_time_subtracts_direct_children_only():
    # 0 [0,10] has children 1 [1,3] and 2 [4,8]; 3 [5,6] is a child of 2
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    assert list(tracing.self_times(start, end, parent)) == [4.0, 2.0, 3.0, 1.0]


def test_tracer_records_nested_spans():
    tracer = tracing.Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("mod.leaf", leaf)

    def middle(x):
        return traced_leaf(traced_leaf(x))

    traced_middle = tracer.wrap("mod.middle", middle)
    traced_outer = tracer.wrap("mod.outer", lambda x: traced_middle(x) + traced_leaf(x))
    tracer.request_id = 7
    assert traced_outer(1) == 5
    summary = tracer.summary()
    assert {k: v["calls"] for k, v in summary.items()} == {
        "mod.leaf": 3, "mod.middle": 1, "mod.outer": 1}
    assert tracer.child_calls("mod.leaf", "mod.middle") == 2
    assert tracer.child_calls("mod.leaf", "mod.outer") == 1
    assert list(tracer.request) == [7] * 5
    # self times partition the outermost span
    _, start, end, parent = tracer.arrays()
    total = end[0] - start[0]
    assert sum(v["self_s"] for v in summary.values()) == pytest.approx(total)
    assert all(v["self_s"] >= 0 for v in summary.values())


def test_install_and_uninstall_restore_the_package():
    cp = run.load_campana()
    before = cp.places.hilbert, cp.circuits.Circuit.__dict__["norm"]
    tracer = tracing.Tracer()
    tracer.plan(cp)
    tracer.install()
    try:
        assert cp.places.hilbert(-1, -1, "inf") == -1
        x = cp.circuits.Circuit.var("x")
        cp.circuits.Circuit.norm([x, x + 1])
    finally:
        tracer.uninstall()
    assert (cp.places.hilbert, cp.circuits.Circuit.__dict__["norm"]) == before
    summary = tracer.summary()
    assert summary["places.hilbert"]["calls"] == 1
    assert summary["circuits.Circuit.ops"]["calls"] == 2


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64


def test_wrong_answers_are_caught():
    cp = run.load_campana()
    wl = workloads.Symbols(cp)
    cp.places.hilbert = lambda a, b, v: 1
    loop = harness.closed_loop(wl, itertools.islice(wl.requests(random.Random(0)), 20),
                               float("inf"))
    assert loop.wrong
    assert loop.failed == 0


def test_request_count_is_whole_rounds_of_nominal_work():
    cp = run.load_campana()
    wl = workloads.Construct(cp)
    assert harness.request_count(wl, 0.0, min_requests=1) == wl.round_size
    assert harness.request_count(wl, 0.0, min_requests=100) == 102
    assert harness.request_count(wl, 60 / wl.rate, min_requests=1) == 60
    assert harness.request_count(wl, 61 / wl.rate, min_requests=1) == 66
    # by default, at least the larger of the workload's and the harness's minimum
    assert harness.request_count(wl, 0.0) == wl.min_requests == 240
    assert harness.request_count(workloads.Symbols(cp), 0.0) == harness.MIN_REQUESTS


def test_same_seed_sends_the_same_requests_and_fails_the_same():
    first, second = (run.run_workload("construct", seed=9, seconds=0.0, trace=False,
                                      min_requests=6) for _ in range(2))
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    # the |S| = 5 request of the round fails: the known defect shows
    assert first["attempted"] == 6 and first["failed"] >= 1


def test_growth_budget_stops_a_growing_block_and_cleans_up():
    def grow(n):
        out = []
        for i in range(n):
            out.append((i, i))
        return out

    with workloads.GrowthBudget(100_000):
        assert len(grow(10_000)) == 10_000
    with pytest.raises(workloads.GrowthBudgetExceeded):
        with workloads.GrowthBudget(100_000):
            grow(1_000_000)
    # a block that outgrows its budget without a call after it fails on exit
    with pytest.raises(workloads.GrowthBudgetExceeded):
        with workloads.GrowthBudget(50_000):
            kept = [(i, i) for i in range(80_000)]  # noqa: F841
    assert sys.getprofile() is None
    assert not any(getattr(cb, "__self__", None).__class__ is workloads.GrowthBudget
                   for cb in gc.callbacks)


def test_compile_ledger_is_checked():
    cp = run.load_campana()
    wl = workloads.Compile(cp)
    req = ("campana", 5, False)
    ans = wl.run(req)
    assert wl.check(req, ans) == []
    assert wl.check(("campana", 6, False), ans)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_short_run_emits_every_metric(name, trace):
    result = run.run_workload(name, seed=5, seconds=0.2, trace=trace, min_requests=6)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    for metric in listed:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif name == "symbols":
        zero = [k for k, v in result["metrics"].items()
                if k.endswith(".calls") and v["value"] == 0]
        assert "kernels.norm_mod.calls" in zero
        assert "circuits.Circuit.evaluate_vec.calls" in zero
    elif name == "compile":
        assert all(v["value"] == 0 for k, v in result["metrics"].items()
                   if k.startswith("kernels.") and k.endswith(".calls"))
