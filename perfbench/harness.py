"""Measurement helpers shared by every workload.

The closed request loop, the CPU-speed probe, the percentile estimator, the
end-to-end metrics and the run's environment record live here; span
tracing is in tracing.py and the workloads themselves in workloads.py.
"""
from __future__ import annotations

import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, List, Optional

import numpy as np

#: A run measures at least this many requests (unless its workload asks for
#: more), so that its 90th percentile has ten samples beyond it.
MIN_REQUESTS = 100
#: Integration cells per order statistic in percentile().
_HD_STEPS = 32
#: The probe runs again once this long has passed since it last ran.
PROBE_INTERVAL_S = 0.02
#: Probe time, in seconds, of the reference machine that scaled times refer
#: to: the faster of the two speeds a 2-vCPU 2.0 GHz sandbox alternates
#: between.
REFERENCE_PROBE_S = 0.0006


def percentile(values: Iterable[float], q: float) -> float:
    """The q-th percentile (0 < q < 100) by the Harrell-Davis estimator.

    It is a weighted mean of the order statistics, the i-th of n weighted
    by the Beta((n+1)p, (n+1)(1-p)) mass on [(i-1)/n, i/n], so it moves
    smoothly where a request mix leaves a gap in its latencies.  (Harrell
    and Davis, Biometrika 69, 1982.)
    """
    xs = np.sort(np.asarray(list(values), dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    p = q / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    # midpoint rule, _HD_STEPS cells per order statistic, in log space
    steps = _HD_STEPS * n
    x = (np.arange(steps) + 0.5) / steps
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    mass = np.exp(log_pdf - log_pdf.max()).reshape(n, _HD_STEPS).sum(axis=1)
    return float(mass @ xs / mass.sum())


def _probe_work() -> int:
    """Fixed pure-Python work: rational arithmetic, then a modular integer
    loop.  On the sandbox the benchmark was built in, the time of this mix
    tracked the slowdown of requests of all four workloads more closely
    than either part alone (the rational part alone slows about 1.3 times
    as much as they do)."""
    acc = Fraction(0)
    for n in range(1, 80):
        acc += Fraction(n, n + 7) * Fraction(3, n + 1)
    x = acc.numerator
    for _ in range(2000):
        x = x * 48271 % 2147483647
    return x


class SpeedProbe:
    """Tracks how fast the CPU runs right now.

    Shared machines change speed under a process: the sandbox this was
    built in alternates between two speeds about 1.7x apart, in phases of
    tens of milliseconds to seconds, which moved the median latency of
    identical runs by a fifth.
    The probe times a fixed piece of pure-Python work (no campana code)
    between requests; a time measured between two probe readings is scaled
    by REFERENCE_PROBE_S over their mean, giving the time it would take on
    the reference machine.
    """

    def __init__(self):
        self.last_run = -float("inf")
        self.samples: List[float] = []

    def update(self) -> int:
        """Re-probe if PROBE_INTERVAL_S has passed; return the index of the
        reading now in force."""
        if time.perf_counter() - self.last_run >= PROBE_INTERVAL_S:
            took = []
            for _ in range(2):
                t0 = time.perf_counter()
                _probe_work()
                took.append(time.perf_counter() - t0)
            self.samples.append(min(took))
            self.last_run = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, before: int, after: int) -> float:
        """Scale for a time measured between readings `before` and `after`."""
        return 2 * REFERENCE_PROBE_S / (self.samples[before] + self.samples[after])


@dataclass
class Sample:
    """One timed request: its wall-clock latency, whether it failed, the
    size of its answer as JSON, the probe reading in force when it started
    and the scale to the reference machine."""

    latency_s: float
    failed: bool
    answer_bytes: int
    probe_index: int
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        """Latency on the reference machine."""
        return self.latency_s * self.scale


@dataclass
class LoopResult:
    samples: List[Sample] = field(default_factory=list)
    wrong: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.failed)

    @property
    def busy_s(self) -> float:
        return sum(s.latency_s for s in self.samples)

    @property
    def scaled_busy_s(self) -> float:
        return sum(s.scaled_s for s in self.samples)


def request_count(workload, seconds: float,
                  min_requests: Optional[int] = None) -> int:
    """How many requests a run of `seconds` sends: `seconds` of work at the
    workload's nominal rate on the reference machine, at least
    `min_requests` (by default the workload's own minimum), rounded up to
    whole rounds.

    The count depends on nothing measured, so two runs with the same seed
    and `seconds` send the same requests and fail the same ones.
    """
    if min_requests is None:
        min_requests = max(MIN_REQUESTS, workload.min_requests)
    wanted = max(min_requests, math.ceil(seconds * workload.rate))
    return -(-wanted // workload.round_size) * workload.round_size


def closed_loop(workload, requests: Iterable, stop_at: float,
                before: Optional[Callable[[int], None]] = None,
                after: Optional[Callable[[int], None]] = None,
                probe: Optional[SpeedProbe] = None) -> LoopResult:
    """Send the given requests one at a time, stopping early only if the
    wall clock passes `stop_at` (a perf_counter value).

    Only workload.run is timed.  The speed probe and the answer check run
    between requests, outside the timed span; a wrong answer is recorded,
    not counted as a failure.  Peak RSS is read before the checks
    workload.finish() runs.  `before`/`after` bracket each timed call (the
    tracer uses them to switch its wrappers on and off).
    """
    probe = probe if probe is not None else SpeedProbe()
    out = LoopResult()
    for i, req in enumerate(requests):
        if time.perf_counter() >= stop_at:
            break
        index = probe.update()
        if before is not None:
            before(i)
        t0 = time.perf_counter()
        try:
            answer = workload.run(req)
        except Exception as exc:  # every exception is a failed request
            elapsed = time.perf_counter() - t0
            if after is not None:
                after(i)
            out.samples.append(Sample(elapsed, True, 0, index))
            out.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - t0
        if after is not None:
            after(i)
        problems = workload.check(req, answer)
        out.wrong.extend(f"request {i} {req!r}: {p}" for p in problems)
        out.samples.append(Sample(elapsed, False, workload.answer_bytes(answer), index))
    # scale each request by the readings just before and just after it
    following = [s.probe_index for s in out.samples[1:]] + [probe.update()]
    for sample, later in zip(out.samples, following):
        sample.scale = probe.scale(sample.probe_index, later)
    out.peak_rss_mb = peak_rss_mb()
    out.wrong.extend(workload.finish())
    return out


def end_to_end_metrics(loop: LoopResult, setup_s: float) -> dict:
    """The end-to-end metrics of one untraced pass, each {value, unit}.

    Times are scaled to the reference machine (see SpeedProbe).  The
    median is taken over answered requests and the 90th percentile over
    all attempted ones, a failed request at its elapsed time.  On
    construct, half the requests (|S| <= 2) take under 20 ms and the rest
    at least 25 ms, so a median over all attempted requests falls in that
    gap and swings by a quarter from seed to seed; the failures, one
    request in six or more, show in latency_p90_ms and success_ratio.
    """
    answered = [s for s in loop.samples if not s.failed]
    ok = len(answered)
    answered_ms = [s.scaled_s * 1000 for s in answered]
    all_ms = [s.scaled_s * 1000 for s in loop.samples]
    return {
        "setup_s": _m(setup_s, "s"),
        "throughput_rps": _m(ok / loop.scaled_busy_s, "1/s"),
        "latency_p50_ms": _m(percentile(answered_ms or all_ms, 50), "ms"),
        "latency_p90_ms": _m(percentile(all_ms, 90), "ms"),
        "success_ratio": _m(ok / loop.attempted, "ratio"),
        "peak_rss_mb": _m(loop.peak_rss_mb, "MB"),
        "json_bytes": _m(sum(s.answer_bytes for s in answered) / max(1, ok), "bytes"),
    }


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    """ru_maxrss of this process; Linux reports it in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit(root: Path) -> str:
    """The checked-out commit, read from root/.git without running git
    (a checkout without .git reports "unknown")."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, backend: str, seed: int) -> dict:
    return {
        "commit": git_commit(root),
        "backend": backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "argv": sys.argv[1:],
    }
