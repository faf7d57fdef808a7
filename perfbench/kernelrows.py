"""Micro rows for the two hot kernels, on fixed inputs.

These are the rows the old two-line kernel comparison printed: the
oracle's conic scan at p^5 for small p, and the mod-q norm resultant at
n = 290 with q = 2147483629.  Both backends run on identical inputs when
the compiled extension imports; the pure-Python one always runs.
"""
from __future__ import annotations

import importlib
import random
import time
from typing import Dict

CONIC_CALLS = 100
NORM_CALLS = 20
NORM_DEGREE = 290
NORM_Q = 2147483629


def _conic_inputs():
    rng = random.Random(7)
    out = []
    for _ in range(CONIC_CALLS):
        p = rng.choice([3, 5, 7, 11, 13])
        out.append((rng.randint(-500, 500) or 1, rng.randint(-500, 500) or 1, p))
    return out


def _norm_coeffs():
    rng = random.Random(11)
    return [rng.randint(-10**6, 10**6) for _ in range(NORM_DEGREE)]


def time_backend(impl) -> Dict[str, float]:
    """Microseconds per call of each kernel row for one backend module."""
    conic = _conic_inputs()
    t0 = time.perf_counter()
    for a, b, p in conic:
        impl.conic_has_solution(a, b, p, 5)
    t1 = time.perf_counter()
    coeffs = _norm_coeffs()
    for _ in range(NORM_CALLS):
        impl.norm_mod(coeffs, NORM_Q)
    t2 = time.perf_counter()
    return {"conic_scan": (t1 - t0) / CONIC_CALLS * 1e6,
            "norm_mod_n290": (t2 - t1) / NORM_CALLS * 1e6}


def kernel_rows() -> Dict[str, Dict[str, float]]:
    """{"py": rows, "c": rows}; "c" only when the extension imports."""
    out = {"py": time_backend(importlib.import_module("campana._kernels_py"))}
    try:
        compiled = importlib.import_module("campana._kernels")
    except ImportError:
        return out
    out["c"] = time_backend(compiled)
    return out
