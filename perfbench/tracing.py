"""Per-layer spans, recorded from outside the package.

The tracer replaces the public functions of each layer module (and the
listed Circuit methods) with wrappers that record one span per call: its
name, start, end, parent span and request id.  Spans stay in flat arrays in
memory and are written out once, at the end of the run.  Self time is a
span's duration minus the durations of its child spans; wrappers nest
strictly, so children never overlap one another.
"""
from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: Public functions timed per layer, by defining module.  Each entry maps a
#: reported name to the attributes it covers.
LAYER_FUNCTIONS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "arith": {fn: (fn,) for fn in (
        "valuation", "is_prime", "factorize", "crt", "primes_up_to",
        "unit_part", "legendre", "is_square_local")},
    "places": {fn: (fn,) for fn in (
        "hilbert", "hilbert_oracle", "delta", "omega", "reciprocity_check")},
    "kernels": {fn: (fn,) for fn in (
        "conic_has_solution", "norm_mod", "norm_int", "norm_value",
        "norm_is_zero", "crt_primes")},
    "parametrize": {fn: (fn,) for fn in (
        "construct_omega", "find_b", "uniformizer_product")},
    "semantics": {fn: (fn,) for fn in (
        "in_Jn", "in_inv_Jn", "campana_member", "s_integer_member")},
    "formulas": {
        "build": ("build_S", "build_T", "build_T_unit", "build_I", "build_J",
                  "build_Jabcd", "build_inv_J", "build_disjoint", "build_Jn",
                  "build_inv_Jn", "build_premise", "build_campana",
                  "build_integrality"),
        **{fn: (fn,) for fn in ("stats", "emit", "parse", "evaluate_matrix",
                                "norm_form", "combine_many")},
    },
}

#: Circuit methods, reported as circuits.Circuit.<name>.
CIRCUIT_METHODS: Dict[str, Tuple[str, ...]] = {
    "ops": ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__neg__", "__pow__", "norm"),
    "evaluate": ("evaluate",),
    "evaluate_mod": ("evaluate_mod",),
    "evaluate_vec": ("evaluate_vec",),
    "degree": ("degree",),
    "eq": ("__eq__",),
}

LAYERS = ("arith", "places", "kernels", "parametrize", "semantics",
          "circuits", "formulas")


def span_names() -> List[str]:
    names = [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items()
             for fn in fns]
    names += [f"circuits.Circuit.{m}" for m in CIRCUIT_METHODS]
    return names


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.request_id = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """fn, recording one span named `name` per call."""
        nid = self.intern(name)
        stack = self._stack
        start, end, parent = self.start, self.end, self.parent
        name_id, request = self.name_id, self.request
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # -- installing wrappers --------------------------------------------
    def plan(self, modules) -> None:
        """Prepare the patches for the layer modules in `modules` (an
        object with one attribute per campana module)."""
        patches = []
        for layer, fns in LAYER_FUNCTIONS.items():
            mod = getattr(modules, layer)
            for fn, attrs in fns.items():
                for attr in attrs:
                    orig = getattr(mod, attr)
                    patches.append((mod, attr, orig,
                                    self.wrap(f"{layer}.{fn}", orig)))
        cls = modules.circuits.Circuit
        for label, attrs in CIRCUIT_METHODS.items():
            for attr in attrs:
                orig = cls.__dict__[attr]
                name = f"circuits.Circuit.{label}"
                if isinstance(orig, staticmethod):
                    wrapped = staticmethod(self.wrap(name, orig.__func__))
                else:
                    wrapped = self.wrap(name, orig)
                patches.append((cls, attr, orig, wrapped))
        self._patches = patches

    def install(self) -> None:
        for obj, attr, _, wrapped in self._patches:
            setattr(obj, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, orig, _ in self._patches:
            setattr(obj, attr, orig)

    # -- analysis ----------------------------------------------------------
    def arrays(self):
        """(name_id, start, end, parent) as numpy arrays."""
        return (_np(self.name_id, np.int32), _np(self.start, np.float64),
                _np(self.end, np.float64), _np(self.parent, np.int64))

    def summary(self) -> Dict[str, Dict[str, float]]:
        """calls and self seconds per span name, over every span held."""
        name_id, start, end, parent = self.arrays()
        self_s = self_times(start, end, parent)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        busy = np.bincount(name_id, weights=self_s, minlength=k)
        return {nm: {"calls": int(calls[i]), "self_s": float(busy[i])}
                for i, nm in enumerate(self.names)}

    def child_calls(self, child: str, parent_name: str) -> int:
        """Number of `child` spans whose parent span is a `parent_name`."""
        if child not in self._ids or parent_name not in self._ids:
            return 0
        name_id, _, _, parent = self.arrays()
        mask = (name_id == self._ids[child]) & (parent >= 0)
        return int(np.sum(name_id[parent[mask]] == self._ids[parent_name]))

    def write(self, path: Path) -> None:
        name_id, start, end, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, start=start,
            end=end, parent=parent, request=_np(self.request, np.int64))


def _np(buf: array, dtype) -> np.ndarray:
    # a copy: a live view would stop the array from growing
    return np.frombuffer(buf, dtype=dtype).copy() if len(buf) else np.zeros(0, dtype)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    start, end = np.asarray(start, float), np.asarray(end, float)
    parent = np.asarray(parent, np.int64)
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered
