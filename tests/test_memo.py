"""The memo registry: every process-wide memo has a name, memos() reads
them all and clear_memos() empties them all."""
import functools
import importlib
import pathlib
import pkgutil
import re

import campana
from campana import formulas as fm, kernels, memo, places

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# registered by hand, as they are not functools caches: the conic scan's
# square tables, and the n-family templates, which parse reads too
HAND_ROLLED = {"kernels._scan_tables", "formulas._n_template"}


def _module_caches():
    """{"module.attr": cache} of every module-level functools cache defined
    in a campana module."""
    caches = {}
    for info in pkgutil.iter_modules(campana.__path__):
        module = importlib.import_module(f"campana.{info.name}")
        for attr, obj in vars(module).items():
            if (isinstance(obj, functools._lru_cache_wrapper)
                    and obj.__module__ == module.__name__):
                caches[f"{info.name}.{attr}"] = obj
    return caches


def test_every_module_level_cache_is_a_registered_memo():
    caches = _module_caches()
    assert set(campana.memos()) == set(caches) | HAND_ROLLED
    for name, cache in caches.items():
        assert memo._REGISTRY[name][1] == cache.cache_clear, name


def test_clear_memos_empties_every_memo():
    places.hilbert_oracle(3, 5, 7, 3)
    places.omega(2, 3, 5, 7)
    places.delta(6, 10)
    for target in fm.TARGETS.values():
        if not target.takes_n and not target.has_real:
            target.builder()
    fm.build_integrality(False)
    fm.build_integrality(True)
    fm.emit(fm.build_Jn(2))
    kernels.conic_has_solution(3, 5, 7, 3)
    kernels.norm_mod([1, 2, 3, 4, 5], 2**31 - 1)  # an odd part of 5: a twist plan
    caches = _module_caches()
    full = campana.memos()
    assert all(info.entries > 0 for info in full.values()), full
    for name, cache in caches.items():
        hits, misses, bound, entries = cache.cache_info()
        assert full[name] == (hits, misses, entries, bound), name
    campana.clear_memos()
    empty = campana.memos()
    assert empty == {name: (0, 0, 0, info.bound) for name, info in full.items()}


def test_readme_memo_table_lists_every_memo():
    lines = README.read_text().splitlines()
    names = []
    for line in lines[lines.index("| memo | key | bound | bytes |") + 2:]:
        if not line.startswith("|"):
            break
        names += re.findall(r"`([^`]+)`", line.split("|")[1])
    assert sorted(names) == sorted(campana.memos())
