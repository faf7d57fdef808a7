"""Every process-wide memo of campana, by name.

memo(name) is functools.lru_cache that also registers the cache under
name, the module and attribute that hold it; it returns the cache object
itself, so a call costs what lru_cache costs.  A hand-rolled table (the
conic scan's square tables, and the n-family templates, which parse reads
as well as emit) registers its own info and clear functions.
memos() reads every memo and clear_memos() empties every one.

Three pieces of process-wide state are not memos, and are left out:
- arith._small_primes_cache holds the sieve below 10^6 and
  kernels._crt_primes a prefix of one fixed sequence of primes, the same
  whatever was asked, so emptying them changes no answer and no count,
  only the time of the next call;
- circuits._TABLE is the hash-consing table: two circuits are == only if
  they are one object, which holds only while the table holds every live
  circuit, so it must never be emptied.
One more process-wide setting is touched but not kept: formulas.parse
pauses the cyclic garbage collector (gc.disable) while it runs and turns
it back on when it ends, if it was on when the call began.  A thread that
turns the collector off while another thread is inside parse sees it
turned back on when that parse ends.
"""
from __future__ import annotations

import functools
from typing import Callable, Dict, NamedTuple, Optional


class MemoInfo(NamedTuple):
    """A memo's counts since it was last emptied; bound None is unbounded."""

    hits: int
    misses: int
    entries: int
    bound: Optional[int]


_REGISTRY: Dict[str, tuple] = {}  # name -> (info, clear)


def register(name: str, info: Callable[[], MemoInfo], clear: Callable[[], None]) -> None:
    """Register a hand-rolled memo under name."""
    _REGISTRY[name] = (info, clear)


def memo(name: str, maxsize: Optional[int] = None, typed: bool = False):
    """functools.lru_cache(maxsize, typed), registered under name."""
    def decorate(fn):
        cache = functools.lru_cache(maxsize=maxsize, typed=typed)(fn)

        def info() -> MemoInfo:
            hits, misses, bound, entries = cache.cache_info()
            return MemoInfo(hits, misses, entries, bound)

        register(name, info, cache.cache_clear)
        return cache
    return decorate


def memos() -> Dict[str, MemoInfo]:
    """{name: (hits, misses, entries, bound)} of every memo."""
    return {name: info() for name, (info, _) in _REGISTRY.items()}


def clear_memos() -> None:
    """Empty every memo and reset its counts."""
    for _, clear in _REGISTRY.values():
        clear()
