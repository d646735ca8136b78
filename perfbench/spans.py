"""Span recording around steincal's public functions, for the traced passes.

Wrappers are installed from the benchmark's side, on the module attributes
the library itself calls through, so no file of the library changes. Each
call records a span (name, start, end, parent) in memory. With
``memory=True`` a span also records the peak of tracemalloc-traced memory
above its level at entry; tracemalloc slows Python-heavy code several-fold,
so timing and memory come from separate passes.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    root: int
    start: float = 0.0
    end: float = 0.0
    base_bytes: int = 0
    peak_bytes: int = 0  # highest traced memory seen while the span was open

    @property
    def peak_above_entry(self) -> int:
        return self.peak_bytes - self.base_bytes

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "root": self.root,
                "start": self.start, "end": self.end,
                "peak_above_entry_bytes": self.peak_above_entry}


class Recorder:
    """In-memory span store. Spans opened in worker threads while a root span
    is open on the calling thread become children of that root."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.broken_counters: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: Optional[Span] = None
        self._open: dict[int, Span] = {}

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._stack()
        if root:
            sp = Span(next(self._ids), name, None, -1)
            sp.root = sp.id
            self._root = sp
        else:
            parent = stack[-1] if stack else self._root
            if parent is None:
                raise RuntimeError(f"span {name!r} opened outside a root span")
            sp = Span(next(self._ids), name, parent.id, parent.root)
        if self.memory:
            self._enter_memory(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if self.memory:
                self._exit_memory(sp)
            if root:
                self._root = None
            self.spans.append(sp)

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for sp in self._open.values():
            sp.peak_bytes = max(sp.peak_bytes, peak)

    def _enter_memory(self, sp: Span) -> None:
        with self._lock:
            self._fold_peak()
            tracemalloc.reset_peak()
            sp.base_bytes = sp.peak_bytes = tracemalloc.get_traced_memory()[0]
            self._open[sp.id] = sp

    def _exit_memory(self, sp: Span) -> None:
        with self._lock:
            self._fold_peak()
            del self._open[sp.id]


# A counter hook receives (counters, args, kwargs, result) after a call.
CounterHook = Callable[[Counter, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One public function to wrap: ``attr`` is a name in ``module`` or
    ``Class.method``."""

    span: str
    module: str
    attr: str
    count: Optional[CounterHook] = None


class Instrumentation:
    """Wrappers for a list of targets, installed and removed as a unit.

    A target that no longer exists (renamed by a later change) is listed in
    ``missing`` instead of raising, so its metrics go missing from the output.
    """

    def __init__(self, recorder: Recorder, targets: list[Target]):
        self.missing: set[str] = set()
        self._patches: list[tuple[object, str, object, object]] = []
        for target in targets:
            try:
                owner, name, original = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.missing.add(target.span)
                continue
            wrapper = _wrap(recorder, target, original)
            if owner is None:
                for module in _library_modules(target.module):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original, wrapper))
            else:
                self._patches.append((owner, name, original, wrapper))

    def install(self) -> None:
        for owner, name, _original, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def remove(self) -> None:
        for owner, name, original, _wrapper in self._patches:
            setattr(owner, name, original)


def _resolve(target: Target):
    module = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, method = target.attr.split(".", 1)
        cls = getattr(module, cls_name)
        return cls, method, cls.__dict__[method]
    return None, target.attr, getattr(module, target.attr)


def _library_modules(module_name: str):
    package = module_name.split(".", 1)[0]
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def _wrap(recorder: Recorder, target: Target, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(target.span):
            result = original(*args, **kwargs)
        if target.count is not None and target.span not in recorder.broken_counters:
            try:
                target.count(recorder.counters, args, kwargs, result)
            except (AttributeError, TypeError, IndexError, KeyError):
                recorder.broken_counters.add(target.span)
        return result
    return wrapper


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        covered = union_length((max(c.start, sp.start), min(c.end, sp.end))
                               for c in children[sp.id])
        out[sp.id] = (sp.end - sp.start) - covered
    return out


def self_time_by_root(spans: list[Span]) -> dict[int, Counter]:
    """Seconds of self time per span name, for each root span."""
    own = self_times(spans)
    out: dict[int, Counter] = defaultdict(Counter)
    for sp in spans:
        out[sp.root][sp.name] += own[sp.id]
    return out
