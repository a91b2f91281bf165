"""In-memory span tracer for the benchmark's traced runs.

A traced pass replaces selected swpemux functions with timing wrappers. The
wrapper goes on every swpemux module attribute bound to the function, so
whichever module a caller looks the name up in (``engine.joint_probabilities``
as well as ``states.joint_probabilities``), the call is seen. ``restore`` puts
the originals back; ``installed_wrappers`` lists any wrapper still in place.

A span is (id, parent id, name, start, end, cpu seconds or None, counts or
None). The parent is the innermost open span of the calling thread. A thread
with no open span, such as a ``run_batch`` pool worker, is attributed to the
enclosing ``engine.run_batch`` span. Recording is thread-safe.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

_MARK = "_bench_wrapper"


class Span(NamedTuple):
    span_id: int
    parent: int
    name: str
    start: float
    end: float
    cpu: Optional[float]
    counts: Optional[dict]


def package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "swpemux" or n.startswith("swpemux."))]


def installed_wrappers() -> list:
    """(module, attribute) of every tracer wrapper bound in a swpemux module."""
    return [(module.__name__, key) for module in package_modules()
            for key, value in vars(module).items() if getattr(value, _MARK, False)]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._batch = 0          # open engine.run_batch span, parent of pool-thread spans
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, *, counts: Optional[Callable] = None,
              cpu: bool = False, batch: bool = False) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1] if stack else tracer._batch
            stack.append(span_id)
            outer_batch = tracer._batch
            if batch:
                tracer._batch = span_id
            result = None
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                used = time.process_time() - c0 if cpu else None
                stack.pop()
                tracer._batch = outer_batch
                extra = counts(args, kwargs, result) if counts and result is not None else None
                with tracer._lock:
                    tracer.spans.append(Span(span_id, parent, name, t0, t1, used, extra))

        setattr(wrapper, _MARK, True)
        return wrapper

    def _count_only(self, name: str, fn: Callable, amount: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            value = amount(args, kwargs)
            result = fn(*args, **kwargs)
            with tracer._lock:
                tracer.counters[name] += value
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _bind(self, original: Callable, wrapper: Callable) -> None:
        for module in package_modules():
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapper)
                self._patches.append((module, key, original))

    def install(self, targets: list, counters: list = ()) -> None:
        """targets: (module, attribute, span name, wrap options) entries;
        counters: (module, attribute, counter name, amount(args, kwargs))."""
        for module, attr, name, options in targets:
            original = getattr(module, attr)
            self._bind(original, self._wrap(name, original, **options))
        for module, attr, name, amount in counters:
            original = getattr(module, attr)
            self._bind(original, self._count_only(name, original, amount))

    def restore(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()


def _covered(intervals: list, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    return [(span.end - span.start) - _covered(children[span.span_id], span.start, span.end)
            for span in spans]
