"""Per-layer tracing from outside the program.

The tracer replaces a layer's public functions with wrappers that count
calls and time them.  A function is replaced under every name bound to it
in the loaded `qdg` modules and classes, so calls through
`from .boxtilde import reduce_word` are seen as well as `bt.reduce_word`.
Times are aggregated per entry point, never one span per call; a wrapper's
self time is its duration minus that of the wrapped calls it made.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Optional


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    def _bindings(self, fn):
        """Every (namespace object, attribute) in qdg bound to `fn`."""
        found = []
        for name, module in list(sys.modules.items()):
            if name != "qdg" and not name.startswith("qdg."):
                continue
            for holder in [module] + [
                v for v in vars(module).values()
                if isinstance(v, type) and v.__module__ == module.__name__
            ]:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        found.append((holder, attr))
        return found

    def _install(self, fn, wrapper) -> None:
        bindings = self._bindings(fn)
        if not bindings:
            raise LookupError("%r is not bound in any qdg module" % fn)
        for holder, attr in bindings:
            self._undo.append((holder, attr, fn))
            setattr(holder, attr, wrapper)

    def time(
        self,
        fn: Callable,
        key: str,
        after: Optional[Callable] = None,
        split: Optional[Callable] = None,
    ) -> None:
        """Time every call of `fn` under `key`.  `after(args, result)` runs
        once the call returned, outside the timed span; `split(args)` names
        a sub-key under which the call is also timed, such as a degree."""
        stat = self.stats[key]
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                if split is not None:
                    part = stats["%s.%s" % (key, split(args))]
                    part.calls += 1
                    part.total += elapsed
            if after is not None:
                after(args, result)
            return result

        self._install(fn, wrapper)

    def count(self, fn: Callable, key: str) -> None:
        """Count calls of `fn` under `key`, without timing them."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._install(fn, wrapper)

    def remove(self) -> None:
        """Restore every replaced binding."""
        while self._undo:
            holder, attr, fn = self._undo.pop()
            setattr(holder, attr, fn)
