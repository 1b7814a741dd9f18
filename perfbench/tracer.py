"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public functions and methods of the program
with timing wrappers *where the caller looks them up*: a function is
swapped in every loaded ``repro`` module namespace (and registry dict)
that holds it, a method on its class.  Each call records a span; a
layer's self time is its span duration minus the durations of the
wrapped calls nested inside it.  Spans stay in memory until
:meth:`Tracer.summary` is asked for at the end of the run.

Nothing in the program changes: :meth:`Tracer.uninstall` puts every
original back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: (layer, start, end, self_seconds, depth) in completion order.
        self.spans: list[tuple[str, float, float, float, int]] = []
        #: Plain counts (calls of count-only wrappers, counters read
        #: from the program's public API, bytes read).
        self.counts: Counter = Counter()
        #: Free-form samples (e.g. admission waits), name -> values.
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> None:
        self._stack().append([layer, time.perf_counter(), 0.0])

    def leave(self) -> None:
        end = time.perf_counter()
        stack = self._stack()
        layer, start, child = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self.spans.append((layer, start, end, duration - child, len(stack)))

    def timed(self, layer, fn: Callable, after=None) -> Callable:
        """``fn`` wrapped in a span; ``layer`` may be a callable of args."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def timed_iter(self, layer: str, fn: Callable, after=None) -> Callable:
        """``fn`` returns an iterator; each ``next()`` becomes a span."""

        def iterate(it):
            while True:
                self.enter(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave()
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(layer)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self.leave()
            if after is not None:
                after(self, args, kwargs, it)
            return iterate(it)

        wrapper.__perfbench_original__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installing wrappers ------------------------------------------------

    def patch_function(self, fn: Callable, wrapper: Callable) -> int:
        """Swap ``fn`` for ``wrapper`` in every ``repro`` namespace holding it.

        Module globals and module-level dicts (registries such as the
        generator table) are both covered.  Returns the number of places
        patched; a function nobody looks up is reported as 0.
        """
        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            namespace = getattr(module, "__dict__", {})
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._patches.append((module, attr, fn, False))
                    setattr(module, attr, wrapper)
                    patched += 1
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is fn:
                            self._patches.append((value, key, fn, True))
                            value[key] = wrapper
                            patched += 1
        return patched

    def patch_method(self, cls: type, name: str, wrap: Callable) -> None:
        """Replace ``cls.name`` with ``wrap(original)``."""
        original = cls.__dict__[name]
        self._patches.append((cls, name, original, False))
        setattr(cls, name, wrap(original))

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- summary ------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """layer -> {calls, self_s, cum_s} over every recorded span."""
        out: dict[str, dict[str, float]] = {}
        for layer, start, end, self_s, _ in self.spans:
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "cum_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            row["cum_s"] += end - start
        return out

    def covered_seconds(self) -> float:
        """Wall time inside some outermost span (nested spans excluded)."""
        return sum(end - start for _, start, end, _, depth in self.spans
                   if depth == 0)

    def summary(self, wall: float) -> dict:
        """Everything the harness needs, JSON-ready."""
        return {
            "wall_s": wall,
            "covered_s": self.covered_seconds(),
            "layers": self.layer_totals(),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }
