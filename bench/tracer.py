"""In-memory span tracer that wraps module-level functions by rebinding them.

A traced function is replaced by a wrapper in its defining module and in every
module of the package that imported it by name, so calls through any of those
bindings record a span. Spans live in flat arrays (name, parent, start, end)
until `summary` turns them into per-name call counts, self times and inclusive
times. Self time is a span's duration minus the durations of its direct
children; with one thread spans nest, so the self times of all spans add up
to the duration of the root span.
"""

from __future__ import annotations

import sys
import time
from array import array


class Tracer:
    """Records nested spans of wrapped calls and named counters."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._bindings: list[tuple] = []

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name: str, fn, on_return=None, on_raise: dict | None = None):
        """Wrapper of fn that records one span per call.

        on_return(tracer, args, kwargs, result) runs inside the span after a
        normal return; on_raise maps an exception type to the counter bumped
        when the call raises it.
        """
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        on_raise = on_raise or {}
        raise_types = tuple(on_raise)
        clock = self._clock
        stack = self._stack
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(self, args, kwargs, result)
                return result
            except raise_types as exc:
                for kind, counter in on_raise.items():
                    if isinstance(exc, kind):
                        self.add(counter)
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self, package: str, module, attr: str, **hooks) -> None:
        """Trace module.attr, rebinding it wherever a module of package holds it by name."""
        original = getattr(module, attr)
        wrapper = self.wrap(f"{module.__name__.rpartition('.')[2]}.{attr}", original, **hooks)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", None)
            if mod_name != package and not str(mod_name).startswith(package + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put back every binding that install replaced."""
        while self._bindings:
            mod, key, original = self._bindings.pop()
            setattr(mod, key, original)

    def summary(self) -> dict:
        """Per span name: calls, self_s and inclusive_s, summed over all spans."""
        count = len(self.span_start)
        child_time = [0.0] * count
        durations = [self.span_end[i] - self.span_start[i] for i in range(count)]
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        out = {name: {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["self_s"] += durations[i] - child_time[i]
            row["inclusive_s"] += durations[i]
        return out
