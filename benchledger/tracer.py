"""Span recording from outside the program: wrap entry points, keep spans.

The benchmark traces the program without editing it. :meth:`Tracer.wrap_function`
replaces a function at *every* binding a caller can reach — the defining
module and each ``repro`` module that imported the name — and
:meth:`Tracer.wrap_method` replaces a method on its class, so subclasses that
inherit it are traced too. Spans are tuples kept in memory until the traced
process ends.

A span is ``(id, name, metric, start, end, parent, rid, attrs)``: *metric* is
the per-layer metric its time feeds, *parent* the enclosing span on the same
thread (or ``None``), *rid* the request or shard id inherited from the
outermost span that set one.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from typing import Any, Callable

Describe = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(
        self,
        fn: Callable,
        name: str,
        metric: str | Callable[[dict], str] | None,
        describe: Describe | None = None,
        rid: Callable[[tuple, dict], object] | None = None,
    ) -> Callable:
        """*fn* wrapped so each call appends one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent, inherited = stack[-1] if stack else (None, None)
            request = rid(args, kwargs) if rid is not None else None
            if request is None:
                request = inherited
            stack.append((span_id, request))
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = describe(args, kwargs, result) if describe else {}
                label = metric(attrs) if callable(metric) else metric
                tracer.spans.append(
                    (span_id, name, label, start, end, parent, request, attrs)
                )

        return wrapper

    def wrap_function(
        self,
        module_name: str,
        attr: str,
        metric: str | Callable[[dict], str] | None,
        describe: Describe | None = None,
        rid: Callable[[tuple, dict], object] | None = None,
    ) -> None:
        """Wrap ``module.attr`` at every loaded ``repro`` binding."""
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapper = self.traced(
            original, f"{module_name}.{attr}", metric, describe, rid
        )
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)

    def wrap_method(
        self,
        cls: type,
        attr: str,
        metric: str | Callable[[dict], str] | None,
        describe: Describe | None = None,
        rid: Callable[[tuple, dict], object] | None = None,
    ) -> None:
        """Wrap the method *attr* defined on *cls* itself."""
        original = cls.__dict__[attr]
        setattr(
            cls,
            attr,
            self.traced(
                original, f"{cls.__name__}.{attr}", metric, describe, rid
            ),
        )


def self_times(spans: list) -> dict[int, float]:
    """Self time per span id: its duration minus what its children cover."""
    covered: dict[int, float] = {}
    for span in spans:
        parent = span[5]
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (span[4] - span[3])
    return {
        span[0]: max(0.0, (span[4] - span[3]) - covered.get(span[0], 0.0))
        for span in spans
    }
