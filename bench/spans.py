"""In-memory spans around library functions, wrapped at their call names.

A span records the layer it belongs to, its parent span, and its start and
end on ``time.perf_counter``. The recorder is single-threaded, which is all
the benchmark needs: one caller, closed loop.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

Hook = Callable[..., None]


class Recorder:
    """Spans in four parallel arrays plus machine-independent work counts."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()

    def _open(self, layer: int) -> int:
        i = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start[i] = time.perf_counter()
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def wrap(self, fn: Callable, layer: str, on_call: Hook | None = None,
             on_result: Hook | None = None) -> Callable:
        """``fn`` recording one span per call. ``on_call(args)`` and
        ``on_result(result)`` run outside the span and update counts."""
        lid = self._layer_id(layer)
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            i = open_span(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(i)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span around a block: the benchmark's own root span."""
        i = self._open(self._layer_id(layer))
        try:
            yield
        finally:
            self._close(i)

    def per_layer(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, summed span seconds ``s``, and ``self_s``, the
        span seconds minus the seconds of its child spans."""
        n = len(self.layer)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.layers}
        for i in range(n):
            row = out[self.layers[self.layer[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
        return out


class Patches:
    """Replace module attributes and put the originals back on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """``target`` is ``module.attr``; the attribute must exist and be
        callable, so that a renamed function fails loudly."""
        module_name, _, attr = target.rpartition(".")
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            raise LookupError(f"{target} is not a callable attribute")
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
