"""In-process span tracing of the siac layers, installed from outside `src/`.

`Tracer.wrap` swaps public module (or class) attributes for wrappers that
record one span per call and restores the originals on exit.  Because siac's
modules call each other through module attributes (`filtercore.build_filter`,
module-level globals such as `kernel_weights`), the wrappers also see the
package's internal calls.  Spans stay in memory until the run ends.

A span is ``[name, start, end, parent, cell]``: `parent` is the index of the
enclosing span (-1 for none) and `cell` the benchmark cell that was running.
Calls are synchronous and single-threaded, so child spans nest strictly and a
span's self time is its duration minus the summed durations of its children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional

NAME, START, END, PARENT, CELL = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.cell: Optional[str] = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.cell])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, owner, attr: str, name: str, count: Optional[Callable] = None) -> None:
        """Replace owner.attr by a span-recording wrapper until `restore`.

        `count(args, kwargs, result)` runs after the span has closed, so the
        work of counting a call is tracing overhead, not layer time.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, install: Callable[["Tracer"], None]):
        try:
            install(self)
            yield self
        finally:
            self.restore()

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "cell"], "spans": self.spans}, f)


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def busy_times(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per module, the summed duration of its outermost spans from `first` on.

    A span counts unless an ancestor belongs to the same module, so nested
    calls inside one module are not counted twice.
    """
    out: dict[str, float] = {}
    for s in spans[first:]:
        mod = module_of(s[NAME])
        p = s[PARENT]
        while p >= 0 and module_of(spans[p][NAME]) != mod:
            p = spans[p][PARENT]
        if p < 0:
            out[mod] = out.get(mod, 0.0) + s[END] - s[START]
    return out


def totals(spans: list[list], first: int = 0) -> tuple[dict[str, float], Counter]:
    """Self time and call count per span name over spans[first:]."""
    selfs = self_times(spans)
    time_by: dict[str, float] = {}
    calls: Counter = Counter()
    for i in range(first, len(spans)):
        name = spans[i][NAME]
        time_by[name] = time_by.get(name, 0.0) + selfs[i]
        calls[name] += 1
    return time_by, calls
