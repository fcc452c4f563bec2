"""In-memory span tracer for the traced perfbench run.

Spans are recorded from outside the package: `Tracer.patched` swaps module
attributes (for example ``valign.cli.build``) for wrappers made by
`Tracer.wrap`, and puts the originals back on exit. Each span holds its
name, start, end, parent span and cell id. Spans stay in memory until the
run writes them out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict


class ModuleProxy:
    """Stands in for a module: the given attributes replaced, the rest
    delegated, so one call (``subprocess.run``) can be traced as a single
    caller sees it without touching the module for everyone else."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def cell(self) -> str | None:
        """Cell id stamped on spans opened by the calling thread."""
        return getattr(self._local, "cell", None)

    @cell.setter
    def cell(self, value: str | None) -> None:
        self._local.cell = value

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = {"name": name, "cell": self.cell,
                  "parent": stack[-1]["id"] if stack else None,
                  "thread": threading.get_ident(),
                  "start": time.perf_counter(), "end": None}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """fn with a span around each call.

        before(args) runs ahead of the span; after(record, args, result)
        runs once it has closed and must stay cheap, because it still falls
        inside the caller's span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if after is not None:
                after(record, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, replacements):
        """Set each (owner, attribute, value); restore all on exit."""
        saved = []
        try:
            for owner, attr, value in replacements:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, value)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: each span's duration minus the
        part its child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return totals
