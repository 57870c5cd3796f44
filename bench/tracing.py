"""In-memory tracing of calls into the library's modules.

The benchmark replaces chosen public functions on the imported module
objects with wrappers.  A span wrapper records (name, parent, start, end,
error) for every call; a count-only wrapper just increments a counter and
is used for hot scalar functions where a span would cost more than the
call.  Calls between library modules go through module attributes, so a
wrapped function is seen whether the benchmark or another module calls it.

Nothing here changes the library's code: `install` patches attributes and
`uninstall` puts the originals back.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        #: one [name, parent_record_or_None, start, end, error] per call
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, module, attr: str, name: str, account=None) -> None:
        """Wrap module.attr in a span named `name`.

        `account(counts, args, result)` may add counters derived from the
        arguments or the result of each successful call.
        """
        fn = getattr(module, attr)
        spans, counts, stack_of = self.spans, self.counts, self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            rec = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if account is not None:
                account(counts, args, result)
            return result

        self._patch(module, attr, fn, wrapper)

    def count(self, module, attr: str, name: str) -> None:
        """Wrap module.attr so that each call only increments `name`."""
        fn = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(module, attr, fn, wrapper)

    def _patch(self, module, attr, fn, wrapper) -> None:
        wrapper.__wrapped__ = fn
        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # ---------------------------------------------------------- summaries

    def summary(self) -> dict:
        """Per span name: calls, busy seconds, self seconds, errors by type.

        Self time is a span's duration minus the durations of its direct
        children.  Children of one span run one after another on the
        caller's thread, so their durations do not overlap.
        """
        child_time: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec[1] is not None:
                child_time[id(rec[1])] += rec[3] - rec[2]
        out: dict[str, dict] = {}
        for rec in self.spans:
            s = out.setdefault(rec[0], {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0, "errors": Counter()})
            dur = rec[3] - rec[2]
            s["calls"] += 1
            s["busy_s"] += dur
            s["self_s"] += dur - child_time.get(id(rec), 0.0)
            if rec[4] is not None:
                s["errors"][rec[4]] += 1
        return out

    def span_rows(self) -> list[list]:
        """Spans as [name, parent_index, start, end, error] rows."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [[rec[0], index.get(id(rec[1]), -1) if rec[1] is not None
                 else -1, rec[2], rec[3], rec[4]] for rec in self.spans]
