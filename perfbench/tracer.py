"""In-memory span tracer that instruments beckpart from outside.

The tracer replaces a function where its caller looks it up (a module
attribute, a class attribute, a keyword default or a dict entry) by a
wrapper that opens a span, calls the original and closes the span.  Every
span adds its duration to its parent's child time, so a layer's self time
is its duration minus the time its child spans cover.  ``restore`` puts
every original back.

Spans of hot per-partition calls are only totalled (calls, total, self);
the others are also kept as ``(id, name, start, end, parent_id)`` records
and written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Spans, per-name totals and counters of one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        # open frames: [name, start, child_s, span_id, parent_id, anchor_id];
        # anchor_id is the kept span that spans opened inside this one hang
        # from: its own id if kept, else its parent's
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str, keep: bool) -> None:
        parent = self._stack[-1][5] if self._stack else None
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([name, perf_counter(), 0.0, span_id, parent,
                            parent if span_id is None else span_id])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, span_id, parent, _ = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        if span_id is not None:
            self.spans.append((span_id, name, start, end, parent))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    # -- instrumentation ---------------------------------------------------

    def traced(self, fn, name: str, *, keep: bool = True, before=None,
               after=None):
        """Return ``fn`` wrapped in a span; ``before(args)`` runs ahead of
        the span and ``after(result)`` after it, both outside it."""
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            tracer.enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result)
            return result
        return wrapper

    def traced_stream(self, fn, name: str, counter: str):
        """Return ``fn`` (a generator function) wrapped so that each
        ``next()`` on its stream is a span and each item is counted."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(name, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.counts[counter] = tracer.counts.get(counter, 0) + 1
                yield item
        return wrapper

    def patch(self, owner, key: str, make) -> None:
        """Replace owner.key (or owner[key] for a dict) by make(original);
        do nothing if the package no longer has it."""
        present = key in owner if isinstance(owner, dict) else \
            hasattr(owner, key)
        if not present:
            return
        original = _get(owner, key)
        self._patches.append((owner, key, original))
        _set(owner, key, make(original))

    def restore(self) -> bool:
        """Undo every patch, newest first; True if all originals are back."""
        ok = True
        while self._patches:
            owner, key, original = self._patches.pop()
            _set(owner, key, original)
            ok = ok and _get(owner, key) is original
        return ok

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(("id", "name", "start", "end",
                                           "parent"), s))
                                 for s in self.spans],
                       "totals": {k: {"calls": v[0], "total_s": v[1],
                                      "self_s": v[2]}
                                  for k, v in sorted(self.totals.items())},
                       "counts": dict(sorted(self.counts.items()))}, fh)
