"""In-memory span recorder that wraps the program's functions where they are looked up.

`Recorder.wrap("assoclearn.cli.run_online", "learner.run_online")` replaces
the module attribute with a wrapper that records one span per call (name,
start, end, parent span) and restores the original on exit. A target that
no longer exists is listed in `missing` instead of raising, so a later
refactor that renames a function shows up as a missing layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = Counter()
        self.missing = []
        self._stack = []
        self._patches = []

    def wrap(self, target: str, name: str, on_result=None) -> None:
        """Record a span around every call of `module.attr`; `on_result(counters, result)`
        may add counts taken from the returned value."""
        module_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if on_result is not None:
                on_result(counters, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.unwrap()

    def totals(self) -> defaultdict:
        """Per span name: {"calls", "total_s", "self_s"}, zeros for a name never seen;
        self time excludes direct children."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def dump(self, path) -> None:
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counters": dict(self.counters),
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
