"""In-memory span recorder and module-attribute wrappers for the traced run.

The benchmark measures motionloop from outside: it swaps selected public
functions for timing wrappers in every loaded ``motionloop`` module that
binds them (``from .simgen import generate`` makes a second binding in
``pipeline``), and puts the originals back afterwards. Each call becomes a
span with a name, start, end and the id of the span that was open when it
began, so self time is a span's duration minus its children's.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans kept in a list; the stack gives each new span its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        span = Span(id=len(self.spans), parent=self._stack[-1] if self._stack else -1,
                    name=name, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        out = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration - child[s.id]
        return dict(out)

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, inclusive seconds) per span name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            out[s.name][0] += 1
            out[s.name][1] += s.duration
        return {k: (v[0], v[1]) for k, v in out.items()}

    def count_sum(self, name: str, key: str, parent_name: str | None = None) -> float:
        """Sum of one recorded count over spans, optionally only those whose
        parent span has the given name."""
        total = 0.0
        for s in self.spans:
            if s.name != name or key not in s.counts:
                continue
            if parent_name is not None and (
                    s.parent < 0 or self.spans[s.parent].name != parent_name):
                continue
            total += s.counts[key]
        return total

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end, "counts": s.counts}
                for s in self.spans]


def _bindings(module_name: str, attr: str):
    """``module_name.attr`` and every loaded motionloop module that binds the
    same object; (None, []) if the function no longer exists."""
    home = sys.modules.get(module_name)
    original = getattr(home, attr, None) if home is not None else None
    if original is None:
        return None, []
    mods = [m for name, m in list(sys.modules.items())
            if (name == "motionloop" or name.startswith("motionloop."))
            and getattr(m, attr, None) is original]
    return original, mods


class Patches:
    """Module-attribute replacements, undone in reverse order by restore()."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module_name: str, attr: str, make_wrapper) -> None:
        original, mods = _bindings(module_name, attr)
        if original is None:
            return
        wrapper = make_wrapper(original)
        for mod in mods:
            self._undo.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)


def traced(recorder: Recorder, name: str, measure=None):
    """Wrapper factory: one span per call; ``measure(args, result)`` may
    return counts to attach to the span."""

    def make(original):
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if measure is not None:
                span.counts = measure(args, result)
            return result

        return wrapper

    return make
