"""Outside-in span tracer.

The tracer replaces a module or class attribute with a wrapper that
records one span per call: name, start, end, parent span, protocol-run id
and thread.  It patches each name where the caller looks it up, so the
package under test is never edited.  Span stacks are thread-local; a span
opened on a thread whose stack is empty (a worker of the sweep pool)
takes the outermost open span as its parent.  Spans stay in memory until
the caller writes them out, and ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around patched callables; a context manager that restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.peak_amplitudes = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._runs = itertools.count(1)
        self._root: int | None = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def patch(self, owner, attr: str, name: str, *, new_run: bool = False, observe=None) -> None:
        """Wrap ``owner.attr`` in a span called ``name``.

        A name the owner no longer defines is recorded in ``absent``.
        ``new_run`` starts a fresh protocol-run id; ``observe(tracer, args,
        result)`` runs after the span closes, outside its timing.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self._wrap(original, name, new_run, observe))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def observe_size(self, result) -> None:
        state = result[0] if isinstance(result, tuple) else result
        amplitudes = getattr(state, "amplitudes", None)
        if amplitudes is not None:
            self.peak_amplitudes = max(self.peak_amplitudes, int(amplitudes.size))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, new_run: bool, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent, run = stack[-1] if stack else (tracer._root, None)
            if new_run:
                run = next(tracer._runs)
            is_root = not stack and tracer._root is None
            if is_root:
                tracer._root = span_id
            stack.append((span_id, run))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, run, threading.get_ident())
                )
            tracer.observe_size(result)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children may run on other threads and overlap one another; the union
    of their intervals is subtracted, so a parent waiting on a pool is
    charged only for the time no child was running.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children[s.id]) for s in spans}
