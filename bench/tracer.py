"""Span tracer that wraps functions by replacing module and class attributes.

Each wrapped call is a span with a start, an end and a parent: the span that
was open on the same thread when it started.  Spans are aggregated per
``(name, parent name)`` as they close, so a long run keeps O(layers) memory
instead of one record per call.  Self time is a span's duration minus the
time its traced children on the same thread took.

``install`` swaps every wrapper in and ``restore`` puts every original object
back, so untraced runs execute the program exactly as shipped.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, total, self]
        self.counts: defaultdict[str, float] = defaultdict(float)


class Tracer:
    """Collects spans and counters from the functions it wraps."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._plan: list[tuple[object, str, object]] = []  # owner, attr, replacement
        self._saved: list[tuple[object, str, object]] = []  # owner, attr, original

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._states_lock:
                self._states.append(st)
        return st

    def _wrapper(self, original, name: str, after):
        local = self._local
        new_state = self._state

        @functools.wraps(original)
        def traced(*args, **kwargs):
            st = getattr(local, "st", None) or new_state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = _perf()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = _perf() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                key = (name, parent[0] if parent is not None else None)
                agg = st.spans.get(key)
                if agg is None:
                    agg = st.spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
            if after is not None:
                after(st.counts, args, kwargs, result)
            return result

        return traced

    # -- patch plan ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Plan to trace ``owner.attr`` as span ``name``.

        ``after(counts, args, kwargs, result)`` runs after each call and may
        add to the calling thread's counters.
        """
        original = vars(owner)[attr]
        self._plan.append((owner, attr, self._wrapper(original, name, after)))

    def replace(self, owner, attr: str, value) -> None:
        """Plan to swap ``owner.attr`` for ``value`` while installed."""
        vars(owner)[attr]  # the attribute must exist on the owner itself
        self._plan.append((owner, attr, value))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, replacement in self._plan:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def patched_attributes(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _ in self._plan]

    # -- results -------------------------------------------------------------

    def spans(self) -> dict[tuple[str, str | None], tuple[int, float, float]]:
        """(name, parent) -> (calls, total seconds, self seconds), all threads."""
        merged: dict[tuple[str, str | None], list] = {}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for key, (calls, total, self_s) in st.spans.items():
                agg = merged.setdefault(key, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
        return {key: tuple(v) for key, v in merged.items()}

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        merged: dict[str, list] = {}
        for (name, _), (calls, total, self_s) in self.spans().items():
            agg = merged.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return {name: tuple(v) for name, v in merged.items()}

    def counts(self) -> dict[str, float]:
        merged: defaultdict[str, float] = defaultdict(float)
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for name, value in st.counts.items():
                merged[name] += value
        return dict(merged)

    def format_spans(self) -> str:
        """Span table by parent, largest total first, for the run's log."""
        rows = sorted(self.spans().items(), key=lambda kv: -kv[1][1])
        lines = [f"{'span':<40} {'parent':<32} {'calls':>10} {'total_s':>10} {'self_s':>10}"]
        for (name, parent), (calls, total, self_s) in rows:
            lines.append(
                f"{name:<40} {parent or '-':<32} {calls:>10} {total:>10.4f} {self_s:>10.4f}"
            )
        return "\n".join(lines)
