"""Outside-in tracing of qcopt's layer entry points.

The program itself carries no instrumentation.  A ``Tracer`` replaces each
entry point by a timing wrapper under the module attribute its caller looks
up (``qcopt.agent.enumerate_actions`` is the name ``agent.available_actions``
resolves at call time), and puts every original back when the ``installed()``
block ends, also on error.  An entry point that no longer exists is reported
in ``absent`` instead of failing the run, so refactors that delete or rename
one keep the benchmark working.

Spans nest through a stack: a span's self time is its duration minus the
durations of the spans that ran inside it.  Aggregates are kept per span
name, with optional result counters; raw durations are kept only for names
listed in ``keep_durations``.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class EntryPoint:
    """One traced layer boundary.

    ``targets`` are ``(module, attribute path)`` pairs naming where callers
    look the function up; a dotted attribute path patches a class attribute.
    ``count`` optionally names a counter and a function of the result whose
    value is added to it on every call.
    """

    span: str
    targets: tuple[tuple[str, str], ...]
    count: tuple[str, object] | None = None


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    entry_points: list[EntryPoint]
    keep_durations: frozenset = frozenset()
    stats: dict[str, SpanStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    durations: dict[str, list[float]] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    # one frame per open span: [time spent in child spans]
    _stack: list[list] = field(default_factory=list)

    def _record(self, name: str, dt: float, child_s: float):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_s += dt
        st.self_s += dt - child_s
        if self._stack:
            self._stack[-1][0] += dt
        if name in self.keep_durations:
            self.durations.setdefault(name, []).append(dt)

    def wrap(self, name: str, fn, count=None):
        stack = self._stack
        clock = time.perf_counter
        record = self._record
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                record(name, dt, frame[0])
            if count is not None:
                counters[count[0]] = counters.get(count[0], 0) + count[1](result)
            return result

        return traced

    def installed(self):
        """Patch every entry point that exists; restore all of them on exit."""
        return patched(self.entry_points, self.wrap, self.absent)


@contextmanager
def patched(entry_points: list[EntryPoint], wrap, absent: list[str]):
    """Replace every entry point that exists by ``wrap(span, original, count)``
    and restore all of them on exit; list the missing ones in ``absent``."""
    restore: list[tuple[object, str, object]] = []
    try:
        for ep in entry_points:
            found = False
            for module_name, path in ep.targets:
                resolved = _resolve(module_name, path)
                if resolved is None:
                    continue
                owner, attr, original = resolved
                restore.append((owner, attr, original))
                setattr(owner, attr, wrap(ep.span, original, ep.count))
                found = True
            if not found and ep.span not in absent:
                absent.append(ep.span)
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) for a dotted path, or None if any
    part is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # only patch what the class itself defines, so restoring never
        # shadows an inherited attribute
        if attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)
