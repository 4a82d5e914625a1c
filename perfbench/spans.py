"""Host-time spans around the public calls into each ``repro`` layer.

The benchmark measures the program from outside: :class:`Tracer`
replaces a set of functions and methods with wrappers that record a
nested span per call (name, start, end, enclosing span) and count the
call.  Nothing under ``src/`` knows about it.

A span's *self time* is its duration minus the time covered by its
child spans; summed per layer it says where a run's host time went.
Spans of the hot leaf calls (positions, link checks, energy charges,
registry lookups, ...) run millions of times per run, so they are
aggregated into per-name counts and times and not kept one by one;
every other span is kept in memory and written out by :meth:`write`
when the run ends.

Patching is process-wide: install, run, then :meth:`Tracer.uninstall`
restores every original before anything else runs.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import time
from array import array
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple


class Hook:
    """One wrapped attribute: ``owner.attr`` recorded as span ``name``."""

    __slots__ = ("owner", "attr", "name", "keep", "observe")

    def __init__(
        self,
        owner: object,
        attr: str,
        name: str,
        keep: bool = True,
        observe: Optional[Callable[..., None]] = None,
    ) -> None:
        self.owner = owner
        self.attr = attr
        self.name = name
        #: Keep every span of this name (False: aggregate only).
        self.keep = keep
        #: Called with the wrapped call's arguments before it runs.
        self.observe = observe


class Tracer:
    """Records nested spans for the hooks it installs."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.calls: List[int] = []
        #: Inclusive seconds, counting re-entrant calls of a name once.
        self.total: List[float] = []
        self.self_time: List[float] = []
        #: Calls made directly from inside each name's spans, to hooks
        #: without and with an ``observe`` callback.
        self.children: List[int] = []
        self.observed_children: List[int] = []
        #: Open spans per name (non-zero while a call is in progress).
        self.depth: List[int] = []
        # Open spans: [child seconds, span id (-1 = not kept), children,
        # observed children].
        self._stack: List[list] = []
        self._next_id = 0
        # Kept spans, one row per array index.
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Wrapper cost per call as :func:`calibrate` measures it, times
        #: ``scale`` (see :meth:`fit_overhead`); :meth:`self_seconds`
        #: subtracts it.
        self.overhead = Overhead(0.0, 0.0, 0.0)
        self.scale = 1.0
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.children.append(0)
            self.observed_children.append(0)
            self.depth.append(0)
        return idx

    def install(self, hooks: Sequence[Hook]) -> None:
        for hook in hooks:
            original = hook.owner.__dict__[hook.attr]
            self._patched.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, self._wrap(hook, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        idx = self.index(hook.name)
        keep = hook.keep
        observe = hook.observe
        stack = self._stack
        depth = self.depth
        calls = self.calls
        total = self.total
        self_time = self.self_time
        children = self.children
        observed_children = self.observed_children
        slot = 2 if observe is None else 3
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            if keep:
                span = tracer._next_id
                tracer._next_id = span + 1
                parent = stack[-1][1] if stack else -1
            else:
                span = -1
            frame = [0.0, span, 0, 0]
            stack.append(frame)
            depth[idx] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[idx] -= 1
                elapsed = end - start
                calls[idx] += 1
                self_time[idx] += elapsed - frame[0]
                children[idx] += frame[2]
                observed_children[idx] += frame[3]
                if not depth[idx]:
                    total[idx] += elapsed
                if stack:
                    parent_frame = stack[-1]
                    parent_frame[0] += elapsed
                    parent_frame[slot] += 1
                if keep:
                    tracer.span_id.append(span)
                    tracer.span_parent.append(parent)
                    tracer.span_name.append(idx)
                    tracer.span_start.append(start)
                    tracer.span_end.append(end)

        return wrapper

    # -- results ---------------------------------------------------------

    def count(self, name: str) -> int:
        idx = self._index.get(name)
        return 0 if idx is None else self.calls[idx]

    def seconds(self, name: str) -> float:
        idx = self._index.get(name)
        return 0.0 if idx is None else self.total[idx]

    def _wrapper_cost(self, idx: int) -> float:
        cost = self.overhead
        return (
            cost.outside * self.children[idx]
            + cost.outside_observed * self.observed_children[idx]
            + cost.inside * self.calls[idx]
        )

    def fit_overhead(self, untraced_seconds: float) -> None:
        """Scale the calibrated wrapper cost so that the corrected self
        times add up to ``untraced_seconds``, the same pass measured
        without spans.  :func:`calibrate` gives the cost's split between
        hooks; one short calibration on a noisy host is too rough for
        its size, which on call-heavy passes is most of the traced time.
        """
        raw = sum(self.self_time)
        cost = sum(self._wrapper_cost(i) for i in range(len(self.names)))
        self.scale = max(0.0, (raw - untraced_seconds) / cost) if cost else 0.0

    def self_seconds(self, name: str) -> float:
        """Self time of ``name`` less the wrappers' own cost."""
        idx = self._index.get(name)
        if idx is None:
            return 0.0
        wrappers = self.scale * self._wrapper_cost(idx)
        return max(0.0, self.self_time[idx] - wrappers)

    def write(self, path) -> int:
        """Write the kept spans as gzipped CSV; returns the row count.

        Columns: ``id,parent,name,start_s,end_s`` (host seconds on the
        ``time.perf_counter`` clock; ``parent`` is -1 at the root).
        """
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,start_s,end_s\n")
            for row in zip(
                self.span_id, self.span_parent, self.span_name,
                self.span_start, self.span_end,
            ):
                out.write(
                    f"{row[0]},{row[1]},{names[row[2]]},"
                    f"{row[3]!r},{row[4]!r}\n"
                )
        return len(self.span_id)


class Overhead(NamedTuple):
    """Seconds one wrapped call adds, outside and inside its span."""

    #: Lands in the caller's self time (frame bookkeeping).
    outside: float
    #: The same for a hook with an ``observe`` callback that records a
    #: ``(object, time)`` pair, as the position hook does.
    outside_observed: float
    #: Lands in the callee's own span (the clock read).
    inside: float


class _Probe:
    def leaf(self, now: float) -> None:
        return None

    def loop(self, calls: int) -> None:
        leaf = self.leaf
        for i in range(calls):
            leaf(i * 0.5)


def _wrapped_cost(calls: int, observe) -> Tuple[float, float]:
    """(added seconds per call, of which inside the span) for one hook."""
    clock = time.perf_counter
    probe = _Probe()
    start = clock()
    probe.loop(calls)
    bare = clock() - start
    tracer = Tracer()
    tracer.install([Hook(_Probe, "leaf", "leaf", False, observe)])
    try:
        start = clock()
        probe.loop(calls)
        wrapped = clock() - start
    finally:
        tracer.uninstall()
    return (wrapped - bare) / calls, tracer.self_time[0] / calls


def calibrate(calls: int = 50_000, repeats: int = 7) -> Overhead:
    """Measure :class:`Overhead` on an empty one-argument method.

    Medians of ``repeats`` rounds of ``calls`` calls each, so that a
    burst of host noise does not set the correction.
    """
    plain, observed, inside = [], [], []
    for _ in range(repeats):
        added, within = _wrapped_cost(calls, None)
        plain.append(max(0.0, added - within))
        inside.append(within)
        seen: set = set()
        added, within = _wrapped_cost(
            calls, lambda obj, now: seen.add((id(obj), now))
        )
        observed.append(max(0.0, added - within))
    return Overhead(
        statistics.median(plain),
        statistics.median(observed),
        statistics.median(inside),
    )
