"""Outside-in span tracer for engine runs.

While a `Tracer` is installed (a `with tracer.installed():` block), the
public callables listed in `TARGETS` are replaced, at their module or class
attribute, by wrappers that open a span around each call; on exit the
originals are put back. Spans nest on a per-thread stack. Each frame is a
root span that the replay source opens before parsing the line and the
`on_frame` hook closes; a span's self time is its duration minus the time
of its direct children, so the self times of all spans in one tree add up
to the root's duration.

In live mode the frame span crosses threads: the source (running in the
engine's producer thread) parks it after parsing, and the wrapped
`LatestFrameQueue.get` resumes it in the processing thread, with the time
the frame spent queued as a child named "pipeline.queue.wait".

Statistics are kept per thread and merged by `snapshot()`, so no lock is
taken per span.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from nearcrash import pipeline, streams, tracker, ttc
from nearcrash.pipeline import ContextBuffer, EventRecorder, LatestFrameQueue
from nearcrash.rules import RuleEngine
from nearcrash.tracker import KalmanBoxFilter, Tracker

FRAME = "frame"
QUEUE_WAIT = "pipeline.queue.wait"
QUEUE_GET = "pipeline.queue.get"

# span index layout: name, start, child time, parent, root, tree self time
_NAME, _START, _CHILD, _PARENT, _ROOT, _TREE_SELF = range(6)


def _count_associate(counts, args, result):
    predicted, detections = args[0], args[1]
    matches, _, unmatched_d = result
    counts["tracker.associate.cells"] += len(predicted) * len(detections)
    counts["tracker.associate.detections"] += len(detections)
    counts["tracker.associate.matches"] += len(matches)
    counts["tracker.tracks_born"] += len(unmatched_d)


def _count_step(counts, args, result):
    counts["tracker.live_tracks"] += len(args[0].tracks)


def _count_ready(key):
    def count(counts, args, result):
        counts[key] += result is not None

    return count


def _count_decide(counts, args, result):
    counts["rules.track_frames"] += 1
    counts["rules.size_pass"] += result.size_rule_pass
    counts["rules.motion_pass"] += result.motion_rule_pass
    counts["rules.both_pass"] += result.size_rule_pass and result.motion_rule_pass
    counts["rules.triggered"] += result.triggered


def _count_context(counts, args, result):
    counts["pipeline.context.len"] += len(args[0])


# (owner, attribute, span name, counter hook)
TARGETS: Tuple[Tuple[object, str, str, Optional[Callable]], ...] = (
    (streams, "frame_from_json", "streams.parse", None),
    (Tracker, "step", "tracker.step", _count_step),
    (tracker, "associate", "tracker.associate", _count_associate),
    (KalmanBoxFilter, "predict", "tracker.kalman_predict", None),
    (KalmanBoxFilter, "update", "tracker.kalman_update", None),
    (pipeline, "ttc_from_window", "ttc.size", _count_ready("ttc.size.ready")),
    (pipeline, "horizontal_motion", "ttc.motion", _count_ready("ttc.motion.ready")),
    (ttc, "fit_slope", "ttc.fit_slope", None),
    (RuleEngine, "decide", "rules.decide", _count_decide),
    (ContextBuffer, "append", "pipeline.context.append", _count_context),
    (ContextBuffer, "frames_since", "pipeline.context.frames_since", None),
    (EventRecorder, "on_frame", "pipeline.record.on_frame", None),
    (EventRecorder, "on_trigger", "pipeline.record.on_trigger", None),
    (EventRecorder, "finish", "pipeline.record.finish", None),
    (LatestFrameQueue, "get", QUEUE_GET, None),
)


class _Counts(dict):
    def __missing__(self, key):
        return 0


@dataclass
class _ThreadState:
    stack: list = field(default_factory=list)
    # name -> [calls, total seconds, self seconds]
    spans: Dict[str, List[float]] = field(default_factory=dict)
    # root name -> [roots, total seconds, summed self seconds of the tree]
    roots: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=_Counts)


@dataclass
class Snapshot:
    """Span and counter totals of every thread a tracer saw."""

    spans: Dict[str, List[float]]
    roots: Dict[str, List[float]]
    counts: Dict[str, float]
    dropped_self: float  # self time of spans in frames the queue dropped


class Tracer:
    """Collects spans and counters from the wrapped engine callables."""

    def __init__(self):
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._register = threading.Lock()
        self._parked: Dict[int, Tuple[list, float]] = {}
        self._parked_lock = threading.Lock()
        self.dropped_self = 0.0  # seconds

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._register:
                self._states.append(state)
            return state

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> list:
        stack = self._state().stack
        parent = stack[-1] if stack else None
        span = [name, perf_counter(), 0.0, parent, None, 0.0]
        span[_ROOT] = span if parent is None else parent[_ROOT]
        stack.append(span)
        return span

    def exit(self, span: list) -> None:
        end = perf_counter()
        state = self._state()
        popped = state.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[_NAME]} closed out of order")
        self._close(state, span, end - span[_START])

    def _close(self, state: _ThreadState, span: list, duration: float) -> None:
        own = duration - span[_CHILD]
        rec = state.spans.get(span[_NAME])
        if rec is None:
            rec = state.spans[span[_NAME]] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += own
        span[_ROOT][_TREE_SELF] += own
        parent = span[_PARENT]
        if parent is not None:
            parent[_CHILD] += duration
            return
        root = state.roots.get(span[_NAME])
        if root is None:
            root = state.roots[span[_NAME]] = [0, 0.0, 0.0]
        root[0] += 1
        root[1] += duration
        root[2] += span[_TREE_SELF]

    def counts(self) -> Dict[str, float]:
        return self._state().counts

    # -- frame spans -------------------------------------------------------

    def open_frame(self) -> None:
        """Open the frame's root span in the source, before parsing."""
        if self._state().stack:
            raise RuntimeError("frame span opened inside another span")
        self.enter(FRAME)

    def park_frame(self, frame_id: int) -> None:
        """Hand the open frame span over to the thread that will process it."""
        span = self._state().stack.pop()
        if span[_NAME] != FRAME:
            raise RuntimeError(f"parking {span[_NAME]}, not a frame span")
        with self._parked_lock:
            self._parked[frame_id] = (span, perf_counter())

    def resume_frame(self, frame_id: int) -> None:
        """Continue a parked frame span on this thread; the queued time is its child."""
        with self._parked_lock:
            span, parked_at = self._parked.pop(frame_id)
        now = perf_counter()
        state = self._state()
        state.stack.append(span)
        wait = [QUEUE_WAIT, parked_at, 0.0, span, span[_ROOT], 0.0]
        self._close(state, wait, now - parked_at)

    def close_frame(self) -> None:
        """Close the frame span in the on_frame hook."""
        state = self._state()
        span = state.stack[-1] if state.stack else None
        if span is None or span[_NAME] != FRAME:
            raise RuntimeError("on_frame reached with no open frame span")
        self.exit(span)

    def drop_parked(self) -> None:
        """Discard frame spans never resumed: frames the queue dropped.

        Call after a run. Their children's self time is kept in
        `dropped_self` so that all self times still add up.
        """
        with self._parked_lock:
            parked, self._parked = self._parked, {}
        self.dropped_self += sum(span[_TREE_SELF] for span, _ in parked.values())

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name: str, hook: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(span)
            if hook is not None:
                hook(tracer.counts(), args, result)
            return result

        return traced

    def _wrap_get(self, fn):
        traced = self._wrap(fn, QUEUE_GET, None)
        tracer = self

        @functools.wraps(fn)
        def get_and_resume(*args, **kwargs):
            frame = traced(*args, **kwargs)
            if frame is not None:
                tracer.resume_frame(frame.frame_id)
            return frame

        return get_and_resume

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it.

        On exit each attribute is checked to be its original object again.
        """
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
        try:
            for (owner, attr, name, hook), (_, _, fn) in zip(TARGETS, originals):
                wrapper = self._wrap_get(fn) if name == QUEUE_GET else self._wrap(fn, name, hook)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
        leftover = [f"{getattr(o, '__name__', o)}.{a}" for o, a, fn in originals if o.__dict__[a] is not fn]
        if leftover:
            raise RuntimeError(f"traced attributes not restored: {', '.join(leftover)}")

    def snapshot(self) -> Snapshot:
        """Merge the per-thread statistics; call after the traced threads ended."""
        spans: Dict[str, List[float]] = {}
        roots: Dict[str, List[float]] = {}
        counts: Dict[str, float] = _Counts()
        with self._register:
            states = list(self._states)
        for state in states:
            for table, merged in ((state.spans, spans), (state.roots, roots)):
                for name, rec in table.items():
                    into = merged.setdefault(name, [0, 0.0, 0.0])
                    for i in range(3):
                        into[i] += rec[i]
            for name, value in state.counts.items():
                counts[name] += value
        return Snapshot(spans=spans, roots=roots, counts=counts, dropped_self=self.dropped_self)
