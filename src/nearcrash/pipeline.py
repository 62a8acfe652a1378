"""Detection runtime: one processing loop for offline and live mode.

`run` is the one loop, and it owns tracker and rule state. For each
frame it runs the tracker, passes the frame to the event recorder, and
for every confirmed track runs the TTC fit and the size rule, then, where
that passes or for annotations, the motion fit and the decision; triggers
go to the recorder. With an `annotation_sink`, each processed frame's
`FrameSummary` goes to it as soon as the frame's decisions are made, and
`run` keeps none of them. A frame the tracker rejects, its time not finite
or not after the previous frame's, is counted and never reaches the
recorder or the annotation sink. The `on_frame` hook runs after every
consumed frame, rejected ones included.
The recorder owns the rest of an event record: the pre-event ring of
frame ids, the GPS lookup and the event ids. It runs inline in the loop
in both modes.

Offline mode reads every frame straight from the source, in order, so
results are reproducible byte for byte. Live mode reads the source in a
producer thread and couples it to the loop through a capacity-one
latest-wins queue: when frames arrive faster than they can be processed,
an unconsumed frame is replaced by the newer one and counted as dropped,
so the loop always sees the freshest frame. A frame put while the loop
is already waiting is handed to it and never replaced, so an idle loop
loses no frame. The event sink, the one call that may block for long,
runs on a single worker thread in live mode, so slow event persistence
cannot stall detection.

Frame timestamps always come from the source (capture time), never from
processing time.
A torn last line (`streams.TornLineError`) ends the source like its end
would; `run` counts it and builds the whole `ThroughputReport`.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from collections import deque
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .config import Checked, EngineConfig, PipelineParams, Record, at_least
from .gps import GpsFix
from .rules import NearCrashDecision, RuleEngine, check_size_rule, event_type_for
from .streams import FrameRecord, TornLineError
from .tracker import NonMonotonicFrameError, Tracker
from .ttc import horizontal_motion, ttc_from_window

POST_EVENT_SECONDS = 10.0


class LatestFrameQueue:
    """Capacity-one channel where a new item replaces an unconsumed one.

    Replaced items are counted as dropped. get() blocks until an item is
    available or the queue is closed and drained, then returns None. An
    item put while a consumer is blocked in get() is promised to it: put()
    returns only once it is taken (or the queue is closed), and no later
    put() replaces it.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._item = None
        self._has_item = False
        self._promised = False
        self._waiting = 0  # consumers blocked in get()
        self._closed = False
        self._dropped = 0

    def put(self, item) -> None:
        with self._cond:
            while self._promised and not self._closed:
                self._cond.wait()
            if self._closed:
                raise RuntimeError("put() on a closed queue")
            if self._has_item:
                self._dropped += 1
            self._item = item
            self._has_item = True
            self._promised = self._waiting > 0
            self._cond.notify_all()
            while self._promised and not self._closed:
                self._cond.wait()

    def get(self):
        with self._cond:
            self._waiting += 1
            while not self._has_item and not self._closed:
                self._cond.wait()
            self._waiting -= 1
            if not self._has_item:
                return None
            item = self._item
            self._item = None
            self._has_item = False
            self._promised = False
            self._cond.notify_all()
            return item

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def dropped(self) -> int:
        with self._cond:
            return self._dropped


@dataclass(frozen=True)
class TrackAnnotation(NearCrashDecision):
    """A track-frame's decision with the track it was made for."""

    track_id: int
    kind: str = field(metadata={"key": "class"})
    box: Tuple[float, float, float, float]


@dataclass(frozen=True)
class FrameSummary(Record):
    frame_id: int
    t: float
    tracks: Tuple[TrackAnnotation, ...]


class ContextBuffer:
    """Ring of (frame_id, t) pairs spanning the pre-event window."""

    def __init__(self, span_seconds: float):
        if span_seconds <= 0:
            raise ValueError("span_seconds must be > 0")
        self.span_seconds = span_seconds
        self._buf: deque = deque()

    def append(self, frame_id: int, t: float) -> None:
        self._buf.append((frame_id, t))
        cutoff = t - self.span_seconds
        while self._buf[0][1] < cutoff:
            self._buf.popleft()

    def frames_since(self, t_min: float) -> List[int]:
        """Ids of the frames at or after t_min, oldest first."""
        return [frame_id for frame_id, t in self._buf if t >= t_min]

    def __len__(self) -> int:
        return len(self._buf)


@dataclass
class NearCrashEvent(Record):
    event_id: int
    track_id: int
    event_type: str
    trigger_time: float
    ttc_h: Optional[float]
    ttc_w: Optional[float]
    gps: Optional[GpsFix]
    clip_start: float
    clip_end: float
    frame_ids: List[int]
    truncated: bool
    size_rule_pass: bool
    motion_rule_pass: bool
    motion_product: float


_fix_time = attrgetter("t")


class EventRecorder:
    """Builds near-crash event records with their context and location.

    The recorder owns everything a record needs: the pre-event ring of
    frame ids, whose span is the clip's pre-event span, the GPS fixes in
    time order and the event ids. Call on_frame for every processed frame
    and then on_trigger for each trigger in that frame. A record is built
    at its trigger and keeps accumulating frame ids until its post window
    elapses; a record whose post window runs past the end of the stream is
    cut at the last frame and flagged truncated by finish().
    A sink failure keeps the event in memory; its message is kept in
    `sink_failures`, which `run` returns as `RunResult.sink_failures` and
    counts in `ThroughputReport.sink_failures`. The sink runs on
    `sink_executor`, or in the calling thread when that is None (live runs
    pass one).
    """

    def __init__(
        self,
        pre_seconds: float = PipelineParams.buffer_seconds,
        post_seconds: float = POST_EVENT_SECONDS,
        sink: Optional[Callable[[NearCrashEvent], None]] = None,
        gps_fixes: Optional[Sequence[GpsFix]] = None,
        sink_executor: Optional[Executor] = None,
    ):
        self.context = ContextBuffer(pre_seconds)
        self.post_seconds = post_seconds
        self.sink = sink
        self.sink_executor = sink_executor
        self.fixes = sorted(gps_fixes, key=_fix_time) if gps_fixes else []
        self.events: List[NearCrashEvent] = []
        self.sink_failures: List[str] = []
        self._pending: List[NearCrashEvent] = []
        self._stream_start: Optional[float] = None
        self._next_event_id = 1

    def on_frame(self, frame_id: int, t: float) -> None:
        if self._stream_start is None:
            self._stream_start = t
        self.context.append(frame_id, t)
        still_open = []
        for event in self._pending:
            if t <= event.clip_end:
                event.frame_ids.append(frame_id)
                still_open.append(event)
            else:
                self._finalize(event)
        self._pending = still_open

    def on_trigger(
        self, track_id: int, kind: str, t: float, decision: NearCrashDecision
    ) -> None:
        """Open the record of a trigger in the frame last passed to on_frame."""
        pre_start = t - self.context.span_seconds
        self._pending.append(
            NearCrashEvent(
                event_id=self._next_event_id,
                track_id=track_id,
                event_type=event_type_for(kind),
                trigger_time=t,
                ttc_h=decision.ttc_h,
                ttc_w=decision.ttc_w,
                gps=self._latest_gps(t),
                clip_start=max(pre_start, self._stream_start),
                clip_end=t + self.post_seconds,
                # the ring already holds the triggering frame
                frame_ids=self.context.frames_since(pre_start),
                truncated=False,
                size_rule_pass=decision.size_rule_pass,
                motion_rule_pass=decision.motion_rule_pass,
                motion_product=decision.motion_product,
            )
        )
        self._next_event_id += 1

    def finish(self, stream_end_t: Optional[float]) -> None:
        for event in self._pending:
            if stream_end_t is not None and stream_end_t < event.clip_end:
                event.clip_end = stream_end_t
                event.truncated = True
            self._finalize(event)
        self._pending = []

    def _latest_gps(self, t: float) -> Optional[GpsFix]:
        # the last fix at or before t; of fixes with equal times, the last given
        i = bisect_right(self.fixes, t, key=_fix_time)
        return self.fixes[i - 1] if i else None

    def _finalize(self, event: NearCrashEvent) -> None:
        self.events.append(event)
        if self.sink is None:
            return
        if self.sink_executor is None:
            self._deliver(event)
        else:
            self.sink_executor.submit(self._deliver, event)

    def _deliver(self, event: NearCrashEvent) -> None:
        try:
            self.sink(event)
        except Exception as exc:  # event stays in memory either way
            self.sink_failures.append(f"event {event.event_id}: {exc}")


@dataclass
class ThroughputReport(Checked):
    frames_produced: int = at_least(0, 0)
    frames_processed: int = at_least(0, 0)
    frames_dropped: int = at_least(0, 0)
    frames_rejected: int = at_least(0, 0)
    wall_seconds: float = at_least(0.0, 0)
    achieved_fps: float = at_least(0.0, 0)  # 0.0 when no time has passed
    sink_failures: int = at_least(0, 0)
    torn_lines: int = at_least(0, 0)  # torn stream tails that ended the source


@dataclass
class RunResult:
    events: List[NearCrashEvent]
    report: ThroughputReport
    sink_failures: List[str]  # `event <id>: <error>` for each event the sink failed on
    error: Optional[Exception] = None  # the failure that ended the source
    torn_line: Optional[TornLineError] = None  # the torn tail that ended it


class _Source:
    """Iterates a frame source, counting its frames and keeping what ended it."""

    def __init__(self, frames: Iterable[FrameRecord]):
        self.frames = frames
        self.produced = 0
        self.torn_line: Optional[TornLineError] = None
        self.error: Optional[Exception] = None

    def __iter__(self):
        try:
            for frame in self.frames:
                self.produced += 1
                yield frame
        except TornLineError as exc:
            self.torn_line = exc
        except Exception as exc:
            self.error = exc


def _produce(source: _Source, queue: LatestFrameQueue) -> None:
    try:
        for frame in source:
            queue.put(frame)
    except RuntimeError:  # the queue was closed: the processing loop stopped
        pass
    finally:
        queue.close()


def run(
    source: Iterable[FrameRecord],
    config: EngineConfig,
    gps_fixes: Optional[Sequence[GpsFix]] = None,
    event_sink: Optional[Callable[[NearCrashEvent], None]] = None,
    on_frame: Optional[Callable[[FrameRecord], None]] = None,
    annotation_sink: Optional[Callable[[FrameSummary], None]] = None,
) -> RunResult:
    """Run the engine over a frame source in the configured mode.

    on_frame, when given, is called by the processing loop after every
    consumed frame, rejected ones included (instrumentation hook; a slow
    one acts as a slow engine). event_sink is called for each finalized
    event: inline offline, on a worker thread in live mode.
    annotation_sink, when given, is called inline with each processed
    frame's `FrameSummary`, before on_frame, in both modes.
    """
    live = config.pipeline.mode == "live"
    frames = _Source(source)
    # its worker thread starts with the first event
    sink_executor = ThreadPoolExecutor(1, "nearcrash-sink") if live else None
    recorder = EventRecorder(
        pre_seconds=config.pipeline.buffer_seconds, sink=event_sink, gps_fixes=gps_fixes,
        sink_executor=sink_executor,
    )
    tracker = Tracker(config.tracker, config.regression)
    engine = RuleEngine(config.rules, config.camera)
    size_len, rules = config.regression.size_window_len, config.rules
    motion_fit = (config.regression.center_window_len, config.camera, rules.c_los)
    processed = rejected = 0
    last_t: Optional[float] = None
    start = time.monotonic()
    if live:
        queue = LatestFrameQueue()
        producer = threading.Thread(
            target=_produce, args=(frames, queue), name="nearcrash-source", daemon=True
        )
        producer.start()
        feed = iter(queue.get, None)
    else:
        feed = frames
    try:
        for frame in feed:
            try:
                tracks = tracker.step(frame)
            except NonMonotonicFrameError:
                rejected += 1
            else:
                recorder.on_frame(frame.frame_id, frame.t)
                annotated = [] if annotation_sink is not None else None
                for trk in tracks:
                    est = ttc_from_window(trk.window, size_len)
                    # a trigger needs the size rule: unless annotating, a failing one is done
                    if annotated is None and not check_size_rule(est, rules):
                        continue
                    omega = horizontal_motion(trk.window, *motion_fit)
                    decision = engine.decide(trk, est, omega, frame.t)
                    if annotated is not None:
                        annotated.append(TrackAnnotation(
                            **asdict(decision), track_id=trk.id, kind=trk.kind, box=trk.box()
                        ))
                    if decision.triggered:
                        recorder.on_trigger(trk.id, trk.kind, frame.t, decision)
                if annotated is not None:
                    annotation_sink(FrameSummary(frame.frame_id, frame.t, tuple(annotated)))
                processed += 1
                last_t = frame.t
            if on_frame is not None:
                on_frame(frame)
    finally:
        # on a failure the producer, a daemon thread, stops at its next put()
        # on the closed queue; the recorder still finalizes every pending event
        if live:
            queue.close()
        try:
            recorder.finish(last_t)
        finally:
            if sink_executor is not None:
                sink_executor.shutdown()
    if live:
        producer.join()  # it closed the queue that ended the loop, so it is done
    wall = time.monotonic() - start
    report = ThroughputReport(
        frames_produced=frames.produced,
        frames_processed=processed,
        frames_dropped=queue.dropped if live else 0,
        frames_rejected=rejected,
        wall_seconds=wall,
        achieved_fps=processed / wall if wall > 0 else 0.0,
        sink_failures=len(recorder.sink_failures),
        torn_lines=int(frames.torn_line is not None),
    )
    return RunResult(
        events=recorder.events,
        report=report,
        sink_failures=recorder.sink_failures,
        error=frames.error,
        torn_line=frames.torn_line,
    )
