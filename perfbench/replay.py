"""Replay a workload through `nearcrash.pipeline.run` and time every frame."""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set

from nearcrash import build_config, pipeline, streams
from nearcrash.pipeline import ThroughputReport

MIN_TRACED_PASSES = 2  # of each kind in a traced run
MAX_STRETCH = 3  # a run may last this many times --seconds to get them
SPIN_S = 0.002
REPIN_S = 0.5  # offline passes choose the fastest CPU again this often


def _sleep_until(due: float, spin: float) -> None:
    """Wait for a frame's due time, releasing the interpreter lock at least once.

    A real source blocks on I/O for every frame, which lets the engine's
    threads run; a replay that is behind schedule must not hold the lock
    through a burst of frames either. Waking from a long sleep on a shared
    virtual machine often runs late by a few hundred microseconds, so the
    last `spin` seconds are spent yielding the lock in a loop instead.
    """
    time.sleep(0)
    while True:
        wait = due - perf_counter()
        if wait <= 0:
            return
        time.sleep(0 if wait < spin else wait - spin)


def _spin_probe() -> float:
    """Seconds for a fixed loop of about 1 ms of interpreter work."""
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return perf_counter() - start


def _cpus() -> Set[int]:
    """The CPUs this thread may run on; empty where affinity is not supported."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()


def pin_to_fastest_cpu(cpus: Set[int]) -> None:
    """Move the calling thread, and the threads and processes it starts, to the fastest CPU.

    On a shared host one virtual CPU often runs about 1.4 times slower than
    the other for seconds at a time, while a neighbour loads its physical
    core. A short probe on each of `cpus` picks the one that currently runs
    at full speed. Only this thread's own affinity changes.
    """
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin_probe() for _ in range(3))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


@contextlib.contextmanager
def on_fastest_cpu():
    """Run the block on the fastest CPU, then restore this thread's affinity."""
    cpus = _cpus()
    pin_to_fastest_cpu(cpus)
    try:
        yield cpus
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


class Replay:
    """Frame source that parses JSONL lines one by one, plus an on_frame hook.

    A frame's latency runs from when the source starts parsing its line
    (offline) or from its due time (live) to the engine's on_frame call.
    The live source is an open loop: frame k is due k / rate_hz after the
    first, whether or not the engine has kept up. It runs in the engine's
    own producer thread.
    """

    def __init__(self, lines: Sequence[str], rate_hz: Optional[float], tracer=None, cpus: Set[int] = frozenset()):
        self.lines = lines
        self.rate_hz = rate_hz
        self.tracer = tracer
        self.cpus = cpus
        self.first: Optional[float] = None
        self.latencies: Dict[int, float] = {}  # frame id -> seconds
        self.late: List[float] = []
        self.repinning = 0.0  # seconds spent between frames choosing a CPU
        self._started = 0.0

    def __iter__(self):
        return self._paced() if self.rate_hz else self._offline()

    def _offline(self):
        """Parse frames back to back, moving to the fastest CPU every REPIN_S.

        The engine runs in this thread between frames, so the move takes
        it along; the time spent choosing is left out of the pass's wall
        time and out of every frame's latency.
        """
        parse = streams.frame_from_json
        tracer = self.tracer
        repin_at = perf_counter() + REPIN_S
        for lineno, line in enumerate(self.lines, start=1):
            now = perf_counter()
            if now >= repin_at:
                pin_to_fastest_cpu(self.cpus)
                repin_at = perf_counter()
                self.repinning += repin_at - now
                repin_at += REPIN_S
            self._started = perf_counter()
            if self.first is None:
                self.first = self._started
            if tracer is not None:
                tracer.open_frame()
            yield parse(line, lineno)

    def _paced(self):
        parse = streams.frame_from_json
        tracer = self.tracer
        spin = min(SPIN_S, 0.25 / self.rate_hz)
        self.first = t0 = perf_counter()
        for k, line in enumerate(self.lines):
            due = t0 + k / self.rate_hz
            _sleep_until(due, spin)
            self.late.append(perf_counter() - due)
            if tracer is not None:
                tracer.open_frame()
            frame = parse(line, k + 1)
            if tracer is not None:
                tracer.park_frame(frame.frame_id)
            yield frame

    def on_frame(self, frame) -> None:
        now = perf_counter()
        if self.rate_hz:
            start = self.first + frame.frame_id / self.rate_hz
        else:
            start = self._started
        self.latencies[frame.frame_id] = now - start
        if self.tracer is not None:
            self.tracer.close_frame()


@dataclass
class Pass:
    """One replay of the whole stream."""

    traced: bool
    wall: float  # first line parsed to the return of run(), seconds
    latencies: Dict[int, float]  # frame id -> seconds
    late: List[float]
    report: ThroughputReport
    events: List[dict]
    error: Optional[str]

    def events_json(self) -> str:
        return json.dumps(self.events, sort_keys=True)


def run_pass(workload, config, tracer=None) -> Pass:
    """Replay the whole stream once, on the fastest CPU."""
    rate = workload.rate_hz if config.pipeline.mode == "live" else None
    with on_fastest_cpu() as cpus:
        replay = Replay(workload.lines, rate, tracer, cpus)
        result = pipeline.run(replay, config, gps_fixes=workload.gps_fixes, on_frame=replay.on_frame)
        wall = perf_counter() - replay.first - replay.repinning
    return Pass(
        traced=tracer is not None,
        wall=wall,
        latencies=replay.latencies,
        late=replay.late,
        report=result.report,
        events=[e.to_dict() for e in result.events],
        error=result.error,
    )


def _enough(passes: List[Pass], wanted: Dict[bool, int]) -> bool:
    """Each kind of pass (traced or not) has its count, and one dropped no frame."""
    for traced, count in wanted.items():
        mine = [p for p in passes if p.traced == traced]
        if len(mine) < count or all(p.report.frames_dropped for p in mine):
            return False
    return True


def collect(workload, seconds: float, tracer=None):
    """Replay the stream for `seconds`; returns (reference, passes).

    With a tracer, every other pass is traced. The reference is an offline
    pass: the first pass of an offline run, or one extra pass before a live
    run. The run goes on past `seconds`, up to MAX_STRETCH times it, until
    `_enough` holds, so that a live run that dropped frames in its first
    passes still gets a pass whose events can be compared.
    """
    config = build_config(workload.config)
    reference = None
    if config.pipeline.mode != "offline":
        reference = run_pass(workload, build_config({**workload.config, "pipeline": {"mode": "offline"}}))
    wanted = {False: workload.min_passes} if tracer is None else {False: MIN_TRACED_PASSES, True: MIN_TRACED_PASSES}
    passes: List[Pass] = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and (_enough(passes, wanted) or elapsed >= MAX_STRETCH * seconds):
            return reference or passes[0], passes
        if tracer is not None and len(passes) % 2 == 1:
            with tracer.installed():
                passes.append(run_pass(workload, config, tracer))
            tracer.drop_parked()
        else:
            passes.append(run_pass(workload, config))


def check_passes(workload, reference: Pass, passes: List[Pass]) -> List[str]:
    """The correctness gate over one run; returns every broken condition.

    Events must equal the offline reference's in every pass, traced or
    not, that dropped no frame (a dropped frame changes the tracker's
    input, so such a pass is only counted as failed frames).
    """
    problems = []
    if reference.error or reference.report.frames_processed != workload.frames:
        problems.append(f"reference pass: error={reference.error}, report={reference.report.to_dict()}")
    if workload.gps_fixes is not None:
        missing = [e["event_id"] for e in reference.events if e["gps"] is None]
        if missing:
            problems.append(f"events without gps: {missing}")
    expected = reference.events_json()
    compared = {p.traced: 0 for p in passes}
    for i, p in enumerate(passes):
        r = p.report
        kind = "traced" if p.traced else "untraced"
        if r.frames_produced != r.frames_processed + r.frames_dropped + r.frames_rejected:
            problems.append(f"pass {i}: frame accounting broken: {r.to_dict()}")
        if p.error is not None:
            problems.append(f"pass {i}: {p.error}")
        if r.frames_rejected:
            problems.append(f"pass {i}: {r.frames_rejected} valid frames rejected")
        if r.frames_dropped:
            continue
        compared[p.traced] += 1
        if p.events_json() != expected:
            problems.append(f"pass {i} ({kind}): events differ from the offline reference")
    for traced, n in compared.items():
        if n == 0:
            problems.append(f"no {'traced' if traced else 'untraced'} pass without dropped frames")
    if not passes:
        problems.append("no passes ran")
    return problems
