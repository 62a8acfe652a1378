"""Pipeline tests: latest-wins queue, recorder contract, run() semantics."""

import gc
import hashlib
import io
import json
import threading
import time
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from nearcrash import pipeline
from nearcrash.config import RuleConfig, build_config
from nearcrash.gps import GpsFix
from nearcrash.pipeline import (
    ContextBuffer,
    EventRecorder,
    LatestFrameQueue,
    RunResult,
    run,
)
from nearcrash.rules import NearCrashDecision, RuleEngine
from nearcrash.sim import ActorSpec, ScenarioSpec, generate_detections, label_ground_truth_events
from nearcrash.streams import (
    CameraSpec, Detection, FrameRecord, read_detection_stream, write_detection_stream,
)
from nearcrash.tracker import Track, Tracker

from conftest import config_for_scenario, load_bundled_scenario, run_scenario
from test_sim import BUNDLED


class TestLatestFrameQueue:
    def test_latest_wins(self):
        q = LatestFrameQueue()
        q.put(1)
        q.put(2)
        q.put(3)
        assert q.get() == 3
        assert q.dropped == 2

    def test_no_drops_when_consumer_keeps_pace(self):
        q = LatestFrameQueue()
        for k in range(10):
            q.put(k)
            assert q.get() == k
        assert q.dropped == 0

    def test_closed_and_empty_returns_none(self):
        q = LatestFrameQueue()
        q.put("last")
        q.close()
        assert q.get() == "last"
        assert q.get() is None

    def test_put_after_close_rejected(self):
        q = LatestFrameQueue()
        q.close()
        with pytest.raises(RuntimeError):
            q.put(1)

    def test_get_blocks_until_put(self):
        q = LatestFrameQueue()
        got = []

        def consumer():
            got.append(q.get())

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        q.put("item")
        thread.join(timeout=2)
        assert got == ["item"]

    def test_item_put_for_a_waiting_consumer_is_not_replaced(self):
        q = LatestFrameQueue()
        got = []
        consumer = threading.Thread(target=lambda: got.append(q.get()), daemon=True)
        consumer.start()
        deadline = time.monotonic() + 5
        while q._waiting == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert q._waiting == 1, "consumer never blocked in get()"
        q.put(1)
        q.put(2)
        consumer.join(timeout=5)
        assert got == [1]
        assert q.dropped == 0
        assert q.get() == 2

    def test_close_releases_a_pending_handoff(self):
        q = LatestFrameQueue()
        q._waiting = 1  # as if a consumer were blocked in get()
        putter = threading.Thread(target=q.put, args=("frame",), daemon=True)
        putter.start()
        time.sleep(0.01)
        q.close()
        putter.join(timeout=5)
        assert not putter.is_alive()

    def test_random_bursts_always_newest(self):
        # deterministic lockstep: after any burst of puts, get() returns the
        # newest item of that burst
        import random

        rng = random.Random(11)
        q = LatestFrameQueue()
        next_id = 0
        for _ in range(1000):
            burst = rng.randrange(1, 6)
            for _ in range(burst):
                q.put(next_id)
                next_id += 1
            assert q.get() == next_id - 1


TRIGGER = NearCrashDecision(
    triggered=True,
    size_rule_pass=True,
    motion_rule_pass=True,
    ttc_h=2.0,
    ttc_w=4.0,
    omega=0.0,
    motion_product=0.0,
)


class TestEventRecorder:
    def feed(self, recorder, triggers, fps=10.0, duration=60.0):
        """Drive the recorder with a frame clock and trigger times."""
        n = int(duration * fps)
        pending = sorted(triggers)
        eid = 1
        last_t = None
        for k in range(n):
            t = k / fps
            recorder.on_frame(k, t)
            if pending and t >= pending[0]:
                recorder.on_trigger(eid, "vehicle", t, TRIGGER)
                eid += 1
                pending.pop(0)
            last_t = t
        recorder.finish(last_t)

    def test_clip_windows(self):
        recorder = EventRecorder()
        self.feed(recorder, triggers=[3.0, 15.0, 55.0], fps=10.0, duration=60.0)
        assert len(recorder.events) == 3
        early, mid, late = recorder.events
        assert (early.clip_start, early.clip_end) == (0.0, 13.0)
        assert not early.truncated
        assert (mid.clip_start, mid.clip_end) == (5.0, 25.0)
        assert not mid.truncated
        assert late.clip_start == 45.0
        assert late.clip_end == pytest.approx(59.9)  # last frame of the stream
        assert late.truncated

    def test_frame_ids_cover_post_window(self):
        recorder = EventRecorder()
        self.feed(recorder, triggers=[15.0], fps=10.0, duration=60.0)
        event = recorder.events[0]
        # post-trigger ids run from the trigger frame to trigger + 10 s
        assert event.frame_ids[-1] == 250
        assert max(event.frame_ids) == 250

    def test_sink_failure_keeps_event(self):
        def bad_sink(event):
            raise IOError("disk full")

        recorder = EventRecorder(sink=bad_sink)
        self.feed(recorder, triggers=[5.0], fps=10.0, duration=30.0)
        assert len(recorder.events) == 1
        assert len(recorder.sink_failures) == 1

    def test_trigger_near_stream_end_truncated(self):
        recorder = EventRecorder()
        self.feed(recorder, triggers=[29.0], fps=10.0, duration=30.0)
        event = recorder.events[0]
        assert event.truncated
        assert event.clip_end == pytest.approx(29.9)

    def test_post_window_must_be_positive(self):
        # a negative span would end a clip before it starts, a NaN one never
        for post in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="post_seconds must be > 0"):
                EventRecorder(post_seconds=post)
        with pytest.raises(ValueError, match="span_seconds must be > 0"):
            EventRecorder(pre_seconds=float("nan"))

    def test_gps_is_the_last_fix_at_or_before_the_trigger(self):
        first, tied, last = GpsFix(0.0, 1.0, 1.0), GpsFix(2.0, 2.0, 2.0), GpsFix(2.0, 3.0, 3.0)
        recorder = EventRecorder(gps_fixes=[tied, first, last])
        for k, t in enumerate([-1.0, 0.0, 1.9, 2.0, 30.0]):
            recorder.on_frame(k, t)
            recorder.on_trigger(k, "vehicle", t, TRIGGER)
        recorder.finish(30.0)
        # of fixes with equal times, the last given
        assert [e.gps for e in recorder.events] == [None, first, first, last, last]


@given(
    fps=st.floats(5.0, 60.0),
    t0=st.floats(0.0, 1e4),
    pre=st.floats(0.0, 20.0, exclude_min=True),
    post=st.floats(0.0, 20.0, exclude_min=True),
    n_frames=st.integers(1, 400),
    trigger_frames=st.lists(st.integers(0, 399), max_size=6),
)
def test_event_record_contract(fps, t0, pre, post, n_frames, trigger_frames):
    # frames and triggers in the order the processing loop passes them
    times = [t0 + k / fps for k in range(n_frames)]
    recorder = EventRecorder(pre_seconds=pre, post_seconds=post)
    for k, t in enumerate(times):
        recorder.on_frame(k, t)
        for _ in range(trigger_frames.count(k)):
            recorder.on_trigger(1, "vehicle", t, TRIGGER)
    recorder.finish(times[-1])
    assert len(recorder.events) == sum(k < n_frames for k in trigger_frames)
    for event in recorder.events:
        in_clip = [k for k, t in enumerate(times) if event.clip_start <= t <= event.clip_end]
        assert event.frame_ids == in_clip
        assert event.truncated == (times[-1] < event.trigger_time + post)


class TestContextBuffer:
    def test_prunes_by_time(self):
        buf = ContextBuffer(span_seconds=2.0)
        for k in range(100):
            buf.append(k, k / 10.0)
        times = [k / 10.0 for k in buf.frames_since(0.0)]
        assert times[0] >= 9.9 - 2.0 - 1e-9
        assert times[-1] == pytest.approx(9.9)

    def test_frames_since(self):
        buf = ContextBuffer(span_seconds=10.0)
        for k in range(50):
            buf.append(k, k / 10.0)
        ids = buf.frames_since(3.0)
        assert ids[0] == 30 and ids[-1] == 49

    def test_span_must_be_positive(self):
        # a NaN or infinite span would never evict
        for span in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="span_seconds must be > 0"):
                ContextBuffer(span)


@pytest.mark.parametrize("mode", ["offline", "live"])
def test_run_keeps_no_frame_summary(mode):
    # a sink that keeps only weak references: once run returns, no summary is alive
    scenario = load_bundled_scenario("head_on")
    source, step = lockstep(generate_detections(scenario))
    refs, threads = [], []

    def sink(summary):
        refs.append(weakref.ref(summary))
        threads.append(threading.current_thread())

    cfg = config_for_scenario(scenario, **{"pipeline.mode": mode})
    result = run(source, cfg, annotation_sink=sink, on_frame=step)
    gc.collect()
    assert len(refs) == result.report.frames_processed == 72
    assert [ref for ref in refs if ref() is not None] == []
    # the loop calls the sink inline in both modes
    assert set(threads) == {threading.current_thread()}
    assert [f.name for f in fields(RunResult)] == [
        "events", "report", "sink_failures", "error", "torn_line"
    ]


class TestOfflineRun:
    def test_head_on_event_matches_oracle(self):
        scenario = load_bundled_scenario("head_on")
        labels = label_ground_truth_events(scenario, delta=3.0)
        result = run_scenario(scenario)
        assert len(result.events) == 1
        event = result.events[0]
        assert abs(event.trigger_time - labels[0].time) <= 0.5
        assert event.event_type == "vehicle-vehicle"
        assert result.report.frames_dropped == 0
        assert result.report.frames_processed == 72

    def test_window_times_come_from_the_frame(self):
        def growing_box(det_t):
            return [
                FrameRecord(k, k / 24, [Detection(
                    det_t(k), k, "vehicle", 1.0, (620.0 - 2 * k, 340.0 - k, 660.0 + 2 * k, 380.0 + k)
                )])
                for k in range(40)
            ]

        # detections whose own time is stale are fitted on their frame's clock
        stale, timed = [], []
        result = run(growing_box(lambda k: 0.0), build_config(), annotation_sink=stale.append)
        run(growing_box(lambda k: k / 24), build_config(), annotation_sink=timed.append)
        assert result.report.frames_processed == 40
        assert stale == timed
        assert any(a.ttc_h is not None for s in timed for a in s.tracks)

    def test_empty_stream(self):
        cfg = build_config()
        result = run([], cfg)
        assert result.events == []
        assert result.report.frames_processed == 0
        assert result.report.frames_produced == 0

    def test_safe_pass_no_events(self):
        scenario = load_bundled_scenario("adjacent_pass")
        assert label_ground_truth_events(scenario, delta=3.0) == []
        result = run_scenario(scenario)
        assert result.events == []

    def test_event_invariant_recheckable_from_annotations(self):
        annotations = []
        result = run_scenario(load_bundled_scenario("head_on"), annotations.append)
        event = result.events[0]
        assert event.size_rule_pass and event.motion_rule_pass
        trigger_frames = [
            ann
            for summary in annotations
            for ann in summary.tracks
            if summary.t == event.trigger_time and ann.track_id == event.track_id
        ]
        assert len(trigger_frames) == 1
        assert trigger_frames[0].triggered
        assert trigger_frames[0].size_rule_pass and trigger_frames[0].motion_rule_pass

    def test_bit_deterministic(self):
        scenario = load_bundled_scenario("cut_in")

        def digest():
            annotations = []
            result = run_scenario(scenario, annotations.append)
            events = json.dumps([e.to_dict() for e in result.events], sort_keys=True)
            anns = json.dumps(
                [s.to_dict() for s in annotations], sort_keys=True
            )
            return events + anns

        assert digest() == digest()

    def test_non_monotonic_frames_rejected_not_fatal(self):
        scenario = load_bundled_scenario("head_on")
        frames = generate_detections(scenario)
        corrupted = frames[:10] + [frames[4]] + frames[10:]
        cfg = config_for_scenario(scenario)
        seen = []
        result = run(corrupted, cfg, on_frame=lambda frame: seen.append(frame.frame_id))
        assert result.report.frames_rejected == 1
        assert result.report.frames_processed == 72
        assert result.error is None
        # on_frame sees every consumed frame, the rejected one included
        assert seen == [frame.frame_id for frame in corrupted]
        # the rejected frame never reached the recorder
        (event,) = result.events
        assert 4 in event.frame_ids and 10 in event.frame_ids
        assert all(a < b for a, b in zip(event.frame_ids, event.frame_ids[1:]))

    @pytest.mark.parametrize("bad_t", [float("nan"), float("inf")])
    def test_non_finite_frame_time_rejected(self, bad_t):
        scenario = load_bundled_scenario("head_on")
        frames = generate_detections(scenario)
        cfg = config_for_scenario(scenario)
        corrupted = frames[:10] + [replace(frames[10], t=bad_t)] + frames[11:]
        annotations = []
        result = run(corrupted, cfg, annotation_sink=annotations.append)
        assert result.report.frames_rejected == 1
        assert result.report.frames_processed == len(frames) - 1
        # the rejected frame left no sample: the actor keeps its one track
        assert {a.track_id for s in annotations for a in s.tracks} == {1}
        assert result.events == run(frames[:10] + frames[11:], cfg).events

    def test_source_error_partial_results(self):
        scenario = load_bundled_scenario("head_on")
        frames = generate_detections(scenario)

        def broken():
            for frame in frames:
                if frame.frame_id == 40:
                    raise IOError("stream lost")
                yield frame

        cfg = config_for_scenario(scenario)
        result = run(broken(), cfg)
        assert isinstance(result.error, IOError) and "stream lost" in str(result.error)
        assert result.report.frames_processed == 40
        assert len(result.events) == 1  # trigger happened before the failure

    def test_events_carry_latest_gps_fix(self):
        scenario = load_bundled_scenario("head_on")
        frames = generate_detections(scenario)
        cfg = config_for_scenario(scenario)
        fixes = [
            GpsFix.from_raw(t=0.0, lat_raw=28.0, lon_raw=-41.0),
            GpsFix.from_raw(t=0.5, lat_raw=28.001, lon_raw=-41.001),
            GpsFix.from_raw(t=2.5, lat_raw=28.002, lon_raw=-41.002),
        ]
        result = run(frames, cfg, gps_fixes=fixes)
        event = result.events[0]
        assert event.gps is not None
        assert event.gps.t == 0.5  # most recent fix at trigger time ~0.7

    def test_no_gps_gives_none(self):
        result = run_scenario(load_bundled_scenario("head_on"))
        assert result.events[0].gps is None

    def test_track_boxes_built_only_for_annotations(self, monkeypatch):
        scenario = load_bundled_scenario("head_on")
        expected = [e.to_dict() for e in run_scenario(scenario, lambda summary: None).events]

        def no_box(track):
            raise AssertionError("Track.box() called without annotations")

        monkeypatch.setattr(Track, "box", no_box)
        result = run(generate_detections(scenario), config_for_scenario(scenario))
        assert [e.to_dict() for e in result.events] == expected

    def test_clip_start_follows_buffer_seconds(self):
        # head_on after 5 s of empty frames: the clip's pre-event span is
        # buffer_seconds, so clip_start agrees with the first frame id
        scenario = load_bundled_scenario("head_on")
        lead = int(5 * scenario.camera.fps)
        frames = [FrameRecord(frame_id=k, t=k / scenario.camera.fps) for k in range(lead)]
        for f in generate_detections(scenario):
            dets = [replace(d, t=d.t + 5.0, frame_id=d.frame_id + lead) for d in f.detections]
            frames.append(FrameRecord(frame_id=f.frame_id + lead, t=f.t + 5.0, detections=dets))
        cfg = config_for_scenario(scenario, **{"pipeline.buffer_seconds": 1.0})
        (event,) = run(frames, cfg).events
        assert event.trigger_time == pytest.approx(5.708, abs=0.05)
        assert event.clip_start == event.trigger_time - 1.0
        in_clip = [f.frame_id for f in frames if event.clip_start <= f.t <= event.clip_end]
        assert list(event.frame_ids) == in_clip


def multi_actor_scenario(actors, noise: float, seed: int) -> ScenarioSpec:
    camera = CameraSpec(focal_px=1000.0, frame_width=1280.0, frame_height=720.0, fps=24.0)
    return ScenarioSpec(camera, tuple(actors), duration=4.0, bbox_noise_sigma=noise, seed=seed)


# a vehicle on a collision course, a cut-in, a slow follower and a receding pedestrian
FUNNEL_ACTORS = (
    ActorSpec("vehicle", 1.5, 1.8, 30.0, vel_longitudinal=9.0, collision_half_width=1.2),
    ActorSpec("vehicle", 1.5, 1.8, 25.0, init_lateral=3.5, vel_longitudinal=8.0, vel_lateral=-0.5),
    ActorSpec("vehicle", 1.5, 1.8, 20.0, init_lateral=-3.5, vel_longitudinal=0.5),
    ActorSpec("pedestrian", 1.7, 0.5, 15.0, init_lateral=-2.0, vel_longitudinal=-1.0),
)


class TestRuleFunnel:
    """The motion fit and the decision run only where the size rule passes, unless annotating."""

    @pytest.fixture
    def motion_fits(self, monkeypatch):
        # counts calls through the pipeline module's global, the tracer's target
        calls = []
        fit = pipeline.horizontal_motion

        def counting(*args):
            calls.append(args)
            return fit(*args)

        monkeypatch.setattr(pipeline, "horizontal_motion", counting)
        return calls

    def test_motion_fit_calls(self, motion_fits):
        scenario = multi_actor_scenario(FUNNEL_ACTORS, noise=0.01, seed=3)
        frames = generate_detections(scenario)
        cfg = config_for_scenario(scenario)
        annotations = []
        annotated = run(frames, cfg, annotation_sink=annotations.append)
        track_frames = [ann for summary in annotations for ann in summary.tracks]
        size_pass = sum(ann.size_rule_pass for ann in track_frames)
        assert 0 < size_pass < len(track_frames)
        assert len(motion_fits) == len(track_frames)
        motion_fits.clear()
        plain = run(frames, cfg)
        assert len(motion_fits) == size_pass
        assert plain.events and [e.to_dict() for e in plain.events] == [
            e.to_dict() for e in annotated.events
        ]

    @pytest.fixture
    def decisions(self, monkeypatch):
        # records each result of RuleEngine.decide, the tracer's target
        results = []
        decide = RuleEngine.decide

        def recording(engine, *args):
            results.append(decide(engine, *args))
            return results[-1]

        monkeypatch.setattr(RuleEngine, "decide", recording)
        return results

    @pytest.fixture
    def confirmed(self, monkeypatch):
        # counts the confirmed track-frames the tracker hands to the rules
        counts = []
        step = Tracker.step

        def counting(tracker, frame):
            tracks = step(tracker, frame)
            counts.append(len(tracks))
            return tracks

        monkeypatch.setattr(Tracker, "step", counting)
        return counts

    def test_decide_calls(self, decisions, confirmed):
        scenario = multi_actor_scenario(FUNNEL_ACTORS, noise=0.01, seed=3)
        frames = generate_detections(scenario)
        cfg = config_for_scenario(scenario)
        annotated = run(frames, cfg, annotation_sink=lambda summary: None)
        assert len(decisions) == sum(confirmed) > 0
        size_pass = [d for d in decisions if d.size_rule_pass]
        assert 0 < len(size_pass) < len(decisions)
        decisions.clear()
        plain = run(frames, cfg)
        # the same decisions, in the same order, for exactly the size-pass track-frames
        assert decisions == size_pass
        assert plain.events and [e.to_dict() for e in plain.events] == [
            e.to_dict() for e in annotated.events
        ]


ACTORS = st.builds(
    ActorSpec,
    kind=st.sampled_from(["vehicle", "pedestrian"]),
    real_height=st.floats(1.0, 2.0),
    real_width=st.floats(0.5, 2.0),
    init_longitudinal=st.floats(8.0, 60.0),
    init_lateral=st.floats(-6.0, 6.0),
    vel_longitudinal=st.floats(-5.0, 15.0),
    vel_lateral=st.floats(-2.0, 2.0),
)


@settings(max_examples=30, deadline=None)
@given(
    actors=st.lists(ACTORS, min_size=2, max_size=5),
    noise=st.floats(0.0, 0.03),
    seed=st.integers(0, 2**16),
)
def test_annotations_do_not_change_events(actors, noise, seed):
    scenario = multi_actor_scenario(actors, noise, seed)
    frames = generate_detections(scenario)
    cfg = config_for_scenario(scenario)
    plain = run(frames, cfg).events
    annotated = run(frames, cfg, annotation_sink=lambda summary: None).events
    assert [e.to_dict() for e in plain] == [e.to_dict() for e in annotated]


def _unscaled(event, k):
    """An event's time-dependent fields, taken back from a clock k times slower."""
    def per_k(value, power):
        return None if value is None else value * k**power

    return (
        event.track_id, event.event_type, event.size_rule_pass, event.motion_rule_pass,
        per_k(event.trigger_time, -1), per_k(event.ttc_h, -1), per_k(event.ttc_w, -1),
        per_k(event.motion_product, 1),
    )


@pytest.mark.parametrize("k", [0.1, 0.5, 2.0, 3.0])
def test_time_scale_invariance(k):
    # a clock k times slower, with every rule threshold in seconds scaled by k
    # and the motion band (per second) by 1 / k, triggers the same events
    rules = RuleConfig()
    scaled = {
        "rules.delta": rules.delta * k, "rules.phi": rules.phi * k,
        "rules.cooldown": rules.cooldown * k,
        "rules.alpha": rules.alpha / k, "rules.beta": rules.beta / k,
    }
    n_events = 0
    for name in BUNDLED:
        scenario = load_bundled_scenario(name)
        frames = generate_detections(scenario)
        slow = [
            FrameRecord(f.frame_id, f.t * k, [replace(d, t=d.t * k) for d in f.detections])
            for f in frames
        ]
        expected = run(frames, config_for_scenario(scenario)).events
        events = run(slow, config_for_scenario(scenario, **scaled)).events
        assert len(events) == len(expected), name
        for event, reference in zip(events, expected):
            assert _unscaled(event, k) == pytest.approx(
                _unscaled(reference, 1.0), rel=1e-12
            ), name
        n_events += len(events)
    assert n_events >= 3


# FUNNEL_ACTORS plus a slow vehicle far ahead and a pedestrian crossing the road
NOISY_ACTORS = FUNNEL_ACTORS + (
    ActorSpec("vehicle", 1.6, 2.0, 45.0, init_lateral=1.0, vel_longitudinal=4.0, vel_lateral=0.3),
    ActorSpec("pedestrian", 1.8, 0.6, 12.0, init_lateral=4.0, vel_lateral=-1.2),
)

# sha256 of events.json and annotations.jsonl, as `nearcrash run` writes them
NOISY_STREAM_DIGESTS = (
    "ed19eadb3621847962e6e83521f713a27d64f607fbee4923f90f31065342d3af",
    "6294935f2e5c65b77005072b79bee5e7ad63012505cf5b21e7621a717f9b55a7",
)


def _missed(frame_id: int, j: int) -> bool:
    # detection j of a frame is missed for the first 1, 2 or 3 frames of every
    # 16, the run length and phase depending on j
    k = frame_id + 5 * j
    return k % 16 < 1 + (k // 16 + j) % 3


def noisy_stream_with_misses():
    """A seeded six-actor stream with box noise and missed detections, and its config."""
    camera = CameraSpec(focal_px=1000.0, frame_width=1280.0, frame_height=720.0, fps=24.0)
    scenario = ScenarioSpec(camera, NOISY_ACTORS, duration=6.0, bbox_noise_sigma=0.01, seed=11)
    frames = [
        replace(f, detections=[d for j, d in enumerate(f.detections) if not _missed(f.frame_id, j)])
        for f in generate_detections(scenario)
    ]
    # a track that misses 3 frames ends, and its actor's next detection starts a new one
    return frames, config_for_scenario(scenario, **{"tracker.max_age": 2})


def test_noisy_stream_with_misses_keeps_pinned_outputs():
    # noisy boxes and missed detections exercise coasting, track deaths and
    # births, which the noise-free bundled scenarios of PINNED_OUTPUTS do not
    frames, cfg = noisy_stream_with_misses()
    summaries = []
    result = run(frames, cfg, annotation_sink=summaries.append)
    track_ids = {ann.track_id for summary in summaries for ann in summary.tracks}
    assert result.events and len(track_ids) > 2 * len(NOISY_ACTORS)
    events = json.dumps([e.to_dict() for e in result.events], indent=2, sort_keys=True) + "\n"
    annotations = "".join(
        json.dumps(summary.to_dict(), sort_keys=True) + "\n" for summary in summaries
    )
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (events, annotations))
    assert digests == NOISY_STREAM_DIGESTS


INVARIANCE_STREAMS = (*BUNDLED, "noisy_with_misses")


def stream_and_config(name):
    if name == "noisy_with_misses":
        return noisy_stream_with_misses()
    scenario = load_bundled_scenario(name)
    return generate_detections(scenario), config_for_scenario(scenario)


def _event_key(event):
    return (
        event.track_id, event.event_type, event.frame_ids, event.truncated,
        event.size_rule_pass, event.motion_rule_pass,
    )


@pytest.mark.parametrize("name", INVARIANCE_STREAMS)
def test_mirror_invariance(name):
    # x -> frame_width - x on every box: the same events, and on every
    # track-frame omega negated and the motion product kept
    frames, cfg = stream_and_config(name)
    width = cfg.camera.frame_width
    mirrored = [
        replace(f, detections=[
            replace(d, box=(width - d.box[2], d.box[1], width - d.box[0], d.box[3]))
            for d in f.detections
        ])
        for f in frames
    ]
    annotations, mirrored_annotations = [], []
    expected = run(frames, cfg, annotation_sink=annotations.append).events
    events = run(mirrored, cfg, annotation_sink=mirrored_annotations.append).events
    assert [(_event_key(e), e.trigger_time) for e in events] == [
        (_event_key(e), e.trigger_time) for e in expected
    ]
    assert [s.frame_id for s in mirrored_annotations] == [s.frame_id for s in annotations]
    for summary, reference in zip(mirrored_annotations, annotations):
        assert [a.track_id for a in summary.tracks] == [a.track_id for a in reference.tracks]
        for ann, ref in zip(summary.tracks, reference.tracks):
            if ref.omega is None:
                assert ann.omega is None
            else:
                assert ann.omega == pytest.approx(-ref.omega, rel=1e-9, abs=0)
            assert ann.motion_product == pytest.approx(ref.motion_product, rel=1e-9, abs=0)


EPOCH = 1.6e9  # seconds: a Unix clock in 2020


@pytest.mark.parametrize("name", INVARIANCE_STREAMS)
def test_epoch_clock_invariance(name):
    # the same stream on an epoch-scale clock: the same events on the same
    # frame ids, each trigger shifted by the epoch
    frames, cfg = stream_and_config(name)
    shifted = [
        FrameRecord(f.frame_id, f.t + EPOCH, [replace(d, t=d.t + EPOCH) for d in f.detections])
        for f in frames
    ]
    expected = run(frames, cfg).events
    events = run(shifted, cfg).events
    assert [_event_key(e) for e in events] == [_event_key(e) for e in expected]
    assert [e.trigger_time for e in events] == [e.trigger_time + EPOCH for e in expected]


def lockstep(frames):
    """A live source that yields each frame only once on_frame saw the last."""
    seen = threading.Semaphore(0)

    def source():
        for frame in frames:
            yield frame
            seen.acquire(timeout=10)

    return source(), lambda frame: seen.release()


class TestLiveRun:
    def test_fast_source_slow_consumer_drops(self):
        scenario = load_bundled_scenario("head_on")
        frames = generate_detections(scenario)
        cfg = config_for_scenario(scenario, **{"pipeline.mode": "live"})
        result = run(frames, cfg, on_frame=lambda f: time.sleep(0.02))
        report = result.report
        assert report.frames_dropped > 0
        assert report.frames_produced == 72
        assert report.frames_processed + report.frames_dropped == report.frames_produced

    def test_paced_source_no_drops(self):
        scenario = load_bundled_scenario("head_on")
        source, step = lockstep(generate_detections(scenario)[:24])
        cfg = config_for_scenario(scenario, **{"pipeline.mode": "live"})
        result = run(source, cfg, on_frame=step)
        assert result.report.frames_dropped == 0
        assert result.report.frames_processed == 24

    def test_consumed_frames_monotonic_and_accounted(self):
        scenario = load_bundled_scenario("head_on")
        frames = generate_detections(scenario)
        seen = []

        def burst_source():
            for frame in frames:
                yield frame
                if frame.frame_id % 7 == 0:
                    time.sleep(0.01)

        def slow_consumer(frame):
            seen.append(frame.frame_id)
            time.sleep(0.004)

        cfg = config_for_scenario(scenario, **{"pipeline.mode": "live"})
        result = run(burst_source(), cfg, on_frame=slow_consumer)
        assert seen == sorted(set(seen))
        assert result.report.frames_processed == len(seen)
        assert (
            result.report.frames_processed + result.report.frames_dropped
            == result.report.frames_produced
        )


@pytest.mark.parametrize("mode", ["offline", "live"])
def test_sink_thread(mode):
    # offline the sink runs inline; live it gets a worker of its own
    scenario = load_bundled_scenario("head_on")
    source, step = lockstep(generate_detections(scenario))
    sink_threads = []
    cfg = config_for_scenario(scenario, **{"pipeline.mode": mode})
    result = run(
        source, cfg,
        event_sink=lambda e: sink_threads.append(threading.current_thread()),
        on_frame=step,
    )
    assert len(result.events) == 1 and len(sink_threads) == 1
    if mode == "offline":
        assert sink_threads[0] is threading.current_thread()
    else:
        assert sink_threads[0].name.startswith("nearcrash-sink")


@pytest.mark.parametrize("mode", ["offline", "live"])
def test_sink_failure_message_is_returned(mode):
    def full_disk(event):
        raise OSError("disk full")

    scenario = load_bundled_scenario("head_on")
    source, step = lockstep(generate_detections(scenario))
    cfg = config_for_scenario(scenario, **{"pipeline.mode": mode})
    result = run(source, cfg, event_sink=full_disk, on_frame=step)
    assert len(result.events) == 1
    assert result.sink_failures == ["event 1: disk full"]
    assert result.report.sink_failures == 1


@pytest.mark.parametrize("mode", ["offline", "live"])
def test_failing_hook_ends_threads_and_flushes_pending_events(mode):
    scenario = load_bundled_scenario("head_on")
    source, step = lockstep(generate_detections(scenario)[:41])
    sunk = []

    def hook(frame):
        step(frame)
        if frame.frame_id == 40:
            raise RuntimeError("hook failed")

    cfg = config_for_scenario(scenario, **{"pipeline.mode": mode})
    with pytest.raises(RuntimeError, match="hook failed"):
        run(source, cfg, event_sink=sunk.append, on_frame=hook)
    assert [t for t in threading.enumerate() if t.name.startswith("nearcrash-")] == []
    # the trigger at ~0.7 s was still inside its post window
    assert len(sunk) == 1 and sunk[0].truncated


def test_live_failure_does_not_wait_for_a_stalled_source():
    scenario = load_bundled_scenario("head_on")
    frames = generate_detections(scenario)
    resume = threading.Event()

    def stalling_source():  # a detector that hangs after two frames
        yield from frames[:2]
        resume.wait()
        yield from frames[2:]

    def hook(frame):
        raise RuntimeError("hook failed")

    cfg = config_for_scenario(scenario, **{"pipeline.mode": "live"})
    raised = []

    def call():
        with pytest.raises(RuntimeError, match="hook failed"):
            run(stalling_source(), cfg, on_frame=hook)
        raised.append(True)

    # run in a helper thread, so that a run waiting for the source fails the test
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=5)
    stalled = caller.is_alive()
    resume.set()
    caller.join(timeout=5)
    assert not stalled and raised == [True]


@pytest.mark.parametrize("mode", ["offline", "live"])
def test_torn_last_line_ends_the_stream(mode):
    # a recording cut mid-write: the last line lost its tail and its newline
    scenario = load_bundled_scenario("head_on")
    frames = generate_detections(scenario)
    text = io.StringIO()
    write_detection_stream(frames, text)
    source, step = lockstep(read_detection_stream(io.BytesIO(text.getvalue()[:-40].encode())))
    cfg = config_for_scenario(scenario, **{"pipeline.mode": mode})
    result = run(source, cfg, on_frame=step)
    assert result.error is None
    assert result.report.torn_lines == 1 and "line 72" in str(result.torn_line)
    assert result.report.frames_produced == result.report.frames_processed == 71
    prefix = run(frames[:71], config_for_scenario(scenario))
    assert [e.to_dict() for e in result.events] == [e.to_dict() for e in prefix.events]
    assert len(prefix.events) == 1
