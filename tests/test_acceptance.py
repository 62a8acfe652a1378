"""Acceptance suite.

One test per criterion, each printing a PASS line with its wall time when
its assertions hold (run with `pytest -s` to see the lines). Budgets are
asserted too; they are generous on desk hardware.
"""

import itertools
import math
import random
import statistics
import time

import numpy as np
import pytest

from nearcrash.config import build_config
from nearcrash.evaluation import ScoredEvent, f1, make_report, render_table, score
from nearcrash.gps import EARTH_RADIUS_M, convert_raw_to_wgs84, speed_between, GpsFix
from nearcrash.pipeline import EventRecorder, LatestFrameQueue, run
from nearcrash.rules import NearCrashDecision, RuleConfig, RuleEngine
from nearcrash.sim import (
    ActorSpec,
    ScenarioSpec,
    generate_detections,
    label_ground_truth_events,
    project_actor,
)
from nearcrash.streams import CameraSpec, Detection, FrameRecord
from nearcrash.tracker import Track, Tracker, iou, solve_assignment
from nearcrash.ttc import TtcEstimate, ttc_from_window

from conftest import config_for_scenario, load_bundled_scenario, run_scenario, sample_window


class _Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"[ACCEPTANCE {self.number}] {verdict} ({elapsed:.2f}s / budget {self.budget_s:.0f}s): "
            f"{self.description}"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s runtime budget"
            )
        return False


def test_criterion_1_f1_arithmetic():
    with _Criterion(1, "F1 arithmetic reproduces the published score", 1.0):
        value = f1(34, 7, 1)
        assert value == pytest.approx(2 * 34 / (2 * 34 + 7 + 1), abs=1e-15)
        assert f"{value:.3f}" == "0.895"
        report = make_report(34, 7, 1, n_videos=100, n_events=35, fps=18.0)
        row = [c.strip() for c in render_table(report).splitlines()[-1].split("|")]
        assert row == ["100", "35", "34", "7", "1", "0.895", "18.0"]


def _window_ttc_for_focal(actor, focal, first_frame=1, n=12):
    camera = CameraSpec(focal_px=focal, frame_width=4000, frame_height=3000, fps=24)
    window = sample_window(capacity=n, size_window_len=n)
    for k in range(first_frame, first_frame + n):
        t = k / 24.0
        det = project_actor(actor, t, camera)
        assert det is not None
        window.add(t, det.box)
    return ttc_from_window(window)


def test_criterion_2_camera_parameter_invariance():
    with _Criterion(2, "TTC invariant to focal length within 1e-9 relative", 10.0):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            speed = rng.uniform(2.0, 9.0)
            actor = ActorSpec(
                kind="vehicle",
                real_height=rng.uniform(1.0, 2.0),
                real_width=rng.uniform(0.6, 2.2),
                init_longitudinal=rng.uniform(1.5 * speed + 6.0, 50.0),
                init_lateral=rng.uniform(-2.0, 2.0),
                vel_longitudinal=speed,
                vel_lateral=rng.uniform(-0.8, 0.8),
                collision_half_width=1.2,
            )
            estimates = [
                _window_ttc_for_focal(actor, focal) for focal in (500.0, 1000.0, 2000.0)
            ]
            reference = estimates[0]
            assert reference.ttc_h is not None and reference.ttc_w is not None
            for other in estimates[1:]:
                assert abs(other.ttc_h - reference.ttc_h) <= 1e-9 * abs(reference.ttc_h)
                assert abs(other.ttc_w - reference.ttc_w) <= 1e-9 * abs(reference.ttc_w)


def test_criterion_3_ttc_oracle_accuracy():
    with _Criterion(3, "TTC within 5% noise-free and median 15% at 2% noise", 30.0):
        camera = CameraSpec(focal_px=1000, frame_width=4000, frame_height=3000, fps=24)
        t_latest = 12 / 24.0

        # noise-free sweep over the full range
        for ttc_target in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0):
            for speed in (4.0, 8.0, 12.0):
                actor = ActorSpec(
                    kind="vehicle", real_height=1.5, real_width=1.8,
                    init_longitudinal=speed * (ttc_target + t_latest),
                    vel_longitudinal=speed, collision_half_width=1.2,
                )
                window = sample_window(capacity=12)
                for k in range(1, 13):
                    t = k / 24.0
                    window.add(t, project_actor(actor, t, camera).box)
                est = ttc_from_window(window)
                assert abs(est.ttc_h - ttc_target) / ttc_target <= 0.05

        # 2% box noise, median relative error over 100 seeded runs
        for ttc_target in (1.5, 2.5, 3.0):
            speed = 8.0
            actor = ActorSpec(
                kind="vehicle", real_height=1.5, real_width=1.8,
                init_longitudinal=speed * (ttc_target + t_latest),
                vel_longitudinal=speed, collision_half_width=1.2,
            )
            errors = []
            for seed in range(100):
                scenario = ScenarioSpec(
                    camera=camera, actors=(actor,), duration=13 / 24.0,
                    bbox_noise_sigma=0.02, seed=seed,
                )
                frames = generate_detections(scenario)
                window = sample_window(capacity=12)
                for frame in frames[1:13]:
                    window.add(frame.t, frame.detections[0].box)
                est = ttc_from_window(window)
                errors.append(abs(est.ttc_h - ttc_target) / ttc_target)
            assert statistics.median(errors) <= 0.15


SCENARIO_EXPECTATIONS = {
    "head_on": dict(events=1, event_type="vehicle-vehicle"),
    "cut_in": dict(events=1, event_type="vehicle-vehicle"),
    "adjacent_pass": dict(events=0),
    "receding": dict(events=0),
    "truncated_oncoming": dict(events=0),
    "jaywalking_pedestrian": dict(events=1, event_type="vehicle-pedestrian"),
}


def test_criterion_4_rule_semantics_suite():
    with _Criterion(4, "six-scenario rule semantics with end-to-end F1 = 1.0", 30.0):
        predictions, ground_truth = [], []
        for name, expectation in SCENARIO_EXPECTATIONS.items():
            scenario = load_bundled_scenario(name)
            labels = label_ground_truth_events(scenario, delta=3.0)
            annotations = []
            result = run_scenario(scenario, annotations.append)
            assert len(result.events) == expectation["events"], name
            assert len(labels) == expectation["events"], name
            for label in labels:
                ground_truth.append(ScoredEvent(video_id=name, time=label.time))
            for event in result.events:
                predictions.append(ScoredEvent(video_id=name, time=event.trigger_time))
                assert event.event_type == expectation["event_type"], name
            if expectation["events"]:
                assert abs(result.events[0].trigger_time - labels[0].time) <= 0.5, name
            if name == "truncated_oncoming":
                # height says danger, shrinking width vetoes (frame-truncation case)
                dangerous = [
                    ann
                    for summary in annotations
                    for ann in summary.tracks
                    if ann.ttc_h is not None and 0 < ann.ttc_h < 3.0
                ]
                assert dangerous, "expected height-dangerous frames"
                assert all(not ann.size_rule_pass for ann in dangerous)
                assert all(
                    ann.ttc_w is None or ann.ttc_w < 0 or ann.ttc_w >= 6.75
                    for ann in dangerous
                )
        report = score(predictions, ground_truth, window=10.0, n_videos=6)
        assert report.f1 == 1.0
        assert (report.tp, report.fp, report.fn) == (3, 0, 0)


def _total_score(score_matrix, pairs):
    return sum(score_matrix[i, j] for i, j in sorted(pairs))


def _brute_force_best(score_matrix):
    rows, cols = score_matrix.shape
    if rows <= cols:
        candidates = (
            tuple(zip(range(rows), perm))
            for perm in itertools.permutations(range(cols), rows)
        )
    else:
        candidates = (
            tuple(zip(perm, range(cols)))
            for perm in itertools.permutations(range(rows), cols)
        )
    return max(_total_score(score_matrix, c) for c in candidates)


def test_criterion_5_tracker_correctness():
    with _Criterion(5, "assignment optimality and zero identity switches", 30.0):
        rng = np.random.default_rng(7)
        for _ in range(500):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            matrix = rng.uniform(0.0, 1.0, size=(rows, cols))
            pairs = solve_assignment(matrix)
            assert _total_score(matrix, pairs) == _brute_force_best(matrix)

        camera = CameraSpec(focal_px=1000, frame_width=4000, frame_height=3000, fps=24)
        for spacing, speed in ((6.0, 5.0), (7.5, 8.0), (5.0, 3.0)):
            offset = -2 * spacing
            actors = tuple(
                ActorSpec(
                    kind="vehicle", real_height=1.5, real_width=1.8,
                    init_longitudinal=40.0, init_lateral=offset + i * spacing,
                    vel_longitudinal=speed, collision_half_width=1.2,
                )
                for i in range(5)
            )
            scenario = ScenarioSpec(camera=camera, actors=actors, duration=3.0)
            tracker = Tracker()
            actor_tracks = {}
            for frame in generate_detections(scenario):
                for trk in tracker.step(frame):
                    best_actor, best_overlap = None, 0.0
                    for i, actor in enumerate(actors):
                        truth = project_actor(actor, frame.t, camera)
                        if truth is None:
                            continue
                        overlap = iou(trk.box(), truth.box)
                        if overlap > best_overlap:
                            best_actor, best_overlap = i, overlap
                    assert best_overlap > 0.3
                    actor_tracks.setdefault(best_actor, set()).add(trk.id)
            assert len(actor_tracks) == 5
            assert all(len(ids) == 1 for ids in actor_tracks.values())
            all_ids = [next(iter(ids)) for ids in actor_tracks.values()]
            assert len(set(all_ids)) == 5


def test_criterion_6_pipeline_concurrency_contract():
    with _Criterion(6, "latest-wins dropping and a stall-proof main stage", 20.0):
        # deterministic lockstep: the consumer always sees the newest put
        rng = random.Random(11)
        queue = LatestFrameQueue()
        next_id = 0
        for _ in range(1000):
            for _ in range(rng.randrange(1, 6)):
                queue.put(next_id)
                next_id += 1
            assert queue.get() == next_id - 1

        # 30 fps producer against a 10 fps consumer for 3 seconds
        cfg = build_config({"pipeline": {"mode": "live"}})
        frames = [FrameRecord(frame_id=k, t=k / 30.0, detections=[]) for k in range(90)]

        def paced_source():
            for frame in frames:
                yield frame
                time.sleep(1 / 30.0)

        consumed = []

        def slow_consumer(frame):
            consumed.append(frame.frame_id)
            time.sleep(0.1)

        result = run(paced_source(), cfg, on_frame=slow_consumer)
        report = result.report
        assert report.frames_produced == 90
        assert report.frames_processed + report.frames_dropped == 90
        assert abs(report.frames_dropped - 60) <= 5, report.frames_dropped
        assert consumed == sorted(set(consumed))

        # a recorder stalled for 2 s must not delay the main stage
        scenario = load_bundled_scenario("head_on")
        long_scenario = ScenarioSpec(
            camera=scenario.camera, actors=scenario.actors, duration=12.0
        )
        stream = generate_detections(long_scenario)
        stall = {"start": None, "end": None}

        def stalling_sink(event):
            stall["start"] = time.monotonic()
            time.sleep(2.0)
            stall["end"] = time.monotonic()

        def realtime_source():
            for frame in stream:
                yield frame
                time.sleep(1 / 24.0)

        frame_walls = []
        cfg_live = config_for_scenario(long_scenario, **{"pipeline.mode": "live"})
        result = run(
            realtime_source(), cfg_live,
            event_sink=stalling_sink,
            on_frame=lambda f: frame_walls.append(time.monotonic()),
        )
        assert len(result.events) == 1
        assert stall["start"] is not None and stall["end"] is not None
        gaps = [b - a for a, b in zip(frame_walls, frame_walls[1:])]
        assert max(gaps) < 0.5, f"main stage stalled: max gap {max(gaps):.3f}s"
        during_stall = [w for w in frame_walls if stall["start"] <= w <= stall["end"]]
        assert len(during_stall) >= 10, "stall did not overlap live processing"


def test_criterion_7_gps_conversion():
    with _Criterion(7, "affine GPS conversion and haversine speed", 5.0):
        assert convert_raw_to_wgs84(0.0, 0.0) == (-31.30174, 81.25186)

        rng = np.random.default_rng(33)
        for _ in range(1000):
            lat_a, lat_b = rng.uniform(-35, 70, size=2)
            lon_a, lon_b = rng.uniform(-155, 55, size=2)
            a = convert_raw_to_wgs84(lat_a, lon_a)
            b = convert_raw_to_wgs84(lat_b, lon_b)
            assert abs((a[0] - b[0]) - 1.666 * (lat_a - lat_b)) <= 1e-12
            assert abs((a[1] - b[1]) - 1.666 * (lon_a - lon_b)) <= 1e-12

        start = GpsFix(t=0.0, lat=10.0, lon=20.0)
        end = GpsFix(t=3600.0, lat=11.0, lon=20.0)
        v = speed_between(start, end)
        arc_speed = EARTH_RADIUS_M * math.radians(1.0) / 3600.0
        assert abs(v - arc_speed) / arc_speed <= 0.005


def test_criterion_8_event_record_contract():
    with _Criterion(8, "clip windows and per-track trigger separation", 10.0):
        recorder = EventRecorder()
        fps = 10.0
        triggers = {3.0: 1, 15.0: 2, 55.0: 3}
        pending = dict(triggers)
        last_t = None
        for k in range(int(60 * fps) + 1):  # frames at t = 0.0 .. 60.0
            t = k / fps
            recorder.on_frame(k, t)
            due = [trig for trig in pending if t >= trig]
            for trig in due:
                recorder.on_trigger(
                    pending[trig], "vehicle", t,
                    NearCrashDecision(
                        triggered=True, size_rule_pass=True, motion_rule_pass=True,
                        ttc_h=2.0, ttc_w=4.0, omega=0.0, motion_product=0.0,
                    ),
                )
                del pending[trig]
            last_t = t
        recorder.finish(last_t)
        windows = [(e.clip_start, e.clip_end, e.truncated) for e in recorder.events]
        assert windows[0] == (0.0, 13.0, False)
        assert windows[1] == (5.0, 25.0, False)
        assert windows[2] == (45.0, 60.0, True)

        camera = CameraSpec(focal_px=1000, frame_width=1280, frame_height=720, fps=24)
        engine = RuleEngine(RuleConfig(cooldown=10.0), camera)
        det = Detection(
            t=0.0, frame_id=0, kind="vehicle", confidence=1.0, box=(600, 340, 680, 400)
        )
        track = Track(1, det, t=det.t)
        est = TtcEstimate(ttc_h=2.0, ttc_w=4.0)
        omega = 0.0
        trigger_times = [
            k / 24.0
            for k in range(int(60 * 24))
            if engine.decide(track, est, omega, now=k / 24.0).triggered
        ]
        assert len(trigger_times) == 6
        separations = [b - a for a, b in zip(trigger_times, trigger_times[1:])]
        assert all(s >= 10.0 for s in separations)
