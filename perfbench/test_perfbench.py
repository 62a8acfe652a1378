"""Tests of the benchmark itself: seeded inputs, span accounting, the gates.

Run with `python3 -m pytest perfbench`.
"""

import dataclasses

import pytest

import replay
import run
import spans
import workloads
from nearcrash import build_config
from nearcrash.pipeline import ContextBuffer, EventRecorder, LatestFrameQueue
from nearcrash.tracker import KalmanBoxFilter


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_workload_other_seed_other_workload(name):
    a, b, c = workloads.build(name, 3), workloads.build(name, 3), workloads.build(name, 4)
    assert "\n".join(a.lines).encode() == "\n".join(b.lines).encode()
    assert a.labels == b.labels and a.gps_fixes == b.gps_fixes
    assert a.lines != c.lines
    assert a.labels != c.labels


@pytest.mark.parametrize("name", workloads.NAMES)
def test_frame_ids_count_up_from_zero_on_the_camera_clock(name):
    # the live replay derives each frame's due time from its id
    w = workloads.build(name, 5)
    frames = [replay.streams.frame_from_json(line) for line in w.lines]
    assert [f.frame_id for f in frames] == list(range(len(frames)))
    assert all(f.t == f.frame_id / workloads.CAMERA.fps for f in frames)
    assert w.labels, "every workload carries labelled events"
    assert w.frames >= 1000, "a p99 over per-frame times needs 10 frames beyond it"


def _short(name, frames):
    w = workloads.build(name, 2)
    return dataclasses.replace(w, lines=w.lines[:frames])


def _traced_pass(workload, config):
    tracer = spans.Tracer()
    with tracer.installed():
        p = replay.run_pass(workload, config, tracer)
    tracer.drop_parked()
    return p, tracer.snapshot()


def test_self_times_add_up_to_the_frame_span_total():
    w = _short("dense_traffic", 60)
    p, snap = _traced_pass(w, build_config(w.config))
    count, total, tree_self = snap.roots[spans.FRAME]
    assert count == 60
    # every span but the recorder's finish, which runs after the last frame
    in_frames = sum(rec[2] for name, rec in snap.spans.items() if name != "pipeline.record.finish")
    assert tree_self == pytest.approx(total, rel=1e-9)
    assert in_frames == pytest.approx(total, rel=1e-9)
    assert run.check_trace(snap, [p]) == []


def test_live_frame_spans_cross_threads_and_add_up():
    w = _short("live_replay", 300)
    p, snap = _traced_pass(w, build_config(w.config))
    assert snap.roots[spans.FRAME][0] == p.report.frames_processed
    assert snap.spans[spans.QUEUE_WAIT][0] == p.report.frames_processed
    self_sum = sum(rec[2] for rec in snap.spans.values())
    root_sum = sum(rec[1] for rec in snap.roots.values()) + snap.dropped_self
    assert self_sum == pytest.approx(root_sum, rel=1e-9)


def test_tracing_restores_every_wrapped_attribute_and_keeps_the_events():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans.TARGETS]
    w = _short("drive_encounters", 2000)
    config = build_config(w.config)
    plain = replay.run_pass(w, config)
    traced, snap = _traced_pass(w, config)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert KalmanBoxFilter.__dict__["predict"].__name__ == "predict"
    assert {ContextBuffer, EventRecorder, LatestFrameQueue} <= {o for o, _, _ in originals}
    assert plain.events and traced.events_json() == plain.events_json()


def test_rule_funnel_narrows():
    w = _short("drive_encounters", 3000)
    p, snap = _traced_pass(w, build_config(w.config))
    c = snap.counts
    assert c["rules.triggered"] <= c["rules.both_pass"]
    assert c["rules.both_pass"] <= min(c["rules.size_pass"], c["rules.motion_pass"])
    assert min(c["rules.size_pass"], c["rules.motion_pass"]) <= c["rules.track_frames"]
    assert c["rules.triggered"] == len(p.events) > 0


def test_gate_reports_events_that_differ_and_broken_accounting():
    w = _short("drive_encounters", 1500)
    config = build_config(w.config)
    reference = replay.run_pass(w, config)
    same = replay.run_pass(w, config)
    assert replay.check_passes(w, reference, [same]) == []

    moved = dataclasses.replace(same, events=[dict(e, trigger_time=e["trigger_time"] + 0.1) for e in same.events])
    assert any("events differ" in p for p in replay.check_passes(w, reference, [moved]))

    report = dataclasses.replace(same.report, frames_produced=same.report.frames_produced + 1)
    assert any("accounting" in p for p in replay.check_passes(w, reference, [dataclasses.replace(same, report=report)]))

    no_gps = dataclasses.replace(reference, events=[dict(e, gps=None) for e in reference.events])
    assert any("gps" in p for p in replay.check_passes(w, no_gps, [same]))


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert run.percentile(values, 0.99) == 990
    assert run.percentile(values, 0.5) == 500
    with pytest.raises(ValueError):
        run.percentile(values[:999], 0.99)
