"""Rule semantics: double-threshold size rule, motion band, debouncing."""

import pytest
from hypothesis import given, strategies as st

from nearcrash.rules import (
    RuleConfig,
    RuleEngine,
    check_motion_rule,
    check_size_rule,
    event_type_for,
)
from nearcrash.sim import ActorSpec, ScenarioSpec
from nearcrash.streams import CameraSpec, Detection
from nearcrash.tracker import Track
from nearcrash.ttc import TtcEstimate

from conftest import run_scenario

CAM = CameraSpec(focal_px=1000, frame_width=1280, frame_height=720, fps=24)


def ttc(h, w):
    return TtcEstimate(ttc_h=h, ttc_w=w)


class TestSizeRule:
    def test_both_under_thresholds(self):
        cfg = RuleConfig(delta=3.0, phi=6.0)
        assert check_size_rule(ttc(2.0, 4.0), cfg) is True

    def test_truncated_vehicle_width_shrinking(self):
        # height closing fast but width negative: not a near-crash
        cfg = RuleConfig(delta=3.0, phi=6.0)
        assert check_size_rule(ttc(2.0, -1.0), cfg) is False

    def test_missing_estimate_fails(self):
        cfg = RuleConfig()
        assert check_size_rule(ttc(None, 2.0), cfg) is False
        assert check_size_rule(ttc(2.0, None), cfg) is False
        assert check_size_rule(None, cfg) is False

    def test_bounds_are_strict(self):
        cfg = RuleConfig(delta=3.0, phi=6.0)
        assert check_size_rule(ttc(3.0, 4.0), cfg) is False
        assert check_size_rule(ttc(2.0, 6.0), cfg) is False
        assert check_size_rule(ttc(0.0, 4.0), cfg) is False

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            RuleConfig(delta=3.0, phi=3.0)
        with pytest.raises(ValueError):
            RuleConfig(alpha=0.1)
        with pytest.raises(ValueError):
            RuleConfig(beta=-0.1)


class TestMotionRule:
    def test_dead_ahead_product_zero(self):
        cfg = RuleConfig()
        ok, product = check_motion_rule(
            0.5, latest_cx=CAM.principal_x, latest_by=700,
            camera=CAM, cfg=cfg,
        )
        assert product == 0.0
        assert ok is True

    def test_fast_outward_drift_fails(self):
        # omega * x * y = 2.0 * 0.5 * 0.5 = 0.5 > beta
        cfg = RuleConfig(beta=0.05)
        ok, product = check_motion_rule(
            2.0,
            latest_cx=CAM.principal_x + 320,  # x_norm = 0.5
            latest_by=360.0,                  # y_norm = 0.5
            camera=CAM, cfg=cfg,
        )
        assert product == pytest.approx(0.5)
        assert ok is False

    def test_inward_drift_warning_band_passes(self):
        # omega < 0 right of center: p = -1.2 * 0.5 * 0.5 = -0.3 in (-0.75, 0.05)
        cfg = RuleConfig(alpha=-0.75, beta=0.05)
        ok, product = check_motion_rule(
            -1.2,
            latest_cx=CAM.principal_x + 320,
            latest_by=360.0,
            camera=CAM, cfg=cfg,
        )
        assert product == pytest.approx(-0.3)
        assert ok is True

    def test_normalizations_clamped(self):
        cfg = RuleConfig()
        _, product = check_motion_rule(
            1.0,
            latest_cx=CAM.frame_width * 3,   # would be x_norm = 5 unclamped
            latest_by=-100.0,                # would be y_norm > 1 unclamped
            camera=CAM, cfg=cfg,
        )
        assert product == pytest.approx(1.0)

    def test_missing_motion_fails(self):
        ok, product = check_motion_rule(None, 0.0, 0.0, CAM, RuleConfig())
        assert ok is False and product == 0.0


def make_track(track_id=1, kind="vehicle", cx=640.0, by=400.0):
    half_w, half_h = 40.0, 30.0
    det = Detection(
        t=0.0, frame_id=0, kind=kind, confidence=1.0,
        box=(cx - half_w, by - 2 * half_h, cx + half_w, by),
    )
    return Track(track_id, det, t=det.t)


class TestDecide:
    def passing_inputs(self):
        return ttc(2.0, 4.0), 0.0

    def test_trigger_when_both_pass(self):
        engine = RuleEngine(RuleConfig(), CAM)
        est, motion = self.passing_inputs()
        decision = engine.decide(make_track(), est, motion, now=5.0)
        assert decision.triggered
        assert decision.size_rule_pass and decision.motion_rule_pass

    def test_cooldown_suppresses_retrigger(self):
        engine = RuleEngine(RuleConfig(cooldown=10.0), CAM)
        est, motion = self.passing_inputs()
        track = make_track()
        assert engine.decide(track, est, motion, now=5.0).triggered
        repeat = engine.decide(track, est, motion, now=7.0)
        assert not repeat.triggered
        assert repeat.size_rule_pass and repeat.motion_rule_pass
        assert engine.decide(track, est, motion, now=15.0).triggered

    def test_cooldown_is_per_track(self):
        engine = RuleEngine(RuleConfig(cooldown=10.0), CAM)
        est, motion = self.passing_inputs()
        assert engine.decide(make_track(1), est, motion, now=5.0).triggered
        assert engine.decide(make_track(2), est, motion, now=6.0).triggered

    def test_motion_failure_blocks(self):
        engine = RuleEngine(RuleConfig(beta=0.05), CAM)
        est = ttc(2.0, 4.0)
        motion = 2.0
        decision = engine.decide(make_track(cx=960.0), est, motion, now=0.0)
        assert decision.size_rule_pass
        assert not decision.motion_rule_pass
        assert not decision.triggered

    def test_triggers_separated_by_cooldown(self):
        engine = RuleEngine(RuleConfig(cooldown=10.0), CAM)
        est, motion = self.passing_inputs()
        track = make_track()
        trigger_times = []
        t = 0.0
        while t < 60.0:
            if engine.decide(track, est, motion, now=t).triggered:
                trigger_times.append(t)
            t += 1 / 24
        assert len(trigger_times) >= 2
        gaps = [b - a for a, b in zip(trigger_times, trigger_times[1:])]
        assert all(g >= 10.0 for g in gaps)

    @given(
        st.one_of(st.none(), st.floats(-20, 0), st.floats(3, 50)),
        st.floats(-20, 50),
        st.floats(-5, 5),
    )
    def test_never_triggers_outside_height_band(self, ttc_h, ttc_w, omega):
        # receding or distant targets can never trigger
        engine = RuleEngine(RuleConfig(delta=3.0, phi=6.75), CAM)
        est = TtcEstimate(ttc_h=ttc_h, ttc_w=ttc_w)
        decision = engine.decide(make_track(), est, omega, now=0.0)
        assert not decision.triggered

    def test_event_type_mapping(self):
        assert event_type_for("pedestrian") == "vehicle-pedestrian"
        assert event_type_for("vehicle") == "vehicle-vehicle"


def _decision_flags(scenario):
    annotations = []
    run_scenario(scenario, annotations.append)
    flags = []
    for summary in annotations:
        for ann in summary.tracks:
            flags.append(
                (summary.frame_id, ann.size_rule_pass, ann.motion_rule_pass, ann.triggered)
            )
    return flags


def scaled_scenario(scale):
    camera = CameraSpec(
        focal_px=1000 * scale,
        frame_width=1280 * scale,
        frame_height=720 * scale,
        fps=24,
    )
    actor = ActorSpec(
        kind="vehicle", real_height=1.5, real_width=1.8,
        init_longitudinal=36.0, init_lateral=1.0,
        vel_longitudinal=10.0, vel_lateral=-0.4, collision_half_width=1.2,
    )
    return ScenarioSpec(camera=camera, actors=(actor,), duration=3.0)


class TestScenarioInvariances:
    def test_resolution_invariance(self):
        # doubling frame resolution and focal together changes no decision
        flags_1x = _decision_flags(scaled_scenario(1))
        flags_2x = _decision_flags(scaled_scenario(2))
        assert flags_1x == flags_2x
        assert any(triggered for _, _, _, triggered in flags_1x)

    def test_mirror_symmetry(self):
        def mirrored(sign):
            actor = ActorSpec(
                kind="vehicle", real_height=1.5, real_width=1.8,
                init_longitudinal=34.0, init_lateral=sign * 2.6,
                vel_longitudinal=9.0, vel_lateral=sign * -0.8,
                collision_half_width=1.2,
            )
            return ScenarioSpec(camera=CAM, actors=(actor,), duration=3.0)

        anns_r, anns_l = [], []
        res_r = run_scenario(mirrored(+1), anns_r.append)
        res_l = run_scenario(mirrored(-1), anns_l.append)
        prods_r = [a.motion_product for s in anns_r for a in s.tracks]
        prods_l = [a.motion_product for s in anns_l for a in s.tracks]
        assert len(prods_r) == len(prods_l)
        for pr, pl in zip(prods_r, prods_l):
            assert pl == pytest.approx(pr, rel=1e-6, abs=1e-12)
        assert [e.trigger_time for e in res_r.events] == [
            e.trigger_time for e in res_l.events
        ]
