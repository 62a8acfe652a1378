"""Regression and TTC estimator tests, anchored to the simulator oracle."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from nearcrash.config import build_config
from nearcrash.pipeline import run
from nearcrash.sim import ActorSpec, generate_detections, project_actor
from nearcrash.streams import CameraSpec
from nearcrash.ttc import (
    SLOPE_EPSILON,
    DegenerateFitError,
    Sample,
    SampleWindow,
    fit_slope,
    horizontal_motion,
    normalized_center,
    ttc_from_window,
)

from conftest import (
    BIG_CAMERA, config_for_scenario, fill_window, load_bundled_scenario, sample_window,
)

FPS = 24.0


def approach(**kwargs):
    defaults = dict(
        kind="vehicle",
        real_height=1.5,
        real_width=1.8,
        init_longitudinal=30.0,
        vel_longitudinal=10.0,
        collision_half_width=1.2,
    )
    defaults.update(kwargs)
    return ActorSpec(**defaults)


def frame_times(first_frame, n):
    return [k / FPS for k in range(first_frame, first_frame + n)]


class TestFitSlope:
    def test_exact_line(self):
        fit = fit_slope([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.fitted_latest == pytest.approx(3.0, abs=1e-12)
        assert fit.n == 3

    def test_flat_line(self):
        fit = fit_slope([(0.0, 4.0), (1.0, 4.0), (2.0, 4.0)])
        assert fit.slope == 0.0

    def test_too_few_samples(self):
        with pytest.raises(DegenerateFitError):
            fit_slope([(0.0, 1.0)])

    def test_zero_time_variance(self):
        with pytest.raises(DegenerateFitError):
            fit_slope([(1.0, 1.0), (1.0, 2.0)])

    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(0.01, 10),
        st.floats(-1000, 1000),
    )
    def test_two_points_closed_form(self, t0, v0, dt, v1):
        fit = fit_slope([(t0, v0), (t0 + dt, v1)])
        assert fit.slope == pytest.approx((v1 - v0) / dt, rel=1e-9, abs=1e-9)
        assert fit.fitted_latest == pytest.approx(v1, rel=1e-9, abs=1e-6)

    def test_slope_matches_midwindow_derivative(self):
        # oracle: analytic dh/dt = f * H * V / D(t)^2 at the window midpoint
        actor = approach()
        times = frame_times(1, 12)
        pts = [(t, project_actor(actor, t, BIG_CAMERA).height) for t in times]
        fit = fit_slope(pts)
        t_mid = (times[0] + times[-1]) / 2
        analytic = (
            BIG_CAMERA.focal_px
            * actor.real_height
            * actor.vel_longitudinal
            / actor.distance(t_mid) ** 2
        )
        assert fit.slope == pytest.approx(analytic, rel=0.05)

    def test_non_uniform_spacing_supported(self):
        # same line sampled unevenly still fits exactly
        fit = fit_slope([(0.0, 0.0), (0.13, 0.26), (1.0, 2.0), (1.01, 2.02)])
        assert fit.slope == pytest.approx(2.0, rel=1e-9)


class TestTtcFromWindow:
    def test_head_on_estimate_tracks_oracle(self):
        # window of 12 frames whose latest is t = 0.5; true TTC there is 2.5 s
        actor = approach()
        window = fill_window(actor, BIG_CAMERA, frame_times(1, 12))
        est = ttc_from_window(window)
        assert est.ttc_h == pytest.approx(2.5, rel=0.05)
        assert est.ttc_w == pytest.approx(2.5, rel=0.05)

    def test_oracle_accuracy_across_range(self):
        # noise-free constant-velocity approaches, 12-sample windows at 24 fps
        for ttc_target in (1.0, 2.0, 3.0, 4.0, 5.0):
            for speed in (4.0, 8.0, 12.0):
                t_latest = 12 / FPS
                actor = approach(
                    init_longitudinal=speed * (ttc_target + t_latest),
                    vel_longitudinal=speed,
                )
                window = fill_window(actor, BIG_CAMERA, frame_times(1, 12))
                est = ttc_from_window(window)
                assert est.ttc_h == pytest.approx(ttc_target, rel=0.05)

    def test_receding_actor_negative(self):
        actor = approach(init_longitudinal=10.0, vel_longitudinal=-8.0)
        window = fill_window(actor, BIG_CAMERA, frame_times(0, 12))
        est = ttc_from_window(window)
        assert est.ttc_h < 0
        assert est.ttc_w < 0

    def test_constant_size_gives_none(self):
        actor = approach(vel_longitudinal=0.0)
        window = fill_window(actor, BIG_CAMERA, frame_times(0, 12))
        est = ttc_from_window(window)
        assert est.ttc_h is None
        assert est.ttc_w is None

    def test_not_ready_below_window_len(self):
        actor = approach()
        window = fill_window(actor, BIG_CAMERA, frame_times(0, 8), capacity=12)
        assert ttc_from_window(window) is None

    def test_uses_newest_samples_only(self):
        # an actor that recedes then approaches: the fresh half decides the sign
        cam = BIG_CAMERA
        window = sample_window(capacity=24)
        recede = approach(init_longitudinal=20.0, vel_longitudinal=-5.0)
        for t in frame_times(0, 12):
            window.add(t, project_actor(recede, t, cam).box)
        close = approach(init_longitudinal=recede.distance(0.5), vel_longitudinal=10.0)
        for t in frame_times(13, 12):
            window.add(t, project_actor(close, t - 13 / FPS, cam).box)
        est = ttc_from_window(window)
        assert est.ttc_h > 0

    def test_focal_invariance(self):
        actor = approach(init_lateral=1.0, vel_lateral=-0.3)
        estimates = []
        for focal in (500.0, 1000.0, 2000.0):
            cam = CameraSpec(
                focal_px=focal, frame_width=4000, frame_height=3000, fps=24
            )
            window = fill_window(actor, cam, frame_times(1, 12))
            estimates.append(ttc_from_window(window))
        for est in estimates[1:]:
            assert abs(est.ttc_h - estimates[0].ttc_h) <= 1e-9 * abs(estimates[0].ttc_h)
            assert abs(est.ttc_w - estimates[0].ttc_w) <= 1e-9 * abs(estimates[0].ttc_w)


class TestHorizontalMotion:
    def test_dead_ahead_zero(self):
        actor = approach(init_lateral=0.0)
        window = fill_window(actor, BIG_CAMERA, frame_times(0, 18))
        omega = horizontal_motion(window, 18, BIG_CAMERA)
        assert omega == pytest.approx(0.0, abs=1e-12)

    def test_pure_lateral_drift_rate(self):
        # f * v_lat / (D * half_width) = 1000 * 20 / (100 * 1000) = 0.2 per second
        cam = CameraSpec(focal_px=1000, frame_width=2000, frame_height=1500, fps=24)
        actor = approach(
            init_longitudinal=100.0, vel_longitudinal=0.0, init_lateral=0.0, vel_lateral=20.0
        )
        window = fill_window(actor, cam, frame_times(0, 18))
        omega = horizontal_motion(window, 18, cam)
        assert omega == pytest.approx(0.2, rel=1e-9)

    def test_mirror_negates_omega(self):
        right = approach(init_lateral=2.0, vel_lateral=1.0)
        left = approach(init_lateral=-2.0, vel_lateral=-1.0)
        w_right = fill_window(right, BIG_CAMERA, frame_times(0, 18))
        w_left = fill_window(left, BIG_CAMERA, frame_times(0, 18))
        om_right = horizontal_motion(w_right, 18, BIG_CAMERA)
        om_left = horizontal_motion(w_left, 18, BIG_CAMERA)
        assert om_left == pytest.approx(-om_right, rel=1e-9)

    def test_not_ready(self):
        actor = approach()
        window = fill_window(actor, BIG_CAMERA, frame_times(0, 10), capacity=18)
        assert horizontal_motion(window, 18, BIG_CAMERA) is None

    def test_custom_center_line(self):
        actor = approach(init_lateral=0.0)
        window = fill_window(actor, BIG_CAMERA, frame_times(0, 18))
        shifted = horizontal_motion(window, 18, BIG_CAMERA, c_los=BIG_CAMERA.principal_x - 100)
        # constant offset shifts positions, not the slope
        assert shifted == pytest.approx(0.0, abs=1e-9)


@st.composite
def uneven_window(draw):
    """A full 18-sample window with non-uniform dt, and a fit length."""
    t = draw(st.floats(-1e4, 1e4))
    samples = []
    for _ in range(18):
        t += draw(st.floats(1e-3, 0.5))
        samples.append(
            Sample(
                t=t,
                h=draw(st.floats(1.0, 800.0)),
                w=draw(st.floats(1.0, 800.0)),
                cx=draw(st.floats(-500.0, 4500.0)),
                by=0.0,
            )
        )
    n = draw(st.integers(2, 18))
    return sample_window(samples, 18, n), n


def reference_fit(points):
    # two-pass sums in the order the engine's fits must keep
    n = len(points)
    t_mean = sum(t for t, _ in points) / n
    v_mean = sum(v for _, v in points) / n
    sxx = sum((t - t_mean) ** 2 for t, _ in points)
    return sum((t - t_mean) * (v - v_mean) for t, v in points) / sxx, t_mean, v_mean


TTC_RTOL = 1e-9  # the running sums' size fit against the two-pass reference


def assert_ttc_close(got, points):
    """A TTC from the running sums against reference_fit over (t, size) points.

    Both are None, or they agree within TTC_RTOL relative; a reference slope
    within 1e-9 of SLOPE_EPSILON may fall on either side of it. The
    reference's mean time, a sum of n times over n, is rounded by up to about
    n ulps of a time, and its TTC with it; that is allowed on top.
    """
    slope, t_mean, v_mean = reference_fit(points)
    if abs(abs(slope) - SLOPE_EPSILON) <= 1e-9:
        return
    if abs(slope) < SLOPE_EPSILON:
        assert got is None
        return
    want = v_mean / slope - (points[-1][0] - t_mean)
    clock = len(points) * math.ulp(max(abs(t) for t, _ in points))
    assert got is not None and abs(got - want) <= TTC_RTOL * abs(want) + clock


class TestFusedFitsEqualFitSlope:
    """The engine's fits equal fit_slope: the motion fit bit for bit, the size
    fit, read from running sums, within TTC_RTOL."""

    @settings(max_examples=100)
    @given(uneven_window())
    def test_ttc_from_window(self, case):
        window, n = case
        samples = list(window)[-n:]
        fit_h = fit_slope([(s.t, s.h) for s in samples])
        fit_w = fit_slope([(s.t, s.w) for s in samples])
        for fit, column in ((fit_h, "h"), (fit_w, "w")):
            points = [(s.t, getattr(s, column)) for s in samples]
            assert (fit.slope, fit.t_mean, fit.value_mean) == reference_fit(points)
        est = ttc_from_window(window)
        for got, column in ((est.ttc_h, "h"), (est.ttc_w, "w")):
            assert_ttc_close(got, [(s.t, getattr(s, column)) for s in samples])

    @settings(max_examples=100)
    @given(uneven_window(), st.one_of(st.none(), st.floats(0.0, 4000.0)))
    def test_horizontal_motion(self, case, c_los):
        window, n = case
        samples = list(window)[-n:]
        fit = fit_slope([(s.t, normalized_center(s.cx, BIG_CAMERA, c_los)) for s in samples])
        assert horizontal_motion(window, n, BIG_CAMERA, c_los) == fit.slope


def epoch_clock(draw, n):
    """n strictly increasing timestamps at epoch scale with non-uniform steps."""
    t = draw(st.floats(1.6e9, 1.8e9))
    times = []
    for _ in range(n):
        t += draw(st.floats(1e-3, 0.5))
        times.append(t)
    return times


def sample_column(draw, n):
    return [draw(st.floats(1.0, 800.0)) for _ in range(n)]


@st.composite
def epoch_track(draw):
    """A window's capacity and size span, and a track's samples on an epoch-scale
    clock, enough of them for the sums to be rebuilt at least once."""
    capacity = draw(st.integers(2, 24))
    n = draw(st.integers(2, capacity))
    count = draw(st.integers(capacity, 3 * capacity + 2))
    times = epoch_clock(draw, count)
    h, w, cx = (sample_column(draw, count) for _ in range(3))
    return capacity, n, list(map(Sample, times, h, w, cx, [0.0] * count))


def reference_omega(samples):
    return reference_fit([(s.t, normalized_center(s.cx, BIG_CAMERA)) for s in samples])[0]


def check_fit(window, kind, n):
    samples = list(window)[-n:]
    if kind == "size":
        est = ttc_from_window(window)
        # times from the first sample, an exact difference, so that the
        # reference keeps its digits at epoch scale
        t0 = samples[0].t
        for got, column in ((est.ttc_h, "h"), (est.ttc_w, "w")):
            assert_ttc_close(got, [(s.t - t0, getattr(s, column)) for s in samples])
    elif kind == "motion":
        assert horizontal_motion(window, n, BIG_CAMERA) == reference_omega(samples)
    else:
        points = [(s.t, s.h) for s in samples]
        fit = fit_slope(points)
        assert (fit.slope, fit.t_mean, fit.value_mean) == reference_fit(points)


class TestRunningSizeSums:
    """A window's running sums give the two-pass size fit, across rebuilds."""

    @settings(max_examples=200, deadline=None)
    @given(epoch_track())
    def test_every_append_equals_the_reference(self, case):
        capacity, n, samples = case
        window = sample_window(capacity=capacity, size_window_len=n)
        for sample in samples:
            window.append(sample)
            if len(window) < n:
                assert ttc_from_window(window) is None
            else:
                check_fit(window, "size", n)
            if len(window) >= 2:
                check_fit(window, "motion", len(window))
                check_fit(window, "fit_slope", len(window))

    def test_a_long_track_crosses_many_rebuilds(self):
        # 10^5 appends rebuild the sums over 8,000 times; the clock runs 7 h
        rng = random.Random(29)
        window = sample_window(capacity=20, size_window_len=12)
        t = 1.7e9
        for k in range(100_000):
            t += rng.uniform(1e-3, 0.5)
            window.append(Sample(t, rng.uniform(1.0, 800.0), rng.uniform(1.0, 800.0), 0.0, 0.0))
            if k % 7 == 6 and len(window) >= 12:
                check_fit(window, "size", 12)

    def test_one_timestamp_raises_on_every_call(self):
        window = sample_window(
            (Sample(1.7e9, 100.0 + i, 50.0, 10.0 * i, 0.0) for i in range(18)), 18, 18
        )
        for _ in range(3):
            with pytest.raises(DegenerateFitError):
                ttc_from_window(window)
            with pytest.raises(DegenerateFitError):
                horizontal_motion(window, 18, BIG_CAMERA)
            with pytest.raises(DegenerateFitError):
                fit_slope([(s.t, s.h) for s in window])


def test_window_capacity():
    # a track keeps enough samples for both fits
    long_size_span = build_config({"regression": {"size_window_len": 20}}).regression
    assert SampleWindow(long_size_span).maxlen == 20
    assert SampleWindow(build_config().regression).maxlen == 18


@pytest.mark.parametrize("name", ["head_on", "cut_in", "jaywalking_pedestrian"])
def test_epoch_time_shift_keeps_the_trigger_frame(name):
    # at t ~ 1.7e9 s a one-pass sum(t^2) - n * t_mean^2 form loses every digit
    # of a 0.5 s window; the centred sums keep the slopes
    scenario = load_bundled_scenario(name)
    cfg = config_for_scenario(scenario)
    shift = 1.7e9

    def trigger_frames(frames):
        frame_at = {f.t: f.frame_id for f in frames}
        return [frame_at[e.trigger_time] for e in run(frames, cfg).events]

    frames = generate_detections(scenario)
    shifted = [
        dataclasses.replace(
            f,
            t=f.t + shift,
            detections=[dataclasses.replace(d, t=d.t + shift) for d in f.detections],
        )
        for f in frames
    ]
    expected = trigger_frames(frames)
    assert len(expected) == 1
    assert trigger_frames(shifted) == expected
