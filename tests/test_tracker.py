"""Tracker tests: IoU, prediction, optimal association, track lifecycle."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearcrash import tracker
from nearcrash.config import RegressionParams, TrackerParams
from nearcrash.sim import ActorSpec, ScenarioSpec, generate_detections, project_actor
from nearcrash.streams import ROAD_USER_KINDS, Detection, FrameRecord
from nearcrash.tracker import (
    KalmanBoxFilter,
    NonMonotonicFrameError,
    Track,
    Tracker,
    associate,
    box_to_obs,
    iou,
    iou_matrix,
    obs_to_box,
    solve_assignment,
)
from nearcrash.ttc import Sample

from conftest import BIG_CAMERA


def det(box, kind="vehicle", t=0.0, frame_id=0, confidence=1.0):
    return Detection(t=t, frame_id=frame_id, kind=kind, confidence=confidence, box=box)


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_partial_overlap(self):
        # intersection 1x2 = 2, union 4 + 4 - 2 = 6
        assert iou((0, 0, 2, 2), (1, 0, 3, 2)) == pytest.approx(2 / 6)

    def test_symmetric(self):
        a, b = (0, 0, 4, 3), (2, 1, 7, 5)
        assert iou(a, b) == pytest.approx(iou(b, a))


class TestPredict:
    def test_zero_velocity_box_unchanged(self):
        trk = Track(1, det((100, 100, 140, 180)), t=0.0)
        before = trk.box()
        after = trk.predict(0.5)
        assert after == pytest.approx(before, abs=1e-9)

    def test_center_velocity_shifts_center(self):
        trk = Track(1, det((100, 100, 140, 180)), t=0.0)
        trk.kf.x[4] = 10.0  # center-x velocity in px/s
        box = trk.predict(0.5)
        assert (box[0] + box[2]) / 2 == pytest.approx(125.0, abs=1e-9)
        assert (box[1] + box[3]) / 2 == pytest.approx(140.0, abs=1e-9)

    def test_zero_dt_is_identity(self):
        trk = Track(1, det((100, 100, 140, 180)), t=0.0)
        trk.kf.x[4] = 50.0
        assert trk.predict(0.0) == pytest.approx(trk.box(), abs=1e-12)

    def test_area_floored(self):
        trk = Track(1, det((100, 100, 101, 101)), t=0.0)
        trk.kf.x[6] = -100.0  # shrink area hard
        box = trk.predict(1.0)
        assert box[2] > box[0] and box[3] > box[1]


class DenseSortFilter:
    """Reference: SORT's 7x7 matrix Kalman filter with diagonal noise."""

    P0 = np.diag([10.0] * 4 + [10000.0] * 3)
    R = np.diag([1.0] * 2 + [10.0] * 2)
    Q = np.diag([1.0] * 4 + [0.01] * 2 + [0.0001])
    H = np.eye(4, 7)

    def __init__(self, box):
        self.x = np.zeros(7)
        self.x[:4] = box_to_obs(box)
        self.P = self.P0.copy()

    def predict(self, dt):
        if dt > 0:
            F = np.eye(7)
            F[0, 4] = F[1, 5] = F[2, 6] = dt
            self.x = F @ self.x
            self.P = F @ self.P @ F.T + self.Q * dt
        self.x[2] = max(self.x[2], 1e-4)
        return self.box()

    def update(self, box):
        y = np.array(box_to_obs(box)) - self.H @ self.x
        S = self.H @ self.P @ self.H.T + self.R
        K = self.P @ self.H.T @ np.linalg.inv(S)
        self.x = self.x + K @ y
        self.P = (np.eye(7) - K @ self.H) @ self.P
        self.x[2] = max(self.x[2], 1e-4)
        self.x[3] = max(self.x[3], 1e-4)

    def box(self):
        return obs_to_box(*self.x[:4])


class TestKalmanEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        x1=st.floats(0.0, 2000.0),
        y1=st.floats(0.0, 1000.0),
        w=st.floats(2.0, 400.0),
        h=st.floats(2.0, 400.0),
        miss_rate=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_per_axis_filter_matches_dense_reference(self, x1, y1, w, h, miss_rate, seed):
        rng = np.random.default_rng(seed)
        box = (x1, y1, x1 + w, y1 + h)
        kf, ref = KalmanBoxFilter(box), DenseSortFilter(box)
        rows, ref_rows = [], []
        for _ in range(200):
            dt = float(rng.uniform(0.0, 0.5))
            while dt == 0.0:
                dt = float(rng.uniform(0.0, 0.5))
            rows.append(kf.predict(dt))
            ref_rows.append(ref.predict(dt))
            if rng.uniform() >= miss_rate:
                # a box that drifts and grows or shrinks by a few percent
                cx = (box[0] + box[2]) / 2 + rng.normal(0.0, 5.0)
                cy = (box[1] + box[3]) / 2 + rng.normal(0.0, 2.0)
                bw = (box[2] - box[0]) * rng.uniform(0.95, 1.06)
                bh = (box[3] - box[1]) * rng.uniform(0.95, 1.06)
                box = (cx - bw / 2, cy - bh / 2, cx + bw / 2, cy + bh / 2)
                kf.update(box)
                ref.update(box)
            # state, box, each axis's (value var, covariance, rate var), var(r)
            P = ref.P
            rows.append([*kf.x, *kf.box(), *(v for axis in kf.P for v in axis), kf.p_r])
            ref_rows.append(
                [*ref.x, *ref.box()]
                + [v for i in range(3) for v in (P[i, i], P[i, i + 4], P[i + 4, i + 4])]
                + [P[3, 3]]
            )
        for got, want in zip(rows, ref_rows):
            # relative to the row's scale, so near-zero rates are not held to 1e-12 of 0
            want = np.array(want, dtype=float)
            tol = 1e-12 * max(np.abs(want).max(), 1.0)
            assert np.abs(np.array(got, dtype=float) - want).max() <= tol, (got, want)


class LoopKalmanFilter:
    """Reference: the per-axis filter as a loop over u, v and s, SORT's noise inline."""

    Q_RATE = (0.01, 0.01, 0.0001)
    R = (1.0, 1.0, 10.0, 10.0)

    def __init__(self, box):
        self.x = [*box_to_obs(box), 0.0, 0.0, 0.0]
        self.P = [(10.0, 0.0, 10000.0)] * 3
        self.p_r = 10.0

    def predict(self, dt):
        x, P = self.x, self.P
        for i, (pvv, pvr, prr) in enumerate(P):
            x[i] += dt * x[i + 4]
            cov = pvr + dt * prr
            P[i] = (pvv + dt * (pvr + cov) + 1.0 * dt, cov, prr + self.Q_RATE[i] * dt)
        self.p_r += 1.0 * dt
        x[2] = max(x[2], 1e-4)
        return self.box()

    def update(self, box):
        x, P, z = self.x, self.P, box_to_obs(box)
        for i, (pvv, pvr, prr) in enumerate(P):
            k_value, k_rate = pvv / (pvv + self.R[i]), pvr / (pvv + self.R[i])
            y = z[i] - x[i]
            x[i] += k_value * y
            x[i + 4] += k_rate * y
            P[i] = ((1.0 - k_value) * pvv, (1.0 - k_value) * pvr, prr - k_rate * pvr)
        k_r = self.p_r / (self.p_r + self.R[3])
        x[3] += k_r * (z[3] - x[3])
        self.p_r *= 1.0 - k_r
        x[2] = max(x[2], 1e-4)
        x[3] = max(x[3], 1e-4)

    def box(self):
        u, v, s, r = self.x[:4]
        w = math.sqrt(max(s, 1e-4) * max(r, 1e-4))
        h = max(s, 1e-4) / w
        return (u - w / 2.0, v - h / 2.0, u + w / 2.0, v + h / 2.0)


def filter_bits(kf):
    """x, P and p_r as the hex of each float, so -0.0 and 0.0 differ too."""
    return [v.hex() for v in (*kf.x, *(v for axis in kf.P for v in axis), kf.p_r)]


# frame intervals (steady rates, jitter, 0, a long gap after dropped frames),
# whether an update follows, and how much the updated box grows or shrinks
FRAME_STEPS = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from([0.0, 1 / 24, 1 / 30, 0.1, 2.5]),
            st.floats(0.0, 0.5),
        ),
        st.booleans(),
        st.floats(0.9, 1.1),
    ),
    min_size=1,
    max_size=60,
)


class TestKalmanLoopOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        x1=st.floats(0.0, 2000.0),
        y1=st.floats(0.0, 1000.0),
        w=st.floats(0.5, 400.0),
        h=st.floats(0.5, 400.0),
        steps=FRAME_STEPS,
    )
    def test_written_out_filter_equals_the_loop_bit_for_bit(self, x1, y1, w, h, steps):
        box = (x1, y1, x1 + w, y1 + h)
        kf, ref = KalmanBoxFilter(box), LoopKalmanFilter(box)
        assert filter_bits(kf) == filter_bits(ref)
        for k, (dt, matched, scale) in enumerate(steps):
            assert kf.predict(dt) == ref.predict(dt)
            if matched:
                cx, cy = (box[0] + box[2]) / 2 + 3.0 * k, (box[1] + box[3]) / 2 - 1.0 * k
                bw, bh = (box[2] - box[0]) * scale, (box[3] - box[1]) * scale
                box = (cx - bw / 2, cy - bh / 2, cx + bw / 2, cy + bh / 2)
                kf.update(box)
                ref.update(box)
            assert filter_bits(kf) == filter_bits(ref)
            assert kf.box() == ref.box()

    @pytest.mark.parametrize("dt", [-1.0, float("nan"), float("inf")])
    def test_predict_rejects_a_negative_or_non_finite_dt(self, dt):
        kf = KalmanBoxFilter((100.0, 100.0, 140.0, 180.0))
        kf.x[4] = 10.0
        before = filter_bits(kf)
        with pytest.raises(ValueError, match="dt must be finite and >= 0"):
            kf.predict(dt)
        assert filter_bits(kf) == before


def total_score(score: np.ndarray, pairs) -> float:
    # fixed row-major summation order so float totals compare exactly
    return sum(score[i, j] for i, j in sorted(pairs))


def brute_force_best(score: np.ndarray) -> float:
    rows, cols = score.shape
    if rows == 0 or cols == 0:
        return 0.0
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
    return max(total_score(score, c) for c in candidates)


KINDS = st.sampled_from(["vehicle", "pedestrian"])


@st.composite
def box_corners(draw):
    # corners on a coarse grid, so overlaps, touching edges and disjoint pairs
    # all occur, each maybe nudged so the arithmetic is inexact
    x1, y1 = draw(st.integers(0, 40)) / 2, draw(st.integers(0, 40)) / 2
    x2, y2 = x1 + draw(st.integers(1, 20)) / 2, y1 + draw(st.integers(1, 20)) / 2
    nudge = st.one_of(st.just(0.0), st.floats(-0.2, 0.2))
    return (x1 + draw(nudge), y1 + draw(nudge), x2 + draw(nudge), y2 + draw(nudge))


class TestAssociate:
    def test_singleton_match(self):
        matches, unmatched_t, unmatched_d = associate(
            [(0, 0, 10, 10)], [det((1, 1, 11, 11))], iou_min=0.3
        )
        assert matches == [(0, 0)]
        assert unmatched_t == [] and unmatched_d == []

    def test_low_iou_demoted(self):
        matches, unmatched_t, unmatched_d = associate(
            [(0, 0, 10, 10)], [det((9, 9, 19, 19))], iou_min=0.3
        )
        assert matches == []
        assert unmatched_t == [0] and unmatched_d == [0]

    def test_cross_class_forbidden(self):
        matches, unmatched_t, unmatched_d = associate(
            [(0, 0, 10, 10)],
            [det((0, 0, 10, 10), kind="pedestrian")],
            iou_min=0.3,
            predicted_kinds=["vehicle"],
        )
        assert matches == []

    def test_greedy_suboptimal_case(self):
        # greedy row-first pairing would take (a, d1) and strand d2
        a = (0.0, 0.0, 10.0, 10.0)
        b = (2.0, 0.0, 12.0, 10.0)
        d1 = det((1.0, 0.0, 11.0, 10.0))
        d2 = det((0.5, 0.0, 10.5, 10.0))
        matches, _, _ = associate([a, b], [d1, d2], iou_min=0.1)
        score = np.array([[iou(a, d1.box), iou(a, d2.box)], [iou(b, d1.box), iou(b, d2.box)]])
        assert total_score(score, matches) == brute_force_best(score)
        assert len(matches) == 2

    def test_optimality_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            rows = rng.integers(1, 7)
            cols = rng.integers(1, 7)
            score = rng.uniform(0.0, 1.0, size=(rows, cols))
            pairs = solve_assignment(score)
            assert total_score(score, pairs) == brute_force_best(score)

    @settings(max_examples=200, deadline=None)
    @given(
        predicted=st.lists(st.tuples(box_corners(), KINDS), max_size=6),
        detected=st.lists(st.tuples(box_corners(), KINDS), max_size=6),
        iou_min=st.floats(0.05, 0.95),
    )
    def test_batched_matches_scalar_loop(self, predicted, detected, iou_min):
        boxes = [b for b, _ in predicted]
        kinds = [k for _, k in predicted]
        dets = [det(b, kind=k) for b, k in detected]
        loop = np.zeros((len(boxes), len(dets)))
        for i, pbox in enumerate(boxes):
            for j, d in enumerate(dets):
                loop[i, j] = iou(pbox, d.box)
        if boxes and dets:
            batched = iou_matrix(boxes, [d.box for d in dets])
            assert batched.tolist() == loop.tolist()  # bit for bit
        for i, j in itertools.product(range(len(boxes)), range(len(dets))):
            if kinds[i] != dets[j].kind:
                loop[i, j] = 0.0
        pairs = [(i, j) for i, j in solve_assignment(loop) if loop[i, j] >= iou_min]
        expected = (
            pairs,
            [i for i in range(len(boxes)) if i not in {i for i, _ in pairs}],
            [j for j in range(len(dets)) if j not in {j for _, j in pairs}],
        )
        assert associate(boxes, dets, iou_min, predicted_kinds=kinds) == expected

    def test_solver_rejects_nan_scores(self):
        with pytest.raises(ValueError, match="finite 2-d matrix"):
            solve_assignment(np.array([[0.5, float("nan")], [0.2, 0.9]]))

    def test_invalid_iou_min(self):
        with pytest.raises(ValueError):
            associate([], [], iou_min=0.0)

    @pytest.mark.parametrize("family", ["uniform", "sparse", "tied"])
    def test_solver_matches_scipy_pair_for_pair(self, family):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(["uniform", "sparse", "tied"].index(family))
        for rows, cols in itertools.product(range(1, 9), repeat=2):
            for _ in range(4):
                if family == "tied":
                    score = rng.choice([0.0, 0.5, 1.0], size=(rows, cols))
                else:
                    score = rng.uniform(0.0, 1.0, size=(rows, cols))
                    if family == "sparse":
                        score[rng.uniform(size=(rows, cols)) < 0.6] = 0.0
                r, c = optimize.linear_sum_assignment(score, maximize=True)
                assert solve_assignment(score) == list(zip(r.tolist(), c.tolist())), score

    @pytest.mark.parametrize(
        "boxes, detected",
        [
            # one track, two identical detections
            ([(0, 0, 10, 10)], [(1, 0, 11, 10), (1, 0, 11, 10)]),
            # two tracks, two identical detections: no strict best on either side
            ([(0, 0, 10, 10), (3, 0, 13, 10)], [(1, 0, 11, 10), (1, 0, 11, 10)]),
            # two tracks whose best is one detection, the other a worse second
            ([(0, 0, 10, 10), (2, 0, 12, 10)], [(1, 0, 11, 10), (6, 0, 16, 10)]),
            # both tracks best on one detection that each overlaps equally
            ([(0, 0, 10, 10), (2, 0, 12, 10)], [(1, 0, 11, 10), (-4, 0, 6, 10)]),
            # a 1x3 row with equal maxima left and right of the track
            ([(0, 0, 10, 10)], [(-2, 0, 8, 10), (30, 0, 40, 10), (2, 0, 12, 10)]),
            # a 3x1 column with equal maxima
            ([(-2, 0, 8, 10), (30, 0, 40, 10), (2, 0, 12, 10)], [(0, 0, 10, 10)]),
        ],
    )
    @pytest.mark.parametrize("iou_min", [0.1, 0.5, 0.75])
    def test_ties_match_the_solver(self, boxes, detected, iou_min):
        kinds = ["vehicle"] * len(boxes)
        dets = [det(b) for b in detected]
        assert associate(boxes, dets, iou_min, kinds) == solver_reference(
            boxes, dets, iou_min, kinds
        )

    def test_one_sided_frame_skips_numpy(self, monkeypatch):
        def unused(*args):
            raise AssertionError("one-sided frames need no score matrix")

        monkeypatch.setattr(tracker, "iou_matrix", unused)
        monkeypatch.setattr(tracker, "solve_assignment", unused)
        boxes = [(0, 0, 10, 10), (1, 0, 11, 10)]
        dets = [det((1, 0, 11, 10), kind="pedestrian")]
        assert associate(boxes, dets, 0.3, ["vehicle", "pedestrian"]) == ([(1, 0)], [0], [])
        assert associate(boxes[:1], dets, 0.3, ["vehicle"]) == ([], [0], [0])

    def test_dominant_rows_or_columns_skip_the_solver(self, monkeypatch):
        monkeypatch.setattr(tracker, "solve_assignment", None)
        lanes = [(20.0 * k, 0.0, 20.0 * k + 10.0, 10.0) for k in range(3)]
        shifted = [det((x1 + 1, y1, x2 + 1, y2)) for x1, y1, x2, y2 in lanes]
        assert associate(lanes, shifted[::-1], 0.3) == ([(0, 2), (1, 1), (2, 0)], [], [])
        # tracks 0 and 1 share their best detection, 1; by detection each
        # best track is distinct, and the matches still come by track index
        boxes = [(0, 0, 10, 10), (2.5, 0, 12.5, 10), (40, 0, 50, 10)]
        dets = [det((5, 0, 15, 10)), det((1, 0, 11, 10))]
        assert associate(boxes, dets, 0.3) == ([(0, 1), (1, 0)], [2], [])


def solver_reference(boxes, dets, iou_min, kinds):
    """`solve_assignment` on the masked scalar-iou scores, then the iou_min filter."""
    score = np.zeros((len(boxes), len(dets)))
    for i, j in itertools.product(range(len(boxes)), range(len(dets))):
        if kinds[i] == dets[j].kind:
            score[i, j] = iou(boxes[i], dets[j].box)
    pairs = [(i, j) for i, j in solve_assignment(score) if score[i, j] >= iou_min]
    return (
        pairs,
        [i for i in range(len(boxes)) if i not in {i for i, _ in pairs}],
        [j for j in range(len(dets)) if j not in {j for _, j in pairs}],
    )


def lateral_fleet(n, spacing=3.0):
    offset = -(n - 1) * spacing / 2
    return tuple(
        ActorSpec(
            kind="vehicle",
            real_height=1.5,
            real_width=1.8,
            init_longitudinal=40.0,
            init_lateral=offset + i * spacing,
            vel_longitudinal=5.0,
            collision_half_width=1.2,
        )
        for i in range(n)
    )


class TestStep:
    def test_empty_frames_never_confirm(self):
        tracker = Tracker()
        for k in range(20):
            assert tracker.step(FrameRecord(frame_id=k, t=k / 24, detections=[])) == []

    def test_single_actor_single_track(self):
        scenario = ScenarioSpec(
            camera=BIG_CAMERA, actors=lateral_fleet(1), duration=30 / 24
        )
        tracker = Tracker()
        confirmed_by_frame = {}
        for frame in generate_detections(scenario):
            confirmed_by_frame[frame.frame_id] = [t.id for t in tracker.step(frame)]
        ids = {i for ids in confirmed_by_frame.values() for i in ids}
        assert len(ids) == 1
        # confirmed on every frame from min_hits onward (0-indexed frames)
        for k in range(tracker.params.min_hits - 1, 30):
            assert confirmed_by_frame[k] == [next(iter(ids))]

    def test_two_actors_no_identity_switch(self):
        scenario = ScenarioSpec(
            camera=BIG_CAMERA, actors=lateral_fleet(2, spacing=8.0), duration=100 / 24
        )
        assignments = _actor_to_track_map(scenario)
        assert len(assignments) == 2
        for track_ids in assignments.values():
            assert len(track_ids) == 1

    def test_five_actors_identity_preserved(self):
        scenario = ScenarioSpec(
            camera=BIG_CAMERA, actors=lateral_fleet(5, spacing=6.0), duration=72 / 24
        )
        assignments = _actor_to_track_map(scenario)
        assert len(assignments) == 5
        assert sorted(len(v) for v in assignments.values()) == [1] * 5
        track_ids = [next(iter(v)) for v in assignments.values()]
        assert len(set(track_ids)) == 5

    def test_non_monotonic_frame_rejected_and_recoverable(self):
        tracker = Tracker()
        tracker.step(FrameRecord(frame_id=0, t=0.0, detections=[det((0, 0, 10, 10))]))
        with pytest.raises(NonMonotonicFrameError):
            tracker.step(FrameRecord(frame_id=1, t=0.0, detections=[]))
        # the tracker still accepts the next well-ordered frame
        out = tracker.step(
            FrameRecord(frame_id=2, t=1 / 24, detections=[det((0, 0, 10, 10), t=1 / 24)])
        )
        assert len(out) == 1

    def test_low_confidence_and_foreign_classes_dropped(self):
        tracker = Tracker(TrackerParams(confidence_min=0.4, min_hits=1))
        frame = FrameRecord(
            frame_id=0,
            t=0.0,
            detections=[
                det((0, 0, 10, 10), confidence=0.2),
                det((20, 20, 30, 30), kind="vehicle"),
            ],
        )
        out = tracker.step(frame)
        assert len(out) == 1
        assert out[0].box() == pytest.approx((20, 20, 30, 30), abs=1e-6)

    def test_track_dies_after_max_age(self):
        tracker = Tracker(TrackerParams(max_age=3, min_hits=1))
        tracker.step(FrameRecord(frame_id=0, t=0.0, detections=[det((0, 0, 10, 10))]))
        for k in range(1, 6):
            tracker.step(FrameRecord(frame_id=k, t=k / 24, detections=[]))
            for trk in tracker.tracks:
                assert trk.time_since_update <= tracker.params.max_age
        assert tracker.tracks == []

    def test_confirmed_have_enough_hits_after_warmup(self):
        scenario = ScenarioSpec(
            camera=BIG_CAMERA, actors=lateral_fleet(2, spacing=8.0), duration=2.0
        )
        tracker = Tracker()
        for frame in generate_detections(scenario):
            for trk in tracker.step(frame):
                if frame.frame_id >= tracker.params.min_hits:
                    assert trk.hits >= tracker.params.min_hits
                assert trk.time_since_update == 0

    def test_deterministic(self):
        scenario = ScenarioSpec(
            camera=BIG_CAMERA,
            actors=lateral_fleet(3, spacing=6.0),
            duration=2.0,
            bbox_noise_sigma=0.01,
            seed=5,
        )
        frames = generate_detections(scenario)

        def run_once():
            tracker = Tracker()
            out = []
            for frame in frames:
                out.append([(t.id, t.box()) for t in tracker.step(frame)])
            return out

        assert run_once() == run_once()

    def test_window_grows_only_on_matched_updates(self):
        tracker = Tracker(TrackerParams(max_age=5, min_hits=1))
        tracker.step(FrameRecord(frame_id=0, t=0.0, detections=[det((0, 0, 10, 10))]))
        trk = tracker.tracks[0]
        assert len(trk.window) == 1
        tracker.step(FrameRecord(frame_id=1, t=1 / 24, detections=[]))
        assert len(trk.window) == 1  # predicted-only frames add no samples
        tracker.step(
            FrameRecord(frame_id=2, t=2 / 24, detections=[det((0, 0, 10, 10), t=2 / 24)])
        )
        assert len(trk.window) == 2


@st.composite
def frame_stream(draw):
    """A few actors seen or missed per frame with jittered boxes, at uneven dt."""
    actors = draw(st.lists(
        st.tuples(
            st.floats(0, 100), st.floats(0, 100), st.floats(1, 40), st.floats(1, 40),
            st.sampled_from(("vehicle", "pedestrian", "sign")),
        ),
        min_size=1, max_size=4,
    ))
    shift, scale = st.floats(-3.0, 3.0), st.floats(0.9, 1.1)
    t = draw(st.floats(-100.0, 100.0))
    frames = []
    for k in range(draw(st.integers(1, 40))):
        t += draw(st.floats(1e-3, 0.5))
        detections = []
        for x, y, w, h, kind in actors:
            if draw(st.integers(0, 3)):  # seen in three frames of four
                x, y = x + draw(shift), y + draw(shift)
                box = (x, y, x + w * draw(scale), y + h * draw(scale))
                confidence = draw(st.sampled_from((0.2, 0.9, 1.0)))
                detections.append(det(box, kind, t, k, confidence))
        frames.append(FrameRecord(k, t, detections))
    return frames


@settings(max_examples=100, deadline=None)
@given(frame_stream(), st.integers(0, 3), st.integers(1, 3), st.integers(2, 6))
def test_step_keeps_window_invariants(frames, max_age, min_hits, capacity):
    tracker = Tracker(
        TrackerParams(max_age=max_age, min_hits=min_hits),
        RegressionParams(size_window_len=2, center_window_len=capacity),
    )
    for frame in frames:
        before = {trk.id: trk.window[-1] for trk in tracker.tracks}
        tracker.step(frame)
        offered = Counter(
            Sample(d.t, d.height, d.width, d.center_x, d.bottom_y)
            for d in frame.detections
            if d.kind in ROAD_USER_KINDS and d.confidence >= tracker.params.confidence_min
        )
        matched = Counter()
        for trk in tracker.tracks:
            window = list(trk.window)
            assert 1 <= len(window) <= capacity
            assert all(a.t < b.t for a, b in zip(window, window[1:]))
            assert all(s.h > 0 and s.w > 0 for s in window)
            if trk.time_since_update == 0:
                matched[window[-1]] += 1
            else:
                assert window[-1] == before[trk.id]
        # each matched or newborn track's newest sample is its own detection of this frame
        assert not matched - offered


def _actor_to_track_map(scenario):
    """Map each actor to the set of track ids it was covered by."""
    tracker = Tracker()
    assignments = {}
    for frame in generate_detections(scenario):
        confirmed = tracker.step(frame)
        for trk in confirmed:
            best_actor, best_iou = None, 0.0
            for i, actor in enumerate(scenario.actors):
                truth = project_actor(actor, frame.t, scenario.camera)
                if truth is None:
                    continue
                overlap = iou(trk.box(), truth.box)
                if overlap > best_iou:
                    best_actor, best_iou = i, overlap
            assert best_actor is not None and best_iou > 0.3
            assignments.setdefault(best_actor, set()).add(trk.id)
    return assignments
