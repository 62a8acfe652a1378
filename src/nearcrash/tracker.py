"""SORT-style online multi-object tracker.

Constant-velocity Kalman filtering on (center, area, aspect) box state,
optimal IoU assignment between predicted boxes and detections, and a
hit/age lifecycle. Only vehicles and pedestrians above the confidence
threshold are tracked; cross-class matches are never allowed.

Prediction steps use the real inter-frame dt from the capture timestamps
because frame intervals are not assumed uniform.

A track's window is a bounded deque of its raw detection samples. A
`Detection` has a positive-size box, and `step` rejects a frame not after
the previous one and matches a track at most once, so times increase.

SORT's noise is diagonal, so the 7x7 covariance of [u, v, s, r, du, dv, ds]
stays block-diagonal: the filter runs as three independent (value, rate)
filters for u, v and s and a scalar one for r, on plain floats. Association
scores all track-detection pairs in one numpy broadcast.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .config import EngineConfig, TrackerParams
from .streams import ROAD_USER_KINDS, Box, Detection, FrameRecord
from .ttc import Sample


class NonMonotonicFrameError(ValueError):
    """A frame arrived with a timestamp not after the previous frame."""


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two (x1, y1, x2, y2) boxes."""
    xx1 = max(a[0], b[0])
    yy1 = max(a[1], b[1])
    xx2 = min(a[2], b[2])
    yy2 = min(a[3], b[3])
    inter = max(0.0, xx2 - xx1) * max(0.0, yy2 - yy1)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def iou_matrix(boxes_a: Sequence[Box], boxes_b: Sequence[Box]) -> np.ndarray:
    """IoU of every pair of positive-area boxes, each equal to iou() bit for bit."""
    ax1, ay1, ax2, ay2 = np.array(boxes_a, dtype=float).T[:, :, None]
    bx1, by1, bx2, by2 = np.array(boxes_b, dtype=float).T[:, None, :]
    w = np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
    h = np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1))
    inter = w * h
    return inter / ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)


def box_to_obs(box: Box) -> Tuple[float, float, float, float]:
    """Box corners -> (center_x, center_y, area, aspect) observation."""
    w = box[2] - box[0]
    h = box[3] - box[1]
    return (box[0] + w / 2.0, box[1] + h / 2.0, w * h, w / h)


def obs_to_box(u: float, v: float, s: float, r: float) -> Box:
    """(center_x, center_y, area, aspect) -> box corners."""
    w = math.sqrt(max(s, _AREA_FLOOR) * max(r, _ASPECT_FLOOR))
    h = max(s, _AREA_FLOOR) / w
    return (u - w / 2.0, v - h / 2.0, u + w / 2.0, v + h / 2.0)


_AREA_FLOOR = 1e-4
_ASPECT_FLOOR = 1e-4
_WINDOW_CAPACITY = EngineConfig().window_capacity

# SORT's diagonal noise (Bewley et al. 2016): initial variance of a value and
# of a rate, process noise per second of a value and of the u, v, s rates, and
# measurement noise of u, v, s, r
_P0_VALUE, _P0_RATE = 10.0, 10000.0
_Q_VALUE, _Q_RATE = 1.0, (0.01, 0.01, 0.0001)
_R = (1.0, 1.0, 10.0, 10.0)


class KalmanBoxFilter:
    """Constant-velocity filter on x = [u, v, s, r, du, dv, ds], run per axis.

    P[i] is the (value variance, covariance, rate variance) of u, v or s;
    p_r is the variance of r, which has no rate and moves only on updates.
    """

    def __init__(self, box: Box):
        self.x = [*box_to_obs(box), 0.0, 0.0, 0.0]
        self.P = [(_P0_VALUE, 0.0, _P0_RATE)] * 3
        self.p_r = _P0_VALUE

    def predict(self, dt: float) -> Box:
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        x, P = self.x, self.P
        for i, (pvv, pvr, prr) in enumerate(P):
            x[i] += dt * x[i + 4]
            cov = pvr + dt * prr  # F P F^T for F = [[1, dt], [0, 1]], plus Q dt
            P[i] = (pvv + dt * (pvr + cov) + _Q_VALUE * dt, cov, prr + _Q_RATE[i] * dt)
        self.p_r += _Q_VALUE * dt
        x[2] = max(x[2], _AREA_FLOOR)
        return self.box()

    def update(self, box: Box) -> None:
        x, P, z = self.x, self.P, box_to_obs(box)
        for i, (pvv, pvr, prr) in enumerate(P):
            k_value, k_rate = pvv / (pvv + _R[i]), pvr / (pvv + _R[i])
            y = z[i] - x[i]
            x[i] += k_value * y
            x[i + 4] += k_rate * y
            P[i] = ((1.0 - k_value) * pvv, (1.0 - k_value) * pvr, prr - k_rate * pvr)
        k_r = self.p_r / (self.p_r + _R[3])
        x[3] += k_r * (z[3] - x[3])
        self.p_r *= 1.0 - k_r
        x[2] = max(x[2], _AREA_FLOOR)
        x[3] = max(x[3], _ASPECT_FLOOR)

    def box(self) -> Box:
        return obs_to_box(self.x[0], self.x[1], self.x[2], self.x[3])


class Track:
    """One persistent identity with filter state and a sample window."""

    def __init__(
        self, track_id: int, detection: Detection, window_capacity: int = _WINDOW_CAPACITY
    ):
        self.id = track_id
        self.kind = detection.kind
        self.kf = KalmanBoxFilter(detection.box)
        self.hits = 1
        self.time_since_update = 0
        self.last_trigger: Optional[float] = None  # set by RuleEngine.decide
        self.window: Deque[Sample] = deque(maxlen=window_capacity)
        self._append_sample(detection)

    def predict(self, dt: float) -> Box:
        self.time_since_update += 1
        return self.kf.predict(dt)

    def update(self, detection: Detection) -> None:
        self.kf.update(detection.box)
        self.hits += 1
        self.time_since_update = 0
        self._append_sample(detection)

    def _append_sample(self, det: Detection) -> None:
        # windows hold the raw detection measurements, not filter output,
        # so the regressions stay independent of filter tuning
        self.window.append(
            Sample(t=det.t, h=det.height, w=det.width, cx=det.center_x, by=det.bottom_y)
        )

    def box(self) -> Box:
        return self.kf.box()


def solve_assignment(score: np.ndarray) -> List[Tuple[int, int]]:
    """Globally optimal assignment maximizing the total score."""
    rows, cols = linear_sum_assignment(score, maximize=True)
    return list(zip(rows.tolist(), cols.tolist()))


def associate(
    predicted: Sequence[Box],
    detections: Sequence[Detection],
    iou_min: float,
    predicted_kinds: Optional[Sequence[str]] = None,
) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """Match predicted track boxes to detections by maximum total IoU.

    Pairs whose IoU falls below iou_min are demoted to unmatched, and
    cross-class pairs are never matched. Returns (matches,
    unmatched_track_indices, unmatched_detection_indices).
    """
    if not (0.0 < iou_min < 1.0):
        raise ValueError(f"iou_min must be in (0, 1), got {iou_min}")
    if not predicted or not detections:
        return [], list(range(len(predicted))), list(range(len(detections)))
    score = iou_matrix(predicted, [det.box for det in detections])
    if predicted_kinds is not None:
        codes = {}  # kind -> int, so the mask compares numbers
        track_kind = np.array([codes.setdefault(k, len(codes)) for k in predicted_kinds])
        det_kind = np.array([codes.setdefault(d.kind, len(codes)) for d in detections])
        score[track_kind[:, None] != det_kind[None, :]] = 0.0
    matches = [(i, j) for i, j in solve_assignment(score) if score[i, j] >= iou_min]
    matched_t, matched_d = {i for i, _ in matches}, {j for _, j in matches}
    unmatched_t = [i for i in range(len(predicted)) if i not in matched_t]
    unmatched_d = [j for j in range(len(detections)) if j not in matched_d]
    return matches, unmatched_t, unmatched_d


class Tracker:
    """Stateful per-frame tracker; call step() with frames in time order."""

    def __init__(
        self, params: TrackerParams = TrackerParams(), window_capacity: int = _WINDOW_CAPACITY
    ):
        self.params = params
        self.window_capacity = window_capacity
        self.tracks: List[Track] = []
        self._next_id = 1
        self._last_t: Optional[float] = None
        self._frames_seen = 0

    def step(self, frame: FrameRecord) -> List[Track]:
        """Advance one frame; returns the confirmed tracks updated this frame."""
        if self._last_t is not None and frame.t <= self._last_t:
            raise NonMonotonicFrameError(
                f"frame t={frame.t} not after previous t={self._last_t}"
            )
        dt = 0.0 if self._last_t is None else frame.t - self._last_t
        self._last_t = frame.t
        self._frames_seen += 1

        detections = [
            d
            for d in frame.detections
            if d.kind in ROAD_USER_KINDS and d.confidence >= self.params.confidence_min
        ]

        predicted = [trk.predict(dt) for trk in self.tracks]
        kinds = [trk.kind for trk in self.tracks]
        matches, _, unmatched_d = associate(
            predicted, detections, self.params.iou_min, predicted_kinds=kinds
        )
        for ti, dj in matches:
            self.tracks[ti].update(detections[dj])
        for dj in unmatched_d:
            self.tracks.append(
                Track(self._next_id, detections[dj], self.window_capacity)
            )
            self._next_id += 1

        self.tracks = [
            trk for trk in self.tracks if trk.time_since_update <= self.params.max_age
        ]
        return [trk for trk in self.tracks if self._confirmed(trk)]

    def _confirmed(self, trk: Track) -> bool:
        # sequence-level warm-up, so short streams still produce output
        if trk.time_since_update != 0:
            return False
        return trk.hits >= self.params.min_hits or self._frames_seen <= self.params.min_hits
