"""SORT-style online multi-object tracker.

Constant-velocity Kalman filtering on (center, area, aspect) box state,
optimal IoU assignment between predicted boxes and detections, and a
hit/age lifecycle. Only vehicles and pedestrians above the confidence
threshold are tracked; cross-class matches are never allowed.

Prediction steps use the real inter-frame dt from the capture timestamps
because frame intervals are not assumed uniform.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .config import EngineConfig, TrackerParams
from .streams import ROAD_USER_KINDS, Box, Detection, FrameRecord
from .ttc import Sample, SampleWindow


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


def box_to_obs(box: Box) -> np.ndarray:
    """Box corners -> (center_x, center_y, area, aspect) observation."""
    w = box[2] - box[0]
    h = box[3] - box[1]
    return np.array([box[0] + w / 2.0, box[1] + h / 2.0, w * h, w / h])


def obs_to_box(u: float, v: float, s: float, r: float) -> Box:
    """(center_x, center_y, area, aspect) -> box corners."""
    w = np.sqrt(max(s, _AREA_FLOOR) * max(r, _ASPECT_FLOOR))
    h = max(s, _AREA_FLOOR) / w
    return (u - w / 2.0, v - h / 2.0, u + w / 2.0, v + h / 2.0)


_AREA_FLOOR = 1e-4
_ASPECT_FLOOR = 1e-4
_WINDOW_CAPACITY = EngineConfig().window_capacity

# SORT's noise scales (Bewley et al. 2016): initial covariance, measurement
# noise and process noise, the last scaled by dt
_P0 = np.diag([10.0] * 4 + [10000.0] * 3)
_R = np.diag([1.0] * 2 + [10.0] * 2)
_Q = np.diag([1.0] * 4 + [0.01] * 2 + [0.0001])
_H = np.eye(4, 7)


class KalmanBoxFilter:
    """Constant-velocity filter on [u, v, s, r, du, dv, ds].

    The aspect ratio r carries no velocity and only moves on updates.
    """

    def __init__(self, box: Box):
        self.x = np.zeros(7)
        self.x[:4] = box_to_obs(box)
        self.P = _P0.copy()

    def predict(self, dt: float) -> Box:
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        if dt > 0:
            F = np.eye(7)
            F[0, 4] = F[1, 5] = F[2, 6] = dt
            self.x = F @ self.x
            self.P = F @ self.P @ F.T + _Q * dt
        self.x[2] = max(self.x[2], _AREA_FLOOR)
        return self.box()

    def update(self, box: Box) -> None:
        z = box_to_obs(box)
        y = z - _H @ self.x
        S = _H @ self.P @ _H.T + _R
        K = self.P @ _H.T @ np.linalg.inv(S)
        self.x = self.x + K @ y
        self.P = (np.eye(7) - K @ _H) @ self.P
        self.x[2] = max(self.x[2], _AREA_FLOOR)
        self.x[3] = max(self.x[3], _ASPECT_FLOOR)

    def box(self) -> Box:
        return obs_to_box(self.x[0], self.x[1], self.x[2], self.x[3])


class Track:
    """One persistent identity with filter state and a sample window."""

    def __init__(
        self,
        track_id: int,
        detection: Detection,
        window_capacity: int = _WINDOW_CAPACITY,
    ):
        self.id = track_id
        self.kind = detection.kind
        self.kf = KalmanBoxFilter(detection.box)
        self.hits = 1
        self.age = 0
        self.time_since_update = 0
        self.last_trigger: Optional[float] = None  # set by RuleEngine.decide
        self.window = SampleWindow(window_capacity)
        self._append_sample(detection)

    def predict(self, dt: float) -> Box:
        self.age += 1
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
    if score.size == 0:
        return []
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
    score = np.zeros((len(predicted), len(detections)))
    for i, pbox in enumerate(predicted):
        for j, det in enumerate(detections):
            if predicted_kinds is not None and predicted_kinds[i] != det.kind:
                continue
            score[i, j] = iou(pbox, det.box)
    matches = []
    matched_t, matched_d = set(), set()
    for i, j in solve_assignment(score):
        if score[i, j] < iou_min:
            continue
        matches.append((i, j))
        matched_t.add(i)
        matched_d.add(j)
    unmatched_t = [i for i in range(len(predicted)) if i not in matched_t]
    unmatched_d = [j for j in range(len(detections)) if j not in matched_d]
    return matches, unmatched_t, unmatched_d


class Tracker:
    """Stateful per-frame tracker; call step() with frames in time order."""

    def __init__(
        self,
        confidence_min: float = TrackerParams.confidence_min,
        iou_min: float = TrackerParams.iou_min,
        max_age: int = TrackerParams.max_age,
        min_hits: int = TrackerParams.min_hits,
        window_capacity: int = _WINDOW_CAPACITY,
    ):
        self.confidence_min = confidence_min
        self.iou_min = iou_min
        self.max_age = max_age
        self.min_hits = min_hits
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
            if d.kind in ROAD_USER_KINDS and d.confidence >= self.confidence_min
        ]

        predicted = [trk.predict(dt) for trk in self.tracks]
        kinds = [trk.kind for trk in self.tracks]
        matches, _, unmatched_d = associate(
            predicted, detections, self.iou_min, predicted_kinds=kinds
        )
        for ti, dj in matches:
            self.tracks[ti].update(detections[dj])
        for dj in unmatched_d:
            self.tracks.append(
                Track(self._next_id, detections[dj], self.window_capacity)
            )
            self._next_id += 1

        self.tracks = [
            trk for trk in self.tracks if trk.time_since_update <= self.max_age
        ]
        return [trk for trk in self.tracks if self._confirmed(trk)]

    def _confirmed(self, trk: Track) -> bool:
        # sequence-level warm-up, so short streams still produce output
        if trk.time_since_update != 0:
            return False
        return trk.hits >= self.min_hits or self._frames_seen <= self.min_hits
