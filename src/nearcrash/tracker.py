"""SORT-style online multi-object tracker.

Constant-velocity Kalman filtering on (center, area, aspect) box state,
optimal IoU assignment between predicted boxes and detections, and a
hit/age lifecycle. Only vehicles and pedestrians above the confidence
threshold are tracked; cross-class matches are never allowed.

Prediction steps use the real inter-frame dt from the capture timestamps
because frame intervals are not assumed uniform.

A track's window is a `ttc.SampleWindow` of its raw detection samples,
each timed by its frame's clock, shaped by `RegressionParams`: it keeps
enough samples for both fits and the running sums of the size fit. A
`Detection` has a positive-size box, and `step` rejects a frame whose time
is not finite or not after the previous one and matches a track at most
once, so times increase.

SORT's noise is diagonal, so the 7x7 covariance of [u, v, s, r, du, dv, ds]
stays block-diagonal: the filter runs as three independent (value, rate)
filters for u, v and s and a scalar one for r, on plain floats. Each step
is written out axis by axis, with no loop or per-axis lookup; the float
operations are those of one loop over the axes, in the same order.

Association maximizes the total same-class IoU and takes one of three exact
paths, chosen by the shape and values of the score matrix:
- one side holds a single box: the optimum is the first best same-class
  pair, scored with the scalar `iou` (equal to `iou_matrix` bit for bit);
- otherwise all pairs are scored in one numpy broadcast, and when each row
  with a positive maximum holds it once, in a column no other such row
  takes, pairing rows with their best columns reaches the upper bound
  sum_i max_j score[i, j] and is the unique optimum (tried on the matrix,
  then on its transpose);
- any other matrix goes to `solve_assignment`, a pure-Python port of
  Crouse's shortest augmenting path, the algorithm of SciPy's
  `linear_sum_assignment`.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import RegressionParams, TrackerParams
from .streams import ROAD_USER_KINDS, Box, Detection, FrameRecord
from .ttc import Sample, SampleWindow


class NonMonotonicFrameError(ValueError):
    """A frame arrived with a timestamp not finite or not after the previous frame."""


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
    ax1, ay1, ax2, ay2 = _corners(boxes_a).T[:, :, None]
    bx1, by1, bx2, by2 = _corners(boxes_b).T[:, None, :]
    w = np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
    h = np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1))
    inter = w * h
    return inter / ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)


def _corners(boxes: Sequence[Box]) -> np.ndarray:
    # the same float values as np.array(boxes), at about half its cost
    return np.fromiter(chain.from_iterable(boxes), float, 4 * len(boxes)).reshape(-1, 4)


def box_to_obs(box: Box) -> Tuple[float, float, float, float]:
    """Box corners -> (center_x, center_y, area, aspect) observation."""
    w = box[2] - box[0]
    h = box[3] - box[1]
    return (box[0] + w / 2.0, box[1] + h / 2.0, w * h, w / h)


def obs_to_box(u: float, v: float, s: float, r: float) -> Box:
    """(center_x, center_y, area, aspect) -> box corners."""
    s = _AREA_FLOOR if _AREA_FLOOR > s else s
    w = math.sqrt(s * (_ASPECT_FLOOR if _ASPECT_FLOOR > r else r))
    half_w, half_h = w / 2.0, s / w / 2.0
    return (u - half_w, v - half_h, u + half_w, v + half_h)


# a floor is applied as `floor if floor > value else value`: max(value, floor)
# exactly, NaN included, without the call
_AREA_FLOOR = 1e-4
_ASPECT_FLOOR = 1e-4

# SORT's diagonal noise (Bewley et al. 2016): initial variance of a value and
# of a rate, process noise per second of a value and of the u, v, s rates, and
# measurement noise of u, v, s, r
_P0_VALUE, _P0_RATE = 10.0, 10000.0
_Q_VALUE, _Q_RATE_U, _Q_RATE_V, _Q_RATE_S = 1.0, 0.01, 0.01, 0.0001
_R_U, _R_V, _R_S, _R_R = 1.0, 1.0, 10.0, 10.0


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
        if not 0.0 <= dt < math.inf:  # NaN fails both comparisons
            raise ValueError(f"dt must be finite and >= 0, got {dt}")
        u, v, s, r, du, dv, ds = self.x
        (uvv, uvr, urr), (vvv, vvr, vrr), (svv, svr, srr) = self.P
        # per axis, F P F^T + Q dt for F = [[1, dt], [0, 1]]
        q = _Q_VALUE * dt
        u_cov = uvr + dt * urr
        v_cov = vvr + dt * vrr
        s_cov = svr + dt * srr
        self.P = [
            (uvv + dt * (uvr + u_cov) + q, u_cov, urr + _Q_RATE_U * dt),
            (vvv + dt * (vvr + v_cov) + q, v_cov, vrr + _Q_RATE_V * dt),
            (svv + dt * (svr + s_cov) + q, s_cov, srr + _Q_RATE_S * dt),
        ]
        self.p_r += q
        u += dt * du
        v += dt * dv
        s += dt * ds
        s = _AREA_FLOOR if _AREA_FLOOR > s else s
        self.x = [u, v, s, r, du, dv, ds]
        return obs_to_box(u, v, s, r)

    def update(self, box: Box) -> None:
        u, v, s, r, du, dv, ds = self.x
        (uvv, uvr, urr), (vvv, vvr, vrr), (svv, svr, srr) = self.P
        zu, zv, zs, zr = box_to_obs(box)
        # per axis, the gains of value and rate, then the innovation
        u_den, v_den, s_den = uvv + _R_U, vvv + _R_V, svv + _R_S
        u_k, u_kr, u_y = uvv / u_den, uvr / u_den, zu - u
        v_k, v_kr, v_y = vvv / v_den, vvr / v_den, zv - v
        s_k, s_kr, s_y = svv / s_den, svr / s_den, zs - s
        u_keep, v_keep, s_keep = 1.0 - u_k, 1.0 - v_k, 1.0 - s_k
        self.P = [
            (u_keep * uvv, u_keep * uvr, urr - u_kr * uvr),
            (v_keep * vvv, v_keep * vvr, vrr - v_kr * vvr),
            (s_keep * svv, s_keep * svr, srr - s_kr * svr),
        ]
        p_r = self.p_r
        r_k = p_r / (p_r + _R_R)
        r += r_k * (zr - r)
        self.p_r = p_r * (1.0 - r_k)
        s += s_k * s_y
        self.x = [
            u + u_k * u_y,
            v + v_k * v_y,
            _AREA_FLOOR if _AREA_FLOOR > s else s,
            _ASPECT_FLOOR if _ASPECT_FLOOR > r else r,
            du + u_kr * u_y,
            dv + v_kr * v_y,
            ds + s_kr * s_y,
        ]

    def box(self) -> Box:
        return obs_to_box(self.x[0], self.x[1], self.x[2], self.x[3])


class Track:
    """One persistent identity with filter state and a sample window."""

    def __init__(
        self,
        track_id: int,
        detection: Detection,
        t: float,  # the frame's time
        regression: RegressionParams = RegressionParams(),
    ):
        self.id = track_id
        self.kind = detection.kind
        self.kf = KalmanBoxFilter(detection.box)
        self.hits = 1
        self.time_since_update = 0
        self.last_trigger: Optional[float] = None  # set by RuleEngine.decide
        self.window = SampleWindow(regression.window_capacity, regression.size_window_len)
        self._append_sample(detection, t)

    def predict(self, dt: float) -> Box:
        self.time_since_update += 1
        return self.kf.predict(dt)

    def update(self, detection: Detection, t: float) -> None:
        self.kf.update(detection.box)
        self.hits += 1
        self.time_since_update = 0
        self._append_sample(detection, t)

    def _append_sample(self, det: Detection, t: float) -> None:
        # windows hold the raw detection measurements, not filter output,
        # so the regressions stay independent of filter tuning
        x1, y1, x2, y2 = det.box
        self.window.append(Sample(t, y2 - y1, x2 - x1, (x1 + x2) / 2.0, y2))

    def box(self) -> Box:
        return self.kf.box()


def solve_assignment(score: np.ndarray) -> List[Tuple[int, int]]:
    """Globally optimal assignment maximizing the total score, pairs by row.

    Crouse's rectangular shortest augmenting path (IEEE TAES 2016), the
    algorithm of SciPy's linear_sum_assignment, with the same tie-breaking:
    it minimizes the negated scores, one row at a time, and solves a matrix
    with more rows than columns transposed.
    """
    score = np.asarray(score, dtype=float)
    if score.ndim != 2 or not np.isfinite(score).all():
        raise ValueError("score must be a finite 2-d matrix")
    transpose = score.shape[0] > score.shape[1]
    cost = (-score.T if transpose else -score).tolist()
    if not cost:
        return []
    n_rows, n_cols = len(cost), len(cost[0])
    u, v = [0.0] * n_rows, [0.0] * n_cols
    path, col4row, row4col = [-1] * n_cols, [-1] * n_rows, [-1] * n_cols
    for cur in range(n_rows):
        # Dijkstra over the reduced costs, from row cur to an unassigned column
        dist = [math.inf] * n_cols
        seen_rows, seen_cols = [], []
        remaining = list(range(n_cols - 1, -1, -1))  # reversed, as SciPy's
        min_val, i, sink = 0.0, cur, -1
        while sink < 0:
            seen_rows.append(i)
            row, u_i = cost[i], u[i]
            index, lowest = -1, math.inf
            for k, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < dist[j]:
                    path[j], dist[j] = i, r
                # on a tie, prefer a column that ends the path
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] < 0):
                    lowest, index = dist[j], k
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - dist[j]
        j = sink
        while True:  # augment along the path back to row cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        return sorted((c, r) for r, c in enumerate(col4row))
    return list(enumerate(col4row))


def _dominant_matches(score: np.ndarray, iou_min: float) -> Optional[List[Tuple[int, int]]]:
    """Each row's best column, kept if >= iou_min, when that is the optimum.

    When every row with a positive maximum holds it once and those best
    columns are distinct, pairing each row with its best column reaches the
    bound sum_i max_j score[i, j], so it is the unique optimum up to zero
    pairs. Returns None when the rule does not apply. Scores must be >= 0.
    """
    n_rows, n_cols = score.shape
    best = score.argmax(axis=1)
    top = score[np.arange(n_rows), best]
    n_positive = np.count_nonzero(top)
    # a row whose maximum is 0 is all zeros and equals it n_cols times
    ties = np.count_nonzero(score == top[:, None])
    if ties != n_positive + (n_rows - n_positive) * n_cols:
        return None
    best_top = list(zip(best.tolist(), top.tolist()))
    taken = [j for j, s in best_top if s > 0.0]
    if len(set(taken)) < len(taken):
        return None
    return [(i, j) for i, (j, s) in enumerate(best_top) if s >= iou_min]


def associate(
    predicted: Sequence[Box],
    detections: Sequence[Detection],
    iou_min: float,
    predicted_kinds: Optional[Sequence[str]] = None,
) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """Match predicted track boxes to detections by maximum total IoU.

    Pairs whose IoU falls below iou_min are demoted to unmatched, and
    cross-class pairs are never matched. Returns (matches,
    unmatched_track_indices, unmatched_detection_indices), matches by
    track index.
    """
    if not (0.0 < iou_min < 1.0):
        raise ValueError(f"iou_min must be in (0, 1), got {iou_min}")
    n_t, n_d = len(predicted), len(detections)
    if n_t == 1 or n_d == 1:
        matches = _best_pair(predicted, detections, iou_min, predicted_kinds)
    elif n_t and n_d:
        matches = _optimal_matches(predicted, detections, iou_min, predicted_kinds)
    else:
        matches = []
    matched_t, matched_d = {i for i, _ in matches}, {j for _, j in matches}
    unmatched_t = [i for i in range(n_t) if i not in matched_t]
    unmatched_d = [j for j in range(n_d) if j not in matched_d]
    return matches, unmatched_t, unmatched_d


def _best_pair(predicted, detections, iou_min, predicted_kinds):
    # one side has a single box: the optimum is the first best same-class pair
    best, pair = 0.0, None
    for i, box in enumerate(predicted):
        kind = None if predicted_kinds is None else predicted_kinds[i]
        for j, det in enumerate(detections):
            if kind is None or kind == det.kind:
                overlap = iou(box, det.box)
                if overlap > best:
                    best, pair = overlap, (i, j)
    return [pair] if best >= iou_min else []


def _optimal_matches(predicted, detections, iou_min, predicted_kinds):
    score = iou_matrix(predicted, [det.box for det in detections])
    if predicted_kinds is not None:
        det_kinds = [det.kind for det in detections]
        # kind -> int, so the mask compares numbers; one kind needs no mask
        codes = {k: n for n, k in enumerate(set(predicted_kinds).union(det_kinds))}
        if len(codes) > 1:
            track_kind = np.array([codes[k] for k in predicted_kinds])
            det_kind = np.array([codes[k] for k in det_kinds])
            score[track_kind[:, None] != det_kind[None, :]] = 0.0
    matches = _dominant_matches(score, iou_min)
    if matches is not None:
        return matches
    by_detection = _dominant_matches(score.T, iou_min)
    if by_detection is not None:
        return sorted((i, j) for j, i in by_detection)
    return [(i, j) for i, j in solve_assignment(score) if score[i, j] >= iou_min]


class Tracker:
    """Stateful per-frame tracker; call step() with frames in time order."""

    def __init__(
        self,
        params: TrackerParams = TrackerParams(),
        regression: RegressionParams = RegressionParams(),
    ):
        self.params = params
        self.regression = regression
        self.tracks: List[Track] = []
        self._next_id = 1
        self._last_t: Optional[float] = None
        self._frames_seen = 0

    def step(self, frame: FrameRecord) -> List[Track]:
        """Advance one frame; returns the confirmed tracks updated this frame."""
        if not math.isfinite(frame.t):
            raise NonMonotonicFrameError(f"frame t={frame.t} is not finite")
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
            self.tracks[ti].update(detections[dj], frame.t)
        for dj in unmatched_d:
            self.tracks.append(
                Track(self._next_id, detections[dj], frame.t, self.regression)
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
