"""Sliding-window regressions over per-track box samples.

Height and width slopes give time-to-collision without any camera
intrinsics: TTC is the ratio of box size to size-change rate, and the
focal length cancels out of that ratio. The horizontal-center slope gives
the drift rate of the target across the frame.

A window is a `SampleWindow`: a bounded deque of `Sample` tuples, newest
last, with positive sizes and strictly increasing times (the tracker
guarantees both). Times are used as-is, so non-uniform frame intervals do
not distort the slopes. The size fit runs on every confirmed track-frame,
so the window keeps running least-squares sums of it and `ttc_from_window`
costs O(1). The motion fit runs only where the size rule passes; it is
computed on demand, in two passes over the window's newest samples, as is
`fit_slope`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Optional, Sequence, Tuple

from .config import FrameGeometry


class DegenerateFitError(ValueError):
    """Raised when a regression has fewer than two samples or no time spread."""


class Sample(NamedTuple):
    """Box measurements for one matched frame of one track."""

    t: float
    h: float
    w: float
    cx: float
    by: float


class SampleWindow(deque):
    """A track's newest `capacity` samples, with the sums of its size fit.

    `append` keeps the least-squares sums of t, t^2, h, t*h, w and t*w over
    the newest `size_window_len` samples: it adds the new sample's terms
    and takes away those of the sample leaving that span. Each term is
    measured from an anchor sample, so t^2 does not cancel at epoch-scale
    clocks. Every `size_window_len` appends the sums are rebuilt from the
    samples, anchored at the newest: the anchor stays inside the summed
    span, however uneven the frame intervals, rounding cannot build up over
    a long track, and the cost stays O(1) amortised. Add samples with
    `append` only.
    """

    __slots__ = ("size_window_len", "anchor", "sums", "_countdown")

    def __init__(self, capacity: int, size_window_len: int):
        if not 2 <= size_window_len <= capacity:
            raise ValueError(
                f"need 2 <= size_window_len <= capacity, got {size_window_len} and {capacity}"
            )
        super().__init__(maxlen=capacity)
        self.size_window_len = size_window_len
        self.anchor = (0.0, 0.0, 0.0)  # the t, h and w the sums are measured from
        self.sums = (0.0,) * 6
        self._countdown = 1  # appends until the next rebuild; the first sample anchors

    def append(self, sample: Sample) -> None:
        n = self.size_window_len
        leaving = self[-n] if len(self) >= n else None
        super().append(sample)
        self._countdown -= 1
        if not self._countdown:
            self._rebuild()
            return
        t0, h0, w0 = self.anchor
        t, h, w = sample.t - t0, sample.h - h0, sample.w - w0
        st, stt, sh, sth, sw, stw = self.sums
        if leaving is not None:
            lt, lh, lw = leaving.t - t0, leaving.h - h0, leaving.w - w0
            st, stt, sh, sth, sw, stw = (
                st - lt, stt - lt * lt, sh - lh, sth - lt * lh, sw - lw, stw - lt * lw
            )
        self.sums = (st + t, stt + t * t, sh + h, sth + t * h, sw + w, stw + t * w)

    def _rebuild(self) -> None:
        newest = self[-1]
        t0, h0, w0 = self.anchor = newest.t, newest.h, newest.w
        st = stt = sh = sth = sw = stw = 0.0
        for s in islice(self, max(0, len(self) - self.size_window_len), None):
            t, h, w = s.t - t0, s.h - h0, s.w - w0
            st, stt, sh, sth, sw, stw = (
                st + t, stt + t * t, sh + h, sth + t * h, sw + w, stw + t * w
            )
        self.sums = (st, stt, sh, sth, sw, stw)
        self._countdown = self.size_window_len


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    n: int
    fitted_latest: float
    t_mean: float
    value_mean: float
    t_latest: float


def _ols(ts: Sequence[float], vs: Sequence[float]) -> Tuple[float, float, float]:
    """Least squares of vs on ts, in two passes: t_mean, the slope and v_mean."""
    n = len(ts)
    if n < 2:
        raise DegenerateFitError(f"need >= 2 samples, got {n}")
    t_mean = sum(ts) / n
    dts = [t - t_mean for t in ts]
    sxx = sum([d ** 2 for d in dts])
    if sxx == 0.0:
        raise DegenerateFitError("all samples share one timestamp")
    v_mean = sum(vs) / n
    return t_mean, sum([d * (v - v_mean) for d, v in zip(dts, vs)]) / sxx, v_mean


def fit_slope(points: Sequence[Tuple[float, float]]) -> RegressionResult:
    """Ordinary least squares over (t, value) points.

    Raises DegenerateFitError for fewer than two points or zero time
    variance.
    """
    ts = [t for t, _ in points]
    t_mean, slope, v_mean = _ols(ts, [v for _, v in points])
    intercept = v_mean - slope * t_mean
    return RegressionResult(
        slope=slope, n=len(ts), fitted_latest=intercept + slope * ts[-1],
        t_mean=t_mean, value_mean=v_mean, t_latest=ts[-1],
    )


@dataclass(frozen=True)
class TtcEstimate:
    """Height- and width-based TTC in seconds; positive means approaching.

    A value of None means the corresponding size is not changing fast
    enough to divide by.
    """

    ttc_h: Optional[float]
    ttc_w: Optional[float]


SLOPE_EPSILON = 1e-3  # slopes smaller than this give no TTC


def ttc_from_window(window: SampleWindow, size_window_len: int) -> Optional[TtcEstimate]:
    """TTC from the newest size_window_len samples, None while warming up."""
    if size_window_len != window.size_window_len:
        raise ValueError(
            f"the window sums {window.size_window_len} samples, not {size_window_len}"
        )
    if len(window) < size_window_len:
        return None
    st, stt, sh, sth, sw, stw = window.sums
    t0, h0, w0 = window.anchor
    t_mean = st / size_window_len  # from t0, as are the sums
    sxx = stt - st * t_mean
    if sxx <= 0.0:
        raise DegenerateFitError("all samples share one timestamp")
    # The fitted size and rate are most reliable at the window centroid;
    # the predicted closing time is then re-referenced to the newest sample.
    lead = window[-1].t - t0 - t_mean
    slope_h = (sth - t_mean * sh) / sxx
    slope_w = (stw - t_mean * sw) / sxx
    return TtcEstimate(
        None if abs(slope_h) < SLOPE_EPSILON else (h0 + sh / size_window_len) / slope_h - lead,
        None if abs(slope_w) < SLOPE_EPSILON else (w0 + sw / size_window_len) / slope_w - lead,
    )


def normalized_center(cx: float, camera: FrameGeometry, c_los: Optional[float] = None) -> float:
    if c_los is None:
        c_los = camera.principal_x
    return (cx - c_los) / (camera.frame_width / 2.0)


def horizontal_motion(
    window: SampleWindow,
    center_window_len: int,
    camera: FrameGeometry,
    c_los: Optional[float] = None,
) -> Optional[float]:
    """Drift rate omega of the normalized box center, per second; None while warming up."""
    if len(window) < center_window_len:
        return None
    c_los = camera.principal_x if c_los is None else c_los
    half_width = camera.frame_width / 2.0  # normalized_center inlined, same operations
    ts, _, _, cxs, _ = zip(*islice(window, len(window) - center_window_len, None))
    return _ols(ts, [(cx - c_los) / half_width for cx in cxs])[1]
