"""Sliding-window regressions over per-track box samples.

Height and width slopes give time-to-collision without any camera
intrinsics: TTC is the ratio of box size to size-change rate, and the
focal length cancels out of that ratio. The horizontal-center slope gives
the drift rate of the target across the frame.

A window is a `deque` of `Sample` tuples, newest last, with positive sizes
and strictly increasing times (the tracker guarantees both). Times are used
as-is, so non-uniform frame intervals do not distort the slopes. Each fit
transposes its newest samples once; height and width share one pass, and
tracks with equal timestamps share one memoised time basis (`_time_basis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Deque, List, NamedTuple, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    n: int
    fitted_latest: float
    t_mean: float
    value_mean: float
    t_latest: float


@lru_cache(maxsize=32)  # keyed by the exact timestamps; the tracks of a frame share a few
def _time_basis(*ts: float) -> Tuple[float, Tuple[float, ...], float]:
    """t_mean, the centred times and their sum of squares; a DegenerateFitError is not cached."""
    n = len(ts)
    if n < 2:
        raise DegenerateFitError(f"need >= 2 samples, got {n}")
    t_mean = sum(ts) / n
    dts = tuple([t - t_mean for t in ts])
    sxx = sum([d ** 2 for d in dts])
    if sxx == 0.0:
        raise DegenerateFitError("all samples share one timestamp")
    return t_mean, dts, sxx


def _ols(ts: Sequence[float], *columns: Sequence[float]) -> Tuple[float, List[Tuple[float, float]]]:
    """Least squares of each column on ts: t_mean and (slope, mean) per column."""
    t_mean, dts, sxx = _time_basis(*ts)
    means = [sum(vs) / len(ts) for vs in columns]
    return t_mean, [
        (sum([d * (v - m) for d, v in zip(dts, vs)]) / sxx, m) for vs, m in zip(columns, means)
    ]


def fit_slope(points: Sequence[Tuple[float, float]]) -> RegressionResult:
    """Ordinary least squares over (t, value) points.

    Raises DegenerateFitError for fewer than two points or zero time
    variance.
    """
    ts = [t for t, _ in points]
    t_mean, [(slope, v_mean)] = _ols(ts, [v for _, v in points])
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


def ttc_from_window(window: Deque[Sample], size_window_len: int) -> Optional[TtcEstimate]:
    """TTC from the newest size_window_len samples, None while warming up."""
    if len(window) < size_window_len:
        return None
    ts, hs, ws, _, _ = zip(*islice(window, len(window) - size_window_len, None))
    t_mean, fits = _ols(ts, hs, ws)
    # The fitted size and rate are most reliable at the window centroid;
    # the predicted closing time is then re-referenced to the newest sample.
    lead = ts[-1] - t_mean
    return TtcEstimate(
        *[None if abs(slope) < SLOPE_EPSILON else mean / slope - lead for slope, mean in fits]
    )


def normalized_center(cx: float, camera: FrameGeometry, c_los: Optional[float] = None) -> float:
    if c_los is None:
        c_los = camera.principal_x
    return (cx - c_los) / (camera.frame_width / 2.0)


def horizontal_motion(
    window: Deque[Sample],
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
    _, [(omega, _)] = _ols(ts, [(cx - c_los) / half_width for cx in cxs])
    return omega
