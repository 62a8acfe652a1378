"""Event-level scoring: temporal matching, F1, and report rendering.

A prediction counts as a true positive when it falls within the matching
window of a ground-truth event in the same video; matching is one-to-one,
greedy by smallest time distance, so it does not depend on input order.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import MISSING, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .config import Checked, at_least, read_record

DEFAULT_MATCH_WINDOW_S = 10.0


@dataclass(frozen=True)
class ScoredEvent(Checked):
    video_id: str
    time: float = at_least(MISSING, 0)


@dataclass(frozen=True)
class MatchResult:
    tp: int
    fp: int
    fn: int
    matches: Tuple[Tuple[ScoredEvent, ScoredEvent], ...]  # (ground truth, prediction)


def match_events(
    predictions: Sequence[ScoredEvent],
    ground_truth: Sequence[ScoredEvent],
    window: float = DEFAULT_MATCH_WINDOW_S,
) -> MatchResult:
    if not 0 <= window < math.inf:  # NaN fails both comparisons
        raise ValueError(f"window must be a finite number >= 0, got {window}")
    by_video: Dict[str, Tuple[List[ScoredEvent], List[ScoredEvent]]] = defaultdict(
        lambda: ([], [])
    )
    for p in predictions:
        by_video[p.video_id][0].append(p)
    for g in ground_truth:
        by_video[g.video_id][1].append(g)

    matches: List[Tuple[ScoredEvent, ScoredEvent]] = []
    for video_id in sorted(by_video):
        preds, gts = by_video[video_id]
        pairs = [
            (abs(g.time - p.time), g.time, p.time, gi, pi)
            for gi, g in enumerate(gts)
            for pi, p in enumerate(preds)
            if abs(g.time - p.time) <= window
        ]
        # sort key uses event times, not list positions, so input order is irrelevant
        pairs.sort()
        used_g, used_p = set(), set()
        for _, _, _, gi, pi in pairs:
            if gi in used_g or pi in used_p:
                continue
            used_g.add(gi)
            used_p.add(pi)
            matches.append((gts[gi], preds[pi]))

    tp = len(matches)
    return MatchResult(
        tp=tp,
        fp=len(predictions) - tp,
        fn=len(ground_truth) - tp,
        matches=tuple(matches),
    )


def f1(tp: int, fp: int, fn: int) -> float:
    """Harmonic mean of precision and recall; 0 when there is nothing to score."""
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def _rates(tp: int, fp: int, fn: int) -> Dict[str, float]:
    return dict(
        precision=tp / (tp + fp) if tp + fp > 0 else 0.0,
        recall=tp / (tp + fn) if tp + fn > 0 else 0.0,
        f1=f1(tp, fp, fn),
    )


@dataclass(frozen=True)
class EvalReport(Checked):
    n_videos: int
    n_events: int
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    fps: Optional[float] = at_least(None, 0)

    def __post_init__(self):
        super().__post_init__()
        for name in ("n_videos", "n_events", "tp", "fp", "fn"):
            count = getattr(self, name)
            if count < 0:
                raise ValueError(f"{name}: expected a count >= 0, got {count}")
        if self.n_events != self.tp + self.fn:  # every ground-truth event is matched or missed
            raise ValueError(f"n_events: {self.n_events} is not tp + fn = {self.tp + self.fn}")
        for name, counted in _rates(self.tp, self.fp, self.fn).items():
            stored = getattr(self, name)
            if not math.isclose(stored, counted, rel_tol=1e-9):
                raise ValueError(f"{name}: stored {stored!r}, but the counts give {counted!r}")

    @staticmethod
    def from_dict(obj: dict) -> "EvalReport":
        """Read a saved report; its rates are recomputed from its counts."""
        rec = read_record(EvalReport, obj)
        return make_report(rec.tp, rec.fp, rec.fn, rec.n_videos, rec.n_events, rec.fps)


def make_report(
    tp: int,
    fp: int,
    fn: int,
    n_videos: int,
    n_events: int,
    fps: Optional[float] = None,
) -> EvalReport:
    return EvalReport(n_videos, n_events, tp, fp, fn, **_rates(tp, fp, fn), fps=fps)


def score(
    predictions: Sequence[ScoredEvent],
    ground_truth: Sequence[ScoredEvent],
    window: float = DEFAULT_MATCH_WINDOW_S,
    n_videos: Optional[int] = None,
    fps: Optional[float] = None,
) -> EvalReport:
    result = match_events(predictions, ground_truth, window)
    if n_videos is None:
        n_videos = len({e.video_id for e in list(predictions) + list(ground_truth)})
    return make_report(
        result.tp, result.fp, result.fn, n_videos, len(ground_truth), fps
    )


_COLUMNS = ("# videos", "# events", "TP", "FP", "FN", "F1", "FPS")


def render_table(report: EvalReport) -> str:
    """Fixed-column text table, one header row and one value row."""
    values = (
        str(report.n_videos),
        str(report.n_events),
        str(report.tp),
        str(report.fp),
        str(report.fn),
        f"{report.f1:.3f}",
        "-" if report.fps is None else f"{report.fps:.1f}",
    )
    widths = [max(len(c), len(v)) for c, v in zip(_COLUMNS, values)]
    header = " | ".join(c.ljust(w) for c, w in zip(_COLUMNS, widths))
    row = " | ".join(v.ljust(w) for v, w in zip(values, widths))
    rule = "-+-".join("-" * w for w in widths)
    return "\n".join((header, rule, row))


def events_from_json(obj) -> List[ScoredEvent]:
    """Parse scored events from JSON.

    Accepts a list of {"video_id", "time"} objects; pipeline event logs
    using "trigger_time" are accepted too, with video_id defaulting to
    "default" so single-video round trips need no extra wiring. A video_id
    must be a string and a time a finite JSON number; nothing is coerced.
    """
    if not isinstance(obj, list):
        raise ValueError("expected a JSON array of events")
    events = []
    for i, entry in enumerate(obj):
        try:
            if not isinstance(entry, dict):
                raise ValueError("expected an object")
            key = "time" if "time" in entry else "trigger_time"
            if key not in entry:
                raise ValueError("missing 'time' or 'trigger_time'")
            record = {"video_id": entry.get("video_id", "default"), "time": entry[key]}
            events.append(read_record(ScoredEvent, record))
        except ValueError as exc:
            raise ValueError(f"event {i}: {exc}") from exc
    return events
