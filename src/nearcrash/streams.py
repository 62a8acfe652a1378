"""Detection stream model and JSON Lines serialization.

A detection stream is one JSON object per line, one line per frame:

    {"frame_id": 0, "t_seconds": 0.0,
     "detections": [{"class": "vehicle", "confidence": 1.0,
                     "x1": 10.0, "y1": 20.0, "x2": 30.0, "y2": 40.0}]}

The same format is produced by the scenario simulator and consumed by the
pipeline, so external detectors only need to emit these lines. Nothing is
coerced: a class must be a string and the other detection values numbers.

A last line that lacks its newline and does not parse was torn by a cut
write: it raises `TornLineError`, so a caller can keep the frames before.
"""

from __future__ import annotations

import json
from math import isfinite
from dataclasses import MISSING, dataclass, field
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

from .config import Checked, finite_number, positive

Box = Tuple[float, float, float, float]

ROAD_USER_KINDS = ("vehicle", "pedestrian")


class StreamFormatError(ValueError):
    """Raised when a detection stream line cannot be parsed."""


class TornLineError(StreamFormatError):
    """The last line has no trailing newline and cannot be parsed."""


@dataclass(frozen=True)
class CameraSpec(Checked):
    """Pinhole camera of the scenario simulator.

    The detection engine never sees a focal length: its camera section is
    the frame geometry alone (`config.FrameGeometry`).
    """

    focal_px: float = positive(MISSING)
    frame_width: float = positive(MISSING)
    frame_height: float = positive(MISSING)
    fps: float = positive(MISSING)
    principal_x: Optional[float] = None

    def __post_init__(self):
        super().__post_init__()
        if self.principal_x is None:
            object.__setattr__(self, "principal_x", self.frame_width / 2.0)


@dataclass(frozen=True)
class Detection:
    """One timestamped, classified bounding box."""

    t: float
    frame_id: int
    kind: str
    confidence: float
    box: Box

    def __post_init__(self):
        x1, y1, x2, y2 = self.box
        if not (isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)):
            raise ValueError(f"non-finite box {self.box}")
        if not (x2 > x1 and y2 > y1):
            raise ValueError(f"degenerate box {self.box}")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")

    @property
    def width(self) -> float:
        return self.box[2] - self.box[0]

    @property
    def height(self) -> float:
        return self.box[3] - self.box[1]


@dataclass
class FrameRecord:
    """All detections captured in a single frame."""

    frame_id: int
    t: float
    detections: List[Detection] = field(default_factory=list)


def frame_to_json(frame: FrameRecord) -> str:
    dets = [
        {
            "class": d.kind,
            "confidence": d.confidence,
            "x1": d.box[0],
            "y1": d.box[1],
            "x2": d.box[2],
            "y2": d.box[3],
        }
        for d in frame.detections
    ]
    return json.dumps(
        {"frame_id": frame.frame_id, "t_seconds": frame.t, "detections": dets},
        sort_keys=True,
    )


_NUMBER_KEYS = ("confidence", "x1", "y1", "x2", "y2")


def frame_from_json(line: Union[str, bytes], lineno: int = 0) -> FrameRecord:
    try:
        # strict UTF-8: json.loads would also take a BOM or UTF-16 from bytes
        obj = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
        frame_id = obj["frame_id"]
        t = obj["t_seconds"]
        if type(frame_id) is not int:
            raise ValueError(f"frame_id must be an integer, got {frame_id!r}")
        if type(t) not in (float, int):
            raise ValueError(f"t_seconds must be a number, got {t!r}")
        t = float(t)
        if not isfinite(t):
            raise ValueError(f"non-finite t_seconds {t}")
        dets = []
        for i, d in enumerate(obj["detections"]):
            kind = d["class"]
            numbers = (d["confidence"], d["x1"], d["y1"], d["x2"], d["y2"])
            c, x1, y1, x2, y2 = numbers
            if type(kind) is not str:
                raise ValueError(f"detections[{i}].class: expected a string, got {kind!r}")
            # a float, even a non-finite one, is left to Detection
            if not (type(c) is type(x1) is type(y1) is type(x2) is type(y2) is float):
                c, x1, y1, x2, y2 = (
                    v if type(v) is float else finite_number(v, f"detections[{i}].{key}")
                    for key, v in zip(_NUMBER_KEYS, numbers)
                )
            dets.append(Detection(t, frame_id, kind, c, (x1, y1, x2, y2)))
    # OverflowError: a t_seconds integer beyond float range
    except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        raise StreamFormatError(f"line {lineno}: {exc}") from exc
    return FrameRecord(frame_id=frame_id, t=t, detections=dets)


def write_detection_stream(frames: Iterable[FrameRecord], fp: IO[str]) -> int:
    """Write frames as JSON Lines; returns the number of lines written."""
    n = 0
    for frame in frames:
        fp.write(frame_to_json(frame))
        fp.write("\n")
        n += 1
    return n


def read_detection_stream(fp: IO[bytes]) -> Iterator[FrameRecord]:
    """Parse a binary JSON Lines detection stream, skipping blank lines.

    Each line is decoded on its own, so bytes that are not UTF-8 make
    their own line malformed.
    """
    for lineno, line in enumerate(fp, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            frame = frame_from_json(text, lineno)
        except StreamFormatError as exc:
            # only the last line of a stream can lack its newline
            if line.endswith(b"\n"):
                raise
            raise TornLineError(str(exc)) from exc
        yield frame
