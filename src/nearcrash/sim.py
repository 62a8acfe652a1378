"""Pinhole-camera scenario simulator.

Generates synthetic detection streams with known kinematics so that the
detection engine can be validated against analytic ground truth: every
actor moves at constant velocity, its projected box size is focal *
real_size / distance, and its true time-to-collision is distance over
closing speed.

Coordinates: the longitudinal axis points away from the camera along the
optical axis, the lateral axis points to the camera's right. Image y grows
downward and boxes are vertically centered on the optical axis (the camera
horizon sits at mid-frame).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .config import Checked, Record, at_least, positive, read_record, setting
from .streams import ROAD_USER_KINDS, CameraSpec, Detection, FrameRecord


@dataclass(frozen=True)
class ActorSpec(Checked):
    """One road user on a constant-velocity course.

    vel_longitudinal is the closing rate: positive means the gap to the
    camera shrinks, negative means the actor recedes.
    """

    kind: str = field(metadata={"key": "class"})
    real_height: float = positive(MISSING)
    real_width: float = positive(MISSING)
    init_longitudinal: float = positive(MISSING)  # starts in front of the camera
    init_lateral: float = 0.0
    vel_longitudinal: float = 0.0
    vel_lateral: float = 0.0
    collision_half_width: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in ROAD_USER_KINDS:
            raise ValueError(f"unknown actor class {self.kind!r}")

    def distance(self, t: float) -> float:
        return self.init_longitudinal - self.vel_longitudinal * t

    def lateral(self, t: float) -> float:
        return self.init_lateral + self.vel_lateral * t


@dataclass(frozen=True)
class ScenarioSpec(Checked):
    camera: CameraSpec
    actors: Tuple[ActorSpec, ...] = setting(MISSING, bool, "must be non-empty")
    duration: float = positive(MISSING)
    bbox_noise_sigma: float = at_least(0.0, 0)
    seed: int = at_least(0, 0)

    @staticmethod
    def from_dict(obj: dict) -> "ScenarioSpec":
        return read_record(ScenarioSpec, obj)

    @staticmethod
    def from_json(text: str) -> "ScenarioSpec":
        return ScenarioSpec.from_dict(json.loads(text))

    def frame_times(self) -> List[float]:
        """The capture time of frame k, k / fps, for each of round(duration * fps) frames."""
        fps = self.camera.fps
        return [k / fps for k in range(int(round(self.duration * fps)))]


def project_actor(
    actor: ActorSpec, t: float, camera: CameraSpec, frame_id: int = 0
) -> Optional[Detection]:
    """Project an actor at time t onto the image plane.

    Returns None when the actor is at or behind the camera plane, or when
    the frame-clipped box has zero area.
    """
    dist = actor.distance(t)
    if dist <= 0:
        return None
    h = camera.focal_px * actor.real_height / dist
    w = camera.focal_px * actor.real_width / dist
    cx = camera.principal_x + camera.focal_px * actor.lateral(t) / dist
    cy = camera.frame_height / 2.0
    box = _clip_box(
        (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0), camera
    )
    if box is None:
        return None
    return Detection(t=t, frame_id=frame_id, kind=actor.kind, confidence=1.0, box=box)


def _clip_box(box, camera: CameraSpec):
    x1 = max(box[0], 0.0)
    y1 = max(box[1], 0.0)
    x2 = min(box[2], camera.frame_width)
    y2 = min(box[3], camera.frame_height)
    if x2 - x1 <= 0 or y2 - y1 <= 0:
        return None
    return (x1, y1, x2, y2)


def true_ttc(actor: ActorSpec, t: float) -> Optional[float]:
    """Analytic time-to-collision at time t, None for non-approaching actors."""
    dist = actor.distance(t)
    if dist <= 0 or actor.vel_longitudinal <= 0:
        return None
    return dist / actor.vel_longitudinal


def generate_detections(scenario: ScenarioSpec) -> List[FrameRecord]:
    """Render the scenario to a detection stream, one frame per 1/fps step.

    Box-edge noise is Gaussian with sigma expressed as a fraction of the
    visible box dimension, drawn from a generator seeded by the scenario,
    so identical (scenario, seed) pairs produce identical streams.
    """
    camera = scenario.camera
    rng = np.random.default_rng(scenario.seed)
    frames = []
    for k, t in enumerate(scenario.frame_times()):
        dets = []
        for actor in scenario.actors:
            det = project_actor(actor, t, camera, frame_id=k)
            if det is None:
                continue
            if scenario.bbox_noise_sigma > 0:
                det = _perturb(det, scenario.bbox_noise_sigma, camera, rng)
                if det is None:
                    continue
            dets.append(det)
        frames.append(FrameRecord(frame_id=k, t=t, detections=dets))
    return frames


# noisy boxes thinner than this are treated as missed detections
_MIN_BOX_EXTENT = 0.5


def _perturb(det: Detection, sigma: float, camera: CameraSpec, rng) -> Optional[Detection]:
    w, h = det.width, det.height
    x1 = det.box[0] + rng.standard_normal() * sigma * w
    x2 = det.box[2] + rng.standard_normal() * sigma * w
    y1 = det.box[1] + rng.standard_normal() * sigma * h
    y2 = det.box[3] + rng.standard_normal() * sigma * h
    box = _clip_box((x1, y1, x2, y2), camera)
    if box is None or box[2] - box[0] < _MIN_BOX_EXTENT or box[3] - box[1] < _MIN_BOX_EXTENT:
        return None
    return replace(det, box=box)


@dataclass(frozen=True)
class GroundTruthLabel(Record):
    actor_index: int
    time: float
    kind: str = field(metadata={"key": "class"})


def label_ground_truth_events(
    scenario: ScenarioSpec, delta: float
) -> List[GroundTruthLabel]:
    """Label actors on a collision course, at most once each.

    An actor is labeled at the earliest frame time where its true TTC has
    dropped to delta or below and its extrapolated lateral offset at
    closing falls inside the collision corridor.
    """
    if not 0 < delta < float("inf"):  # NaN fails both comparisons
        raise ValueError(f"delta must be a finite number > 0, got {delta}")
    times = scenario.frame_times()
    labels = []
    for i, actor in enumerate(scenario.actors):
        for t in times:
            ttc = true_ttc(actor, t)
            if ttc is None or ttc > delta:
                continue
            offset_at_closing = actor.lateral(t) + actor.vel_lateral * ttc
            if abs(offset_at_closing) <= actor.collision_half_width:
                labels.append(GroundTruthLabel(actor_index=i, time=t, kind=actor.kind))
                break
    return labels
