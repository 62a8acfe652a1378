"""Camera-parameter-free near-crash detection from bounding-box streams."""

from .config import ConfigError, EngineConfig, build_config, load_config
from .evaluation import EvalReport, ScoredEvent, f1, match_events, score
from .gps import GpsAffine, GpsFix, convert_raw_to_wgs84, sample_trajectory, speed_between
from .pipeline import LatestFrameQueue, NearCrashEvent, RunResult, run
from .rules import NearCrashDecision, RuleConfig, RuleEngine, check_motion_rule, check_size_rule
from .sim import ActorSpec, ScenarioSpec, generate_detections, label_ground_truth_events, project_actor, true_ttc
from .streams import CameraSpec, Detection, FrameRecord, read_detection_stream, write_detection_stream
from .tracker import Tracker, associate, iou
from .ttc import TtcEstimate, fit_slope, horizontal_motion, ttc_from_window

__version__ = "0.1.0"

__all__ = [
    "ActorSpec",
    "CameraSpec",
    "ConfigError",
    "Detection",
    "EngineConfig",
    "EvalReport",
    "FrameRecord",
    "GpsAffine",
    "GpsFix",
    "LatestFrameQueue",
    "NearCrashDecision",
    "NearCrashEvent",
    "RuleConfig",
    "RuleEngine",
    "RunResult",
    "ScenarioSpec",
    "ScoredEvent",
    "Tracker",
    "TtcEstimate",
    "associate",
    "build_config",
    "check_motion_rule",
    "check_size_rule",
    "convert_raw_to_wgs84",
    "f1",
    "fit_slope",
    "generate_detections",
    "horizontal_motion",
    "iou",
    "label_ground_truth_events",
    "load_config",
    "match_events",
    "project_actor",
    "read_detection_stream",
    "run",
    "sample_trajectory",
    "score",
    "speed_between",
    "ttc_from_window",
    "true_ttc",
    "write_detection_stream",
]
