"""Shared helpers: scenario builders and a one-call engine driver."""

from importlib import resources

import pytest

from nearcrash.config import RegressionParams, build_config
from nearcrash.pipeline import run
from nearcrash.sim import ScenarioSpec, generate_detections, project_actor
from nearcrash.streams import CameraSpec
from nearcrash.ttc import SampleWindow

# a frame large enough that test geometries never clip against it
BIG_CAMERA = CameraSpec(focal_px=1000.0, frame_width=4000.0, frame_height=3000.0, fps=24.0)


def load_bundled_scenario(name: str) -> ScenarioSpec:
    text = resources.files("nearcrash").joinpath(f"scenarios/{name}.json").read_text()
    return ScenarioSpec.from_json(text)


def config_for_scenario(scenario: ScenarioSpec, **overrides):
    user = {
        "camera": {
            "frame_width": scenario.camera.frame_width,
            "frame_height": scenario.camera.frame_height,
            "fps": scenario.camera.fps,
        }
    }
    for dotted, value in overrides.items():
        section, _, leaf = dotted.partition(".")
        user.setdefault(section, {})[leaf] = value
    return build_config(user)


def run_scenario(scenario: ScenarioSpec, annotation_sink=None, **overrides):
    """Simulate a scenario and push it through the full engine offline."""
    frames = generate_detections(scenario)
    cfg = config_for_scenario(scenario, **overrides)
    return run(frames, cfg, annotation_sink=annotation_sink)


def sample_window(samples=(), capacity=18, size_window_len=12) -> SampleWindow:
    """A track's sample window holding the given samples, appended oldest first."""
    window = SampleWindow(
        RegressionParams(size_window_len=size_window_len, center_window_len=capacity)
    )
    for sample in samples:
        window.append(sample)
    return window


def fill_window(actor, camera, times, capacity=None, size_window_len=12) -> SampleWindow:
    """Project an actor at the given times into a fresh sample window."""
    window = sample_window(capacity=capacity or max(len(times), 2), size_window_len=size_window_len)
    for t in times:
        det = project_actor(actor, t, camera)
        assert det is not None, f"actor left the frame at t={t}"
        window.add(t, det.box)
    return window


@pytest.fixture
def big_camera():
    return BIG_CAMERA
