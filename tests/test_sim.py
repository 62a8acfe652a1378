"""Simulator oracle tests: projection, analytic TTC, labels, determinism."""

import json
from importlib import resources

import pytest

from nearcrash.config import ConfigError
from nearcrash.sim import (
    ActorSpec,
    ScenarioSpec,
    generate_detections,
    label_ground_truth_events,
    project_actor,
    true_ttc,
)
from nearcrash.streams import CameraSpec, frame_to_json

from conftest import BIG_CAMERA, load_bundled_scenario

BUNDLED = (
    "head_on", "cut_in", "adjacent_pass", "receding", "truncated_oncoming",
    "jaywalking_pedestrian",
)


def vehicle(**kwargs):
    defaults = dict(
        kind="vehicle",
        real_height=1.5,
        real_width=1.8,
        init_longitudinal=30.0,
        init_lateral=0.0,
        vel_longitudinal=10.0,
        vel_lateral=0.0,
        collision_half_width=1.2,
    )
    defaults.update(kwargs)
    return ActorSpec(**defaults)


class TestProjection:
    def test_height_from_pinhole(self):
        # hand evaluation: 1000 * 1.5 / 30 = 50 px
        det = project_actor(vehicle(vel_longitudinal=0.0), 0.0, BIG_CAMERA)
        assert det.height == pytest.approx(50.0, abs=1e-12)
        assert det.width == pytest.approx(1000 * 1.8 / 30, abs=1e-12)

    def test_height_vanishes_at_distance(self):
        heights = []
        for dist in (10.0, 100.0, 1000.0, 100000.0):
            det = project_actor(
                vehicle(init_longitudinal=dist, vel_longitudinal=0.0), 0.0, BIG_CAMERA
            )
            heights.append(det.height)
        assert heights == sorted(heights, reverse=True)
        assert heights[-1] < 0.02

    def test_doubling_focal_doubles_box(self):
        cam2 = CameraSpec(focal_px=2000.0, frame_width=4000, frame_height=3000, fps=24)
        det = project_actor(vehicle(vel_longitudinal=0.0), 0.0, cam2)
        assert det.height == pytest.approx(100.0, abs=1e-12)

    def test_none_behind_camera(self):
        actor = vehicle(init_longitudinal=5.0, vel_longitudinal=10.0)
        assert project_actor(actor, 1.0, BIG_CAMERA) is None

    def test_none_when_fully_out_of_frame(self):
        cam = CameraSpec(focal_px=1000.0, frame_width=640, frame_height=480, fps=24)
        actor = vehicle(init_lateral=50.0, vel_longitudinal=0.0)
        assert project_actor(actor, 0.0, cam) is None

    def test_size_times_distance_constant(self):
        # s * D stays equal to focal * real size over the whole approach
        actor = vehicle(init_longitudinal=60.0, vel_longitudinal=8.0)
        products = []
        for k in range(100):
            t = k / 24.0
            det = project_actor(actor, t, BIG_CAMERA)
            products.append(det.height * actor.distance(t))
        for p in products:
            assert abs(p - products[0]) <= 1e-9 * abs(products[0])

    def test_size_ratio_matches_true_ttc(self):
        # independent oracle: central finite difference for dh/dt
        actor = vehicle(init_longitudinal=40.0, vel_longitudinal=7.0)
        eps = 1e-5
        for t in (0.5, 1.0, 2.5, 4.0):
            h = project_actor(actor, t, BIG_CAMERA).height
            h_plus = project_actor(actor, t + eps, BIG_CAMERA).height
            h_minus = project_actor(actor, t - eps, BIG_CAMERA).height
            dh = (h_plus - h_minus) / (2 * eps)
            assert h / dh == pytest.approx(true_ttc(actor, t), rel=1e-6)

    def test_focal_scaling_leaves_ttc_unchanged(self):
        actor = vehicle()
        for k in (0.5, 2.0, 3.7):
            cam_k = CameraSpec(
                focal_px=BIG_CAMERA.focal_px * k,
                frame_width=8000,
                frame_height=6000,
                fps=24,
            )
            base = project_actor(actor, 1.0, BIG_CAMERA)
            scaled = project_actor(actor, 1.0, cam_k)
            assert scaled.height == pytest.approx(base.height * k, rel=1e-12)
            assert scaled.width == pytest.approx(base.width * k, rel=1e-12)
            assert true_ttc(actor, 1.0) == 2.0  # untouched by the camera


class TestTrueTtc:
    def test_head_on(self):
        assert true_ttc(vehicle(), 0.0) == pytest.approx(3.0)

    def test_zero_closing_rate(self):
        assert true_ttc(vehicle(vel_longitudinal=0.0), 0.0) is None
        assert true_ttc(vehicle(vel_longitudinal=-5.0), 0.0) is None

    def test_after_one_second(self):
        # D(1) = 20, closing 10 -> 2.0
        assert true_ttc(vehicle(), 1.0) == pytest.approx(2.0)


def one_actor_scenario(actor, duration=1.0, noise=0.0, seed=0, camera=BIG_CAMERA):
    return ScenarioSpec(
        camera=camera,
        actors=(actor,),
        duration=duration,
        bbox_noise_sigma=noise,
        seed=seed,
    )


class TestGenerateDetections:
    def test_frame_count(self):
        frames = generate_detections(one_actor_scenario(vehicle(), duration=1.0))
        assert len(frames) == 24
        assert [f.frame_id for f in frames] == list(range(24))

    def test_zero_noise_matches_projection(self):
        scenario = one_actor_scenario(vehicle(), duration=1.0)
        frames = generate_detections(scenario)
        for frame in frames:
            expected = project_actor(vehicle(), frame.t, BIG_CAMERA, frame.frame_id)
            assert len(frame.detections) == 1
            assert frame.detections[0].box == expected.box
            assert frame.detections[0].confidence == 1.0

    def test_same_seed_bit_identical(self):
        scenario = one_actor_scenario(vehicle(), duration=1.0, noise=0.05, seed=7)
        a = [frame_to_json(f) for f in generate_detections(scenario)]
        b = [frame_to_json(f) for f in generate_detections(scenario)]
        assert a == b

    def test_different_seed_differs(self):
        base = one_actor_scenario(vehicle(), duration=1.0, noise=0.05, seed=7)
        other = one_actor_scenario(vehicle(), duration=1.0, noise=0.05, seed=8)
        a = [frame_to_json(f) for f in generate_detections(base)]
        b = [frame_to_json(f) for f in generate_detections(other)]
        assert a != b

    def test_rejects_empty_actor_list(self):
        with pytest.raises(ValueError, match="^actors: must be non-empty$"):
            ScenarioSpec(camera=BIG_CAMERA, actors=(), duration=1.0)

    def test_noise_is_fraction_of_dimension(self):
        scenario = one_actor_scenario(
            vehicle(vel_longitudinal=0.0), duration=4.0, noise=0.02, seed=3
        )
        heights = [
            f.detections[0].height for f in generate_detections(scenario) if f.detections
        ]
        true_h = 50.0
        spread = [abs(h - true_h) / true_h for h in heights]
        # each edge gets sigma=2% noise; combined height noise stays small
        assert max(spread) < 0.15
        assert sum(spread) / len(spread) > 0.005


class TestGroundTruthLabels:
    def test_head_on_labeled_at_threshold_crossing(self):
        # true_ttc(0) = 3.0 <= delta -> labeled on the first frame
        scenario = one_actor_scenario(vehicle(), duration=2.0)
        labels = label_ground_truth_events(scenario, delta=3.0)
        assert len(labels) == 1
        assert labels[0].actor_index == 0
        assert labels[0].time == 0.0

    def test_receding_never_labeled(self):
        scenario = one_actor_scenario(vehicle(vel_longitudinal=-10.0), duration=2.0)
        assert label_ground_truth_events(scenario, delta=3.0) == []

    def test_side_pass_never_labeled(self):
        actor = vehicle(init_lateral=5.0, collision_half_width=1.0)
        scenario = one_actor_scenario(actor, duration=2.0)
        assert label_ground_truth_events(scenario, delta=3.0) == []

    def test_at_most_one_label_per_actor(self):
        scenario = one_actor_scenario(vehicle(), duration=2.9)
        labels = label_ground_truth_events(scenario, delta=3.0)
        assert len(labels) == 1

    def test_lateral_crosser_labeled_when_corridor_entered(self):
        # drifts into the collision corridor while closing
        actor = vehicle(init_lateral=4.2, vel_lateral=-1.4, vel_longitudinal=8.0)
        scenario = one_actor_scenario(actor, duration=3.0)
        labels = label_ground_truth_events(scenario, delta=3.0)
        assert len(labels) == 1
        t = labels[0].time
        ttc = true_ttc(actor, t)
        assert ttc <= 3.0
        assert abs(actor.lateral(t) + actor.vel_lateral * ttc) <= 1.2

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            label_ground_truth_events(one_actor_scenario(vehicle()), delta=0.0)


class TestSpecValidation:
    def test_bad_actor(self):
        with pytest.raises(ValueError):
            vehicle(real_height=-1.0)
        with pytest.raises(ValueError):
            vehicle(init_longitudinal=0.0)
        with pytest.raises(ValueError):
            vehicle(kind="bicycle")

    def test_bad_camera(self):
        with pytest.raises(ValueError):
            CameraSpec(focal_px=0.0, frame_width=100, frame_height=100, fps=24)

    def test_principal_defaults_to_center(self):
        cam = CameraSpec(focal_px=1.0, frame_width=640, frame_height=480, fps=24)
        assert cam.principal_x == 320.0

    def test_scenario_roundtrip_from_dict(self):
        obj = {
            "camera": {"focal_px": 1000, "frame_width": 1280, "frame_height": 720, "fps": 24},
            "actors": [
                {
                    "class": "pedestrian",
                    "real_height": 1.7,
                    "real_width": 0.5,
                    "init_longitudinal": 20.0,
                }
            ],
            "duration": 2.0,
        }
        scenario = ScenarioSpec.from_dict(obj)
        assert scenario.actors[0].kind == "pedestrian"
        assert scenario.bbox_noise_sigma == 0.0
        assert scenario.seed == 0


def hand_mapped_spec(obj: dict) -> ScenarioSpec:
    """The earlier key-by-key parser, kept as the oracle for the bundled files."""
    cam = obj["camera"]
    camera = CameraSpec(
        focal_px=float(cam["focal_px"]),
        frame_width=float(cam["frame_width"]),
        frame_height=float(cam["frame_height"]),
        fps=float(cam["fps"]),
        principal_x=cam.get("principal_x"),
    )
    actors = tuple(
        ActorSpec(
            kind=a["class"],
            real_height=float(a["real_height"]),
            real_width=float(a["real_width"]),
            init_longitudinal=float(a["init_longitudinal"]),
            init_lateral=float(a.get("init_lateral", 0.0)),
            vel_longitudinal=float(a.get("vel_longitudinal", 0.0)),
            vel_lateral=float(a.get("vel_lateral", 0.0)),
            collision_half_width=float(a.get("collision_half_width", 1.0)),
        )
        for a in obj["actors"]
    )
    return ScenarioSpec(
        camera=camera,
        actors=actors,
        duration=float(obj["duration"]),
        bbox_noise_sigma=float(obj.get("bbox_noise_sigma", 0.0)),
        seed=int(obj.get("seed", 0)),
    )


def bundled_dict(name: str) -> dict:
    return json.loads(resources.files("nearcrash").joinpath(f"scenarios/{name}.json").read_text())


class TestSpecReader:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_scenario_parses_as_hand_mapped(self, name):
        assert load_bundled_scenario(name) == hand_mapped_spec(bundled_dict(name))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda o: o["actors"][0].update(init_laterl=2.6),
             r"^actors\[0\]\.init_laterl: unknown field$"),
            (lambda o: o.update(seed=1.5), r"^seed: expected an integer, got 1\.5$"),
            (lambda o: o["actors"][0].update({"class": 3}),
             r"^actors\[0\]\.class: expected a string, got 3$"),
            (lambda o: o["actors"][0].update({"class": "bicycle"}),
             r"^actors\[0\]: unknown actor class 'bicycle'$"),
            (lambda o: o.pop("duration"), r"^duration: missing$"),
            (lambda o: o.update(actors={}), r"^actors: expected an array$"),
        ],
        ids=["misspelt_key", "float_seed", "numeric_class", "unknown_class", "missing_duration",
             "actors_object"],
    )
    def test_rejects_with_path(self, edit, message):
        obj = bundled_dict("cut_in")
        edit(obj)
        with pytest.raises(ConfigError, match=message):
            ScenarioSpec.from_dict(obj)
