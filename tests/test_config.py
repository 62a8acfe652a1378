"""Config loading, validation paths, and dotted overrides."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from nearcrash.config import (
    Checked,
    ConfigError,
    EngineConfig,
    FrameGeometry,
    GpsParams,
    PipelineParams,
    RegressionParams,
    RuleConfig,
    TrackerParams,
    build_config,
    load_config,
    override_flags,
    read_record,
)
from nearcrash.evaluation import EvalReport, ScoredEvent, make_report
from nearcrash.gps import GpsAffine
from nearcrash.pipeline import ThroughputReport
from nearcrash.sim import ActorSpec, ScenarioSpec
from nearcrash.streams import CameraSpec


class TestDefaults:
    def test_defaults_build(self):
        cfg = build_config()
        assert cfg.rules.delta == 3.0
        assert cfg.rules.phi == 6.75
        assert cfg.rules.alpha == -0.75
        assert cfg.rules.beta == 0.05
        assert cfg.rules.cooldown == 10.0
        assert cfg.tracker.confidence_min == 0.4
        assert cfg.tracker.iou_min == 0.3
        assert cfg.tracker.max_age == 5
        assert cfg.tracker.min_hits == 3
        assert cfg.regression.size_window_len == 12
        assert cfg.regression.center_window_len == 18
        assert cfg.pipeline.mode == "offline"
        assert cfg.gps.lat_offset == -31.30174
        assert cfg.gps.sample_period == 3.0

    def test_c_los_defaults_to_principal(self):
        cfg = build_config()
        assert cfg.rules.c_los is None
        assert cfg.camera.principal_x == 640.0

    def test_defaults_are_the_declared_field_defaults(self):
        cfg = build_config()
        assert cfg == EngineConfig()
        # the gps section is the receiver's map: its defaults are the map's
        assert isinstance(cfg.gps, GpsAffine) and cfg.gps.invert() == GpsAffine().invert()

    def test_camera_is_frame_geometry_without_focal_length(self):
        camera = build_config({"camera": {"frame_width": 1000}}).camera
        assert camera == FrameGeometry(frame_width=1000.0)
        assert not hasattr(camera, "focal_px")
        assert camera.principal_x == 500.0


class TestValidation:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="detector"):
            build_config({"detector": {}})

    def test_unknown_field_path(self):
        with pytest.raises(ConfigError, match=r"tracker\.max_misses"):
            build_config({"tracker": {"max_misses": 3}})

    def test_rule_violation_reports_path(self):
        with pytest.raises(ConfigError, match="rules"):
            build_config({"rules": {"delta": 9.0}})  # delta >= phi

    def test_numeric_bounds(self):
        with pytest.raises(ConfigError, match=r"tracker\.iou_min"):
            build_config({"tracker": {"iou_min": 1.5}})
        with pytest.raises(ConfigError, match=r"camera\.fps"):
            build_config({"camera": {"fps": 0}})
        with pytest.raises(ConfigError, match=r"regression\.size_window_len"):
            build_config({"regression": {"size_window_len": 1}})
        with pytest.raises(ConfigError, match=r"pipeline\.mode"):
            build_config({"pipeline": {"mode": "batch"}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match=r"tracker\.max_age"):
            build_config({"tracker": {"max_age": 2.5}})
        with pytest.raises(ConfigError, match=r"rules\.delta"):
            build_config({"rules": {"delta": "fast"}})

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), 10**400, True],
        ids=["nan", "inf", "-inf", "overflowing_int", "bool"],
    )
    @pytest.mark.parametrize("field", ["delta", "c_los"])  # float and Optional[float]
    def test_float_field_takes_only_finite_numbers(self, field, bad):
        with pytest.raises(ConfigError, match=rf"^rules\.{field}: expected a finite number"):
            build_config({"rules": {field: bad}})

    def test_float_field_takes_integers(self):
        assert build_config({"rules": {"c_los": 640}}).rules.c_los == 640.0


class TestLoadAndOverride:
    def test_load_file_with_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rules": {"delta": 2.0, "phi": 5.0}}))
        cfg = load_config(str(path), overrides={"rules.beta": 0.08})
        assert cfg.rules.delta == 2.0
        assert cfg.rules.beta == 0.08

    def test_override_unknown_field(self):
        with pytest.raises(ConfigError, match=r"rules\.gamma"):
            load_config(None, overrides={"rules.gamma": 1.0})

    @pytest.mark.parametrize("overrides", [None, {"rules.delta": 2.0}])
    def test_non_object_section_with_override(self, tmp_path, overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rules": 5}))
        with pytest.raises(ConfigError, match="^rules: expected an object$"):
            load_config(str(path), overrides=overrides)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_top_level_array_file(self, tmp_path):
        path = tmp_path / "array.json"
        path.write_text('[{"rules": {"delta": 2.0}}]')
        with pytest.raises(ConfigError, match=r"array\.json: top level must be an object$"):
            load_config(str(path))

    def test_override_flags_cover_all_leaves(self):
        flags = override_flags()
        assert "rules.delta" in flags
        assert "tracker.confidence_min" in flags
        assert "gps.sample_period" in flags
        assert len(flags) == 22


CAMERA = {"focal_px": 1000.0, "frame_width": 1280.0, "frame_height": 720.0, "fps": 24.0}
ACTOR = {"class": "vehicle", "real_height": 1.5, "real_width": 1.8, "init_longitudinal": 30.0}
# a valid JSON record of each record type on the `Checked` base
VALID = {
    CameraSpec: CAMERA,
    ActorSpec: ACTOR,
    ScenarioSpec: {"camera": CAMERA, "actors": [ACTOR], "duration": 3.0},
    ScoredEvent: {"video_id": "a", "time": 1.0},
    EvalReport: make_report(3, 1, 1, n_videos=2, n_events=4, fps=20.0).to_dict(),
}
# an out-of-bound value of every bounded field of every record on the base
OUT_OF_BOUND = [
    (FrameGeometry, "frame_width", 0.0),
    (FrameGeometry, "frame_height", -1.0),
    (FrameGeometry, "fps", 0.0),
    (TrackerParams, "confidence_min", 2.0),
    (TrackerParams, "iou_min", 1.0),
    (TrackerParams, "max_age", -1),
    (TrackerParams, "min_hits", 0),
    (RegressionParams, "size_window_len", 1),
    (RegressionParams, "center_window_len", 1),
    (RuleConfig, "cooldown", -1.0),
    (PipelineParams, "buffer_seconds", 0.0),
    (GpsAffine, "lat_scale", 0),
    (GpsAffine, "lon_scale", 0.0),
    (GpsParams, "lat_scale", 0.0),
    (GpsParams, "lon_scale", 0.0),
    (GpsParams, "sample_period", 0.0),
    (CameraSpec, "focal_px", 0.0),
    (CameraSpec, "frame_width", 0.0),
    (CameraSpec, "frame_height", -720.0),
    (CameraSpec, "fps", 0.0),
    (ActorSpec, "real_height", 0.0),
    (ActorSpec, "real_width", -1.8),
    (ActorSpec, "init_longitudinal", 0.0),
    (ScenarioSpec, "actors", ()),
    (ScenarioSpec, "duration", 0.0),
    (ScenarioSpec, "bbox_noise_sigma", -0.01),
    (ScenarioSpec, "seed", -1),
    (ScoredEvent, "time", -1.0),
    (EvalReport, "fps", -5.0),
    *[(ThroughputReport, f.name, -1) for f in fields(ThroughputReport)],
]


# a record of every type that is written as JSON and read back, off the defaults
WRITTEN = [
    *(read_record(cls, raw) for cls, raw in VALID.items()),
    build_config({"rules": {"c_los": 600.0}, "pipeline": {"mode": "live"}}),
    FrameGeometry(frame_width=640.0, frame_height=480.0, fps=30.0),
    TrackerParams(max_age=7, min_hits=2),
    GpsParams(lat_offset=1.0, sample_period=2.0),
    ThroughputReport(frames_produced=5, frames_processed=4, frames_dropped=1, achieved_fps=8.0),
]


NAN, INF = float("nan"), float("inf")
# a wrong-typed value of every field of every record on the base
WRONG_TYPE = [
    # accepted when built in code while only the JSON reader checked types
    (PipelineParams, "mode", "batch"),
    (RegressionParams, "size_window_len", 12.5),
    (TrackerParams, "max_age", None),
    (RuleConfig, "c_los", "640"),
    (EngineConfig, "tracker", {"max_age": 3}),
    # the rest
    (FrameGeometry, "frame_width", "1280"),
    (FrameGeometry, "frame_height", True),
    (FrameGeometry, "fps", NAN),
    (TrackerParams, "confidence_min", None),
    (TrackerParams, "iou_min", "0.3"),
    (TrackerParams, "min_hits", 3.0),
    (RegressionParams, "center_window_len", False),
    (RuleConfig, "delta", INF),
    (RuleConfig, "phi", -INF),
    (RuleConfig, "alpha", 10**400),
    (RuleConfig, "beta", None),
    (RuleConfig, "cooldown", "10"),
    (PipelineParams, "buffer_seconds", [10.0]),
    (GpsAffine, "lat_offset", "north"),
    (GpsParams, "lon_offset", None),
    (GpsParams, "sample_period", True),
    *[(GpsParams, name, NAN) for name in ("lat_scale", "lat_offset", "lon_scale")],
    *[(GpsAffine, name, "1") for name in ("lat_scale", "lon_scale", "lon_offset")],
    (EngineConfig, "camera", CameraSpec(**CAMERA)),
    (EngineConfig, "regression", None),
    (EngineConfig, "rules", {"delta": 2.0}),
    (EngineConfig, "pipeline", "live"),
    (EngineConfig, "gps", GpsAffine()),
    (CameraSpec, "focal_px", "1000"),
    (CameraSpec, "frame_width", None),
    (CameraSpec, "frame_height", True),
    (CameraSpec, "fps", INF),
    (CameraSpec, "principal_x", "640"),
    (ActorSpec, "kind", 1),
    (ActorSpec, "real_height", "1.5"),
    (ActorSpec, "real_width", None),
    (ActorSpec, "init_longitudinal", NAN),
    (ActorSpec, "init_lateral", False),
    (ActorSpec, "vel_longitudinal", "fast"),
    (ActorSpec, "vel_lateral", INF),
    (ActorSpec, "collision_half_width", None),
    (ScenarioSpec, "camera", CAMERA),
    (ScenarioSpec, "actors", [read_record(ActorSpec, ACTOR)]),
    (ScenarioSpec, "duration", "3"),
    (ScenarioSpec, "bbox_noise_sigma", None),
    (ScenarioSpec, "seed", 1.0),
    (ScoredEvent, "video_id", 7),
    (ScoredEvent, "time", None),
    *[(EvalReport, name, 1.0) for name in ("n_videos", "n_events", "tp")],
    (EvalReport, "fp", True),
    (EvalReport, "fn", "1"),
    *[(EvalReport, name, NAN) for name in ("precision", "recall", "f1")],
    (EvalReport, "fps", "20"),
    *[(ThroughputReport, f.name, None) for f in fields(ThroughputReport)],
]


def _key(cls, name):
    return next(f.metadata.get("key", name) for f in fields(cls) if f.name == name)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestBounds:
    """A declared bound holds however a record is built."""

    def test_every_bounded_field_is_covered(self):
        bounded = {
            (cls, f.name)
            for cls in _subclasses(Checked)
            for f in fields(cls)
            if "bound" in f.metadata
        }
        assert bounded == {(cls, name) for cls, name, _ in OUT_OF_BOUND}

    @pytest.mark.parametrize(
        "cls, name, bad", OUT_OF_BOUND, ids=[f"{c.__name__}.{n}" for c, n, _ in OUT_OF_BOUND]
    )
    def test_built_directly_and_read_alike(self, cls, name, bad):
        valid = VALID.get(cls, {})
        with pytest.raises(ValueError, match=rf"^{name}: must be ") as direct:
            replace(read_record(cls, valid), **{name: bad})
        written = list(bad) if isinstance(bad, tuple) else bad  # a tuple is a JSON array
        with pytest.raises(ConfigError) as read:
            read_record(cls, {**valid, name: written}, "record")
        assert str(read.value) == f"record.{direct.value}"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_scored_event_time_is_finite(self, bad):
        with pytest.raises(ValueError, match=rf"^time: expected a finite number, got {bad}$"):
            ScoredEvent("a", bad)

    @pytest.mark.parametrize(
        "section, name, bad, message",
        [
            ("camera", "frame_width", 0.0, "must be > 0"),
            ("tracker", "max_age", -1, "must be >= 0"),
            ("rules", "cooldown", -1.0, "must be >= 0"),
        ],
    )
    def test_config_path_message(self, section, name, bad, message):
        with pytest.raises(ConfigError, match=rf"^{section}\.{name}: {message}$"):
            build_config({section: {name: bad}})


class TestTypes:
    """A field's annotated type holds however a record is built."""

    def test_every_field_is_covered(self):
        every = {(cls, f.name) for cls in _subclasses(Checked) for f in fields(cls)}
        assert every == {(cls, name) for cls, name, _ in WRONG_TYPE}

    @pytest.mark.parametrize(
        "cls, name, bad", WRONG_TYPE, ids=[f"{c.__name__}.{n}" for c, n, _ in WRONG_TYPE]
    )
    def test_built_directly_and_read_alike(self, cls, name, bad):
        valid, key = VALID.get(cls, {}), _key(cls, name)
        record = read_record(cls, valid)
        with pytest.raises(ValueError, match=rf"^{key}: ") as direct:
            replace(record, **{name: bad})
        # the reader shapes an object or array into a record or tuple field,
        # and passes a value for any other field on as it is
        if not isinstance(getattr(record, name), (Checked, tuple)):
            with pytest.raises(ConfigError) as read:
                read_record(cls, {**valid, key: bad}, "record")
            assert str(read.value) == f"record.{direct.value}"

    def test_messages(self):
        with pytest.raises(ConfigError, match=r"^mode: must be 'offline' or 'live'$"):
            PipelineParams(mode="batch")
        with pytest.raises(ConfigError, match=r"^max_age: expected an integer, got None$"):
            TrackerParams(max_age=None)
        wrong = r"^tracker: expected TrackerParams, got \{'max_age': 3\}$"
        with pytest.raises(ConfigError, match=wrong):
            EngineConfig(tracker={"max_age": 3})
        with pytest.raises(ConfigError, match=r"^actors: expected a tuple, got \[\]$"):
            ScenarioSpec(CameraSpec(**CAMERA), [], duration=3.0)

    def test_types_are_checked_before_bounds(self):
        # a wrong type on a later field is reported before a bound on an earlier one
        with pytest.raises(ConfigError, match=r"^max_age: expected an integer"):
            TrackerParams(confidence_min=2.0, max_age="5")

    def test_float_fields_take_numpy_floats_and_widen_ints(self):
        actor = ActorSpec(
            kind="vehicle", real_height=np.float64(1.5), real_width=1.8, init_longitudinal=30
        )
        assert type(actor.real_height) is np.float64
        assert type(actor.init_longitudinal) is float and actor.init_longitudinal == 30.0
        camera = CameraSpec(focal_px=1000, frame_width=1280, frame_height=720, fps=24)
        assert camera == CameraSpec(**CAMERA) and type(camera.focal_px) is float
        assert type(RuleConfig(c_los=640).c_los) is float


class TestWrite:
    """A record is written under the keys it is read from."""

    @pytest.mark.parametrize("record", WRITTEN, ids=lambda r: type(r).__name__)
    def test_round_trip(self, record):
        assert read_record(type(record), json.loads(json.dumps(record.to_dict()))) == record
