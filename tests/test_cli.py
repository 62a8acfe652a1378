"""CLI tests: every subcommand exercised in-process through main()."""

import functools
import hashlib
import json
import re
import time
from importlib import resources

import pytest

from nearcrash import pipeline
from nearcrash.cli import main
from nearcrash.evaluation import make_report

from conftest import load_bundled_scenario
from test_evaluation import TAMPERED_REPORTS
from test_pipeline import lockstep


def run_cli(*argv):
    return main(list(argv))


# JSON literals that are not finite numbers: json.loads takes all four, the
# last as an integer past float range
NON_FINITE = ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="400_digit_int")]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def simulate(workdir, name, video_id="default", delta="3.0"):
    detections = workdir / f"{name}.jsonl"
    labels = workdir / f"{name}_labels.json"
    code = run_cli(
        "simulate",
        f"builtin:{name}",
        "--out-detections", str(detections),
        "--out-labels", str(labels),
        "--video-id", video_id,
        "--delta", delta,
    )
    assert code == 0
    return detections, labels


class TestSimulate:
    def test_head_on_produces_one_label(self, workdir):
        detections, labels = simulate(workdir, "head_on")
        assert len(json.loads(labels.read_text())) == 1
        assert len(detections.read_text().splitlines()) == 72

    def test_safe_scenarios_produce_no_labels(self, workdir):
        for name in ("adjacent_pass", "receding", "truncated_oncoming"):
            _, labels = simulate(workdir, name)
            assert json.loads(labels.read_text()) == []

    def test_invalid_scenario_writes_nothing(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{broken")
        code = run_cli(
            "simulate", str(bad),
            "--out-detections", str(workdir / "d.jsonl"),
            "--out-labels", str(workdir / "l.json"),
        )
        assert code == 2
        assert not (workdir / "d.jsonl").exists()
        assert not (workdir / "l.json").exists()

    def test_misspelt_scenario_key_is_input_error(self, workdir, capsys):
        spec = workdir / "spec.json"
        obj = json.loads(
            resources.files("nearcrash").joinpath("scenarios/cut_in.json").read_text()
        )
        obj["actors"][0]["init_laterl"] = obj["actors"][0].pop("init_lateral")
        spec.write_text(json.dumps(obj))
        code = run_cli(
            "simulate", str(spec),
            "--out-detections", str(workdir / "d.jsonl"),
            "--out-labels", str(workdir / "l.json"),
        )
        assert code == 2
        assert "actors[0].init_laterl: unknown field" in capsys.readouterr().err
        assert not (workdir / "d.jsonl").exists()

    def test_unknown_builtin(self, workdir):
        code = run_cli(
            "simulate", "builtin:nope",
            "--out-detections", str(workdir / "d.jsonl"),
            "--out-labels", str(workdir / "l.json"),
        )
        assert code == 2

    def test_deterministic_output_bytes(self, workdir):
        d1, _ = simulate(workdir, "cut_in")
        first = d1.read_bytes()
        d2, _ = simulate(workdir, "cut_in")
        assert d2.read_bytes() == first


# sha256 of (events.json, annotations.jsonl) for each bundled scenario, run
# with --debug-annotations on its own frame size; a change that alters these
# outputs on purpose updates the values and lists each one in CHANGES.md
PINNED_OUTPUTS = {
    "head_on": (
        "52a76b6fc0c89dff0784795572a9bc13401ad940f0ad1e7e17d8123cad4ec975",
        "b4ee12b8901c17ab519d66cd70cdf4663fe5a22e9945d3e5407129e9eed92a54",
    ),
    "cut_in": (
        "fc6840dcd940d2d574852d81025733aedcf7357141e0f4eea2234a7154ab01f4",
        "c6cfb025b716d15d60b28b46c477eb0665c3695a6682b1c9f92acbb023dd55b6",
    ),
    "jaywalking_pedestrian": (
        "85fadc4c16d34c9b3f3ac88923f798343971494e39b505d0eed9f05ed657add3",
        "d00fe8826fcbb2b02c2ffad3c7f3ad7470933658136178a8a8e01f681dc0d8ea",
    ),
    "adjacent_pass": (
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "b5805f55e98b177e2f189d01c632a0571750b03a7eef371a7d576f0444268f56",
    ),
    "receding": (
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "9f8812606f93af337f80ecc0408b0b3f6ecf60cee9173087261ffb9446997340",
    ),
    "truncated_oncoming": (
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "6fe1dbc0ccd99928705ef48f5ed889de577fec48ab8b1b73047c4280e5e5d36a",
    ),
}


class TestBundledOutputs:
    """A refactor keeps every bundled scenario's outputs byte for byte."""

    @pytest.mark.parametrize("name", PINNED_OUTPUTS)
    def test_outputs_match_pinned_digests(self, workdir, name):
        detections, _ = simulate(workdir, name)
        camera = load_bundled_scenario(name).camera
        out_dir = workdir / "out"
        code = run_cli(
            "run", str(detections), "--out-dir", str(out_dir), "--debug-annotations",
            "--camera.frame_width", str(camera.frame_width),
            "--camera.frame_height", str(camera.frame_height),
        )
        assert code == 0
        for file, pinned in zip(("events.json", "annotations.jsonl"), PINNED_OUTPUTS[name]):
            digest = hashlib.sha256((out_dir / file).read_bytes()).hexdigest()
            assert digest == pinned, f"{name}: {file} differs from its pinned output"


class TestRunAndEval:
    def test_round_trip_f1_is_one(self, workdir, capsys):
        detections, labels = simulate(workdir, "head_on")
        out_dir = workdir / "out"
        assert run_cli("run", str(detections), "--out-dir", str(out_dir)) == 0
        events = json.loads((out_dir / "events.json").read_text())
        assert len(events) == 1
        code = run_cli(
            "eval",
            "--predictions", str(out_dir / "events.json"),
            "--ground-truth", str(labels),
            "--throughput", str(out_dir / "throughput.json"),
            "--out", str(workdir / "report.json"),
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "1.000" in table
        report = json.loads((workdir / "report.json").read_text())
        assert report["f1"] == 1.0
        assert report["fps"] > 0

    def test_config_overrides_change_behavior(self, workdir):
        detections, _ = simulate(workdir, "head_on")
        out_dir = workdir / "strict"
        # a 0.2 s height threshold is stricter than the stream ever reaches
        code = run_cli(
            "run", str(detections),
            "--out-dir", str(out_dir),
            "--rules.delta", "0.2",
            "--rules.phi", "0.45",
        )
        assert code == 0
        assert json.loads((out_dir / "events.json").read_text()) == []

    def test_live_mode_with_slow_consumer_drops(self, workdir, monkeypatch):
        detections, _ = simulate(workdir, "head_on")
        out_dir = workdir / "live"
        slow = functools.partial(pipeline.run, on_frame=lambda frame: time.sleep(0.02))
        monkeypatch.setattr(pipeline, "run", slow)
        code = run_cli(
            "run", str(detections),
            "--out-dir", str(out_dir),
            "--pipeline.mode", "live",
        )
        assert code == 0
        report = json.loads((out_dir / "throughput.json").read_text())
        assert report["frames_dropped"] > 0
        assert (
            report["frames_processed"] + report["frames_dropped"]
            == report["frames_produced"]
        )

    def test_debug_annotations_written(self, workdir):
        detections, _ = simulate(workdir, "head_on")
        out_dir = workdir / "dbg"
        assert run_cli(
            "run", str(detections), "--out-dir", str(out_dir), "--debug-annotations"
        ) == 0
        lines = (out_dir / "annotations.jsonl").read_text().splitlines()
        assert len(lines) == 72
        parsed = json.loads(lines[30])
        assert "tracks" in parsed and parsed["tracks"][0]["ttc_h"] is not None

    def test_missing_gps_means_null_event_gps(self, workdir):
        detections, _ = simulate(workdir, "head_on")
        out_dir = workdir / "nogps"
        assert run_cli("run", str(detections), "--out-dir", str(out_dir)) == 0
        events = json.loads((out_dir / "events.json").read_text())
        assert events[0]["gps"] is None
        assert not (out_dir / "trajectory.csv").exists()

    def test_bad_config_is_input_error(self, workdir):
        detections, _ = simulate(workdir, "head_on")
        code = run_cli(
            "run", str(detections),
            "--out-dir", str(workdir / "x"),
            "--rules.delta", "-1",
        )
        assert code == 2

    @pytest.mark.parametrize("flags", [(), ("--rules.delta", "2")])
    def test_non_object_config_section_is_input_error(self, workdir, capsys, flags):
        # a flag for the section must not turn the rejection into a crash
        detections, _ = simulate(workdir, "head_on")
        config = workdir / "config.json"
        config.write_text('{"rules": 5}')
        code = run_cli(
            "run", str(detections), "--config", str(config), "--out-dir", str(workdir / "x"), *flags
        )
        assert code == 2
        assert "rules: expected an object" in capsys.readouterr().err

    def test_malformed_stream_is_input_error(self, workdir):
        bad = workdir / "bad.jsonl"
        bad.write_text('{"frame_id": 0}\n')
        code = run_cli("run", str(bad), "--out-dir", str(workdir / "x"))
        assert code == 2

    @pytest.mark.parametrize(
        "bad",
        [
            '"frame_id": 1, "t_seconds": NaN, "detections": []',
            '"frame_id": 1, "t_seconds": Infinity, "detections": []',
            '"frame_id": 1, "t_seconds": 0.1, "detections": [{"class": "vehicle", '
            '"confidence": 1.0, "x1": 1.0, "y1": 1.0, "x2": Infinity, "y2": 9.0}]',
            '"frame_id": 5.7, "t_seconds": 0.1, "detections": []',
            '"frame_id": true, "t_seconds": 0.1, "detections": []',
            '"frame_id": "7", "t_seconds": 0.1, "detections": []',
            '"frame_id": 1, "t_seconds": true, "detections": []',
            '"frame_id": 1, "t_seconds": 1' + "0" * 400 + ', "detections": []',
            '"frame_id": 1, "t_seconds": 0.1, "detections": [{"class": "vehicle", '
            '"confidence": 1.5, "x1": 1.0, "y1": 1.0, "x2": 5.0, "y2": 9.0}]',
        ],
        ids=["nan_t", "infinite_t", "infinite_box_edge", "float_frame_id", "bool_frame_id",
             "string_frame_id", "bool_t", "overflowing_int_t", "confidence_above_one"],
    )
    def test_non_finite_stream_value_is_input_error(self, workdir, capsys, bad):
        stream = workdir / "bad.jsonl"
        stream.write_text('{"frame_id": 0, "t_seconds": 0.0, "detections": []}\n'
                          f'{{{bad}}}\n')
        assert run_cli("run", str(stream), "--out-dir", str(workdir / "x")) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"class": 3}, "class: expected a string, got 3"),
            ({"confidence": "0.9"}, "confidence: expected a finite number, got '0.9'"),
            ({"x1": "10"}, "x1: expected a finite number, got '10'"),
            ({"x2": True}, "x2: expected a finite number, got True"),
            ({"y2": 10**400}, "y2: expected a finite number, got 1000"),
        ],
        ids=["numeric_class", "string_confidence", "string_box_edge", "bool_box_edge",
             "overflowing_int_box_edge"],
    )
    def test_detection_value_is_not_coerced(self, workdir, capsys, edit, message):
        good = {"class": "vehicle", "confidence": 0.9, "x1": 10.0, "y1": 20.0, "x2": 30.0, "y2": 40.0}
        frames = [{"frame_id": k, "t_seconds": k / 24, "detections": [good]} for k in range(2)]
        frames.append({"frame_id": 2, "t_seconds": 2 / 24, "detections": [good, {**good, **edit}]})
        stream = workdir / "bad.jsonl"
        stream.write_text("".join(json.dumps(frame) + "\n" for frame in frames))
        assert run_cli("run", str(stream), "--out-dir", str(workdir / "x")) == 2
        assert f"error: line 3: detections[1].{message}" in capsys.readouterr().err

    def test_malformed_line_mid_stream_writes_nothing(self, workdir, capsys):
        detections, _ = simulate(workdir, "head_on")
        lines = detections.read_text().splitlines()
        detections.write_text("\n".join(lines[:50] + ['{"frame_id": 50}'] + lines[51:]) + "\n")
        out_dir = workdir / "x"
        assert run_cli("run", str(detections), "--out-dir", str(out_dir)) == 2
        assert "line 51" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "failure, flags, code, message",
        [
            ("engine_exception", (), 3, "runtime error: engine failed"),
            ("engine_exception", ("--debug-annotations",), 3, "runtime error: engine failed"),
            ("malformed_line", ("--debug-annotations",), 2, "error: line 51: "),
        ],
        ids=["exception", "exception_annotated", "malformed_line_annotated"],
    )
    def test_failed_offline_run_leaves_no_output(
        self, workdir, capsys, monkeypatch, failure, flags, code, message
    ):
        # annotations are written as frames are processed, and taken back on failure
        detections, _ = simulate(workdir, "head_on")
        out_dir = workdir / "x"
        annotated_mid_run = []
        if failure == "malformed_line":
            lines = detections.read_text().splitlines()
            detections.write_text("\n".join(lines[:50] + ['{"frame_id": 50}'] + lines[51:]) + "\n")
        else:
            run = pipeline.run

            def failing_run(source, cfg, **kwargs):
                def hook(frame):
                    if frame.frame_id == 40:
                        annotated_mid_run.append((out_dir / "annotations.jsonl").exists())
                        raise RuntimeError("engine failed")

                return run(source, cfg, on_frame=hook, **kwargs)

            monkeypatch.setattr(pipeline, "run", failing_run)
        assert run_cli("run", str(detections), "--out-dir", str(out_dir), *flags) == code
        assert capsys.readouterr().err.startswith(message)
        assert list(out_dir.iterdir()) == []
        if failure == "engine_exception":
            assert annotated_mid_run == [bool(flags)]

    @pytest.mark.parametrize("mode, code", [("offline", 2), ("live", 3)])
    def test_undecodable_bytes_are_a_malformed_stream(
        self, workdir, capsys, monkeypatch, mode, code
    ):
        # the byte makes line 31 malformed; live keeps the 30 frames before it
        detections, _ = simulate(workdir, "head_on")
        lines = detections.read_bytes().splitlines(keepends=True)
        detections.write_bytes(b"".join(lines[:30]) + b"\xff" + b"".join(lines[30:]))
        run = pipeline.run

        def paced_run(source, cfg, **kwargs):  # no frame dropped, so the trigger is seen
            source, step = lockstep(source)
            return run(source, cfg, on_frame=step, **kwargs)

        monkeypatch.setattr(pipeline, "run", paced_run)
        out_dir = workdir / mode
        assert run_cli(
            "run", str(detections), "--out-dir", str(out_dir), "--pipeline.mode", mode
        ) == code
        assert "line 31: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        if mode == "offline":
            assert list(out_dir.iterdir()) == []
        else:
            report = json.loads((out_dir / "throughput.json").read_text())
            assert report["frames_produced"] == report["frames_processed"] == 30
            assert len(json.loads((out_dir / "events.json").read_text())) == 1

    @pytest.mark.parametrize("mode", ["offline", "live"])
    def test_torn_last_line_keeps_earlier_frames(self, workdir, capsys, mode):
        # a recording cut mid-write: line 72 lost its tail and its newline
        detections, _ = simulate(workdir, "head_on")
        detections.write_bytes(detections.read_bytes()[:-40])
        out_dir = workdir / mode
        code = run_cli(
            "run", str(detections), "--out-dir", str(out_dir), "--pipeline.mode", mode
        )
        assert code == 0
        assert "warning: torn last line ignored: line 72" in capsys.readouterr().err
        report = json.loads((out_dir / "throughput.json").read_text())
        assert report["torn_lines"] == 1
        assert report["frames_produced"] == 71
        assert report["frames_processed"] + report["frames_dropped"] == 71
        events = json.loads((out_dir / "events.json").read_text())
        if mode == "offline":  # live may drop frames around the trigger
            assert len(events) == 1

    def test_eval_matches_field_result_numbers(self, workdir, capsys):
        preds = [{"video_id": f"v{i}", "time": 10.0} for i in range(34 + 7)]
        gts = [{"video_id": f"v{i}", "time": 12.0} for i in range(34)]
        gts.append({"video_id": "missed", "time": 50.0})
        (workdir / "p.json").write_text(json.dumps(preds))
        (workdir / "g.json").write_text(json.dumps(gts))
        code = run_cli(
            "eval",
            "--predictions", str(workdir / "p.json"),
            "--ground-truth", str(workdir / "g.json"),
            "--n-videos", "100",
        )
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[-1]
        cells = [c.strip() for c in row.split("|")]
        assert cells[:6] == ["100", "35", "34", "7", "1", "0.895"]

    @pytest.mark.parametrize("literal", NON_FINITE)
    def test_eval_rejects_non_finite_event_time(self, workdir, capsys, literal):
        (workdir / "p.json").write_text(f'[{{"trigger_time": {literal}}}]')
        (workdir / "g.json").write_text('[{"time": 1.0}]')
        code = run_cli(
            "eval",
            "--predictions", str(workdir / "p.json"),
            "--ground-truth", str(workdir / "g.json"),
        )
        assert code == 2
        assert "event 0:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "event", [{"video_id": 7, "time": 1.5}, {"time": "1.5"}, {"trigger_time": True}]
    )
    def test_eval_rejects_coercible_event_fields(self, workdir, capsys, event):
        (workdir / "p.json").write_text(json.dumps([{"time": 1.0}, event]))
        (workdir / "g.json").write_text('[{"time": 1.0}]')
        code = run_cli(
            "eval",
            "--predictions", str(workdir / "p.json"),
            "--ground-truth", str(workdir / "g.json"),
        )
        assert code == 2
        assert "event 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("fps", ['"24"', "true", "null", "1e400", *NON_FINITE])
    def test_eval_rejects_non_number_achieved_fps(self, workdir, capsys, fps):
        (workdir / "p.json").write_text('[{"time": 1.0}]')
        (workdir / "t.json").write_text(f'{{"achieved_fps": {fps}}}')
        code = run_cli(
            "eval",
            "--predictions", str(workdir / "p.json"),
            "--ground-truth", str(workdir / "p.json"),
            "--throughput", str(workdir / "t.json"),
        )
        assert code == 2
        assert "achieved_fps: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["report", "bad_report.json"], "fps"),
            (["eval", "--predictions", "p.json", "--ground-truth", "p.json",
              "--throughput", "bad_t.json"], "achieved_fps"),
            (["report", "report.json", "--throughput", "bad_t.json"], "achieved_fps"),
        ],
        ids=["report", "eval_throughput", "report_throughput"],
    )
    def test_negative_frame_rate_is_rejected(self, workdir, capsys, argv, field):
        report = make_report(tp=1, fp=0, fn=0, n_videos=1, n_events=1).to_dict()
        (workdir / "report.json").write_text(json.dumps(report))
        (workdir / "bad_report.json").write_text(json.dumps({**report, "fps": -5.0}))
        (workdir / "p.json").write_text('[{"time": 1.0}]')
        (workdir / "bad_t.json").write_text('{"achieved_fps": -3.0}')
        assert run_cli(*argv) == 2
        assert f"{field}: must be >= 0" in capsys.readouterr().err

    def test_eval_takes_integer_achieved_fps(self, workdir, capsys):
        (workdir / "p.json").write_text('[{"time": 1.0}]')
        (workdir / "t.json").write_text('{"achieved_fps": 24}')
        code = run_cli(
            "eval",
            "--predictions", str(workdir / "p.json"),
            "--ground-truth", str(workdir / "p.json"),
            "--throughput", str(workdir / "t.json"),
        )
        assert code == 0
        assert "24.0" in capsys.readouterr().out

    @pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn_tail"])
    def test_throughput_file_reads_back(self, workdir, capsys, torn):
        # every key `run` writes must be declared on ThroughputReport
        detections, labels = simulate(workdir, "head_on")
        if torn:
            detections.write_bytes(detections.read_bytes()[:-40])
        out_dir = workdir / "out"
        assert run_cli("run", str(detections), "--out-dir", str(out_dir)) == 0
        throughput = json.loads((out_dir / "throughput.json").read_text())
        assert throughput["torn_lines"] == int(torn)
        capsys.readouterr()
        code = run_cli(
            "eval",
            "--predictions", str(out_dir / "events.json"),
            "--ground-truth", str(labels),
            "--throughput", str(out_dir / "throughput.json"),
        )
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[-1]
        assert row.split("|")[-1].strip() == f"{throughput['achieved_fps']:.1f}"

    def test_unknown_throughput_key_names_file(self, workdir, capsys):
        (workdir / "p.json").write_text('[{"time": 1.0}]')
        (workdir / "t.json").write_text('{"achieved_fps": 24, "fps": 24}')
        code = run_cli(
            "eval",
            "--predictions", str(workdir / "p.json"),
            "--ground-truth", str(workdir / "p.json"),
            "--throughput", str(workdir / "t.json"),
        )
        assert code == 2
        assert f"{workdir / 't.json'}: fps: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "--window", "-5"], "window must be a finite number >= 0, got -5.0"),
            (["eval", "--window", "nan"], "window must be a finite number >= 0, got nan"),
            (["eval", "--n-videos", "-3"], "n_videos: expected a count >= 0, got -3"),
            (
                ["simulate", "builtin:head_on", "--delta", "nan"],
                "delta must be a finite number > 0, got nan",
            ),
            (
                ["simulate", "builtin:head_on", "--delta", "inf"],
                "delta must be a finite number > 0, got inf",
            ),
        ],
        ids=["negative_window", "nan_window", "negative_n_videos", "nan_delta", "infinite_delta"],
    )
    def test_bad_number_flag_is_an_input_error(self, workdir, capsys, argv, message):
        (workdir / "p.json").write_text('[{"time": 1.0}]')
        files = {
            "eval": ["--predictions", "p.json", "--ground-truth", "p.json"],
            "simulate": ["--out-detections", "d.jsonl", "--out-labels", "l.json"],
        }
        assert run_cli(*argv, *files[argv[0]]) == 2
        assert message in capsys.readouterr().err
        assert not (workdir / "d.jsonl").exists()


class TestNonFiniteNumbers:
    """Each JSON reader rejects a number that is not finite, with its path."""

    @pytest.mark.parametrize("literal", NON_FINITE)
    def test_config_file(self, workdir, capsys, literal):
        detections, _ = simulate(workdir, "head_on")
        (workdir / "c.json").write_text(f'{{"rules": {{"delta": {literal}}}}}')
        code = run_cli(
            "run", str(detections), "--config", str(workdir / "c.json"),
            "--out-dir", str(workdir / "x"),
        )
        assert code == 2
        assert "rules.delta: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", NON_FINITE)
    def test_run_flag(self, workdir, capsys, literal):
        detections, _ = simulate(workdir, "head_on")
        code = run_cli(
            "run", str(detections), "--out-dir", str(workdir / "x"), f"--rules.c_los={literal}"
        )
        assert code == 2
        assert "rules.c_los: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", NON_FINITE)
    def test_gps_flag(self, workdir, capsys, literal):
        (workdir / "fixes.csv").write_text("t,lat_raw,lon_raw\n0,0,0\n")
        code = run_cli(
            "gps", str(workdir / "fixes.csv"), "--out-dir", str(workdir / "g"),
            f"--gps.lat_offset={literal}",
        )
        assert code == 2
        assert "gps.lat_offset: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", NON_FINITE)
    def test_scenario(self, workdir, capsys, literal):
        obj = json.loads(
            resources.files("nearcrash").joinpath("scenarios/cut_in.json").read_text()
        )
        obj["actors"][0]["vel_lateral"] = json.loads(literal)
        (workdir / "spec.json").write_text(json.dumps(obj))
        code = run_cli(
            "simulate", str(workdir / "spec.json"),
            "--out-detections", str(workdir / "d.jsonl"),
            "--out-labels", str(workdir / "l.json"),
        )
        assert code == 2
        assert "actors[0].vel_lateral: expected a finite number" in capsys.readouterr().err
        assert not (workdir / "d.jsonl").exists()


class TestJsonInputFiles:
    """Every JSON input file is read by one reader, and its errors name the file."""

    @pytest.fixture
    def inputs(self, workdir):
        (workdir / "d.jsonl").write_text("")
        (workdir / "fixes.csv").write_text("t,lat_raw,lon_raw\n0,0,0\n")
        (workdir / "p.json").write_text('[{"time": 1.0}]')
        (workdir / "t.json").write_text('{"achieved_fps": 24}')
        report = make_report(tp=1, fp=0, fn=0, n_videos=1, n_events=1)
        (workdir / "report.json").write_text(json.dumps(report.to_dict()))
        return workdir

    @pytest.mark.parametrize("content", [b"{bad", b'["\xff"]'], ids=["syntax", "not_utf8"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "d.jsonl", "--out-dir", "out", "--config", "bad.json"],
            ["simulate", "bad.json", "--out-detections", "o.jsonl", "--out-labels", "o.json"],
            ["eval", "--predictions", "bad.json", "--ground-truth", "p.json"],
            ["eval", "--predictions", "p.json", "--ground-truth", "bad.json"],
            ["eval", "--predictions", "p.json", "--ground-truth", "p.json",
             "--throughput", "bad.json"],
            ["report", "bad.json"],
            ["report", "report.json", "--throughput", "bad.json"],
            ["gps", "fixes.csv", "--out-dir", "out", "--events", "bad.json"],
        ],
        ids=[
            "config", "scenario", "predictions", "ground_truth", "eval_throughput", "report",
            "report_throughput", "gps_events",
        ],
    )
    def test_invalid_json_names_file(self, inputs, capsys, argv, content):
        (inputs / "bad.json").write_bytes(content)
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("error: bad.json: invalid JSON (")
        assert not (inputs / "out").exists() and not (inputs / "o.jsonl").exists()

    @pytest.mark.parametrize(
        "predictions, ground_truth", [("bad.json", "p.json"), ("p.json", "bad.json")]
    )
    def test_bad_event_names_its_file(self, inputs, capsys, predictions, ground_truth):
        (inputs / "bad.json").write_text('[{"time": "x"}]')
        assert run_cli("eval", "--predictions", predictions, "--ground-truth", ground_truth) == 2
        err = capsys.readouterr().err
        assert err == "error: bad.json: event 0: time: expected a finite number, got 'x'\n"


class TestGpsCommand:
    def test_conversion_and_geojson(self, workdir, capsys):
        csv = workdir / "fixes.csv"
        csv.write_text("t,lat_raw,lon_raw\n0,0,0\n3,0.001,0.001\n")
        out_dir = workdir / "gpsout"
        assert run_cli("gps", str(csv), "--out-dir", str(out_dir)) == 0
        geo = json.loads((out_dir / "trajectory.geojson").read_text())
        assert geo["features"][0]["geometry"]["coordinates"][0] == [81.25186, -31.30174]
        rows = (out_dir / "trajectory.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 fixes: exactly one speed value
        assert rows[1].endswith(",")
        assert float(rows[2].rsplit(",", 1)[1]) > 0

    def test_empty_csv_empty_collection(self, workdir):
        csv = workdir / "empty.csv"
        csv.write_text("t,lat_raw,lon_raw\n")
        out_dir = workdir / "emptyout"
        assert run_cli("gps", str(csv), "--out-dir", str(out_dir)) == 0
        geo = json.loads((out_dir / "trajectory.geojson").read_text())
        assert geo == {"type": "FeatureCollection", "features": []}

    def test_malformed_rows_warned_and_counted(self, workdir, capsys):
        csv = workdir / "fixes.csv"
        csv.write_text("t,lat_raw,lon_raw\n0,0,0\nnope,0,0\n")
        out_dir = workdir / "warnout"
        assert run_cli("gps", str(csv), "--out-dir", str(out_dir)) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "1 rows skipped" in captured.out

    def test_shuffled_fixes_sampled_as_by_run(self, workdir, capsys):
        # the same trajectory from `gps` and from `run --gps`, with every
        # out-of-order row reported
        order = [6, 9, 0, 3, 11, 2, 8, 5, 1, 10, 7, 4]
        csv = workdir / "shuffled.csv"
        csv.write_text("t,lat_raw,lon_raw\n" + "".join(f"{t},0,{t / 1000}\n" for t in order))
        detections, _ = simulate(workdir, "head_on")
        assert run_cli("gps", str(csv), "--out-dir", str(workdir / "gpsout")) == 0
        captured = capsys.readouterr()
        assert "kept 4 of 12 fixes" in captured.out
        warned = [line.split(":")[1].strip() for line in captured.err.splitlines()]
        assert warned == [f"row {r}" for r in (4, 5, 7, 8, 9, 10, 11, 12, 13)]
        code = run_cli(
            "run", str(detections), "--gps", str(csv), "--out-dir", str(workdir / "runout")
        )
        assert code == 0
        gps_csv = (workdir / "gpsout" / "trajectory.csv").read_text()
        assert gps_csv == (workdir / "runout" / "trajectory.csv").read_text()
        kept = [line.split(",")[0] for line in gps_csv.splitlines()[1:]]
        assert kept == ["0.0", "3.0", "6.0", "9.0"]

    def test_takes_only_gps_flags(self, workdir, capsys):
        # gps reads no other config section, so it takes no other override flag
        (workdir / "fixes.csv").write_text("t,lat_raw,lon_raw\n0,0,0\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("gps", str(workdir / "fixes.csv"), "--out-dir", str(workdir / "g"),
                    "--rules.delta", "2")
        assert exc.value.code == 2
        assert "unrecognized arguments: --rules.delta 2" in capsys.readouterr().err
        assert not (workdir / "g").exists()
        detections, _ = simulate(workdir, "head_on")
        assert run_cli("run", str(detections), "--out-dir", str(workdir / "r"),
                       "--rules.delta", "2") == 0

    def test_event_overlay(self, workdir):
        csv = workdir / "fixes.csv"
        csv.write_text("t,lat_raw,lon_raw\n0,0,0\n")
        events = [{"event_id": 1, "gps": {"lat": 1.0, "lon": 2.0}, "trigger_time": 3.0}]
        (workdir / "events.json").write_text(json.dumps(events))
        out_dir = workdir / "overlay"
        assert run_cli(
            "gps", str(csv), "--out-dir", str(out_dir), "--events",
            str(workdir / "events.json"),
        ) == 0
        geo = json.loads((out_dir / "events.geojson").read_text())
        assert geo["features"][0]["geometry"]["coordinates"] == [2.0, 1.0]

    @pytest.mark.parametrize(
        "events, message",
        [
            pytest.param('{"gps": null}', "expected a JSON array of events", id="not_array"),
            pytest.param("[5]", "event 0: expected an object", id="int_entry"),
            pytest.param(
                '[{"gps": 5}]', "event 0: gps: expected an object or null", id="number_gps"
            ),
            pytest.param(
                '[{"gps": null}, {"gps": {"lat": "north", "lon": 1}}]',
                "event 1: gps.lat: expected a finite number, got 'north'",
                id="string_lat",
            ),
            *[
                pytest.param(
                    f'[{{"gps": {{"lat": 1.0, "lon": {literal}}}}}]',
                    "event 0: gps.lon: expected a finite number",
                    id=f"lon_{name}",
                )
                for literal, name in (
                    (p, p) if isinstance(p, str) else (p.values[0], p.id) for p in NON_FINITE
                )
            ],
        ],
    )
    def test_event_overlay_rejects_malformed_entries(self, workdir, capsys, events, message):
        (workdir / "fixes.csv").write_text("t,lat_raw,lon_raw\n0,0,0\n")
        (workdir / "events.json").write_text(events)
        out_dir = workdir / "overlay"
        code = run_cli(
            "gps", str(workdir / "fixes.csv"), "--out-dir", str(out_dir),
            "--events", str(workdir / "events.json"),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()  # rejected before anything is written

    def test_run_event_gps_feeds_overlay(self, workdir):
        # an event's gps is the fix {lat, lon, t}, and `gps --events` maps it
        detections, _ = simulate(workdir, "head_on")
        csv = workdir / "fixes.csv"
        csv.write_text("t,lat_raw,lon_raw\n0,28,-41\n0.5,28.001,-41.001\n")
        assert run_cli(
            "run", str(detections), "--gps", str(csv), "--out-dir", str(workdir / "r")
        ) == 0
        [event] = json.loads((workdir / "r" / "events.json").read_text())
        assert set(event["gps"]) == {"lat", "lon", "t"}
        assert event["gps"]["t"] == 0.5
        assert run_cli(
            "gps", str(csv), "--out-dir", str(workdir / "g"),
            "--events", str(workdir / "r" / "events.json"),
        ) == 0
        [point] = json.loads((workdir / "g" / "events.geojson").read_text())["features"]
        assert point["geometry"] == {
            "type": "Point", "coordinates": [event["gps"]["lon"], event["gps"]["lat"]]
        }


class TestReportCommand:
    def test_renders_saved_report(self, workdir, capsys):
        report = {
            "n_videos": 100, "n_events": 35, "tp": 34, "fp": 7, "fn": 1,
            "precision": 34 / 41, "recall": 34 / 35, "f1": 68 / 76, "fps": 18.0,
        }
        (workdir / "r.json").write_text(json.dumps(report))
        assert run_cli("report", str(workdir / "r.json")) == 0
        out = capsys.readouterr().out
        assert "0.895" in out and "18.0" in out

    def test_missing_file_is_input_error(self, workdir):
        assert run_cli("report", str(workdir / "absent.json")) == 2

    @pytest.mark.parametrize("changes, message", TAMPERED_REPORTS)
    def test_inconsistent_report_is_input_error(self, workdir, capsys, changes, message):
        report = make_report(34, 7, 1, n_videos=100, n_events=35).to_dict()
        report.update(changes)
        (workdir / "r.json").write_text(json.dumps(report))
        assert run_cli("report", str(workdir / "r.json")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.match(message, captured.err.removeprefix(f"error: {workdir / 'r.json'}: "))

    def test_eval_report_round_trip(self, workdir, capsys):
        preds = [{"video_id": "a", "time": t} for t in (1.0, 30.0, 60.0)]
        truth = [{"video_id": "a", "time": t} for t in (2.0, 31.0, 90.0, 120.0)]
        (workdir / "p.json").write_text(json.dumps(preds))
        (workdir / "g.json").write_text(json.dumps(truth))
        args = ("--predictions", "p.json", "--ground-truth", "g.json", "--out", "r.json")
        assert run_cli("eval", *args) == 0
        table = capsys.readouterr().out
        assert run_cli("report", "r.json") == 0
        assert capsys.readouterr().out == table

    def test_string_achieved_fps_is_input_error(self, workdir, capsys):
        report = make_report(34, 7, 1, n_videos=100, n_events=35)
        (workdir / "r.json").write_text(json.dumps(report.to_dict()))
        (workdir / "t.json").write_text('{"achieved_fps": "18"}')
        assert run_cli("report", str(workdir / "r.json"), "--throughput", str(workdir / "t.json")) == 2
        assert "achieved_fps" in capsys.readouterr().err


class TestHelp:
    def test_help_exits_zero_and_writes_nothing(self, workdir):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        assert list(workdir.iterdir()) == []

