"""Command-line entry point.

Subcommands: simulate (scenario -> detection stream + oracle labels),
run (detection stream -> events/trajectory/throughput), eval (score
predictions against ground truth), gps (convert and export trajectories),
report (render a saved evaluation report).

Exit codes: 0 success, 2 input error, 3 runtime error. `run` passes the
stream to `pipeline.run`, writes annotations as frames are processed, and
writes what the run returns, torn tail included.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import ExitStack
from functools import partial
from importlib import resources
from pathlib import Path
from typing import List, Optional, Sequence

from . import config as config_mod
from . import evaluation, gps as gps_mod, pipeline, sim, streams
from .config import ConfigError, RuleConfig, read_file, read_record


def _parse_flag_value(text: str):
    # numbers, booleans, and null parse as JSON; anything else is a string
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _add_override_flags(parser: argparse.ArgumentParser, section: Optional[str] = None) -> None:
    """A flag per config field, or per field of `section` alone."""
    names = [d for d in config_mod.override_flags() if section in (None, d.split(".")[0])]
    example = f"--{names[0]} VALUE" if section else "--rules.delta 2.5 or --pipeline.mode live"
    group = parser.add_argument_group(
        "config overrides",
        f"every {section or 'config'} field is a flag of its dotted name, e.g. {example} "
        "(fields: nearcrash.config.DEFAULTS)",
    )
    for dotted in names:
        group.add_argument(f"--{dotted}", metavar="VALUE", help=argparse.SUPPRESS)


def _collect_overrides(args: argparse.Namespace) -> dict:
    given = {d: getattr(args, d, None) for d in config_mod.override_flags()}
    return {d: _parse_flag_value(v) for d, v in given.items() if v is not None}


def _write_json(path: Path, obj, sort_keys: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(obj, fp, indent=2, sort_keys=sort_keys)
        fp.write("\n")


def _write_annotation(fp, summary: pipeline.FrameSummary) -> None:
    fp.write(json.dumps(summary.to_dict(), sort_keys=True))
    fp.write("\n")


def _write_trajectory(
    fixes: Sequence[gps_mod.GpsFix], period: float, out_dir: Path
) -> List[gps_mod.GpsFix]:
    """Sample fixes every `period` seconds into trajectory.csv and .geojson."""
    kept = gps_mod.sample_trajectory(fixes, period)
    with open(out_dir / "trajectory.csv", "w", encoding="utf-8", newline="") as fp:
        gps_mod.write_trajectory_csv(kept, fp)
    _write_json(out_dir / "trajectory.geojson", gps_mod.trajectory_geojson(kept), sort_keys=False)
    return kept


def _read_fps(path: str) -> float:
    return read_file(path, partial(read_record, pipeline.ThroughputReport)).achieved_fps


def _load_scenario(spec_arg: str) -> sim.ScenarioSpec:
    if not spec_arg.startswith("builtin:"):
        return read_file(spec_arg, sim.ScenarioSpec.from_dict)
    name = spec_arg[len("builtin:"):]
    ref = resources.files("nearcrash").joinpath(f"scenarios/{name}.json")
    if not ref.is_file():
        raise ValueError(f"no bundled scenario named {name!r}")
    with resources.as_file(ref) as path:
        return read_file(path, sim.ScenarioSpec.from_dict)


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        scenario = _load_scenario(args.scenario)
        frames = sim.generate_detections(scenario)
        labels = sim.label_ground_truth_events(scenario, args.delta)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # all outputs are generated before anything is written
    with open(args.out_detections, "w", encoding="utf-8") as fp:
        streams.write_detection_stream(frames, fp)
    _write_json(
        Path(args.out_labels), [{"video_id": args.video_id, **lab.to_dict()} for lab in labels]
    )
    print(f"wrote {len(frames)} frames, {len(labels)} ground-truth events")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = config_mod.load_config(args.config, _collect_overrides(args))
        fixes = None
        gps_warnings: List[str] = []
        if args.gps is not None:
            with open(args.gps, "r", encoding="utf-8") as fp:
                fixes, gps_warnings = gps_mod.read_fix_csv(fp, cfg.gps)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        stream_fp = sys.stdin.buffer if args.detections == "-" else open(args.detections, "rb")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for warning in gps_warnings:
        print(f"gps warning: {warning}", file=sys.stderr)

    # both modes read the stream lazily and write annotations as frames are
    # processed, so memory stays bounded on a long drive
    annotations_path = out_dir / "annotations.jsonl"
    failed = True  # until the run returns and its input is accepted
    try:
        with ExitStack() as stack:
            if args.detections != "-":
                stack.enter_context(stream_fp)
            annotation_sink = None
            if args.debug_annotations:
                fp = stack.enter_context(open(annotations_path, "w", encoding="utf-8"))
                annotation_sink = partial(_write_annotation, fp)
            result = pipeline.run(
                streams.read_detection_stream(stream_fp), cfg,
                gps_fixes=fixes, annotation_sink=annotation_sink,
            )
        # offline, a malformed line is an input error and nothing is written;
        # live, it is a source failure that ends the run (exit 3 below)
        failed = (
            isinstance(result.error, streams.StreamFormatError)
            and cfg.pipeline.mode == "offline"
        )
    finally:
        # offline output is all or nothing: no annotations are left after an
        # input error, nor after an exception, which main reports (exit 3)
        if args.debug_annotations and failed:
            annotations_path.unlink(missing_ok=True)
    if failed:
        print(f"error: {result.error}", file=sys.stderr)
        return 2
    if result.torn_line is not None:
        print(f"warning: torn last line ignored: {result.torn_line}", file=sys.stderr)

    _write_json(out_dir / "events.json", [e.to_dict() for e in result.events])
    _write_json(out_dir / "throughput.json", result.report.to_dict())
    if fixes is not None:
        _write_trajectory(fixes, cfg.gps.sample_period, out_dir)

    print(
        f"processed {result.report.frames_processed} frames "
        f"({result.report.frames_dropped} dropped), "
        f"{len(result.events)} events -> {out_dir}"
    )
    if result.error is not None:
        print(f"error: source error: {result.error}", file=sys.stderr)
        return 3
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        predictions = read_file(args.predictions, evaluation.events_from_json)
        ground_truth = read_file(args.ground_truth, evaluation.events_from_json)
        fps = None if args.throughput is None else _read_fps(args.throughput)
        report = evaluation.score(
            predictions, ground_truth, window=args.window, n_videos=args.n_videos, fps=fps
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(evaluation.render_table(report))
    if args.out is not None:
        _write_json(Path(args.out), report.to_dict())
    return 0


def cmd_gps(args: argparse.Namespace) -> int:
    try:
        cfg = config_mod.load_config(args.config, _collect_overrides(args))
        with open(args.fixes, "r", encoding="utf-8") as fp:
            fixes, warnings = gps_mod.read_fix_csv(fp, cfg.gps)
        overlay = None if args.events is None else read_file(args.events, gps_mod.events_geojson)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)

    kept = _write_trajectory(fixes, cfg.gps.sample_period, out_dir)
    if overlay is not None:
        _write_json(out_dir / "events.geojson", overlay, sort_keys=False)
    print(
        f"kept {len(kept)} of {len(fixes)} fixes "
        f"({len(warnings)} rows skipped or reordered) -> {out_dir}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    try:
        report = read_file(args.report, evaluation.EvalReport.from_dict)
        if args.throughput is not None:
            report = dataclasses.replace(report, fps=_read_fps(args.throughput))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(evaluation.render_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearcrash",
        description="Near-crash detection engine for timestamped bounding-box streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", help="render a scenario to a detection stream and oracle labels"
    )
    p_sim.add_argument(
        "scenario",
        help="scenario JSON path, or builtin:<name> (head_on, cut_in, adjacent_pass, "
        "receding, truncated_oncoming, jaywalking_pedestrian)",
    )
    p_sim.add_argument("--out-detections", required=True)
    p_sim.add_argument("--out-labels", required=True)
    p_sim.add_argument("--video-id", default="default")
    p_sim.add_argument(
        "--delta", type=float, default=RuleConfig.delta, help="TTC threshold for oracle labels"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="run the detection engine over a stream")
    p_run.add_argument("detections", help="detection JSONL path, or - for stdin")
    p_run.add_argument("--config", default=None, help="engine config JSON")
    p_run.add_argument("--gps", default=None, help="GPS fix CSV (t,lat_raw,lon_raw)")
    p_run.add_argument("--out-dir", required=True)
    p_run.add_argument("--debug-annotations", action="store_true")
    _add_override_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    p_eval.add_argument("--predictions", required=True)
    p_eval.add_argument("--ground-truth", required=True)
    p_eval.add_argument("--window", type=float, default=evaluation.DEFAULT_MATCH_WINDOW_S)
    p_eval.add_argument("--n-videos", type=int, default=None)
    p_eval.add_argument("--throughput", default=None, help="throughput JSON for the FPS column")
    p_eval.add_argument("--out", default=None, help="write the report JSON here")
    p_eval.set_defaults(func=cmd_eval)

    p_gps = sub.add_parser("gps", help="convert raw fixes and export trajectory artifacts")
    p_gps.add_argument("fixes", help="CSV with header t,lat_raw,lon_raw")
    p_gps.add_argument("--out-dir", required=True)
    p_gps.add_argument("--events", default=None, help="event log JSON for a map overlay")
    p_gps.add_argument("--config", default=None)
    _add_override_flags(p_gps, "gps")  # the only section gps reads
    p_gps.set_defaults(func=cmd_gps)

    p_rep = sub.add_parser("report", help="render a saved evaluation report")
    p_rep.add_argument("report")
    p_rep.add_argument("--throughput", default=None)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything unplanned is a runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
