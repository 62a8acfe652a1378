"""nearcrash benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                                   # every workload
    python3 perfbench/run.py --workload dense_traffic --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload drive_encounters --trace 1

A run builds its workload from the seed, replays it through
`nearcrash.pipeline.run` for `--seconds` seconds (repeating the stream),
checks the outputs, prints each metric with its unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. `--trace 0`
reports the end-to-end metrics; `--trace 1` alternates untraced and traced
passes and reports the per-layer metrics. A failed correctness check exits
with status 1; a checkout without the engine source exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from source import ROOT, require_source

SRC = require_source()

import replay  # noqa: E402  (these import the engine from SRC)
import spans  # noqa: E402
import workloads  # noqa: E402
from nearcrash import build_config, evaluation  # noqa: E402
from nearcrash.evaluation import ScoredEvent  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 15
SETUP_SAMPLES = 5
MATCH_WINDOW_S = 10.0

Metrics = Dict[str, Tuple[float, str]]  # name -> (value, unit)

# time, in a fresh interpreter, to import the engine, build its config and
# bring the engine up and down on an empty stream
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import json
import nearcrash
from nearcrash import pipeline
config = nearcrash.build_config(json.loads(sys.argv[2]))
pipeline.run(iter(()), config)
print(time.perf_counter() - t0)
"""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than 10 samples beyond it."""
    n = len(values)
    rank = math.ceil(q * n)
    if n - rank < 10:
        raise ValueError(f"{n} samples are too few for percentile {q}")
    return sorted(values)[rank - 1]


def measure_setup(config_user: dict) -> List[float]:
    """Fresh-interpreter set-up times, seconds."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        with replay.on_fastest_cpu():
            out = subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(config_user)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def score(events: List[dict], labels: List[float]) -> evaluation.EvalReport:
    return evaluation.score(
        [ScoredEvent("stream", e["trigger_time"]) for e in events],
        [ScoredEvent("stream", t) for t in labels],
        window=MATCH_WINDOW_S,
    )


def us_per_detection(workload, p: replay.Pass) -> float:
    return p.wall / workload.detections * 1e6


def best_pass(passes: Sequence[replay.Pass]) -> replay.Pass:
    """The pass with the shortest wall time.

    On a shared machine the speed a process gets drifts by 20-50% over tens
    of seconds, so a run's median pass depends on when it ran, while its
    best pass stays within a few percent from run to run (the reasoning of
    Python's timeit). A slower engine makes the best pass slower too.
    """
    return min(passes, key=lambda p: p.wall)


def best_frame_latencies(passes: Sequence[replay.Pass]) -> List[float]:
    """Each frame's shortest latency over the passes that processed it.

    Every pass replays the same frames, so this keeps each frame's own cost
    and drops the stalls that a busy neighbour on the machine put into
    single passes, for the same reason as `best_pass`.
    """
    best: Dict[int, float] = {}
    for p in passes:
        for frame_id, latency in p.latencies.items():
            if latency < best.get(frame_id, math.inf):
                best[frame_id] = latency
    return list(best.values())


def end_to_end(workload, passes, reference, setup) -> Tuple[Metrics, Dict[str, str]]:
    best = best_pass(passes)
    lat = best_frame_latencies(passes)
    f1 = score(reference.events, workload.labels)
    metrics = {
        "us_per_detection": (us_per_detection(workload, best), "us"),
        "frames_per_s": (best.report.frames_processed / best.wall, "1/s"),
        "frame_latency_p50_us": (statistics.median(lat) * 1e6, "us"),
        "frame_latency_p99_us": (percentile(lat, 0.99) * 1e6, "us"),
        "event_f1": (f1.f1, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    spread = sorted(us_per_detection(workload, p) for p in passes)
    notes = {
        "us_per_detection": f"best of {len(passes)} passes (median {statistics.median(spread):.1f}, "
                            f"worst {spread[-1]:.1f}), {workload.detections} detections each",
        "frames_per_s": f"best of {len(passes)} passes, {workload.frames} frames each",
        "frame_latency_p50_us": f"{len(lat)} frames, each at its best of {len(passes)} passes",
        "frame_latency_p99_us": f"{len(lat)} frames, {len(lat) - math.ceil(0.99 * len(lat))} beyond",
        "event_f1": f"TP {f1.tp} FP {f1.fp} FN {f1.fn}, {MATCH_WINDOW_S:g} s window",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup),
        "peak_rss_mib": "this process",
    }
    return metrics, notes


def per_layer(workload, passes, snap: spans.Snapshot) -> Metrics:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    frames = sum(p.report.frames_processed for p in traced)
    counts = snap.counts

    def calls(name):
        return snap.spans.get(name, [0, 0.0, 0.0])[0]

    def total_us(*names):
        return sum(snap.spans.get(x, [0, 0.0, 0.0])[1] for x in names) * 1e6

    def self_us(name):
        return snap.spans.get(name, [0, 0.0, 0.0])[2] * 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call(name):
        return ratio(total_us(name), calls(name))

    frame_us = snap.roots[spans.FRAME][1] * 1e6
    late = [x for p in traced for x in p.late]
    overhead = us_per_detection(workload, best_pass(traced)) - us_per_detection(workload, best_pass(plain))
    return {
        "tracker.associate.us_per_call": (per_call("tracker.associate"), "us"),
        "tracker.associate.self_share": (ratio(self_us("tracker.associate"), frame_us), "ratio"),
        "tracker.associate.cells_per_call": (
            ratio(counts["tracker.associate.cells"], calls("tracker.associate")), "count"),
        "tracker.associate.match_ratio": (
            ratio(counts["tracker.associate.matches"], counts["tracker.associate.detections"]), "ratio"),
        "tracker.kalman_predict.us_per_call": (per_call("tracker.kalman_predict"), "us"),
        "tracker.kalman_predict.calls": (calls("tracker.kalman_predict") / n, "count"),
        "tracker.kalman_update.us_per_call": (per_call("tracker.kalman_update"), "us"),
        "tracker.kalman_update.calls": (calls("tracker.kalman_update") / n, "count"),
        "tracker.step.self_us_per_frame": (self_us("tracker.step") / frames, "us"),
        "tracker.live_tracks_mean": (ratio(counts["tracker.live_tracks"], calls("tracker.step")), "count"),
        "tracker.tracks_born": (counts["tracker.tracks_born"] / n, "count"),
        "ttc.size.us_per_call": (per_call("ttc.size"), "us"),
        "ttc.motion.us_per_call": (per_call("ttc.motion"), "us"),
        "ttc.fit_slope.us_per_call": (per_call("ttc.fit_slope"), "us"),
        "ttc.fit_slope.calls": (calls("ttc.fit_slope") / n, "count"),
        "ttc.size.ready_ratio": (ratio(counts["ttc.size.ready"], calls("ttc.size")), "ratio"),
        "ttc.motion.ready_ratio": (ratio(counts["ttc.motion.ready"], calls("ttc.motion")), "ratio"),
        "rules.decide.us_per_call": (per_call("rules.decide"), "us"),
        "rules.track_frames": (counts["rules.track_frames"] / n, "count"),
        "rules.size_pass": (counts["rules.size_pass"] / n, "count"),
        "rules.motion_pass": (counts["rules.motion_pass"] / n, "count"),
        "rules.both_pass": (counts["rules.both_pass"] / n, "count"),
        "rules.triggered": (counts["rules.triggered"] / n, "count"),
        "streams.parse.us_per_frame": (per_call("streams.parse"), "us"),
        "pipeline.frame.us_per_frame": (frame_us / frames, "us"),
        "pipeline.process.self_us_per_frame": (self_us(spans.FRAME) / frames, "us"),
        "pipeline.context.us_per_frame": (
            total_us("pipeline.context.append", "pipeline.context.frames_since") / frames, "us"),
        "pipeline.context.len_mean": (
            ratio(counts["pipeline.context.len"], calls("pipeline.context.append")), "count"),
        "pipeline.record.us_per_frame": (total_us(
            "pipeline.record.on_frame", "pipeline.record.on_trigger", "pipeline.record.finish") / frames, "us"),
        "pipeline.queue.wait_us_per_frame": (total_us(spans.QUEUE_WAIT) / frames, "us"),
        "pipeline.queue.dropped": (sum(p.report.frames_dropped for p in traced) / n, "count"),
        "pipeline.source.late_p99_us": (percentile(late, 0.99) * 1e6 if late else 0.0, "us"),
        "bench.trace_overhead_us_per_detection": (overhead, "us"),
    }


def check_trace(snap: spans.Snapshot, passes) -> List[str]:
    """Self-consistency of the traced numbers; returns every broken condition."""
    frame = snap.roots.get(spans.FRAME)
    if frame is None:
        return ["no frame spans were recorded"]
    problems = []
    if not math.isclose(frame[2], frame[1], rel_tol=1e-9):
        problems.append(f"self times in frame spans sum to {frame[2]:.9f} s, the frame spans to {frame[1]:.9f} s")
    self_sum = sum(rec[2] for rec in snap.spans.values())
    root_sum = sum(rec[1] for rec in snap.roots.values()) + snap.dropped_self
    if not math.isclose(self_sum, root_sum, rel_tol=1e-9):
        problems.append(f"self times sum to {self_sum:.9f} s, root spans to {root_sum:.9f} s")
    c = snap.counts
    funnel = [c["rules.triggered"], c["rules.both_pass"], min(c["rules.size_pass"], c["rules.motion_pass"]),
              c["rules.track_frames"]]
    if funnel != sorted(funnel):
        problems.append(f"rule funnel not monotone: triggered, both, min(size, motion), track-frames = {funnel}")
    events = sum(len(p.events) for p in passes if p.traced)
    if c["rules.triggered"] != events:
        problems.append(f"{c['rules.triggered']} triggers but {events} events in the traced passes")
    return problems


def emit(workload_name: str, rows: Sequence[Tuple[str, float, str, str]]) -> None:
    for name, value, unit, note in rows:
        print(f"{workload_name:17s} {name:40s} {value:14.4f} {unit:6s} {note}".rstrip())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    t = perf_counter()
    workload = workloads.build(name, seed)
    sim_s = perf_counter() - t
    print(f"{name}: seed {seed}, {workload.frames} frames, {workload.detections} detections, "
          f"{len(workload.labels)} labelled events, "
          + (f"live replay at {workload.rate_hz:g} frames/s" if workload.rate_hz else "offline replay"))
    problems: List[str] = []
    metrics: Metrics = {}
    notes: Dict[str, str] = {}
    if trace:
        tracer = spans.Tracer()
        reference, passes = replay.collect(workload, seconds, tracer)
        snap = tracer.snapshot()
        problems += replay.check_passes(workload, reference, passes) + check_trace(snap, passes)
        t = perf_counter()
        build_config(workload.config)
        config_us = (perf_counter() - t) * 1e6
        t = perf_counter()
        score(reference.events, workload.labels)
        score_us = (perf_counter() - t) * 1e6
        try:
            metrics = per_layer(workload, passes, snap)
        except (ValueError, statistics.StatisticsError) as exc:
            problems.append(f"per-layer metrics: {exc}")
        metrics.update({
            "sim.build_s": (sim_s, "s"),
            "config.build_us": (config_us, "us"),
            "evaluation.score_us": (score_us, "us"),
        })
    else:
        setup = measure_setup(workload.config)
        reference, passes = replay.collect(workload, seconds)
        problems += replay.check_passes(workload, reference, passes)
        try:
            metrics, notes = end_to_end(workload, passes, reference, setup)
        except (ValueError, statistics.StatisticsError) as exc:
            problems.append(f"end-to-end metrics: {exc}")
    offered = workload.frames * len(passes)
    failed = sum(workload.frames - p.report.frames_processed for p in passes)
    rows = [(k, v, u, notes.get(k, "")) for k, (v, u) in metrics.items()]
    rows.append(("frames_failed_ratio", failed / offered, "ratio",
                 f"{failed} of {offered} frames rejected, dropped or lost"))
    emit(name, rows)
    for problem in problems:
        print(f"{name}: INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": offered,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


def run_all(args) -> int:
    """Run every workload, each in its own process, and sum up."""
    merged: Dict[str, dict] = {}
    correct, attempted, failed, status = True, 0, 0, 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(out.stderr)
        status = status or out.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            correct = False
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return status or (0 if correct else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
