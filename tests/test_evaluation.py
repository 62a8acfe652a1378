"""Scoring tests: temporal matching, F1 arithmetic, report rendering."""

import itertools
import json
import random

import pytest

from nearcrash.config import ConfigError
from nearcrash.evaluation import (
    EvalReport,
    ScoredEvent,
    events_from_json,
    f1,
    make_report,
    match_events,
    render_table,
    score,
)


def ev(time, video="v1"):
    return ScoredEvent(video_id=video, time=time)


class TestMatching:
    def test_within_window(self):
        result = match_events([ev(25.0)], [ev(20.0)], window=10.0)
        assert (result.tp, result.fp, result.fn) == (1, 0, 0)

    def test_one_to_one(self):
        result = match_events([ev(25.0), ev(28.0)], [ev(20.0)], window=10.0)
        assert (result.tp, result.fp, result.fn) == (1, 1, 0)
        # the closer prediction wins the match
        assert result.matches[0][1].time == 25.0

    def test_outside_window(self):
        result = match_events([ev(31.0)], [ev(20.0)], window=10.0)
        assert (result.tp, result.fp, result.fn) == (0, 1, 1)

    def test_cross_video_never_matches(self):
        result = match_events([ev(20.0, video="a")], [ev(20.0, video="b")], window=10.0)
        assert (result.tp, result.fp, result.fn) == (0, 1, 1)

    def test_count_identities_hold(self):
        rng = random.Random(17)
        for _ in range(200):
            preds = [ev(rng.uniform(0, 100), video=rng.choice("abc")) for _ in range(rng.randrange(6))]
            gts = [ev(rng.uniform(0, 100), video=rng.choice("abc")) for _ in range(rng.randrange(6))]
            result = match_events(preds, gts, window=10.0)
            assert result.tp + result.fp == len(preds)
            assert result.tp + result.fn == len(gts)
            for gt, pred in result.matches:
                assert gt.video_id == pred.video_id
                assert abs(gt.time - pred.time) <= 10.0

    def test_order_invariance(self):
        rng = random.Random(3)
        preds = [ev(rng.uniform(0, 60)) for _ in range(6)]
        gts = [ev(rng.uniform(0, 60)) for _ in range(5)]
        base = match_events(preds, gts, window=10.0)
        for _ in range(10):
            shuffled = preds[:]
            rng.shuffle(shuffled)
            again = match_events(shuffled, gts, window=10.0)
            assert (again.tp, again.fp, again.fn) == (base.tp, base.fp, base.fn)

    def test_greedy_vs_maximum_matching(self):
        # greedy nearest-in-time is the documented algorithm; compare its TP
        # against the true maximum-cardinality matching and report any gap
        rng = random.Random(99)
        discrepancies = 0
        for _ in range(300):
            preds = [ev(rng.uniform(0, 40)) for _ in range(rng.randrange(1, 6))]
            gts = [ev(rng.uniform(0, 40)) for _ in range(rng.randrange(1, 6))]
            result = match_events(preds, gts, window=5.0)
            best = _max_matching(preds, gts, window=5.0)
            assert result.tp <= best
            if result.tp != best:
                discrepancies += 1
        # chains where greedy loses a match exist but are rare; this seed
        # produces exactly 8 of them in 300 dense instances
        assert discrepancies == 8, f"greedy/optimal discrepancies: {discrepancies}/300"

    def test_greedy_known_chain_case(self):
        # ground truths at 0 and 6 with predictions at 5 and 11: greedy takes
        # the (6, 5) pair first and strands the 11 prediction
        preds = [ev(5.0), ev(11.0)]
        gts = [ev(0.0), ev(6.0)]
        result = match_events(preds, gts, window=5.0)
        assert result.tp == 1
        assert _max_matching(preds, gts, window=5.0) == 2


def _max_matching(preds, gts, window):
    best = 0
    k = min(len(preds), len(gts))
    for size in range(k, 0, -1):
        for gt_subset in itertools.permutations(range(len(gts)), size):
            for pred_subset in itertools.combinations(range(len(preds)), size):
                if all(
                    gts[g].video_id == preds[p].video_id
                    and abs(gts[g].time - preds[p].time) <= window
                    for g, p in zip(gt_subset, pred_subset)
                ):
                    return size
    return best


class TestF1:
    def test_field_result_arithmetic(self):
        # 2*34 / (2*34 + 7 + 1) = 68/76
        value = f1(34, 7, 1)
        assert value == pytest.approx(68 / 76)
        assert f"{value:.3f}" == "0.895"

    def test_perfect(self):
        assert f1(10, 0, 0) == 1.0

    def test_zero_tp(self):
        assert f1(0, 5, 0) == 0.0
        assert f1(0, 0, 0) == 0.0

    def test_matches_precision_recall_form(self):
        for tp, fp, fn in [(34, 7, 1), (5, 3, 2), (1, 0, 9)]:
            p = tp / (tp + fp)
            r = tp / (tp + fn)
            assert f1(tp, fp, fn) == pytest.approx(2 * p * r / (p + r))


class TestReport:
    def test_field_results_row(self):
        report = make_report(34, 7, 1, n_videos=100, n_events=35, fps=18.0)
        table = render_table(report)
        row = table.splitlines()[-1]
        cells = [c.strip() for c in row.split("|")]
        assert cells == ["100", "35", "34", "7", "1", "0.895", "18.0"]

    def test_json_roundtrip(self):
        report = make_report(34, 7, 1, n_videos=100, n_events=35, fps=18.0)
        again = EvalReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert again == report

    def test_from_dict_rejects_string_count(self):
        obj = make_report(34, 7, 1, n_videos=100, n_events=35).to_dict()
        obj["tp"] = "34"
        with pytest.raises(ConfigError, match=r"^tp: expected an integer"):
            EvalReport.from_dict(obj)

    def test_zero_everything(self):
        report = make_report(0, 0, 0, n_videos=0, n_events=0)
        assert report.f1 == 0.0
        assert report.precision == 0.0 and report.recall == 0.0
        assert "0.000" in render_table(report)

    def test_score_counts_videos(self):
        report = score(
            predictions=[ev(5.0, "a"), ev(9.0, "b")],
            ground_truth=[ev(6.0, "a"), ev(50.0, "c")],
        )
        assert report.n_videos == 3
        assert report.n_events == 2
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match=r"^tp: expected a count >= 0, got -1$"):
            make_report(-1, 0, 0, n_videos=1, n_events=1)

    def test_events_must_be_matched_or_missed(self):
        with pytest.raises(ValueError, match=r"^n_events: 36 is not tp \+ fn = 35$"):
            make_report(34, 7, 1, n_videos=100, n_events=36)


# a saved report (as `eval --out` writes it) with one field changed, and the error it gives
TAMPERED_REPORTS = [
    pytest.param(
        {"tp": -3, "precision": 5.0, "f1": 1.0}, r"^tp: expected a count >= 0, got -3$", id="tp"
    ),
    pytest.param({"fp": -1}, r"^fp: expected a count >= 0", id="fp"),
    pytest.param({"fn": -1, "n_events": 33}, r"^fn: expected a count >= 0", id="fn"),
    pytest.param({"n_videos": -1}, r"^n_videos: expected a count >= 0", id="n_videos"),
    pytest.param({"n_events": -1}, r"^n_events: expected a count >= 0", id="n_events"),
    pytest.param({"n_events": 36}, r"^n_events: 36 is not tp \+ fn = 35$", id="n_events-sum"),
    pytest.param(
        {"precision": 5.0}, r"^precision: stored 5\.0, but the counts give 0\.829", id="precision"
    ),
    pytest.param({"recall": 1.0}, r"^recall: stored 1\.0, but the counts give 0\.971", id="recall"),
    pytest.param({"f1": 1.0}, r"^f1: stored 1\.0, but the counts give 0\.894", id="f1"),
]


class TestSavedReport:
    """A saved report is read through make_report and must agree with its counts."""

    @staticmethod
    def saved(**changes):
        obj = make_report(34, 7, 1, n_videos=100, n_events=35, fps=18.0).to_dict()
        obj.update(changes)
        return obj

    @pytest.mark.parametrize("changes, message", TAMPERED_REPORTS)
    def test_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            EvalReport.from_dict(self.saved(**changes))

    @pytest.mark.parametrize("changes, message", TAMPERED_REPORTS)
    def test_rejected_when_built_directly(self, changes, message):
        with pytest.raises(ValueError, match=message):
            EvalReport(**self.saved(**changes))

    def test_rates_from_another_formula_are_kept(self):
        # 2pr / (p + r) may differ from 2tp / (2tp + fp + fn) in the last bits
        p, r = 34 / 41, 34 / 35
        report = EvalReport.from_dict(self.saved(f1=2 * p * r / (p + r)))
        assert report == make_report(34, 7, 1, n_videos=100, n_events=35, fps=18.0)


class TestEventsFromJson:
    def test_plain_events(self):
        events = events_from_json([{"video_id": "a", "time": 4.5}])
        assert events == [ScoredEvent(video_id="a", time=4.5)]

    def test_pipeline_event_log(self):
        events = events_from_json([{"trigger_time": 2.25, "event_type": "vehicle-vehicle"}])
        assert events == [ScoredEvent(video_id="default", time=2.25)]

    def test_rejects_non_list(self):
        with pytest.raises(ValueError):
            events_from_json({"video_id": "a", "time": 1})

    def test_rejects_missing_time(self):
        with pytest.raises(ValueError):
            events_from_json([{"video_id": "a"}])

    def test_rejects_non_object_entry(self):
        with pytest.raises(ValueError, match="^event 1: expected an object$"):
            events_from_json([{"time": 1.0}, [1.5]])

    def test_rejects_non_string_video_id(self):
        with pytest.raises(ValueError, match="event 0: video_id"):
            events_from_json([{"video_id": 7, "time": 1.5}])

    def test_integer_time_taken_as_float(self):
        assert events_from_json([{"time": 2}]) == [ScoredEvent("default", 2.0)]

    @pytest.mark.parametrize("key", ["time", "trigger_time"])
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -1.0, None, "x", "1.5", True, 10**400]
    )
    def test_rejects_bad_time_with_index(self, key, bad):
        # json.loads accepts the NaN and Infinity literals
        obj = json.loads(json.dumps([{key: 1.0}, {key: bad}]))
        with pytest.raises(ValueError, match="event 1:"):
            events_from_json(obj)
