"""RBDC/TBDC from first-detection scores: score tables, ties, coverage counts, bad scores."""
import json
import math

import pytest

from gridvad.ingest import GroundTruth, GtRegion
from gridvad.metrics import detection_curves, evaluate, report_to_dict
from gridvad.pipeline import ScoredObject, ScoreTable


def obj(frame, box, score, tid=0):
    return ScoredObject(frame=frame, track_id=tid, class_id=1, box=box,
                        per_granularity={40: score}, fused=score)


class TestScoreTableInput:
    def test_table_gives_the_report_of_its_objects(self, reference_run):
        scored, frames, gt = (reference_run[k] for k in ("scored", "frames", "gt"))
        assert isinstance(scored, ScoreTable)
        from_objects = json.dumps(report_to_dict(evaluate(list(scored), frames, gt)))
        assert json.dumps(report_to_dict(evaluate(scored, frames, gt))) == from_objects

    def test_table_is_read_as_columns(self, reference_run, monkeypatch):
        scored, frames, gt = (reference_run[k] for k in ("scored", "frames", "gt"))

        def rows(self, start, stop):
            raise AssertionError("evaluate built ScoredObjects from the table")

        monkeypatch.setattr(ScoreTable, "_rows", rows)
        assert evaluate(scored, frames, gt).region_curve


class TestThresholds:
    def test_equal_scores_take_the_first_as_threshold(self):
        gt = GroundTruth((GtRegion(1, 0, (0, 0, 10, 10)),))
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            region_points, track_points = detection_curves(
                [obj(1, (0, 0, 10, 10), first), obj(2, (50, 50, 60, 60), second)], gt, 2)
            assert len(region_points) == len(track_points) == 2
            assert math.copysign(1.0, region_points[1].threshold) == math.copysign(1.0, first)
            assert region_points[1][1:] == (1.0, 0.5)

    @pytest.mark.parametrize("size,hits,covered", [(30, 3, True), (30, 2, False),
                                                   (11, 1, False), (11, 2, True)])
    def test_track_is_covered_from_a_tenth_of_its_regions(self, size, hits, covered):
        gt = GroundTruth(tuple(GtRegion(f, 7, (0, 0, 10, 10)) for f in range(1, size + 1)))
        scored = [obj(f, (0, 0, 10, 10), 0.2, tid=f) for f in range(1, hits + 1)]
        _, track_points = detection_curves(scored, gt, size)
        assert track_points[-1].tpr == (1.0 if covered else 0.0)


class TestBadScores:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_score_is_rejected(self, bad):
        gt = GroundTruth((GtRegion(1, 0, (0, 0, 10, 10)),))
        scored = [obj(1, (0, 0, 10, 10), 0.5), obj(1, (20, 20, 30, 30), bad)]
        with pytest.raises(ValueError, match="finite"):
            detection_curves(scored, gt, 1)

    def test_no_objects_gives_only_the_sentinel(self):
        gt = GroundTruth((GtRegion(1, 0, (0, 0, 10, 10)),))
        region_points, track_points = detection_curves([], gt, 3)
        assert region_points == track_points == [(-math.inf, 0.0, 0.0)]
