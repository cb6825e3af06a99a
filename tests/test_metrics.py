import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gridvad.ingest import GroundTruth, GtRegion
from gridvad.metrics import (
    RocPoint,
    curve_auc,
    detection_curves,
    evaluate,
    frame_auc,
    iou,
    rbdc,
    report_to_dict,
    roc_auc,
    tbdc,
)
from gridvad.pipeline import FrameScores, ScoredObject


def obj(frame, box, score, tid=0, cls=1):
    return ScoredObject(frame=frame, track_id=tid, class_id=cls, box=box,
                        per_granularity={40: score}, fused=score)


def gt_of(*regions):
    return GroundTruth(tuple(GtRegion(f, tid, box) for f, tid, box in regions))


def frame_scores(values):
    arr = np.asarray(values, dtype=float)
    return FrameScores(arr, arr.copy())


class TestIoU:
    def test_half_overlap(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 5)) == pytest.approx(0.5)

    def test_disjoint(self):
        assert iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0

    def test_identity(self):
        assert iou((3, 4, 10, 12), (3, 4, 10, 12)) == 1.0


class TestFrameAuc:
    def test_perfect_separation(self):
        gt = gt_of((3, 0, (0, 0, 5, 5)), (4, 0, (0, 0, 5, 5)))
        assert frame_auc(frame_scores([0.9, 0.8, 0.2, 0.1]), gt) == 1.0

    def test_constant_scores_chance_level(self):
        gt = gt_of((1, 0, (0, 0, 5, 5)))
        assert frame_auc(frame_scores([0.5, 0.5, 0.5, 0.5]), gt) == 0.5

    def test_hand_roc(self):
        gt = gt_of((3, 0, (0, 0, 5, 5)), (4, 1, (0, 0, 5, 5)))
        auc = frame_auc(frame_scores([0.9, 0.8, 0.2, 0.1]), gt)
        assert auc == 1.0

    def test_single_label_undefined(self):
        assert math.isnan(frame_auc(frame_scores([0.5, 0.4]), gt_of()))
        gt = gt_of((1, 0, (0, 0, 5, 5)), (2, 0, (0, 0, 5, 5)))
        assert math.isnan(frame_auc(frame_scores([0.5, 0.4]), gt))

    def test_inverting_signal_flips_auc(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            n = 40
            scores = np.round(rng.random(n), 2)  # rounded to force ties
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                continue
            gt = gt_of(*(((i + 1), 0, (0, 0, 5, 5)) for i in range(n) if labels[i]))
            auc = frame_auc(FrameScores(scores, scores), gt)
            flipped = frame_auc(FrameScores(1.0 - scores, 1.0 - scores), gt)
            assert auc + flipped == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(17)
        scores = np.round(rng.random(50), 2)
        labels = rng.random(50) < 0.3
        gt = gt_of(*(((i + 1), 0, (0, 0, 5, 5)) for i in range(50) if labels[i]))
        base = frame_auc(FrameScores(scores, scores), gt)
        transformed = np.sqrt(scores)  # strictly monotone on [0, 1]
        assert frame_auc(FrameScores(transformed, transformed), gt) == \
            pytest.approx(base, abs=1e-12)


class TestSweepScenarios:
    def scenario_a(self):
        """Spec hand sweep: one true detection (0.1) and one false (0.2) over 2 frames."""
        gt = gt_of((1, 0, (0, 0, 10, 10)))
        scored = [obj(1, (0, 0, 10, 5), 0.1, tid=1),
                  obj(2, (50, 50, 60, 60), 0.2, tid=2)]
        return scored, gt, 2

    def test_scenario_a_rbdc(self):
        scored, gt, n = self.scenario_a()
        assert rbdc(scored, gt, n) == 0.5

    def test_scenario_a_tbdc_single_region_track(self):
        scored, gt, n = self.scenario_a()
        assert tbdc(scored, gt, n) == 0.5

    def test_scenario_a_frame_auc(self):
        scored, gt, _ = self.scenario_a()
        assert frame_auc(frame_scores([0.1, 0.2]), gt) == 1.0

    def scenario_b(self):
        """Perfect detector: anomalies at 0.0, enough normals at 1.0 to reach x = 1."""
        gt = gt_of((1, 0, (0, 0, 10, 10)), (2, 1, (20, 20, 40, 40)))
        scored = [obj(1, (0, 0, 10, 10), 0.0, tid=1),
                  obj(2, (20, 20, 40, 40), 0.0, tid=2),
                  obj(1, (100, 100, 120, 130), 1.0, tid=3),
                  obj(2, (100, 100, 120, 130), 1.0, tid=4),
                  obj(3, (100, 100, 120, 130), 1.0, tid=5),
                  obj(4, (200, 200, 230, 240), 1.0, tid=6)]
        return scored, gt, 4

    def test_scenario_b_perfect(self):
        scored, gt, n = self.scenario_b()
        assert rbdc(scored, gt, n) == 1.0
        assert tbdc(scored, gt, n) == 1.0

    def test_scenario_b_frame_auc(self):
        _, gt, _ = self.scenario_b()
        assert frame_auc(frame_scores([0.0, 0.0, 1.0, 1.0]), gt) == 1.0

    def test_no_overlap_zero(self):
        gt = gt_of((1, 0, (0, 0, 10, 10)))
        scored = [obj(1, (100, 100, 110, 110), 0.0, tid=1)]
        assert rbdc(scored, gt, 1) == 0.0
        assert tbdc(scored, gt, 1) == 0.0

    def scenario_c(self):
        """Two tracks, two false positives interleaved between the true thresholds.

        Hand sweep over thresholds 0.1 / 0.2 / 0.25 / 0.3 with 4 frames:
          region curve (0,0) (0,1/3) (1/4,1/3) (1/2,1/3) (1/2,2/3) -> area 1/6
          track  curve (0,0) (0,1/2) (1/4,1/2) (1/2,1/2) (1/2,1)   -> area 1/4
        """
        gt = gt_of((1, 0, (0, 0, 10, 10)), (2, 0, (0, 0, 10, 10)),
                   (3, 1, (30, 30, 50, 50)))
        scored = [obj(1, (0, 0, 10, 10), 0.1, tid=1),
                  obj(2, (100, 100, 110, 110), 0.2, tid=2),
                  obj(4, (200, 200, 210, 210), 0.25, tid=3),
                  obj(3, (30, 30, 50, 50), 0.3, tid=4)]
        return scored, gt, 4

    def test_scenario_c_values(self):
        scored, gt, n = self.scenario_c()
        assert rbdc(scored, gt, n) == pytest.approx(float(Fraction(1, 6)), abs=1e-15)
        assert tbdc(scored, gt, n) == pytest.approx(0.25, abs=1e-15)

    def test_scenario_c_frame_auc(self):
        _, gt, _ = self.scenario_c()
        auc = frame_auc(frame_scores([0.1, 0.2, 0.3, 0.25]), gt)
        assert auc == pytest.approx(float(Fraction(2, 3)), abs=1e-15)

    def test_track_coverage_boundary(self):
        # 10-region track with exactly one detected region: 10% >= 10% counts
        regions = [(f, 0, (0, 0, 10, 10)) for f in range(1, 11)]
        gt = gt_of(*regions)
        scored = [obj(1, (0, 0, 10, 10), 0.0, tid=1)]
        _, track_points = detection_curves(scored, gt, 10)
        assert track_points[-1].tpr == 1.0

    def test_undefined_without_gt(self):
        assert math.isnan(rbdc([obj(1, (0, 0, 1, 1), 0.5)], gt_of(), 1))
        assert math.isnan(tbdc([obj(1, (0, 0, 1, 1), 0.5)], gt_of(), 1))

    @pytest.mark.parametrize("frame", [0, 3, 9999])
    def test_region_outside_the_scored_frames_rejected(self, frame):
        """Not counted as a miss: the library refuses it as ``gridvad eval`` does."""
        scored, gt, n = self.scenario_a()
        gt = GroundTruth(gt.regions + (GtRegion(frame, 7, (0, 0, 10, 10)),))
        message = f"ground-truth region 7 in frame {frame} is outside frames 1 to 2"
        for metric in (detection_curves, rbdc, tbdc):
            with pytest.raises(ValueError, match=message):
                metric(scored, gt, n)
        with pytest.raises(ValueError, match=message):
            evaluate(scored, frame_scores([0.1, 0.2]), gt)


def random_scenario(rng, n_frames=12):
    regions = []
    for tid in range(int(rng.integers(1, 4))):
        for _ in range(int(rng.integers(1, 4))):
            f = int(rng.integers(1, n_frames + 1))
            x, y = rng.uniform(0, 80, 2)
            regions.append((f, tid, (x, y, x + 20, y + 20)))
    gt = gt_of(*regions)
    scored = []
    for i in range(int(rng.integers(2, 14))):
        f = int(rng.integers(1, n_frames + 1))
        x, y = rng.uniform(0, 100, 2)
        scored.append(obj(f, (x, y, x + 20, y + 20),
                          float(np.round(rng.random(), 2)), tid=100 + i))
    return scored, gt, n_frames


class TestSweepProperties:
    def test_matches_exhaustive_reenumeration_exactly(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            scored, gt, n_frames = random_scenario(rng)
            fast_r, fast_t = detection_curves(scored, gt, n_frames)
            slow_r, slow_t = self.exhaustive(scored, gt, n_frames)
            assert fast_r == slow_r
            assert fast_t == slow_t

    @staticmethod
    def exhaustive(scored, gt, num_frames, iou_thr=0.1, coverage=0.1):
        """Independent oracle: re-evaluate every threshold from scratch."""
        regions = gt.regions
        track_sizes = gt.track_sizes()
        rpoints = [RocPoint(-math.inf, 0.0, 0.0)]
        tpoints = [RocPoint(-math.inf, 0.0, 0.0)]
        for t in sorted({s.fused for s in scored}):
            detected = set()
            fp = 0
            for det in (s for s in scored if s.fused <= t):
                hits = [i for i, r in enumerate(regions)
                        if r.frame == det.frame and iou(det.box, r.box) >= iou_thr]
                if hits:
                    detected.update(hits)
                else:
                    fp += 1
            per_track = Counter(regions[i].gt_id for i in detected)
            n_tracks_hit = sum(1 for tid, size in track_sizes.items()
                               if per_track.get(tid, 0) / size >= coverage)
            rpoints.append(RocPoint(t, len(detected) / len(regions), fp / num_frames))
            tpoints.append(RocPoint(t, n_tracks_hit / len(track_sizes), fp / num_frames))
        return rpoints, tpoints

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            scored, gt, n_frames = random_scenario(rng)
            base_r, base_t = rbdc(scored, gt, n_frames), tbdc(scored, gt, n_frames)
            squashed = [ScoredObject(frame=s.frame, track_id=s.track_id,
                                     class_id=s.class_id, box=s.box,
                                     per_granularity=s.per_granularity,
                                     fused=s.fused ** 2) for s in scored]
            assert rbdc(squashed, gt, n_frames) == pytest.approx(base_r, abs=1e-12)
            assert tbdc(squashed, gt, n_frames) == pytest.approx(base_t, abs=1e-12)

    def test_removing_false_positive_never_hurts(self):
        # Holds whenever the sweep still saturates the capped FP axis; an
        # under-saturated curve is not extended (see the scenario_a fixture),
        # so there losing x-extent can legitimately lose area.
        rng = np.random.default_rng(20)
        checked = 0
        while checked < 25:
            scored, gt, n_frames = random_scenario(rng, n_frames=4)
            fps = [i for i, s in enumerate(scored)
                   if not any(r.frame == s.frame and iou(s.box, r.box) >= 0.1
                              for r in gt.regions)]
            if len(fps) < n_frames + 2:
                continue
            base_r, base_t = rbdc(scored, gt, n_frames), tbdc(scored, gt, n_frames)
            pruned = [s for i, s in enumerate(scored) if i != fps[0]]
            assert rbdc(pruned, gt, n_frames) >= base_r - 1e-12
            assert tbdc(pruned, gt, n_frames) >= base_t - 1e-12
            checked += 1

    def test_curve_points_monotone(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            scored, gt, n_frames = random_scenario(rng)
            for points in detection_curves(scored, gt, n_frames):
                tprs = [p.tpr for p in points]
                xs = [p.fp_rate for p in points]
                assert tprs == sorted(tprs)
                assert xs == sorted(xs)

    def test_auc_within_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            scored, gt, n_frames = random_scenario(rng)
            for points in detection_curves(scored, gt, n_frames):
                assert 0.0 <= curve_auc(points) <= 1.0
            # coarse signal values make ties; both labels occur
            labels = rng.permutation(np.arange(n_frames) < rng.integers(1, n_frames))
            assert 0.0 <= roc_auc(np.round(rng.random(n_frames), 1), labels) <= 1.0

    def test_fp_rate_cap_interpolation(self):
        points = [RocPoint(-math.inf, 0.0, 0.0), RocPoint(0.5, 1.0, 0.0),
                  RocPoint(1.0, 1.0, 2.0)]
        # segment crosses the cap at x = 1 with constant tpr 1
        assert curve_auc(points) == 1.0


class TestReport:
    def test_mean_rt_exact_mean(self):
        scored, gt, n = TestSweepScenarios().scenario_c()
        report = evaluate(scored, frame_scores([0.1, 0.2, 0.3, 0.25]), gt)
        assert report.mean_rt == (report.rbdc + report.tbdc) / 2.0

    def test_report_dict_rounds_to_six_places(self):
        scored, gt, n = TestSweepScenarios().scenario_c()
        payload = report_to_dict(evaluate(scored, frame_scores([0.1, 0.2, 0.3, 0.25]), gt))
        assert payload["rbdc"] == round(float(Fraction(1, 6)), 6)
        assert payload["curves"]["region"][0]["threshold"] is None  # -inf sentinel
        assert math.isfinite(payload["mean_rt"])

    def test_undefined_metrics_become_null(self):
        payload = report_to_dict(evaluate([], frame_scores([0.5, 0.5]), gt_of()))
        assert payload["rbdc"] is None and payload["frame_auc"] is None
