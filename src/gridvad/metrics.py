"""Frame-level AUC and the region/track-based detection criteria.

All three metrics sweep an anomaly threshold over the distinct score
values (objects carry class probabilities, so LOW means anomalous and a
detection counts as flagged once its score is <= the threshold).

Frame AUC is the classical ROC area of 1 - smoothed score against frame
labels, with tied scores handled by grouping (equivalent to midpoint
ranking). RBDC sweeps true-positive ground-truth regions against
false-positive flagged detections per frame; TBDC replaces the region
rate with the fraction of ground-truth tracks having at least 10% of
their regions detected. Both integrate the resulting curve over the
false-positives-per-frame axis, capped at 1.0 and normalized by 1.0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .ingest import Box, GroundTruth
from .pipeline import FrameScores, ScoredObject

log = logging.getLogger(__name__)

DEFAULT_IOU_THRESHOLD = 0.1
DEFAULT_TRACK_COVERAGE = 0.1
FP_RATE_CAP = 1.0


class RocPoint(NamedTuple):
    threshold: float
    tpr: float
    fp_rate: float


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


def roc_auc(signal: np.ndarray, labels: np.ndarray) -> float:
    """Trapezoidal ROC AUC; ties grouped, which equals midpoint ranking."""
    signal = np.asarray(signal, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    positives = int(labels.sum())
    negatives = labels.size - positives
    if positives == 0 or negatives == 0:
        log.warning("ROC AUC undefined: every frame carries the same label")
        return math.nan
    order = np.argsort(-signal, kind="mergesort")
    sorted_signal = signal[order]
    sorted_labels = labels[order]
    tps = np.cumsum(sorted_labels)
    fps = np.cumsum(~sorted_labels)
    # keep only the last point of every tie group
    last_of_group = np.r_[sorted_signal[1:] != sorted_signal[:-1], True]
    tpr = np.concatenate(([0.0], tps[last_of_group] / positives))
    fpr = np.concatenate(([0.0], fps[last_of_group] / negatives))
    return float(np.trapezoid(tpr, fpr))


def frame_auc(frame_scores: FrameScores, gt: GroundTruth) -> float:
    """ROC AUC of the smoothed frame anomaly signal against GT frame labels."""
    labels = gt.frame_labels(len(frame_scores))
    signal = 1.0 - np.asarray(frame_scores.smoothed, dtype=float)
    return roc_auc(signal, labels)


def _detection_matches(objects: Sequence[tuple[int, Box, float]], gt: GroundTruth,
                       iou_threshold: float) -> list[tuple[int, ...]]:
    regions = gt.regions
    by_frame: dict[int, list[int]] = {}
    for idx, region in enumerate(regions):
        by_frame.setdefault(region.frame, []).append(idx)
    matches = []
    for frame, box, _score in objects:
        hits = tuple(idx for idx in by_frame.get(frame, ())
                     if iou(box, regions[idx].box) >= iou_threshold)
        matches.append(hits)
    return matches


def detection_curves(scored: Sequence[ScoredObject], gt: GroundTruth, num_frames: int,
                     iou_threshold: float = DEFAULT_IOU_THRESHOLD,
                     track_coverage: float = DEFAULT_TRACK_COVERAGE,
                     ) -> tuple[list[RocPoint], list[RocPoint]]:
    """Region and track sweep curves over the distinct score thresholds.

    At threshold t every detection with score <= t is flagged. A GT region
    is detected once any flagged detection overlaps it with IoU >= 0.1; a
    GT track is detected once >= 10% of its regions are. Flagged
    detections overlapping no GT region at all count as false positives,
    reported per frame on the x axis. Both curves start at the -inf
    sentinel point (0, 0).
    """
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    regions = gt.regions
    n_regions = len(regions)
    track_sizes = gt.track_sizes()
    n_tracks = len(track_sizes)
    # one pass over the objects: a ScoreTable builds each one as it is read
    objects = [(s.frame, s.box, s.fused) for s in scored]
    matches = _detection_matches(objects, gt, iou_threshold)
    scores = [score for _frame, _box, score in objects]
    order = sorted(range(len(scores)), key=scores.__getitem__)
    region_hit = [False] * n_regions
    track_hits = {tid: 0 for tid in track_sizes}
    detected_regions = 0
    detected_tracks = 0
    fp_count = 0
    region_points = [RocPoint(-math.inf, 0.0, 0.0)]
    track_points = [RocPoint(-math.inf, 0.0, 0.0)]
    pos = 0
    while pos < len(order):
        threshold = scores[order[pos]]
        while pos < len(order) and scores[order[pos]] == threshold:
            det_idx = order[pos]
            hits = matches[det_idx]
            if not hits:
                fp_count += 1
            else:
                for region_idx in hits:
                    if region_hit[region_idx]:
                        continue
                    region_hit[region_idx] = True
                    detected_regions += 1
                    tid = regions[region_idx].gt_id
                    track_hits[tid] += 1
                    size = track_sizes[tid]
                    covered_now = track_hits[tid] / size >= track_coverage
                    covered_before = (track_hits[tid] - 1) / size >= track_coverage
                    if covered_now and not covered_before:
                        detected_tracks += 1
            pos += 1
        fp_rate = fp_count / num_frames
        region_points.append(RocPoint(threshold,
                                      detected_regions / n_regions if n_regions else 0.0,
                                      fp_rate))
        track_points.append(RocPoint(threshold,
                                     detected_tracks / n_tracks if n_tracks else 0.0,
                                     fp_rate))
    return region_points, track_points


def curve_auc(points: Sequence[RocPoint], cap: float = FP_RATE_CAP) -> float:
    """Trapezoidal area under (fp_rate, tpr) up to fp_rate = cap, normalized by cap.

    The curve is not extended past its last observed point; if a segment
    crosses the cap, the tpr is linearly interpolated at the cap.
    """
    area = 0.0
    for (_, y0, x0), (_, y1, x1) in zip(points, points[1:]):
        if x0 >= cap:
            break
        if x1 > cap:
            y1 = y0 + (y1 - y0) * (cap - x0) / (x1 - x0)
            x1 = cap
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area / cap


def rbdc(scored: Sequence[ScoredObject], gt: GroundTruth, num_frames: int,
         iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> float:
    """Region-based detection criterion."""
    if not gt.regions:
        log.warning("RBDC undefined: ground truth has no regions")
        return math.nan
    region_points, _ = detection_curves(scored, gt, num_frames, iou_threshold)
    return curve_auc(region_points)


def tbdc(scored: Sequence[ScoredObject], gt: GroundTruth, num_frames: int,
         iou_threshold: float = DEFAULT_IOU_THRESHOLD,
         track_coverage: float = DEFAULT_TRACK_COVERAGE) -> float:
    """Track-based detection criterion."""
    if not gt.regions:
        log.warning("TBDC undefined: ground truth has no tracks")
        return math.nan
    _, track_points = detection_curves(scored, gt, num_frames, iou_threshold,
                                       track_coverage)
    return curve_auc(track_points)


@dataclass(frozen=True)
class MetricsReport:
    frame_auc: float
    rbdc: float
    tbdc: float
    region_curve: tuple[RocPoint, ...] = ()
    track_curve: tuple[RocPoint, ...] = ()

    @property
    def mean_rt(self) -> float:
        return (self.rbdc + self.tbdc) / 2.0


def evaluate(scored: Sequence[ScoredObject], frame_scores: FrameScores,
             gt: GroundTruth, iou_threshold: float = DEFAULT_IOU_THRESHOLD,
             track_coverage: float = DEFAULT_TRACK_COVERAGE) -> MetricsReport:
    """All four numbers plus the sweep curves for plotting."""
    auc = frame_auc(frame_scores, gt)
    if gt.regions:
        region_points, track_points = detection_curves(
            scored, gt, len(frame_scores), iou_threshold, track_coverage)
        region_auc = curve_auc(region_points)
        track_auc = curve_auc(track_points)
    else:
        log.warning("RBDC/TBDC undefined: ground truth has no regions")
        region_points, track_points = [], []
        region_auc = track_auc = math.nan
    return MetricsReport(auc, region_auc, track_auc,
                         tuple(region_points), tuple(track_points))


def _rounded(value: float):
    # report values carry 6 decimal places; undefined metrics become null
    return None if math.isnan(value) else round(value, 6)


def report_to_dict(report: MetricsReport) -> dict:
    def curve_payload(points):
        return [{"threshold": None if math.isinf(p.threshold) else p.threshold,
                 "tpr": p.tpr, "fp_rate": p.fp_rate} for p in points]

    return {
        "frame_auc": _rounded(report.frame_auc),
        "rbdc": _rounded(report.rbdc),
        "tbdc": _rounded(report.tbdc),
        "mean_rt": _rounded(report.mean_rt),
        "curves": {
            "region": curve_payload(report.region_curve),
            "track": curve_payload(report.track_curve),
        },
    }
