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
from .pipeline import FrameScores, ScoredObject, ScoreTable

log = logging.getLogger(__name__)

IOU_THRESHOLD = 0.1
TRACK_COVERAGE = 0.1
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
    """ROC AUC by :func:`curve_auc`'s trapezoids; ties grouped (midpoint ranking)."""
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
    tpr, fpr = tps[last_of_group] / positives, fps[last_of_group] / negatives
    points = map(RocPoint, sorted_signal[last_of_group].tolist(), tpr.tolist(), fpr.tolist())
    return curve_auc([RocPoint(math.inf, 0.0, 0.0), *points], 1.0)


def frame_auc(frame_scores: FrameScores, gt: GroundTruth) -> float:
    """ROC AUC of the smoothed frame anomaly signal against GT frame labels."""
    labels = gt.frame_labels(len(frame_scores))
    signal = 1.0 - np.asarray(frame_scores.smoothed, dtype=float)
    return roc_auc(signal, labels)


def _object_columns(scored) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame, (n, 4) box and score columns; a ScoreTable gives its own."""
    if isinstance(scored, ScoreTable):
        return scored.frame, scored.box, scored.fused
    return (np.array([s.frame for s in scored], dtype=np.int64),
            np.array([s.box for s in scored], dtype=float).reshape(-1, 4),
            np.array([s.fused for s in scored], dtype=float))


def _coverage_count(size: int) -> int:
    """The fewest detected regions that cover a track of ``size`` regions."""
    return next(h for h in range(1, size + 1) if h / size >= TRACK_COVERAGE)


def detection_curves(scored: Sequence[ScoredObject] | ScoreTable, gt: GroundTruth,
                     num_frames: int) -> tuple[list[RocPoint], list[RocPoint]]:
    """Region and track sweep curves over the distinct score thresholds.

    At threshold t every detection with score <= t is flagged. A GT region
    is detected once any flagged detection overlaps it with IoU >= 0.1; a
    GT track is detected once >= 10% of its regions are. Flagged
    detections overlapping no GT region at all count as false positives,
    reported per frame on the x axis. Both curves start at the -inf
    sentinel point (0, 0).

    The curves come from first-detection scores: a region's is the lowest
    score among the detections overlapping it, a track's the score at
    which its h-th region is detected (h the fewest regions that cover
    it). The point at t counts the region, track and false-positive
    scores <= t. A region outside frames 1..``num_frames`` raises
    ValueError, as ``parse_ground_truth`` does given the frame count.
    """
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    outside = next((r for r in gt.regions if not 1 <= r.frame <= num_frames), None)
    if outside is not None:
        raise ValueError(f"ground-truth region {outside.gt_id} in frame {outside.frame} is "
                         f"outside frames 1 to {num_frames}")
    frames, boxes, scores = _object_columns(scored)
    if not np.isfinite(scores).all():
        raise ValueError("detection scores must be finite")
    # the detections in a region's frame are a run of the frame-sorted ones
    by_frame = np.argsort(frames, kind="stable")
    region_frames = [r.frame for r in gt.regions]
    starts = np.searchsorted(frames[by_frame], region_frames, side="left").tolist()
    stops = np.searchsorted(frames[by_frame], region_frames, side="right").tolist()
    box_rows, score_list = boxes.tolist(), scores.tolist()
    false_positive = np.ones(len(scores), dtype=bool)
    region_first: list[float] = []
    per_track: dict[int, list[float]] = {}
    for region, start, stop in zip(gt.regions, starts, stops):
        hits = [d for d in by_frame[start:stop].tolist()
                if iou(box_rows[d], region.box) >= IOU_THRESHOLD]
        false_positive[hits] = False
        # inf, above every (finite) score, marks a region no detection overlaps
        first = min((score_list[d] for d in hits), default=math.inf)
        region_first.append(first)
        per_track.setdefault(region.gt_id, []).append(first)
    track_first = [sorted(firsts)[_coverage_count(len(firsts)) - 1]
                   for firsts in per_track.values()]
    # equal scores make one threshold: the first of them in stream order
    thresholds = scores[np.unique(scores, return_index=True)[1]]

    def rates(values, total: int) -> list[float]:
        """Per threshold, the count of ``values`` <= it over ``total``."""
        return (np.searchsorted(np.sort(values), thresholds, side="right") / total).tolist()

    # with no regions every tpr is 0 / 1
    fp_rates = rates(scores[false_positive], num_frames)
    region_tprs = rates(region_first, max(len(region_first), 1))
    track_tprs = rates(track_first, max(len(track_first), 1))
    sentinel = [RocPoint(-math.inf, 0.0, 0.0)]
    return (sentinel + list(map(RocPoint, thresholds.tolist(), region_tprs, fp_rates)),
            sentinel + list(map(RocPoint, thresholds.tolist(), track_tprs, fp_rates)))


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


def rbdc(scored: Sequence[ScoredObject] | ScoreTable, gt: GroundTruth,
         num_frames: int) -> float:
    """Region-based detection criterion."""
    if not gt.regions:
        log.warning("RBDC undefined: ground truth has no regions")
        return math.nan
    region_points, _ = detection_curves(scored, gt, num_frames)
    return curve_auc(region_points)


def tbdc(scored: Sequence[ScoredObject] | ScoreTable, gt: GroundTruth,
         num_frames: int) -> float:
    """Track-based detection criterion."""
    if not gt.regions:
        log.warning("TBDC undefined: ground truth has no tracks")
        return math.nan
    _, track_points = detection_curves(scored, gt, num_frames)
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


def evaluate(scored: Sequence[ScoredObject] | ScoreTable, frame_scores: FrameScores,
             gt: GroundTruth) -> MetricsReport:
    """All four numbers plus the sweep curves for plotting.

    A :class:`ScoreTable` is read through its frame, box and score columns.
    """
    auc = frame_auc(frame_scores, gt)
    if gt.regions:
        region_points, track_points = detection_curves(scored, gt, len(frame_scores))
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
