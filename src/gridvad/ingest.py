"""Tracker-output and ground-truth ingestion.

Detections arrive as files written by an external multi-object tracker
(one JSON object per line, or MOTChallenge-style CSV). Parsing yields an
immutable, frame-sorted :class:`TrackSet` that the rest of the pipeline
consumes. Dynamic confidence thresholds, confidence filtering and frame
slicing live here as well because they operate on raw track sets before
any featurization.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable

import numpy as np

log = logging.getLogger(__name__)

PERSON_CLASS_ID = 1
MAX_CLASS_ID = 80

Box = tuple[float, float, float, float]


class TrackFileError(ValueError):
    """Malformed or invalid tracker / ground-truth input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class TrackedDetection:
    """One tracker output row.

    ``frame_index`` is 1-based, ``class_id`` is an MS-COCO id in [1, 80],
    ``box`` is (x1, y1, x2, y2) in pixels with x1 < x2 and y1 < y2.
    """

    frame_index: int
    track_id: int
    class_id: int
    box: Box
    confidence: float


@dataclass(frozen=True)
class TrackSet:
    """All detections of one video, sorted by (frame_index, track_id)."""

    resolution: tuple[int, int]
    frame_count: int
    detections: tuple[TrackedDetection, ...]


@dataclass(frozen=True)
class ConfidenceThresholds:
    """Per class-group dynamic confidence cut-offs, max(0, mean - 2*std)."""

    person_threshold: float = 0.0
    other_threshold: float = 0.0

    def for_class(self, class_id: int) -> float:
        if class_id == PERSON_CLASS_ID:
            return self.person_threshold
        return self.other_threshold


@dataclass(frozen=True)
class GtRegion:
    frame: int
    gt_id: int
    box: Box


@dataclass(frozen=True)
class GroundTruth:
    """Annotated anomalous regions; a frame is anomalous iff it has >= 1 region."""

    regions: tuple[GtRegion, ...]

    def track_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for r in self.regions:
            sizes[r.gt_id] = sizes.get(r.gt_id, 0) + 1
        return sizes

    def frame_labels(self, frame_count: int) -> np.ndarray:
        """Boolean per frame (index 0 is frame 1), True = anomalous."""
        labels = np.zeros(frame_count, dtype=bool)
        for r in self.regions:
            if 1 <= r.frame <= frame_count:
                labels[r.frame - 1] = True
        return labels


def clamp_box(box: Box, resolution: tuple[int, int]) -> Box | None:
    """Clamp a box to the frame rectangle; None if nothing remains."""
    w, h = resolution
    x1, y1, x2, y2 = box
    x1, y1 = max(0.0, float(x1)), max(0.0, float(y1))
    x2, y2 = min(float(w), float(x2)), min(float(h), float(y2))
    if x1 >= x2 or y1 >= y2:
        return None
    return (x1, y1, x2, y2)


def make_detection(
    frame_index: int,
    track_id: int,
    class_id: int,
    box: Iterable[float],
    confidence: float,
    resolution: tuple[int, int],
    line: int | None = None,
) -> TrackedDetection:
    """Validate and clamp one detection row, raising TrackFileError on bad input."""
    box = tuple(float(v) for v in box)
    if len(box) != 4:
        raise TrackFileError("box must have 4 coordinates", line)
    if frame_index < 1:
        raise TrackFileError(f"frame index {frame_index} must be >= 1", line)
    if track_id < 0:
        raise TrackFileError(f"track id {track_id} must be >= 0", line)
    if not 1 <= class_id <= MAX_CLASS_ID:
        raise TrackFileError(f"class id {class_id} outside [1, {MAX_CLASS_ID}]", line)
    if not 0.0 <= confidence <= 1.0:
        raise TrackFileError(f"confidence {confidence} outside [0, 1]", line)
    if box[0] >= box[2] or box[1] >= box[3]:
        raise TrackFileError(f"degenerate box {box}", line)
    clamped = clamp_box(box, resolution)
    if clamped is None:
        raise TrackFileError(f"box {box} does not intersect the frame", line)
    return TrackedDetection(int(frame_index), int(track_id), int(class_id), clamped, float(confidence))


def _open_text(source, mode: str = "r"):
    if isinstance(source, (str, Path)):
        return open(source, mode, encoding="utf-8"), True
    return source, False


def _parse_header(line: str, lineno: int) -> tuple[tuple[int, int], int]:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TrackFileError(f"bad header: {exc.msg}", lineno) from None
    try:
        width, height, frames = int(header["width"]), int(header["height"]), int(header["frames"])
    except (KeyError, TypeError, ValueError):
        raise TrackFileError("header must declare integer width, height and frames", lineno) from None
    if width < 1 or height < 1 or frames < 1:
        raise TrackFileError("header width/height/frames must be positive", lineno)
    return (width, height), frames


def _finish_track_set(
    resolution: tuple[int, int], frame_count: int, rows: list[TrackedDetection]
) -> TrackSet:
    seen: set[tuple[int, int]] = set()
    for det in rows:
        key = (det.frame_index, det.track_id)
        if key in seen:
            raise TrackFileError(f"duplicate track {det.track_id} in frame {det.frame_index}")
        seen.add(key)
        if det.frame_index > frame_count:
            raise TrackFileError(
                f"frame index {det.frame_index} exceeds declared frame count {frame_count}"
            )
    rows.sort(key=lambda d: (d.frame_index, d.track_id))
    return TrackSet(resolution, frame_count, tuple(rows))


def _parse_jsonl(fh: IO[str]) -> TrackSet:
    first = fh.readline()
    if not first.strip():
        raise TrackFileError("missing header line", 1)
    resolution, frames = _parse_header(first, 1)
    rows: list[TrackedDetection] = []
    for lineno, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TrackFileError(f"bad JSON: {exc.msg}", lineno) from None
        try:
            det = make_detection(
                int(obj["frame"]), int(obj["id"]), int(obj["class"]),
                obj["box"], float(obj["conf"]), resolution, lineno,
            )
        except (KeyError, TypeError) as exc:
            raise TrackFileError(f"missing or invalid field: {exc}", lineno) from None
        rows.append(det)
    return _finish_track_set(resolution, frames, rows)


def _parse_mot(fh: IO[str]) -> TrackSet:
    """MOTChallenge-style CSV: frame,id,left,top,width,height,conf[,class].

    The file must begin with a comment header carrying the resolution, e.g.
    ``# {"width": 640, "height": 360, "frames": 100}``; bare MOT rows do not
    encode it. A missing class column defaults to person (1).
    """
    first = fh.readline()
    if not first.startswith("#"):
        raise TrackFileError('MOT input needs a first line like # {"width":W,"height":H,"frames":N}', 1)
    resolution, frames = _parse_header(first.lstrip("#").strip(), 1)
    rows: list[TrackedDetection] = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 7:
            raise TrackFileError("expected frame,id,left,top,width,height,conf[,class]", lineno)
        try:
            frame, tid = int(float(parts[0])), int(float(parts[1]))
            left, top, bw, bh = (float(p) for p in parts[2:6])
            conf = float(parts[6])
            class_id = int(float(parts[7])) if len(parts) > 7 and parts[7].strip() else PERSON_CLASS_ID
        except ValueError as exc:
            raise TrackFileError(f"bad number: {exc}", lineno) from None
        if bw <= 0 or bh <= 0:
            raise TrackFileError(f"non-positive box size {bw}x{bh}", lineno)
        det = make_detection(frame, tid, class_id, (left, top, left + bw, top + bh),
                             conf, resolution, lineno)
        rows.append(det)
    return _finish_track_set(resolution, frames, rows)


def parse_tracks(source, format: str = "jsonl") -> TrackSet:
    """Parse tracker output from a path or text stream.

    ``format`` is "jsonl" (header line with width/height/frames, then one
    detection object per line) or "mot" (MOTChallenge CSV with a JSON
    comment header).
    """
    if format == "jsonl":
        parser = _parse_jsonl
    elif format in ("mot", "mot-csv"):
        parser = _parse_mot
    else:
        raise ValueError(f"unknown track format {format!r}")
    fh, owned = _open_text(source)
    try:
        return parser(fh)
    finally:
        if owned:
            fh.close()


def write_tracks(tracks: TrackSet, target) -> None:
    """Serialize a TrackSet to the jsonl interchange format."""
    fh, owned = _open_text(target, "w")
    try:
        w, h = tracks.resolution
        fh.write(json.dumps({"width": w, "height": h, "frames": tracks.frame_count}) + "\n")
        for d in tracks.detections:
            fh.write(json.dumps({
                "frame": d.frame_index, "id": d.track_id, "class": d.class_id,
                "box": list(d.box), "conf": d.confidence,
            }) + "\n")
    finally:
        if owned:
            fh.close()


def parse_ground_truth(source) -> GroundTruth:
    """Parse gt.jsonl: one {"frame", "gt_id", "box"} object per line."""
    fh, owned = _open_text(source)
    try:
        regions: list[GtRegion] = []
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                frame, gt_id = int(obj["frame"]), int(obj["gt_id"])
                box = tuple(float(v) for v in obj["box"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                raise TrackFileError("expected {frame, gt_id, box} object", lineno) from None
            if len(box) != 4 or box[0] >= box[2] or box[1] >= box[3]:
                raise TrackFileError(f"degenerate ground-truth box {box}", lineno)
            if frame < 1:
                raise TrackFileError(f"frame index {frame} must be >= 1", lineno)
            regions.append(GtRegion(frame, gt_id, box))
        regions.sort(key=lambda r: (r.frame, r.gt_id))
        return GroundTruth(tuple(regions))
    finally:
        if owned:
            fh.close()


def write_ground_truth(gt: GroundTruth, target) -> None:
    fh, owned = _open_text(target, "w")
    try:
        for r in gt.regions:
            fh.write(json.dumps({"frame": r.frame, "gt_id": r.gt_id, "box": list(r.box)}) + "\n")
    finally:
        if owned:
            fh.close()


def _group_threshold(confidences: list[float], group: str) -> float:
    if not confidences:
        log.info("no %s detections; confidence threshold defaults to 0", group)
        return 0.0
    arr = np.asarray(confidences, dtype=float)
    # population standard deviation: deterministic for a single sample
    return float(max(0.0, arr.mean() - 2.0 * arr.std()))


def compute_confidence_thresholds(tracks: TrackSet) -> ConfidenceThresholds:
    """Dynamic thresholds, one for person and one for the pooled remaining classes."""
    person = [d.confidence for d in tracks.detections if d.class_id == PERSON_CLASS_ID]
    other = [d.confidence for d in tracks.detections if d.class_id != PERSON_CLASS_ID]
    return ConfidenceThresholds(
        person_threshold=_group_threshold(person, "person"),
        other_threshold=_group_threshold(other, "non-person"),
    )


def filter_detections(tracks: TrackSet, thresholds: ConfidenceThresholds) -> TrackSet:
    """Keep detections whose confidence is >= their class group's threshold."""
    kept = tuple(d for d in tracks.detections
                 if d.confidence >= thresholds.for_class(d.class_id))
    return replace(tracks, detections=kept)


def slice_frames(tracks: TrackSet, slice_factor: int) -> TrackSet:
    """Retain every slice_factor-th frame, keeping original frame indices.

    Frame 1 is always retained; velocity normalization later relies on the
    preserved indices to recover true frame gaps.
    """
    if slice_factor < 1:
        raise ValueError(f"slice factor {slice_factor} must be >= 1")
    if slice_factor == 1:
        return tracks
    kept = tuple(d for d in tracks.detections if (d.frame_index - 1) % slice_factor == 0)
    return replace(tracks, detections=kept)
