"""Second statements of rules the package states once, kept as test oracles.

- :func:`with_predecessors` pairs each detection with its track's previous
  surviving detection by walking the stream, the rule
  ``featurize.stream_columns`` states with column arithmetic.
- :func:`explanation_to_dict` and :func:`plot_data` build the two explain
  files as JSON data; ``explain.write_explanation`` must write exactly
  ``json.dumps(..., indent=2)`` of them.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from gridvad.explain import ObjectExplanation, RvBreakdown
from gridvad.featurize import box_center
from gridvad.ingest import TrackedDetection


def with_predecessors(detections: Iterable[TrackedDetection]) -> Iterator[
        tuple[TrackedDetection, tuple[float, float] | None, int | None]]:
    """Pair each detection with its track's previous surviving detection.

    Yields (detection, previous box center, frame gap) in input order, or
    (detection, None, None) on a track's first appearance. Detections must
    be frame-sorted, as in a TrackSet; the gap is the true frame distance,
    so motion stays comparable between sliced and unsliced streams.
    """
    last: dict[int, tuple[int, tuple[float, float]]] = {}
    for det in detections:
        prev = last.get(det.track_id)
        if prev is None:
            yield det, None, None
        else:
            yield det, prev[1], det.frame_index - prev[0]
        last[det.track_id] = (det.frame_index, box_center(det.box))


def _breakdown_payload(b: RvBreakdown) -> dict:
    return {
        "categories": [str(l) for l in b.labels],
        "probabilities": list(b.probabilities),
        "observed": str(b.observed),
        "observed_probability": b.observed_probability,
        "rank": b.rank,
        "impossible": b.impossible,
    }


def explanation_to_dict(explanation: ObjectExplanation) -> dict:
    """The explanation as JSON data: the payload of the main explanation file."""
    return {
        "frame": explanation.frame,
        "track_id": explanation.track_id,
        "class_id": explanation.class_id,
        "box": list(explanation.box),
        "reason": explanation.reason,
        "fused": explanation.fused,
        "fusion": explanation.fusion,
        "per_granularity": {str(cs): p for cs, p in
                            sorted(explanation.per_granularity.items())},
        "per_cell": {str(cs): [{"cell": c.cell, "probability": c.probability,
                                "impossible": c.impossible} for c in cell_scores]
                     for cs, cell_scores in sorted(explanation.per_cell.items())},
        "cells": [{
            "cell_size": c.cell_size,
            "cell": c.cell,
            "assignment": {k: str(v) for k, v in c.assignment.items()},
            "class_score": c.class_score,
            "breakdowns": {rv: _breakdown_payload(b)
                           for rv, b in c.breakdowns.items()},
        } for c in explanation.cells],
    }


def plot_data(explanation: ObjectExplanation) -> list[dict]:
    """Flat per-RV category/probability pairs: the payload of the ``.plot.json`` sidecar."""
    rows = []
    for cell in explanation.cells:
        for rv, b in cell.breakdowns.items():
            rows.append({
                "cell_size": cell.cell_size,
                "cell": cell.cell,
                "rv": rv,
                "categories": [str(l) for l in b.labels],
                "probabilities": list(b.probabilities),
                "observed": str(b.observed),
            })
    return rows
