"""Per-cell posterior breakdowns that justify an anomaly score.

For every attribute of a scored object, the fitted network is queried
with the cell index and all remaining attributes as hard evidence. The
resulting distributions show which attribute values were plausible at
that location and where the observed value ranks among them, in the same
vocabulary the model was trained on.

Every breakdown of a cell, the class one included, comes from one
``bn.leave_one_out`` reduction of the cell's full assignment, the kernel
scoring queries too, so the class breakdown equals the score bit for bit.
Only an unseen class, whose BS and V stay hidden, goes to ``bn.eliminate``.
The writer spells the JSON text directly, byte for byte what
``json.dumps(..., indent=2)`` writes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path
from typing import Mapping

from . import bn
from .featurize import CATEGORIES, CODES
from .pipeline import (
    REASON_UNSEEN_CLASS,
    CellScore,
    ModelBundle,
    ScoredObject,
    object_evidence,
)


@dataclass(frozen=True)
class RvBreakdown:
    """Posterior over one attribute given the cell and all other attributes."""

    labels: tuple
    probabilities: tuple[float, ...]
    observed: object
    observed_probability: float
    rank: int
    impossible: bool


@dataclass(frozen=True)
class CellExplanation:
    cell_size: int
    cell: int
    assignment: dict
    breakdowns: dict[str, RvBreakdown]
    class_score: float


@dataclass(frozen=True)
class ObjectExplanation:
    frame: int
    track_id: int
    class_id: int
    box: tuple
    reason: str | None
    cells: tuple[CellExplanation, ...]
    per_cell: dict[int, tuple[CellScore, ...]]
    per_granularity: dict[int, float]
    fused: float
    fusion: str


def _breakdown(posterior: bn.Posterior, labels, observed_label,
               observed_index: int | None) -> RvBreakdown:
    probabilities = tuple(posterior.values.tolist())
    if observed_index is None:
        probability = 0.0
        rank = len(labels) + 1
    else:
        probability = probabilities[observed_index]
        rank = 1 + sum(p > probability for p in probabilities)
    return RvBreakdown(tuple(labels), probabilities, observed_label, probability, rank,
                       posterior.impossible)


def explain_cell(bundle: ModelBundle, cell_size: int, cell: int,
                 assignment: Mapping[str, object]) -> CellExplanation:
    """Breakdown of every attribute's posterior at one grid cell.

    ``assignment`` holds the observed values: "C" as an integer class id and
    the categorical attributes as labels, complete for the bundle's model
    kind. For each attribute X the posterior P(X | G = cell, rest of
    assignment) is computed, all from one ``bn.leave_one_out`` reduction of
    the cell's codes; its value at the observed class for X = C is exactly
    the per-cell score the scoring pipeline used.
    """
    gran = bundle.granularity(cell_size)
    rvs = [rv for rv in gran.net.dag.names if rv != "G"]
    missing = [rv for rv in rvs if rv not in assignment]
    if missing:
        raise ValueError(f"assignment incomplete for {bundle.kind} model: missing {missing}")
    if not 1 <= cell <= gran.grid.cell_count:
        raise ValueError(f"cell {cell} outside grid with {gran.grid.cell_count} cells")
    codes: dict[str, int] = {"G": cell - 1}
    for rv in rvs:
        value = assignment[rv]
        if rv == "C":
            codes["C"] = bundle.class_index(bn._integer("C", value))
            if codes["C"] is None:
                raise ValueError(f"class {value} not in the fitted network; "
                                 "unseen classes have no cell explanation")
        elif value in CATEGORIES[rv]:
            codes[rv] = CODES[rv][value]
        else:
            raise ValueError(f"{value!r} is not a {rv} category")
    posteriors = bn.leave_one_out(gran.net, codes, tuple(rvs))
    breakdowns = {rv: _breakdown(posteriors[rv], bundle.class_ids if rv == "C" else CATEGORIES[rv],
                                 assignment[rv], codes[rv]) for rv in rvs}
    # impossible evidence shows a flagged uniform distribution, but the
    # score itself mirrors the pipeline's 0.0 for such cells
    class_score = 0.0 if breakdowns["C"].impossible \
        else breakdowns["C"].observed_probability
    return CellExplanation(cell_size, cell, dict(assignment), breakdowns, class_score)


def explain_object(bundle: ModelBundle, scored: ScoredObject) -> ObjectExplanation:
    """One cell explanation per occupied cell per granularity.

    The aggregation trace (per-cell scores, per-granularity means, fusion)
    is carried over from the scored object. For unseen classes only a
    reduced class posterior over the class-independent attributes is
    emitted, tagged with the unseen-class reason.
    """
    cells: list[CellExplanation] = []
    for gran in bundle.granularities:
        items = object_evidence(bundle, gran, scored.class_id, scored.box,
                                scored.prev_center, scored.frame_gap)
        for cell, evidence, labels in items:
            if scored.reason == REASON_UNSEEN_CLASS:
                # BS and any V stay hidden: the class posterior from the class-
                # independent evidence; its support omits the unseen class
                breakdown = _breakdown(bn.eliminate(gran.net, "C", evidence), bundle.class_ids,
                                       labels["C"], None)
                cells.append(CellExplanation(gran.grid.cell_size, cell, dict(labels),
                                             {"C": breakdown}, 0.0))
            else:
                cells.append(explain_cell(bundle, gran.grid.cell_size, cell, labels))
    return ObjectExplanation(scored.frame, scored.track_id, scored.class_id,
                             scored.box, scored.reason, tuple(cells),
                             dict(scored.per_cell), dict(scored.per_granularity),
                             scored.fused, bundle.fusion)


# ---------------------------------------------------------------------------
# JSON output

# The two files' format: each object of fixed keys is a template laid out
# at its depth, with the bytes ``json.dumps(..., indent=2)`` gives: ints by
# ``%d``, floats by ``float.__repr__``, strings (labels, observed values and
# keys as text) by the encoder's ASCII escaper, only non-finite floats
# through ``json.dumps``. With ``indent`` set, ``json.dumps`` runs its
# pure-Python encoder, which made it most of an explain request.
_EXPLANATION = """{
  "frame": %d,
  "track_id": %d,
  "class_id": %d,
  "box": %s,
  "reason": %s,
  "fused": %s,
  "fusion": %s,
  "per_granularity": %s,
  "per_cell": %s,
  "cells": %s
}"""
_CELL_SCORE = """{
        "cell": %d,
        "probability": %s,
        "impossible": %s
      }"""
_CELL = """{
      "cell_size": %d,
      "cell": %d,
      "assignment": %s,
      "class_score": %s,
      "breakdowns": %s
    }"""
_BREAKDOWN = """{
          "categories": %s,
          "probabilities": %s,
          "observed": %s,
          "observed_probability": %s,
          "rank": %d,
          "impossible": %s
        }"""
_PLOT_ROW = """{
    "cell_size": %d,
    "cell": %d,
    "rv": %s,
    "categories": %s,
    "probabilities": %s,
    "observed": %s
  }"""
_BOOLEANS = ("false", "true")


def _float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def _block(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Spelled items laid out as a list (or object) that opens at depth ``indent``."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


def _mapping(pairs, indent: str) -> str:
    return _block([f"{_string(str(key))}: {value}" for key, value in pairs], indent, "{}")


def write_explanation(explanation: ObjectExplanation, path) -> Path:
    """Write explanation JSON plus the .plot.json sidecar; returns the main path.

    Their format is the templates above: one ``_EXPLANATION``, and a list of ``_PLOT_ROW``.
    """
    e = explanation
    # both files list every distribution: spell each once
    spelled = [[(rv, b, [_string(str(label)) for label in b.labels],
                 list(map(_float, b.probabilities)), _string(str(b.observed)))
                for rv, b in c.breakdowns.items()] for c in e.cells]
    cells = [_CELL % (c.cell_size, c.cell,
                      _mapping([(k, _string(str(v))) for k, v in c.assignment.items()], "      "),
                      _float(c.class_score),
                      _mapping([(rv, _BREAKDOWN % (
                          _block(labels, "          "), _block(probabilities, "          "),
                          observed, _float(b.observed_probability), b.rank,
                          _BOOLEANS[b.impossible]))
                          for rv, b, labels, probabilities, observed in rows], "      "))
             for c, rows in zip(e.cells, spelled)]
    per_cell = [(cs, _block([_CELL_SCORE % (s.cell, _float(s.probability),
                                            _BOOLEANS[s.impossible]) for s in scores], "    "))
                for cs, scores in sorted(e.per_cell.items())]
    text = _EXPLANATION % (
        e.frame, e.track_id, e.class_id, _block(list(map(_float, e.box)), "  "),
        "null" if e.reason is None else _string(e.reason), _float(e.fused), _string(e.fusion),
        _mapping([(cs, _float(p)) for cs, p in sorted(e.per_granularity.items())], "  "),
        _mapping(per_cell, "  "), _block(cells, "  "))
    plot = _block([_PLOT_ROW % (c.cell_size, c.cell, _string(rv), _block(labels, "    "),
                                _block(probabilities, "    "), observed)
                   for c, rows in zip(e.cells, spelled)
                   for rv, b, labels, probabilities, observed in rows], "")
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    path.with_suffix(".plot.json").write_text(plot, encoding="utf-8")
    return path
