"""Training and scoring orchestration.

``train`` fits one network per grid granularity and wraps everything into
a serializable :class:`ModelBundle`; its observation tables are the
integer code columns of the featurizer. ``score_frames`` featurizes a
test stream once into the same code columns, queries the bundle, fuses
granularities, reduces objects to frame scores and smooths them over
time. Within one stream each distinct (granularity, evidence) key is
queried once and its exact class posterior is shared by every cell with
that key. Its scores stay columns, a :class:`ScoreTable`, from the
posteriors to ``write_scores``, which formats ``scores.jsonl`` from them;
reason strings and :class:`ScoredObject` rows appear only when the table
is read as a sequence; ``read_scores`` reads the file back into a table.
``score_object`` scores one detection on the scalar per-cell path, which
is cheaper for one box and is the reference ``score_frames`` is tested
against. Objects of classes never seen in training score 0.0, as do
objects whose attribute combination has zero probability under every
network.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import bn
from .featurize import (
    BOX_MODE_BOTTOM,
    BOX_MODES,
    CODES,
    IDLE_SPEED,
    SPATIOTEMPORAL,
    SQUARE_TOLERANCE,
    MODEL_KINDS,
    ClassStats,
    DiscretizationModel,
    GridSpec,
    ObservationTable,
    StreamColumns,
    box_center,
    build_grid,
    cell_labels,
    fit_discretizer,
    generate_observations,
    observation_codes,
    stream_columns,
)
from .ingest import (BOX, INTEGER, NUMBER, ColumnTable, ConfidenceThresholds, TrackSet,
                     TrackedDetection, _first_nonfinite, _json_columns, _json_values,
                     _read_chunks, _row_error, _sorted_repeats)

BUNDLE_FORMAT = "gridvad-bundle"
BUNDLE_VERSION = 1

FUSION_MEAN = "mean"
FUSION_MIN = "min"
FUSION_RULES = (FUSION_MEAN, FUSION_MIN)

REASON_UNSEEN_CLASS = "unseen-class"
REASON_IMPOSSIBLE = "impossible-evidence"

@dataclass(frozen=True)
class TrainConfig:
    cell_sizes: tuple[int, ...]
    kind: str = SPATIOTEMPORAL
    box_mode: str = BOX_MODE_BOTTOM
    fusion: str = FUSION_MEAN
    smoothing_sigma: float = 5.0

    def __post_init__(self):
        if not self.cell_sizes:
            raise ValueError("at least one cell size is required")
        _check_settings(self.kind, self.box_mode, self.fusion, self.smoothing_sigma)


def _check_settings(kind, box_mode, fusion, smoothing_sigma, where: str = "") -> None:
    """Reject a model setting the scorer does not know, naming its field after ``where``."""
    for name, value, known in (("kind", kind, MODEL_KINDS), ("box_mode", box_mode, BOX_MODES),
                               ("fusion", fusion, FUSION_RULES)):
        if value not in known:
            raise ValueError(f"{where}{name} must be one of {', '.join(known)}, not {value!r}")
    _check_number(smoothing_sigma, f"{where}smoothing_sigma", low=0)


def _check_number(value, name: str, low: float = -math.inf, high: float = math.inf) -> None:
    """Reject anything but a finite int or float (not a bool) in [low, high], naming it."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (math.isfinite(value) and low <= value <= high)):
        span = ("" if low == -math.inf else f" >= {low}" if high == math.inf
                else f" in [{low}, {high}]")
        raise ValueError(f"{name} must be a finite number{span}, not {value!r}")


def _check_integer(value, name: str, key: bool = False) -> int:
    """Return a JSON integer (not a bool), or for an object ``key``, which JSON
    spells as text, the integer of its plain decimal text; refuse anything
    else, naming it."""
    if key:
        if isinstance(value, str) and re.fullmatch(r"0|-?[1-9][0-9]*", value):
            return int(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class GranularityModel:
    grid: GridSpec
    discretizer: DiscretizationModel
    net: bn.BayesNet


@dataclass(frozen=True)
class ModelBundle:
    """Deployable artifact: per-granularity fitted networks plus shared settings."""

    kind: str
    resolution: tuple[int, int]
    class_ids: tuple[int, ...]
    granularities: tuple[GranularityModel, ...]
    fusion: str = FUSION_MEAN
    smoothing_sigma: float = 5.0
    box_mode: str = BOX_MODE_BOTTOM
    thresholds: ConfidenceThresholds = ConfidenceThresholds()

    @property
    def cell_sizes(self) -> tuple[int, ...]:
        return tuple(g.grid.cell_size for g in self.granularities)

    def class_index(self, class_id: int) -> int | None:
        try:
            return self.class_ids.index(class_id)
        except ValueError:
            return None

    def granularity(self, cell_size: int) -> GranularityModel:
        for g in self.granularities:
            if g.grid.cell_size == cell_size:
                return g
        raise KeyError(f"bundle has no granularity with cell size {cell_size}")


class CellScore(NamedTuple):
    cell: int
    probability: float
    impossible: bool


@dataclass(frozen=True)
class ScoredObject:
    frame: int
    track_id: int
    class_id: int
    box: tuple[float, float, float, float]
    per_granularity: dict[int, float]
    fused: float
    reason: str | None = None
    prev_center: tuple[float, float] | None = None
    frame_gap: int | None = None
    per_cell: dict[int, tuple[CellScore, ...]] = field(default_factory=dict)


class CellColumns(NamedTuple):
    """The scored cells of one granularity, grouped by object in stream order.

    Object ``i``'s cells are rows ``offsets[i]:offsets[i + 1]`` of ``cell``
    (int64, 1-based), ``probability`` (float64) and ``impossible`` (bool).
    """

    offsets: np.ndarray
    cell: np.ndarray
    probability: np.ndarray
    impossible: np.ndarray


# reason code of a ScoreTable row -> ScoredObject.reason
REASONS = (None, REASON_UNSEEN_CLASS, REASON_IMPOSSIBLE)


class ScoreTable(ColumnTable):
    """The scored objects of one stream as read-only numpy columns.

    ``frame``, ``track_id`` and ``class_id`` are int64 and ``box`` an
    (n, 4) float64 array, as in the stream's detections. ``prev`` indexes
    the track's previous row and ``gap`` is the frame distance to it (both
    -1 without one). ``per_granularity`` is (n, G) float64 with one column
    per entry of ``cell_sizes`` (G may be 0), ``fused`` float64,
    ``reason`` a code into :data:`REASONS`, and ``cells`` one
    :class:`CellColumns` per granularity.

    Read as a sequence the columns give one :class:`ScoredObject` per row,
    with its ``per_cell`` trace, built on access; a slice gives a list.
    Equality, read-only columns, copy and pickle follow
    :class:`~gridvad.ingest.ColumnTable`: equal to a table with the same
    columns and to a list or tuple of the same objects.
    """

    __slots__ = ("frame", "track_id", "class_id", "box", "prev", "gap", "cell_sizes",
                 "per_granularity", "fused", "reason", "cells")

    def __init__(self, frame, track_id, class_id, box, prev, gap, cell_sizes,
                 per_granularity, fused, reason, cells):
        frame, cell_sizes = np.asarray(frame, np.int64), tuple(map(int, cell_sizes))
        cells = tuple(CellColumns(np.asarray(c.offsets, np.int64), np.asarray(c.cell, np.int64),
                                  np.asarray(c.probability, np.float64),
                                  np.asarray(c.impossible, bool)) for c in cells)
        if len(set(cell_sizes)) != len(cell_sizes) or len(cells) != len(cell_sizes):
            raise ValueError("score table needs one cell column set per distinct cell size")
        if any(len(c.offsets) != len(frame) + 1 or len(set(map(len, c[1:]))) != 1 for c in cells):
            raise ValueError("score table cell columns have different lengths")
        super().__init__(frame, np.asarray(track_id, np.int64), np.asarray(class_id, np.int64),
                         np.asarray(box, np.float64).reshape(-1, 4), np.asarray(prev, np.int64),
                         np.asarray(gap, np.int64), cell_sizes,
                         np.asarray(per_granularity, np.float64).reshape(len(frame),
                                                                         len(cell_sizes)),
                         np.asarray(fused, np.float64), np.asarray(reason, np.int8), cells)

    def reason_count(self, reason: str | None) -> int:
        """The number of rows with this reason."""
        return int(np.count_nonzero(self.reason == REASONS.index(reason)))

    def _rows(self, start: int, stop: int):
        """The ScoredObjects of rows start..stop-1, each built when reached.

        The rows' columns become Python lists up front, so a row costs no
        numpy call.
        """
        rows = slice(start, stop)
        prev = self.prev[rows]
        prev_boxes = self.box[prev].tolist()
        cells = []
        for c in self.cells:
            offsets = c.offsets[start:stop + 1]
            first, last = offsets[0], offsets[-1]
            cells.append(((offsets - first).tolist(), c.cell[first:last].tolist(),
                          c.probability[first:last].tolist(),
                          c.impossible[first:last].tolist()))
        for k, (frame, track_id, class_id, box, per_granularity, fused, code, p, gap) in (
                enumerate(zip(self.frame[rows].tolist(), self.track_id[rows].tolist(),
                              self.class_id[rows].tolist(), self.box[rows].tolist(),
                              self.per_granularity[rows].tolist(), self.fused[rows].tolist(),
                              self.reason[rows].tolist(), prev.tolist(),
                              self.gap[rows].tolist()))):
            reason = REASONS[code]
            per_cell = {}
            if reason != REASON_UNSEEN_CLASS:
                for cs, (offsets, cell, probability, impossible) in zip(self.cell_sizes, cells):
                    a, b = offsets[k], offsets[k + 1]
                    per_cell[cs] = tuple(map(CellScore, cell[a:b], probability[a:b],
                                             impossible[a:b]))
            yield ScoredObject(frame, track_id, class_id, tuple(box),
                               dict(zip(self.cell_sizes, per_granularity)), fused, reason,
                               box_center(prev_boxes[k]) if p >= 0 else None,
                               gap if gap >= 0 else None, per_cell)


@dataclass(frozen=True)
class FrameScores:
    """Per-frame raw minima and their Gaussian-smoothed version, both in [0, 1]."""

    raw: np.ndarray
    smoothed: np.ndarray

    def __len__(self) -> int:
        return len(self.raw)


def observation_columns(table: ObservationTable, class_ids: Sequence[int]) -> dict[str, np.ndarray]:
    """Integer-coded columns for network fitting (class ids become indices).

    Every ``bn.NODE_ORDER`` variable but F gets a column; ``bn.fit_mle``
    reads only those of its network, so a spatial table's unset V and D
    codes are never read.
    """
    columns = {rv: table.rows[:, k] for k, rv in enumerate(bn.NODE_ORDER) if rv != "F"}
    ids = np.asarray(class_ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    index = order.take(np.searchsorted(ids, columns["C"], sorter=order), mode="clip")
    unknown = ids.take(index) != columns["C"]
    if unknown.any():
        raise KeyError(int(columns["C"][unknown][0]))
    columns["C"] = index
    return columns


def train(config: TrainConfig, train_tracks: TrackSet,
          thresholds: ConfidenceThresholds | None = None,
          timings: dict | None = None,
          tables: dict | None = None) -> ModelBundle:
    """Fit discretizer, observation tables and one network per cell size.

    ``train_tracks`` must already be confidence-filtered and frame-sliced;
    the thresholds used for filtering ride along in the bundle so scoring
    can apply the identical cut-offs to test streams. Passing a dict as
    ``timings`` records per-granularity fit seconds and observation counts;
    passing one as ``tables`` collects each cell size's ObservationTable.
    """
    if not train_tracks.detections:
        raise bn.FitError("cannot train on an empty track set")
    # one spatio-temporal stream serves the discretizer and every table
    stream = stream_columns(train_tracks.detections, SPATIOTEMPORAL)
    discretizer = fit_discretizer(train_tracks, stream)
    class_ids = tuple(sorted(discretizer.per_class))
    fit_seconds: dict[str, float] = {}
    observations: dict[str, int] = {}
    granularities = []
    for cell_size in sorted(set(config.cell_sizes)):
        grid = build_grid(train_tracks.resolution, cell_size)
        table = generate_observations(train_tracks, grid, discretizer,
                                      config.kind, config.box_mode, stream)
        dag = bn.build_structure(config.kind, cell_count=grid.cell_count,
                                 class_count=len(class_ids))
        started = time.perf_counter()
        net = bn.fit_mle(dag, observation_columns(table, class_ids))
        fit_seconds[str(cell_size)] = time.perf_counter() - started
        observations[str(cell_size)] = len(table.rows)
        if tables is not None:
            tables[cell_size] = table
        granularities.append(GranularityModel(grid, discretizer, net))
    if timings is not None:
        timings["fit_seconds"] = fit_seconds
        timings["observations"] = observations
    return ModelBundle(config.kind, train_tracks.resolution, class_ids,
                       tuple(granularities), config.fusion, config.smoothing_sigma,
                       config.box_mode, thresholds or ConfidenceThresholds())


def object_evidence(bundle: ModelBundle, gran: GranularityModel, class_id: int,
                    box: tuple[float, float, float, float],
                    prev_center: tuple[float, float] | None,
                    frame_gap: int | None):
    """Per-cell evidence for one detection at one granularity.

    Returns a list of (cell, evidence codes, label assignment) for every
    cell the box occupies under the bundle's box mode, the cells training
    saw. A class without training statistics gets no BS or V evidence.
    Scoring and explanation share this path so their posteriors are
    bit-identical.
    """
    out = []
    for cell, labels in cell_labels(class_id, box, prev_center, frame_gap, gran.grid,
                                    gran.discretizer, bundle.kind, bundle.box_mode):
        evidence = {rv: CODES[rv][label] for rv, label in labels.items()}
        evidence["G"] = cell - 1
        out.append((cell, evidence, {"C": class_id, **labels}))
    return out


def _mean(values: Sequence[float]) -> float:
    """Mean with the terms added left to right, as :func:`score_frames` adds them;
    ``sum()`` of floats is compensated from Python 3.12 and can round differently."""
    return functools.reduce(operator.add, values) / len(values)


def fuse(values: Sequence[float], rule: str) -> float:
    if rule == FUSION_MEAN:
        return _mean(values)
    if rule == FUSION_MIN:
        return min(values)
    raise ValueError(f"unknown fusion rule {rule!r}")


def score_object(bundle: ModelBundle, det: TrackedDetection,
                 prev_center: tuple[float, float] | None = None,
                 frame_gap: int | None = None) -> ScoredObject:
    """Probability of one detection's class given its attributes.

    Per granularity the score is the mean of P(C = class | evidence) over
    the cells the box occupies; granularities are then fused. A class
    unseen in training or evidence impossible under every network yields
    0.0 with a matching reason code.

    This is the one-box path (explanations, ``gridvad explain``) and the
    reference :func:`score_frames` is tested against. It stays scalar by
    measurement: the columnar featurizer's fixed numpy cost per call is
    several times a one-detection score. Each cell's evidence holds its
    own G, so every cell is one ``class_cpt_query``.
    """
    base = dict(frame=det.frame_index, track_id=det.track_id, class_id=det.class_id,
                box=det.box, prev_center=prev_center, frame_gap=frame_gap)
    if bundle.class_index(det.class_id) is None:
        zeros = {g.grid.cell_size: 0.0 for g in bundle.granularities}
        return ScoredObject(per_granularity=zeros, fused=0.0,
                            reason=REASON_UNSEEN_CLASS, **base)
    class_index = bundle.class_index(det.class_id)
    per_granularity: dict[int, float] = {}
    per_cell: dict[int, tuple[CellScore, ...]] = {}
    all_impossible = True
    for gran in bundle.granularities:
        items = object_evidence(bundle, gran, det.class_id, det.box, prev_center, frame_gap)
        cell_scores = []
        for cell, evidence, _labels in items:
            posterior = bn.class_cpt_query(gran.net, evidence)
            if posterior.impossible:
                probability = 0.0
            else:
                probability = float(posterior.values[class_index])
                all_impossible = False
            cell_scores.append(CellScore(cell, probability, posterior.impossible))
        per_cell[gran.grid.cell_size] = tuple(cell_scores)
        per_granularity[gran.grid.cell_size] = _mean([c.probability for c in cell_scores])
    fused = fuse(list(per_granularity.values()), bundle.fusion)
    reason = REASON_IMPOSSIBLE if all_impossible else None
    return ScoredObject(per_granularity=per_granularity, fused=fused,
                        reason=reason, per_cell=per_cell, **base)


def gaussian_smooth(values: np.ndarray, sigma: float) -> np.ndarray:
    """1-D Gaussian smoothing with radius 3*sigma and edge-replicate padding."""
    values = np.asarray(values, dtype=float)
    if sigma <= 0 or values.size == 0:
        return values.copy()
    radius = int(math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(values, radius, mode="edge")
    return np.convolve(padded, kernel, mode="valid")


def _cell_scores(gran: GranularityModel, bundle: ModelBundle, stream: StreamColumns,
                 class_index: np.ndarray) -> tuple[np.ndarray, ...]:
    """Owner, cell, probability and impossible flag of every scored cell at one
    granularity, plus the number of posterior queries made.

    Cells of classes without training statistics are dropped. The
    evidence codes of each cell pack into one int64 key; each distinct key
    is one ``class_cpt_query``, whose result every cell with that key shares.
    """
    owner, rows = observation_codes(stream, gran.grid, gran.discretizer, bundle.kind,
                                    bundle.box_mode)
    keep = np.flatnonzero(class_index[owner] >= 0)
    owner = owner[keep]
    names = [rv for rv in gran.net.dag.names if rv != "C"]
    columns = [bn.NODE_ORDER.index(rv) for rv in names]
    keys = np.ravel_multi_index(tuple(rows[keep, k] for k in columns),
                                [gran.net.dag.cardinality(rv) for rv in names])
    _keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    posteriors = [bn.class_cpt_query(gran.net, dict(zip(names, rows[i, columns].tolist())))
                  for i in keep[first].tolist()]
    values = np.array([p.values for p in posteriors]).reshape(
        len(posteriors), gran.net.dag.cardinality("C"))
    impossible = np.array([p.impossible for p in posteriors], dtype=bool)[inverse]
    probability = np.where(impossible, 0.0, values[inverse, class_index[owner]])
    cell = rows[keep, bn.NODE_ORDER.index("G")] + 1
    return owner, cell, probability, impossible, len(posteriors)


def score_frames(bundle: ModelBundle, test: TrackSet,
                 timings: dict | None = None) -> tuple[ScoreTable, FrameScores]:
    """Score every detection and reduce to per-frame anomaly scores.

    The stream is featurized once into integer code columns
    (:func:`~gridvad.featurize.observation_codes`); per granularity each
    distinct evidence key is queried once and its exact class posterior
    is shared by every cell with that key. The objects come back as a
    :class:`ScoreTable` of columns; no per-object result is built. Its
    rows equal :func:`score_object` on each detection bit for bit:
    per-object means add the cells left to right, as ``_mean`` does, and
    the mean fusion adds the granularities left to right. The raw frame
    score is the minimum fused probability over the frame's objects (1.0
    for empty frames). Velocity evidence uses each track's previous
    detection in the test stream. Passing a dict as ``timings`` records
    the number of posterior queries made.
    """
    if bundle.fusion not in FUSION_RULES:
        raise ValueError(f"unknown fusion rule {bundle.fusion!r}")
    dets = test.detections
    stream = stream_columns(dets, bundle.kind)
    n = len(dets)
    index = {cid: i for i, cid in enumerate(bundle.class_ids)}
    class_index = np.fromiter((index.get(c, -1) for c in stream.class_id.tolist()),
                              np.int64, n)
    per_granularity = np.zeros((n, len(bundle.granularities)))
    cells = []
    possible = np.zeros(n, dtype=bool)
    queries = 0
    for k, gran in enumerate(bundle.granularities):
        owner, cell, probability, impossible, queried = _cell_scores(
            gran, bundle, stream, class_index)
        queries += queried
        possible[owner[~impossible]] = True
        count = np.bincount(owner, minlength=n)
        # bincount adds each object's cells in stream order, left to right as
        # _mean does; np.add.reduceat pairs terms and can round differently
        total = np.bincount(owner, probability, minlength=n)
        per_granularity[:, k] = total / np.maximum(count, 1)
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(count, out=offsets[1:])
        cells.append(CellColumns(offsets, cell, probability, impossible))
    if timings is not None:
        timings["posterior_queries"] = queries

    # unseen-class rows have no cells, so their means and fused score are 0.0
    if bundle.fusion == FUSION_MEAN:
        fused = per_granularity[:, 0].copy()
        for k in range(1, per_granularity.shape[1]):
            fused += per_granularity[:, k]
        fused /= per_granularity.shape[1]
    else:
        fused = per_granularity.min(axis=1)
    known = class_index >= 0
    reason = np.where(known, np.where(possible, 0, REASONS.index(REASON_IMPOSSIBLE)),
                      REASONS.index(REASON_UNSEEN_CLASS))
    raw = np.ones(test.frame_count, dtype=float)
    np.minimum.at(raw, dets.frame - 1, fused)
    smoothed = gaussian_smooth(raw, bundle.smoothing_sigma)
    table = ScoreTable(dets.frame, dets.track_id, dets.class_id, dets.box, stream.prev,
                       stream.gap, bundle.cell_sizes, per_granularity, fused, reason, cells)
    return table, FrameScores(raw, smoothed)


# ---------------------------------------------------------------------------
# bundle serialization


def _stats_to_dict(stats: ClassStats) -> dict:
    return {"size_mean": stats.size_mean, "size_std": stats.size_std,
            "speed_mean": stats.speed_mean, "speed_std": stats.speed_std}


def bundle_to_dict(bundle: ModelBundle) -> dict:
    grans = []
    for g in bundle.granularities:
        disc = g.discretizer
        grans.append({
            "cell_size": g.grid.cell_size,
            "grid": {"cell_size": g.grid.cell_size, "cols": g.grid.cols,
                     "rows": g.grid.rows, "resolution": list(g.grid.resolution)},
            "discretizer": {
                "square_tolerance": SQUARE_TOLERANCE,
                "idle_speed": IDLE_SPEED,
                "classes": {str(cid): _stats_to_dict(disc.per_class[cid])
                            for cid in sorted(disc.per_class)},
            },
            "net": {
                "nodes": [[n, c] for n, c in g.net.dag.nodes],
                "edges": [[a, b] for a, b in g.net.dag.edges],
                "cpts": [{
                    "child": cpt.child,
                    "parents": list(cpt.parents),
                    "table": cpt.table.tolist(),
                    "observed": cpt.observed.tolist(),
                } for cpt in g.net.cpts],
            },
        })
    return {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "kind": bundle.kind,
        "resolution": list(bundle.resolution),
        "class_ids": list(bundle.class_ids),
        "fusion": bundle.fusion,
        "smoothing_sigma": bundle.smoothing_sigma,
        "box_mode": bundle.box_mode,
        "thresholds": {"person": bundle.thresholds.person_threshold,
                       "other": bundle.thresholds.other_threshold},
        "granularities": grans,
    }


def _check_granularity(gran: GranularityModel, kind: str, resolution: tuple[int, int],
                       class_ids: tuple[int, ...]) -> None:
    """Reject a granularity whose grid, network or classes disagree with the bundle.

    The network must have the nodes, in order, and the edges of the one
    ``train`` fits: ``bn.build_structure`` for the bundle's kind, the
    grid's cells and the bundle's classes.
    """
    grid, dag = gran.grid, gran.net.dag
    where = f"bundle granularity with cell_size {grid.cell_size}"
    expected = build_grid(resolution, grid.cell_size)
    for name in ("cols", "rows", "resolution"):
        have, want = getattr(grid, name), getattr(expected, name)
        if have != want:
            raise ValueError(f"{where}: grid {name} is {have}, but this cell_size on "
                             "{}x{} frames gives {}".format(*resolution, want))
    layout = bn.build_structure(kind, cell_count=grid.cell_count, class_count=len(class_ids))
    if dag.nodes != layout.nodes or set(dag.edges) != set(layout.edges):
        raise ValueError(f"{where}: the network is not the one train builds for kind "
                         f"{kind!r}, {grid.cell_count} cells and class_ids {list(class_ids)}")
    known = sorted(gran.discretizer.per_class)
    if list(class_ids) != known:
        raise ValueError(f"{where}: class_ids {list(class_ids)} do not match the "
                         f"discretizer classes {known}")


def _section(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"bundle field {where} must be an object, not {type(value).__name__}")
    return value


def _array(value, dtype, ndim: int, where: str) -> np.ndarray:
    try:
        array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        array = None
    if array is None or array.ndim != ndim:
        raise ValueError(f"bundle field {where} must be a {ndim}-d array of numbers")
    return array


def bundle_from_dict(payload: dict) -> ModelBundle:
    if not isinstance(payload, dict) or payload.get("format") != BUNDLE_FORMAT:
        raise ValueError("not a gridvad model bundle")
    if payload.get("version") != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {payload.get('version')}")
    try:
        kind, box_mode, fusion, sigma = (payload[key] for key in (
            "kind", "box_mode", "fusion", "smoothing_sigma"))
        _check_settings(kind, box_mode, fusion, sigma, where="bundle field ")
        resolution = tuple(_check_integer(v, f"bundle field resolution[{k}]")
                           for k, v in enumerate(payload["resolution"]))
        class_ids = tuple(_check_integer(c, f"bundle field class_ids[{k}]")
                          for k, c in enumerate(payload["class_ids"]))
        if not class_ids:  # no network has a class variable without values
            raise ValueError("bundle field class_ids lists no class")
        granularities = []
        for i, g in enumerate(payload["granularities"]):
            where = f"granularities[{i}]"
            g = _section(g, where)
            grid_payload = _section(g["grid"], f"{where}.grid")
            field_name = f"bundle field {where}.grid"
            grid = GridSpec(*(_check_integer(grid_payload[name], f"{field_name}.{name}")
                              for name in ("cell_size", "cols", "rows")),
                            tuple(_check_integer(v, f"{field_name}.resolution[{k}]")
                                  for k, v in enumerate(grid_payload["resolution"])))
            at = f"{where}.discretizer"
            disc_payload = _section(g["discretizer"], at)
            for name, constant in (("square_tolerance", SQUARE_TOLERANCE),
                                   ("idle_speed", IDLE_SPEED)):
                if disc_payload[name] != constant:
                    raise ValueError(f"bundle field {at}.{name} must be {constant}, "
                                     f"not {disc_payload[name]!r}")
            per_class = {}
            for cid, stats in _section(disc_payload["classes"], f"{at}.classes").items():
                per_class[_check_integer(cid, f"bundle field {at}.classes key", key=True)] = \
                    ClassStats(**stats)
                for name, value in stats.items():
                    _check_number(value, f"bundle field {at}.classes.{cid}.{name}",
                                  low=0 if name.endswith("_std") else -math.inf)
            disc = DiscretizationModel(per_class)
            net_payload = _section(g["net"], f"{where}.net")
            dag = bn.Dag(tuple((n, _check_integer(c, f"bundle field {where}.net.nodes[{k}]"))
                               for k, (n, c) in enumerate(net_payload["nodes"])),
                         tuple((a, b) for a, b in net_payload["edges"]))
            cpts = []
            for k, c in enumerate(net_payload["cpts"]):
                at = f"{where}.net.cpts[{k}]"
                c = _section(c, at)
                parents = tuple(c["parents"])
                for parent in parents:
                    if parent not in dag.names:
                        raise ValueError(f"bundle field {at}: the CPT for {c['child']!r} "
                                         f"names undeclared parent {parent!r}")
                cpts.append(bn.Cpt(c["child"], parents,
                                   tuple(dag.cardinality(p) for p in parents),
                                   _array(c["table"], float, 2, f"{at}.table"),
                                   _array(c["observed"], bool, 1, f"{at}.observed")))
            gran = GranularityModel(grid, disc, bn.BayesNet(dag, tuple(cpts)))
            _check_granularity(gran, kind, resolution, class_ids)
            if type(g.get("cell_size")) is not int or g["cell_size"] != grid.cell_size:
                raise ValueError(f"bundle field {where}.cell_size must equal its grid's "
                                 f"cell_size {grid.cell_size}, not {g.get('cell_size')!r}")
            if any(other.grid.cell_size == grid.cell_size for other in granularities):
                raise ValueError(f"bundle field {where}: cell_size {grid.cell_size} repeats")
            granularities.append(gran)
        thresholds_payload = _section(payload["thresholds"], "thresholds")
        thresholds = ConfidenceThresholds(thresholds_payload["person"],
                                          thresholds_payload["other"])
        for name in ("person", "other"):
            _check_number(thresholds_payload[name], f"bundle field thresholds.{name}", 0, 1)
        return ModelBundle(kind, resolution, class_ids, tuple(granularities), fusion, sigma,
                           box_mode, thresholds)
    except KeyError as exc:
        raise ValueError(f"bundle is missing {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"bundle has a field of the wrong type: {exc}") from None


def save_bundle(bundle: ModelBundle, path) -> None:
    Path(path).write_text(json.dumps(bundle_to_dict(bundle)), encoding="utf-8")


def load_bundle(path) -> ModelBundle:
    return bundle_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# scores.jsonl


def write_scores(path, table: ScoreTable, frame_scores: FrameScores) -> None:
    """Per-object rows then per-frame rows, in the documented jsonl schema.

    Each line is formatted straight from the table's columns, with the
    bytes ``json.dumps`` writes for the same row: ints in ``int`` form,
    floats as ``float.__repr__`` gives them, the default separators and
    the key order below; reason codes become strings only here. A
    non-finite box or score, which JSON cannot hold, raises ValueError
    naming the object or frame before anything is written.
    """
    raw = np.asarray(frame_scores.raw, dtype=np.float64)
    smoothed = np.asarray(frame_scores.smoothed, dtype=np.float64)
    bad = _first_nonfinite(table.box, table.fused, table.per_granularity)
    if bad is not None:
        raise ValueError(f"object {table.track_id[bad]} in frame {table.frame[bad]} has a "
                         "non-finite box or score")
    bad = _first_nonfinite(raw, smoothed)
    if bad is not None:
        raise ValueError(f"frame {bad + 1} has a non-finite raw or smoothed score")
    granularities = ", ".join(f'"{cs}": %r' for cs in table.cell_sizes)
    object_row = ('{"frame": %d, "id": %d, "class": %d, "box": [%r, %r, %r, %r], '
                  f'"score": %r, "per_granularity": {{{granularities}}}, "reason": %s}}\n')
    reasons = [json.dumps(r) for r in REASONS]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(object_row.__mod__, zip(
            table.frame.tolist(), table.track_id.tolist(), table.class_id.tolist(),
            *table.box.T.tolist(), table.fused.tolist(), *table.per_granularity.T.tolist(),
            map(reasons.__getitem__, table.reason.tolist()))))
        fh.writelines(map('{"frame": %d, "raw": %r, "smoothed": %r}\n'.__mod__, zip(
            range(1, len(raw) + 1), raw.tolist(), smoothed.tolist())))


OBJECT_FIELDS = {"frame": INTEGER, "id": INTEGER, "class": INTEGER, "box": BOX, "score": NUMBER}
FRAME_FIELDS = {"frame": INTEGER, "raw": NUMBER, "smoothed": NUMBER}


def read_scores(path) -> tuple[ScoreTable, FrameScores]:
    """The objects and frame scores of a ``scores.jsonl``, as ``write_scores`` writes it.

    Rows with a ``raw`` field are frame rows, the others object rows, in
    any order. The objects are always a :class:`ScoreTable`, with the
    first object row's ``per_granularity`` keys as cell sizes (none
    without object rows), no scored cells and ``prev``/``gap`` -1.

    Fields are read as track fields are, and those keys as bundle keys are:
    plain decimal text of distinct integers >= 1. A bad field, a
    ``per_granularity`` without exactly those keys, an unknown reason and a
    non-finite box, score, raw or smoothed value raise TrackFileError
    naming the line, in file order. Then so do frame rows that do not
    number frames 1 to N once each, and object rows outside those frames.
    """
    fields = None  # the first object row's per_granularity, as fields keyed by cell size

    def read(lines: list[str], lineno: int) -> list[np.ndarray]:
        nonlocal fields
        values, row_lines, error = _json_values(lines, lineno)
        is_frame = [type(v) is dict and "raw" in v for v in values]
        objects = [v for v, f in zip(values, is_frame) if not f]
        object_lines = [k for k, f in zip(row_lines, is_frame) if not f]
        frames = [v for v, f in zip(values, is_frame) if f]
        frame_lines = [k for k, f in zip(row_lines, is_frame) if f]
        (frame, track, class_id, box, fused), object_error = _json_columns(
            objects, object_lines, OBJECT_FIELDS)
        objects = objects[:len(frame)]
        grans = [v.get("per_granularity") for v in objects]
        if grans and fields is None:  # its keys must name distinct cell sizes
            sizes = list(grans[0]) if type(grans[0]) is dict else []
            try:  # read by the bundle's key rule, each a cell size >= 1
                cell_sizes = {_check_integer(cs, "cell size", key=True) for cs in sizes}
            except ValueError:
                cell_sizes = set()
            distinct = len(cell_sizes) == len(sizes) and min(cell_sizes, default=0) >= 1
            fields = dict.fromkeys(sizes, NUMBER) if distinct else {}
        per_granularity, grans_error = (_json_columns(grans, object_lines, fields) if fields
                                        else ([], None))
        reasons = [v.get("reason") for v in objects]
        reason = np.array([REASONS.index(r) if r in REASONS else -1 for r in reasons], np.int8)
        (frame_index, raw, smoothed), frame_error = _json_columns(frames, frame_lines,
                                                                  FRAME_FIELDS)
        errors = [error, object_error, _row_error([
            (~np.isfinite(box).all(axis=1) | ~np.isfinite(fused),
             lambda r: "a box or score is not a finite number"),
            ([not fields or type(g) is not dict or g.keys() != fields.keys() for g in grans],
             lambda r: f"per_granularity {grans[r]!r} is not an object of scores keyed by the "
                       "first object row's distinct decimal cell sizes >= 1"),
            (reason < 0, lambda r: f"unknown reason {reasons[r]!r}"),
        ], object_lines), grans_error, frame_error, _row_error([
            (~np.isfinite(raw) | ~np.isfinite(smoothed),
             lambda r: "a raw or smoothed score is not a finite number"),
        ], frame_lines)]
        # the first error in the file; of two on one line, the first listed
        error = min(filter(None, errors), key=lambda e: e.line, default=None)
        if error is not None:
            raise error
        return [frame, track, class_id, box, fused, np.array(per_granularity).T.ravel(), reason,
                np.array(object_lines, np.int64), frame_index, raw, smoothed,
                np.array(frame_lines, np.int64)]

    with open(path, encoding="utf-8") as fh:
        (frame, track, class_id, box, fused, per_granularity, reason, object_lines,
         frame_index, raw, smoothed, frame_lines) = _read_chunks(fh, 1, read)
    count = len(frame_index)
    order, repeated = _sorted_repeats(frame_index)
    error = _row_error([
        (repeated | (frame_index < 1) | (frame_index > count),
         lambda r: f"the frame rows do not number frames 1 to {count}: frame "
                   f"{frame_index[r]} is out of range or repeated"),
    ], frame_lines) or _row_error([
        ((frame < 1) | (frame > count),
         lambda r: f"object frame {frame[r]} is outside frames 1 to {count}"),
    ], object_lines)
    if error is not None:
        raise error
    n, sizes = len(frame), tuple(map(int, fields or ()))
    no_cells = CellColumns(np.zeros(n + 1, np.int64), [], [], [])
    table = ScoreTable(frame, track, class_id, box, np.full(n, -1), np.full(n, -1), sizes,
                       per_granularity, fused, reason, [no_cells] * len(sizes))
    return table, FrameScores(raw[order], smoothed[order])
