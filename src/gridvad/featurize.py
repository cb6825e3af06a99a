"""Grid decomposition, attribute discretization and observation tables.

The image is divided into a uniform grid of quadratic cells. Every tracked
bounding box is reduced to a handful of high-level attributes: which cells
its bottom edge touches, how much of each cell it covers, how big the box
is relative to its class, its aspect ratio, and (for spatio-temporal
models) how fast and in which compass direction it moves. Box size and
speed are binned by their distance from the class-wise training mean in
multiples of the class-wise standard deviation. Every bin edge of the
intersection, size, aspect and velocity attributes is one row of
:data:`BINS`, which both paths below read.

Two paths compute the same codes. A whole stream (training, stream
scoring) goes through :func:`stream_columns` and
:func:`observation_codes`: they read the track set's numpy columns as
parsed and return int64 code columns with one row per (detection, cell)
pair, building no per-detection objects; :func:`fit_discretizer` reads
the same columns. One box (``score_object``, explanations) goes through
the scalar functions behind :func:`cell_labels`; they are kept because
on a one-detection stream the columnar path's fixed numpy cost is
several times theirs, and they are the reference the columnar path is
tested against, code for code.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import ge, gt, le, lt
from typing import NamedTuple

import numpy as np

# the vocabulary and model kinds are decided in bn and also read from here
from .bn import (ASPECT_CATEGORIES, CATEGORIES, DIRECTION_CATEGORIES,  # noqa: F401
                 INTERSECTION_CATEGORIES, MODEL_KINDS, NODE_ORDER, SIZE_CATEGORIES, SPATIAL,
                 SPATIOTEMPORAL, VELOCITY_CATEGORIES)
from .ingest import Box, Detections, TrackSet

# label -> integer code of every network variable
CODES = {rv: {label: i for i, label in enumerate(labels)}
         for rv, labels in CATEGORIES.items()}

SQUARE_TOLERANCE = 0.1  # BAR is square within [1/(1+tol), 1+tol]
IDLE_SPEED = 0.5  # px/frame; an object moving at most this fast is idle

# The bins of I, BS, BAR and V: (label, comparison, multiple) rows in test
# order, then the last label. A value falls in the bin of the first row for
# which ``comparison(value, center + multiple * spread)`` holds, else in the
# last label. BS and V are centered on the class mean with the class
# standard deviation as spread; I (the covered fraction of a cell) and
# BAR (width / height) have center 0 and spread 1. V's idle bin, speed
# <= IDLE_SPEED, is tested before its table.
BINS = {
    "I": ((("full", ge, 1.0), ("3/4", ge, 0.75), ("1/2", ge, 0.5), ("1/4", ge, 0.25)),
          "small"),
    "BS": ((("x-small", lt, -2.0), ("small", lt, -1.0), ("medium", le, 1.0),
            ("large", le, 2.0)), "x-large"),
    "BAR": ((("landscape", gt, 1.0 + SQUARE_TOLERANCE),
             ("square", ge, 1.0 / (1.0 + SQUARE_TOLERANCE))), "portrait"),
    "V": ((("slow", lt, -1.0), ("normal", le, 1.0), ("fast", le, 2.0),
           ("very fast", le, 3.0), ("super fast", le, 4.0)), "lightning fast"),
}

BOX_MODE_BOTTOM = "bottom"
BOX_MODE_WHOLE = "whole"
BOX_MODES = (BOX_MODE_BOTTOM, BOX_MODE_WHOLE)


class GridConfigError(ValueError):
    """Invalid grid configuration (e.g. cell size larger than the frame)."""


class UnseenClassError(KeyError):
    """Class without training statistics; such objects score 0.0 downstream."""

    def __init__(self, class_id: int):
        super().__init__(class_id)
        self.class_id = class_id

    def __str__(self):
        return f"class {self.class_id} was never observed during training"


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of quadratic cells, 1-based row-major cell indices."""

    cell_size: int
    cols: int
    rows: int
    resolution: tuple[int, int]

    @property
    def cell_count(self) -> int:
        return self.cols * self.rows

    def cell_rect(self, cell: int) -> Box:
        """Pixel rectangle of a cell, clipped to the frame."""
        if not 1 <= cell <= self.cell_count:
            raise ValueError(f"cell index {cell} outside 1..{self.cell_count}")
        row, col = divmod(cell - 1, self.cols)
        s = self.cell_size
        w, h = self.resolution
        return (col * s, row * s, min((col + 1) * s, w), min((row + 1) * s, h))


def build_grid(resolution: tuple[int, int], cell_size: int) -> GridSpec:
    w, h = resolution
    if cell_size < 1:
        raise GridConfigError(f"cell size {cell_size} must be >= 1")
    if cell_size > min(w, h):
        raise GridConfigError(
            f"cell size {cell_size} exceeds the frame ({w}x{h}); cells must fit the image")
    return GridSpec(int(cell_size), math.ceil(w / cell_size), math.ceil(h / cell_size),
                    (int(w), int(h)))


def box_area(box: Box) -> float:
    return (box[2] - box[0]) * (box[3] - box[1])


def box_center(box: Box) -> tuple[float, float]:
    return ((box[0] + box[2]) / 2.0, (box[1] + box[3]) / 2.0)


def bottom_edge_cells(box: Box, grid: GridSpec) -> list[int]:
    """Cells touched by the box's bottom edge, left to right.

    The box must already be clamped to the frame. An edge lying exactly on
    a cell boundary belongs to the upper/left cell, which is what the
    ceil(v / s) - 1 form yields for the end coordinates.
    """
    x1, _, x2, y2 = box
    s = grid.cell_size
    row = math.ceil(y2 / s) - 1
    first = math.floor(x1 / s)
    last = math.ceil(x2 / s) - 1
    base = row * grid.cols
    return [base + c + 1 for c in range(first, last + 1)]


def covered_cells(box: Box, grid: GridSpec) -> list[int]:
    """All cells intersecting the box (whole-box mode), row-major order."""
    x1, y1, x2, y2 = box
    s = grid.cell_size
    r0, r1 = math.floor(y1 / s), math.ceil(y2 / s) - 1
    c0, c1 = math.floor(x1 / s), math.ceil(x2 / s) - 1
    return [r * grid.cols + c + 1 for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)]


def intersection_category(box: Box, cell: int, grid: GridSpec) -> str:
    """Bin the covered fraction of a cell: small, 1/4, 1/2, 3/4 or full."""
    cx1, cy1, cx2, cy2 = grid.cell_rect(cell)
    ix = min(box[2], cx2) - max(box[0], cx1)
    iy = min(box[3], cy2) - max(box[1], cy1)
    if ix <= 0 or iy <= 0:
        raise ValueError(f"box {box} does not intersect cell {cell}; caller bug")
    return _bin("I", (ix * iy) / ((cx2 - cx1) * (cy2 - cy1)))


@dataclass(frozen=True)
class ClassStats:
    """Class-wise box-area and speed statistics (population mean/std)."""

    size_mean: float
    size_std: float
    speed_mean: float
    speed_std: float


@dataclass(frozen=True)
class DiscretizationModel:
    """Per-class statistics that center and scale the BS and V bins.

    Speed statistics are computed over non-idle speeds only; a class whose
    training tracks never move keeps (0, 0) so that any movement of a test
    object lands in the most extreme velocity bin. The aspect tolerance
    and the idle cutoff are the module constants ``SQUARE_TOLERANCE`` and
    ``IDLE_SPEED``, the same for every model.
    """

    per_class: dict[int, ClassStats]

    def stats(self, class_id: int) -> ClassStats:
        try:
            return self.per_class[class_id]
        except KeyError:
            raise UnseenClassError(class_id) from None

    def knows(self, class_id: int) -> bool:
        return class_id in self.per_class


def motion(prev_center: tuple[float, float], cur_center: tuple[float, float],
           frame_gap: int) -> tuple[float, float | None]:
    """Speed in px/frame and heading angle in degrees.

    The angle uses east = 0 deg and north = 90 deg where north means
    decreasing pixel y (the image y axis points down). Zero displacement
    has no heading and returns None for the angle.
    """
    if frame_gap < 1:
        raise ValueError(f"frame gap {frame_gap} must be >= 1")
    dx = cur_center[0] - prev_center[0]
    dy = cur_center[1] - prev_center[1]
    speed = math.hypot(dx, dy) / frame_gap
    if dx == 0.0 and dy == 0.0:
        return 0.0, None
    return speed, math.degrees(math.atan2(-dy, dx))


def fit_discretizer(train: TrackSet, stream: StreamColumns | None = None) -> DiscretizationModel:
    """Fit per-class area and speed statistics from a training track set.

    Speeds are center displacements between consecutive surviving
    detections of the same track, normalized by the true frame gap, so the
    statistics are invariant to frame slicing. Each class's areas and
    speeds are reduced in stream order. ``stream``, when given, is the
    set's spatio-temporal :func:`stream_columns`, already built.
    """
    if not train.detections:
        raise ValueError("cannot fit a discretizer on an empty track set")
    if stream is None:
        stream = stream_columns(train.detections, SPATIOTEMPORAL)
    x1, y1, x2, y2 = stream.box.T
    area = (x2 - x1) * (y2 - y1)
    moving = stream.speed > IDLE_SPEED
    per_class: dict[int, ClassStats] = {}
    for class_id in np.unique(stream.class_id).tolist():
        mine = stream.class_id == class_id
        a, sp = area[mine], stream.speed[mine & moving]
        per_class[class_id] = ClassStats(
            size_mean=float(a.mean()),
            size_std=float(a.std()),
            speed_mean=float(sp.mean()) if sp.size else 0.0,
            speed_std=float(sp.std()) if sp.size else 0.0,
        )
    return DiscretizationModel(per_class)


def _bin(rv: str, value: float, center: float = 0.0, spread: float = 1.0) -> str:
    """The label of ``value`` in the bins ``BINS[rv]``."""
    rows, default = BINS[rv]
    for label, compare, multiple in rows:
        if compare(value, center + multiple * spread):
            return label
    return default


def size_category(area: float, class_id: int, model: DiscretizationModel) -> str:
    """Area binned at sigma multiples around the class mean.

    x-small < mu-2s <= small < mu-s <= medium <= mu+s < large <= mu+2s < x-large.
    With s = 0 the inner bins collapse: below the mean is x-small, the mean
    itself is medium, above is x-large.
    """
    st = model.stats(class_id)
    return _bin("BS", area, st.size_mean, st.size_std)


def velocity_category(speed: float, class_id: int, model: DiscretizationModel) -> str:
    """Speed binned at sigma multiples, with a dedicated idle bin at or below ``IDLE_SPEED``.

    The seven bins are right-skewed because speeds are non-negative and
    anomalous motion is fast: idle <= IDLE_SPEED, slow < mu-s, normal <= mu+s,
    fast <= mu+2s, very fast <= mu+3s, super fast <= mu+4s, else lightning
    fast. Statistics come from non-idle training speeds.
    """
    st = model.stats(class_id)
    if speed <= IDLE_SPEED:
        return "idle"
    return _bin("V", speed, st.speed_mean, st.speed_std)


def aspect_category(box: Box) -> str:
    """Width/height ratio: square within [1/(1+tol), 1+tol] for tol =
    ``SQUARE_TOLERANCE``, else portrait or landscape."""
    return _bin("BAR", (box[2] - box[0]) / (box[3] - box[1]))


_COMPASS = ("E", "NE", "N", "NW", "W", "SW", "S", "SE")


def direction_category(angle: float | None) -> str:
    """45-degree-wide compass bins centered on the 8 compass points.

    None (no predecessor, or an idle object) maps to "none".
    """
    if angle is None:
        return "none"
    idx = int(math.floor(((angle % 360.0) + 22.5) / 45.0)) % 8
    return _COMPASS[idx]


@dataclass(frozen=True)
class ObservationTable:
    """One row per (detection, cell) pair as int64 codes in ``bn.NODE_ORDER``.

    F is the frame index, G the 0-based cell code, C the class id and the
    remaining columns the attribute codes of ``CODES``; -1 marks a value
    the model kind does not have (V and D of a spatial table).
    """

    kind: str
    rows: np.ndarray

    def write_csv(self, stream) -> None:
        """Debug export with header F,G,C,I,BS,BAR,V,D; G as the 1-based cell index."""
        # code -1 (absent) picks the trailing empty label
        i, bs, bar, v, d = (CATEGORIES[rv] + ("",) for rv in NODE_ORDER[3:])
        writer = csv.writer(stream)
        writer.writerow(NODE_ORDER)
        writer.writerows((f, g + 1, c, i[ic], bs[bsc], bar[barc], v[vc], d[dc])
                         for f, g, c, ic, bsc, barc, vc, dc in self.rows.tolist())


def cell_labels(class_id: int, box: Box, prev_center: tuple[float, float] | None,
                frame_gap: int | None, grid: GridSpec, model: DiscretizationModel,
                kind: str = SPATIOTEMPORAL,
                box_mode: str = BOX_MODE_BOTTOM) -> list[tuple[int, dict[str, str]]]:
    """Attribute labels of one detection, for every cell it occupies.

    Returns (cell, labels) pairs, labels keyed by network variable in the
    order BS, BAR, V, D, I. Bottom mode visits only the cells under the
    box's bottom edge; whole mode visits every intersecting cell. V and D
    exist for spatio-temporal models only: a first appearance, or motion
    at or below the idle speed, is idle with direction "none". A class
    without training statistics gets no BS or V label.
    """
    known = model.knows(class_id)
    labels = {}
    if known:
        labels["BS"] = size_category(box_area(box), class_id, model)
    labels["BAR"] = aspect_category(box)
    if kind == SPATIOTEMPORAL:
        speed, angle = (0.0, None) if prev_center is None else motion(
            prev_center, box_center(box), frame_gap)
        if known:
            labels["V"] = velocity_category(speed, class_id, model)
        labels["D"] = "none" if speed <= IDLE_SPEED else direction_category(angle)
    cells = (bottom_edge_cells(box, grid) if box_mode == BOX_MODE_BOTTOM
             else covered_cells(box, grid))
    return [(cell, dict(labels, I=intersection_category(box, cell, grid)))
            for cell in cells]


class StreamColumns(NamedTuple):
    """A frame-sorted detection stream as numpy columns, one entry per detection.

    ``center`` holds the (x, y) box centers of :func:`box_center`. ``prev``
    indexes the track's previous detection (-1 on a first appearance) and
    ``gap`` is the true frame distance to it (-1 without one): a
    detection's predecessor is the latest earlier detection of its track
    in the stream, so motion stays comparable between sliced and unsliced
    streams. ``speed`` and ``angle`` come from
    :func:`motion` for spatio-temporal streams; a detection without a
    predecessor or heading has speed 0 and angle NaN.
    """

    frame: np.ndarray
    class_id: np.ndarray
    box: np.ndarray
    center: np.ndarray
    prev: np.ndarray
    gap: np.ndarray
    speed: np.ndarray
    angle: np.ndarray


def stream_columns(detections: Detections, kind: str) -> StreamColumns:
    """Predecessors of a frame-sorted stream's columns; motion only for
    spatio-temporal kinds.

    Displacements are numpy differences of the centers; speed and heading
    apply :func:`motion`'s ``math.hypot``, ``math.atan2`` and
    ``math.degrees`` to them, so each value has :func:`motion`'s bits.
    """
    frame, track, box = detections.frame, detections.track_id, detections.box
    n = len(frame)
    center = (box[:, :2] + box[:, 2:]) / 2.0
    # a stable sort keeps each track's detections in stream order
    order = np.argsort(track, kind="stable")
    same = track[order[1:]] == track[order[:-1]]
    prev = np.full(n, -1, np.int64)
    prev[order[1:][same]] = order[:-1][same]
    gap = np.where(prev >= 0, frame - frame[prev], -1)
    speed, angle = np.zeros(n), np.full(n, np.nan)
    if kind == SPATIOTEMPORAL:
        moved = np.flatnonzero(prev >= 0)
        steps = gap[moved]
        if (steps < 1).any():
            raise ValueError(f"frame gap {int(steps[steps < 1][0])} must be >= 1")
        dx, dy = (center[moved] - center[prev[moved]]).T
        # math.hypot and math.atan2 round differently from np.hypot and
        # np.arctan2 on some inputs, so the math functions are kept
        dxs, dys = dx.tolist(), dy.tolist()
        speed[moved] = np.array(list(map(math.hypot, dxs, dys))) / steps
        headings = list(map(math.degrees, map(math.atan2, (-dy).tolist(), dxs)))
        angle[moved] = np.where((dx == 0.0) & (dy == 0.0), np.nan, headings)
    return StreamColumns(frame, detections.class_id, box, center, prev, gap, speed, angle)


def _bin_codes(rv: str, value: np.ndarray, center=0.0, spread=1.0) -> np.ndarray:
    """The codes of :func:`_bin` for a column of values (and of centers and spreads)."""
    rows, default = BINS[rv]
    return np.select([compare(value, center + multiple * spread) for _, compare, multiple in rows],
                     [CODES[rv][label] for label, _, _ in rows], CODES[rv][default])


def _attribute_codes(stream: StreamColumns, model: DiscretizationModel,
                     kind: str) -> tuple[np.ndarray, ...]:
    """BS, BAR, V and D codes of every detection (-1 where absent)."""
    x1, y1, x2, y2 = stream.box.T
    classes = np.array(sorted(model.per_class), dtype=np.int64)
    stats = np.array([[st.size_mean, st.size_std, st.speed_mean, st.speed_std]
                      for st in (model.per_class[c] for c in classes.tolist())]
                     + [[0.0, 0.0, 0.0, 0.0]])
    known = np.isin(stream.class_id, classes)
    mu, sd, speed_mu, speed_sd = stats[
        np.where(known, np.searchsorted(classes, stream.class_id), len(classes))].T

    area = (x2 - x1) * (y2 - y1)
    size = _bin_codes("BS", area, mu, sd)
    size[~known] = -1
    with np.errstate(over="ignore"):  # a sub-pixel height gives inf, as float division does
        aspect = _bin_codes("BAR", (x2 - x1) / (y2 - y1))
    if kind != SPATIOTEMPORAL:
        absent = np.full(len(area), -1, np.int64)
        return size, aspect, absent, absent
    v = stream.speed
    idle = (stream.prev < 0) | (v <= IDLE_SPEED)
    velocity = np.where(idle, CODES["V"]["idle"], _bin_codes("V", v, speed_mu, speed_sd))
    velocity[~known] = -1
    heading = np.isnan(stream.angle)
    compass = np.floor((np.mod(np.where(heading, 0.0, stream.angle), 360.0) + 22.5)
                       / 45.0).astype(np.int64) % 8
    direction = np.where(idle | heading, CODES["D"]["none"],
                         np.array([CODES["D"][c] for c in _COMPASS])[compass])
    return size, aspect, velocity, direction


def _cell_codes(box: np.ndarray, grid: GridSpec,
                box_mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, G, I) of every (detection, cell) pair, cells in scalar order."""
    x1, y1, x2, y2 = box.T
    s = grid.cell_size
    c0 = np.floor(x1 / s).astype(np.int64)
    c1 = np.ceil(x2 / s).astype(np.int64) - 1
    r1 = np.ceil(y2 / s).astype(np.int64) - 1
    r0 = r1 if box_mode == BOX_MODE_BOTTOM else np.floor(y1 / s).astype(np.int64)
    width = np.maximum(c1 - c0 + 1, 0)
    count = width * np.maximum(r1 - r0 + 1, 0)
    owner = np.repeat(np.arange(len(box)), count)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    cell = (r0[owner] + offset // width[owner]) * grid.cols + c0[owner] + offset % width[owner]
    outside = (cell < 0) | (cell >= grid.cell_count)
    if outside.any():
        raise ValueError(f"cell index {cell[outside][0] + 1} outside 1..{grid.cell_count}")

    # overlap with the clipped cell rectangles, as GridSpec.cell_rect derives them;
    # nested expressions keep few cell-length temporaries alive at once
    row, col = np.divmod(cell, grid.cols)
    w, h = grid.resolution
    ix = np.minimum(x2[owner], np.minimum((col + 1) * s, w)) - np.maximum(x1[owner], col * s)
    iy = np.minimum(y2[owner], np.minimum((row + 1) * s, h)) - np.maximum(y1[owner], row * s)
    if ((ix <= 0) | (iy <= 0)).any():
        raise ValueError("a box does not intersect one of its cells; caller bug")
    phi = (ix * iy) / ((np.minimum((col + 1) * s, w) - col * s)
                       * (np.minimum((row + 1) * s, h) - row * s))
    return owner, cell, _bin_codes("I", phi)


def observation_codes(stream: StreamColumns, grid: GridSpec, model: DiscretizationModel,
                      kind: str = SPATIOTEMPORAL,
                      box_mode: str = BOX_MODE_BOTTOM) -> tuple[np.ndarray, np.ndarray]:
    """Code rows of every (detection, cell) pair of a stream, vectorized.

    Returns (owner, rows): the detection index of each pair and its
    ``bn.NODE_ORDER`` codes, in stream order and, per detection, in the cell
    order of :func:`bottom_edge_cells` or :func:`covered_cells`. The bins
    are the rows of :data:`BINS` the scalar functions read, computed with
    the same float expressions, so the codes equal :func:`cell_labels` code
    for code; a class without training statistics gets BS and V of -1.
    """
    owner, cell, intersection = _cell_codes(stream.box, grid, box_mode)
    rows = np.empty((len(owner), len(NODE_ORDER)), np.int64)
    rows[:, 0] = stream.frame[owner]
    rows[:, 1] = cell
    rows[:, 2] = stream.class_id[owner]
    rows[:, 3] = intersection
    for k, codes in enumerate(_attribute_codes(stream, model, kind), start=4):
        rows[:, k] = codes[owner]
    return owner, rows


def generate_observations(tracks: TrackSet, grid: GridSpec, model: DiscretizationModel,
                          kind: str = SPATIOTEMPORAL,
                          box_mode: str = BOX_MODE_BOTTOM,
                          stream: StreamColumns | None = None) -> ObservationTable:
    """The training table: one int64 code row per (detection, cell) pair.

    The stream is featurized once by :func:`stream_columns` and
    :func:`observation_codes`; ``rows`` holds the ``bn.NODE_ORDER`` codes
    in stream order and labels appear only in :meth:`ObservationTable.write_csv`.
    Temporal attributes use the track's previous surviving detection.
    Every class must have training statistics in ``model``. ``stream``,
    when given, is the tracks' :func:`stream_columns`, already built; a
    spatio-temporal one serves a spatial table too, whose codes read no
    motion.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if box_mode not in BOX_MODES:
        raise ValueError(f"unknown box mode {box_mode!r}")
    if stream is None:
        stream = stream_columns(tracks.detections, kind)
    unseen = np.flatnonzero(~np.isin(stream.class_id, list(model.per_class)))
    if unseen.size:
        raise UnseenClassError(int(stream.class_id[unseen[0]]))
    _owner, rows = observation_codes(stream, grid, model, kind, box_mode)
    return ObservationTable(kind, rows)
