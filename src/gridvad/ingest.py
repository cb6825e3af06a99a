"""Tracker-output and ground-truth ingestion.

Detections arrive as files written by an external multi-object tracker
(one JSON object per line, or MOTChallenge-style CSV). Parsing decodes
the rows a bounded chunk of lines at a time straight into numpy columns,
checks each chunk with vectorized tests and yields an immutable
:class:`TrackSet` sorted by (frame, track). Its ``detections`` are those
columns; read as a sequence they give one :class:`TrackedDetection` per
row, built on access. A bad row fails with its line number, including
non-finite boxes and frame, track or class values that are not integers.
Ground truth, and ``scores.jsonl`` in :mod:`gridvad.pipeline`, go through
the same jsonl reader, each format described once as a table of fields.
Dynamic confidence thresholds, confidence filtering and frame slicing
live here as well, as array operations on the same columns, because they
act on raw track sets before any featurization.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable

import numpy as np

log = logging.getLogger(__name__)

PERSON_CLASS_ID = 1
MAX_CLASS_ID = 80

# Lines decoded at a time: parsing never holds more decoded rows than this.
CHUNK_LINES = 1024

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


def _arrays(value) -> list[np.ndarray]:
    """The numpy arrays in a column value, inside tuples too."""
    if isinstance(value, tuple):
        return [array for item in value for array in _arrays(item)]
    return [value] if isinstance(value, np.ndarray) else []


def _same(a, b) -> bool:
    """Equal column values: tuples item by item, the rest by ``np.array_equal``."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return np.array_equal(a, b)


class ColumnTable(Sequence):
    """Read-only columns, one value per ``__slots__`` name, read as a sequence of rows.

    A subclass converts its columns and passes them to this constructor in
    ``__slots__`` order; the first is a row column. Every top-level array
    is a row column and must have one entry per row; the constructor takes
    each array over, inside tuples too, and makes it read-only. The
    subclass's ``_rows(start, stop)`` is an iterator that builds rows
    start..stop-1 as they are reached; ``len()`` builds nothing. A table
    equals a table of its type with equal columns, and a list or tuple of
    equal rows.
    """

    __slots__ = ()

    def __init__(self, *columns):
        n = len(columns[0])
        if any(isinstance(c, np.ndarray) and len(c) != n for c in columns):
            raise ValueError(f"{type(self).__name__} columns have different lengths")
        for name, column in zip(self.__slots__, columns):
            object.__setattr__(self, name, column)
        for array in _arrays(columns):
            array.flags.writeable = False

    def columns(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} columns are read-only")

    def __reduce__(self):
        return type(self), self.columns()

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]
        return next(self._rows(i, i + 1))

    def __iter__(self):
        return self._rows(0, len(self))

    def __eq__(self, other):
        if type(other) is type(self):
            return _same(self.columns(), other.columns())
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class Detections(ColumnTable):
    """The detections of a track set as read-only numpy columns.

    ``frame``, ``track_id`` and ``class_id`` are int64, ``box`` is an
    (n, 4) float64 array of (x1, y1, x2, y2) and ``confidence`` float64.
    Read as a sequence the columns give one :class:`TrackedDetection` per
    row, holding Python ints and floats, built on access; a slice gives
    :class:`Detections`. Equality, read-only columns, copy and pickle
    follow :class:`ColumnTable`: equal to columns with the same values and
    to a list or tuple of the same detections.
    """

    __slots__ = ("frame", "track_id", "class_id", "box", "confidence")

    def __init__(self, frame, track_id, class_id, box, confidence):
        super().__init__(np.asarray(frame, np.int64), np.asarray(track_id, np.int64),
                         np.asarray(class_id, np.int64),
                         np.asarray(box, np.float64).reshape(-1, 4),
                         np.asarray(confidence, np.float64))

    @classmethod
    def from_rows(cls, rows: Iterable[TrackedDetection]) -> Detections:
        rows = tuple(rows)
        n = len(rows)
        return cls(np.fromiter((d.frame_index for d in rows), np.int64, n),
                   np.fromiter((d.track_id for d in rows), np.int64, n),
                   np.fromiter((d.class_id for d in rows), np.int64, n),
                   np.array([d.box for d in rows], dtype=np.float64).reshape(n, 4),
                   np.fromiter((d.confidence for d in rows), np.float64, n))

    def take(self, index) -> Detections:
        """The rows selected by a boolean mask, an index array or a slice."""
        return Detections(*(column[index] for column in self.columns()))

    def __getitem__(self, index):
        return self.take(index) if isinstance(index, slice) else super().__getitem__(index)

    def _rows(self, start: int, stop: int):
        rows = slice(start, stop)
        return map(TrackedDetection, self.frame[rows].tolist(), self.track_id[rows].tolist(),
                   self.class_id[rows].tolist(), map(tuple, self.box[rows].tolist()),
                   self.confidence[rows].tolist())


@dataclass(frozen=True)
class TrackSet:
    """All detections of one video; a parsed set is sorted by (frame_index, track_id).

    ``detections`` may be given as any sequence of :class:`TrackedDetection`
    and is kept as :class:`Detections` columns.
    """

    resolution: tuple[int, int]
    frame_count: int
    detections: Detections

    def __post_init__(self):
        if not isinstance(self.detections, Detections):
            object.__setattr__(self, "detections", Detections.from_rows(self.detections))


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


def _open_text(source, mode: str = "r"):
    """For a with statement: a path opened as UTF-8 text, or an open stream left open."""
    if isinstance(source, (str, Path)):
        return open(source, mode, encoding="utf-8")
    return nullcontext(source)


def _parse_header(line: str, lineno: int) -> tuple[tuple[int, int], int]:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TrackFileError(f"bad header: {exc.msg}", lineno) from None
    names = ("width", "height", "frames")
    if type(header) is not dict or not header.keys() >= set(names):
        raise TrackFileError("header must declare integer width, height and frames", lineno)
    try:  # the rule integer row fields follow
        width, height, frames = (_json_integer(header[name], name) for name in names)
    except TrackFileError as exc:
        raise TrackFileError(f"header {exc.args[0]}", lineno) from None
    if width < 1 or height < 1 or frames < 1:
        raise TrackFileError("header width/height/frames must be positive", lineno)
    return (width, height), frames


# ---------------------------------------------------------------------------
# rows -> checked columns


def _first_failure(failures: list[np.ndarray]) -> tuple[int, int] | None:
    """(row, check) of the first row failing any check and its first failing check."""
    bad = np.logical_or.reduce(failures)
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    return row, next(k for k, failed in enumerate(failures) if failed[row])


def _row_error(checks: list[tuple], lines: Sequence[int]) -> TrackFileError | None:
    """The error of the first row failing a check, with its first failing check's
    message and its line. A check is a row mask and a function giving the message."""
    found = _first_failure([failed for failed, _message in checks])
    if found is None:
        return None
    row, check = found
    return TrackFileError(checks[check][1](row), int(lines[row]))


def _sorted_repeats(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows by ``keys``, the first major, and which rows
    repeat the keys of a row before them in the file."""
    # lexsort is stable, so of two rows with one key the later one in the file follows
    order = np.lexsort(keys[::-1])
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order[1:]] = np.logical_and.reduce([k[order[1:]] == k[order[:-1]] for k in keys])
    return order, repeated


def _int64(values: np.ndarray) -> np.ndarray:
    """Which float values are integers that int64 holds."""
    return np.isfinite(values) & (values == np.trunc(values)) & (np.abs(values) < 2.0 ** 63)


def _checked(columns: tuple, lines: Sequence[int], resolution: tuple[int, int]) -> tuple:
    """The columns with boxes clamped to the frame; TrackFileError at the first bad row.

    A row's checks run in this order: finite box, frame >= 1, track >= 0,
    class in [1, MAX_CLASS_ID], confidence in [0, 1], x1 < x2 and y1 < y2,
    and a box that keeps an area once clamped. Clamping keeps a coordinate
    inside the frame as ``max(0.0, x)`` and ``min(w, x)`` do, so an edge
    at -0.0 clamps to 0.0.
    """
    frame, track, class_id, box, confidence = columns
    w, h = map(float, resolution)
    x1, y1, x2, y2 = box.T
    left, top = np.where(x1 > 0.0, x1, 0.0), np.where(y1 > 0.0, y1, 0.0)
    right, bottom = np.where(x2 < w, x2, w), np.where(y2 < h, y2, h)
    error = _row_error([
        (~np.isfinite(box).all(axis=1), lambda r: f"box {tuple(box[r].tolist())} is not finite"),
        (frame < 1, lambda r: f"frame index {frame[r]} must be >= 1"),
        (track < 0, lambda r: f"track id {track[r]} must be >= 0"),
        ((class_id < 1) | (class_id > MAX_CLASS_ID),
         lambda r: f"class id {class_id[r]} outside [1, {MAX_CLASS_ID}]"),
        (~((confidence >= 0.0) & (confidence <= 1.0)),
         lambda r: f"confidence {confidence[r].item()} outside [0, 1]"),
        ((x1 >= x2) | (y1 >= y2), lambda r: f"degenerate box {tuple(box[r].tolist())}"),
        ((left >= right) | (top >= bottom),
         lambda r: f"box {tuple(box[r].tolist())} does not intersect the frame"),
    ], lines)
    if error is not None:
        raise error
    return frame, track, class_id, np.stack([left, top, right, bottom], axis=1), confidence


def _read_chunks(fh: IO[str], lineno: int,
                 read: Callable[[list[str], int], Sequence]) -> list[np.ndarray]:
    """The columns ``read(lines, lineno)`` returns for each chunk of CHUNK_LINES lines
    of ``fh``, concatenated; ``lineno`` numbers the first line. ``read`` raises for
    a chunk's first bad row, so errors come in file order. A last, empty chunk gives
    the columns' dtypes and shapes for a file without rows."""
    parts = []
    while lines := list(islice(fh, CHUNK_LINES)):
        parts.append(read(lines, lineno))
        lineno += len(lines)
    parts.append(read([], lineno))
    return list(map(np.concatenate, zip(*parts)))


def _read_rows(fh: IO[str], resolution: tuple[int, int], frame_count: int,
               decode: Callable[[list[str], int], tuple]) -> TrackSet:
    """Decode and check the track rows after the header.

    ``decode(lines, lineno)`` gives the columns of a chunk's rows up to its
    first bad one, their line numbers, and that row's error (None if none).
    Once every row has passed, a repeated (frame, track) pair or a frame
    beyond the declared count raises for the first such row, without a line.
    """
    def read(lines: list[str], lineno: int) -> tuple:
        columns, row_lines, error = decode(lines, lineno)
        columns = _checked(columns, row_lines, resolution)
        if error is not None:
            raise error
        return columns

    frame, track, class_id, box, confidence = _read_chunks(fh, 2, read)
    order, repeated = _sorted_repeats(frame, track)
    found = _first_failure([repeated, frame > frame_count])
    if found is not None:
        row, check = found
        raise TrackFileError(
            f"duplicate track {track[row]} in frame {frame[row]}" if check == 0 else
            f"frame index {frame[row]} exceeds declared frame count {frame_count}")
    return TrackSet(resolution, frame_count,
                    Detections(frame[order], track[order], class_id[order], box[order],
                               confidence[order]))


# ---------------------------------------------------------------------------
# jsonl rows: each row is a JSON object, and each format is a table of its
# fields, in the order they are read. A field's kind is the function that
# reads its value: an integer, a number or a box of 4 numbers.

_scan_json = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"  # the whitespace JSON allows around a value


def _json_integer(value, name: str) -> int:
    """An integer field: an integer, an integral number or a string int() reads."""
    try:
        number = int(value) if type(value) is str or (
            type(value) is float and value.is_integer()) else value
    except ValueError:
        number = None
    if type(number) is not int or not -2 ** 63 <= number < 2 ** 63:
        raise TrackFileError(f"{name} must be a 64-bit integer, not {value!r}")
    return number


def _json_number(value, name: str) -> float:
    """A number field or box coordinate: anything float() reads, a number or a numeric string."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise TrackFileError(f"{name} must be a number, not {value!r}") from None


def _json_box(value, name: str) -> list[float]:
    """A box field: a list of numbers; the row checks its length once it is read."""
    if type(value) is not list:
        raise TrackFileError(f"{name} must be a list of numbers, not {value!r}")
    return [_json_number(v, f"{name} coordinate") for v in value]


INTEGER, NUMBER, BOX = _json_integer, _json_number, _json_box
TRACK_FIELDS = {"frame": INTEGER, "id": INTEGER, "class": INTEGER, "box": BOX, "conf": NUMBER}
GT_FIELDS = {"frame": INTEGER, "gt_id": INTEGER, "box": BOX}


def _json_row(obj, fields: dict) -> list:
    """The values of one decoded row; TrackFileError without a line. Every field
    must be present before any is read, and box lengths are checked last."""
    if type(obj) is not dict:
        raise TrackFileError(f"expected a JSON object, not {obj!r}")
    try:
        values = [obj[name] for name in fields]
    except KeyError as exc:
        raise TrackFileError(f"missing or invalid field: {exc}") from None
    row = [kind(value, name) for value, (name, kind) in zip(values, fields.items())]
    for value, (name, kind) in zip(row, fields.items()):
        if kind is BOX and len(value) != 4:
            raise TrackFileError(f"{name} must have 4 coordinates")
    return row


def _array(column, kind) -> np.ndarray | None:
    """The column in one numpy call if it holds its kind as plain JSON values
    (integers, numbers, lists of 4 numbers), else None."""
    types = set(map(type, column))
    if kind is BOX:
        plain = (types <= {list} and set(map(len, column)) <= {4}
                 and set(map(type, chain.from_iterable(column))) <= {int, float})
        return np.array(column, np.float64).reshape(-1, 4) if plain else None
    if kind is INTEGER:
        return np.array(column, np.int64) if types <= {int} else None
    return np.array(column, np.float64) if types <= {int, float} else None


def _json_values(lines: list[str], lineno: int):
    """Decode the non-blank lines of a chunk, each once, up to the first bad one.

    Returns the decoded values, the line numbers of the non-blank lines and
    the TrackFileError of the first line that is not one JSON value (None
    if there is none); the values stop before that line.
    """
    row_lines = range(lineno, lineno + len(lines))
    if any(map(str.isspace, lines)):
        row_lines = [k for k, line in zip(row_lines, lines) if not line.isspace()]
        lines = [line for line in lines if not line.isspace()]
    texts = list(map(str.strip, lines, repeat(_JSON_SPACE)))
    try:
        # scan_once raises StopIteration where no value starts, which ends the map early
        values, ends = zip(*map(_scan_json, texts, repeat(0)))
        if list(ends) == list(map(len, texts)):
            return values, row_lines, None
    except (json.JSONDecodeError, ValueError):  # ValueError: not one line decoded
        pass
    values = []  # a line is not one JSON value: find it, decoding one by one up to it
    for k, text in zip(row_lines, texts):
        try:
            values.append(json.loads(text))
        except json.JSONDecodeError as exc:
            return values, row_lines, TrackFileError(f"bad JSON: {exc.msg}", k)
    return values, row_lines, None


def _json_columns(values: Sequence, lines: Sequence[int],
                  fields: dict) -> tuple[list[np.ndarray], TrackFileError | None]:
    """One column per field of the decoded rows up to the first bad row, and that
    row's error naming its line (None if there is none).

    Columns of plain JSON values are built with one numpy call each.
    Otherwise the rows are read one by one, which also reads integral
    floats and numeric strings, up to the first bad row.
    """
    try:
        columns = [_array(list(map(itemgetter(name), values)), kind)
                   for name, kind in fields.items()]
        if all(column is not None for column in columns):
            return columns, None
    except (KeyError, TypeError, OverflowError):
        pass  # a row that is not an object or lacks a field, or a number too large
    rows, error = [], None
    for obj, k in zip(values, lines):
        try:
            rows.append(_json_row(obj, fields))
        except TrackFileError as exc:
            error = TrackFileError(exc.args[0], k)
            break
    columns = zip(*rows) if rows else [()] * len(fields)
    return list(map(_array, columns, fields.values())), error


def _json_chunk(lines: list[str], lineno: int, fields: dict):
    """A chunk's columns up to its first bad row, its rows' lines and that row's error."""
    values, row_lines, error = _json_values(lines, lineno)
    columns, row_error = _json_columns(values, row_lines, fields)
    return columns, row_lines, row_error or error


def _parse_jsonl(fh: IO[str]) -> TrackSet:
    first = fh.readline()
    if not first.strip():
        raise TrackFileError("missing header line", 1)
    resolution, frames = _parse_header(first, 1)
    return _read_rows(fh, resolution, frames, partial(_json_chunk, fields=TRACK_FIELDS))


# ---------------------------------------------------------------------------
# MOT csv


def _mot_chunk(lines: list[str], lineno: int):
    """Decode a chunk of MOT rows: numbers per line, then the per-row field checks."""
    rows, row_lines, error = [], [], None
    for k, line in enumerate(lines, start=lineno):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 7:
            error = TrackFileError("expected frame,id,left,top,width,height,conf[,class]", k)
            break
        try:
            values = [float(p) for p in parts[:7]]
            values.append(float(parts[7]) if len(parts) > 7 and parts[7].strip()
                          else PERSON_CLASS_ID)
        except ValueError as exc:
            error = TrackFileError(f"bad number: {exc}", k)
            break
        rows.append(values)
        row_lines.append(k)
    frame, track, left, top, width, height, confidence, class_id = (
        np.array(rows, np.float64).reshape(len(rows), 8).T)
    found = _first_failure([~_int64(frame), ~_int64(track), ~_int64(class_id),
                            (width <= 0) | (height <= 0)])
    if found is not None:
        row, check = found
        name, value = (("frame", frame), ("id", track), ("class", class_id), (None, None))[check]
        message = (f"{name} must be a 64-bit integer, not {value[row].item()!r}" if name
                   else f"non-positive box size {width[row].item()}x{height[row].item()}")
        error = TrackFileError(message, row_lines[row])
        keep = slice(row)
    else:
        keep = slice(None)
    box = np.stack([left, top, left + width, top + height], axis=1)
    return ((frame[keep].astype(np.int64), track[keep].astype(np.int64),
             class_id[keep].astype(np.int64), box[keep], confidence[keep]),
            row_lines, error)


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
    return _read_rows(fh, resolution, frames, _mot_chunk)


def parse_tracks(source, format: str = "jsonl") -> TrackSet:
    """Parse tracker output from a path or text stream.

    ``format`` is "jsonl" (header line with width/height/frames, then one
    detection object per line) or "mot" (MOTChallenge CSV with a JSON
    comment header).
    """
    if format == "jsonl":
        parser = _parse_jsonl
    elif format == "mot":
        parser = _parse_mot
    else:
        raise ValueError(f"unknown track format {format!r}")
    with _open_text(source) as fh:
        return parser(fh)


def _first_nonfinite(*columns: np.ndarray) -> int | None:
    """The first row with a non-finite value in any of the (n,) or (n, k) columns: every
    jsonl writer refuses such a row, which JSON cannot hold and the readers refuse."""
    bad = np.zeros(len(columns[0]), dtype=bool)
    for column in columns:
        finite = np.isfinite(column)
        bad |= ~(finite.all(axis=1) if finite.ndim == 2 else finite)
    return int(np.argmax(bad)) if bad.any() else None


def write_tracks(tracks: TrackSet, target) -> None:
    """Write a TrackSet as jsonl, one ``TRACK_FIELDS`` row per detection; a non-finite box
    or confidence raises ValueError naming the detection before anything is written."""
    d = tracks.detections
    bad = _first_nonfinite(d.box, d.confidence)
    if bad is not None:
        raise ValueError(f"detection of track {d.track_id[bad]} in frame {d.frame[bad]} "
                         "has a non-finite box or confidence")
    with _open_text(target, "w") as fh:
        w, h = tracks.resolution
        fh.write(json.dumps({"width": w, "height": h, "frames": tracks.frame_count}) + "\n")
        for row in zip(d.frame.tolist(), d.track_id.tolist(), d.class_id.tolist(),
                       d.box.tolist(), d.confidence.tolist()):
            fh.write(json.dumps(dict(zip(TRACK_FIELDS, row))) + "\n")


def parse_ground_truth(source, frame_count: int | None = None) -> GroundTruth:
    """Parse gt.jsonl: one {"frame", "gt_id", "box"} object per line.

    Fields follow the track rules: ``frame`` and ``gt_id`` are 64-bit
    integers (integral floats and numeric strings are read), ``box`` is a
    list of 4 finite numbers with x1 < x2 and y1 < y2. A row fails with its
    line number for a bad field, a frame below 1 or beyond ``frame_count``
    (when given) or a negative gt_id; once every row has passed, so does
    the second row of a repeated (frame, gt_id) pair.
    """
    limit = math.inf if frame_count is None else frame_count

    def read(lines: list[str], lineno: int) -> list[np.ndarray]:
        (frame, gt_id, box), row_lines, error = _json_chunk(lines, lineno, GT_FIELDS)
        x1, y1, x2, y2 = box.T
        row_error = _row_error([
            (~np.isfinite(box).all(axis=1),
             lambda r: f"ground-truth box {tuple(box[r].tolist())} is not finite"),
            ((x1 >= x2) | (y1 >= y2),
             lambda r: f"degenerate ground-truth box {tuple(box[r].tolist())}"),
            (frame < 1, lambda r: f"frame index {frame[r]} must be >= 1"),
            (frame > limit, lambda r: f"frame index {frame[r]} is beyond the video's "
                                      f"{frame_count} frames"),
            (gt_id < 0, lambda r: f"gt_id {gt_id[r]} must be >= 0"),
        ], row_lines)
        if row_error or error:
            raise row_error or error
        return [frame, gt_id, box, np.array(row_lines, np.int64)]

    with _open_text(source) as fh:
        frame, gt_id, box, lines = _read_chunks(fh, 1, read)
    order, repeated = _sorted_repeats(frame, gt_id)
    error = _row_error([(repeated, lambda r: f"gt_id {gt_id[r]} repeats in frame {frame[r]}")],
                       lines)
    if error is not None:
        raise error
    return GroundTruth(tuple(map(GtRegion, frame[order].tolist(), gt_id[order].tolist(),
                                 map(tuple, box[order].tolist()))))


def write_ground_truth(gt: GroundTruth, target) -> None:
    """One ``GT_FIELDS`` row per region; a non-finite box raises ValueError naming
    the region before anything is written."""
    bad = _first_nonfinite(np.array([r.box for r in gt.regions], np.float64).reshape(-1, 4))
    if bad is not None:
        raise ValueError("ground-truth region {0.gt_id} in frame {0.frame} has a non-finite "
                         "box".format(gt.regions[bad]))
    with _open_text(target, "w") as fh:
        for r in gt.regions:
            fh.write(json.dumps(dict(zip(GT_FIELDS, (r.frame, r.gt_id, list(r.box))))) + "\n")


def _group_threshold(confidences: np.ndarray, group: str) -> float:
    if not confidences.size:
        log.info("no %s detections; confidence threshold defaults to 0", group)
        return 0.0
    # population standard deviation: deterministic for a single sample
    return float(max(0.0, confidences.mean() - 2.0 * confidences.std()))


def compute_confidence_thresholds(tracks: TrackSet) -> ConfidenceThresholds:
    """Dynamic thresholds, one for person and one for the pooled remaining classes."""
    person = tracks.detections.class_id == PERSON_CLASS_ID
    confidence = tracks.detections.confidence
    return ConfidenceThresholds(
        person_threshold=_group_threshold(confidence[person], "person"),
        other_threshold=_group_threshold(confidence[~person], "non-person"),
    )


def filter_detections(tracks: TrackSet, thresholds: ConfidenceThresholds) -> TrackSet:
    """Keep detections whose confidence is >= their class group's threshold."""
    d = tracks.detections
    cutoff = np.where(d.class_id == PERSON_CLASS_ID, thresholds.person_threshold,
                      thresholds.other_threshold)
    return replace(tracks, detections=d.take(d.confidence >= cutoff))


def slice_frames(tracks: TrackSet, slice_factor: int) -> TrackSet:
    """Retain every slice_factor-th frame, keeping original frame indices.

    Frame 1 is always retained; velocity normalization later relies on the
    preserved indices to recover true frame gaps.
    """
    if slice_factor < 1:
        raise ValueError(f"slice factor {slice_factor} must be >= 1")
    if slice_factor == 1:
        return tracks
    d = tracks.detections
    return replace(tracks, detections=d.take((d.frame - 1) % slice_factor == 0))
