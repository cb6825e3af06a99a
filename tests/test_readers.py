"""Ground truth and scores through the chunked jsonl reader, against row-by-row references.

The references keep the per-line loops the columnar reader replaced. Where
the reader reads or refuses differently on purpose, the reference says so
in a comment: box coordinates in ``scores.jsonl`` are read as track boxes
are (numeric strings too), and the refusals of files that do not describe
one video (negative gt_id, a region beyond the scores' frames, a repeated
(frame, gt_id), repeated or missing frame rows, object rows outside the
frames, object rows whose per_granularity keys differ from the first one's).
"""
import io
import json
import math
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridvad import cli, ingest, pipeline
from gridvad.explain import explain_object, write_explanation
from gridvad.ingest import (GroundTruth, GtRegion, TrackFileError, filter_detections,
                            parse_ground_truth, parse_tracks, write_ground_truth)
from gridvad.pipeline import (REASONS, ScoredObject, ScoreTable, read_scores,
                              score_frames, score_object, write_scores)
from oracles import with_predecessors

chunks = st.sampled_from([1, 2, 3, 7, ingest.CHUNK_LINES])


class Bad(Exception):
    pass


def ref_integer(value):
    number = value
    if type(value) is float and math.isfinite(value) and value == math.floor(value):
        number = int(value)
    elif type(value) is str:
        try:
            number = int(value)
        except ValueError:
            pass
    if type(number) is not int or not -2 ** 63 <= number < 2 ** 63:
        raise Bad
    return number


def ref_number(value):
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise Bad from None


def ref_box(value):
    if type(value) is not list:
        raise Bad
    box = tuple(ref_number(v) for v in value)
    if len(box) != 4:
        raise Bad
    return box


def first_repeat(keys, lines):
    """The line of the first row whose key an earlier row had, or None."""
    seen = set()
    for key, lineno in zip(keys, lines):
        if key in seen:
            return lineno
        seen.add(key)
    return None


def ref_ground_truth(text, frame_count=None):
    """The parsed GroundTruth, or the line number of the first error."""
    regions, lines = [], []
    for lineno, line in enumerate(text.splitlines(keepends=True), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            frame, gt_id, box = obj["frame"], obj["gt_id"], obj["box"]
            frame, gt_id, box = ref_integer(frame), ref_integer(gt_id), ref_box(box)
            if not all(map(math.isfinite, box)) or box[0] >= box[2] or box[1] >= box[3]:
                raise Bad
            if frame < 1:
                raise Bad
            # refused by the columnar reader: a negative gt_id, a frame beyond the video
            if gt_id < 0 or frame_count is not None and frame > frame_count:
                raise Bad
        except (Bad, KeyError, TypeError, json.JSONDecodeError):
            return lineno
        regions.append(GtRegion(frame, gt_id, box))
        lines.append(lineno)
    # refused by the columnar reader: a repeated (frame, gt_id), at its second row
    repeat = first_repeat([(r.frame, r.gt_id) for r in regions], lines)
    if repeat is not None:
        return repeat
    return GroundTruth(tuple(sorted(regions, key=lambda r: (r.frame, r.gt_id))))


def ref_scores(text):
    """(object rows, raw, smoothed) of a scores file, or the line of the first error."""
    objects, frame_rows, keys = [], [], None
    for lineno, line in enumerate(text.splitlines(keepends=True), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            if not isinstance(row, dict):
                raise Bad
            frame = ref_integer(row["frame"])
            if "raw" in row:
                raw, smoothed = float(row["raw"]), float(row["smoothed"])
                if not (math.isfinite(raw) and math.isfinite(smoothed)):
                    raise Bad
                frame_rows.append((frame, raw, smoothed, lineno))
                continue
            # read as track boxes are: a list, coordinates as float() reads them
            box, fused, reason = ref_box(row["box"]), float(row["score"]), row.get("reason")
            if reason not in REASONS:
                raise Bad
            track, class_id = ref_integer(row["id"]), ref_integer(row["class"])
            grans = row["per_granularity"]
            # refused by the columnar reader: keys other than the first object row's,
            # which must be cell sizes >= 1 spelled as plain ASCII decimals
            if keys is None:
                keys = set(grans) if type(grans) is dict else set()
                if not all(re.fullmatch("[1-9][0-9]*", k) for k in keys):
                    keys = set()
            if type(grans) is not dict or not keys or grans.keys() != keys:
                raise Bad
            per_granularity = sorted((int(k), float(v)) for k, v in grans.items())
            if not (math.isfinite(fused) and all(map(math.isfinite, box))):
                raise Bad
            objects.append(((frame, track, class_id, box, per_granularity, fused, reason),
                            lineno))
        except (Bad, KeyError, TypeError, ValueError, AttributeError, OverflowError):
            return lineno
    # refused by the columnar reader: frame rows that do not number 1..N once each,
    # at the first such row, then object rows outside those frames
    count, seen = len(frame_rows), set()
    for frame, _raw, _smoothed, lineno in frame_rows:
        if not 1 <= frame <= count or frame in seen:
            return lineno
        seen.add(frame)
    for values, lineno in objects:
        if not 1 <= values[0] <= count:
            return lineno
    frame_rows.sort()
    return ([values for values, _ in objects], [r for _, r, _, _ in frame_rows],
            [s for _, _, s, _ in frame_rows])


def read_ground_truth(text, chunk, frame_count=None):
    with mock.patch.object(ingest, "CHUNK_LINES", chunk):
        try:
            return parse_ground_truth(io.StringIO(text), frame_count)
        except TrackFileError as exc:
            assert str(exc).startswith(f"line {exc.line}: "), exc
            return exc.line


def scores_outcome(text, chunk):
    """read_scores of the text in the reference's terms, or the error's line."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "CHUNK_LINES", chunk):
        path = Path(tmp) / "scores.jsonl"
        path.write_text(text, encoding="utf-8")
        try:
            table, frames = read_scores(path)
        except TrackFileError as exc:
            assert str(exc).startswith(f"line {exc.line}: "), exc
            return exc.line
    assert isinstance(table, ScoreTable)
    objects = list(zip(table.frame.tolist(), table.track_id.tolist(),
                       table.class_id.tolist(), map(tuple, table.box.tolist()),
                       [sorted(zip(table.cell_sizes, row))
                        for row in table.per_granularity.tolist()],
                       table.fused.tolist(), [REASONS[c] for c in table.reason.tolist()]))
    return objects, frames.raw.tolist(), frames.smoothed.tolist()


def same(outcome, expected):
    """Equal outcomes, floats compared by repr so -0.0 and 0.0 differ."""
    assert repr(outcome) == repr(expected)


# ---------------------------------------------------------------------------
# generated files

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
unit = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0, 1))


@st.composite
def boxes(draw):
    x1, y1 = draw(finite), draw(finite)
    return [x1, y1, x1 + draw(st.floats(0.5, 500)), y1 + draw(st.floats(0.5, 500))]


def respelled(draw, row, integers, numbers, box="box"):
    """The row as one line, its fields maybe spelled the other ways the reader reads:
    integral floats and numeric strings, indented or after a blank line."""
    row = dict(row)
    spelling = draw(st.sampled_from(["plain", "float", "text", "indent", "blank"]))
    if spelling == "float":
        row.update({k: float(row[k]) for k in integers if k in row})
    elif spelling == "text":
        row.update({k: str(row[k]) for k in integers if k in row})
        row.update({k: repr(row[k]) for k in numbers if k in row})
        if box in row:
            row[box] = [repr(v) for v in row[box]]
    line = ("  " if spelling == "indent" else "") + json.dumps(row)
    return ["", line] if spelling == "blank" else [line]


GT_FAULTS = {
    "frame 0": ("frame", 0), "frame -3": ("frame", -3), "frame 2.7": ("frame", 2.7),
    "frame abc": ("frame", "abc"), "frame true": ("frame", True), "frame 13": ("frame", 13),
    "gt_id -1": ("gt_id", -1), "gt_id 2.5": ("gt_id", 2.5), "gt_id null": ("gt_id", None),
    "gt_id 2**64": ("gt_id", 2 ** 64), "box nan": ("box", [math.nan, 2, 30, 40]),
    "box inf": ("box", [1, 2, math.inf, 40]), "box string": ("box", "1234"),
    "box 3": ("box", [1, 2, 3]), "box 5": ("box", [1, 2, 3, 4, 5]),
    "box word": ("box", [1, 2, "x", 4]), "box text": ("box", [1, "2", 3, 4]),
    "box degenerate": ("box", [30, 2, 10, 40]), "box huge": ("box", [1, 2, 10 ** 400, 4]),
    "box bool": ("box", [1, 2, True, 4]), "missing": ("gt_id", KeyError),
}
LINES = {"bad json": "{not json", "array": "[1, 2]", "number": "7", "blank": "   ",
         "two values": '{"a": 1} {"b": 2}'}


def inject(draw, lines, faults, repeat_key):
    """1 to 3 faults: a field set to a fault value or deleted, a faulty line inserted,
    or a row repeated."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        kind = draw(st.sampled_from(["field", "field", "field", "line", "repeat"]))
        if kind == "line":
            lines.insert(at, LINES[draw(st.sampled_from(sorted(LINES)))])
            continue
        try:
            row = json.loads(lines[at])
        except (IndexError, json.JSONDecodeError):
            continue
        if not isinstance(row, dict):
            continue
        if kind == "repeat" and repeat_key(row):
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        elif kind == "field":
            key, value = faults(row)[draw(st.sampled_from(sorted(faults(row))))]
            if value is KeyError:
                row.pop(key, None)
            else:
                row[key] = value
            lines[at] = json.dumps(row)
    return "\n".join(lines) + "\n"


@st.composite
def gt_files(draw, faulty: bool):
    keys = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(0, 5)), unique=True,
                         min_size=faulty, max_size=20))
    lines = []
    for frame, gt_id in keys:
        row = {"frame": frame, "gt_id": gt_id, "box": draw(boxes())}
        lines += respelled(draw, row, ("frame", "gt_id"), ())
    if not faulty:
        return "\n".join(lines) + "\n"
    return inject(draw, lines, lambda row: GT_FAULTS, lambda row: True)


def score_faults(row):
    if "raw" in row:
        return {"raw nan": ("raw", math.nan), "raw text": ("raw", "low"),
                "smoothed inf": ("smoothed", math.inf), "no smoothed": ("smoothed", KeyError),
                "frame 2.7": ("frame", 2.7), "frame 0": ("frame", 0), "frame +1": ("frame", 99),
                "frame null": ("frame", None)}
    grans = row.get("per_granularity")
    grans = grans if isinstance(grans, dict) else {}  # an earlier fault may have replaced it
    first = sorted(grans)[0] if grans else "40"
    return {"no class": ("class", KeyError), "short box": ("box", [1, 2, 3]),
            "box string": ("box", "1234"), "box -inf": ("box", [1, -math.inf, 3, 4]),
            "box word": ("box", [1, "x", 3, 4]), "score text": ("score", "low"),
            "score nan": ("score", math.nan), "score 1e999": ("score", math.inf),
            "score bool": ("score", True), "frame 2.7": ("frame", 2.7),
            "frame 601": ("frame", 601), "frame -4": ("frame", -4), "id true": ("id", True),
            "id 2**64": ("id", 2 ** 64), "reason bogus": ("reason", "bogus"),
            "reason list": ("reason", [None]), "no reason": ("reason", KeyError),
            "no grans": ("per_granularity", KeyError), "grans empty": ("per_granularity", {}),
            "grans list": ("per_granularity", [0.5]),
            "grans other size": ("per_granularity", {**grans, "7": 0.5}),
            "grans fewer": ("per_granularity", {k: v for k, v in grans.items() if k != first}),
            "grans word": ("per_granularity", {**grans, first: "x"}),
            "grans not decimal": ("per_granularity", {f"{first}.0": 0.5}),
            "grans one size twice": ("per_granularity", {**grans, f"0{first}": 0.5}),
            "grans text": ("per_granularity", {**grans, first: "0.25"})}


@st.composite
def score_files(draw, faulty: bool):
    count = draw(st.integers(faulty, 6))
    sizes = draw(st.lists(st.sampled_from(["10", "20", "40", "80"]), min_size=1, max_size=3,
                          unique=True))
    rows = [{"frame": f, "raw": draw(unit), "smoothed": draw(unit)}
            for f in range(1, count + 1)]
    for _ in range(draw(st.integers(0, 10)) if count else 0):
        row = {"frame": draw(st.integers(1, count)), "id": draw(st.integers(0, 9)),
               "class": draw(st.integers(1, 80)), "box": draw(boxes()), "score": draw(unit),
               "per_granularity": {cs: draw(unit) for cs in sizes},
               "reason": draw(st.sampled_from(REASONS))}
        if row["reason"] is None and draw(st.booleans()):
            del row["reason"]
        rows.append(row)
    lines = []
    for row in draw(st.permutations(rows)):
        lines += respelled(draw, row, ("frame", "id", "class"),
                           ("score", "raw", "smoothed"))
    if not faulty:
        return "\n".join(lines) + "\n"
    return inject(draw, lines, score_faults, lambda row: "raw" in row)


# ---------------------------------------------------------------------------


class TestGroundTruthOracle:
    @settings(max_examples=150, deadline=None)
    @given(text=gt_files(faulty=False), chunk=chunks)
    def test_valid_files_equal_row_by_row_parse(self, text, chunk):
        expected = ref_ground_truth(text)
        assert isinstance(expected, GroundTruth)
        same(read_ground_truth(text, chunk), expected)

    @settings(max_examples=300, deadline=None)
    @given(text=gt_files(faulty=True), chunk=chunks, frame_count=st.sampled_from([None, 12]))
    def test_first_error_equals_row_by_row_parse(self, text, chunk, frame_count):
        same(read_ground_truth(text, chunk, frame_count), ref_ground_truth(text, frame_count))


GT_ROWS = [{"frame": f, "gt_id": g, "box": [1.5, 2, 30, 40]}
           for f, g in ((1, 0), (2, 0), (2, 1), (5, 3), (12, 0))]
SCORE_ROWS = [{"frame": f, "id": i, "class": 1, "box": [1.5, 2, 30, 40], "score": 0.25,
               "per_granularity": {"40": 0.5, "80": 0.0}, "reason": None}
              for f, i in ((1, 0), (1, 1), (2, 0), (3, 0))] + [
    {"frame": f, "raw": 0.25, "smoothed": 0.5} for f in (1, 2, 3)]


class TestEachFault:
    """Each fault alone, on an object or frame row inside a small file, against the reference."""

    @staticmethod
    def text(rows, at, key, value):
        row = dict(rows[at])
        if value is KeyError:
            del row[key]
        else:
            row[key] = value
        return "".join(json.dumps(r) + "\n" for r in rows[:at] + [row] + rows[at + 1:])

    @pytest.mark.parametrize("fault", sorted(GT_FAULTS))
    def test_ground_truth(self, fault):
        text = self.text(GT_ROWS, 2, *GT_FAULTS[fault])
        for frame_count in (None, 12):
            expected = ref_ground_truth(text, frame_count)
            for chunk in (1, 2, ingest.CHUNK_LINES):
                same(read_ground_truth(text, chunk, frame_count), expected)

    @pytest.mark.parametrize("at, fault", [(at, fault) for at in (0, 2, 5)
                                           for fault in sorted(score_faults(SCORE_ROWS[at]))])
    def test_scores(self, at, fault):
        text = self.text(SCORE_ROWS, at, *score_faults(SCORE_ROWS[at])[fault])
        for chunk in (1, 2, ingest.CHUNK_LINES):
            same(scores_outcome(text, chunk), ref_scores(text))


class TestScoresOracle:
    @settings(max_examples=150, deadline=None)
    @given(text=score_files(faulty=False), chunk=chunks)
    def test_valid_files_equal_row_by_row_read(self, text, chunk):
        expected = ref_scores(text)
        assert isinstance(expected, tuple)
        same(scores_outcome(text, chunk), expected)

    @settings(max_examples=300, deadline=None)
    @given(text=score_files(faulty=True), chunk=chunks)
    def test_first_error_equals_row_by_row_read(self, text, chunk):
        same(scores_outcome(text, chunk), ref_scores(text))


class TestScoresRoundTrip:
    def test_read_gives_the_written_columns(self, reference_run, tmp_path):
        scored, frames = reference_run["scored"], reference_run["frames"]
        write_scores(tmp_path / "scores.jsonl", scored, frames)
        table, frames_back = read_scores(tmp_path / "scores.jsonl")
        assert isinstance(table, ScoreTable) and table.cell_sizes == scored.cell_sizes
        for name in ("frame", "track_id", "class_id", "box", "per_granularity", "fused",
                     "reason"):
            assert np.array_equal(getattr(table, name), getattr(scored, name)), name
            assert getattr(table, name).dtype == getattr(scored, name).dtype, name
        n = len(scored)
        assert (table.prev == -1).all() and (table.gap == -1).all() and len(table.prev) == n
        assert all(len(c.cell) == 0 and (c.offsets == 0).all() and len(c.offsets) == n + 1
                   for c in table.cells)
        assert np.array_equal(frames_back.raw, frames.raw)
        assert np.array_equal(frames_back.smoothed, frames.smoothed)

    def test_frames_only_file(self, reference_run, tmp_path):
        """An empty stream's scores hold frame rows only; they read and evaluate."""
        bundle = reference_run["bundle"]
        empty = filter_detections(reference_run["test_tracks"], bundle.thresholds)
        empty = type(empty)(empty.resolution, empty.frame_count, empty.detections[:0])
        scored, frames = score_frames(bundle, empty)
        path = tmp_path / "scores.jsonl"
        write_scores(path, scored, frames)
        assert '"score"' not in path.read_text()
        objects, frames_back = read_scores(path)
        assert isinstance(objects, ScoreTable) and objects.cell_sizes == ()
        assert len(objects) == 0 and objects == [] and objects.per_granularity.shape == (0, 0)
        assert np.array_equal(frames_back.smoothed, frames.smoothed)
        gt_path = tmp_path / "gt.jsonl"
        write_ground_truth(reference_run["gt"], gt_path)
        assert cli.main(["eval", "--scores", str(path), "--gt", str(gt_path),
                         "--report", str(tmp_path / "report.json")]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert (report["frame_auc"], report["rbdc"], report["tbdc"]) == (0.5, 0.0, 0.0)


class TestCellSizeKeys:
    """``per_granularity`` keys are read by the bundle's key rule, each a cell size >= 1."""

    @staticmethod
    def path(tmp_path, key):
        rows = [{**row, "per_granularity": {key: 0.5}} if "score" in row else row
                for row in SCORE_ROWS]
        path = tmp_path / "scores.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        return path

    @pytest.mark.parametrize("key", ["040", "\u0664\u0660", "0", "-40", "+40", " 40", "40.0"],
                             ids=["leading-zero", "arabic-indic", "zero", "negative", "plus",
                                  "space", "fraction"])
    def test_refused(self, tmp_path, key):
        with pytest.raises(TrackFileError, match="^line 1: per_granularity ") as excinfo:
            read_scores(self.path(tmp_path, key))
        assert excinfo.value.line == 1

    def test_plain_decimal_read(self, tmp_path):
        table, _frames = read_scores(self.path(tmp_path, "40"))
        assert table.cell_sizes == (40,) and table.per_granularity.tolist() == [[0.5]] * 4


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """Scores and ground truth of one synthetic scene, written by the command line."""
    root = tmp_path_factory.mktemp("readers")
    data = root / "data"
    for argv in (["synth", "--preset", "reference", "--seed", "5", "--out-dir", data],
                 ["train", "--tracks", data / "train_tracks.jsonl", "--cells", "40,80",
                  "--slice", "3", "--out", root / "model.bundle"],
                 ["score", "--model", root / "model.bundle", "--tracks",
                  data / "test_tracks.jsonl", "--out", root / "scores.jsonl"]):
        assert cli.main(list(map(str, argv))) == 0
    return root


def run_eval(scene, tmp_path, scores=None, gt=None):
    return cli.main(["eval", "--scores", str(scores or scene / "scores.jsonl"),
                     "--gt", str(gt or scene / "data" / "gt.jsonl"),
                     "--report", str(tmp_path / "report.json")])


class TestEvalRefusesMismatchedFiles:
    """Scores and ground truth that do not describe one video exit 1 naming the line."""

    def lines(self, scene, name):
        return (scene / name).read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("frame", [601, -4, 0])
    def test_object_row_outside_the_frames(self, scene, tmp_path, capsys, frame):
        lines = self.lines(scene, "scores.jsonl")
        row = json.loads(lines[0])
        lines.insert(5, json.dumps({**row, "frame": frame}) + "\n")
        (tmp_path / "scores.jsonl").write_text("".join(lines))
        assert run_eval(scene, tmp_path, scores=tmp_path / "scores.jsonl") == 1
        assert f"line 6: object frame {frame} is outside frames 1 to 600" in \
            capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_repeated_frame_row(self, scene, tmp_path, capsys):
        lines = self.lines(scene, "scores.jsonl")
        lines.append(lines[-1])
        (tmp_path / "scores.jsonl").write_text("".join(lines))
        assert run_eval(scene, tmp_path, scores=tmp_path / "scores.jsonl") == 1
        assert f"line {len(lines)}: the frame rows do not number frames 1 to 601" in \
            capsys.readouterr().err

    def test_per_granularity_keys_differ(self, scene, tmp_path, capsys):
        lines = self.lines(scene, "scores.jsonl")
        row = json.loads(lines[3])
        row["per_granularity"] = {"40": 0.5}
        lines[3] = json.dumps(row) + "\n"
        (tmp_path / "scores.jsonl").write_text("".join(lines))
        assert run_eval(scene, tmp_path, scores=tmp_path / "scores.jsonl") == 1
        assert "line 4: per_granularity {'40': 0.5} is not an object" in capsys.readouterr().err

    def test_region_beyond_the_scored_frames(self, scene, tmp_path, capsys):
        lines = self.lines(scene, "data/gt.jsonl")
        lines.insert(2, json.dumps({"frame": 9999, "gt_id": 0, "box": [1, 2, 30, 40]}) + "\n")
        (tmp_path / "gt.jsonl").write_text("".join(lines))
        assert run_eval(scene, tmp_path, gt=tmp_path / "gt.jsonl") == 1
        assert "line 3: frame index 9999 is beyond the video's 600 frames" in \
            capsys.readouterr().err

    def test_repeated_regions(self, scene, tmp_path, capsys):
        lines = self.lines(scene, "data/gt.jsonl")
        (tmp_path / "gt.jsonl").write_text("".join(lines + lines[:50]))
        assert run_eval(scene, tmp_path, gt=tmp_path / "gt.jsonl") == 1
        region = json.loads(lines[0])
        assert (f"line {len(lines) + 1}: gt_id {region['gt_id']} repeats in frame "
                f"{region['frame']}") in capsys.readouterr().err

    def test_negative_gt_id(self, scene, tmp_path, capsys):
        lines = self.lines(scene, "data/gt.jsonl")
        lines[1] = json.dumps({**json.loads(lines[1]), "gt_id": -2}) + "\n"
        (tmp_path / "gt.jsonl").write_text("".join(lines))
        assert run_eval(scene, tmp_path, gt=tmp_path / "gt.jsonl") == 1
        assert "line 2: gt_id -2 must be >= 0" in capsys.readouterr().err

    def test_matching_files_pass(self, scene, tmp_path):
        assert run_eval(scene, tmp_path) == 0


class TestEvalOnColumns:
    def test_eval_builds_no_scored_objects(self, scene, tmp_path, monkeypatch):
        built = []

        class Counting(ScoredObject):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pipeline, "ScoredObject", Counting)
        assert run_eval(scene, tmp_path) == 0
        assert built == []
        table, _frames = read_scores(scene / "scores.jsonl")
        assert isinstance(table, ScoreTable) and len(table) > 1000
        table[0]
        assert len(built) == 1


class TestExplainLookup:
    """``gridvad explain`` reads the requested row's predecessor from the stream columns."""

    @staticmethod
    def explain(scene, out, frame, track_id):
        return cli.main(["explain", "--model", str(scene / "model.bundle"),
                         "--tracks", str(scene / "data" / "test_tracks.jsonl"),
                         "--frame", str(frame), "--track-id", str(track_id),
                         "--granularity", "all", "--out", str(out)])

    def test_masks_find_what_the_walk_finds(self, scene, tmp_path):
        bundle = pipeline.load_bundle(scene / "model.bundle")
        tracks = filter_detections(parse_tracks(scene / "data" / "test_tracks.jsonl"),
                                   bundle.thresholds)
        pairs = list(with_predecessors(tracks.detections))
        rng = random.Random(0)
        sample = (rng.sample([p for p in pairs if p[1] is None], 3)
                  + rng.sample([p for p in pairs if p[1] is not None], 9))
        for det, prev_center, gap in sample:
            out, expected = tmp_path / "explanation.json", tmp_path / "expected.json"
            assert self.explain(scene, out, det.frame_index, det.track_id) == 0
            write_explanation(explain_object(bundle, score_object(bundle, det, prev_center, gap)),
                              expected)
            assert out.read_bytes() == expected.read_bytes()
            assert (out.with_suffix(".plot.json").read_bytes()
                    == expected.with_suffix(".plot.json").read_bytes())

    def test_absent_object(self, scene, tmp_path, capsys):
        for frame, track_id in ((1, 10 ** 6), (10 ** 6, 0)):
            out = tmp_path / "explanation.json"
            assert self.explain(scene, out, frame, track_id) == 1
            assert (f"no detection with track id {track_id} in frame {frame}"
                    in capsys.readouterr().err)
            assert not out.exists()

    def test_explain_walks_no_detections(self, scene, tmp_path, monkeypatch):
        built = []

        class Counting(ingest.TrackedDetection):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        tracks = parse_tracks(scene / "data" / "test_tracks.jsonl")
        det = [d for d, prev_center, _ in with_predecessors(tracks.detections)
               if prev_center is not None][-1]  # a row with a predecessor
        monkeypatch.setattr(ingest, "TrackedDetection", Counting)
        assert self.explain(scene, tmp_path / "explanation.json", det.frame_index,
                            det.track_id) == 0
        assert built == [(det.frame_index, det.track_id, det.class_id, det.box,
                          det.confidence)]
