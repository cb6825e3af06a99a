"""The columnar track parser against a row-by-row reference, and the detection view."""
import copy
import dataclasses
import io
import json
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gridvad import cli, ingest
from gridvad.featurize import fit_discretizer, generate_observations, build_grid, stream_columns
from gridvad.ingest import (
    Detections,
    TrackFileError,
    TrackSet,
    TrackedDetection,
    compute_confidence_thresholds,
    filter_detections,
    parse_tracks,
    slice_frames,
    write_tracks,
)
from gridvad.pipeline import TrainConfig, score_frames, train

# ---------------------------------------------------------------------------
# the row-by-row reference: decode, check and clamp one row at a time, then
# reject a repeated (frame, track) or a frame beyond the declared count in
# file order, then sort


class Bad(Exception):
    pass


def ref_integer(value, name):
    number = value
    if type(value) is float and math.isfinite(value) and value == math.floor(value):
        number = int(value)
    elif type(value) is str:
        try:
            number = int(value)
        except ValueError:
            pass
    if type(number) is not int or not -2 ** 63 <= number < 2 ** 63:
        raise Bad(f"{name} must be a 64-bit integer, not {value!r}")
    return number


def ref_number(value, name):
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise Bad(f"{name} must be a number, not {value!r}") from None


def ref_json_row(line):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise Bad(f"bad JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise Bad(f"expected a JSON object, not {obj!r}")
    for key in ("frame", "id", "class", "box", "conf"):
        if key not in obj:
            raise Bad(f"missing or invalid field: {key!r}")
    frame = ref_integer(obj["frame"], "frame")
    track = ref_integer(obj["id"], "id")
    class_id = ref_integer(obj["class"], "class")
    if not isinstance(obj["box"], list):
        raise Bad(f"box must be a list of numbers, not {obj['box']!r}")
    box = [ref_number(v, "box coordinate") for v in obj["box"]]
    return frame, track, class_id, box, ref_number(obj["conf"], "conf")


def ref_mot_row(line):
    parts = line.split(",")
    if len(parts) < 7:
        raise Bad("expected frame,id,left,top,width,height,conf[,class]")
    try:
        frame, track = float(parts[0]), float(parts[1])
        left, top, width, height = (float(p) for p in parts[2:6])
        confidence = float(parts[6])
        class_id = float(parts[7]) if len(parts) > 7 and parts[7].strip() else 1
    except ValueError as exc:
        raise Bad(f"bad number: {exc}") from None
    frame, track = ref_integer(frame, "frame"), ref_integer(track, "id")
    class_id = ref_integer(class_id, "class")
    if width <= 0 or height <= 0:
        raise Bad(f"non-positive box size {width}x{height}")
    return frame, track, class_id, (left, top, left + width, top + height), confidence


def ref_detection(frame, track, class_id, box, confidence, resolution):
    box = tuple(float(v) for v in box)
    if len(box) != 4:
        raise Bad("box must have 4 coordinates")
    if not all(map(math.isfinite, box)):
        raise Bad(f"box {box} is not finite")
    if frame < 1:
        raise Bad(f"frame index {frame} must be >= 1")
    if track < 0:
        raise Bad(f"track id {track} must be >= 0")
    if not 1 <= class_id <= 80:
        raise Bad(f"class id {class_id} outside [1, 80]")
    if not 0.0 <= confidence <= 1.0:
        raise Bad(f"confidence {confidence} outside [0, 1]")
    if box[0] >= box[2] or box[1] >= box[3]:
        raise Bad(f"degenerate box {box}")
    w, h = resolution
    x1, y1 = max(0.0, box[0]), max(0.0, box[1])
    x2, y2 = min(float(w), box[2]), min(float(h), box[3])
    if x1 >= x2 or y1 >= y2:
        raise Bad(f"box {box} does not intersect the frame")
    return TrackedDetection(frame, track, class_id, (x1, y1, x2, y2), confidence)


def ref_parse(text, fmt):
    """The parsed TrackSet, or (message, line) of the first error."""
    lines = text.splitlines(keepends=True)
    header = lines[0].lstrip("#").strip() if fmt == "mot" else lines[0]
    payload = json.loads(header)
    resolution, frames = (payload["width"], payload["height"]), payload["frames"]
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if fmt == "mot":
            line = line.strip()
            if not line or line.startswith("#"):
                continue
        elif not line.strip():
            continue
        try:
            fields = (ref_mot_row if fmt == "mot" else ref_json_row)(line)
            rows.append(ref_detection(*fields, resolution))
        except Bad as exc:
            return str(TrackFileError(str(exc), lineno)), lineno
    seen = set()
    for det in rows:
        key = (det.frame_index, det.track_id)
        if key in seen:
            return f"duplicate track {det.track_id} in frame {det.frame_index}", None
        seen.add(key)
        if det.frame_index > frames:
            return (f"frame index {det.frame_index} exceeds declared frame count {frames}",
                    None)
    rows.sort(key=lambda d: (d.frame_index, d.track_id))
    return TrackSet(resolution, frames, tuple(rows))


def columnar_parse(text, fmt, chunk):
    with mock.patch.object(ingest, "CHUNK_LINES", chunk):
        try:
            return parse_tracks(io.StringIO(text), fmt)
        except TrackFileError as exc:
            return str(exc), exc.line


def same(parsed, expected):
    """Equal outcomes; track sets row for row by repr, so -0.0 and int/float differ."""
    if isinstance(expected, TrackSet):
        assert isinstance(parsed, TrackSet), parsed
        assert (parsed.resolution, parsed.frame_count) == (expected.resolution,
                                                          expected.frame_count)
        assert [repr(d) for d in parsed.detections] == [repr(d) for d in expected.detections]
        assert parsed == expected
    else:
        assert parsed == expected


# ---------------------------------------------------------------------------
# random streams


@st.composite
def streams(draw):
    """Valid detection rows in random order, with -0.0 coordinates, edges on
    0, w and h and boxes hanging off each side of the frame."""
    w, h = draw(st.integers(1, 120)), draw(st.integers(1, 90))
    frames = draw(st.integers(1, 12))

    def edge(limit):
        return draw(st.one_of(
            st.sampled_from([-0.0, 0.0, float(limit), -3.5, limit + 2.25]),
            st.integers(-10, limit + 10).map(float),
            st.floats(-10, limit + 10, allow_nan=False, allow_infinity=False)))

    def span(limit):
        a, b = sorted((edge(limit), edge(limit)))
        assume(a < b and b > 0 and a < limit)
        return a, b

    keys = draw(st.lists(st.tuples(st.integers(1, frames), st.integers(0, 6)),
                         unique=True, max_size=25))
    rows = []
    for frame, track in keys:
        (x1, x2), (y1, y2) = span(w), span(h)
        rows.append(TrackedDetection(
            frame, track, draw(st.integers(1, 80)), (x1, y1, x2, y2),
            draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)))))
    return (w, h), frames, rows


def jsonl_text(resolution, frames, rows):
    buffer = io.StringIO()
    write_tracks(TrackSet(resolution, frames, rows), buffer)
    return buffer.getvalue()


def mot_text(resolution, frames, rows):
    w, h = resolution
    lines = [f'# {{"width": {w}, "height": {h}, "frames": {frames}}}']
    for d in rows:
        x1, y1, x2, y2 = d.box
        lines.append(f"{d.frame_index},{d.track_id},{x1!r},{y1!r},{x2 - x1!r},{y2 - y1!r},"
                     f"{d.confidence!r},{d.class_id}")
    return "\n".join(lines) + "\n"


@st.composite
def respelled_jsonl(draw, stream):
    """The stream as jsonl whose rows spell fields the other ways the parser
    reads (integral floats, numeric strings), some indented or after a blank line."""
    lines = jsonl_text(*stream).splitlines()
    out = lines[:1]
    for line in lines[1:]:
        row = json.loads(line)
        spelling = draw(st.sampled_from(["plain", "float", "text", "indent", "blank"]))
        if spelling == "float":
            row["frame"], row["id"], row["class"] = map(float, (row["frame"], row["id"],
                                                                row["class"]))
        elif spelling == "text":
            row["frame"], row["id"], row["class"] = map(str, (row["frame"], row["id"],
                                                              row["class"]))
            row["box"], row["conf"] = [repr(v) for v in row["box"]], repr(row["conf"])
        elif spelling == "blank":
            out.append("")
        out.append(("  " if spelling == "indent" else "") + json.dumps(row))
    return "\n".join(out) + "\n"


# field values injected into one jsonl row (a dict), most of them faults, and
# faulty lines inserted whole
JSON_FAULTS = {
    "frame 0": ("frame", 0), "frame -3": ("frame", -3), "frame 2.7": ("frame", 2.7),
    "frame abc": ("frame", "abc"), "frame true": ("frame", True), "frame 1e300": ("frame", 1e300),
    "id -1": ("id", -1), "id null": ("id", None), "id 2**64": ("id", 2 ** 64),
    "class 0": ("class", 0), "class 81": ("class", 81), "class 3.5": ("class", 3.5),
    "conf 1.5": ("conf", 1.5), "conf -0.1": ("conf", -0.1), "conf nan": ("conf", math.nan),
    "conf inf": ("conf", math.inf), "conf text": ("conf", "0.9"), "conf false": ("conf", False),
    "conf word": ("conf", "high"), "conf null": ("conf", None), "frame text": ("frame", "2"),
    "frame text fraction": ("frame", "2.5"), "class text": ("class", "x1"),
    "box nan": ("box", [math.nan, 2, 30, 40]), "box -inf": ("box", [1, 2, 3, -math.inf]),
    "box string": ("box", "1234"), "box 3": ("box", [1, 2, 3]), "box 5": ("box", [1, 2, 3, 4, 5]),
    "box text coordinate": ("box", [1, "2", 3, 4]), "box bool": ("box", [1, 2, True, 4]),
    "box word": ("box", [1, 2, "x", 4]), "box object": ("box", {"x1": 1}),
    "box huge": ("box", [1, 2, 10 ** 400, 4]),
    "degenerate": ("box", [30.0, 2.0, 10.0, 40.0]), "outside": ("box", [900.0, 1.0, 950.0, 5.0]),
    "missing key": ("id", KeyError), "integral float frame": ("frame", 1.0),
}
JSON_LINES = {"bad json": "{not json", "array": "[1, 2]", "number": "7", "blank": "   ",
              "two objects": '{"a": 1} {"b": 2}',
              "trailing data": '{"frame": 1, "id": 9, "class": 1, "box": [0, 0, 1, 1], "conf": 1} 7'}
MOT_FAULTS = ["abc", "2.7", "nan", "inf", "-0.5", "0", "1e400", ""]


def json_object(line):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) and {"frame", "id"} <= set(obj) else None


@st.composite
def injected_jsonl(draw):
    resolution, frames, rows = draw(streams())
    lines = jsonl_text(resolution, frames, rows).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(1, len(lines)))
        kind = draw(st.sampled_from(["field", "line", "duplicate", "late"]))
        if kind == "line":
            lines.insert(at, JSON_LINES[draw(st.sampled_from(sorted(JSON_LINES)))])
            continue
        row = json_object(lines[at]) if at < len(lines) else None
        if row is None:
            continue
        if kind == "field":
            key, value = JSON_FAULTS[draw(st.sampled_from(sorted(JSON_FAULTS)))]
            if value is KeyError:
                del row[key]
            else:
                row[key] = value
        elif kind == "duplicate":
            other = json_object(lines[draw(st.integers(1, len(lines) - 1))])
            if other is None:
                continue
            row["frame"], row["id"] = other["frame"], other["id"]
        else:
            row["frame"] = frames + draw(st.integers(1, 3))
        lines[at] = json.dumps(row)
    return "\n".join(lines) + "\n"


@st.composite
def injected_mot(draw):
    resolution, frames, rows = draw(streams())
    lines = mot_text(resolution, frames, rows).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(1, len(lines)))
        kind = draw(st.sampled_from(["field", "short", "comment", "duplicate", "late"]))
        if kind == "comment":
            lines.insert(at, draw(st.sampled_from(["# note", "", "  "])))
            continue
        if at == len(lines) or not lines[at] or lines[at].startswith("#"):
            continue
        parts = lines[at].split(",")
        if kind == "field":
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(MOT_FAULTS))
        elif kind == "short":
            parts = parts[:draw(st.integers(1, 6))]
        elif kind == "duplicate":
            other = lines[draw(st.integers(1, len(lines) - 1))].split(",")
            if len(other) < 2:
                continue
            parts[:2] = other[:2]
        else:
            parts[0] = str(frames + draw(st.integers(1, 3)))
        lines[at] = ",".join(parts)
    return "\n".join(lines) + "\n"


chunks = st.sampled_from([1, 2, 3, 7, ingest.CHUNK_LINES])


class TestColumnarParserOracle:
    @settings(max_examples=150, deadline=None)
    @given(stream=streams(), chunk=chunks)
    def test_valid_streams_equal_row_by_row_parse(self, stream, chunk):
        for fmt, text in (("jsonl", jsonl_text(*stream)), ("mot", mot_text(*stream))):
            expected = ref_parse(text, fmt)
            same(columnar_parse(text, fmt, chunk), expected)

    @settings(max_examples=150, deadline=None)
    @given(stream=streams(), data=st.data(), chunk=chunks)
    def test_respelled_rows_parse_like_plain_ones(self, stream, data, chunk):
        text = data.draw(respelled_jsonl(stream))
        expected = ref_parse(jsonl_text(*stream), "jsonl")
        same(ref_parse(text, "jsonl"), expected)
        same(columnar_parse(text, "jsonl", chunk), expected)

    @settings(max_examples=150, deadline=None)
    @given(stream=streams())
    def test_write_parse_round_trip(self, stream):
        parsed = parse_tracks(io.StringIO(jsonl_text(*stream)))
        buffer = io.StringIO()
        write_tracks(parsed, buffer)
        buffer.seek(0)
        same(parse_tracks(buffer), parsed)

    @settings(max_examples=300, deadline=None)
    @given(text=injected_jsonl(), chunk=chunks)
    def test_first_jsonl_error_equals_row_by_row_parse(self, text, chunk):
        same(columnar_parse(text, "jsonl", chunk), ref_parse(text, "jsonl"))

    @settings(max_examples=300, deadline=None)
    @given(text=injected_mot(), chunk=chunks)
    def test_first_mot_error_equals_row_by_row_parse(self, text, chunk):
        same(columnar_parse(text, "mot", chunk), ref_parse(text, "mot"))


HEADER = '{"width": 640, "height": 360, "frames": 100}\n'
ROW = {"frame": 1, "id": 7, "class": 1, "box": [10, 20, 30, 80], "conf": 0.91}


def jsonl_row(**changes):
    return HEADER + json.dumps({**ROW, **changes}, allow_nan=True) + "\n"


def mot_rows(row):
    return "# " + HEADER + row + "\n"


class TestNonFiniteAndNonIntegralFields:
    @pytest.mark.parametrize("text, fmt, message", [
        (jsonl_row(box=[math.nan, 2, 30, 40]), "jsonl", "box (nan, 2.0, 30.0, 40.0) is not finite"),
        (mot_rows("1,1,nan,2,30,40,0.9,1"), "mot", "box (nan, 2.0, nan, 42.0) is not finite"),
        (jsonl_row(box=[1, 2, math.inf, 40]), "jsonl", "box (1.0, 2.0, inf, 40.0) is not finite"),
        (mot_rows("1,1,1,2,inf,40,0.9,1"), "mot", "box (1.0, 2.0, inf, 42.0) is not finite"),
        (jsonl_row(conf=math.inf), "jsonl", "confidence inf outside [0, 1]"),
        (mot_rows("1,1,1,2,30,40,nan,1"), "mot", "confidence nan outside [0, 1]"),
        (jsonl_row(box="1234"), "jsonl", "box must be a list of numbers, not '1234'"),
        (jsonl_row(box=[1, 2, "x", 4]), "jsonl", "box coordinate must be a number, not 'x'"),
        (jsonl_row(frame="abc"), "jsonl", "frame must be a 64-bit integer, not 'abc'"),
        (jsonl_row(frame=2.7), "jsonl", "frame must be a 64-bit integer, not 2.7"),
        (jsonl_row(frame="2.0"), "jsonl", "frame must be a 64-bit integer, not '2.0'"),
        (jsonl_row(conf="high"), "jsonl", "conf must be a number, not 'high'"),
        (mot_rows("2.7,1,1,2,30,40,0.9,1"), "mot", "frame must be a 64-bit integer, not 2.7"),
        (jsonl_row(id=True), "jsonl", "id must be a 64-bit integer, not True"),
        (mot_rows("1,1,1,2,30,40,0.9,1.5"), "mot", "class must be a 64-bit integer, not 1.5"),
        (jsonl_row(**{"class": False}), "jsonl", "class must be a 64-bit integer, not False"),
        (jsonl_row(id=2 ** 63), "jsonl", f"id must be a 64-bit integer, not {2 ** 63}"),
        (mot_rows("inf,1,1,2,30,40,0.9,1"), "mot", "frame must be a 64-bit integer, not inf"),
    ], ids=["jsonl-nan-box", "mot-nan-box", "jsonl-inf-box", "mot-inf-width", "jsonl-inf-conf",
            "mot-nan-conf", "jsonl-string-box", "jsonl-string-coordinate", "jsonl-frame-text",
            "jsonl-frame-fraction", "jsonl-frame-fraction-text", "jsonl-conf-text", "mot-frame-fraction", "jsonl-id-bool", "mot-class-fraction",
            "jsonl-class-bool", "jsonl-id-too-large", "mot-frame-inf"])
    def test_rejected_with_line_number(self, text, fmt, message):
        with pytest.raises(TrackFileError) as excinfo:
            parse_tracks(io.StringIO(text), fmt)
        assert excinfo.value.line == 2
        assert str(excinfo.value) == f"line 2: {message}"

    def test_integral_floats_accepted(self):
        ts = parse_tracks(io.StringIO(jsonl_row(frame=3.0, id=7.0, **{"class": 1.0})))
        mot = parse_tracks(io.StringIO(mot_rows("3.0,7,10,20,20,60,0.91,1.0")), "mot")
        assert ts.detections == mot.detections == (
            TrackedDetection(3, 7, 1, (10.0, 20.0, 30.0, 80.0), 0.91),)
        assert type(ts.detections[0].frame_index) is int

    def test_numeric_strings_accepted(self):
        ts = parse_tracks(io.StringIO(jsonl_row(frame="3", id="7", conf="0.91",
                                                box=["10", 20, "30.0", 80], **{"class": "1"})))
        assert ts.detections == (TrackedDetection(3, 7, 1, (10.0, 20.0, 30.0, 80.0), 0.91),)

    @pytest.mark.parametrize("chunk", [1, 2, ingest.CHUNK_LINES])
    def test_line_numbers_count_blank_and_indented_lines(self, chunk):
        text = (HEADER + "\n   \n  " + json.dumps(ROW) + "\n\n"
                + json.dumps({**ROW, "frame": 0}) + "\n")
        assert columnar_parse(text, "jsonl", chunk) == (
            "line 6: frame index 0 must be >= 1", 6)

    def test_text_frame_is_runtime_error_with_line(self, tmp_path, capsys):
        tracks = tmp_path / "tracks.jsonl"
        tracks.write_text(jsonl_row(frame="abc"))
        assert cli.main(["train", "--tracks", str(tracks), "--out",
                         str(tmp_path / "m.bundle")]) == 1
        assert "line 2: frame must be a 64-bit integer" in capsys.readouterr().err


class TestDetectionsView:
    def tracks(self):
        return parse_tracks(io.StringIO(
            HEADER + "".join(json.dumps({**ROW, "frame": f, "box": [-0.0, 20, 700, 80]}) + "\n"
                             for f in (2, 1))))

    def test_rows_hold_python_values(self):
        first = self.tracks().detections[0]
        assert first == TrackedDetection(1, 7, 1, (0.0, 20.0, 640.0, 80.0), 0.91)
        assert [type(v) for v in (first.frame_index, first.track_id, first.class_id,
                                  first.confidence, *first.box)] == [int] * 3 + [float] * 5
        assert math.copysign(1.0, first.box[0]) == 1.0

    def test_sequence_protocol(self):
        dets = self.tracks().detections
        assert len(dets) == 2 and dets and not Detections.from_rows(())
        assert dets == tuple(dets) and tuple(dets) == dets
        assert dets[-1].frame_index == 2 and list(dets)[1] == dets[1]
        assert dets[1:] == (dets[1],)
        assert dets != tuple(dets)[:1] and dets == list(dets) and list(dets) == dets
        with pytest.raises(IndexError):
            dets[2]

    def test_columns_are_read_only(self):
        ts = self.tracks()
        assert ts.detections.frame.tolist() == [1, 2]
        with pytest.raises(ValueError):
            ts.detections.box[0, 0] = 5.0
        with pytest.raises(AttributeError):
            ts.detections.frame = np.zeros(2, np.int64)

    def test_copy_and_pickle_keep_columns(self):
        ts = self.tracks()
        for copied in (copy.deepcopy(ts), pickle.loads(pickle.dumps(ts))):
            assert copied == ts and not copied.detections.box.flags.writeable

    def test_track_set_keeps_rows_as_columns(self):
        ts = self.tracks()
        again = TrackSet(ts.resolution, ts.frame_count, tuple(ts.detections))
        assert isinstance(again.detections, Detections) and again == ts
        assert dataclasses.replace(ts, detections=tuple(ts.detections)[:1]).detections == \
            (ts.detections[0],)


class TestNoRowObjects:
    """The train and score paths work on columns and build no TrackedDetection."""

    def test_train_and_score_build_no_detection_objects(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert cli.main(["synth", "--preset", "reference", "--seed", "3",
                         "--out-dir", str(data)]) == 0
        built = []

        class Counting(TrackedDetection):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(ingest, "TrackedDetection", Counting)
        tracks = parse_tracks(data / "train_tracks.jsonl")
        thresholds = compute_confidence_thresholds(tracks)
        prepared = slice_frames(filter_detections(tracks, thresholds), 3)
        model = fit_discretizer(prepared)
        stream_columns(prepared.detections, "spatiotemporal")
        generate_observations(prepared, build_grid(prepared.resolution, 40), model)
        bundle = train(TrainConfig(cell_sizes=(40, 80)), prepared, thresholds)
        score_frames(bundle, filter_detections(parse_tracks(data / "test_tracks.jsonl"),
                                               thresholds))
        assert cli.main(["train", "--tracks", str(data / "train_tracks.jsonl"),
                         "--slice", "3", "--out", str(tmp_path / "m.bundle")]) == 0
        assert cli.main(["score", "--model", str(tmp_path / "m.bundle"),
                         "--tracks", str(data / "test_tracks.jsonl"),
                         "--out", str(tmp_path / "scores.jsonl")]) == 0
        assert built == []
        tracks.detections[0]
        assert len(built) == 1
