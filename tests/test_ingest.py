import io
import json
import math

import numpy as np
import pytest

from gridvad.ingest import (
    ConfidenceThresholds,
    GroundTruth,
    GtRegion,
    TrackFileError,
    TrackSet,
    TrackedDetection,
    compute_confidence_thresholds,
    filter_detections,
    parse_ground_truth,
    parse_tracks,
    slice_frames,
    write_ground_truth,
    write_tracks,
)

HEADER = {"width": 640, "height": 360, "frames": 100}


def jsonl(*rows) -> io.StringIO:
    lines = [json.dumps(HEADER)]
    lines.extend(json.dumps(r) for r in rows)
    return io.StringIO("\n".join(lines) + "\n")


def det(frame=1, tid=7, cls=1, box=(10, 20, 30, 80), conf=0.91):
    return {"frame": frame, "id": tid, "class": cls, "box": list(box), "conf": conf}


class TestParseTracks:
    def test_single_row_maps_fields(self):
        ts = parse_tracks(jsonl(det()))
        assert ts.resolution == (640, 360)
        assert ts.frame_count == 100
        assert ts.detections == (TrackedDetection(1, 7, 1, (10.0, 20.0, 30.0, 80.0), 0.91),)

    def test_empty_stream_with_header(self):
        ts = parse_tracks(jsonl())
        assert ts.detections == ()
        assert ts.resolution == (640, 360)

    def test_duplicate_frame_track_rejected(self):
        with pytest.raises(TrackFileError, match="frame 3"):
            parse_tracks(jsonl(det(frame=3, tid=5), det(frame=3, tid=5, box=(0, 0, 5, 5))))

    @pytest.mark.parametrize("frames, message", [
        ((1, 200, 1), "frame index 200 exceeds declared frame count 100"),
        ((1, 1, 200), "duplicate track 7 in frame 1"),
    ])
    def test_duplicate_and_late_frame_fail_in_file_order(self, frames, message):
        rows = [det(frame=f, tid=7 if f == 1 else 8) for f in frames]
        with pytest.raises(TrackFileError) as excinfo:
            parse_tracks(jsonl(*rows))
        assert str(excinfo.value) == message

    def test_malformed_row_carries_line_number(self):
        stream = io.StringIO(json.dumps(HEADER) + "\n{not json\n")
        with pytest.raises(TrackFileError, match="line 2"):
            parse_tracks(stream)

    def test_degenerate_box_rejected(self):
        with pytest.raises(TrackFileError, match="degenerate"):
            parse_tracks(jsonl(det(box=(30, 20, 10, 80))))
        with pytest.raises(TrackFileError, match="degenerate"):
            parse_tracks(jsonl(det(box=(10, 80, 30, 80))))

    def test_class_id_range_enforced(self):
        with pytest.raises(TrackFileError, match="class id"):
            parse_tracks(jsonl(det(cls=81)))
        with pytest.raises(TrackFileError, match="class id"):
            parse_tracks(jsonl(det(cls=0)))

    def test_confidence_range_enforced(self):
        with pytest.raises(TrackFileError, match="confidence"):
            parse_tracks(jsonl(det(conf=1.2)))

    def test_frame_beyond_declared_count(self):
        with pytest.raises(TrackFileError, match="frame count"):
            parse_tracks(jsonl(det(frame=101)))

    def test_border_boxes_clamped(self):
        ts = parse_tracks(jsonl(det(box=(-5, -3, 30, 80))))
        assert ts.detections[0].box == (0.0, 0.0, 30.0, 80.0)
        ts = parse_tracks(jsonl(det(box=(600, 300, 700, 400))))
        assert ts.detections[0].box == (600.0, 300.0, 640.0, 360.0)

    def test_box_outside_frame_rejected(self):
        with pytest.raises(TrackFileError, match="does not intersect"):
            parse_tracks(jsonl(det(box=(700, 20, 720, 80))))

    def test_rows_sorted_by_frame_then_track(self):
        ts = parse_tracks(jsonl(det(frame=5, tid=2), det(frame=1, tid=9),
                                det(frame=5, tid=1)))
        assert [(d.frame_index, d.track_id) for d in ts.detections] == \
            [(1, 9), (5, 1), (5, 2)]

    def test_missing_header(self):
        with pytest.raises(TrackFileError, match="header"):
            parse_tracks(io.StringIO(""))

    @pytest.mark.parametrize("header, outcome", [
        ({"width": 640.0, "height": "360", "frames": 100}, ((640, 360), 100)),
        ({"width": 640, "height": 360, "frames": "1e2"}, "frames must be a 64-bit integer"),
        ({"width": 640.9, "height": "360", "frames": True}, "width must be a 64-bit integer"),
        ({"width": 640, "height": 360, "frames": True}, "frames must be a 64-bit integer"),
        ({"width": 640, "height": 360}, "must declare integer width, height and frames"),
        ([640, 360, 100], "must declare integer width, height and frames"),
        ({"width": 640, "height": 0, "frames": 100}, "must be positive"),
    ], ids=["integral-float-and-string", "float-string", "fraction", "bool", "missing-field",
            "not-object", "zero"])
    def test_header_fields_follow_the_row_integer_rule(self, header, outcome):
        for text in (json.dumps(header), "# " + json.dumps(header)):
            stream = io.StringIO(text + "\n")
            fmt = "mot" if text.startswith("#") else "jsonl"
            if isinstance(outcome, tuple):
                ts = parse_tracks(stream, fmt)
                assert (ts.resolution, ts.frame_count) == outcome
                assert all(type(v) is int for v in (*ts.resolution, ts.frame_count))
                continue
            with pytest.raises(TrackFileError, match=outcome) as excinfo:
                parse_tracks(stream, fmt)
            assert excinfo.value.line == 1


class TestParseMot:
    def test_rows_with_json_header_comment(self):
        text = ('# {"width": 640, "height": 360, "frames": 10}\n'
                "1,7,10,20,20,60,0.91,1\n"
                "2,7,12,20,20,60,0.88\n")
        ts = parse_tracks(io.StringIO(text), format="mot")
        assert ts.detections[0].box == (10.0, 20.0, 30.0, 80.0)
        assert ts.detections[0].class_id == 1
        assert ts.detections[1].confidence == 0.88

    def test_header_required(self):
        with pytest.raises(TrackFileError, match="MOT input needs"):
            parse_tracks(io.StringIO("1,7,10,20,20,60,0.91\n"), format="mot")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown track format"):
            parse_tracks(io.StringIO(""), format="csv")


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        ts = parse_tracks(jsonl(det(), det(frame=2, tid=7, box=(12, 20, 32, 80), conf=0.5)))
        buffer = io.StringIO()
        write_tracks(ts, buffer)
        buffer.seek(0)
        assert parse_tracks(buffer) == ts

    def test_random_round_trip(self):
        rng = np.random.default_rng(1)
        detections = []
        for i in range(200):
            x1 = float(rng.uniform(0, 600))
            y1 = float(rng.uniform(0, 300))
            detections.append(TrackedDetection(
                int(rng.integers(1, 100)), i, int(rng.integers(1, 81)),
                (x1, y1, x1 + float(rng.uniform(1, 40)), y1 + float(rng.uniform(1, 60))),
                float(rng.uniform(0, 1))))
        detections.sort(key=lambda d: (d.frame_index, d.track_id))
        ts = TrackSet((640, 360), 100, tuple(detections))
        buffer = io.StringIO()
        write_tracks(ts, buffer)
        buffer.seek(0)
        assert parse_tracks(buffer) == ts

    def test_ground_truth_round_trip(self):
        stream = io.StringIO('{"frame": 2, "gt_id": 0, "box": [1, 2, 3, 4]}\n')
        gt = parse_ground_truth(stream)
        assert gt.regions[0].frame == 2
        buffer = io.StringIO()
        write_ground_truth(gt, buffer)
        buffer.seek(0)
        assert parse_ground_truth(buffer) == gt


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestWritersRefuseNonFinite:
    """JSON cannot hold NaN or infinity and the readers refuse them, so the writers do."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["x1", "y1", "x2", "y2", "conf"])
    def test_track_box_or_confidence(self, tmp_path, field, value):
        box = [10.0, 20.0, 30.0, 80.0]
        conf = value if field == "conf" else 0.5
        if field != "conf":
            box[("x1", "y1", "x2", "y2").index(field)] = value
        ts = TrackSet((640, 360), 100, (TrackedDetection(1, 3, 1, (1.0, 2.0, 3.0, 4.0), 0.9),
                                        TrackedDetection(2, 7, 1, tuple(box), conf)))
        path = tmp_path / "tracks.jsonl"
        with pytest.raises(ValueError, match="detection of track 7 in frame 2 has a non-finite"):
            write_tracks(ts, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("coordinate", range(4))
    def test_ground_truth_box(self, tmp_path, coordinate, value):
        box = [1.0, 2.0, 3.0, 4.0]
        box[coordinate] = value
        gt = GroundTruth((GtRegion(1, 0, (1.0, 2.0, 3.0, 4.0)), GtRegion(5, 2, tuple(box))))
        path = tmp_path / "gt.jsonl"
        with pytest.raises(ValueError, match="ground-truth region 2 in frame 5 has a non-finite"):
            write_ground_truth(gt, path)
        assert not path.exists()

    def test_no_regions(self):
        buffer = io.StringIO()
        write_ground_truth(GroundTruth(()), buffer)
        assert buffer.getvalue() == ""



def gt_text(*rows: str) -> io.StringIO:
    """Ground-truth lines after one good row, so a bad row sits on line 2."""
    return io.StringIO("\n".join(['{"frame": 1, "gt_id": 0, "box": [1, 2, 3, 4]}', *rows])
                       + "\n")


class TestGroundTruthRows:
    """Ground-truth fields are read by the track rules and fail with their line."""

    def test_fractional_frame_rejected(self):
        with pytest.raises(TrackFileError, match="line 2: frame must be a 64-bit integer"):
            parse_ground_truth(gt_text('{"frame": 2.7, "gt_id": 0, "box": [1, 2, 3, 4]}'))

    def test_boolean_gt_id_rejected(self):
        with pytest.raises(TrackFileError, match="line 2: gt_id must be a 64-bit integer"):
            parse_ground_truth(gt_text('{"frame": 3, "gt_id": true, "box": [1, 2, 3, 4]}'))

    def test_string_box_rejected(self):
        with pytest.raises(TrackFileError, match="line 2: box must be a list of numbers"):
            parse_ground_truth(gt_text('{"frame": 3, "gt_id": 1, "box": "1234"}'))

    def test_nan_coordinate_rejected(self):
        with pytest.raises(TrackFileError, match="line 2: .* is not finite"):
            parse_ground_truth(gt_text('{"frame": 2, "gt_id": 0, "box": [NaN, 2, 3, 4]}'))

    def test_infinite_coordinate_rejected(self):
        with pytest.raises(TrackFileError, match="line 2: .* is not finite"):
            parse_ground_truth(gt_text('{"frame": 2, "gt_id": 0, "box": [1, 2, Infinity, 4]}'))

    def test_non_numeric_coordinate_rejected(self):
        with pytest.raises(TrackFileError, match="line 2: box coordinate must be a number"):
            parse_ground_truth(gt_text('{"frame": 2, "gt_id": 0, "box": [1, 2, "x", 4]}'))

    def test_wrong_coordinate_count_rejected(self):
        with pytest.raises(TrackFileError, match="line 2: box must have 4 coordinates"):
            parse_ground_truth(gt_text('{"frame": 2, "gt_id": 0, "box": [1, 2, 3]}'))

    def test_integral_floats_and_numeric_strings_read(self):
        gt = parse_ground_truth(gt_text('{"frame": 3.0, "gt_id": "7", "box": ["1.5", 2, 3, 4]}'))
        assert gt.regions[1] == GtRegion(3, 7, (1.5, 2.0, 3.0, 4.0))
        assert type(gt.regions[1].frame) is int and type(gt.regions[1].gt_id) is int


def tracks_with_confidences(person: list[float], other: list[float]) -> TrackSet:
    detections = []
    frame = 1
    for conf in person:
        detections.append(TrackedDetection(frame, 1, 1, (0, 0, 10, 10), conf))
        frame += 1
    for conf in other:
        detections.append(TrackedDetection(frame, 2, 3, (0, 0, 10, 10), conf))
        frame += 1
    return TrackSet((640, 360), frame, tuple(detections))


class TestConfidenceThresholds:
    def test_zero_variance(self):
        ts = tracks_with_confidences([0.9, 0.9, 0.9], [])
        thr = compute_confidence_thresholds(ts)
        assert thr.person_threshold == pytest.approx(0.9)
        assert thr.other_threshold == 0.0

    def test_hand_computed_sigma(self):
        # mean 0.7, population sigma sqrt(0.08 / 3), threshold = mean - 2 sigma
        ts = tracks_with_confidences([0.5, 0.7, 0.9], [])
        thr = compute_confidence_thresholds(ts)
        expected = 0.7 - 2.0 * math.sqrt(0.08 / 3.0)
        assert thr.person_threshold == pytest.approx(expected, abs=1e-12)
        assert thr.person_threshold == pytest.approx(0.3734, abs=5e-4)

    def test_clamped_at_zero(self):
        ts = tracks_with_confidences([0.05, 0.9], [])
        assert compute_confidence_thresholds(ts).person_threshold == 0.0

    def test_threshold_shift_consistency(self):
        rng = np.random.default_rng(2)
        base = list(rng.uniform(0.3, 0.6, size=40))
        shift = 0.2
        t0 = compute_confidence_thresholds(tracks_with_confidences(base, []))
        t1 = compute_confidence_thresholds(
            tracks_with_confidences([c + shift for c in base], []))
        assert t1.person_threshold == pytest.approx(t0.person_threshold + shift, abs=1e-12)


class TestFilter:
    def test_below_threshold_dropped(self):
        ts = tracks_with_confidences([0.37], [])
        out = filter_detections(ts, ConfidenceThresholds(0.3735, 0.0))
        assert out.detections == ()

    def test_zero_thresholds_identity(self):
        ts = tracks_with_confidences([0.1, 0.9], [0.2])
        assert filter_detections(ts, ConfidenceThresholds(0.0, 0.0)) == ts

    def test_boundary_kept(self):
        ts = tracks_with_confidences([0.5], [])
        out = filter_detections(ts, ConfidenceThresholds(0.5, 0.0))
        assert len(out.detections) == 1

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        ts = tracks_with_confidences(list(rng.uniform(0, 1, 50)),
                                     list(rng.uniform(0, 1, 50)))
        thr = compute_confidence_thresholds(ts)
        once = filter_detections(ts, thr)
        assert filter_detections(once, thr) == once


def tracks_on_frames(frames: range | list[int]) -> TrackSet:
    dets = tuple(TrackedDetection(f, 0, 1, (0, 0, 10, 10), 0.9) for f in frames)
    return TrackSet((640, 360), max(frames), dets)


class TestSlice:
    def test_factor_one_identity(self):
        ts = tracks_on_frames(range(1, 11))
        assert slice_frames(ts, 1) == ts

    def test_modular_rule(self):
        ts = tracks_on_frames(range(1, 11))
        out = slice_frames(ts, 5)
        assert [d.frame_index for d in out.detections] == [1, 6]

    def test_avenue_scale_count(self):
        # 15328 frames sliced by 3 keep ceil(15328 / 3) = 5110 frames
        ts = tracks_on_frames(range(1, 15329))
        assert len(slice_frames(ts, 3).detections) == 5110

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            slice_frames(tracks_on_frames([1]), 0)

    def test_composition_matches_lcm(self):
        rng = np.random.default_rng(4)
        ts = tracks_on_frames(range(1, 200))
        for _ in range(25):
            a, b = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            twice = slice_frames(slice_frames(ts, a), b)
            assert twice == slice_frames(ts, math.lcm(a, b))
            if math.gcd(a, b) == 1:
                assert twice == slice_frames(ts, a * b)
