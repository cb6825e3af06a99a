"""The columnar ScoreTable and its writer against the per-object objects and json.dumps."""
import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridvad import cli, pipeline
from gridvad.ingest import TrackSet, TrackedDetection, filter_detections, parse_tracks
from gridvad.pipeline import (
    REASONS,
    CellColumns,
    CellScore,
    FrameScores,
    ScoredObject,
    ScoreTable,
    TrainConfig,
    score_frames,
    score_object,
    train,
    write_scores,
)
from oracles import with_predecessors


def json_writer(path, scored, frame_scores):
    """The json.dumps-per-row writer that write_scores replaced: the byte reference."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in scored:
            fh.write(json.dumps({
                "frame": s.frame, "id": s.track_id, "class": s.class_id,
                "box": list(s.box), "score": s.fused,
                "per_granularity": {str(cs): p for cs, p in s.per_granularity.items()},
                "reason": s.reason,
            }) + "\n")
        for i in range(len(frame_scores)):
            fh.write(json.dumps({
                "frame": i + 1,
                "raw": float(frame_scores.raw[i]),
                "smoothed": float(frame_scores.smoothed[i]),
            }) + "\n")


def mini_tracks():
    rows = []
    for f in range(1, 9):
        x = 2.0 + 4.0 * (f - 1)
        rows.append(TrackedDetection(f, 0, 1, (x, 20.0, x + 18.0, 60.0), 0.9))
        rows.append(TrackedDetection(f, 1, 3, (60.0, 80.0, 110.0, 110.0), 0.9))
    rows.append(TrackedDetection(9, 2, 17, (10.0, 10.0, 30.0, 30.0), 0.9))  # unseen class
    rows.append(TrackedDetection(9, 3, 1, (60.0, 100.0, 78.0, 119.0), 0.9))  # impossible
    return TrackSet((160, 120), 10, tuple(rows))


@pytest.fixture(scope="module")
def mini_scored():
    tracks = mini_tracks()
    bundle = train(TrainConfig(cell_sizes=(40, 80)),
                   TrackSet(tracks.resolution, tracks.frame_count, tracks.detections[:16]))
    return bundle, tracks, *score_frames(bundle, tracks)


# ---------------------------------------------------------------------------
# the writer against json.dumps

# floats json.dumps and repr spell in every way: subnormals, extreme exponents,
# 17 significant digits, signed zero and integral values
SPECIAL_FLOATS = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                  -1e300, 1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 2 / 3, 1e16, 1e-5,
                  123456789012345.67, 0.30000000000000004]
finite_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))
int64s = st.one_of(st.sampled_from([0, 1, -1, 2 ** 63 - 1, -2 ** 63]),
                   st.integers(-2 ** 63, 2 ** 63 - 1))


@st.composite
def tables(draw):
    """A ScoreTable of arbitrary finite values and its FrameScores."""
    n = draw(st.integers(0, 6))
    cell_sizes = draw(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=3, unique=True))
    ints = st.lists(int64s, min_size=n, max_size=n)

    def floats(size):
        return st.lists(finite_floats, min_size=size, max_size=size)

    cells = []
    for _ in cell_sizes:
        counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        total = sum(counts)
        cells.append(CellColumns(np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]),
                                 draw(st.lists(st.integers(1, 500), min_size=total,
                                               max_size=total)),
                                 draw(floats(total)),
                                 draw(st.lists(st.booleans(), min_size=total,
                                               max_size=total))))
    table = ScoreTable(
        draw(ints), draw(ints), draw(ints), np.array(draw(floats(4 * n))).reshape(n, 4),
        draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)),
        draw(st.lists(st.integers(-1, 50), min_size=n, max_size=n)),
        cell_sizes, np.array(draw(floats(n * len(cell_sizes)))).reshape(n, len(cell_sizes)),
        draw(floats(n)),
        draw(st.lists(st.integers(0, len(REASONS) - 1), min_size=n, max_size=n)), cells)
    m = draw(st.integers(0, 5))
    return table, FrameScores(np.array(draw(floats(m))), np.array(draw(floats(m))))


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_bytes_equal_json_dumps(self, tmp_path_factory, drawn):
        table, frames = drawn
        out = tmp_path_factory.mktemp("scores")
        write_scores(out / "table.jsonl", table, frames)
        json_writer(out / "reference.jsonl", table, frames)
        assert (out / "table.jsonl").read_bytes() == (out / "reference.jsonl").read_bytes()

    def test_every_reason_written(self, mini_scored, tmp_path):
        _bundle, _tracks, scored, frames = mini_scored
        assert {s.reason for s in scored} == set(REASONS)
        write_scores(tmp_path / "a.jsonl", scored, frames)
        json_writer(tmp_path / "b.jsonl", scored, frames)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    @pytest.mark.parametrize("column, row, where", [
        ("fused", 3, "object 1 in frame 2"), ("box", 0, "object 0 in frame 1"),
        ("per_granularity", 17, "object 3 in frame 9"), ("raw", 4, "frame 5"),
        ("smoothed", 9, "frame 10")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_names_object_or_frame(self, mini_scored, tmp_path, column,
                                                    row, where, value):
        _bundle, _tracks, scored, frames = mini_scored
        columns = dict(zip(ScoreTable.__slots__, scored.columns()))
        series = {"raw": frames.raw.copy(), "smoothed": frames.smoothed.copy()}
        if column in series:
            series[column][row] = value
        else:
            columns[column] = columns[column].copy()
            columns[column][row] = value
        path = tmp_path / "scores.jsonl"
        with pytest.raises(ValueError, match=f"^{where} has a non-finite"):
            write_scores(path, ScoreTable(**columns), FrameScores(**series))
        assert not path.exists()

    def test_scored_streams_hold_no_non_finite_value(self, reference_run, mini_scored,
                                                     tmp_path):
        """Parse rejects non-finite boxes and every posterior is normalized or flagged
        impossible, so the writer's check never fires on a scored stream."""
        for scored, frames in ((reference_run["scored"], reference_run["frames"]),
                               mini_scored[2:]):
            for column in (scored.box, scored.per_granularity, scored.fused, frames.raw,
                           frames.smoothed, *(c.probability for c in scored.cells)):
                assert np.isfinite(column).all()
            write_scores(tmp_path / "scores.jsonl", scored, frames)


# ---------------------------------------------------------------------------
# the table as a sequence of ScoredObject


class TestScoreTable:
    def test_rows_equal_score_object(self, mini_scored):
        bundle, tracks, scored, _frames = mini_scored
        alone = [score_object(bundle, *job) for job in with_predecessors(tracks.detections)]
        assert list(scored) == alone and scored == alone and alone == scored
        assert scored == tuple(alone) and scored[-1] == alone[-1]
        assert scored[2:5] == alone[2:5] and scored[::-3] == alone[::-3]

    def test_sequence_protocol(self, mini_scored):
        _bundle, tracks, scored, _frames = mini_scored
        assert len(scored) == len(tracks.detections) and scored
        assert not score_frames(mini_scored[0], TrackSet((160, 120), 2, ()))[0]
        assert scored[0] in scored and scored.index(scored[3]) == 3
        assert scored.reason_count(None) == 16
        assert scored.reason_count(pipeline.REASON_UNSEEN_CLASS) == 1
        assert scored.reason_count(pipeline.REASON_IMPOSSIBLE) == 1
        assert scored != list(scored)[:-1] and scored != "scores"
        with pytest.raises(IndexError):
            scored[len(scored)]

    def test_equal_tables_and_a_changed_column(self, mini_scored):
        bundle, tracks, scored, _frames = mini_scored
        assert scored == score_frames(bundle, tracks)[0]
        columns = dict(zip(ScoreTable.__slots__, scored.columns()))
        fused = columns["fused"].copy()
        fused[0] = 0.5
        assert ScoreTable(**dict(columns, fused=fused)) != scored
        cells = list(columns["cells"])
        cells[1] = cells[1]._replace(cell=cells[1].cell + 1)
        assert ScoreTable(**dict(columns, cells=cells)) != scored

    def test_columns_are_read_only(self, mini_scored):
        scored = mini_scored[2]
        with pytest.raises(ValueError):
            scored.fused[0] = 1.0
        with pytest.raises(ValueError):
            scored.cells[0].probability[0] = 1.0
        with pytest.raises(AttributeError):
            scored.fused = np.zeros(len(scored))

    def test_columns_of_different_lengths_rejected(self, mini_scored):
        columns = dict(zip(ScoreTable.__slots__, mini_scored[2].columns()))
        with pytest.raises(ValueError, match="different lengths"):
            ScoreTable(**dict(columns, fused=columns["fused"][1:]))
        with pytest.raises(ValueError, match="distinct cell size"):
            ScoreTable(**dict(columns, cell_sizes=(40, 40)))

    def test_copy_and_pickle_keep_columns(self, mini_scored):
        scored = mini_scored[2]
        for copied in (copy.copy(scored), copy.deepcopy(scored),
                       pickle.loads(pickle.dumps(scored))):
            assert copied == scored and list(copied) == list(scored)
            assert not copied.per_granularity.flags.writeable


class TestNoResultObjects:
    """The score path works on columns and builds no ScoredObject or CellScore."""

    def test_score_and_write_build_no_result_objects(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert cli.main(["synth", "--preset", "reference", "--seed", "3",
                         "--out-dir", str(data)]) == 0
        assert cli.main(["train", "--tracks", str(data / "train_tracks.jsonl"),
                         "--slice", "3", "--out", str(tmp_path / "m.bundle")]) == 0
        built = []

        class CountingObject(ScoredObject):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        class CountingCell(CellScore):
            def __new__(cls, *args):
                built.append(args)
                return super().__new__(cls, *args)

        monkeypatch.setattr(pipeline, "ScoredObject", CountingObject)
        monkeypatch.setattr(pipeline, "CellScore", CountingCell)
        bundle = pipeline.load_bundle(tmp_path / "m.bundle")
        scored, frames = score_frames(bundle, filter_detections(
            parse_tracks(data / "test_tracks.jsonl"), bundle.thresholds))
        write_scores(tmp_path / "direct.jsonl", scored, frames)
        assert cli.main(["score", "--model", str(tmp_path / "m.bundle"),
                         "--tracks", str(data / "test_tracks.jsonl"),
                         "--out", str(tmp_path / "scores.jsonl")]) == 0
        assert built == [] and len(scored) > 1000
        first = scored[0]
        assert len(built) == 1 + sum(len(c) for c in first.per_cell.values()) > 1
