import json
from dataclasses import replace

import numpy as np
import pytest

from gridvad import bn, pipeline
from gridvad.featurize import BOX_MODES, box_center, generate_observations
from gridvad.ingest import (ConfidenceThresholds, TrackFileError, TrackSet, TrackedDetection,
                            filter_detections)
from gridvad.pipeline import (
    REASON_IMPOSSIBLE,
    REASON_UNSEEN_CLASS,
    FrameScores,
    TrainConfig,
    bundle_to_dict,
    fuse,
    gaussian_smooth,
    load_bundle,
    object_evidence,
    observation_columns,
    read_scores,
    save_bundle,
    score_frames,
    score_object,
    train,
    write_scores,
)
from oracles import with_predecessors


def mini_tracks():
    """One person track walking east plus one parked car, tiny frame."""
    rows = []
    for f in range(1, 9):
        x = 2.0 + 4.0 * (f - 1)
        rows.append(TrackedDetection(f, 0, 1, (x, 20.0, x + 18.0, 60.0), 0.9))
        rows.append(TrackedDetection(f, 1, 3, (60.0, 80.0, 110.0, 110.0), 0.9))
    rows.sort(key=lambda d: (d.frame_index, d.track_id))
    return TrackSet((160, 120), 10, tuple(rows))


@pytest.fixture(scope="module")
def mini_bundle():
    return train(TrainConfig(cell_sizes=(40,)), mini_tracks())


class TestTrainConfig:
    def test_requires_cell_sizes(self):
        with pytest.raises(ValueError):
            TrainConfig(cell_sizes=())

    def test_validates_kind_and_fusion(self):
        with pytest.raises(ValueError):
            TrainConfig(cell_sizes=(40,), kind="nope")
        with pytest.raises(ValueError):
            TrainConfig(cell_sizes=(40,), fusion="median")


class TestTrain:
    def test_empty_tracks_rejected(self):
        with pytest.raises(bn.FitError):
            train(TrainConfig(cell_sizes=(40,)), TrackSet((160, 120), 10, ()))

    def test_granularities_sorted_and_deduplicated(self):
        bundle = train(TrainConfig(cell_sizes=(80, 40, 80)), mini_tracks())
        assert bundle.cell_sizes == (40, 80)

    def test_single_granularity_fusion_identity(self, mini_bundle):
        det = mini_tracks().detections[0]
        scored = score_object(mini_bundle, det)
        assert scored.fused == scored.per_granularity[40]

    def test_class_ids_recorded(self, mini_bundle):
        assert mini_bundle.class_ids == (1, 3)

    def test_timings_hook(self):
        timings = {}
        train(TrainConfig(cell_sizes=(40, 80)), mini_tracks(), timings=timings)
        assert set(timings["fit_seconds"]) == {"40", "80"}
        assert all(v >= 0 for v in timings["fit_seconds"].values())


class TestFusion:
    def test_mean(self):
        assert fuse([0.3, 0.5], "mean") == pytest.approx(0.4)

    def test_mean_adds_left_to_right(self):
        # as score_frames adds; sum() is compensated from Python 3.12
        assert fuse([0.1, 0.2, 0.3], "mean") == ((0.1 + 0.2) + 0.3) / 3

    def test_min(self):
        assert fuse([0.3, 0.5], "min") == 0.3

    def test_idempotence(self):
        for rule in ("mean", "min"):
            assert fuse([0.7, 0.7, 0.7], rule) == pytest.approx(0.7)

    def test_mean_of_cells_and_fusion_monotonicity(self):
        # lowering any per-cell probability never raises the fused score
        rng = np.random.default_rng(22)
        for rule in ("mean", "min"):
            for _ in range(200):
                cells = [list(rng.random(int(rng.integers(1, 4))))
                         for _ in range(int(rng.integers(1, 4)))]
                fused = fuse([sum(c) / len(c) for c in cells], rule)
                g = int(rng.integers(len(cells)))
                i = int(rng.integers(len(cells[g])))
                cells[g][i] *= rng.random()
                lowered = fuse([sum(c) / len(c) for c in cells], rule)
                assert lowered <= fused + 1e-12


class TestScoreObject:
    def test_unseen_class_scores_zero(self, mini_bundle):
        det = TrackedDetection(1, 9, 17, (2.0, 20.0, 20.0, 60.0), 0.9)
        scored = score_object(mini_bundle, det)
        assert scored.fused == 0.0
        assert scored.reason == REASON_UNSEEN_CLASS
        assert scored.per_granularity == {40: 0.0}

    def test_impossible_evidence_scores_zero(self, mini_bundle):
        # a person bottom edge in a row never observed during training
        det = TrackedDetection(1, 9, 1, (60.0, 100.0, 78.0, 119.0), 0.9)
        scored = score_object(mini_bundle, det)
        assert scored.fused == 0.0
        assert scored.reason == REASON_IMPOSSIBLE

    def test_typical_object_scores_high(self, mini_bundle):
        det = TrackedDetection(2, 9, 1, (6.0, 20.0, 24.0, 60.0), 0.9)
        scored = score_object(mini_bundle, det, prev_center=(11.0, 40.0), frame_gap=1)
        assert scored.fused > 0.9
        assert scored.reason is None

    def test_per_cell_trace_present(self, mini_bundle):
        det = mini_tracks().detections[1]
        scored = score_object(mini_bundle, det)
        cells = scored.per_cell[40]
        assert len(cells) >= 1
        assert scored.per_granularity[40] == pytest.approx(
            sum(c.probability for c in cells) / len(cells))


class TestSharedPosteriors:
    def test_each_distinct_evidence_queried_once(self, monkeypatch):
        bundle = train(TrainConfig(cell_sizes=(40, 80)), mini_tracks())
        calls = []
        query = pipeline.bn.class_cpt_query

        def counting(net, evidence):
            calls.append(evidence)
            return query(net, evidence)

        monkeypatch.setattr(pipeline.bn, "class_cpt_query", counting)
        test = mini_tracks()
        scored, _ = score_frames(bundle, test)
        keys = {(gran.grid.cell_size, tuple(sorted(evidence.items())))
                for det, prev_center, gap in with_predecessors(test.detections)
                for gran in bundle.granularities
                for _cell, evidence, _labels in object_evidence(
                    bundle, gran, det.class_id, det.box, prev_center, gap)}
        cells = sum(len(cs) for s in scored for cs in s.per_cell.values())
        assert len(calls) == len(keys) < cells

    def test_granularities_with_equal_evidence_keep_their_own_posteriors(self):
        # a person and a car of equal size, both in the top-left 80 px cell but
        # in different 40 px cells: the person's cell-1 evidence codes are the
        # same at both cell sizes while the two networks disagree about them
        rows = []
        for f in range(1, 5):
            rows.append(TrackedDetection(f, 0, 1, (0.0, 30.0, 10.0, 40.0), 0.9))
            rows.append(TrackedDetection(f, 1, 3, (50.0, 30.0, 60.0, 40.0), 0.9))
        test = TrackSet((160, 160), 4, tuple(rows))
        bundle = train(TrainConfig(cell_sizes=(40, 80)), test)
        scored, _ = score_frames(bundle, test)
        for s, (det, prev_center, gap) in zip(scored, with_predecessors(test.detections)):
            for gran in bundle.granularities:
                expected = []
                for cell, evidence, _labels in object_evidence(
                        bundle, gran, det.class_id, det.box, prev_center, gap):
                    posterior = bn.class_cpt_query(gran.net, evidence)
                    expected.append(0.0 if posterior.impossible else float(
                        posterior.values[bundle.class_index(det.class_id)]))
                assert [c.probability for c in s.per_cell[gran.grid.cell_size]] == expected
        assert scored[0].per_granularity[40] != scored[0].per_granularity[80]

    def test_stream_scores_equal_per_object_scores(self, reference_run):
        """Sharing posteriors across a stream changes no score, bit for bit."""
        bundle = reference_run["bundle"]
        test = filter_detections(reference_run["test_tracks"], reference_run["thresholds"])
        alone = [score_object(bundle, *job) for job in with_predecessors(test.detections)]
        shared = reference_run["scored"]
        assert len(shared) == len(alone)
        for s, a in zip(shared, alone):
            assert s == a  # every field: scores, per-cell trace, ids, box, predecessor
        assert shared == alone and [shared[i] for i in range(len(shared))] == alone

    def test_wide_whole_box_mean_adds_cells_left_to_right(self):
        """A 16-cell object whose per-cell mean depends on the summation order."""
        bundle = train(TrainConfig(cell_sizes=(20,), box_mode="whole"), mini_tracks())
        gran = bundle.granularities[0]
        # random positive CPTs make every cell's class posterior possible and distinct
        rng = np.random.default_rng(0)
        cpts = []
        for cpt in gran.net.cpts:
            table = rng.random(cpt.table.shape) + 0.05
            cpts.append(replace(cpt, table=table / table.sum(axis=1, keepdims=True)))
        net = bn.BayesNet(gran.net.dag, tuple(cpts))
        bundle = replace(bundle, granularities=(replace(gran, net=net),))
        det = TrackedDetection(1, 5, 3, (0.0, 0.0, 160.0, 40.0), 0.9)
        alone = score_object(bundle, det)
        probabilities = [c.probability for c in alone.per_cell[20]]
        assert len(probabilities) == 16
        assert sum(probabilities) != np.add.reduce(np.array(probabilities))
        total = 0.0
        for probability in probabilities:
            total += probability
        assert alone.per_granularity[20] == total / len(probabilities)
        scored, _ = score_frames(bundle, TrackSet((160, 120), 1, (det,)))
        assert scored == [alone]
        # next to objects of fewer cells, before and after it in the stream
        small = [TrackedDetection(1, 4, 1, (10.0, 50.0, 30.0, 70.0), 0.9),
                 TrackedDetection(1, 6, 3, (60.0, 60.0, 110.0, 100.0), 0.9)]
        test = TrackSet((160, 120), 1, (small[0], det, small[1]))
        scored, _ = score_frames(bundle, test)
        assert scored == [score_object(bundle, d) for d in test.detections]

    def test_empty_stream(self, mini_bundle):
        timings = {}
        scored, frames = score_frames(mini_bundle, TrackSet((160, 120), 3, ()), timings)
        assert scored == []
        assert frames.raw.tolist() == [1.0, 1.0, 1.0]
        assert timings["posterior_queries"] == 0

    def test_stream_of_unseen_classes_only(self, mini_bundle):
        test = TrackSet((160, 120), 3, (
            TrackedDetection(1, 0, 9, (0.0, 0.0, 50.0, 50.0), 0.9),
            TrackedDetection(2, 0, 9, (4.0, 0.0, 54.0, 50.0), 0.9)))
        timings = {}
        scored, frames = score_frames(mini_bundle, test, timings)
        assert scored == [score_object(mini_bundle, det, prev_center, gap)
                          for det, prev_center, gap in with_predecessors(test.detections)]
        assert {s.reason for s in scored} == {REASON_UNSEEN_CLASS}
        assert frames.raw.tolist() == [0.0, 0.0, 1.0]
        assert timings["posterior_queries"] == 0


class TestObjectEvidence:
    @pytest.mark.parametrize("box_mode", BOX_MODES)
    def test_matches_training_rows(self, reference_run, box_mode):
        """Scoring queries each detection on the cells and codes training saw."""
        bundle = train(TrainConfig(cell_sizes=(40, 80), box_mode=box_mode),
                       reference_run["prepared_train"], reference_run["thresholds"])
        test = filter_detections(reference_run["test_tracks"], reference_run["thresholds"])
        test = replace(test, detections=tuple(
            d for d in test.detections if d.class_id in bundle.class_ids))
        for gran in bundle.granularities:
            expected = observation_columns(
                generate_observations(test, gran.grid, gran.discretizer,
                                      bundle.kind, box_mode), bundle.class_ids)
            rows = []
            last = {}
            for det in test.detections:
                prev = last.get(det.track_id)
                last[det.track_id] = det
                prev_center = None if prev is None else box_center(prev.box)
                gap = None if prev is None else det.frame_index - prev.frame_index
                for _cell, evidence, _labels in object_evidence(
                        bundle, gran, det.class_id, det.box, prev_center, gap):
                    rows.append(dict(evidence, C=bundle.class_index(det.class_id)))
            assert len(rows) == len(expected["G"]) > len(test.detections)
            for rv, column in expected.items():
                assert [r[rv] for r in rows] == column.tolist(), rv


class TestFrameReduction:
    def test_min_rule_and_empty_frames(self, mini_bundle):
        test = TrackSet((160, 120), 3, (
            TrackedDetection(1, 0, 1, (2.0, 20.0, 20.0, 60.0), 0.9),
            TrackedDetection(1, 1, 17, (30.0, 20.0, 48.0, 60.0), 0.9),
        ))
        scored, frames = score_frames(mini_bundle, test)
        assert frames.raw[0] == 0.0  # min over {high person score, unseen 0.0}
        assert frames.raw[1] == 1.0 and frames.raw[2] == 1.0

    def test_constant_scores_survive_smoothing(self):
        values = np.full(50, 0.37)
        smoothed = gaussian_smooth(values, 5.0)
        assert np.allclose(smoothed, 0.37, atol=1e-12)

    def test_smoothing_mass_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            raw = rng.random(int(rng.integers(2, 120)))
            smoothed = gaussian_smooth(raw, float(rng.uniform(0.5, 8)))
            assert smoothed.min() >= raw.min() - 1e-12
            assert smoothed.max() <= raw.max() + 1e-12

    def test_sigma_zero_identity(self):
        raw = np.array([0.1, 0.9, 0.4])
        assert np.array_equal(gaussian_smooth(raw, 0.0), raw)

    def test_scoring_deterministic_across_reruns(self, mini_bundle):
        test = mini_tracks()
        scored1, frames1 = score_frames(mini_bundle, test)
        scored2, frames2 = score_frames(mini_bundle, test)
        assert scored1 == scored2
        assert np.array_equal(frames1.raw, frames2.raw)
        assert np.array_equal(frames1.smoothed, frames2.smoothed)


class TestBundleSerialization:
    def test_round_trip_exact(self, mini_bundle, tmp_path):
        path = tmp_path / "model.bundle"
        save_bundle(mini_bundle, path)
        loaded = load_bundle(path)
        assert loaded.kind == mini_bundle.kind
        assert loaded.class_ids == mini_bundle.class_ids
        assert loaded.thresholds == mini_bundle.thresholds
        for a, b in zip(mini_bundle.granularities, loaded.granularities):
            assert a.grid == b.grid
            assert a.discretizer == b.discretizer
            assert a.net.dag == b.net.dag
            for ca, cb in zip(a.net.cpts, b.net.cpts):
                assert np.array_equal(ca.table, cb.table)
                assert np.array_equal(ca.observed, cb.observed)

    def test_save_load_save_byte_identical(self, mini_bundle, tmp_path):
        p1, p2 = tmp_path / "a.bundle", tmp_path / "b.bundle"
        save_bundle(mini_bundle, p1)
        save_bundle(load_bundle(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "bad.bundle"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="bundle"):
            load_bundle(path)

    def test_thresholds_travel_with_bundle(self):
        thresholds = ConfidenceThresholds(0.41, 0.37)
        bundle = train(TrainConfig(cell_sizes=(40,)), mini_tracks(), thresholds)
        assert bundle.thresholds == thresholds


class TestScoresIo:
    def test_round_trip(self, mini_bundle, tmp_path):
        scored, frames = score_frames(mini_bundle, mini_tracks())
        path = tmp_path / "scores.jsonl"
        write_scores(path, scored, frames)
        objects, frames_back = read_scores(path)
        assert len(objects) == len(scored)
        assert [o.fused for o in objects] == [s.fused for s in scored]
        assert [o.reason for o in objects] == [s.reason for s in scored]
        assert np.array_equal(frames_back.raw, frames.raw)
        assert np.array_equal(frames_back.smoothed, frames.smoothed)

    @pytest.mark.parametrize("line", [
        'not json',
        '[1, 2]',
        '{"frame": 1, "id": 0, "box": [1, 2, 3, 4], "score": 0.5, "per_granularity": {}}',
        '{"frame": 1, "id": 0, "class": 1, "box": [1, 2, 3], "score": 0.5, '
        '"per_granularity": {}}',
        '{"frame": 1, "id": 0, "class": 1, "box": [1, 2, 3, 4], "score": "low", '
        '"per_granularity": {}}',
        '{"frame": 1, "id": 0, "class": 1, "box": [1, 2, 3, 4], "score": NaN, '
        '"per_granularity": {}}',
        '{"frame": 1, "id": 0, "class": 1, "box": [1, 2, 3, 4], "score": 1e999, '
        '"per_granularity": {}}',
        '{"frame": 1, "id": 0, "class": 1, "box": [1, -Infinity, 3, 4], "score": 0.5, '
        '"per_granularity": {}}',
        '{"frame": 1, "raw": NaN, "smoothed": 0.5}',
        '{"frame": 1, "raw": 0.5, "smoothed": Infinity}',
        '{"frame": 1, "raw": 0.5}',
        '{"frame": 2.7, "raw": 0.5, "smoothed": 0.5}',
        '{"frame": 1, "id": true, "class": 1, "box": [1, 2, 3, 4], "score": 0.5, '
        '"per_granularity": {}}',
        '{"frame": 1, "id": 0, "class": 1, "box": [1, 2, 3, 4], "score": 0.5, '
        '"per_granularity": {}, "reason": "bogus"}',
    ], ids=["not-json", "not-object", "missing-class", "short-box", "text-score",
            "nan-score", "overflow-score", "infinite-box", "nan-raw", "infinite-smoothed",
            "missing-smoothed", "fractional-frame", "boolean-id", "unknown-reason"])
    def test_bad_row_names_its_line(self, tmp_path, line):
        path = tmp_path / "scores.jsonl"
        good = ('{"frame": 1, "id": 0, "class": 1, "box": [1, 2, 3, 4], "score": 0.5, '
                '"per_granularity": {"40": 0.5}, "reason": null}\n')
        path.write_text(good + "\n" + line + "\n" + '{"frame": 1, "raw": 0.5, "smoothed": 0.5}\n')
        with pytest.raises(TrackFileError, match="^line 3: "):
            read_scores(path)

    def test_frame_rows_must_number_the_frames(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"frame": 1, "raw": 0.5, "smoothed": 0.5}\n'
                        '{"frame": 3, "raw": 0.5, "smoothed": 0.5}\n')
        with pytest.raises(TrackFileError, match="frames 1 to 2"):
            read_scores(path)

    def test_schema_keys(self, mini_bundle, tmp_path):
        scored, frames = score_frames(mini_bundle, mini_tracks())
        path = tmp_path / "scores.jsonl"
        write_scores(path, scored, frames)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        object_rows = [l for l in lines if "score" in l]
        frame_rows = [l for l in lines if "raw" in l]
        assert set(object_rows[0]) == {"frame", "id", "class", "box", "score",
                                       "per_granularity", "reason"}
        assert set(frame_rows[0]) == {"frame", "raw", "smoothed"}
        assert len(frame_rows) == mini_tracks().frame_count
