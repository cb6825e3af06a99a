import dataclasses
import hashlib
import io
import json
import re

import pytest

from gridvad.cli import main
from gridvad.featurize import fit_discretizer, generate_observations, build_grid
from gridvad.ingest import write_ground_truth, write_tracks
from gridvad.synth import (
    Injection,
    Lane,
    SceneScript,
    ScriptError,
    generate_scene,
    occlusion_script,
    reference_script,
    script_from_dict,
    script_to_dict,
    temporal_anomaly_script,
    validate_script,
)

from conftest import decoded

# golden fingerprint of the serialized reference scene, captured at first build
REFERENCE_SHA256 = "965a122fe368a075706936aeb87e9ecf39b7d7a503e83224dbd3e576e914b416"


def scene_digest(script) -> str:
    train, test, gt = generate_scene(script)
    buffer = io.StringIO()
    write_tracks(train, buffer)
    write_tracks(test, buffer)
    write_ground_truth(gt, buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


class TestDeterminism:
    def test_identical_runs_byte_identical(self):
        script = reference_script()
        assert generate_scene(script) == generate_scene(script)

    def test_reference_scene_golden_hash(self):
        assert scene_digest(reference_script(seed=42)) == REFERENCE_SHA256

    def test_seed_changes_output(self):
        assert scene_digest(reference_script(seed=43)) != REFERENCE_SHA256


class TestSceneContents:
    def test_zero_injections_empty_gt(self):
        script = dataclasses.replace(temporal_anomaly_script(), injections=())
        _, test, gt = generate_scene(script)
        assert gt.regions == ()
        assert not gt.frame_labels(test.frame_count).any()

    def test_injections_only_in_test_split(self):
        script = reference_script()
        train, _, _ = generate_scene(script)
        assert set(d.class_id for d in train.detections) == {1, 3}

    def test_wrong_speed_injection_covered_by_gt(self):
        script = reference_script()
        _, test, gt = generate_scene(script)
        injection = script.injections[1]
        assert injection.kind == "wrong-speed"
        span = {r.frame for r in gt.regions if r.gt_id == 1}
        assert span
        assert min(span) == injection.start_frame
        assert max(span) <= injection.end_frame
        gt_boxes = {(r.frame, r.box) for r in gt.regions if r.gt_id == 1}
        injected_ids = {d.track_id for d in test.detections
                        if (d.frame_index, d.box) in gt_boxes}
        assert len(injected_ids) == 1

    def test_gt_regions_match_emitted_boxes_exactly(self):
        _, test, gt = generate_scene(reference_script())
        emitted = {(d.frame_index, d.box) for d in test.detections}
        for region in gt.regions:
            assert (region.frame, region.box) in emitted

    def test_wrong_class_injection_uses_unseen_class(self):
        script = reference_script()
        train, test, _ = generate_scene(script)
        train_classes = {d.class_id for d in train.detections}
        assert 17 not in train_classes
        assert any(d.class_id == 17 for d in test.detections)

    def test_boxes_fully_inside_frame(self):
        script = reference_script()
        for tracks in generate_scene(script)[:2]:
            w, h = tracks.resolution
            for d in tracks.detections:
                assert 0 <= d.box[0] < d.box[2] <= w
                assert 0 <= d.box[1] < d.box[3] <= h


class TestConcentration:
    def test_95_percent_of_normal_observations_in_expected_bins(self):
        train, _, _ = generate_scene(reference_script())
        grid = build_grid(train.resolution, 40)
        model = fit_discretizer(train)
        table = generate_observations(train, grid, model)
        n = len(table.rows)
        medium = sum(1 for bs in decoded(table, "BS") if bs == "medium")
        calm = sum(1 for v in decoded(table, "V") if v in ("normal", "slow"))
        assert medium / n >= 0.95
        assert calm / n >= 0.95


class TestValidation:
    def base_lane(self, **kw):
        defaults = dict(name="l", class_id=1, bottom_range=(100.0, 110.0),
                        base_height=50.0)
        defaults.update(kw)
        return Lane(**defaults)

    def script_with(self, lanes=None, injections=()):
        return SceneScript((640, 360), 100, 100,
                           lanes if lanes is not None else (self.base_lane(),),
                           tuple(injections))

    def test_lane_outside_frame(self):
        with pytest.raises(ScriptError, match="bottom range"):
            validate_script(self.script_with((self.base_lane(bottom_range=(100.0, 500.0)),)))

    def test_boxes_poking_above_frame(self):
        with pytest.raises(ScriptError, match="poke"):
            validate_script(self.script_with((self.base_lane(bottom_range=(20.0, 30.0)),)))

    def test_injection_span_outside_test(self):
        bad = Injection("wrong-speed", 50, 150, speed_multiplier=3.0)
        with pytest.raises(ScriptError, match="frame span"):
            validate_script(self.script_with(injections=[bad]))

    def test_injection_parameter_requirements(self):
        cases = [Injection("wrong-class", 1, 10),
                 Injection("wrong-speed", 1, 10),
                 Injection("wrong-size", 1, 10),
                 Injection("wrong-direction", 1, 10),
                 Injection("wrong-location", 1, 10)]
        for injection in cases:
            with pytest.raises(ScriptError):
                validate_script(self.script_with(injections=[injection]))

    def test_unknown_kind(self):
        with pytest.raises(ScriptError, match="unknown anomaly kind"):
            validate_script(self.script_with(injections=[Injection("odd", 1, 10)]))

    def test_no_lanes(self):
        with pytest.raises(ScriptError, match="lane"):
            validate_script(SceneScript((640, 360), 10, 10, ()))


class TestScriptSerialization:
    @pytest.mark.parametrize("factory", [reference_script, temporal_anomaly_script,
                                         occlusion_script])
    def test_round_trip(self, factory):
        script = factory()
        assert script_from_dict(script_to_dict(script)) == script

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d.pop("lanes"), "lanes"),
        (lambda d: d["lanes"][0].pop("bottom_range"), "lanes[0].bottom_range"),
        (lambda d: d["lanes"][1].update(lane_width=4), "lanes[1].lane_width"),
        (lambda d: d["lanes"][0].update(spawn_interval="35"), "lanes[0].spawn_interval"),
    ], ids=["missing", "missing-in-lane", "unknown", "wrong-type"])
    def test_bad_field_is_named(self, tmp_path, capsys, edit, field):
        payload = json.loads(json.dumps(script_to_dict(reference_script())))
        edit(payload)
        with pytest.raises(ScriptError, match=re.escape(field)):
            script_from_dict(payload)
        script = tmp_path / "scene.json"
        script.write_text(json.dumps(payload))
        assert main(["synth", "--script", str(script), "--out-dir", str(tmp_path / "data")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "data").exists()
