import io
import json
from pathlib import Path

import pytest

from gridvad import bn, cli, explain, ingest, pipeline
from gridvad.cli import main
from gridvad.featurize import generate_observations
from gridvad.ingest import (compute_confidence_thresholds, filter_detections, parse_tracks,
                            slice_frames)


def run_cli(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full synth -> train -> score -> eval -> explain round."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run_cli("synth", "--preset", "reference", "--seed", "42",
                   "--out-dir", data) == 0
    assert run_cli("train", "--tracks", data / "train_tracks.jsonl",
                   "--cells", "40,80", "--mode", "spatiotemporal", "--slice", "3",
                   "--out", root / "model.bundle") == 0
    assert run_cli("score", "--model", root / "model.bundle",
                   "--tracks", data / "test_tracks.jsonl",
                   "--out", root / "scores.jsonl", "--threads", "2") == 0
    assert run_cli("eval", "--scores", root / "scores.jsonl", "--gt", data / "gt.jsonl",
                   "--report", root / "report.json") == 0
    return root


class TestPipelineComposition:
    def test_all_artifacts_written(self, workspace):
        for name in ("data/train_tracks.jsonl", "data/test_tracks.jsonl",
                     "data/gt.jsonl", "model.bundle", "scores.jsonl", "report.json"):
            assert (workspace / name).exists()

    def test_report_carries_all_four_metrics(self, workspace):
        report = json.loads((workspace / "report.json").read_text())
        for key in ("frame_auc", "rbdc", "tbdc", "mean_rt"):
            assert isinstance(report[key], float)
        assert report["frame_auc"] > 0.9
        assert report["curves"]["region"]

    def test_train_manifest_records_fit_seconds_per_granularity(self, workspace):
        manifest = json.loads((workspace / "model.bundle.manifest.json").read_text())
        assert set(manifest["timings"]["fit_seconds"]) == {"40", "80"}
        assert manifest["config"]["cells"] == [40, 80]
        assert "gridvad" in manifest["versions"]

    def test_train_manifest_counts_the_rows_the_bundle_stores(self, workspace):
        manifest = json.loads((workspace / "model.bundle.manifest.json").read_text())
        stored = json.loads((workspace / "model.bundle").read_text())["granularities"]
        bundle = pipeline.load_bundle(workspace / "model.bundle")
        assert manifest["timings"]["observed_rows"] == {
            str(gran.grid.cell_size): {
                child: [len(cpt["observed"]), len(gran.net.cpt(child).observed)]
                for child, cpt in g["cpts"].items()}
            for gran, g in zip(bundle.granularities, stored, strict=True)}

    def test_score_manifest_records_inference_averages(self, workspace):
        manifest = json.loads((workspace / "scores.jsonl.manifest.json").read_text())
        for key in ("score_seconds", "write_seconds", "per_cell_seconds_mean",
                    "per_object_seconds_mean", "per_frame_seconds_mean"):
            assert manifest["timings"][key] > 0

    def test_score_manifest_counts_unseen_and_impossible_objects(self, workspace):
        manifest = json.loads((workspace / "scores.jsonl.manifest.json").read_text())
        rows = [json.loads(l) for l in (workspace / "scores.jsonl").read_text().splitlines()]
        reasons = [r["reason"] for r in rows if "score" in r]
        timings = manifest["timings"]
        assert timings["unseen_class_objects"] == reasons.count("unseen-class") >= 1
        assert timings["impossible_objects"] == reasons.count("impossible-evidence") >= 1
        # the counts the per-object score path gave on this scene
        assert {k: v for k, v in timings.items() if not k.endswith("_seconds_mean")
                and not k.endswith("_seconds")} == {
            "cells_queried": 19326, "posterior_queries": 393, "objects": 5909,
            "frames": 600, "unseen_class_objects": 61, "impossible_objects": 243}

    def test_score_manifest_counts_posterior_queries(self, workspace, monkeypatch, tmp_path):
        calls = []
        query = bn.class_cpt_query

        def counting(net, evidence):
            calls.append(evidence)
            return query(net, evidence)

        monkeypatch.setattr(bn, "class_cpt_query", counting)
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", "--model", workspace / "model.bundle",
                       "--tracks", workspace / "data" / "test_tracks.jsonl", "--out", out) == 0
        timings = json.loads((tmp_path / "scores.jsonl.manifest.json").read_text())["timings"]
        assert timings["posterior_queries"] == len(calls) < timings["cells_queried"]

    def test_observation_dump_reuses_training_tables(self, workspace, monkeypatch, tmp_path):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].cell_size)
            return generate_observations(*args, **kwargs)

        monkeypatch.setattr(pipeline, "generate_observations", counting)
        monkeypatch.setattr(cli, "generate_observations", counting, raising=False)
        tracks = workspace / "data" / "train_tracks.jsonl"
        assert run_cli("train", "--tracks", tracks, "--cells", "40,80", "--slice", "3",
                       "--out", tmp_path / "m.bundle",
                       "--dump-observations", tmp_path / "obs") == 0
        assert calls == [40, 80]

        bundle = pipeline.load_bundle(tmp_path / "m.bundle")
        parsed = parse_tracks(tracks)
        prepared = slice_frames(filter_detections(parsed, compute_confidence_thresholds(parsed)),
                                3)
        for gran in bundle.granularities:
            expected = io.StringIO(newline="")
            generate_observations(prepared, gran.grid, bundle.discretizer, bundle.kind,
                                  bundle.box_mode).write_csv(expected)
            dump = Path(f"{tmp_path / 'obs'}.{gran.grid.cell_size}.csv")
            assert dump.read_bytes() == expected.getvalue().encode()

    def test_observation_dump_joins_the_training_chunks(self, workspace, monkeypatch,
                                                         tmp_path):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].cell_size)
            return generate_observations(*args, **kwargs)

        monkeypatch.setattr(pipeline, "generate_observations", counting)
        monkeypatch.setattr(ingest, "CHUNK_DETECTIONS", 1000)
        tracks = workspace / "data" / "train_tracks.jsonl"
        assert run_cli("train", "--tracks", tracks, "--cells", "40,80", "--slice", "3",
                       "--out", tmp_path / "m.bundle",
                       "--dump-observations", tmp_path / "obs") == 0
        # 3,035 detections after slicing: four chunks per cell size
        assert calls == [40] * 4 + [80] * 4
        assert (tmp_path / "m.bundle").read_bytes() == (workspace / "model.bundle").read_bytes()
        parsed = parse_tracks(tracks)
        prepared = slice_frames(filter_detections(parsed, compute_confidence_thresholds(parsed)),
                                3)
        bundle = pipeline.load_bundle(tmp_path / "m.bundle")
        for gran in bundle.granularities:
            expected = io.StringIO(newline="")
            generate_observations(prepared, gran.grid, bundle.discretizer, bundle.kind,
                                  bundle.box_mode).write_csv(expected)
            dump = Path(f"{tmp_path / 'obs'}.{gran.grid.cell_size}.csv")
            assert dump.read_bytes() == expected.getvalue().encode()

    def test_explain_writes_breakdowns(self, workspace):
        scores = [json.loads(l) for l in (workspace / "scores.jsonl").read_text().splitlines()]
        anomalous = next(r for r in scores if "score" in r and r["score"] == 0.0)
        out = workspace / "explanation.json"
        assert run_cli("explain", "--model", workspace / "model.bundle",
                       "--tracks", workspace / "data" / "test_tracks.jsonl",
                       "--frame", anomalous["frame"], "--track-id", anomalous["id"],
                       "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["fused"] == 0.0
        assert (workspace / "explanation.plot.json").exists()


class TestExitCodes:
    def test_invalid_cell_size_names_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("train", "--tracks", "x.jsonl", "--cells", "0")
        assert excinfo.value.code == 2
        assert "--cells" in capsys.readouterr().err

    def test_missing_input_file_is_runtime_error(self, tmp_path):
        assert run_cli("train", "--tracks", tmp_path / "missing.jsonl") == 1

    def test_malformed_tracks_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert run_cli("train", "--tracks", bad) == 1

    def test_fractional_or_boolean_header_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"width": 640.9, "height": "360", "frames": true}\n')
        assert run_cli("train", "--tracks", bad) == 1
        assert "line 1: header width must be a 64-bit integer" in capsys.readouterr().err

    def test_header_with_a_repeated_key_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"width": 320, "width": 640, "height": 360, "frames": 10}\n')
        assert run_cli("train", "--tracks", bad) == 1
        assert ("line 1: bad header: JSON object repeats the key 'width'"
                in capsys.readouterr().err)

    def test_malformed_ground_truth_is_runtime_error(self, workspace, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        gt.write_text('{"frame": 60, "gt_id": 0, "box": [1, 2, 3, 4]}\n'
                      '{"frame": 61, "gt_id": 0, "box": [NaN, 2, 3, 4]}\n')
        assert run_cli("eval", "--scores", workspace / "scores.jsonl", "--gt", gt,
                       "--report", tmp_path / "report.json") == 1
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("score", ["NaN", "Infinity", "1e999"])
    def test_non_finite_score_is_runtime_error(self, workspace, tmp_path, capsys, score):
        scores = tmp_path / "scores.jsonl"
        lines = (workspace / "scores.jsonl").read_text().splitlines(keepends=True)
        row = json.loads(lines[2])
        lines[2] = json.dumps(row).replace(json.dumps(row["score"]), score, 1) + "\n"
        scores.write_text("".join(lines))
        assert run_cli("eval", "--scores", scores, "--gt", workspace / "data" / "gt.jsonl",
                       "--report", tmp_path / "report.json") == 1
        assert "line 3" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_unknown_preset_is_usage_error(self, tmp_path):
        assert run_cli("synth", "--preset", "reference", "--out-dir", tmp_path,
                       "--config", tmp_path / "missing-config.json") == 2

    def test_missing_required_path_is_usage_error(self):
        assert run_cli("train") == 2


class TestExplainGranularity:
    def test_size_the_bundle_lacks_is_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "explanation.json"
        assert run_cli("explain", "--model", workspace / "model.bundle",
                       "--tracks", workspace / "data" / "test_tracks.jsonl",
                       "--frame", 75, "--track-id", 32, "--granularity", 30,
                       "--out", out) == 2
        assert "cell sizes 40, 80" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("granularity,sizes", [("finest", {40}), ("80", {80}),
                                                   ("all", {40, 80}), ("40", {40})])
    def test_only_the_chosen_granularities_are_broken_down(self, workspace, tmp_path,
                                                          monkeypatch, granularity, sizes):
        calls = []
        explain_cell = explain.explain_cell

        def counting(bundle, cell_size, *rest):
            calls.append(cell_size)
            return explain_cell(bundle, cell_size, *rest)

        monkeypatch.setattr(explain, "explain_cell", counting)
        out = tmp_path / "explanation.json"
        assert run_cli("explain", "--model", workspace / "model.bundle",
                       "--tracks", workspace / "data" / "test_tracks.jsonl",
                       "--frame", 75, "--track-id", 0, "--granularity", granularity,
                       "--out", out) == 0
        payload = json.loads(out.read_text())
        assert set(calls) == sizes
        assert calls == [cell["cell_size"] for cell in payload["cells"]]
        # the score and its trace still come from every granularity
        assert set(payload["per_granularity"]) == set(payload["per_cell"]) == {"40", "80"}

    @pytest.mark.parametrize("text", ["coarse", "0", "40,80"])
    def test_other_text_is_rejected_by_the_flag(self, capsys, text):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("explain", "--model", "m.bundle", "--tracks", "t.jsonl",
                    "--frame", 1, "--track-id", 0, "--granularity", text)
        assert excinfo.value.code == 2
        assert "--granularity" in capsys.readouterr().err


class TestResolutionCheck:
    @pytest.mark.parametrize("command", ["score", "explain"])
    @pytest.mark.parametrize("width,height", [(1280, 720), (320, 180)])
    def test_stream_on_another_grid_is_usage_error(self, workspace, tmp_path, capsys,
                                                   command, width, height):
        trained = json.loads((workspace / "model.bundle").read_text())["resolution"]
        tracks = tmp_path / "tracks.jsonl"
        tracks.write_text("\n".join(json.dumps(row) for row in (
            {"width": width, "height": height, "frames": 1},
            {"frame": 1, "id": 0, "class": 1, "conf": 0.9,
             "box": [width - 30, height - 60, width - 10, height - 1]})) + "\n")
        args = ["--model", workspace / "model.bundle", "--tracks", tracks,
                "--out", tmp_path / "out.json"]
        if command == "explain":
            args += ["--frame", 1, "--track-id", 0]
        assert run_cli(command, *args) == 2
        err = capsys.readouterr().err
        assert f"{width}x{height}" in err
        assert "{}x{}".format(*trained) in err
        assert not (tmp_path / "out.json").exists()


def _set_cell_size(value):
    def corrupt(bundle):
        bundle["granularities"][0]["cell_size"] = value
    return corrupt


def _set_discretizer(field, value):
    def corrupt(bundle):
        bundle["discretizer"][field] = value
    return corrupt


def _set_class_stat(field, value):
    def corrupt(bundle):
        classes = bundle["discretizer"]["classes"]
        classes[min(classes)][field] = value
    return corrupt


def _set_threshold(group, value):
    def corrupt(bundle):
        bundle["thresholds"][group] = value
    return corrupt


def _cpts(bundle):
    return bundle["granularities"][0]["cpts"]


def _drop_class(bundle):
    classes = bundle["discretizer"]["classes"]
    classes.pop(max(classes))


def _add_class(bundle):
    classes = bundle["discretizer"]["classes"]
    classes[str(max(map(int, classes)) + 1)] = classes[min(classes)]


def _rename_class(key):
    def corrupt(bundle):
        classes = bundle["discretizer"]["classes"]
        classes[key] = classes.pop(min(classes))
    return corrupt


def _drop_grid_to_velocity(bundle):
    """Store P(V | C), the table of a network without the G->V edge, as V's CPT.

    One row per class at indices 0 .. classes - 1 reads as the rows of cell 0,
    P(V | G = 0, C), a valid table of the present layout: what refuses the
    table of another layout is the version that layout was written under."""
    classes = len(bundle["discretizer"]["classes"])
    velocity = _cpts(bundle)["V"]
    velocity.update(table=velocity["table"][:classes], observed=list(range(classes)))
    bundle["version"] = 2


_BS_INDICES = "cpts.BS.observed must list row indices in [0, "


def _set_bs_index(position, value):
    """Set one stored row index of P(BS | G, C) to ``value(indices, row count)``."""
    def corrupt(bundle):
        rows = len(_cpts(bundle)["G"]["table"][0]) * len(bundle["discretizer"]["classes"])
        indices = _cpts(bundle)["BS"]["observed"]
        indices[position] = value(indices, rows)
    return corrupt


def _nan_cell_probability(bundle):
    # P(G) of the first cell: no test object of the reference scene lies there
    _cpts(bundle)["G"]["table"][0][0] = float("nan")


class TestBundleValidation:
    @pytest.mark.parametrize("corrupt,field", [
        (_drop_class, "cpts.C.table must hold rows of length 1"),
        (_add_class, "cpts.C.table must hold rows of length 3"),
        (lambda b: b["discretizer"]["classes"].clear(), "discretizer lists no class"),
        (lambda b: b.update(resolution=[1280, 720]), "cpts.G.table must hold rows of length 576"),
        (_set_cell_size(39), "cpts.G.table must hold rows of length 170"),
        (lambda b: b["granularities"][0].pop("cpts"), "'cpts'"),
        (lambda b: b.pop("thresholds"), "'thresholds'"),
        (lambda b: b["granularities"][0].update(cpts=[]),
         "granularities[0].cpts must be an object"),
        (lambda b: _cpts(b)["G"].update(table=None), "granularities[0].cpts.G.table"),
        (lambda b: _cpts(b).update(Q=_cpts(b)["C"]), "granularities[0].cpts must hold one CPT"),
        (lambda b: _cpts(b).pop("D"), "granularities[0].cpts must hold one CPT"),
        (lambda b: b["granularities"].append(b["granularities"][0]), "cell_size 40 repeats"),
        (lambda b: b.update(box_mode="Bottom"), "box_mode"),
        (lambda b: b.update(fusion="median"), "fusion"),
        (lambda b: b.update(kind="temporal"), "kind"),
        (lambda b: b.update(kind="spatial"), "kind 'spatial'"),
        (lambda b: b.update(smoothing_sigma="5"), "smoothing_sigma"),
        (lambda b: b.update(smoothing_sigma=-3.0), "smoothing_sigma"),
        (lambda b: b.update(smoothing_sigma=float("nan")), "smoothing_sigma"),
        (lambda b: b.update(smoothing_sigma=True), "smoothing_sigma"),
        (_drop_grid_to_velocity, "unsupported bundle version 2"),
        (lambda b: b.update(discretizer=[]), "field discretizer must be an object"),
        (_set_discretizer("square_tolerance", 0.2), "discretizer.square_tolerance"),
        (_set_discretizer("square_tolerance", -1), "discretizer.square_tolerance"),
        (_set_discretizer("idle_speed", float("nan")), "discretizer.idle_speed"),
        (_set_class_stat("size_std", "x"), "size_std"),
        (_set_class_stat("size_std", -1.0), "size_std"),
        (_set_class_stat("speed_mean", True), "speed_mean"),
        (_set_class_stat("speed_mean", float("inf")), "speed_mean"),
        (_set_threshold("person", None), "thresholds.person"),
        (_set_threshold("person", float("nan")), "thresholds.person"),
        (_set_threshold("other", 1.5), "thresholds.other"),
        (_nan_cell_probability, "non-finite probability in CPT for G"),
        (_set_cell_size(40.7), "granularities[0].cell_size must be an integer"),
        (_set_cell_size(True), "granularities[0].cell_size must be an integer"),
        (_set_cell_size("40"), "granularities[0].cell_size must be an integer"),
        (_set_cell_size(0), "cell size 0 must be >= 1"),
        (_rename_class("person"), "discretizer.classes key must be an integer, not 'person'"),
        (lambda b: b.update(resolution=[float(v) for v in b["resolution"]]), "resolution[0]"),
        (_rename_class("1.0"), "discretizer.classes key"),
        (_set_cell_size(999), "cell size 999 exceeds the frame (640x360)"),
        (lambda b: b["granularities"][0].pop("cell_size"), "'cell_size'"),
        (lambda b: b.update(granularities=[]), "granularities lists no granularity"),
        (lambda b: b.update(granularities={}), "field granularities must be an array"),
        (lambda b: b["resolution"].append(1), "field resolution must be an array of 2 items"),
        (_set_class_stat("extra", 1.0), "unknown bundle field discretizer.classes.1.extra"),
        (lambda b: b.update(version=1), "unsupported bundle version 1: this gridvad reads "
                                        "version 3; retrain the model"),
        (lambda b: b.update(version=2), "unsupported bundle version 2: this gridvad reads "
                                        "version 3; retrain the model"),
        (lambda b: _cpts(b)["BS"]["observed"].pop(), "cpts.BS.table must be an array of"),
        (lambda b: b.update(class_ids=[99]), "unknown bundle field class_ids"),
        (lambda b: b["granularities"][0].update(grid={"cols": 1}),
         "unknown bundle field granularities[0].grid"),
        (lambda b: b["thresholds"].update(car=0.5), "unknown bundle field thresholds.car"),
        (lambda b: b["discretizer"].update(bins=[]), "unknown bundle field discretizer.bins"),
        (lambda b: _cpts(b)["BS"].update(rows=2),
         "unknown bundle field granularities[0].cpts.BS.rows"),
        (lambda b: _cpts(b)["BS"].pop("observed"), "'observed' in granularities[0].cpts.BS"),
        (lambda b: _cpts(b)["BS"]["observed"].reverse(), _BS_INDICES),
        (_set_bs_index(1, lambda indices, rows: indices[0]), _BS_INDICES),
        (_set_bs_index(0, lambda indices, rows: -1), _BS_INDICES),
        (_set_bs_index(-1, lambda indices, rows: rows), _BS_INDICES),
        (_set_bs_index(0, lambda indices, rows: indices[0] + 0.5),
         "BS.observed[0] must be an integer, not "),
        (_set_bs_index(0, lambda indices, rows: True),
         "BS.observed[0] must be an integer, not True"),
        (_set_bs_index(0, lambda indices, rows: str(indices[0])),
         "BS.observed[0] must be an integer, not '"),
        (lambda b: _cpts(b)["BS"]["table"].append(_cpts(b)["BS"]["table"][0]),
         "cpts.BS.table must be an array of"),
        (lambda b: [row.pop() for row in _cpts(b)["BS"]["table"]],
         "cpts.BS.table must hold rows of length 5 (the cardinality of BS), not 4"),
    ], ids=["class-ids-short", "class-ids-long", "class-ids-empty", "grid-resolution",
            "grid-cell-size", "missing-cpts", "missing-thresholds", "cpts-not-object",
            "null-table", "cpts-extra-node", "cpts-missing-node", "repeated-cell-size",
            "box-mode-case", "unknown-fusion", "unknown-kind", "kind-without-motion-nodes",
            "sigma-text", "sigma-negative", "sigma-nan", "sigma-bool", "edge-dropped",
            "discretizer-not-object", "tolerance-other", "tolerance-negative",
            "idle-speed-nan", "size-std-text", "size-std-negative", "speed-mean-bool",
            "speed-mean-inf", "threshold-null", "threshold-nan", "threshold-above-one",
            "cpt-nan", "cell-size-fraction", "cell-size-bool", "cell-size-text",
            "cell-size-zero", "class-ids-text", "resolution-float", "class-key-fraction",
            "granularity-cell-size-other", "granularity-cell-size-missing",
            "granularities-empty", "granularities-object", "resolution-three-items",
            "class-stats-extra-key", "version-1", "version-2", "observed-short",
            "top-level-unknown-key", "granularity-unknown-key", "thresholds-unknown-key",
            "discretizer-unknown-key", "cpt-unknown-key", "cpt-missing-observed",
            "indices-unsorted", "index-repeated", "index-negative", "index-at-row-count",
            "index-fraction", "index-bool", "index-text", "table-row-too-many",
            "table-row-width"])
    def test_inconsistent_bundle_is_usage_error(self, workspace, tmp_path, capsys,
                                                corrupt, field):
        bundle = json.loads((workspace / "model.bundle").read_text())
        corrupt(bundle)
        bad = tmp_path / "bad.bundle"
        bad.write_text(json.dumps(bundle))
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", "--model", bad, "--out", out,
                       "--tracks", workspace / "data" / "test_tracks.jsonl") == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,first", [
        ("thresholds", '{"person": 0.99, "other": 0.99}'),
        ("table", "[[1.0]]"),
    ], ids=["thresholds", "cpt-table"])
    def test_repeated_key_is_usage_error(self, workspace, tmp_path, capsys, key, first):
        text = (workspace / "model.bundle").read_text()
        at = text.index(f'"{key}": ')
        repeated = f'{text[:at]}"{key}": {first}, {text[at:]}'
        # plain json keeps the last of the two: only the repetition is wrong
        assert json.loads(repeated) == json.loads(text)
        bad = tmp_path / "bad.bundle"
        bad.write_text(repeated)
        out = tmp_path / "scores.jsonl"
        assert run_cli("score", "--model", bad, "--out", out,
                       "--tracks", workspace / "data" / "test_tracks.jsonl") == 2
        assert f"JSON object repeats the key '{key}'" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("synth", "--preset", "temporal", "--out-dir", data) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "tracks": str(data / "train_tracks.jsonl"),
            "cells": [40],
            "mode": "spatial",
            "slice": 3,
            "out": str(tmp_path / "spatial.bundle"),
        }))
        assert run_cli("train", "--config", config) == 0
        manifest = json.loads((tmp_path / "spatial.bundle.manifest.json").read_text())
        assert manifest["config"]["mode"] == "spatial"
        # flag wins over the config file
        assert run_cli("train", "--config", config, "--mode", "spatiotemporal",
                       "--out", tmp_path / "st.bundle") == 0
        manifest = json.loads((tmp_path / "st.bundle.manifest.json").read_text())
        assert manifest["config"]["mode"] == "spatiotemporal"

    def test_config_cells_in_flag_text_form(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "tracks": str(workspace / "data" / "train_tracks.jsonl"),
            "cells": "40,80", "slice": "3", "out": str(tmp_path / "model.bundle")}))
        assert run_cli("train", "--config", config) == 0
        manifest = json.loads((tmp_path / "model.bundle.manifest.json").read_text())
        assert (manifest["config"]["cells"], manifest["config"]["slice"]) == ([40, 80], 3)

    @pytest.mark.parametrize("key, value", [
        ("cells", 40), ("cells", "20,0"), ("cells", [20, 2.5]), ("slice", 0),
        ("slice", "x"), ("slice", 2.5), ("slice", True),
    ], ids=["cells-int", "cells-zero", "cells-float", "slice-zero", "slice-text",
            "slice-float", "slice-bool"])
    def test_config_value_rejected_like_its_flag(self, tmp_path, capsys, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"tracks": str(tmp_path / "unread.jsonl"), key: value}))
        assert run_cli("train", "--config", config) == 2
        assert f"config key {key!r}" in capsys.readouterr().err


    @pytest.mark.parametrize("command, key, value", [
        ("train", "out", 5), ("train", "tracks", ["a.jsonl"]),
        ("train", "smoothing_sigma", [1]), ("train", "smoothing_sigma", "abc"),
        ("train", "no_filter", "false"), ("synth", "seed", 1.5), ("synth", "seed", True),
        ("explain", "track_id", 32.9), ("train", "mode", "bogus"), ("train", "cell", "40"),
    ], ids=["out-int", "tracks-list", "sigma-list", "sigma-text", "switch-text",
            "seed-float", "seed-bool", "track-id-float", "mode-choice", "unknown-key"])
    def test_bad_config_value_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                             command, key, value):
        required = {"synth": {}, "train": {"tracks": "unread.jsonl"},
                    "explain": {"model": "unread.bundle", "tracks": "unread.jsonl", "frame": 1}}
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**required[command], key: value}))
        monkeypatch.chdir(tmp_path)
        assert run_cli(command, "--config", config) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_config_with_every_option_equals_flags(self, workspace, tmp_path, monkeypatch):
        data, model = workspace / "data", workspace / "model.bundle"
        runs = {
            "synth": {"script": data / "scene.json", "preset": "temporal", "seed": "7",
                      "out_dir": "data"},
            "train": {"tracks": data / "train_tracks.jsonl", "format": "jsonl",
                      "cells": "40,80", "mode": "spatial", "slice": "3", "no_filter": True,
                      "box_mode": "whole", "fusion": "min", "smoothing_sigma": "2.5",
                      "out": "model.bundle", "dump_observations": "obs"},
            "score": {"model": model, "tracks": data / "test_tracks.jsonl", "format": "jsonl",
                      "out": "scores.jsonl", "threads": "2"},
            "eval": {"scores": workspace / "scores.jsonl", "gt": data / "gt.jsonl",
                     "report": "report.json"},
            "explain": {"model": model, "tracks": data / "test_tracks.jsonl",
                        "format": "jsonl", "frame": "75", "track_id": "32",
                        "granularity": "all", "out": "explanation.json"},
        }
        for command, options in runs.items():
            by_flags, by_config = tmp_path / command / "flags", tmp_path / command / "config"
            by_flags.mkdir(parents=True)
            by_config.mkdir()
            flags = []
            for key, value in options.items():
                flags += ["--" + key.replace("_", "-")] + ([] if value is True else [value])
            config = tmp_path / f"{command}.json"
            config.write_text(json.dumps({k: v if v is True else str(v)
                                          for k, v in options.items()}))
            monkeypatch.chdir(by_flags)
            assert run_cli(command, *flags) == 0
            monkeypatch.chdir(by_config)
            assert run_cli(command, "--config", config) == 0
            written = sorted(p.relative_to(by_flags) for p in by_flags.rglob("*") if p.is_file())
            assert written == sorted(p.relative_to(by_config)
                                     for p in by_config.rglob("*") if p.is_file())
            for name in written:
                expected, got = (by_flags / name).read_bytes(), (by_config / name).read_bytes()
                if name.name.endswith(".manifest.json"):
                    expected, got = (json.loads(b)["config"] for b in (expected, got))
                assert got == expected, (command, name)


class TestMotPath:
    def test_train_from_mot_csv(self, tmp_path):
        mot = tmp_path / "tracks.mot"
        lines = ['# {"width": 640, "height": 360, "frames": 6}']
        for f in range(1, 7):
            x = 10 + 4 * f
            lines.append(f"{f},1,{x},150,22,50,0.9,1")
            lines.append(f"{f},2,{300 - 6 * f},300,90,42,0.88,3")
        mot.write_text("\n".join(lines) + "\n")
        assert run_cli("train", "--tracks", mot, "--format", "mot",
                       "--cells", "40", "--no-filter",
                       "--out", tmp_path / "mot.bundle") == 0
        assert (tmp_path / "mot.bundle").exists()

    def test_explain_from_mot_csv(self, workspace, tmp_path):
        rows = (workspace / "data" / "test_tracks.jsonl").read_text().splitlines()
        lines = ["# " + rows[0]]
        for row in map(json.loads, rows[1:]):
            x1, y1, x2, y2 = row["box"]
            lines.append(f"{row['frame']},{row['id']},{x1},{y1},{x2 - x1},{y2 - y1},"
                         f"{row['conf']},{row['class']}")
        mot = tmp_path / "test.mot"
        mot.write_text("\n".join(lines) + "\n")
        scores = (workspace / "scores.jsonl").read_text().splitlines()
        target = next(r for r in map(json.loads, scores) if "score" in r)
        out = tmp_path / "explanation.json"
        assert run_cli("explain", "--model", workspace / "model.bundle",
                       "--tracks", mot, "--format", "mot", "--frame", target["frame"],
                       "--track-id", target["id"], "--out", out) == 0
        assert json.loads(out.read_text())["track_id"] == target["id"]
        manifest = json.loads((tmp_path / "explanation.json.manifest.json").read_text())
        assert manifest["config"]["format"] == "mot"

    def test_observation_dump(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("synth", "--preset", "temporal", "--out-dir", data) == 0
        assert run_cli("train", "--tracks", data / "train_tracks.jsonl",
                       "--cells", "40", "--out", tmp_path / "m.bundle",
                       "--dump-observations", tmp_path / "obs") == 0
        dump = Path(f"{tmp_path / 'obs'}.40.csv")
        assert dump.exists()
        assert dump.read_text().splitlines()[0] == "F,G,C,I,BS,BAR,V,D"
