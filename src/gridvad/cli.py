"""gridvad command line: synth, train, score, eval and explain subcommands.

Every subcommand writes its artifact plus a ``<artifact>.manifest.json``
sidecar echoing the resolved configuration, wall-clock timings and
library versions. Artifacts themselves contain no timestamps, so reruns
with identical inputs are byte-identical.

Exit codes: 0 ok, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, bn
from .explain import explain_object, write_explanation
from .featurize import GridConfigError, with_predecessors
from .ingest import (
    ConfidenceThresholds,
    TrackFileError,
    TrackSet,
    compute_confidence_thresholds,
    filter_detections,
    parse_ground_truth,
    parse_tracks,
    slice_frames,
    write_ground_truth,
    write_tracks,
)
from .metrics import evaluate, report_to_dict
from .pipeline import (
    REASON_IMPOSSIBLE,
    REASON_UNSEEN_CLASS,
    ModelBundle,
    TrainConfig,
    load_bundle,
    read_scores,
    save_bundle,
    score_frames,
    score_object,
    train,
    write_scores,
)
from .synth import (
    ScriptError,
    generate_scene,
    load_script,
    occlusion_script,
    reference_script,
    save_script,
    temporal_anomaly_script,
)

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE = 0, 1, 2

PRESETS = {
    "reference": reference_script,
    "temporal": temporal_anomaly_script,
    "occlusion": occlusion_script,
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _cell_sizes(text: str) -> tuple[int, ...]:
    return tuple(_positive_int(part) for part in text.split(",") if part)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScriptError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ScriptError(f"config file {path} must hold a JSON object")
    return payload


# config-file keys whose flags have a validator; their values go through it too
_CONFIG_VALIDATORS = {"cells": _cell_sizes, "slice": _positive_int, "frame": _positive_int}


def _config_value(key: str, value):
    """A config-file value checked like its flag; a usage error naming the key otherwise.

    Values are taken in the flag's text form; ``cells`` also takes a JSON
    list and the integer keys a JSON integer.
    """
    validate = _CONFIG_VALIDATORS.get(key)
    if validate is None:
        return value
    if key == "cells" and isinstance(value, list):
        value = ",".join(map(str, value))
    elif key != "cells" and type(value) is int:
        value = str(value)
    if not isinstance(value, str):
        raise ScriptError(f"config key {key!r} has the wrong type {type(value).__name__}")
    try:
        return validate(value)
    except argparse.ArgumentTypeError as exc:
        raise ScriptError(f"config key {key!r}: {exc}") from None


def _resolve(args, config: dict, key: str, default):
    """Flag value if given, else config-file value, else the default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return _config_value(key, config[key])
    return default


def _write_manifest(artifact_path, command: str, config: dict, timings: dict) -> None:
    manifest = {
        "command": command,
        "config": config,
        "timings": timings,
        "versions": {
            "gridvad": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    path = Path(str(artifact_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


def _prepared_tracks(path: str, fmt: str, bundle: ModelBundle) -> TrackSet:
    """A test stream on the bundle's grid, cut at the bundle's confidence thresholds."""
    tracks = parse_tracks(path, fmt)
    if tracks.resolution != bundle.resolution:
        raise ValueError(
            "track stream {} is {}x{} but the model was trained on {}x{} frames".format(
                path, *tracks.resolution, *bundle.resolution))
    return filter_detections(tracks, bundle.thresholds)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    config = _load_config_file(args.config)
    preset = _resolve(args, config, "preset", "reference")
    script_path = _resolve(args, config, "script", None)
    if script_path:
        script = load_script(script_path)
    else:
        if preset not in PRESETS:
            raise ScriptError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        script = PRESETS[preset]()
    seed = _resolve(args, config, "seed", None)
    if seed is not None:
        script = type(script)(script.resolution, script.train_frames, script.test_frames,
                              script.lanes, script.injections, int(seed))
    out_dir = Path(_resolve(args, config, "out_dir", "data"))
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    train_tracks, test_tracks, gt = generate_scene(script)
    elapsed = time.perf_counter() - started
    write_tracks(train_tracks, out_dir / "train_tracks.jsonl")
    write_tracks(test_tracks, out_dir / "test_tracks.jsonl")
    write_ground_truth(gt, out_dir / "gt.jsonl")
    save_script(script, out_dir / "scene.json")
    echo = {"preset": None if script_path else preset, "script": script_path,
            "seed": script.seed, "out_dir": str(out_dir)}
    _write_manifest(out_dir / "scene.json", "synth", echo,
                    {"generate_seconds": elapsed,
                     "train_detections": len(train_tracks.detections),
                     "test_detections": len(test_tracks.detections),
                     "gt_regions": len(gt.regions)})
    print(f"wrote {out_dir}/train_tracks.jsonl, test_tracks.jsonl, gt.jsonl "
          f"({len(gt.regions)} ground-truth regions)")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _load_config_file(args.config)
    tracks_path = _resolve(args, config, "tracks", None)
    if not tracks_path:
        raise ScriptError("--tracks is required")
    fmt = _resolve(args, config, "format", "jsonl")
    cells = _resolve(args, config, "cells", (20, 40))
    mode = _resolve(args, config, "mode", "spatiotemporal")
    slice_factor = _resolve(args, config, "slice", 1)
    no_filter = bool(_resolve(args, config, "no_filter", False))
    box_mode = _resolve(args, config, "box_mode", "bottom")
    fusion = _resolve(args, config, "fusion", "mean")
    sigma = float(_resolve(args, config, "smoothing_sigma", 5.0))
    out = Path(_resolve(args, config, "out", "model.bundle"))

    tracks = parse_tracks(tracks_path, fmt)
    if no_filter:
        thresholds = ConfidenceThresholds(0.0, 0.0)
    else:
        # thresholds come from the full training distribution, before slicing
        thresholds = compute_confidence_thresholds(tracks)
        tracks = filter_detections(tracks, thresholds)
    if slice_factor > 1:
        tracks = slice_frames(tracks, slice_factor)

    train_config = TrainConfig(cell_sizes=tuple(cells), kind=mode, box_mode=box_mode,
                               fusion=fusion, smoothing_sigma=sigma)
    timings: dict = {}
    tables: dict | None = {} if args.dump_observations else None
    started = time.perf_counter()
    bundle = train(train_config, tracks, thresholds, timings=timings, tables=tables)
    total = time.perf_counter() - started
    save_bundle(bundle, out)
    for cell_size, table in (tables or {}).items():
        dump = Path(f"{args.dump_observations}.{cell_size}.csv")
        with open(dump, "w", encoding="utf-8", newline="") as fh:
            table.write_csv(fh)
    echo = {"tracks": str(tracks_path), "format": fmt, "cells": list(cells),
            "mode": mode, "slice": slice_factor, "no_filter": no_filter,
            "box_mode": box_mode, "fusion": fusion, "smoothing_sigma": sigma,
            "thresholds": {"person": thresholds.person_threshold,
                           "other": thresholds.other_threshold},
            "out": str(out)}
    timings["total_seconds"] = total
    _write_manifest(out, "train", echo, timings)
    fit_summary = ", ".join(f"{cs}px: {sec:.4f}s"
                            for cs, sec in timings.get("fit_seconds", {}).items())
    print(f"trained {len(bundle.granularities)} granularities on "
          f"{len(tracks.detections)} detections ({fit_summary})")
    return EXIT_OK


def _cmd_score(args) -> int:
    config = _load_config_file(args.config)
    model_path = _resolve(args, config, "model", None)
    tracks_path = _resolve(args, config, "tracks", None)
    if not model_path or not tracks_path:
        raise ScriptError("--model and --tracks are required")
    fmt = _resolve(args, config, "format", "jsonl")
    out = Path(_resolve(args, config, "out", "scores.jsonl"))

    bundle = load_bundle(model_path)
    tracks = _prepared_tracks(tracks_path, fmt, bundle)
    timings: dict = {}
    started = time.perf_counter()
    scored, frames = score_frames(bundle, tracks, timings=timings)
    elapsed = time.perf_counter() - started
    started = time.perf_counter()
    write_scores(out, scored, frames)
    write_elapsed = time.perf_counter() - started
    cells_queried = sum(len(cells.cell) for cells in scored.cells)
    timings.update({
        "score_seconds": elapsed,
        "write_seconds": write_elapsed,
        "per_cell_seconds_mean": elapsed / cells_queried if cells_queried else 0.0,
        "per_object_seconds_mean": elapsed / len(scored) if scored else 0.0,
        "per_frame_seconds_mean": elapsed / len(frames) if len(frames) else 0.0,
        "cells_queried": cells_queried,
        "objects": len(scored),
        "frames": len(frames),
        "unseen_class_objects": scored.reason_count(REASON_UNSEEN_CLASS),
        "impossible_objects": scored.reason_count(REASON_IMPOSSIBLE),
    })
    echo = {"model": str(model_path), "tracks": str(tracks_path), "format": fmt,
            "out": str(out)}
    _write_manifest(out, "score", echo, timings)
    print(f"scored {len(scored)} objects over {len(frames)} frames -> {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    config = _load_config_file(args.config)
    scores_path = _resolve(args, config, "scores", None)
    gt_path = _resolve(args, config, "gt", None)
    if not scores_path or not gt_path:
        raise ScriptError("--scores and --gt are required")
    report_path = Path(_resolve(args, config, "report", "report.json"))
    started = time.perf_counter()
    scored, frames = read_scores(scores_path)
    gt = parse_ground_truth(gt_path)
    report = evaluate(scored, frames, gt)
    elapsed = time.perf_counter() - started
    echo = {"scores": str(scores_path), "gt": str(gt_path), "report": str(report_path)}
    payload = dict(report_to_dict(report), config=echo)
    report_path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    _write_manifest(report_path, "eval", echo, {"eval_seconds": elapsed})
    fmt_value = lambda v: "undefined" if v is None else f"{v:.6f}"
    print("frame_auc={} rbdc={} tbdc={} mean_rt={}".format(
        *(fmt_value(payload[k]) for k in ("frame_auc", "rbdc", "tbdc", "mean_rt"))))
    return EXIT_OK


def _cmd_explain(args) -> int:
    config = _load_config_file(args.config)
    model_path = _resolve(args, config, "model", None)
    tracks_path = _resolve(args, config, "tracks", None)
    if not model_path or not tracks_path:
        raise ScriptError("--model and --tracks are required")
    frame = _resolve(args, config, "frame", 0)
    track_id = int(_resolve(args, config, "track_id", -1))
    fmt = _resolve(args, config, "format", "jsonl")
    out = Path(_resolve(args, config, "out", "explanation.json"))
    granularity = _resolve(args, config, "granularity", "finest")

    bundle = load_bundle(model_path)
    tracks = _prepared_tracks(tracks_path, fmt, bundle)
    for det, prev_center, frame_gap in with_predecessors(tracks.detections):
        if det.track_id == track_id and det.frame_index == frame:
            scored = score_object(bundle, det, prev_center, frame_gap)
            break
    else:
        raise TrackFileError(f"no detection with track id {track_id} in frame {frame}")
    explanation = explain_object(bundle, scored)
    if granularity != "all":
        wanted = (min(bundle.cell_sizes) if granularity == "finest"
                  else int(granularity))
        explanation = dataclasses.replace(
            explanation, cells=tuple(c for c in explanation.cells if c.cell_size == wanted))
    write_explanation(explanation, out)
    echo = {"model": str(model_path), "tracks": str(tracks_path), "format": fmt,
            "frame": frame, "track_id": track_id, "granularity": str(granularity),
            "out": str(out)}
    _write_manifest(out, "explain", echo, {})
    print(f"object {track_id}@{frame}: score={scored.fused:.6f} "
          f"reason={scored.reason or 'none'} -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridvad",
        description="Video anomaly detection over tracked bounding boxes "
                    "with a discrete Bayesian network.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--script", help="scene script JSON (overrides --preset)")
    p.add_argument("--preset", choices=sorted(PRESETS), help="built-in scene")
    p.add_argument("--seed", type=int, help="override the script seed")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default data/)")
    p.add_argument("--config", help="JSON config file; flags take precedence")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit a model bundle from tracker output")
    p.add_argument("--tracks", help="training tracks file")
    p.add_argument("--format", choices=("jsonl", "mot"), help="tracks format")
    p.add_argument("--cells", type=_cell_sizes,
                   help="comma-separated cell sizes, e.g. 20,40")
    p.add_argument("--mode", choices=("spatial", "spatiotemporal"))
    p.add_argument("--slice", type=_positive_int, help="keep every k-th training frame")
    p.add_argument("--no-filter", dest="no_filter", action="store_const", const=True,
                   help="disable dynamic confidence filtering")
    p.add_argument("--box-mode", dest="box_mode", choices=("bottom", "whole"))
    p.add_argument("--fusion", choices=("mean", "min"))
    p.add_argument("--smoothing-sigma", dest="smoothing_sigma", type=float)
    p.add_argument("--out", help="bundle output path")
    p.add_argument("--dump-observations", dest="dump_observations",
                   help="also dump per-granularity observation CSVs to this prefix")
    p.add_argument("--config", help="JSON config file; flags take precedence")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score a test stream with a trained bundle")
    p.add_argument("--model", help="model bundle path")
    p.add_argument("--tracks", help="test tracks file")
    p.add_argument("--format", choices=("jsonl", "mot"))
    p.add_argument("--out", help="scores output path")
    p.add_argument("--threads", type=_positive_int,
                   help="accepted for compatibility and ignored; scoring runs on one thread")
    p.add_argument("--config", help="JSON config file; flags take precedence")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="compute frame AUC, RBDC and TBDC")
    p.add_argument("--scores", help="scores.jsonl from the score subcommand")
    p.add_argument("--gt", help="ground-truth jsonl")
    p.add_argument("--report", help="report output path")
    p.add_argument("--config", help="JSON config file; flags take precedence")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("explain", help="posterior breakdowns for one object")
    p.add_argument("--model", help="model bundle path")
    p.add_argument("--tracks", help="test tracks file")
    p.add_argument("--format", choices=("jsonl", "mot"), help="tracks format")
    p.add_argument("--frame", type=_positive_int, help="frame index of the object")
    p.add_argument("--track-id", dest="track_id", type=int, help="track id of the object")
    p.add_argument("--granularity", help='"finest" (default), "all" or a cell size')
    p.add_argument("--out", help="explanation output path")
    p.add_argument("--config", help="JSON config file; flags take precedence")
    p.set_defaults(func=_cmd_explain)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrackFileError, bn.FitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (GridConfigError, ScriptError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
