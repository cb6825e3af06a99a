"""gridvad command line: synth, train, score, eval and explain subcommands.

Each option is declared once, in :func:`build_parser`, with its type,
choices and default. A ``--config`` JSON file names options by dest
(``out_dir``); each value goes through its flag's own type and choices and
becomes the subcommand's default, so explicit flags win.

Every subcommand writes its artifact plus a ``<artifact>.manifest.json``
sidecar echoing the resolved options, wall-clock timings and library
versions. Artifacts contain no timestamps, so reruns with identical inputs
are byte-identical.

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

from . import __version__, bn, featurize, pipeline, synth
from .explain import explain_object, write_explanation
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
from .synth import ScriptError

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE = 0, 1, 2

PRESETS = {
    "reference": synth.reference_script,
    "temporal": synth.temporal_anomaly_script,
    "occlusion": synth.occlusion_script,
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


def _granularity(text: str) -> str:
    """``finest``, ``all`` or a positive cell size, kept as given."""
    if text not in ("finest", "all"):
        _positive_int(text)
    return text


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action, key: str, value):
    """A config-file value passed through its flag's own action, or a usage error
    naming the key. A value is the flag's text; a switch takes ``true`` or ``false``,
    the numeric flags also a JSON number of their type and ``cells`` a list."""
    if action.nargs == 0:
        if type(value) is not bool:
            raise ScriptError(f"config key {key!r} must be true or false")
        return action.const if value else action.default
    if type(value) is list and action.type is _cell_sizes:
        value = ",".join(map(str, value))
    elif (type(value) is int and action.type in (int, float, _positive_int, _granularity)
          or type(value) is float and action.type is float):
        value = str(value)
    if not isinstance(value, str):
        raise ScriptError(f"config key {key!r} has the wrong type {type(value).__name__}")
    try:
        # the type conversion and choices check argparse gives the flag's text
        return parser._get_values(action, [value])
    except argparse.ArgumentError as exc:
        raise ScriptError(f"config key {key!r}: {exc.message}") from None


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """A subcommand's ``--config`` file as defaults for its options, by dest."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScriptError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ScriptError(f"config file {path} must hold a JSON object")
    actions = {action.dest: action for action in parser._actions
               if action.option_strings and action.dest not in ("help", "config")}
    defaults = {}
    for key, value in config.items():
        if key not in actions:
            raise ScriptError(f"config key {key!r} is not a {parser.prog} option")
        defaults[key] = _config_value(parser, actions[key], key, value)
    return defaults


def _require(args, *flags: str) -> None:
    """A usage error unless every flag has a value, from the command line or ``--config``."""
    if any(getattr(args, flag[2:].replace("-", "_")) is None for flag in flags):
        raise ScriptError(f"{' and '.join(flags)} {'are' if len(flags) > 1 else 'is'} required")


def _echo(args, **resolved) -> dict:
    """A run's options for its manifest, in declaration order, updated by ``resolved``."""
    echo = {key: str(value) if isinstance(value, Path) else value
            for key, value in vars(args).items()
            if key not in ("command", "func", "config", "threads")}
    return {**echo, **resolved}


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


def _prepared_tracks(path: str, fmt: str, bundle: pipeline.ModelBundle) -> TrackSet:
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
    script = synth.load_script(args.script) if args.script else PRESETS[args.preset]()
    if args.seed is not None:
        script = dataclasses.replace(script, seed=args.seed)
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    train_tracks, test_tracks, gt = synth.generate_scene(script)
    elapsed = time.perf_counter() - started
    write_tracks(train_tracks, out_dir / "train_tracks.jsonl")
    write_tracks(test_tracks, out_dir / "test_tracks.jsonl")
    write_ground_truth(gt, out_dir / "gt.jsonl")
    synth.save_script(script, out_dir / "scene.json")
    echo = _echo(args, preset=None if args.script else args.preset, seed=script.seed)
    _write_manifest(out_dir / "scene.json", "synth", echo,
                    {"generate_seconds": elapsed,
                     "train_detections": len(train_tracks.detections),
                     "test_detections": len(test_tracks.detections),
                     "gt_regions": len(gt.regions)})
    print(f"wrote {out_dir}/train_tracks.jsonl, test_tracks.jsonl, gt.jsonl "
          f"({len(gt.regions)} ground-truth regions)")
    return EXIT_OK


def _cmd_train(args) -> int:
    _require(args, "--tracks")
    tracks = parse_tracks(args.tracks, args.format)
    if args.no_filter:
        thresholds = ConfidenceThresholds(0.0, 0.0)
    else:
        # thresholds come from the full training distribution, before slicing
        thresholds = compute_confidence_thresholds(tracks)
        tracks = filter_detections(tracks, thresholds)
    if args.slice > 1:
        tracks = slice_frames(tracks, args.slice)

    train_config = pipeline.TrainConfig(cell_sizes=args.cells, kind=args.mode,
                                        box_mode=args.box_mode, fusion=args.fusion,
                                        smoothing_sigma=args.smoothing_sigma)
    timings: dict = {}
    tables: dict | None = {} if args.dump_observations else None
    started = time.perf_counter()
    bundle = pipeline.train(train_config, tracks, thresholds, timings=timings, tables=tables)
    total = time.perf_counter() - started
    pipeline.save_bundle(bundle, args.out)
    for cell_size, table in (tables or {}).items():
        dump = Path(f"{args.dump_observations}.{cell_size}.csv")
        with open(dump, "w", encoding="utf-8", newline="") as fh:
            table.write_csv(fh)
    echo = _echo(args, thresholds={"person": thresholds.person_threshold,
                                   "other": thresholds.other_threshold})
    timings["total_seconds"] = total
    _write_manifest(args.out, "train", echo, timings)
    fit_summary = ", ".join(f"{cs}px: {sec:.4f}s"
                            for cs, sec in timings.get("fit_seconds", {}).items())
    print(f"trained {len(bundle.granularities)} granularities on "
          f"{len(tracks.detections)} detections ({fit_summary})")
    return EXIT_OK


def _cmd_score(args) -> int:
    _require(args, "--model", "--tracks")
    bundle = pipeline.load_bundle(args.model)
    tracks = _prepared_tracks(args.tracks, args.format, bundle)
    timings: dict = {}
    started = time.perf_counter()
    scored, frames = pipeline.score_frames(bundle, tracks, timings=timings)
    elapsed = time.perf_counter() - started
    started = time.perf_counter()
    pipeline.write_scores(args.out, scored, frames)
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
        "unseen_class_objects": scored.reason_count(pipeline.REASON_UNSEEN_CLASS),
        "impossible_objects": scored.reason_count(pipeline.REASON_IMPOSSIBLE),
    })
    _write_manifest(args.out, "score", _echo(args), timings)
    print(f"scored {len(scored)} objects over {len(frames)} frames -> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    _require(args, "--scores", "--gt")
    started = time.perf_counter()
    scored, frames = pipeline.read_scores(args.scores)
    gt = parse_ground_truth(args.gt, len(frames))
    report = evaluate(scored, frames, gt)
    elapsed = time.perf_counter() - started
    echo = _echo(args)
    payload = dict(report_to_dict(report), config=echo)
    args.report.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    _write_manifest(args.report, "eval", echo, {"eval_seconds": elapsed})
    fmt_value = lambda v: "undefined" if v is None else f"{v:.6f}"
    print("frame_auc={} rbdc={} tbdc={} mean_rt={}".format(
        *(fmt_value(payload[k]) for k in ("frame_auc", "rbdc", "tbdc", "mean_rt"))))
    return EXIT_OK


def _cmd_explain(args) -> int:
    _require(args, "--model", "--tracks", "--frame", "--track-id")
    bundle = pipeline.load_bundle(args.model)
    sizes = {"all": bundle.cell_sizes, "finest": (min(bundle.cell_sizes),)}.get(
        args.granularity) or (int(args.granularity),)
    if not set(sizes) <= set(bundle.cell_sizes):
        raise ScriptError(f"--granularity {args.granularity}: the bundle has cell sizes "
                          f"{', '.join(map(str, bundle.cell_sizes))}")
    tracks = _prepared_tracks(args.tracks, args.format, bundle)
    d = tracks.detections
    rows = np.flatnonzero((d.frame == args.frame) & (d.track_id == args.track_id))
    if not rows.size:
        raise TrackFileError(f"no detection with track id {args.track_id} "
                             f"in frame {args.frame}")
    # the predecessor train and score pair with this row
    row, stream = int(rows[0]), featurize.stream_columns(d, featurize.SPATIAL)
    prev = int(stream.prev[row])
    motion = (None, None) if prev < 0 else (tuple(stream.center[prev].tolist()),
                                            int(stream.gap[row]))
    scored = pipeline.score_object(bundle, d[row], *motion)
    # the score comes from every granularity, the breakdowns only from those asked for
    explanation = explain_object(dataclasses.replace(bundle, granularities=tuple(
        g for g in bundle.granularities if g.grid.cell_size in sizes)), scored)
    write_explanation(explanation, args.out)
    _write_manifest(args.out, "explain", _echo(args), {})
    print(f"object {args.track_id}@{args.frame}: score={scored.fused:.6f} "
          f"reason={scored.reason or 'none'} -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Every option once, with its type, choices and default; ``--help`` shows them."""
    parser = argparse.ArgumentParser(
        prog="gridvad",
        description="Video anomaly detection over tracked bounding boxes "
                    "with a discrete Bayesian network.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help="JSON object of option values; flags win")
        p.set_defaults(func=func)
        return p

    def tracks_options(p: argparse.ArgumentParser, help: str) -> None:
        p.add_argument("--tracks", help=help)
        p.add_argument("--format", choices=("jsonl", "mot"), default="jsonl",
                       help="tracks format")

    p = command("synth", _cmd_synth, "generate a synthetic scene")
    p.add_argument("--script", help="scene script JSON (overrides --preset)")
    p.add_argument("--preset", choices=sorted(PRESETS), default="reference",
                   help="built-in scene")
    p.add_argument("--seed", type=int, help="override the script seed")
    p.add_argument("--out-dir", dest="out_dir", type=Path, default="data",
                   help="output directory")

    p = command("train", _cmd_train, "fit a model bundle from tracker output")
    tracks_options(p, "training tracks file")
    p.add_argument("--cells", type=_cell_sizes, default="20,40",
                   help="comma-separated cell sizes")
    p.add_argument("--mode", choices=featurize.MODEL_KINDS, default=featurize.SPATIOTEMPORAL,
                   help="model kind")
    p.add_argument("--slice", type=_positive_int, default=1,
                   help="keep every k-th training frame")
    p.add_argument("--no-filter", dest="no_filter", action="store_true",
                   help="disable dynamic confidence filtering")
    p.add_argument("--box-mode", dest="box_mode", choices=featurize.BOX_MODES,
                   default=featurize.BOX_MODE_BOTTOM,
                   help="grid cells from the box's bottom edge or the whole box")
    p.add_argument("--fusion", choices=pipeline.FUSION_RULES, default=pipeline.FUSION_MEAN,
                   help="how granularity scores are fused")
    p.add_argument("--smoothing-sigma", dest="smoothing_sigma", type=float, default=5.0,
                   help="Gaussian sigma, in frames, of the frame-score smoothing")
    p.add_argument("--out", type=Path, default="model.bundle", help="bundle output path")
    p.add_argument("--dump-observations", dest="dump_observations",
                   help="also dump per-granularity observation CSVs to this prefix")

    p = command("score", _cmd_score, "score a test stream with a trained bundle")
    p.add_argument("--model", help="model bundle path")
    tracks_options(p, "test tracks file")
    p.add_argument("--out", type=Path, default="scores.jsonl", help="scores output path")
    p.add_argument("--threads", type=_positive_int,
                   help="accepted for compatibility and ignored; scoring runs on one thread")

    p = command("eval", _cmd_eval, "compute frame AUC, RBDC and TBDC")
    p.add_argument("--scores", help="scores.jsonl from the score subcommand")
    p.add_argument("--gt", help="ground-truth jsonl")
    p.add_argument("--report", type=Path, default="report.json", help="report output path")

    p = command("explain", _cmd_explain, "posterior breakdowns for one object")
    p.add_argument("--model", help="model bundle path")
    tracks_options(p, "test tracks file")
    p.add_argument("--frame", type=_positive_int, help="frame index of the object")
    p.add_argument("--track-id", dest="track_id", type=int, help="track id of the object")
    p.add_argument("--granularity", type=_granularity, default="finest",
                   help='"finest", "all" or a cell size of the bundle')
    p.add_argument("--out", type=Path, default="explanation.json", help="explanation output path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the subcommand's defaults, so flags still win
            command = parser._subparsers._group_actions[0].choices[args.command]
            command.set_defaults(**_config_defaults(command, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (TrackFileError, bn.FitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (featurize.GridConfigError, ScriptError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
