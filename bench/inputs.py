"""Benchmark inputs, generated from the workload seed and cached on disk.

Run as ``python3 bench/inputs.py --seed N --scale K --out DIR --bundle PATH --scores PATH``.

The scene is ``gridvad.synth.reference_script(seed)`` with the training
split lengthened ``scale`` times; the test split is the reference one.
Besides the track and ground-truth files it writes ``objects.json``, the
explain-loop's fixed object mix chosen from the ground truth, and
``meta.json`` with row counts. It then trains the model that score-ref
and explain-loop use (``--bundle``), through the command line and with
train-long's settings, and scores the test split with it and one thread
(``--scores``): the reference that every run's scores must match byte
for byte and that every run evaluates. None of this is timed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import shutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CELL_SIZES = (20, 40)
TRAIN_ARGS = ["--cells", ",".join(map(str, CELL_SIZES)), "--slice", "3",
              "--mode", "spatiotemporal"]

# Requests per injected anomaly: one injection per anomaly kind, among them
# the unseen class 17 and the impossible-location walker.
ANOMALOUS_PER_INJECTION = 4
# Normal requests per (class, bottom-edge cells summed over both grids).
# A request's cost grows with its cell count, so fixed counts keep the
# latency distribution the same on every seed: the median request is a
# 4-cell walker, and the slowest 10% are 9- and 10-cell cars.
NORMAL_MIX = {(1, 3): 10, (1, 4): 14, (1, 5): 4, (3, 8): 6, (3, 9): 3, (3, 10): 3}


def _gridvad():
    sys.path.insert(0, str(SRC))
    import gridvad
    return gridvad


def choose_objects(test, gt, thresholds, seed: int) -> list[dict]:
    """A seeded mix of injected-anomaly and normal detections, in stream order.

    Anomalies are picked from the ground truth's regions, normal objects
    by class and cell count; no score is consulted.
    """
    from gridvad.featurize import bottom_edge_cells, build_grid

    grids = [build_grid(test.resolution, size) for size in CELL_SIZES]
    rng = random.Random(seed)
    kept = [d for d in test.detections if d.confidence >= thresholds.for_class(d.class_id)]
    anomalous_keys = {(r.frame, r.box): r.gt_id for r in gt.regions}
    by_gt: dict[int, list] = {}
    normal: dict[tuple[int, int], list] = {}
    for det in kept:
        gt_id = anomalous_keys.get((det.frame_index, det.box))
        if gt_id is not None:
            by_gt.setdefault(gt_id, []).append(det)
        else:
            cells = sum(len(bottom_edge_cells(det.box, grid)) for grid in grids)
            normal.setdefault((det.class_id, cells), []).append(det)
    chosen = []
    for gt_id in sorted(by_gt):
        for det in rng.sample(by_gt[gt_id], ANOMALOUS_PER_INJECTION):
            chosen.append((det, f"anomaly-{gt_id}"))
    for (class_id, cells), count in NORMAL_MIX.items():
        for det in rng.sample(normal.get((class_id, cells), []), count):
            chosen.append((det, f"normal-{class_id}-{cells}cells"))
    chosen.sort(key=lambda item: (item[0].frame_index, item[0].track_id))
    return [{"frame": d.frame_index, "track_id": d.track_id, "kind": kind}
            for d, kind in chosen]


def write_inputs(seed: int, scale: int, out: Path) -> None:
    gridvad = _gridvad()
    from gridvad.ingest import (compute_confidence_thresholds, write_ground_truth,
                                write_tracks)
    from gridvad.synth import generate_scene, reference_script

    script = reference_script(seed)
    script = dataclasses.replace(script, train_frames=script.train_frames * scale)
    train, test, gt = generate_scene(script)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    write_tracks(train, tmp / "train_tracks.jsonl")
    write_tracks(test, tmp / "test_tracks.jsonl")
    write_ground_truth(gt, tmp / "gt.jsonl")
    objects = choose_objects(test, gt, compute_confidence_thresholds(train), seed)
    (tmp / "objects.json").write_text(json.dumps(objects, indent=1), encoding="utf-8")
    meta = {"seed": seed, "scale": scale, "gridvad": gridvad.__version__,
            "train_detections": len(train.detections),
            "test_detections": len(test.detections), "gt_regions": len(gt.regions)}
    (tmp / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)


def _cli(argv: list[str], out: Path) -> None:
    """Run one gridvad command that writes ``out``, atomically and without its manifest."""
    _gridvad()
    from gridvad.cli import main

    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    code = main([*argv, "--out", str(tmp)])
    if code != 0:
        raise SystemExit(f"gridvad {argv[0]} exited with {code} while preparing inputs")
    tmp.rename(out)
    Path(str(tmp) + ".manifest.json").unlink()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--bundle", type=Path, required=True)
    parser.add_argument("--scores", type=Path, required=True)
    args = parser.parse_args()
    if not (args.out / "meta.json").exists():
        write_inputs(args.seed, args.scale, args.out)
    if not args.bundle.exists():
        _cli(["train", "--tracks", str(args.out / "train_tracks.jsonl"), *TRAIN_ARGS],
             args.bundle)
    if not args.scores.exists():
        _cli(["score", "--model", str(args.bundle), "--tracks",
              str(args.out / "test_tracks.jsonl"), "--threads", "1"], args.scores)
    return 0


if __name__ == "__main__":
    sys.exit(main())
