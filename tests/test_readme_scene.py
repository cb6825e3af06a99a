"""The README quick-start scene, pinned byte for byte.

Every artifact of ``synth --preset reference --seed 42`` and the commands
after it is hashed and compared with the SHA-256 digests in
``readme_scene.sha256.json``. A change that alters these bytes on purpose
records new digests in the same commit and says why in CHANGES.md.

The digests bind only under the Python (major.minor) and numpy versions
recorded beside them: the bundles carry class statistics reduced by
numpy's pairwise sums, and the explanations' posteriors normalised by
``np.einsum`` and ``ndarray.sum``, whose rounding may change between
numpy releases. The smoothed frame scores of ``scores.jsonl``, and the
frame AUC of ``report.json`` read from them, also pass through ``np.exp``
and ``np.convolve``, whose kernels numpy picks by CPU (SIMD ``exp``, BLAS
dot products). On a CPU where ``gaussian_smooth`` of a fixed probe gives
other bits than it did where the digests were recorded, those files are
left out and the rest still has to match.

To record the digests: ``python tests/test_readme_scene.py`` from the
repository root, with ``src`` on the path.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gridvad.cli import main
from gridvad.pipeline import gaussian_smooth

DIGESTS = Path(__file__).with_name("readme_scene.sha256.json")
EXPLAINED = ((75, 0), (75, 1), (75, 18), (75, 32))
# the files whose bytes pass through the CPU-dispatched smoothing kernels
SMOOTHED = ("scores.jsonl", "spatial_scores.jsonl", "report.json")


def run_scene() -> list[str]:
    """Run the quick start in the working directory; returns the pinned files in order.

    Artifacts echo their configuration, paths included, so every command
    takes paths relative to that directory.
    """
    steps = [
        ["synth", "--preset", "reference", "--seed", "42", "--out-dir", "data"],
        ["train", "--tracks", "data/train_tracks.jsonl", "--cells", "40,80", "--slice", "3",
         "--mode", "spatiotemporal", "--out", "model.bundle"],
        ["train", "--tracks", "data/train_tracks.jsonl", "--cells", "40", "--mode", "spatial",
         "--out", "spatial.bundle"],
        ["score", "--model", "model.bundle", "--tracks", "data/test_tracks.jsonl",
         "--out", "scores.jsonl"],
        ["score", "--model", "spatial.bundle", "--tracks", "data/test_tracks.jsonl",
         "--out", "spatial_scores.jsonl"],
        ["eval", "--scores", "scores.jsonl", "--gt", "data/gt.jsonl", "--report", "report.json"],
    ]
    files = ["model.bundle", "spatial.bundle", "scores.jsonl", "spatial_scores.jsonl",
             "report.json"]
    for frame, track in EXPLAINED:
        out = f"explain_{frame}_{track}.json"
        steps.append(["explain", "--model", "model.bundle", "--tracks", "data/test_tracks.jsonl",
                      "--frame", str(frame), "--track-id", str(track), "--granularity", "all",
                      "--out", out])
        files += [out, f"explain_{frame}_{track}.plot.json"]
    for argv in steps:
        assert main(argv) == 0, f"gridvad {' '.join(argv)} failed"
    return files


def smoothing_probe() -> str:
    values = (np.arange(200) % 17) / 17.0
    return hashlib.sha256(gaussian_smooth(values, 5.0).tobytes()).hexdigest()


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def digests(root: Path, files: list[str]) -> dict[str, str]:
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in files}


def test_readme_scene_matches_recorded_digests(tmp_path, monkeypatch):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    here = versions()
    for name in ("python", "numpy"):
        have, want = here[name], recorded[name]
        if name == "python":
            have, want = have.rsplit(".", 1)[0], want.rsplit(".", 1)[0]
        if have != want:
            pytest.skip(f"digests were recorded under {name} {recorded[name]}, "
                        f"this is {here[name]}")
    monkeypatch.chdir(tmp_path)
    files = run_scene()
    assert files == list(recorded["files"]), "the pinned file list changed"
    if smoothing_probe() != recorded["smoothing_probe"]:
        files = [name for name in files if name not in SMOOTHED]
    actual = digests(tmp_path, files)
    for name in files:
        assert actual[name] == recorded["files"][name], \
            f"{name} is the first file whose bytes differ from the recorded digest"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            pinned = run_scene()
            payload = {**versions(), "smoothing_probe": smoothing_probe(),
                       "files": digests(Path(scratch), pinned)}
        finally:
            os.chdir(cwd)
    DIGESTS.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS} ({len(pinned)} files)", file=sys.stderr)
