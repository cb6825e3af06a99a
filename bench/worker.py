"""One measuring process of the benchmark; ``bench/run.py`` starts it.

It runs one workload as a closed loop with a single caller
until its time budget is spent, at least once. Its set-up time runs from
this file's first statement to the first timed operation: importing
gridvad, plus explain-loop's bundle load, parse and object lookup. With
``--trace 1`` it alternates untraced and traced passes instead and
reports per-layer numbers per traced pass.

After its loop and before any eval, it reads its peak RSS; then it times
``EVALS_PER_PROCESS`` ``gridvad eval`` calls on the reference scores
(see ``inputs.py``), so the eval samples of a run are spread over all
its processes. The last eval's report gives the model's detection
quality.

The result goes to ``--result`` as JSON; the program's own console
output goes wherever the parent sent this process's stdout.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import gridvad  # noqa: E402
import numpy as np  # noqa: E402
# Calls go through the module attributes so traced passes reach the wrappers.
from gridvad import cli, explain, ingest, pipeline  # noqa: E402
from gridvad.featurize import box_center  # noqa: E402

from inputs import TRAIN_ARGS  # noqa: E402
import tracing  # noqa: E402

if Path(gridvad.__file__).resolve().parent != (SRC / "gridvad").resolve():
    raise SystemExit(f"imported gridvad from {gridvad.__file__}, not from {SRC}")

EVALS_PER_PROCESS = 7


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """One closed-loop operation; ``op`` is timed, ``check`` is not."""

    tracer: tracing.Tracer | None = None

    def __init__(self, inputs: Path, work: Path, bundle: Path, threads: int | None):
        self.inputs, self.work, self.bundle, self.threads = inputs, work, bundle, threads
        self.meta = json.loads((inputs / "meta.json").read_text(encoding="utf-8"))
        self.hashes: list[str] = []

    def setup(self) -> None:
        pass

    def cli(self, argv: list[str]) -> int:
        if self.tracer is not None:
            with self.tracer.span(f"cli.{argv[0]}"):
                return cli.main(argv)
        return cli.main(argv)

    def traced_pass(self, index: int) -> None:
        self.op(index)
        failure = self.check(index)
        if failure:
            raise RuntimeError(failure)

    def sizes(self) -> dict:
        return {}


class TrainLong(Workload):
    def op(self, index: int) -> int:
        self.code = self.cli(["train", "--tracks", str(self.inputs / "train_tracks.jsonl"),
                              *TRAIN_ARGS, "--out", str(self.work / "model.bundle")])
        return self.meta["train_detections"]

    def check(self, index: int) -> str | None:
        if self.code != 0:
            return f"gridvad train exited with {self.code}"
        self.hashes.append(_sha256(self.work / "model.bundle"))
        return None

    def sizes(self) -> dict:
        return {"bundle": (self.work / "model.bundle").stat().st_size}


class ScoreRef(Workload):
    def op(self, index: int) -> int:
        argv = ["score", "--model", str(self.bundle),
                "--tracks", str(self.inputs / "test_tracks.jsonl"),
                "--out", str(self.work / "scores.jsonl")]
        if self.threads is not None:
            argv += ["--threads", str(self.threads)]
        self.code = self.cli(argv)
        return self.meta["test_detections"]

    def check(self, index: int) -> str | None:
        if self.code != 0:
            return f"gridvad score exited with {self.code}"
        self.hashes.append(_sha256(self.work / "scores.jsonl"))
        return None

    def traced_pass(self, index: int) -> None:
        super().traced_pass(index)
        code = self.cli(["eval", "--scores", str(self.work / "scores.jsonl"),
                         "--gt", str(self.inputs / "gt.jsonl"),
                         "--report", str(self.work / "report.json")])
        if code != 0:
            raise RuntimeError(f"gridvad eval exited with {code}")

    def sizes(self) -> dict:
        return {"bundle": self.bundle.stat().st_size,
                "scores": (self.work / "scores.jsonl").stat().st_size}


class ExplainLoop(Workload):
    """score_object -> explain_object -> write_explanation per request,
    the work ``gridvad explain`` does once it has located the object."""

    def setup(self) -> None:
        wanted = [(o["frame"], o["track_id"])
                  for o in json.loads((self.inputs / "objects.json").read_text(encoding="utf-8"))]
        self.model = pipeline.load_bundle(self.bundle)
        tracks = ingest.filter_detections(
            ingest.parse_tracks(self.inputs / "test_tracks.jsonl"), self.model.thresholds)
        found = {}
        last = {}
        targets = set(wanted)
        for det in tracks.detections:
            if (det.frame_index, det.track_id) in targets:
                prev = last.get(det.track_id)
                found[det.frame_index, det.track_id] = (
                    (det, None, None) if prev is None else
                    (det, box_center(prev.box), det.frame_index - prev.frame_index))
            last[det.track_id] = det
        missing = targets - set(found)
        if missing:
            raise RuntimeError(f"objects missing from the test stream: {sorted(missing)[:5]}")
        self.requests = [found[key] for key in wanted]
        self.reasons: set = set()

    def op(self, index: int) -> int:
        det, prev_center, gap = self.requests[index % len(self.requests)]
        self.scored = pipeline.score_object(self.model, det, prev_center, gap)
        self.explanation = explain.explain_object(self.model, self.scored)
        explain.write_explanation(self.explanation, self.work / "explanation.json")
        return 1

    def check(self, index: int) -> str | None:
        scored, explanation = self.scored, self.explanation
        self.reasons.add(scored.reason)
        if scored.reason == pipeline.REASON_UNSEEN_CLASS:
            if scored.fused != 0.0 or any(c.class_score != 0.0 for c in explanation.cells):
                return f"unseen-class object {scored.track_id}@{scored.frame} scored above 0"
            return None
        for cell_size, cell_scores in scored.per_cell.items():
            explained = [c.class_score for c in explanation.cells if c.cell_size == cell_size]
            if explained != [c.probability for c in cell_scores]:
                return (f"object {scored.track_id}@{scored.frame}: explanation class scores "
                        f"differ from the scored per-cell probabilities at {cell_size}px")
        return None

    def traced_pass(self, index: int) -> None:
        self.setup()
        for i in range(len(self.requests)):
            super().traced_pass(i)

    def sizes(self) -> dict:
        return {"bundle": self.bundle.stat().st_size}


WORKLOADS = {"train-long": TrainLong, "score-ref": ScoreRef, "explain-loop": ExplainLoop}


def measure(wl: Workload, budget: float, result: dict) -> None:
    samples, failures = [], []
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < budget:
        t = time.perf_counter()
        try:
            items = wl.op(index)
            elapsed = time.perf_counter() - t
            failure = wl.check(index)
        except Exception:  # a raised request is a failed operation; keep measuring
            elapsed = time.perf_counter() - t
            items, failure = 0, traceback.format_exc(limit=3)
        samples.append([elapsed, 0 if failure else items])
        if failure:
            failures.append(failure)
        index += 1
    result.update(samples=samples, failures=failures, hashes=wl.hashes,
                  reasons=sorted(str(r) for r in getattr(wl, "reasons", ())))


def measure_traced(wl: Workload, budget: float, result: dict) -> None:
    """Alternate untraced and traced passes; layer numbers are per traced pass."""
    tracer = tracing.Tracer()
    tracer.install()
    untraced, traced, failures = [], [], []
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < budget:
        for on, walls in ((False, untraced), (True, traced)):
            if on:
                tracer.op = index
                tracer.enable()
                wl.tracer = tracer
            t = time.perf_counter()
            try:
                wl.traced_pass(index)
            except Exception:
                failures.append(traceback.format_exc(limit=3))
            finally:
                walls.append(time.perf_counter() - t)
                tracer.disable()
                wl.tracer = None
        index += 1
    tracer.write(wl.work / "spans.jsonl")
    layers = tracing.layer_metrics(tracer.spans, len(traced), wl.sizes())
    base = statistics.median(untraced)
    overhead = statistics.median(traced) - base
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_ratio"] = overhead / base
    result.update(samples=[[w, 0] for w in untraced + traced], failures=failures,
                  hashes=wl.hashes,
                  layers=layers, passes=len(traced), untraced_pass_s=untraced,
                  traced_pass_s=traced,
                  reasons=sorted(str(r) for r in getattr(wl, "reasons", ())))


def time_evals(args, result: dict) -> None:
    """``gridvad eval`` on the reference scores, timed; spread over the run's processes."""
    walls, codes = [], []
    report = args.work / "report.json"
    for _ in range(EVALS_PER_PROCESS):
        t = time.perf_counter()
        codes.append(cli.main(["eval", "--scores", str(args.scores),
                               "--gt", str(args.inputs / "gt.jsonl"),
                               "--report", str(report)]))
        walls.append(time.perf_counter() - t)
    result.update(eval_s=walls, eval_exits=codes)
    if codes[-1] == 0:
        payload = json.loads(report.read_text(encoding="utf-8"))
        result["report"] = {k: payload[k] for k in ("frame_auc", "rbdc", "tbdc", "mean_rt")}


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark measuring process")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--bundle", type=Path, required=True)
    parser.add_argument("--scores", type=Path, required=True, help="reference scores")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--budget", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    result = {"python": platform.python_version(), "numpy": np.__version__,
              "gridvad": gridvad.__version__}
    try:
        wl = WORKLOADS[args.workload](args.inputs, args.work, args.bundle, args.threads)
        wl.setup()
        result["setup_s"] = time.perf_counter() - _T0
        if args.trace:
            measure_traced(wl, args.budget, result)
        else:
            measure(wl, args.budget, result)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        time_evals(args, result)
    except Exception:
        result["error"] = traceback.format_exc()
    result.setdefault("peak_rss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
