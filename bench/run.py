"""gridvad benchmark: train-long, score-ref and explain-loop.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is the ``src/`` tree next to this
directory. Inputs come from ``gridvad.synth`` with the seed and are
cached under ``.bench_work/inputs``; every run writes its scratch files
and a full result record under ``.bench_work``.

With ``--trace 0`` the run prints every end-to-end metric, measured in
fresh untraced processes. With ``--trace 1`` it prints every per-layer
metric from a traced process. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("train-long", "score-ref", "explain-loop")
TRAIN_SCALE = 5
# One fresh measuring process per SECONDS_PER_PROCESS of run time, at most
# MEASURE_PROCESSES; set-up time and peak RSS are their medians.
MEASURE_PROCESSES = 5
SECONDS_PER_PROCESS = 5
# A workload's processes must all end within this many seconds.
WORKLOAD_DEADLINE_S = 170
FRAME_AUC_FLOOR, TBDC_FLOOR = 0.90, 0.80
# The tail percentile. p99 of explain-loop's ~3,500 requests would have
# enough samples beyond it, but on a shared 2-vCPU VM it is set by host
# preemption: its ten-seed spread was 46%, against 18% for p90.
TAIL_PERCENTILE = 90.0
SHOWN_FAILURES = 10


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridvad").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def resolve_threads() -> tuple[int | None, int]:
    """(--threads to pass or None for the CLI default, thread count that results)."""
    usable = len(os.sched_getaffinity(0))
    default = os.cpu_count() or 1
    if default > usable:
        return usable, usable
    return None, default


def tail_percentile(count: int) -> float:
    """TAIL_PERCENTILE if ten of ``count`` samples lie beyond it, else 100 (the maximum)."""
    return TAIL_PERCENTILE if count * (100.0 - TAIL_PERCENTILE) / 100.0 >= 10 else 100.0


def percentile(latencies: list[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    ordered = sorted(latencies)
    rank = max(1, -(-int(p * len(ordered)) // 100))
    return ordered[rank - 1]


def _remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def _worker(args: list[str], log: Path, result: Path, deadline: float) -> dict:
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args,
                                 "--result", str(result)],
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=_remaining(deadline))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if not result.exists():
        return {"error": f"worker exited with {proc.returncode} and no result; see {log}"}
    return json.loads(result.read_text(encoding="utf-8"))


class Tally:
    """Operations and whole-run checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def prepare(seed: int, scale: int, deadline: float) -> tuple[Path, Path, Path]:
    """Cached inputs for (seed, scale), with the model and reference scores of this source tree."""
    inputs = WORK / "inputs" / f"seed{seed}-x{scale}"
    key = source_hash()
    bundle, scores = inputs / f"model-{key}.bundle", inputs / f"scores-{key}.jsonl"
    if not ((inputs / "meta.json").exists() and bundle.exists() and scores.exists()):
        inputs.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, str(BENCH / "inputs.py"), "--seed", str(seed),
                        "--scale", str(scale), "--out", str(inputs), "--bundle", str(bundle),
                        "--scores", str(scores)],
                       check=True, stdout=subprocess.DEVNULL, timeout=_remaining(deadline))
    return inputs, bundle, scores


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: int) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    inputs, bundle, reference = prepare(seed, scale, deadline)
    work = WORK / "runs" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    meta = json.loads((inputs / "meta.json").read_text(encoding="utf-8"))
    threads_arg, threads = resolve_threads()
    common = ["--workload", workload, "--inputs", str(inputs), "--work", str(work),
              "--bundle", str(bundle), "--scores", str(reference)]
    if threads_arg is not None:
        common += ["--threads", str(threads_arg)]
    tally = Tally()
    measured = []
    processes = 1 if trace else max(1, min(MEASURE_PROCESSES, int(seconds // SECONDS_PER_PROCESS)))
    spent = 0.0
    for i in range(processes):
        budget = max(0.0, seconds - spent) / (processes - i)
        res = _worker([*common, "--budget", f"{budget:.3f}",
                       "--trace", str(int(trace))],
                      work / f"measure{i}.log", work / f"measure{i}.json", deadline)
        tally.check("error" not in res, f"measuring process {i}: {res.get('error')}")
        samples = res.get("samples", [])
        spent += sum(s[0] for s in samples)
        tally.attempted += len(samples)
        tally.failures += res.get("failures", [])
        eval_exits = res.get("eval_exits", [])
        tally.attempted += len(eval_exits)
        tally.failures += [f"gridvad eval exited with {c}" for c in eval_exits if c != 0]
        measured.append(res)

    reports = [res["report"] for res in measured if "report" in res]
    report = reports[0] if reports else {}
    tally.check(len(reports) == len(measured) and all(r == report for r in reports),
                "eval reports missing or differing between processes")
    tally.check(report.get("frame_auc") is not None and report["frame_auc"] >= FRAME_AUC_FLOOR,
                f"frame AUC {report.get('frame_auc')} below {FRAME_AUC_FLOOR}")
    tally.check(report.get("tbdc") is not None and report["tbdc"] >= TBDC_FLOOR,
                f"TBDC {report.get('tbdc')} below {TBDC_FLOOR}")

    hashes = [h for res in measured for h in res.get("hashes", [])]
    expected = {"train-long": (bundle, "model trained"),
                "score-ref": (reference, "--threads 1 scores written")}.get(workload)
    if expected is not None:
        digest = hashlib.sha256(expected[0].read_bytes()).hexdigest()
        tally.check(set(hashes) == {digest},
                    f"{len(set(hashes) - {digest})} distinct outputs differ from the cached "
                    f"{expected[1]} by the same source tree ({expected[0].name})")
    if workload == "explain-loop":
        reasons = set().union(*(res.get("reasons", []) for res in measured))
        tally.check({"unseen-class", "impossible-evidence"} <= reasons,
                    f"object mix lacks an unseen-class or impossible-evidence object: {reasons}")

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "scale": scale, "threads": threads, "nproc": len(os.sched_getaffinity(0)),
              "cpu_count": os.cpu_count(), "python": measured[0].get("python"),
              "numpy": measured[0].get("numpy"), "gridvad": measured[0].get("gridvad"),
              "train_detections": meta["train_detections"],
              "test_detections": meta["test_detections"],
              "attempted": tally.attempted, "failures": tally.failures,
              "report": report}
    if trace:
        layers = measured[0].get("layers", {})
        record["passes"] = measured[0].get("passes", 0)
        units = _units("per_layer")
        record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        record["metrics"] = end_to_end(measured, report, record)
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def end_to_end(measured: list[dict], report: dict, record: dict) -> dict:
    samples = [s for res in measured for s in res.get("samples", [])]
    latencies = [s[0] for s in samples]
    units = _units("end_to_end")
    values = {name: 0.0 for name in units}
    if samples:
        values["det_per_s"] = sum(s[1] for s in samples) / sum(latencies)
        values["op_ms_p50"] = statistics.median(latencies) * 1e3
        record["tail_percentile"] = p = tail_percentile(len(latencies))
        values["op_ms_tail"] = percentile(latencies, p) * 1e3
    record["operations"] = len(samples)
    record["samples_per_process"] = [len(res.get("samples", [])) for res in measured]
    setups = [res["setup_s"] for res in measured if "setup_s" in res]
    if setups:
        values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = statistics.median(
        res.get("peak_rss_kb", 0) for res in measured) / 1024.0
    evals = [w for res in measured for w in res.get("eval_s", [])]
    if evals:
        values["eval_s"] = statistics.median(evals)
    values["frame_auc"] = report.get("frame_auc") or 0.0
    values["mean_rt"] = report.get("mean_rt") or 0.0
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def print_record(record: dict) -> None:
    errors = len(record["failures"])
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"threads={record['threads']} nproc={record['nproc']} "
          f"cpu_count={record['cpu_count']} python={record['python']} "
          f"numpy={record['numpy']} train_detections={record['train_detections']} "
          f"test_detections={record['test_detections']}")
    if not record["trace"]:
        print(f"#   operations={record['operations']}, per process "
              f"{record['samples_per_process']}; "
              f"tail=p{record.get('tail_percentile'):g} of {record['operations']}")
    else:
        print(f"#   traced passes={record['passes']}")
    print(f"#   error_rate={errors / max(1, record['attempted']):.6f} "
          f"({errors} of {record['attempted']})")
    for failure in record["failures"][:SHOWN_FAILURES]:
        print(f"#   FAILED: {failure.strip().splitlines()[-1]}")
    if errors > SHOWN_FAILURES:
        print(f"#   ... and {errors - SHOWN_FAILURES} more in the result record")
    for name, m in record["metrics"].items():
        print(f"{record['workload']} {name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gridvad benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=TRAIN_SCALE,
                        help="training split length, in reference training splits")
    args = parser.parse_args(argv)
    if not (SRC / "gridvad" / "__init__.py").is_file():
        print(f"error: no gridvad source tree at {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.scale)
               for w in names]
    for record in records:
        print_record(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(len(r["failures"]) for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
