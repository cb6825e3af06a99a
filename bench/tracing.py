"""Spans around calls into gridvad's modules, installed from outside the package.

Each traced function is replaced in its defining module and in every
gridvad module that imported it by name (``from .ingest import
parse_tracks``), so both ``cli.parse_tracks(...)`` and
``bn.eliminate(...)`` reach the wrapper. ``enable()`` swaps the wrappers
in and ``disable()`` puts the original functions back, so untraced
passes run the unmodified program.

A span records its name, start, end, parent span, thread id, the thread
CPU time it used, the pass (request) it belongs to and one count taken
from the result (rows parsed, observations made, impossible posterior).
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple


def _rows(result) -> int:
    return len(result.detections)


def _impossible(result) -> int:
    return int(result.impossible)


# module -> {function: count taken from its result, or None}
TRACED = {
    "ingest": {"parse_tracks": _rows, "compute_confidence_thresholds": None,
               "filter_detections": _rows, "slice_frames": _rows,
               "parse_ground_truth": None},
    "featurize": {"fit_discretizer": None,
                  "generate_observations": lambda table: len(table.rows)},
    "bn": {"fit_mle": None, "class_cpt_query": _impossible, "eliminate": _impossible},
    "pipeline": {"train": None, "observation_columns": None, "score_frames": None,
                 "score_object": None, "object_evidence": None, "save_bundle": None,
                 "load_bundle": None, "write_scores": None, "read_scores": None},
    "metrics": {"evaluate": None, "detection_curves": None},
    "explain": {"explain_object": None, "explain_cell": None, "write_explanation": None},
}

# class_cpt_query is a checked call of eliminate; a call that bn makes to
# itself is not a call into the layer, so it opens no span. Calls between
# pipeline's and explain's own functions are kept: score_frames ->
# score_object and explain_object -> explain_cell are the per-object and
# per-cell work those metrics count.
_SELF_CALLS_UNTRACED = {"bn"}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    cpu: float
    op: int
    count: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.records: list[tuple] = []  # Span fields, kept as plain tuples while tracing
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._swaps: list[tuple[object, str, object, object]] = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @property
    def spans(self) -> list[Span]:
        return [Span._make(r) for r in self.records]

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, name.split(".", 1)[0]))
        cpu0, start = time.thread_time(), time.perf_counter()
        try:
            yield
        finally:
            end, cpu1 = time.perf_counter(), time.thread_time()
            stack.pop()
            self.records.append((sid, name, start, end, parent, threading.get_ident(),
                                 cpu1 - cpu0, self.op, 0))

    def _wrap(self, module: str, name: str, fn, count):
        # Inlined rather than built on span(): the per-cell functions are
        # called tens of thousands of times per pass.
        tracer, records, ids, stack_of = self, self.records, self._ids, self._stack
        perf, thread_time, get_ident = time.perf_counter, time.thread_time, threading.get_ident
        untraced_self_calls = module in _SELF_CALLS_UNTRACED

        def traced(*args, **kwargs):
            stack = stack_of()
            if untraced_self_calls and stack and stack[-1][1] == module:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, module))
            n = 0
            cpu0, start = thread_time(), perf()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            finally:
                end, cpu1 = perf(), thread_time()
                stack.pop()
                records.append((sid, name, start, end, parent, get_ident(),
                                cpu1 - cpu0, tracer.op, n))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Prepare a wrapper for every traced function; call before enable()."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gridvad" or n.startswith("gridvad."))]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"gridvad.{module_name}"]
            for fn_name, count in functions.items():
                original = getattr(home, fn_name)
                wrapper = self._wrap(module_name, f"{module_name}.{fn_name}", original, count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._swaps.append((module, attr, original, wrapper))

    def enable(self) -> None:
        for module, attr, _original, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _wrapper in self._swaps:
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for r in self.records:
                fh.write(json.dumps(r) + "\n")


def _self_time(span: Span, children: dict) -> float:
    return span.duration - sum(c.duration for c in children.get(span.id, ()))


def _kept_rows(spans: list[Span]) -> int:
    """Rows left after the filter and slice steps that follow each parse."""
    kept = 0
    current = None
    for s in sorted((s for s in spans if s.name in (
            "ingest.parse_tracks", "ingest.filter_detections", "ingest.slice_frames")),
            key=lambda s: s.start):
        if s.name == "ingest.parse_tracks":
            kept += current or 0
        current = s.count
    return kept + (current or 0)


def layer_metrics(spans: list[Span], passes: int, sizes: dict) -> dict[str, float]:
    """Per-layer numbers per traced pass, named ``<module>.<function>.<stat>``.

    ``.s`` is busy time, the per-call wall time summed over calls (a
    caller's busy time includes its callees'); ``.self_s`` subtracts the
    wall time of the span's direct children; ``.wait_s`` is wall time
    minus the calling thread's CPU time. Counts are exact.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ())) / passes

    def total(name):
        return sum(s.count for s in by_name.get(name, ())) / passes

    def self_time(name):
        return sum(_self_time(s, children) for s in by_name.get(name, ())) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    queries = calls("bn.class_cpt_query") + calls("bn.eliminate")
    rows = total("ingest.parse_tracks")
    observations = total("featurize.generate_observations")
    m = {
        "bn.class_cpt_query.s": busy("bn.class_cpt_query"),
        "bn.class_cpt_query.calls": calls("bn.class_cpt_query"),
        "bn.class_cpt_query.us_per_call": 1e6 * ratio(busy("bn.class_cpt_query"),
                                                      calls("bn.class_cpt_query")),
        "bn.eliminate.s": busy("bn.eliminate"),
        "bn.eliminate.calls": calls("bn.eliminate"),
        "bn.fit_mle.s": busy("bn.fit_mle"),
        "bn.impossible_ratio": ratio(total("bn.class_cpt_query") + total("bn.eliminate"),
                                     queries),
        "pipeline.score_object.s": busy("pipeline.score_object"),
        "pipeline.score_object.calls": calls("pipeline.score_object"),
        "pipeline.score_object.wait_s": sum(
            s.duration - s.cpu for s in by_name.get("pipeline.score_object", ())) / passes,
        "pipeline.score_frames.s": busy("pipeline.score_frames"),
        "pipeline.object_evidence.s": busy("pipeline.object_evidence"),
        "pipeline.object_evidence.calls": calls("pipeline.object_evidence"),
        "pipeline.observation_columns.s": busy("pipeline.observation_columns"),
        "pipeline.train.self_s": self_time("pipeline.train"),
        "pipeline.save_bundle.s": busy("pipeline.save_bundle"),
        "pipeline.load_bundle.s": busy("pipeline.load_bundle"),
        "pipeline.bundle_bytes": sizes.get("bundle", 0),
        "pipeline.write_scores.s": busy("pipeline.write_scores"),
        "pipeline.scores_bytes": sizes.get("scores", 0),
        "pipeline.read_scores.s": busy("pipeline.read_scores"),
        "ingest.parse_tracks.s": busy("ingest.parse_tracks"),
        "ingest.parse_tracks.rows": rows,
        "ingest.parse_tracks.us_per_row": 1e6 * ratio(busy("ingest.parse_tracks"), rows),
        "ingest.compute_confidence_thresholds.s": busy("ingest.compute_confidence_thresholds"),
        "ingest.filter_detections.s": busy("ingest.filter_detections"),
        "ingest.slice_frames.s": busy("ingest.slice_frames"),
        "ingest.parse_ground_truth.s": busy("ingest.parse_ground_truth"),
        "ingest.kept_ratio": ratio(_kept_rows(spans) / passes, rows),
        "featurize.fit_discretizer.s": busy("featurize.fit_discretizer"),
        "featurize.generate_observations.s": busy("featurize.generate_observations"),
        "featurize.observations": observations,
        "featurize.us_per_observation": 1e6 * ratio(busy("featurize.generate_observations"),
                                                    observations),
        "metrics.evaluate.s": busy("metrics.evaluate"),
        "metrics.detection_curves.s": busy("metrics.detection_curves"),
        "explain.explain_object.s": busy("explain.explain_object"),
        "explain.explain_object.calls": calls("explain.explain_object"),
        "explain.explain_cell.calls": calls("explain.explain_cell"),
        "explain.write_explanation.s": busy("explain.write_explanation"),
    }
    for command in ("train", "score", "eval"):
        m[f"cli.{command}.self_s"] = self_time(f"cli.{command}")
    return m
