"""Acceptance suite: one test per release criterion, in criterion order.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion alongside the measured numbers.
"""

import io
import json
import math
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import random_net, random_query
from gridvad import bn
from gridvad.cli import main as cli_main
from gridvad.explain import explain_object
from gridvad.ingest import (
    GroundTruth,
    GtRegion,
    compute_confidence_thresholds,
    filter_detections,
    parse_tracks,
    slice_frames,
)
from gridvad.metrics import evaluate, frame_auc, rbdc, tbdc
from gridvad.pipeline import FrameScores, ScoredObject, TrainConfig, score_frames, train
from gridvad.synth import generate_scene, occlusion_script, temporal_anomaly_script


def ok(criterion: int, message: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {message}")


def pipeline_metrics(script, cell_sizes, kind="spatiotemporal", box_mode="bottom",
                     slice_factor=3):
    train_tracks, test_tracks, gt = generate_scene(script)
    thresholds = compute_confidence_thresholds(train_tracks)
    prepared = slice_frames(filter_detections(train_tracks, thresholds), slice_factor)
    bundle = train(TrainConfig(cell_sizes=cell_sizes, kind=kind, box_mode=box_mode),
                   prepared, thresholds)
    scored, frames = score_frames(bundle, filter_detections(test_tracks, thresholds))
    return evaluate(scored, frames, gt)


class TestCriterion1PaperResultsCaveat:
    def test_benchmark_adapter_and_documentation(self):
        """Table 2 numbers need the benchmark videos plus a real tracker; the
        repo ships the ingest adapter and documents that path instead."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        for needle in ("CUHK Avenue", "tracker", "mot"):
            assert needle.lower() in text.lower()
        # the MOT-style adapter accepts tracker output directly
        mot = io.StringIO('# {"width": 640, "height": 360, "frames": 2}\n'
                          "1,1,10,150,22,50,0.9,1\n"
                          "2,1,14,150,22,50,0.9,1\n")
        tracks = parse_tracks(mot, format="mot")
        assert len(tracks.detections) == 2
        ok(1, "benchmark reproduction documented as external-tracker path; "
              "ingest adapters in place")


class TestCriterion2InferenceOracle:
    def test_eliminate_matches_joint_enumeration(self):
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        worst = 0.0
        cases = 1000
        for _ in range(cases):
            net = random_net(rng, max_nodes=6, max_card=4)
            query, evidence = random_query(rng, net)
            fast = bn.eliminate(net, query, evidence)
            slow = bn.joint_brute_force(net, query, evidence)
            assert fast.impossible == slow.impossible
            worst = max(worst, float(np.max(np.abs(fast.values - slow.values))))
        elapsed = time.perf_counter() - started
        assert worst <= 1e-12
        assert elapsed <= 60.0
        ok(2, f"{cases} random networks, max |posterior error| = {worst:.2e} "
              f"<= 1e-12 in {elapsed:.1f}s")


class TestCriterion3MleOracle:
    def test_fitted_cpts_equal_hand_counted_ratios(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n_nodes = int(rng.integers(2, 5))
            nodes = tuple((f"n{i}", int(rng.integers(2, 5))) for i in range(n_nodes))
            edges = tuple((f"n{i}", f"n{j}")
                          for i in range(n_nodes) for j in range(i + 1, n_nodes)
                          if rng.random() < 0.5)
            dag = bn.Dag(nodes, edges)
            n_rows = int(rng.integers(1, 501))
            data = {name: rng.integers(0, card, n_rows)
                    for name, card in nodes}
            net = bn.fit_mle(dag, data)
            for cpt in net.cpts:
                parent_cols = [data[p] for p in cpt.parents]
                child_col = data[cpt.child]
                config_counts = Counter()
                joint_counts = Counter()
                for row in range(n_rows):
                    key = tuple(int(col[row]) for col in parent_cols)
                    config_counts[key] += 1
                    joint_counts[key + (int(child_col[row]),)] += 1
                card = cpt.table.shape[1]
                for config_index in range(cpt.table.shape[0]):
                    key = (tuple(int(v) for v in np.unravel_index(
                        config_index, cpt.parent_cards)) if cpt.parents else ())
                    total = config_counts.get(key, 0)
                    for value in range(card):
                        entry = cpt.table[config_index, value]
                        if total == 0:
                            assert not cpt.observed[config_index]
                            assert entry == float(Fraction(1, card))
                        else:
                            expected = Fraction(joint_counts.get(key + (value,), 0),
                                                total)
                            assert entry == float(expected)
        ok(3, "50 random tables: every CPT entry equals the hand-counted ratio exactly")


class TestCriterion4EndToEndSyntheticDetection:
    def test_reference_scene_detection(self, reference_run):
        started = time.perf_counter()
        report = pipeline_metrics(reference_run["script"], (40, 80))
        elapsed = time.perf_counter() - started
        assert report.frame_auc >= 0.90
        assert report.tbdc >= 0.80
        assert elapsed <= 30.0
        ok(4, f"reference scene: frame AUC {report.frame_auc:.4f} >= 0.90, "
              f"TBDC {report.tbdc:.4f} >= 0.80, runtime {elapsed:.1f}s <= 30s")


class TestCriterion5TemporalOrdering:
    def test_spatiotemporal_beats_spatial_on_temporal_anomalies(self):
        script = temporal_anomaly_script()
        spatiotemporal = pipeline_metrics(script, (40,), kind="spatiotemporal")
        spatial = pipeline_metrics(script, (40,), kind="spatial")
        assert spatiotemporal.frame_auc > spatial.frame_auc
        ok(5, f"temporal-only anomalies: spatio-temporal AUC "
              f"{spatiotemporal.frame_auc:.4f} > spatial AUC {spatial.frame_auc:.4f}")


class TestCriterion6BottomBorderOrdering:
    def test_bottom_border_beats_whole_box_on_occlusion_scene(self):
        script = occlusion_script()
        bottom = pipeline_metrics(script, (40,), box_mode="bottom")
        whole = pipeline_metrics(script, (40,), box_mode="whole")
        assert bottom.frame_auc > whole.frame_auc
        assert bottom.rbdc > whole.rbdc
        ok(6, f"occlusion scene: bottom AUC {bottom.frame_auc:.4f} > whole "
              f"{whole.frame_auc:.4f}; bottom RBDC {bottom.rbdc:.4f} > whole "
              f"{whole.rbdc:.4f}")


class TestCriterion7PerformanceBudget:
    def test_fit_and_query_speed(self):
        rng = np.random.default_rng(4242)
        n_rows = 450_000
        cell_count, class_count = 576, 8
        dag = bn.build_structure("spatiotemporal", cell_count=cell_count,
                                 class_count=class_count)
        data = {
            "G": rng.integers(0, cell_count, n_rows),
            "C": rng.integers(0, class_count, n_rows),
            "I": rng.integers(0, 5, n_rows),
            "BS": rng.integers(0, 5, n_rows),
            "BAR": rng.integers(0, 3, n_rows),
            "V": rng.integers(0, 7, n_rows),
            "D": rng.integers(0, 9, n_rows),
        }
        started = time.perf_counter()
        net = bn.fit_mle(dag, data)
        fit_seconds = time.perf_counter() - started
        assert fit_seconds <= 7.0

        queries = 2000
        evidence_batches = [{
            "G": int(rng.integers(cell_count)), "I": int(rng.integers(5)),
            "BS": int(rng.integers(5)), "BAR": int(rng.integers(3)),
            "V": int(rng.integers(7)), "D": int(rng.integers(9)),
        } for _ in range(queries)]
        started = time.perf_counter()
        for evidence in evidence_batches:
            bn.class_cpt_query(net, evidence)
        per_cell = (time.perf_counter() - started) / queries
        assert per_cell <= 0.050
        ok(7, f"fit of {n_rows} observations in {fit_seconds:.3f}s <= 7s; "
              f"per-cell inference {per_cell * 1000:.3f}ms <= 50ms")


class TestCriterion8MetricsOracle:
    """Three micro-scenarios matched against exhaustive hand enumeration."""

    def make(self, frame, box, score, tid):
        return ScoredObject(frame=frame, track_id=tid, class_id=1, box=box,
                            per_granularity={40: score}, fused=score)

    def test_scenario_one_true_one_false(self):
        # thresholds -inf, 0.1, 0.2 -> region curve (0,0) (0,1) (0.5,1)
        gt = GroundTruth((GtRegion(1, 0, (0, 0, 10, 10)),))
        scored = [self.make(1, (0, 0, 10, 5), 0.1, 1),
                  self.make(2, (50, 50, 60, 60), 0.2, 2)]
        assert rbdc(scored, gt, 2) == 0.5
        assert tbdc(scored, gt, 2) == 0.5
        assert frame_auc(FrameScores(np.array([0.1, 0.2]),
                                     np.array([0.1, 0.2])), gt) == 1.0

    def test_scenario_perfect_detector(self):
        gt = GroundTruth((GtRegion(1, 0, (0, 0, 10, 10)),
                          GtRegion(2, 1, (20, 20, 40, 40))))
        scored = [self.make(1, (0, 0, 10, 10), 0.0, 1),
                  self.make(2, (20, 20, 40, 40), 0.0, 2)]
        scored += [self.make(f, (100, 100, 130, 120), 1.0, 10 + f)
                   for f in (1, 2, 3, 4)]
        assert rbdc(scored, gt, 4) == 1.0
        assert tbdc(scored, gt, 4) == 1.0
        assert frame_auc(FrameScores(np.array([0.0, 0.0, 1.0, 1.0]),
                                     np.array([0.0, 0.0, 1.0, 1.0])), gt) == 1.0

    def test_scenario_interleaved_false_positives(self):
        # hand-swept: RBDC = 1/6, TBDC = 1/4, frame AUC = 2/3
        gt = GroundTruth((GtRegion(1, 0, (0, 0, 10, 10)),
                          GtRegion(2, 0, (0, 0, 10, 10)),
                          GtRegion(3, 1, (30, 30, 50, 50))))
        scored = [self.make(1, (0, 0, 10, 10), 0.1, 1),
                  self.make(2, (100, 100, 110, 110), 0.2, 2),
                  self.make(4, (200, 200, 210, 210), 0.25, 3),
                  self.make(3, (30, 30, 50, 50), 0.3, 4)]
        assert rbdc(scored, gt, 4) == pytest.approx(float(Fraction(1, 6)), abs=1e-15)
        assert tbdc(scored, gt, 4) == pytest.approx(0.25, abs=1e-15)
        smoothed = np.array([0.1, 0.2, 0.3, 0.25])
        assert frame_auc(FrameScores(smoothed, smoothed), gt) == \
            pytest.approx(float(Fraction(2, 3)), abs=1e-15)
        ok(8, "three hand-enumerated sweep fixtures matched exactly")


class TestCriterion9ExplainabilityConsistency:
    def test_class_posterior_matches_pipeline_bit_exactly(self, reference_run):
        bundle = reference_run["bundle"]
        scored = reference_run["scored"]
        checked_cells = 0
        for s in scored:
            explanation = explain_object(bundle, s)
            if s.reason == "unseen-class":
                for cell in explanation.cells:
                    assert sum(cell.breakdowns["C"].probabilities) == \
                        pytest.approx(1.0, abs=1e-9)
                continue
            by_key = {(c.cell_size, c.cell): c for c in explanation.cells}
            for cell_size, cell_scores in s.per_cell.items():
                for cs in cell_scores:
                    cell = by_key[(cell_size, cs.cell)]
                    assert cell.class_score == cs.probability  # bit exact
                    for breakdown in cell.breakdowns.values():
                        assert sum(breakdown.probabilities) == \
                            pytest.approx(1.0, abs=1e-9)
                    checked_cells += 1
        assert checked_cells > 1000
        ok(9, f"{checked_cells} cell explanations bit-identical to pipeline "
              "scores; all distributions normalized within 1e-9")


class TestCriterion10Determinism:
    ARTIFACTS = ("data/train_tracks.jsonl", "data/test_tracks.jsonl", "data/gt.jsonl",
                 "model.bundle", "scores.jsonl", "report.json")

    def run_everything(self, root: Path, threads: int, monkeypatch) -> None:
        # artifacts echo their configuration, so identical configs means
        # identical relative paths: run each round from its own directory
        monkeypatch.chdir(root)
        assert cli_main(["synth", "--preset", "reference", "--seed", "42",
                         "--out-dir", "data"]) == 0
        assert cli_main(["train", "--tracks", "data/train_tracks.jsonl",
                         "--cells", "40,80", "--slice", "3",
                         "--out", "model.bundle"]) == 0
        assert cli_main(["score", "--model", "model.bundle",
                         "--tracks", "data/test_tracks.jsonl",
                         "--threads", str(threads),
                         "--out", "scores.jsonl"]) == 0
        assert cli_main(["eval", "--scores", "scores.jsonl",
                         "--gt", "data/gt.jsonl",
                         "--report", "report.json"]) == 0

    def test_full_runs_byte_identical_across_threads(self, tmp_path, monkeypatch):
        first, second = tmp_path / "run1", tmp_path / "run2"
        first.mkdir(), second.mkdir()
        self.run_everything(first, threads=1, monkeypatch=monkeypatch)
        self.run_everything(second, threads=4, monkeypatch=monkeypatch)
        for artifact in self.ARTIFACTS:
            a, b = (first / artifact).read_bytes(), (second / artifact).read_bytes()
            assert a == b, f"{artifact} differs between runs"
        ok(10, "synth/train/score/eval artifacts byte-identical across reruns "
               "and thread counts")
