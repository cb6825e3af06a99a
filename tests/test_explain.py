import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridvad import bn
from gridvad.featurize import CODES
from gridvad.explain import (
    CellExplanation,
    ObjectExplanation,
    RvBreakdown,
    explain_cell,
    explain_object,
    write_explanation,
)
from gridvad.ingest import TrackSet, TrackedDetection, filter_detections
from gridvad.pipeline import (REASON_UNSEEN_CLASS, REASONS, CellScore, TrainConfig, score_frames,
                              score_object, train)
from oracles import explanation_to_dict, plot_data


def deterministic_tracks():
    """A single configuration repeated: every posterior must be one-hot."""
    rows = tuple(TrackedDetection(f, 0, 1, (2.0, 20.0, 20.0, 60.0), 0.9)
                 for f in range(1, 5))
    return TrackSet((160, 120), 5, rows)


@pytest.fixture(scope="module")
def det_bundle():
    return train(TrainConfig(cell_sizes=(40,)), deterministic_tracks())


def walking_tracks():
    rows = []
    for f in range(1, 9):
        x = 2.0 + 4.0 * (f - 1)
        rows.append(TrackedDetection(f, 0, 1, (x, 20.0, x + 18.0, 60.0), 0.9))
        rows.append(TrackedDetection(f, 1, 3, (60.0, 80.0, 110.0, 110.0), 0.9))
    rows.sort(key=lambda d: (d.frame_index, d.track_id))
    return TrackSet((160, 120), 10, tuple(rows))


@pytest.fixture(scope="module")
def walk_bundle():
    return train(TrainConfig(cell_sizes=(40, 80)), walking_tracks())


class TestExplainCell:
    def test_one_hot_training_gives_rank_one_everywhere(self, det_bundle):
        assignment = {"C": 1, "I": "small", "BS": "medium", "BAR": "portrait",
                      "V": "idle", "D": "none"}
        # the only trained cell: bottom edge at y=60 -> row 1, col 0 -> cell 5
        explanation = explain_cell(det_bundle, 40, 5, assignment)
        for rv, breakdown in explanation.breakdowns.items():
            assert breakdown.rank == 1
            assert breakdown.observed_probability == 1.0
        assert explanation.class_score == 1.0

    def test_distributions_normalized(self, walk_bundle):
        assignment = {"C": 1, "I": "small", "BS": "medium", "BAR": "portrait",
                      "V": "normal", "D": "E"}
        explanation = explain_cell(walk_bundle, 40, 5, assignment)
        for breakdown in explanation.breakdowns.values():
            assert sum(breakdown.probabilities) == pytest.approx(1.0, abs=1e-9)

    def test_direction_breakdown_includes_none(self, det_bundle):
        assignment = {"C": 1, "I": "small", "BS": "medium", "BAR": "portrait",
                      "V": "idle", "D": "none"}
        explanation = explain_cell(det_bundle, 40, 5, assignment)
        assert "none" in explanation.breakdowns["D"].labels
        assert explanation.breakdowns["D"].observed == "none"

    def test_incomplete_assignment_rejected(self, det_bundle):
        with pytest.raises(ValueError, match="missing"):
            explain_cell(det_bundle, 40, 5, {"C": 1, "I": "small"})

    # class ids that int() would read as the trained class 1
    @pytest.mark.parametrize("class_id", [True, 1.0, "1"])
    def test_class_id_must_be_an_integer(self, det_bundle, class_id):
        with pytest.raises(ValueError, match="C=.* is not an integer"):
            explain_cell(det_bundle, 40, 5,
                         {"C": class_id, "I": "small", "BS": "medium", "BAR": "portrait",
                          "V": "idle", "D": "none"})

    def test_numpy_integer_class_id_accepted(self, det_bundle):
        assignment = {"I": "small", "BS": "medium", "BAR": "portrait", "V": "idle", "D": "none"}
        assert (explain_cell(det_bundle, 40, 5, {"C": np.int64(1), **assignment}).breakdowns
                == explain_cell(det_bundle, 40, 5, {"C": 1, **assignment}).breakdowns)

    def test_unknown_category_rejected(self, det_bundle):
        with pytest.raises(ValueError, match="category"):
            explain_cell(det_bundle, 40, 5,
                         {"C": 1, "I": "tiny", "BS": "medium", "BAR": "portrait",
                          "V": "idle", "D": "none"})


class TestExplainObject:
    def test_consistency_with_pipeline_bit_exact(self, walk_bundle):
        scored, _ = score_frames(walk_bundle, walking_tracks())
        for s in scored:
            explanation = explain_object(walk_bundle, s)
            by_key = {(c.cell_size, c.cell): c for c in explanation.cells}
            for cell_size, cell_scores in s.per_cell.items():
                for cs in cell_scores:
                    cell_exp = by_key[(cell_size, cs.cell)]
                    assert cell_exp.class_score == cs.probability  # bit exact

    def test_explanation_counts_cells_per_granularity(self, walk_bundle):
        # box spanning 3 columns at 40 px and 2 at 80 px
        det = TrackedDetection(2, 9, 3, (30.0, 80.0, 118.0, 110.0), 0.9)
        scored = score_object(walk_bundle, det)
        explanation = explain_object(walk_bundle, scored)
        by_size = {}
        for cell in explanation.cells:
            by_size.setdefault(cell.cell_size, []).append(cell.cell)
        assert len(by_size[40]) == 3
        assert len(by_size[80]) == 2

    def test_unseen_class_reduced_explanation(self, walk_bundle):
        det = TrackedDetection(1, 9, 17, (2.0, 20.0, 20.0, 60.0), 0.9)
        scored = score_object(walk_bundle, det)
        explanation = explain_object(walk_bundle, scored)
        assert explanation.reason == "unseen-class"
        for cell in explanation.cells:
            assert set(cell.breakdowns) == {"C"}
            breakdown = cell.breakdowns["C"]
            assert 17 not in breakdown.labels  # support omits the unseen class
            assert breakdown.observed_probability == 0.0
            assert breakdown.rank == len(breakdown.labels) + 1

    def test_unseen_class_direction_uses_idle_cutoff(self, walk_bundle):
        # 0.3 px/frame east, below the 0.5 px/frame idle speed: no heading,
        # whether or not the class was seen in training
        box = (2.0, 20.0, 20.0, 60.0)  # center (11, 40)
        for class_id in (1, 17):
            det = TrackedDetection(2, 9, class_id, box, 0.9)
            scored = score_object(walk_bundle, det, (10.7, 40.0), 1)
            explanation = explain_object(walk_bundle, scored)
            assert explanation.cells
            assert {c.assignment["D"] for c in explanation.cells} == {"none"}

    def test_aggregation_trace_carried_over(self, walk_bundle):
        det = walking_tracks().detections[0]
        scored = score_object(walk_bundle, det)
        explanation = explain_object(walk_bundle, scored)
        assert explanation.per_granularity == scored.per_granularity
        assert explanation.fused == scored.fused
        assert explanation.fusion == walk_bundle.fusion

    def test_pure_read_does_not_mutate_bundle(self, walk_bundle):
        before = [cpt.table.copy() for g in walk_bundle.granularities
                  for cpt in g.net.cpts]
        det = walking_tracks().detections[0]
        explain_object(walk_bundle, score_object(walk_bundle, det))
        after = [cpt.table for g in walk_bundle.granularities for cpt in g.net.cpts]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)


class TestExplanationOutput:
    def test_json_and_sidecar_written(self, walk_bundle, tmp_path):
        det = walking_tracks().detections[0]
        scored = score_object(walk_bundle, det)
        explanation = explain_object(walk_bundle, scored)
        path = write_explanation(explanation, tmp_path / "explanation.json")
        payload = json.loads(path.read_text())
        assert payload["frame"] == det.frame_index
        assert payload["cells"]
        first = payload["cells"][0]
        assert set(first["breakdowns"]) == {"C", "I", "BS", "BAR", "V", "D"}
        sidecar = json.loads((tmp_path / "explanation.plot.json").read_text())
        assert {row["rv"] for row in sidecar} == {"C", "I", "BS", "BAR", "V", "D"}
        assert all(len(row["categories"]) == len(row["probabilities"])
                   for row in sidecar)


def assert_written_as_json_dumps(explanation, path):
    write_explanation(explanation, path)
    assert path.read_bytes() == json.dumps(explanation_to_dict(explanation),
                                           indent=2).encode("utf-8")
    assert path.with_suffix(".plot.json").read_bytes() == json.dumps(
        plot_data(explanation), indent=2).encode("utf-8")


# -0.0, subnormals, 17 significant digits and the non-finite values json.dumps spells
NUMBERS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1.0000000000000002, 1e16]))
TEXT = st.text(max_size=6)  # non-ASCII, quotes, control characters, lone surrogates
LABELS = st.one_of(TEXT, st.integers(-10**20, 10**20))


@st.composite
def breakdowns(draw):
    return RvBreakdown(tuple(draw(st.lists(LABELS, max_size=4))),
                       tuple(draw(st.lists(NUMBERS, max_size=4))), draw(LABELS),
                       draw(NUMBERS), draw(st.integers(0, 10)), draw(st.booleans()))


@st.composite
def cells(draw):
    # an unseen-class cell has the class breakdown only
    rvs = draw(st.sampled_from([("C",), ("C", "I", "BS", "BAR"), (), ("C", "I", "BS", "BAR",
                                                                       "V", "D")]))
    return CellExplanation(draw(st.integers(1, 200)), draw(st.integers(1, 10**4)),
                           draw(st.dictionaries(TEXT, LABELS, max_size=3)),
                           {rv: draw(breakdowns()) for rv in rvs}, draw(NUMBERS))


@st.composite
def explanations(draw):
    sizes = draw(st.lists(st.integers(1, 200), unique=True, max_size=3))
    per_cell = {size: tuple(CellScore(draw(st.integers(1, 500)), draw(NUMBERS), draw(st.booleans()))
                            for _ in range(draw(st.integers(0, 3)))) for size in sizes}
    return ObjectExplanation(
        draw(st.integers(0, 10**6)), draw(st.integers(-5, 10**6)), draw(st.integers(0, 90)),
        tuple(draw(st.lists(NUMBERS, max_size=4))), draw(st.one_of(st.none(), TEXT)),
        tuple(draw(st.lists(cells(), max_size=3))), per_cell,
        {size: draw(NUMBERS) for size in sizes}, draw(NUMBERS), draw(TEXT))


class TestWriterOracle:
    @settings(max_examples=300, deadline=None)
    @given(explanation=explanations())
    def test_bytes_equal_json_dumps_indent_2(self, explanation, tmp_path_factory):
        assert_written_as_json_dumps(explanation, tmp_path_factory.mktemp("w") / "e.json")

    def test_reference_scene_explanations_equal_json_dumps(self, reference_run, tmp_path):
        bundle, scored = reference_run["bundle"], reference_run["scored"]
        unseen = np.flatnonzero(scored.reason == REASONS.index(REASON_UNSEEN_CLASS))
        reasons = set()
        for index in [*range(0, len(scored), 97), *unseen[:10].tolist()]:
            explanation = explain_object(bundle, scored[index])
            reasons.add(explanation.reason)
            assert_written_as_json_dumps(explanation, tmp_path / "e.json")
        assert {None, REASON_UNSEEN_CLASS} <= reasons


class TestBreakdownsEqualEliminate:
    def test_every_attribute_posterior_is_eliminates(self, reference_run):
        bundle, scored = reference_run["bundle"], reference_run["scored"]
        checked = 0
        for index in range(0, len(scored), 41):
            if scored[index].reason == REASON_UNSEEN_CLASS:
                continue
            for cell in explain_object(bundle, scored[index]).cells:
                net = bundle.granularity(cell.cell_size).net
                codes = {rv: CODES[rv][label] for rv, label in cell.assignment.items()
                         if rv != "C"}
                codes.update(G=cell.cell - 1, C=bundle.class_index(cell.assignment["C"]))
                for rv, b in cell.breakdowns.items():
                    want = bn.eliminate(net, rv, {k: v for k, v in codes.items() if k != rv})
                    assert b.probabilities == tuple(want.values.tolist())
                    assert b.impossible == want.impossible
                    checked += 1
        assert checked > 500


class TestOneKernelOnTheProductPath:
    """Known-class posteriors come from ``bn.leave_one_out``; ``bn.eliminate``
    serves only the unseen-class explanation, whose BS and V stay hidden."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        calls = []
        eliminate = bn.eliminate

        def counting(net, query, evidence):
            calls.append(query)
            return eliminate(net, query, evidence)

        monkeypatch.setattr(bn, "eliminate", counting)
        return calls

    def test_scoring_never_eliminates(self, reference_run, eliminations):
        bundle = reference_run["bundle"]
        score_frames(bundle, filter_detections(reference_run["test_tracks"],
                                               reference_run["thresholds"]))
        known = [d for d in reference_run["test_tracks"].detections[:50]
                 if bundle.class_index(d.class_id) is not None]
        assert known
        for det in known:
            score_object(bundle, det)
        assert eliminations == []

    def test_known_class_explanations_never_eliminate(self, reference_run, eliminations):
        bundle, scored = reference_run["bundle"], reference_run["scored"]
        known = np.flatnonzero(scored.reason != REASONS.index(REASON_UNSEEN_CLASS))
        cells = sum(len(explain_object(bundle, scored[i]).cells) for i in known[::50].tolist())
        assert cells > 0
        assert eliminations == []

    def test_unseen_class_explanations_eliminate_once_per_cell(self, reference_run,
                                                                 eliminations):
        bundle, scored = reference_run["bundle"], reference_run["scored"]
        unseen = np.flatnonzero(scored.reason == REASONS.index(REASON_UNSEEN_CLASS))
        cells = sum(len(explain_object(bundle, scored[i]).cells) for i in unseen[:10].tolist())
        assert cells > 0
        assert eliminations == ["C"] * cells
