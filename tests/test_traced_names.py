"""The library names the benchmark traces and calls exist and are callable.

The benchmark wraps these functions by name, calls them and a few more
directly and reads one constant, so a rename or a removal must fail here,
in the tier-1 suite, rather than at the benchmark. The lists are written
out instead of read from the benchmark, which the tests do not import.
"""
import pytest

from gridvad import bn, cli, explain, featurize, ingest, metrics, pipeline, synth

TRACED = {
    ingest: ("parse_tracks", "compute_confidence_thresholds", "filter_detections",
             "slice_frames", "parse_ground_truth"),
    featurize: ("fit_discretizer", "generate_observations"),
    bn: ("fit_mle", "class_cpt_query", "eliminate"),
    pipeline: ("train", "observation_columns", "score_frames", "score_object",
               "object_evidence", "save_bundle", "load_bundle", "write_scores", "read_scores"),
    metrics: ("evaluate", "detection_curves"),
    explain: ("explain_object", "explain_cell", "write_explanation"),
}
# called directly by the workloads and the input builder
CALLED = {
    cli: ("main",),
    featurize: ("box_center", "build_grid", "bottom_edge_cells"),
    ingest: ("write_tracks", "write_ground_truth"),
    ingest.ConfidenceThresholds: ("for_class",),
    synth: ("generate_scene", "reference_script"),
}


@pytest.mark.parametrize("module, name", [
    (module, name) for names in (TRACED, CALLED) for module, group in names.items()
    for name in group], ids=lambda value: getattr(value, "__name__", value))
def test_traced_name_is_callable(module, name):
    assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_read_constant_exists():
    assert isinstance(pipeline.REASON_UNSEEN_CLASS, str)
