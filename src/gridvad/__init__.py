"""Video anomaly detection over tracked bounding boxes.

A discrete Bayesian network learns where, how big, how fast and in which
direction objects of each class normally appear on a uniform grid over
the frame; test objects are scored by the conditional probability of
their class given those attributes.
"""

__version__ = "0.1.0"

from .bn import (
    BayesNet,
    Cpt,
    Dag,
    Posterior,
    build_structure,
    class_cpt_query,
    eliminate,
    fit_mle,
    joint_brute_force,
)
from .explain import CellExplanation, ObjectExplanation, explain_cell, explain_object
from .featurize import (
    DiscretizationModel,
    GridSpec,
    ObservationTable,
    aspect_category,
    bottom_edge_cells,
    build_grid,
    direction_category,
    fit_discretizer,
    generate_observations,
    intersection_category,
    motion,
    size_category,
    velocity_category,
)
from .ingest import (
    ConfidenceThresholds,
    GroundTruth,
    TrackSet,
    TrackedDetection,
    compute_confidence_thresholds,
    filter_detections,
    parse_ground_truth,
    parse_tracks,
    slice_frames,
    write_ground_truth,
    write_tracks,
)
from .metrics import MetricsReport, evaluate, frame_auc, rbdc, tbdc
from .pipeline import (
    FrameScores,
    ModelBundle,
    ScoredObject,
    ScoreTable,
    TrainConfig,
    load_bundle,
    save_bundle,
    score_frames,
    score_object,
    train,
)
from .synth import Injection, Lane, SceneScript, generate_scene, reference_script
