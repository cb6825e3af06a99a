"""Shared fixtures and random-model helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from gridvad import bn
from gridvad.featurize import CATEGORIES
from gridvad.ingest import compute_confidence_thresholds, filter_detections, slice_frames
from gridvad.metrics import evaluate
from gridvad.pipeline import TrainConfig, train, score_frames
from gridvad.synth import generate_scene, reference_script


def random_net(rng: np.random.Generator, max_nodes: int = 6,
               max_card: int = 4, zero_rate: float = 0.2) -> bn.BayesNet:
    """Random small network with occasional structural zeros in the CPTs."""
    n_nodes = int(rng.integers(2, max_nodes + 1))
    nodes = tuple((f"n{i}", int(rng.integers(2, max_card + 1))) for i in range(n_nodes))
    edges = tuple((f"n{i}", f"n{j}")
                  for i in range(n_nodes) for j in range(i + 1, n_nodes)
                  if rng.random() < 0.4)
    return random_cpts(rng, bn.Dag(nodes, edges), zero_rate)


def random_cpts(rng: np.random.Generator, dag: bn.Dag, zero_rate: float = 0.2) -> bn.BayesNet:
    """Random CPTs on a given graph; a share ``zero_rate`` of them holds one
    structural zero."""
    cpts = []
    for name, card in dag.nodes:
        parents = dag.parents(name)
        parent_cards = tuple(dag.cardinality(p) for p in parents)
        n_configs = int(np.prod(parent_cards)) if parents else 1
        table = rng.random((n_configs, card)) + 1e-3
        if rng.random() < zero_rate:
            row = int(rng.integers(n_configs))
            col = int(rng.integers(card))
            if card > 1:
                table[row, col] = 0.0
        table /= table.sum(axis=1, keepdims=True)
        cpts.append(bn.Cpt(name, parents, parent_cards, table,
                           np.ones(n_configs, dtype=bool)))
    return bn.BayesNet(dag, tuple(cpts))


def random_query(rng: np.random.Generator, net: bn.BayesNet):
    """Random (query, evidence) pair over a network's variables."""
    names = list(net.dag.names)
    query = names[int(rng.integers(len(names)))]
    evidence = {}
    for name in names:
        if name != query and rng.random() < 0.5:
            evidence[name] = int(rng.integers(net.dag.cardinality(name)))
    return query, evidence


def decoded(table, rv: str) -> list:
    """One observation-table column: G as 1-based cells, attributes as labels.

    Absent values (code -1) decode to None; any other code outside the
    vocabulary raises KeyError.
    """
    codes = table.rows[:, bn.NODE_ORDER.index(rv)].tolist()
    if rv == "G":
        return [code + 1 for code in codes]
    labels = {-1: None, **dict(enumerate(CATEGORIES[rv]))}
    return [labels[code] for code in codes]


@pytest.fixture(scope="session")
def reference_run():
    """Reference scene trained and scored once, shared across tests."""
    script = reference_script()
    train_tracks, test_tracks, gt = generate_scene(script)
    thresholds = compute_confidence_thresholds(train_tracks)
    prepared = slice_frames(filter_detections(train_tracks, thresholds), 3)
    bundle = train(TrainConfig(cell_sizes=(40, 80)), prepared, thresholds)
    scored, frames = score_frames(bundle, filter_detections(test_tracks, thresholds))
    report = evaluate(scored, frames, gt)
    return {
        "script": script,
        "train_tracks": train_tracks,
        "prepared_train": prepared,
        "test_tracks": test_tracks,
        "gt": gt,
        "thresholds": thresholds,
        "bundle": bundle,
        "scored": scored,
        "frames": frames,
        "report": report,
    }
