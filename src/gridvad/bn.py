"""Discrete Bayesian network engine.

A network is a DAG over finite random variables plus one conditional
probability table (CPT) per node. Fitting is plain maximum likelihood:
P(child = x | parents = pi) = count(x, pi) / count(pi), with parent
configurations never seen in training flagged and filled uniformly.

Posterior queries are exact. ``leave_one_out`` answers P(X | every other
variable) for several X of one full assignment from a single reduction of
the CPTs; scoring (``class_cpt_query``) and explanations of a known class
use it. ``eliminate`` serves queries that leave variables hidden: the
reduced tables are multiplied and summed over those variables in one
``np.einsum`` contraction, at a cost that grows with the product of their
cardinalities; on a full assignment it gives ``leave_one_out``'s bits.
``joint_brute_force`` enumerates the full joint instead and exists purely
as an independent oracle for ``eliminate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

ROW_SUM_TOL = 1e-9

# Detector network layout. F is the frame index of each observation row,
# G the grid cell, C the object class, I the cell-intersection category,
# BS the box size, BAR the aspect ratio, V the velocity and D the
# direction bin.
NODE_ORDER = ("F", "G", "C", "I", "BS", "BAR", "V", "D")
SPATIAL = "spatial"
SPATIOTEMPORAL = "spatiotemporal"
MODEL_KINDS = (SPATIAL, SPATIOTEMPORAL)

# The attribute vocabulary shared by training, scoring and explanations:
# network variable -> labels in code order.
INTERSECTION_CATEGORIES = ("small", "1/4", "1/2", "3/4", "full")
SIZE_CATEGORIES = ("x-small", "small", "medium", "large", "x-large")
ASPECT_CATEGORIES = ("portrait", "landscape", "square")
VELOCITY_CATEGORIES = ("idle", "slow", "normal", "fast", "very fast",
                       "super fast", "lightning fast")
# Eight compass points plus "none" for idle objects and first appearances.
DIRECTION_CATEGORIES = ("N", "NE", "E", "SE", "S", "SW", "W", "NW", "none")
CATEGORIES = {
    "I": INTERSECTION_CATEGORIES,
    "BS": SIZE_CATEGORIES,
    "BAR": ASPECT_CATEGORIES,
    "V": VELOCITY_CATEGORIES,
    "D": DIRECTION_CATEGORIES,
}
FIXED_CARDINALITIES = {rv: len(labels) for rv, labels in CATEGORIES.items()}
SPATIAL_EDGES = (
    ("G", "BS"),
    ("G", "I"),
    ("C", "BS"),
    ("C", "BAR"),
    ("BS", "I"),
    ("BAR", "I"),
)
TEMPORAL_EDGES = (("C", "V"), ("G", "V"), ("C", "D"))


class FitError(ValueError):
    """CPT fitting is impossible (empty table, missing columns, bad codes)."""


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over named finite variables.

    ``nodes`` is an ordered tuple of (name, cardinality); the declaration
    order fixes parent ordering and all tie-breaking downstream, which
    keeps fitting and inference bit-deterministic. The names, the
    name -> cardinality map and the name -> axis map that every query reads
    are built once, here.
    """

    nodes: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = [n for n, _ in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate node names")
        for name, card in self.nodes:
            if card < 1:
                raise ValueError(f"node {name} has non-positive cardinality {card}")
        declared = set(names)
        seen_pairs: set[frozenset[str]] = set()
        for parent, child in self.edges:
            if parent not in declared or child not in declared:
                raise ValueError(f"edge ({parent}, {child}) references undeclared node")
            if parent == child:
                raise ValueError(f"self loop on {parent}")
            pair = frozenset((parent, child))
            if pair in seen_pairs:
                raise ValueError(f"nodes {parent} and {child} connected by more than one edge")
            seen_pairs.add(pair)
        if self._has_cycle():
            raise ValueError("graph contains a cycle")
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_cards", dict(self.nodes))
        object.__setattr__(self, "_axis", {name: i for i, name in enumerate(names)})

    def _has_cycle(self) -> bool:
        indeg = {n: 0 for n, _ in self.nodes}
        out: dict[str, list[str]] = {n: [] for n, _ in self.nodes}
        for parent, child in self.edges:
            indeg[child] += 1
            out[parent].append(child)
        queue = [n for n, d in indeg.items() if d == 0]
        visited = 0
        while queue:
            n = queue.pop()
            visited += 1
            for ch in out[n]:
                indeg[ch] -= 1
                if indeg[ch] == 0:
                    queue.append(ch)
        return visited != len(self.nodes)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def cardinality(self, name: str) -> int:
        return self._cards[name]

    def parents(self, name: str) -> tuple[str, ...]:
        ps = {p for p, c in self.edges if c == name}
        return tuple(n for n, _ in self.nodes if n in ps)


def build_structure(kind: str, *, cell_count: int, class_count: int) -> Dag:
    """The detector network ``train`` fits; the one place that decides it.

    The spatial graph has 5 nodes and 6 edges; the spatio-temporal one adds
    V and D plus edges C->V, G->V and C->D. Nodes come in ``NODE_ORDER``
    without F, which is never evidence, so P(G) is the marginal cell
    frequency. A bundle loads only if each of its networks has exactly
    these nodes, in order, and these edges.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    cards = {"G": cell_count, "C": class_count, **FIXED_CARDINALITIES}
    if kind == SPATIAL:
        names, edges = NODE_ORDER[1:6], SPATIAL_EDGES
    else:
        names, edges = NODE_ORDER[1:], SPATIAL_EDGES + TEMPORAL_EDGES
    return Dag(tuple((n, cards[n]) for n in names), edges)


@dataclass(frozen=True)
class Cpt:
    """P(child | parents) as a dense (parent configurations x child values) table.

    Parent configurations are mixed-radix row indices with the last parent
    varying fastest. ``observed`` marks rows backed by training counts;
    unobserved rows hold the uniform distribution.
    """

    child: str
    parents: tuple[str, ...]
    parent_cards: tuple[int, ...]
    table: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        n_configs = int(np.prod(self.parent_cards)) if self.parents else 1
        if self.table.shape[0] != n_configs or self.table.ndim != 2:
            raise ValueError(f"CPT for {self.child} has shape {self.table.shape}, "
                             f"expected ({n_configs}, cardinality)")
        if self.observed.shape != (n_configs,):
            raise ValueError("observed mask does not match parent configurations")
        if not np.all(np.isfinite(self.table)):  # NaN passes both checks below
            raise ValueError(f"non-finite probability in CPT for {self.child}")
        if np.any(self.table < 0):
            raise ValueError(f"negative probability in CPT for {self.child}")
        if np.any(np.abs(self.table.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise ValueError(f"CPT rows for {self.child} do not sum to 1")


@dataclass(frozen=True)
class BayesNet:
    dag: Dag
    cpts: tuple[Cpt, ...]

    def __post_init__(self):
        by_name = {c.child: c for c in self.cpts}
        if set(by_name) != set(self.dag.names) or len(self.cpts) != len(self.dag.nodes):
            raise ValueError("need exactly one CPT per DAG node")
        for name, card in self.dag.nodes:
            cpt = by_name[name]
            if cpt.parents != self.dag.parents(name):
                raise ValueError(f"CPT parents {cpt.parents} do not match DAG parents "
                                 f"{self.dag.parents(name)} for {name}")
            if cpt.table.shape[1] != card:
                raise ValueError(f"CPT for {name} has {cpt.table.shape[1]} values, "
                                 f"expected {card}")

    def cpt(self, name: str) -> Cpt:
        for c in self.cpts:
            if c.child == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class Posterior:
    """Normalized distribution over a query variable.

    ``impossible`` is set when the evidence has zero probability under the
    model; the values then fall back to uniform and downstream consumers
    treat the queried object as maximally anomalous.
    """

    values: np.ndarray
    impossible: bool = False


def fit_mle(dag: Dag, data: Mapping[str, np.ndarray]) -> BayesNet:
    """Maximum-likelihood CPTs from integer-coded observation columns.

    Every DAG node needs a column of codes in [0, cardinality). One pass of
    mixed-radix binning and counting per node; identical tables produce
    bit-identical CPTs.
    """
    missing = [n for n in dag.names if n not in data]
    if missing:
        raise FitError(f"observation table lacks columns for {missing}")
    columns = {name: np.asarray(data[name], dtype=np.int64) for name in dag.names}
    lengths = {col.shape[0] for col in columns.values()}
    if len(lengths) != 1:
        raise FitError("observation columns have mismatched lengths")
    n_rows = lengths.pop()
    if n_rows == 0:
        raise FitError("cannot fit on an empty observation table")
    for name, card in dag.nodes:
        col = columns[name]
        if col.min() < 0 or col.max() >= card:
            raise FitError(f"column {name} holds codes outside [0, {card})")
    cpts = []
    for name, card in dag.nodes:
        parents = dag.parents(name)
        child_col = columns[name]
        if not parents:
            counts = np.bincount(child_col, minlength=card).astype(float)
            table = (counts / counts.sum()).reshape(1, card)
            cpts.append(Cpt(name, (), (), table, np.array([True])))
            continue
        parent_cards = tuple(dag.cardinality(p) for p in parents)
        rows = np.ravel_multi_index(tuple(columns[p] for p in parents), parent_cards)
        n_configs = int(np.prod(parent_cards))
        counts = np.bincount(rows * card + child_col,
                             minlength=n_configs * card).astype(float)
        counts = counts.reshape(n_configs, card)
        totals = counts.sum(axis=1)
        seen = totals > 0
        table = np.empty_like(counts)
        table[seen] = counts[seen] / totals[seen, None]
        table[~seen] = 1.0 / card
        cpts.append(Cpt(name, parents, parent_cards, table, seen))
    return BayesNet(dag, tuple(cpts))


def _integer(var: str, value) -> int:
    """``value`` of ``var`` if it is a Python or numpy integer; a bool, a float
    (even an integral one) or text is refused, since ``int()`` would truncate
    or parse it into some other code."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{var}={value!r} is not an integer")
    return int(value)


def _codes(net: BayesNet, values: Mapping[str, int]) -> dict[str, int]:
    """The evidence codes of ``values``: known variables, integers in range."""
    cards = net.dag._cards
    codes = {}
    for var, val in values.items():
        if var not in cards:
            raise ValueError(f"unknown evidence variable {var!r}")
        val = _integer(var, val)
        if not 0 <= val < cards[var]:
            raise ValueError(f"evidence {var}={val} outside [0, {cards[var]})")
        codes[var] = val
    return codes


def _normalized(unnormalized: np.ndarray, card: int) -> Posterior:
    total = unnormalized.sum()
    if total == 0.0:
        return Posterior(np.full(card, 1.0 / card), impossible=True)
    return Posterior(unnormalized / total, impossible=False)


def _check_query(net: BayesNet, query: str, evidence: Mapping[str, int]) -> dict[str, int]:
    if query not in net.dag._cards:
        raise ValueError(f"unknown query variable {query!r}")
    if query in evidence:
        raise ValueError(f"query variable {query!r} also appears in the evidence")
    return _codes(net, evidence)


def eliminate(net: BayesNet, query: str, evidence: Mapping[str, int]) -> Posterior:
    """Exact posterior P(query | evidence) as one sum-product contraction.

    Each CPT is reduced by the evidence; the fully reduced ones multiply
    into a scalar and the rest become ``np.einsum`` operands over their
    remaining variables, summed down to the query. The contraction costs
    the product of the cardinalities of the query and every variable
    summed out, so a query that leaves the grid cell G hidden pays for
    all of G's values at once.
    """
    evidence = _check_query(net, query, evidence)
    cards, axis = net.dag._cards, net.dag._axis
    operands = []
    constant = 1.0
    for cpt in net.cpts:
        # one basic-indexing step fixes every evidence axis: a view, no arithmetic
        scope = cpt.parents + (cpt.child,)
        values = cpt.table.reshape(cpt.parent_cards + (cards[cpt.child],))[
            tuple(evidence.get(v, slice(None)) for v in scope)]
        free = [axis[v] for v in scope if v not in evidence]
        if free:
            operands += [values, free]
        else:
            constant *= float(values)
    # the scalar operand goes first so products associate as constant * CPTs
    # default optimize=False: a path search costs more than these contractions
    return _normalized(np.einsum(np.float64(constant), [], *operands, [axis[query]]),
                       cards[query])


def leave_one_out(net: BayesNet, assignment: Mapping[str, int],
                  queries: tuple[str, ...]) -> dict[str, Posterior]:
    """P(X | every other variable) for each X in ``queries``, from one full assignment.

    Every CPT is reduced once by ``assignment``: to one scalar, and to a
    1-D slice over each queried variable of its scope. A query multiplies,
    in CPT order, the scalars of the CPTs without X into a constant and
    then the slices of those with X; that is the order ``eliminate``
    multiplies in when nothing is summed out, so each posterior, its
    uniform fallback and its ``impossible`` flag are the bits of
    ``eliminate(net, X, assignment without X)``.
    """
    cards = net.dag._cards
    if set(assignment) != set(cards) or not set(queries) <= set(cards):
        raise ValueError(f"leave-one-out queries need a value for exactly {sorted(cards)} "
                         f"and queries among them, got {sorted(assignment)} and {queries}")
    codes = _codes(net, assignment)
    # per query, the slices of the CPTs whose scope holds it, keyed by CPT index in CPT order
    scalars, slices = [], {x: {} for x in queries}
    for i, cpt in enumerate(net.cpts):
        # the row of the parents' codes, last parent fastest, and each queried
        # parent's (offset in that row index, stride, cardinality)
        row, stride, spans = 0, 1, []
        for parent, card in zip(reversed(cpt.parents), reversed(cpt.parent_cards)):
            row += codes[parent] * stride
            if parent in slices:
                spans.append((parent, codes[parent] * stride, stride, card))
            stride *= card
        child = codes[cpt.child]
        scalars.append(cpt.table.item(row, child))
        if cpt.child in slices:
            slices[cpt.child][i] = cpt.table[row]
        for parent, offset, stride, card in spans:
            start = row - offset
            slices[parent][i] = cpt.table[start:start + card * stride:stride, child]
    posteriors = {}
    for x, mine in slices.items():
        constant = 1.0
        for i, scalar in enumerate(scalars):
            if i not in mine:
                constant *= scalar
        unnormalized = np.float64(constant)
        for values in mine.values():
            unnormalized = unnormalized * values
        posteriors[x] = _normalized(unnormalized, cards[x])
    return posteriors


def joint_brute_force(net: BayesNet, query: str, evidence: Mapping[str, int],
                      size_cap: int = 10_000_000) -> Posterior:
    """Posterior by full joint enumeration; the oracle for ``eliminate``.

    Deliberately shares no machinery with the elimination path: the joint
    is materialized state by state from raw CPT lookups, masked by the
    evidence and summed over the query variable.
    """
    evidence = _check_query(net, query, evidence)
    names = list(net.dag.names)
    cards = [net.dag.cardinality(n) for n in names]
    total_states = math.prod(cards)
    if total_states > size_cap:
        raise ValueError(f"joint has {total_states} states, above the oracle cap {size_cap}")
    grids = np.indices(cards, dtype=np.int64).reshape(len(cards), -1)
    column = {name: grids[i] for i, name in enumerate(names)}
    prob = np.ones(grids.shape[1], dtype=float)
    for cpt in net.cpts:
        if cpt.parents:
            rows = np.ravel_multi_index(tuple(column[p] for p in cpt.parents),
                                        cpt.parent_cards)
        else:
            rows = np.zeros(grids.shape[1], dtype=np.int64)
        prob = prob * cpt.table[rows, column[cpt.child]]
    for var, val in evidence.items():
        prob = prob * (column[var] == val)
    qcard = net.dag.cardinality(query)
    unnormalized = np.bincount(column[query], weights=prob, minlength=qcard)
    total = unnormalized.sum()
    if total == 0.0:
        return Posterior(np.full(qcard, 1.0 / qcard), impossible=True)
    return Posterior(unnormalized / total, impossible=False)


def class_cpt_query(net: BayesNet, evidence: Mapping[str, int]) -> Posterior:
    """P(C | everything else), the detector's per-cell anomaly query.

    The evidence must assign every non-class variable of the fitted network
    (G, I, BS, BAR and, for spatio-temporal models, V and D). The answer is
    ``leave_one_out``'s for X = C, the reduction explanations use.
    """
    expected = set(net.dag.names) - {"C"}
    if set(evidence) != expected:
        raise ValueError(f"class query needs evidence for exactly {sorted(expected)}, "
                         f"got {sorted(evidence)}")
    # leave_one_out needs a full assignment; the posterior of X never reads
    # X's own code, so any in-range class code serves
    return leave_one_out(net, {**evidence, "C": 0}, ("C",))["C"]
