"""The discrete network engine: structure, MLE fitting and exact queries.

The detector's networks are ordinary discrete Bayesian networks. This
script builds the spatio-temporal structure, fits it on random codes,
runs the class query and cross-checks variable elimination against the
brute-force joint enumeration oracle.
"""

import numpy as np

from gridvad import bn

# The frame index is never evidence, so the graph has no frame node and
# keeps P(G) as the marginal cell frequency.
dag = bn.build_structure("spatiotemporal", cell_count=144, class_count=3)
print(f"detector graph: {len(dag.nodes)} nodes, {len(dag.edges)} edges")
for parent, child in dag.edges:
    print(f"  {parent} -> {child}")

# Fit from integer-coded observation columns (here: random, for shape).
rng = np.random.default_rng(0)
n = 5000
data = {
    "G": rng.integers(0, 144, n),
    "C": rng.integers(0, 3, n),
    "I": rng.integers(0, 5, n),
    "BS": rng.integers(0, 5, n),
    "BAR": rng.integers(0, 3, n),
    "V": rng.integers(0, 7, n),
    "D": rng.integers(0, 9, n),
}
net = bn.fit_mle(dag, data)
bs_cpt = net.cpt("BS")
print(f"\nP(BS | G, C) table shape: {bs_cpt.table.shape}, "
      f"{int(bs_cpt.observed.sum())} of {len(bs_cpt.observed)} parent "
      "configurations observed (the rest are flagged uniform rows)")

# The anomaly query: P(C | G, I, BS, BAR, V, D).
evidence = {"G": 17, "I": 1, "BS": 2, "BAR": 0, "V": 2, "D": 2}
posterior = bn.class_cpt_query(net, evidence)
print(f"\nP(C | {evidence}) = {np.round(posterior.values, 4)}")

# Variable elimination agrees with full joint enumeration to float noise.
slow = bn.joint_brute_force(net, "C", evidence)
print(f"joint-enumeration oracle    = {np.round(slow.values, 4)}")
print(f"max abs difference          = {np.max(np.abs(posterior.values - slow.values)):.2e}")

# Impossible evidence is flagged; the pipeline scores such objects 0.0.
impossible = bn.eliminate(net, "C", dict(evidence, G=143))
print(f"\nevidence at an unseen cell -> impossible={impossible.impossible}")
