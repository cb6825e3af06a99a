import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_cpts, random_net, random_query
from gridvad import bn, pipeline

# evidence codes that int() would truncate or parse into an in-range code
NOT_INTEGERS = (1.0, 0.5, True, np.bool_(True), "1", np.float64(1.0))


class TestDag:
    def test_parents_follow_declaration_order(self):
        dag = bn.Dag((("A", 2), ("B", 2), ("C", 2)), (("B", "C"), ("A", "C")))
        assert dag.parents("C") == ("A", "B")

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            bn.Dag((("A", 2), ("B", 2), ("C", 2)),
                   (("A", "B"), ("B", "C"), ("C", "A")))

    def test_double_edge_rejected(self):
        with pytest.raises(ValueError, match="more than one edge"):
            bn.Dag((("A", 2), ("B", 2)), (("A", "B"), ("A", "B")))

    def test_antiparallel_edge_rejected(self):
        with pytest.raises(ValueError, match="more than one edge"):
            bn.Dag((("A", 2), ("B", 2)), (("A", "B"), ("B", "A")))

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            bn.Dag((("A", 2),), (("A", "B"),))


class TestBuildStructure:
    def test_fitted_graph_has_no_frame_node(self):
        for kind in bn.MODEL_KINDS:
            dag = bn.build_structure(kind, cell_count=4, class_count=2)
            assert "F" not in dag.names
            assert dag.parents("G") == ()

    def test_spatial_counts(self):
        dag = bn.build_structure("spatial", cell_count=144, class_count=5)
        assert len(dag.nodes) == 5
        assert len(dag.edges) == 6

    def test_spatiotemporal_counts(self):
        dag = bn.build_structure("spatiotemporal", cell_count=144, class_count=5)
        assert len(dag.nodes) == 7
        assert len(dag.edges) == 9
        assert dag.cardinality("V") == 7
        assert dag.cardinality("D") == 9  # eight compass points plus "none"

    # Bundles store CPT tables keyed by child without the layout, whose nodes and
    # parents (the order of each CPT's rows) come from build_structure. A change
    # to anything pinned here must bump pipeline.BUNDLE_VERSION, or older
    # tables whose shapes still fit would be read under the wrong layout.
    def test_documented_edges(self):
        spatial = {"G": (), "C": (), "I": ("G", "BS", "BAR"), "BS": ("G", "C"), "BAR": ("C",)}
        for kind, parents in (("spatial", spatial),
                              ("spatiotemporal", {**spatial, "V": ("G", "C"), "D": ("C",)})):
            dag = bn.build_structure(kind, cell_count=2, class_count=3)
            cards = {"G": 2, "C": 3, **bn.FIXED_CARDINALITIES}
            assert dag.nodes == tuple((n, cards[n]) for n in parents)
            assert {n: dag.parents(n) for n in dag.names} == parents
            assert set(dag.edges) == {(p, n) for n, ps in parents.items() for p in ps}
        assert pipeline.BUNDLE_VERSION == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            bn.build_structure("temporal", cell_count=1, class_count=1)


class TestFitMle:
    def test_hand_frequency(self):
        dag = bn.Dag((("G", 2), ("BS", 2)), (("G", "BS"),))
        data = {"G": np.array([1, 1, 1, 1]), "BS": np.array([0, 0, 0, 1])}
        net = bn.fit_mle(dag, data)
        cpt = net.cpt("BS")
        assert cpt.table[1, 0] == 0.75
        assert cpt.table[1, 1] == 0.25

    def test_single_row_degenerate(self):
        dag = bn.Dag((("A", 3), ("B", 2)), (("A", "B"),))
        net = bn.fit_mle(dag, {"A": np.array([2]), "B": np.array([1])})
        assert net.cpt("A").table[0, 2] == 1.0
        assert net.cpt("B").table[2, 1] == 1.0

    def test_unobserved_rows_uniform_and_flagged(self):
        dag = bn.Dag((("A", 2), ("B", 4)), (("A", "B"),))
        net = bn.fit_mle(dag, {"A": np.array([0, 0]), "B": np.array([1, 3])})
        cpt = net.cpt("B")
        assert cpt.observed.tolist() == [True, False]
        assert np.array_equal(cpt.table[1], np.full(4, 0.25))

    def test_empty_table_rejected(self):
        dag = bn.Dag((("A", 2),), ())
        with pytest.raises(bn.FitError):
            bn.fit_mle(dag, {"A": np.array([], dtype=int)})

    def test_missing_column_rejected(self):
        dag = bn.Dag((("A", 2), ("B", 2)), ())
        with pytest.raises(bn.FitError, match="B"):
            bn.fit_mle(dag, {"A": np.array([0])})

    def test_out_of_range_code_rejected(self):
        dag = bn.Dag((("A", 2),), ())
        with pytest.raises(bn.FitError):
            bn.fit_mle(dag, {"A": np.array([2])})

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        dag = bn.Dag((("A", 3), ("B", 4), ("C", 2)), (("A", "B"), ("A", "C"), ("B", "C")))
        data = {n: rng.integers(0, dag.cardinality(n), 500) for n in dag.names}
        net = bn.fit_mle(dag, data)
        for cpt in net.cpts:
            assert np.allclose(cpt.table.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(11)
        dag = bn.Dag((("A", 3), ("B", 4)), (("A", "B"),))
        data = {n: rng.integers(0, dag.cardinality(n), 300) for n in dag.names}
        net1 = bn.fit_mle(dag, data)
        net2 = bn.fit_mle(dag, data)
        for c1, c2 in zip(net1.cpts, net2.cpts):
            assert np.array_equal(c1.table, c2.table)

    def test_mle_maximizes_training_likelihood(self):
        rng = np.random.default_rng(12)
        dag = bn.Dag((("A", 3), ("B", 3)), (("A", "B"),))
        data = {"A": rng.integers(0, 3, 400), "B": rng.integers(0, 3, 400)}
        net = bn.fit_mle(dag, data)

        def log_likelihood(net_):
            total = 0.0
            for cpt in net_.cpts:
                if cpt.parents:
                    rows = np.ravel_multi_index(
                        tuple(data[p] for p in cpt.parents), cpt.parent_cards)
                else:
                    rows = np.zeros(len(data[cpt.child]), dtype=int)
                total += float(np.log(cpt.table[rows, data[cpt.child]]).sum())
            return total

        base = log_likelihood(net)
        for cpt_idx, cpt in enumerate(net.cpts):
            for row in range(cpt.table.shape[0]):
                if not cpt.observed[row]:
                    continue
                for col in range(cpt.table.shape[1]):
                    for delta in (+0.01, -0.01):
                        perturbed = cpt.table.copy()
                        perturbed[row, col] = max(perturbed[row, col] + delta, 0.0)
                        perturbed[row] /= perturbed[row].sum()
                        cpts = list(net.cpts)
                        cpts[cpt_idx] = bn.Cpt(cpt.child, cpt.parents, cpt.parent_cards,
                                               perturbed, cpt.observed)
                        assert log_likelihood(bn.BayesNet(net.dag, tuple(cpts))) <= base + 1e-9


class TestCountsAdd:
    @pytest.mark.parametrize("seed", range(8))
    def test_counts_over_a_random_split_equal_the_one_shot_counts(self, seed):
        rng = np.random.default_rng(200 + seed)
        dag = random_net(rng).dag
        n = int(rng.integers(1, 300))
        data = {name: rng.integers(0, card, n) for name, card in dag.nodes}
        # cut points may repeat, so some chunks are empty
        cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(1, 6))))
        total = None
        for start, stop in zip([0, *cuts], [*cuts, n]):
            total = bn.count_observations(dag, {k: v[start:stop] for k, v in data.items()},
                                          total)
        whole = bn.count_observations(dag, data)
        assert total.keys() == whole.keys() == set(dag.names)
        for name in dag.names:
            assert total[name].dtype == np.int64
            assert np.array_equal(total[name], whole[name])
        split, one_shot = bn.fit_counts(dag, total), bn.fit_mle(dag, data)
        for a, b in zip(split.cpts, one_shot.cpts, strict=True):
            assert np.array_equal(a.table, b.table) and np.array_equal(a.observed, b.observed)

    def test_counts_are_hand_counts(self):
        dag = bn.Dag((("A", 2), ("B", 3)), (("A", "B"),))
        counts = bn.count_observations(dag, {"A": np.array([1, 1, 0]), "B": np.array([2, 0, 2])})
        assert counts["A"].tolist() == [[1, 2]]
        assert counts["B"].tolist() == [[0, 0, 1], [1, 0, 1]]


class TestEliminate:
    def chain(self):
        dag = bn.Dag((("A", 2), ("B", 3)), (("A", "B"),))
        a = bn.Cpt("A", (), (), np.array([[0.3, 0.7]]), np.array([True]))
        b = bn.Cpt("B", ("A",), (2,),
                   np.array([[0.1, 0.2, 0.7], [0.5, 0.25, 0.25]]), np.ones(2, bool))
        return bn.BayesNet(dag, (a, b))

    def test_root_query_returns_prior(self):
        post = bn.eliminate(self.chain(), "A", {})
        assert np.allclose(post.values, [0.3, 0.7], atol=1e-15)

    def test_chain_conditional_is_cpt_row(self):
        post = bn.eliminate(self.chain(), "B", {"A": 1})
        assert np.allclose(post.values, [0.5, 0.25, 0.25], atol=1e-15)
        oracle = bn.joint_brute_force(self.chain(), "B", {"A": 1})
        assert np.allclose(post.values, oracle.values, atol=1e-15)

    def test_impossible_evidence_flagged_uniform(self):
        dag = bn.Dag((("A", 2), ("B", 2)), (("A", "B"),))
        a = bn.Cpt("A", (), (), np.array([[1.0, 0.0]]), np.array([True]))
        b = bn.Cpt("B", ("A",), (2,), np.array([[1.0, 0.0], [0.5, 0.5]]),
                   np.ones(2, bool))
        net = bn.BayesNet(dag, (a, b))
        post = bn.eliminate(net, "A", {"B": 1})
        assert post.impossible
        assert np.allclose(post.values, [0.5, 0.5])
        oracle = bn.joint_brute_force(net, "A", {"B": 1})
        assert oracle.impossible

    def test_query_in_evidence_rejected(self):
        with pytest.raises(ValueError):
            bn.eliminate(self.chain(), "A", {"A": 0})

    def test_evidence_value_out_of_range(self):
        for bad in (5, *NOT_INTEGERS):
            with pytest.raises(ValueError, match="A="):
                bn.eliminate(self.chain(), "B", {"A": bad})

    def test_numpy_integer_evidence_reads_as_its_value(self):
        assert (bn.eliminate(self.chain(), "B", {"A": np.int64(1)}).values.tobytes()
                == bn.eliminate(self.chain(), "B", {"A": 1}).values.tobytes())

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(150):
            net = random_net(rng)
            query, evidence = random_query(rng, net)
            queries = [(query, evidence)]
            # the production shape: one variable given all the others
            full = {n: int(rng.integers(c)) for n, c in net.dag.nodes}
            queries += [(n, {v: x for v, x in full.items() if v != n})
                        for n in net.dag.names]
            for q, ev in queries:
                fast = bn.eliminate(net, q, ev)
                slow = bn.joint_brute_force(net, q, ev)
                assert fast.impossible == slow.impossible
                assert np.max(np.abs(fast.values - slow.values)) <= 1e-12

    def test_deterministic_one_hot(self):
        dag = bn.Dag((("A", 2), ("B", 2)), (("A", "B"),))
        a = bn.Cpt("A", (), (), np.array([[0.0, 1.0]]), np.array([True]))
        b = bn.Cpt("B", ("A",), (2,), np.array([[1.0, 0.0], [0.0, 1.0]]),
                   np.ones(2, bool))
        net = bn.BayesNet(dag, (a, b))
        post = bn.joint_brute_force(net, "B", {})
        assert post.values.tolist() == [0.0, 1.0]


class TestBruteForceCap:
    def test_size_cap_refusal(self):
        nodes = tuple((f"n{i}", 10) for i in range(8))  # 10^8 joint states
        dag = bn.Dag(nodes, ())
        cpts = tuple(bn.Cpt(n, (), (), np.full((1, 10), 0.1), np.array([True]))
                     for n, _ in nodes)
        net = bn.BayesNet(dag, cpts)
        with pytest.raises(ValueError, match="cap"):
            bn.joint_brute_force(net, "n0", {})


class TestClassCptQuery:
    def fitted(self, kind="spatial"):
        dag = bn.build_structure(kind, cell_count=2, class_count=2)
        rng = np.random.default_rng(15)
        n = 400
        data = {"G": rng.integers(0, 2, n), "C": rng.integers(0, 2, n),
                "I": rng.integers(0, 5, n), "BS": rng.integers(0, 5, n),
                "BAR": rng.integers(0, 3, n)}
        if kind == "spatiotemporal":
            data["V"] = rng.integers(0, 7, n)
            data["D"] = rng.integers(0, 9, n)
        return bn.fit_mle(dag, data), data

    def test_spatial_subset_evidence(self):
        net, _ = self.fitted("spatial")
        post = bn.class_cpt_query(net, {"G": 0, "I": 1, "BS": 2, "BAR": 0})
        assert post.values.shape == (2,)
        assert post.values.sum() == pytest.approx(1.0)

    def test_incomplete_evidence_rejected(self):
        net, _ = self.fitted("spatial")
        with pytest.raises(ValueError, match="exactly"):
            bn.class_cpt_query(net, {"G": 0, "I": 1})
        complete = {"G": 1, "I": 1, "BS": 1, "BAR": 1}
        for var in complete:
            for bad in NOT_INTEGERS:
                with pytest.raises(ValueError, match=f"{var}=.* is not an integer"):
                    bn.class_cpt_query(net, {**complete, var: bad})

    @staticmethod
    def _matches_plain_eliminate(net, evidence) -> bool:
        """Assert the class query is eliminate's, bit for bit; return whether impossible."""
        got, want = bn.class_cpt_query(net, evidence), bn.eliminate(net, "C", evidence)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.impossible == want.impossible
        return want.impossible

    def test_matches_plain_eliminate(self):
        rng = np.random.default_rng(21)
        impossible = 0
        for _ in range(300):
            kind = bn.MODEL_KINDS[int(rng.integers(2))]
            dag = bn.build_structure(kind, cell_count=int(rng.integers(1, 5)),
                                     class_count=int(rng.integers(1, 4)))
            net = random_cpts(rng, dag, zero_rate=0.8)
            evidence = {n: int(rng.integers(c)) for n, c in dag.nodes if n != "C"}
            impossible += self._matches_plain_eliminate(net, evidence)
        assert impossible > 0  # the structural zeros reach the uniform fallback

    def test_matches_plain_eliminate_on_fitted_detector_networks(self, reference_run):
        rng = np.random.default_rng(22)
        impossible = 0
        for gran in reference_run["bundle"].granularities:
            for _ in range(200):
                evidence = {n: int(rng.integers(c)) for n, c in gran.net.dag.nodes if n != "C"}
                impossible += self._matches_plain_eliminate(gran.net, evidence)
        assert impossible > 0

    def test_detector_network_matches_brute_force(self):
        net, _ = self.fitted("spatiotemporal")
        rng = np.random.default_rng(16)
        queries = []
        for _ in range(20):
            full = {n: int(rng.integers(c)) for n, c in net.dag.nodes}
            queries += [(n, {v: x for v, x in full.items() if v != n})
                        for n in net.dag.names]
            # the unseen-class explanation: BS and V summed out
            queries.append(("C", {v: full[v] for v in ("G", "I", "BAR", "D")}))
        for q, ev in queries:
            fast = bn.eliminate(net, q, ev)
            slow = bn.joint_brute_force(net, q, ev)
            assert fast.impossible == slow.impossible
            assert np.max(np.abs(fast.values - slow.values)) <= 1e-12

    def test_two_class_scene_prefers_matching_class(self):
        # class 0 always lands in cell 0 with BS bin 1, class 1 in cell 1 / bin 3
        dag = bn.build_structure("spatial", cell_count=2, class_count=2)
        n = 200
        half = n // 2
        data = {
            "G": np.array([0] * half + [1] * half),
            "C": np.array([0] * half + [1] * half),
            "BS": np.array([1] * half + [3] * half),
            "BAR": np.array([0] * half + [1] * half),
            "I": np.array([1] * half + [2] * half),
        }
        net = bn.fit_mle(dag, data)
        post = bn.class_cpt_query(net, {"G": 0, "BS": 1, "BAR": 0, "I": 1})
        assert post.values[0] > post.values[1]
        assert post.values[0] == pytest.approx(1.0)


def _loo_matches_eliminate(net, assignment) -> int:
    """Assert every leave-one-out posterior is eliminate's, bit for bit; count impossible."""
    posteriors = bn.leave_one_out(net, assignment, net.dag.names)
    assert list(posteriors) == list(net.dag.names)
    impossible = 0
    for query, got in posteriors.items():
        want = bn.eliminate(net, query, {k: v for k, v in assignment.items() if k != query})
        assert got.impossible == want.impossible
        assert got.values.tobytes() == want.values.tobytes()
        impossible += want.impossible
    return impossible


class TestLeaveOneOut:
    def test_bit_identical_to_eliminate_on_random_networks(self):
        rng = np.random.default_rng(19)
        impossible = 0
        for _ in range(400):
            net = random_net(rng, max_nodes=6, max_card=4, zero_rate=0.8)
            assignment = {name: int(rng.integers(net.dag.cardinality(name)))
                          for name in net.dag.names}
            impossible += _loo_matches_eliminate(net, assignment)
        assert impossible > 0  # the structural zeros reach the uniform fallback

    def test_bit_identical_to_eliminate_on_fitted_detector_networks(self, reference_run):
        rng = np.random.default_rng(7)
        impossible = 0
        for gran in reference_run["bundle"].granularities:
            net = gran.net
            for _ in range(150):
                assignment = {name: int(rng.integers(net.dag.cardinality(name)))
                              for name in net.dag.names}
                impossible += _loo_matches_eliminate(net, assignment)
        assert impossible > 0

    def test_rejects_incomplete_or_out_of_range_assignment(self):
        net = random_net(np.random.default_rng(3))
        full = {name: 0 for name in net.dag.names}
        first = net.dag.names[0]
        with pytest.raises(ValueError, match="need a value"):
            bn.leave_one_out(net, {k: v for k, v in full.items() if k != first}, (first,))
        with pytest.raises(ValueError, match="need a value"):
            bn.leave_one_out(net, full, ("nope",))
        with pytest.raises(ValueError, match="outside"):
            bn.leave_one_out(net, {**full, first: net.dag.cardinality(first)}, (first,))
        for bad in NOT_INTEGERS:
            with pytest.raises(ValueError, match=f"{first}=.* is not an integer"):
                bn.leave_one_out(net, {**full, first: bad}, (first,))

    def test_posterior_ignores_the_queried_variables_own_code(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            net = random_net(rng, max_nodes=6, max_card=4, zero_rate=0.8)
            assignment = {name: int(rng.integers(net.dag.cardinality(name)))
                          for name in net.dag.names}
            for x, card in net.dag.nodes:
                want = bn.leave_one_out(net, assignment, (x,))[x]
                for code in range(card):
                    got = bn.leave_one_out(net, {**assignment, x: code}, (x,))[x]
                    assert got.values.tobytes() == want.values.tobytes()
                    assert got.impossible == want.impossible


class TestCptValidation:
    def test_replaced_unobserved_row_must_stay_uniform(self):
        dag = bn.Dag((("A", 2), ("B", 4)), (("A", "B"),))
        cpt = bn.fit_mle(dag, {"A": np.array([0, 0]), "B": np.array([1, 3])}).cpt("B")
        table = cpt.table.copy()
        table[1] = [0.5, 0.5, 0.0, 0.0]
        with pytest.raises(ValueError, match=re.escape("unobserved row of the CPT for B is "
                                                       "not uniform (1/4 in each value)")):
            replace(cpt, table=table)
        # the same row may hold it once it is marked observed
        assert replace(cpt, table=table, observed=np.ones(2, dtype=bool)).table[1, 0] == 0.5

    def test_observed_mask_must_be_boolean(self):
        with pytest.raises(ValueError, match="observed mask of CPT for X"):
            bn.Cpt("X", ("P",), (2,), np.full((2, 2), 0.5), np.ones(2, dtype=int))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probability_names_the_child(self, bad):
        table = np.array([[0.5, 0.5], [bad, 0.5]])
        with pytest.raises(ValueError, match="non-finite probability in CPT for X"):
            bn.Cpt("X", ("P",), (2,), table, np.ones(2, dtype=bool))
