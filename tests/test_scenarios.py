"""Scenario-matrix layers: generators, registry resolution, task runners.

Covers the datasets layer (ER/SBM generators, temporal replay, the unified
registry), the experiments layer (``Scenario`` dispatch, link-prediction
splits, the shared cell runner), and their seams — everything the golden
fixtures in ``test_scenarios_golden.py`` then pin numerically.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import (
    GRAPH_FAMILIES,
    TemporalEdgeStream,
    available_families,
    dataset_cli_flags,
    generate_erdos_renyi_graph,
    generate_sbm_graph,
    generate_scale_free_graph,
    load_dataset,
    load_family,
)
from repro.experiments import Scale, Scenario, run_scenario_cell
from repro.experiments.linkpred import (
    EdgeSet,
    edge_dyad_groups,
    make_link_split,
    run_linkpred_method,
)
from repro.graph import Graph


class TestErdosRenyi:
    def test_shapes_and_determinism(self):
        a = generate_erdos_renyi_graph(300, seed=4)
        b = generate_erdos_renyi_graph(300, seed=4)
        assert isinstance(a, Graph) and a.num_nodes == 300
        assert np.array_equal(a.features, b.features)
        assert (a.adjacency != b.adjacency).nnz == 0
        c = generate_erdos_renyi_graph(300, seed=5)
        assert not np.array_equal(a.features, c.features)

    def test_adjacency_symmetric_no_loops(self):
        graph = generate_erdos_renyi_graph(200, seed=0)
        adj = graph.adjacency
        assert (adj != adj.T).nnz == 0
        assert adj.diagonal().sum() == 0

    def test_homophily_raises_same_group_fraction(self):
        from repro.graph.utils import edge_homophily

        low = generate_erdos_renyi_graph(600, group_homophily=1.0, seed=1)
        high = generate_erdos_renyi_graph(600, group_homophily=6.0, seed=1)
        assert edge_homophily(
            high.adjacency, high.sensitive
        ) > edge_homophily(low.adjacency, low.sensitive)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"num_nodes": 9}, "at least 10 nodes"),
            ({"num_features": 1}, "at least 2 features"),
            ({"average_degree": 0.0}, "average_degree"),
            ({"group_homophily": -0.5}, "group_homophily"),
            ({"extra_sensitive_attrs": -1}, "extra_sensitive_attrs"),
        ],
    )
    def test_rejects_invalid_params(self, kwargs, match):
        params = {"num_nodes": 100, **kwargs}
        with pytest.raises(ValueError, match=match):
            generate_erdos_renyi_graph(**params)

    def test_extra_sensitive_attrs_drawn_last(self):
        plain = generate_erdos_renyi_graph(200, seed=3)
        extra = generate_erdos_renyi_graph(200, seed=3, extra_sensitive_attrs=2)
        assert "extra_sensitive" not in plain.meta
        attrs = extra.meta["extra_sensitive"]
        assert sorted(attrs) == ["attr1", "attr2"]
        for values in attrs.values():
            assert values.shape == (200,) and values.dtype == np.int64
            assert set(np.unique(values).tolist()) == {0, 1}
        # Drawn after every other draw: the rest of the graph is unchanged.
        assert np.array_equal(plain.features, extra.features)
        assert np.array_equal(plain.train_mask, extra.train_mask)
        assert (plain.adjacency != extra.adjacency).nnz == 0


class TestSBM:
    def test_balanced_communities_in_meta(self):
        graph = generate_sbm_graph(400, num_communities=4, seed=2)
        community = graph.meta["extra_sensitive"]["community"]
        assert community.shape == (400,)
        assert np.bincount(community).tolist() == [100] * 4
        assert graph.meta["generator"] == "sbm"

    def test_community_mixing_controls_intra_fraction(self):
        def intra_fraction(mixing):
            g = generate_sbm_graph(500, community_mixing=mixing, seed=3)
            community = g.meta["extra_sensitive"]["community"]
            coo = g.adjacency.tocoo()
            upper = coo.row < coo.col
            return (
                community[coo.row[upper]] == community[coo.col[upper]]
            ).mean()

        assert intra_fraction(0.1) > intra_fraction(0.6)

    def test_sensitive_mixing_decouples_sensitive_from_community(self):
        def parity_agreement(mixing):
            g = generate_sbm_graph(500, sensitive_mixing=mixing, seed=3)
            community = g.meta["extra_sensitive"]["community"]
            return (g.sensitive == community % 2).mean()

        assert parity_agreement(0.1) > 0.8
        assert abs(parity_agreement(0.5) - 0.5) < 0.1

    def test_deterministic(self):
        a = generate_sbm_graph(300, seed=6)
        b = generate_sbm_graph(300, seed=6)
        assert np.array_equal(a.features, b.features)
        assert (a.adjacency != b.adjacency).nnz == 0

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"num_nodes": 9}, "at least 10 nodes"),
            ({"num_features": 1}, "at least 2 features"),
            ({"num_communities": 1}, "at least 2 communities"),
            ({"community_mixing": 1.5}, "community_mixing"),
            ({"sensitive_mixing": -0.1}, "sensitive_mixing"),
            ({"average_degree": -1.0}, "average_degree"),
            ({"group_homophily": -0.5}, "group_homophily"),
            ({"extra_sensitive_attrs": -1}, "extra_sensitive_attrs"),
        ],
    )
    def test_rejects_invalid_params(self, kwargs, match):
        params = {"num_nodes": 100, **kwargs}
        with pytest.raises(ValueError, match=match):
            generate_sbm_graph(**params)

    def test_extra_sensitive_attrs_join_community(self):
        plain = generate_sbm_graph(200, seed=3)
        extra = generate_sbm_graph(200, seed=3, extra_sensitive_attrs=1)
        attrs = extra.meta["extra_sensitive"]
        assert sorted(attrs) == ["attr1", "community"]
        assert np.array_equal(
            attrs["community"], plain.meta["extra_sensitive"]["community"]
        )
        assert set(np.unique(attrs["attr1"]).tolist()) == {0, 1}
        assert np.array_equal(plain.features, extra.features)
        assert (plain.adjacency != extra.adjacency).nnz == 0


class TestScaleFree:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"num_nodes": 9}, "at least 10 nodes"),
            ({"num_features": 1}, "at least 2 features"),
            ({"power_law_exponent": 2.0}, "power_law_exponent"),
            ({"average_degree": 0.0}, "average_degree"),
            ({"group_homophily": -0.5}, "group_homophily"),
            ({"extra_sensitive_attrs": -1}, "extra_sensitive_attrs"),
        ],
    )
    def test_rejects_invalid_params(self, kwargs, match):
        params = {"num_nodes": 100, **kwargs}
        with pytest.raises(ValueError, match=match):
            generate_scale_free_graph(**params)

    def test_extra_sensitive_attrs_drawn_last(self):
        plain = generate_scale_free_graph(200, seed=3)
        extra = generate_scale_free_graph(200, seed=3, extra_sensitive_attrs=2)
        assert sorted(extra.meta["extra_sensitive"]) == ["attr1", "attr2"]
        assert np.array_equal(plain.features, extra.features)
        assert np.array_equal(plain.labels, extra.labels)
        assert (plain.adjacency != extra.adjacency).nnz == 0


class TestTemporalStream:
    def test_batches_partition_the_edges(self):
        graph = generate_sbm_graph(300, seed=1)
        stream = TemporalEdgeStream(graph, num_batches=5, seed=0)
        total = sum(batch.num_edges for batch in stream.batches())
        coo = graph.adjacency.tocoo()
        assert total == int((coo.row < coo.col).sum())
        assert [b.timestamp for b in stream.batches()] == list(range(5))

    def test_snapshot_prefix_grows_to_full_graph(self):
        graph = generate_sbm_graph(300, seed=1)
        stream = TemporalEdgeStream(graph, num_batches=4, seed=0)
        sizes = [stream.snapshot(t).adjacency.nnz for t in range(4)]
        assert sizes == sorted(sizes)
        assert sizes[-1] == graph.adjacency.nnz
        snap = stream.snapshot(1)
        assert snap.meta["snapshot_timestamp"] == 1
        assert snap.num_nodes == graph.num_nodes

    def test_deterministic_given_seed(self):
        graph = generate_sbm_graph(200, seed=1)
        a = TemporalEdgeStream(graph, num_batches=3, seed=5)
        b = TemporalEdgeStream(graph, num_batches=3, seed=5)
        for t in range(3):
            assert np.array_equal(a.batch(t).src, b.batch(t).src)

    def test_num_edges_counts_each_undirected_edge_once(self):
        graph = generate_sbm_graph(200, seed=1)
        stream = TemporalEdgeStream(graph, num_batches=3, seed=0)
        assert stream.num_edges == graph.adjacency.nnz // 2
        assert stream.num_edges == sum(b.num_edges for b in stream.batches())

    def test_rejects_zero_batches(self):
        graph = generate_sbm_graph(100, seed=1)
        with pytest.raises(ValueError, match="at least 1 batch"):
            TemporalEdgeStream(graph, num_batches=0)

    @pytest.mark.parametrize("method", ["batch", "snapshot"])
    def test_rejects_timestamp_out_of_range(self, method):
        graph = generate_sbm_graph(100, seed=1)
        stream = TemporalEdgeStream(graph, num_batches=3, seed=0)
        for timestamp in (-1, 3):
            with pytest.raises(ValueError, match="timestamp"):
                getattr(stream, method)(timestamp)


class TestRegistryResolution:
    def test_family_keys_resolve(self):
        for family in available_families():
            graph = load_dataset(family, seed=0, num_nodes=120)
            assert graph.num_nodes == 120

    def test_family_params_flow_through(self):
        graph = load_dataset("sbm", seed=0, num_nodes=200, mixing=0.4, homophily=2.0)
        assert graph.meta["sensitive_mixing"] == 0.4

    def test_mixing_rejected_off_sbm(self):
        with pytest.raises(ValueError, match="sbm"):
            load_family("scalefree", num_nodes=100, mixing=0.3)

    def test_named_dataset_rejects_generator_params(self):
        with pytest.raises(TypeError, match="no generator parameters"):
            load_dataset("nba", num_nodes=100)

    def test_unknown_name_lists_all_keys(self):
        with pytest.raises(KeyError, match="sbm"):
            load_dataset("not_a_dataset")

    def test_saved_npz_path_roundtrip(self, tmp_path):
        from repro.io import save_graph

        graph = load_family("erdos_renyi", num_nodes=150, seed=1)
        path = save_graph(graph, tmp_path / "er.npz")
        loaded = load_dataset(str(path))
        assert np.array_equal(loaded.features, graph.features)

    def test_saved_mmap_directory_loads_memory_mapped(self, tmp_path):
        from repro.io import save_graph_mmap

        graph = load_family("sbm", num_nodes=150, seed=1)
        save_graph_mmap(graph, tmp_path / "sbm_dir")
        loaded = load_dataset(str(tmp_path / "sbm_dir"))
        assert isinstance(loaded.features, np.memmap)
        assert np.array_equal(np.asarray(loaded.features), graph.features)

    def test_cli_flag_table_shape(self):
        rows = dict(dataset_cli_flags())
        assert set(rows) == {"family", "homophily", "mixing"}
        assert rows["family"]["choices"] == sorted(GRAPH_FAMILIES)


class TestLinkSplit:
    def test_partitions_are_disjoint_and_labelled(self):
        graph = generate_sbm_graph(300, seed=2)
        split = make_link_split(graph, seed=0)
        for part in (split.train, split.val, split.test):
            pos = part.labels == 1
            assert pos.sum() == (~pos).sum()  # balanced negatives
            assert (part.src < part.dst).all()  # canonical upper triangle
        keys = [
            part.src.astype(np.int64) * graph.num_nodes + part.dst
            for part in (split.train, split.val, split.test)
        ]
        positives = [k[p.labels == 1] for k, p in zip(
            keys, (split.train, split.val, split.test))]
        all_pos = np.concatenate(positives)
        assert np.unique(all_pos).size == all_pos.size  # no edge in two splits

    def test_negatives_are_not_graph_edges(self):
        graph = generate_sbm_graph(300, seed=2)
        split = make_link_split(graph, seed=0)
        coo = graph.adjacency.tocoo()
        upper = coo.row < coo.col
        edge_keys = set(
            (coo.row[upper] * graph.num_nodes + coo.col[upper]).tolist()
        )
        for part in (split.train, split.val, split.test):
            neg = part.labels == 0
            neg_keys = part.src[neg] * graph.num_nodes + part.dst[neg]
            assert not edge_keys.intersection(neg_keys.tolist())

    def test_train_adjacency_excludes_heldout_edges(self):
        graph = generate_sbm_graph(300, seed=2)
        split = make_link_split(graph, seed=0)
        n_train_pos = int((split.train.labels == 1).sum())
        assert split.train_adjacency.nnz == 2 * n_train_pos

    def test_edge_dyad_groups(self):
        sensitive = np.array([0, 0, 1, 1])
        edges = EdgeSet(
            src=np.array([0, 0, 2]),
            dst=np.array([1, 2, 3]),
            labels=np.ones(3, dtype=np.int64),
        )
        assert edge_dyad_groups(sensitive, edges).tolist() == [1, 0, 1]

    def test_edge_set_counts_positives_and_negatives(self):
        graph = generate_sbm_graph(300, seed=2)
        split = make_link_split(graph, seed=0)
        for part in (split.train, split.val, split.test):
            assert part.num_edges == part.src.size == part.labels.size
            assert part.num_edges == 2 * int(part.labels.sum())

    @pytest.mark.parametrize("val, test", [(0.0, 0.0), (0.5, 0.5), (0.7, 0.4)])
    def test_rejects_fractions_outside_unit_interval(self, val, test):
        graph = generate_sbm_graph(150, seed=2)
        with pytest.raises(ValueError, match="val_fraction"):
            make_link_split(graph, val_fraction=val, test_fraction=test)

    def test_rejects_graph_with_too_few_edges(self):
        graph = generate_sbm_graph(150, seed=2)
        # A triangle on nodes 0-2: three undirected edges.
        rows = np.array([0, 1, 1, 2, 0, 2])
        cols = np.array([1, 0, 2, 1, 2, 0])
        triangle = sp.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=graph.adjacency.shape
        )
        sparse = dataclasses.replace(graph, adjacency=triangle)
        with pytest.raises(ValueError, match="at least 10 undirected edges"):
            make_link_split(sparse)


class TestScenarioProtocol:
    def test_label_defaults(self):
        assert Scenario("sbm").label == "sbm/nc"
        assert Scenario("sbm", task="link_prediction").label == "sbm/lp"
        assert Scenario("sbm", name="custom").label == "custom"

    def test_validate_rejects_bad_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            Scenario("sbm", task="regression").validate()

    def test_validate_rejects_empty_attrs(self):
        with pytest.raises(ValueError, match="at least one"):
            Scenario("sbm", sensitive_attrs=()).validate()

    def test_validate_rejects_intersectional_linkpred(self):
        with pytest.raises(ValueError, match="node classification"):
            Scenario(
                "sbm",
                task="link_prediction",
                sensitive_attrs=("sensitive", "community"),
            ).validate()

    def test_attributes_resolve_extra_sensitive(self):
        scenario = Scenario("sbm", sensitive_attrs=("sensitive", "community"))
        graph = scenario.load(seed=0)
        attrs = scenario.attributes(graph)
        assert set(attrs) == {"sensitive", "community"}
        assert attrs["community"].shape == (graph.num_nodes,)

    def test_attributes_unknown_name(self):
        scenario = Scenario("sbm", sensitive_attrs=("nope",))
        graph = Scenario("sbm").load(seed=0)
        with pytest.raises(KeyError, match="nope"):
            scenario.attributes(graph)


class TestScenarioRunner:
    def test_linkpred_methods_run_and_are_deterministic(self):
        graph = generate_sbm_graph(250, seed=0).standardized()
        a = run_linkpred_method("vanilla", graph, seed=0, epochs=8)
        b = run_linkpred_method("vanilla", graph, seed=0, epochs=8)
        assert a.test.accuracy == b.test.accuracy
        assert a.test.delta_sp == b.test.delta_sp
        assert 0.0 <= a.test.accuracy <= 1.0

    def test_unknown_linkpred_method(self):
        graph = generate_sbm_graph(250, seed=0).standardized()
        with pytest.raises(ValueError, match="unknown method"):
            run_linkpred_method("oracle", graph, epochs=2)

    def test_cell_runner_attaches_intersectional_audit(self):
        scenario = Scenario(
            "sbm",
            sensitive_attrs=("sensitive", "community"),
            dataset_params={"num_nodes": 250, "num_communities": 2},
        )
        cell = run_scenario_cell(
            scenario,
            methods=["vanilla"],
            scale=Scale(seeds=1, epochs=8, finetune_epochs=2, patience=5),
        )
        assert set(cell.summaries) == {"vanilla"}
        audit = cell.intersectional["vanilla"]
        assert audit.attribute_names == ("sensitive", "community")
        assert audit.num_cells == 4
        # keep_logits is transient — the stored result stays lean.
        assert "logits" not in cell.summaries  # summaries are MetricSummary

    def test_single_attr_cell_has_no_audit(self):
        scenario = Scenario("erdos_renyi", dataset_params={"num_nodes": 250})
        cell = run_scenario_cell(
            scenario,
            methods=["vanilla"],
            scale=Scale(seeds=1, epochs=8, finetune_epochs=2, patience=5),
        )
        assert cell.intersectional == {}
