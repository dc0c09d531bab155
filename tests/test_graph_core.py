"""Data model contracts: validation, normalization, file round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schro_gsp.errors import ContractError, DegenerateSignalError, FormatError
from schro_gsp.graph_core import (
    PINNED_CLUSTER_SEED,
    FeatureLocations,
    Graph,
    Signal,
    cluster_graph,
    load_features,
    load_graph,
    load_signal,
    normalize_channel,
    ring_graph,
    save_features,
    save_graph,
    save_signal,
)


class TestGraph:
    def test_path_adjacency_is_symmetric(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert g.n_nodes == 3 and g.n_edges == 2
        assert g.adjacency[0, 1] == g.adjacency[1, 0] == 1.0
        assert g.adjacency[0, 2] == 0.0
        assert g.adjacency[1, 1] == 0.0

    def test_edges_accepted_in_any_orientation(self):
        g = Graph.from_edges(3, [(1, 0, 2.0), (2, 1, 3.0)])
        assert g.adjacency[0, 1] == 2.0 and g.adjacency[2, 1] == 3.0

    def test_self_loop_rejected(self):
        with pytest.raises(ContractError):
            Graph.from_edges(3, [(0, 1, 1.0), (2, 2, 1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ContractError):
            Graph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            Graph.from_edges(3, [(0, 5, 1.0)])

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(ContractError):
            Graph.from_edges(2, [(0, 1, float("nan"))])

    def test_connectivity(self):
        assert Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]).is_connected()
        assert not Graph.from_edges(3, [(0, 1, 1.0)]).is_connected()


class TestSignal:
    def test_one_dim_promotes_to_single_channel(self):
        s = Signal(np.array([1.0, 2.0]))
        assert s.n_nodes == 2 and s.n_channels == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractError):
            Signal(np.array([1.0, np.inf]))
        with pytest.raises(ContractError):
            Signal(np.array([1.0 + 1j * np.nan, 0.0]))

    def test_channel_and_norm(self):
        s = Signal(np.array([[3.0, 0.0], [4.0, 0.0]]))
        assert np.array_equal(s.channel(0), [3.0, 4.0])
        assert s.norm() == 5.0

    def test_features_must_be_real(self):
        with pytest.raises(ContractError):
            FeatureLocations(np.array([1.0 + 1j]))
        with pytest.raises(ContractError):
            FeatureLocations(np.array([np.nan]))


class TestNormalize:
    def test_scales_to_unit(self):
        out = normalize_channel(Signal(np.array([2.0, 0.0, 0.0])), 0)
        assert np.allclose(out.channel(0), [1.0, 0.0, 0.0])

    def test_zero_channel_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            normalize_channel(Signal(np.zeros(3)), 0)

    def test_other_channels_untouched(self):
        vals = np.array([[2.0, 5.0], [0.0, 7.0]])
        out = normalize_channel(Signal(vals), 0)
        assert np.array_equal(out.channel(1), [5.0, 7.0])

    def test_random_complex_vector_lands_on_unit_norm(self, rng):
        vec = rng.normal(size=10) + 1j * rng.normal(size=10)
        out = normalize_channel(Signal(vec), 0)
        assert abs(np.linalg.norm(out.channel(0)) - 1.0) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=12), st.integers(0, 2 ** 31))
    def test_idempotent(self, reals, seed):
        gen = np.random.default_rng(seed)
        vec = np.array(reals) + 1j * gen.normal(size=len(reals))
        if np.linalg.norm(vec) <= 1e-9:
            return
        once = normalize_channel(Signal(vec), 0)
        twice = normalize_channel(once, 0)
        assert np.max(np.abs(twice.values - once.values)) <= 1e-12


class TestGraphFiles:
    def test_path_parses(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("#nodes=3\n0\t1\t1.0\n1\t2\t1.0\n")
        g = load_graph(p)
        assert g.n_nodes == 3
        assert g.adjacency[0, 1] == g.adjacency[1, 0] == 1.0

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("#nodes=2\n# a comment\n\n0\t1\t0.5\n")
        assert load_graph(p).n_edges == 1

    def test_self_loop_line_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("#nodes=3\n2\t2\t1.0\n")
        with pytest.raises(FormatError) as err:
            load_graph(p)
        assert err.value.line == 2

    def test_conflicting_duplicate_rejected(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("#nodes=2\n0\t1\t1.0\n1\t0\t2.0\n")
        with pytest.raises(FormatError):
            load_graph(p)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("0\t1\t1.0\n")
        with pytest.raises(FormatError):
            load_graph(p)

    def test_cluster_graph_round_trips_bit_exactly(self, tmp_path):
        g, _, _ = cluster_graph(PINNED_CLUSTER_SEED)
        p = tmp_path / "g.tsv"
        save_graph(g, p)
        back = load_graph(p)
        assert back.n_nodes == g.n_nodes
        assert np.array_equal(back.edge_u, g.edge_u)
        assert np.array_equal(back.edge_v, g.edge_v)
        assert np.array_equal(back.edge_w, g.edge_w)


class TestSignalFiles:
    def test_round_trip_complex(self, tmp_path, rng):
        sig = Signal(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
        p = tmp_path / "s.csv"
        save_signal(sig, p)
        back = load_signal(p)
        assert np.array_equal(back.values, sig.values)

    def test_missing_channel_header_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0,0.0\n")
        with pytest.raises(FormatError):
            load_signal(p)

    def test_features_round_trip(self, tmp_path, rng):
        f = FeatureLocations(rng.normal(size=(5, 3)))
        p = tmp_path / "f.csv"
        save_features(f, p)
        assert np.array_equal(load_features(p).values, f.values)

    def test_ragged_feature_rows_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FormatError):
            load_features(p)


class TestClusterGraph:
    def test_pinned_instance_shape(self):
        g, f, sig = cluster_graph(PINNED_CLUSTER_SEED)
        assert g.n_nodes == 60
        assert np.all(g.edge_w == 1.0)
        assert g.is_connected()
        assert f.n_features == 1
        assert abs(sig.norm() - 1.0) <= 1e-12
        assert np.all(sig.values.real >= 0.0) and np.all(sig.values.imag == 0.0)

    def test_pinned_initial_mean_near_left_cloud(self):
        _, f, sig = cluster_graph(PINNED_CLUSTER_SEED)
        weights = np.abs(sig.channel(0)) ** 2
        e = float(np.sum(weights * f.column(0)))
        assert -1.1 <= e <= -0.9


class TestRingGraph:
    def test_hundred_ring(self):
        g, f = ring_graph(100)
        assert g.n_edges == 100
        degrees = np.zeros(100)
        np.add.at(degrees, g.edge_u, 1)
        np.add.at(degrees, g.edge_v, 1)
        assert np.all(degrees == 2)
        assert f.n_features == 3
        assert f.values[0, 0] == pytest.approx(-1.0)  # cos(-pi)
        assert f.values[0, 2] == pytest.approx(-np.pi)

    def test_triangle_is_smallest(self):
        g, _ = ring_graph(3)
        assert g.n_edges == 3
        with pytest.raises(ContractError):
            ring_graph(2)
