"""Data model contracts: validation, normalization, file round-trips."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schro_gsp.errors import ContractError, DegenerateSignalError, FormatError
from schro_gsp.graph_core import (
    PINNED_CLUSTER_SEED,
    FeatureLocations,
    Graph,
    Signal,
    bandwidth_order,
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

    def test_node_count_beyond_the_edge_key_range_rejected(self, tmp_path):
        # With n >= 2**31 the key u * n + v wraps int64, and these two
        # distinct edges would share one key.
        big, v = 2 ** 33, 2 ** 31 + 5
        with pytest.raises(ContractError, match=r"2\*\*31"):
            Graph(big, [0, 2 ** 31], [v, v], [1.0, 1.0])
        p = tmp_path / "g.tsv"
        p.write_text(f"#nodes={big}\n0\t{v}\t1.0\n{2 ** 31}\t{v}\t1.0\n")
        with pytest.raises(ContractError, match=r"2\*\*31"):
            load_graph(p)
        edge = Graph(2 ** 31 - 1, [0], [2 ** 31 - 2], [1.0])
        assert edge.n_edges == 1

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


@st.composite
def _graphs(draw):
    """Graphs of up to 12 nodes, often disconnected, weights in [1e-8, 1e8]."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.floats(1e-8, 1e8), min_size=len(chosen),
                            max_size=len(chosen)))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(chosen),
                          max_size=len(chosen)))
    edges = [(u, v, s * w) for (u, v), w, s in zip(chosen, weights, signs)]
    return Graph.from_edges(n, edges)


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes()


class TestFileRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(_graphs())
    @example(Graph.from_edges(1, []))
    @example(Graph.from_edges(6, [(0, 1, 1e-8), (1, 2, 1e8), (4, 5, 0.3)]))
    def test_graph_round_trips_bit_exactly(self, graph):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/g.tsv"
            save_graph(graph, path)
            back = load_graph(path)
        assert back.n_nodes == graph.n_nodes
        for a, b in ((back.edge_u, graph.edge_u), (back.edge_v, graph.edge_v),
                     (back.edge_w, graph.edge_w)):
            assert a.dtype == b.dtype and _bits(a) == _bits(b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.data())
    def test_signal_and_features_round_trip_bit_exactly(self, rows, cols, data):
        import tempfile

        finite = st.floats(allow_nan=False, allow_infinity=False)
        vals = np.array(data.draw(st.lists(finite, min_size=2 * rows * cols,
                                           max_size=2 * rows * cols)))
        sig = Signal(vals.reshape(rows, 2 * cols).view(np.complex128))
        feats = FeatureLocations(vals[: rows * cols].reshape(rows, cols))
        with tempfile.TemporaryDirectory() as tmp:
            save_signal(sig, f"{tmp}/s.csv")
            save_features(feats, f"{tmp}/f.csv")
            assert _bits(load_signal(f"{tmp}/s.csv").values) == _bits(sig.values)
            assert _bits(load_features(f"{tmp}/f.csv").values) == _bits(feats.values)

    def test_header_without_edges_loads_a_graph_with_no_edges(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("#nodes=4\n")
        g = load_graph(p)
        assert (g.n_nodes, g.n_edges) == (4, 0)
        p.write_text("#nodes=1\n\n\n")
        assert load_graph(p).n_edges == 0

    def test_valid_files_numpy_does_not_parse_still_load(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("# made by hand\n#nodes=1_0\n0\t1_0_0\t2.5\n \t\n3\t1\t1.0\n")
        with pytest.raises(FormatError, match="out of range"):
            load_graph(p)
        p.write_text("# made by hand\n#nodes=1_0\n0\t9\t2.5\n \t\n3\t1\t1_0.0\n")
        g = load_graph(p)
        assert g.edge_u.tolist() == [0, 1] and g.edge_v.tolist() == [9, 3]
        assert g.edge_w.tolist() == [2.5, 10.0]

    def test_nonfinite_weight_is_a_contract_error(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("#nodes=3\n0\t1\t1.0\n1\t2\tnan\n")
        with pytest.raises(ContractError, match="finite"):
            load_graph(p)

    def test_million_edge_ring_loads(self, tmp_path):
        n = 1_000_000
        p = tmp_path / "ring.tsv"
        with open(p, "w", encoding="ascii") as fh:
            fh.write(f"#nodes={n}\n")
            fh.writelines(f"{i}\t{i + 1}\t1.0\n" for i in range(n - 1))
            fh.write(f"{n - 1}\t0\t1.0\n")
        g = load_graph(p)
        assert (g.n_nodes, g.n_edges) == (n, n)
        assert g.edge_u[:2].tolist() == [0, 0] and g.edge_v[:2].tolist() == [1, n - 1]
        assert np.all(g.edge_w == 1.0)


# (file text, reported line, message fragment); line None means no line.
_BAD_GRAPHS = {
    "bad-count": ("#nodes=x\n0\t1\t1.0\n", 1, "bad node count"),
    "zero-count": ("#nodes=0\n", 1, "must be positive"),
    "repeated-header": ("#nodes=3\n0\t1\t1.0\n#nodes=3\n", 3, "repeated"),
    "edge-before-header": ("# c\n0\t1\t1.0\n#nodes=2\n", 2, "before #nodes"),
    "missing-header": ("# only a comment\n", None, "missing #nodes"),
    "two-fields": ("#nodes=3\n0\t1\t1.0\n0\t2\n", 3, "expected 'u<TAB>v<TAB>w'"),
    "four-fields": ("#nodes=3\n0\t1\t1.0\t7\n", 2, "expected 'u<TAB>v<TAB>w'"),
    "space-separated": ("#nodes=3\n0 1 1.0\n", 2, "expected 'u<TAB>v<TAB>w'"),
    "bad-weight": ("#nodes=3\n0\t1\t1.0\n0\t2\tx\n", 3, "unparsable edge"),
    "float-endpoint": ("#nodes=3\n0\t1.0\t1.0\n", 2, "unparsable edge"),
    "trailing-comment": ("#nodes=3\n0\t1\t1.0\n1\t2\t1.0 # c\n", 3, "unparsable edge"),
    "self-loop-after-blanks": ("#nodes=3\n\n\n0\t1\t1.0\n2\t2\t1.0\n", 5, "self-loop"),
    "endpoint-too-large": ("#nodes=3\n0\t1\t1.0\n0\t3\t1.0\n", 3, "out of range"),
    "negative-endpoint": ("#nodes=3\n-1\t1\t1.0\n", 2, "out of range"),
    "duplicate": ("#nodes=3\n0\t1\t1.0\n1\t2\t1.0\n1\t0\t1.0\n", 4, "duplicate"),
    "conflicting-duplicate": ("#nodes=3\n0\t1\t1.0\n0\t1\t2.0\n", 3, "different weight"),
}

_BAD_SIGNALS = {
    "missing-header": ("1.0,0.0\n", 1, "missing 'channels='"),
    "bad-count": ("channels=two\n1.0,0.0\n", 1, "bad channel count"),
    "zero-count": ("channels=0\n", 1, "must be positive"),
    "no-rows": ("channels=1\n\n", None, "no node rows"),
    "short-row": ("channels=2\n1,2,3,4\n1,2,3\n", 3, "expected 4 columns"),
    # Blank lines count: the bad value is on physical line 4.
    "bad-value-after-blank": ("channels=1\n1.0,0.0\n\n1.0,x\n", 4, "unparsable value"),
}

_BAD_FEATURES = {
    "ragged": ("1.0,2.0\n\n3.0\n", 3, "expected 2 columns"),
    "bad-value": ("1.0,2.0\n3.0,4.0\n5.0,nope\n", 3, "unparsable value"),
    "comment": ("# x\n1.0\n", 1, "unparsable value"),
    "empty": ("\n\n", None, "no rows"),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("text,line,fragment", _BAD_GRAPHS.values(), ids=_BAD_GRAPHS)
    def test_graph_error_names_the_line(self, tmp_path, text, line, fragment):
        p = tmp_path / "g.tsv"
        p.write_text(text)
        with pytest.raises(FormatError, match=fragment) as err:
            load_graph(p)
        assert err.value.line == line

    @pytest.mark.parametrize("text,line,fragment", _BAD_SIGNALS.values(), ids=_BAD_SIGNALS)
    def test_signal_error_names_the_line(self, tmp_path, text, line, fragment):
        p = tmp_path / "s.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match=fragment) as err:
            load_signal(p)
        assert err.value.line == line

    @pytest.mark.parametrize("text,line,fragment", _BAD_FEATURES.values(), ids=_BAD_FEATURES)
    def test_features_error_names_the_line(self, tmp_path, text, line, fragment):
        p = tmp_path / "f.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match=fragment) as err:
            load_features(p)
        assert err.value.line == line


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


def _edge_set(graph, label=None):
    """Edges as ``{(min, max): weight}``, optionally renamed by ``label``."""
    u, v = graph.edge_u, graph.edge_v
    if label is not None:
        u, v = label[u], label[v]
    return {(min(a, b), max(a, b)): w
            for a, b, w in zip(u.tolist(), v.tolist(), graph.edge_w.tolist())}


def _shuffled_path(n, seed):
    """A path whose node labels are a random permutation."""
    perm = np.random.default_rng(seed).permutation(n)
    return Graph.from_edges(n, [(int(perm[i]), int(perm[i + 1]), 1.0 + i)
                                for i in range(n - 1)])


class TestBandwidthOrder:
    # The relabeled feature column 0 holds each new node's old label, so it
    # reads back the order the helper applied.
    @pytest.mark.parametrize("graph", [
        Graph(1, [], [], []),
        Graph(5, [], [], []),
        Graph.from_edges(7, [(0, 5, 2.0), (5, 3, 1e-8), (1, 6, 1e8), (2, 4, 3.0)]),
        _shuffled_path(40, 3),
    ], ids=["single-node", "edge-free", "disconnected", "shuffled-path"])
    def test_relabels_by_a_permutation_that_keeps_the_edges(self, graph):
        n = graph.n_nodes
        ids = FeatureLocations(np.column_stack([np.arange(n), -np.arange(n)]))
        sig = Signal(np.arange(n) * (1 + 2j))
        new_graph, new_f, new_sig = bandwidth_order(graph, ids, sig)
        order = new_f.column(0).astype(np.int64)
        assert np.array_equal(np.sort(order), np.arange(n))
        assert np.array_equal(new_f.column(1), -order)
        assert np.array_equal(new_sig.channel(0), order * (1 + 2j))
        # new node i is old node order[i]: mapping back gives the old edges
        assert _edge_set(new_graph, order) == _edge_set(graph)
        assert new_graph.n_nodes == n

    def test_shuffled_path_gets_unit_bandwidth(self):
        graph = _shuffled_path(200, 11)
        assert np.max(graph.edge_v - graph.edge_u) > 100
        f = FeatureLocations.single(np.zeros(200))
        new_graph, _, _ = bandwidth_order(graph, f, Signal(np.ones(200)))
        assert np.all(new_graph.edge_v - new_graph.edge_u == 1)

    def test_is_deterministic(self):
        graph, f, sig = cluster_graph(PINNED_CLUSTER_SEED)
        (g1, f1, s1), (g2, f2, s2) = (bandwidth_order(graph, f, sig) for _ in range(2))
        for a, b in [(g1.edge_u, g2.edge_u), (g1.edge_v, g2.edge_v),
                     (g1.edge_w, g2.edge_w), (f1.values, f2.values),
                     (s1.values, s2.values)]:
            assert np.array_equal(a, b)

    def test_sizes_must_agree(self):
        graph = Graph.from_edges(3, [(0, 1, 1.0)])
        with pytest.raises(ContractError, match="disagree on size"):
            bandwidth_order(graph, FeatureLocations.single(np.zeros(4)),
                            Signal(np.ones(3)))
