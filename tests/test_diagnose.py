"""Quantile windows and the windowed relative-shift diagnostic."""

import numpy as np
import pytest

from schro_gsp.errors import ContractError, DegenerateFeatureError
from schro_gsp.diagnose import (
    WindowSet,
    build_windows,
    relative_shift,
)
from schro_gsp.filters import FilterParams, FilterTerm, schrodinger_filter
from schro_gsp.graph_core import (
    NORM_FLOOR,
    FeatureLocations,
    Signal,
    cluster_graph,
    ring_graph,
)
from schro_gsp.operators import modulation, schrodinger_laplacian
from schro_gsp.propagate import DensePropagator

from conftest import make_instance


class TestBuildWindows:
    @pytest.mark.parametrize("n_bins", [2, 3, 5])
    def test_partition_of_unity(self, rng, n_bins):
        f = FeatureLocations(rng.normal(size=(40, 1)))
        ws = build_windows(f, 0, n_bins)
        assert ws.weights.shape == (n_bins, 40)
        assert ws.weights.min() >= 0.0
        assert ws.weights.max() <= 1.0
        assert np.abs(ws.weights.sum(axis=0) - 1.0).max() <= 1e-10
        assert ws.coordinate == 0
        assert ws.centers.shape == (n_bins,)

    def test_two_bins_make_complementary_ramps(self):
        col = np.linspace(0.0, 1.0, 9)
        ws = build_windows(FeatureLocations(col), 0, 2)
        # quantile centers 0.25 and 0.75 land on grid values
        assert np.allclose(ws.centers, [0.25, 0.75])
        assert np.array_equal(ws.weights[0], 1.0 - ws.weights[1])
        # apex nodes carry full weight; the far side carries none
        assert ws.weights[0][col == 0.25] == 1.0
        assert ws.weights[1][col == 0.75] == 1.0
        assert np.all(ws.weights[0][col <= 0.25] == 1.0)
        assert np.all(ws.weights[1][col >= 0.75] == 1.0)

    @pytest.mark.parametrize("n_bins", [2, 4, 7])
    def test_matches_per_node_interpolation(self, rng, n_bins):
        # ties and values beyond both end centers included
        col = np.round(rng.normal(size=200), 1)
        ws = build_windows(FeatureLocations(col), 0, n_bins)
        centers = ws.centers
        expected = np.zeros((n_bins, col.size))
        for v, x in enumerate(col):
            i = int(np.searchsorted(centers, x, side="right"))
            if i == 0:
                expected[0, v] = 1.0
            elif i == n_bins:
                expected[n_bins - 1, v] = 1.0
            else:
                lam = (x - centers[i - 1]) / (centers[i] - centers[i - 1])
                expected[i - 1, v] = 1.0 - lam
                expected[i, v] = lam
        assert np.array_equal(ws.weights, expected)

    def test_ring_angle_windows_split_evenly(self):
        _, f = ring_graph(100)
        ws = build_windows(f, 2, 4)
        sums = ws.weights.sum(axis=1)
        assert np.all(sums >= 0.8 * 25.0)
        assert np.all(sums <= 1.2 * 25.0)

    def test_constant_column_rejected(self):
        f = FeatureLocations(np.ones((6, 1)))
        with pytest.raises(DegenerateFeatureError):
            build_windows(f, 0, 2)

    def test_tied_centers_rejected(self):
        f = FeatureLocations([0.0, 0.0, 0.0, 0.0, 1.0])
        with pytest.raises(DegenerateFeatureError):
            build_windows(f, 0, 3)

    def test_too_few_bins_rejected(self, rng):
        f = FeatureLocations(rng.normal(size=(6, 1)))
        with pytest.raises(ContractError):
            build_windows(f, 0, 1)

    @pytest.mark.parametrize("k", [-1, 2])
    def test_feature_index_out_of_range_rejected(self, rng, k):
        # A negative index must not window the last column.
        f = FeatureLocations(rng.normal(size=(6, 2)))
        with pytest.raises(ContractError, match=f"feature index {k} out of range"):
            build_windows(f, k, 4)


def test_window_set_copies_the_callers_arrays():
    weights, centers = np.ones((2, 5)), np.array([0.0, 1.0])
    ws = WindowSet(coordinate=0, weights=weights, centers=centers)
    assert weights.flags.writeable and centers.flags.writeable
    assert not np.shares_memory(ws.weights, weights)
    assert not np.shares_memory(ws.centers, centers)
    assert not ws.weights.flags.writeable and not ws.centers.flags.writeable
    weights[0, 0] = 7.0
    assert ws.weights[0, 0] == 1.0


class TestWindowSetValidation:
    """A window set that ``relative_shift`` cannot use is refused when built,
    instead of reporting every window missing."""

    @pytest.mark.parametrize("bad,message", [
        (np.nan, "window weights must be finite"),
        (np.inf, "window weights must be finite"),
        (-np.inf, "window weights must be finite"),
        (-0.25, "window weights must be nonnegative"),
    ])
    def test_unusable_weights_rejected(self, bad, message):
        weights = np.full((2, 5), 0.5)
        weights[1, 3] = bad
        with pytest.raises(ContractError, match=message):
            WindowSet(coordinate=0, weights=weights, centers=[0.0, 1.0])

    def test_one_dimensional_weights_rejected(self):
        with pytest.raises(ContractError, match="must be 2-D"):
            WindowSet(coordinate=0, weights=np.ones(5), centers=[0.0])

    @pytest.mark.parametrize("centers", [[0.0], [0.0, 1.0, 2.0], [[0.0, 1.0]]])
    def test_one_center_per_weight_row(self, centers):
        with pytest.raises(ContractError, match="for 2 windows"):
            WindowSet(coordinate=0, weights=np.ones((2, 5)), centers=centers)

    def test_windows_without_weight_are_valid(self):
        ws = WindowSet(coordinate=0, weights=np.zeros((3, 4)), centers=[0.0, 1.0, 2.0])
        assert (ws.n_windows, ws.n_nodes) == (3, 4)


class TestWindowSignal:
    def test_energy_splits_across_partition(self, rng):
        f = FeatureLocations(rng.normal(size=(30, 1)))
        ws = build_windows(f, 0, 4)
        g = rng.normal(size=30) + 1j * rng.normal(size=30)
        total = sum(np.linalg.norm(np.sqrt(w) * g) ** 2 for w in ws.weights)
        assert total == pytest.approx(np.linalg.norm(g) ** 2, rel=1e-10)


def _columnwise(fn):
    """Lift a map on (N, K) arrays that acts column by column to window stacks."""
    def layer(stack):
        return fn(stack.reshape(len(stack), -1)).reshape(stack.shape)

    return layer


def _full_window(col: np.ndarray) -> WindowSet:
    n = col.size
    return WindowSet(coordinate=0, weights=np.ones((1, n)),
                     centers=[float(np.median(col))])


class TestRelativeShift:
    def test_identity_map_has_zero_shifts(self, rng):
        graph, f, _ = make_instance(211)
        g = Signal(rng.normal(size=graph.n_nodes)
                   + 1j * rng.normal(size=graph.n_nodes))
        ws = build_windows(f, 0, 3)
        report = relative_shift(lambda s: s, g, f, ws)
        assert report.mean_shift == 0.0
        assert all(not e.missing and e.shift == 0.0 for e in report.entries)

    def test_pure_phase_map_cannot_move_mass(self, rng):
        graph, f, _ = make_instance(223)
        g = Signal(rng.normal(size=graph.n_nodes)
                   + 1j * rng.normal(size=graph.n_nodes))
        ws = build_windows(f, 0, 3)
        phases = modulation(f.column(0), 2.2)
        report = relative_shift(_columnwise(lambda x: phases[:, None] * x), g, f, ws)
        assert abs(report.mean_shift) <= 1e-12
        assert all(abs(e.shift) <= 1e-12 for e in report.entries)

    def test_positive_rescaling_is_invisible(self, rng):
        graph, f, _ = make_instance(227)
        g = Signal(rng.normal(size=graph.n_nodes)
                   + 1j * rng.normal(size=graph.n_nodes))
        ws = build_windows(f, 0, 3)
        prop = DensePropagator(schrodinger_laplacian(graph, f))

        layer = _columnwise(lambda x: prop.apply(0.5, x))
        scaled = _columnwise(lambda x: 3.7 * prop.apply(0.5, x))

        base = relative_shift(layer, g, f, ws)
        other = relative_shift(scaled, g, f, ws)
        for a, b in zip(base.entries, other.entries):
            assert a.shift == pytest.approx(b.shift, abs=1e-12)

    def test_full_window_matches_global_centroid(self, rng):
        graph, f, _ = make_instance(229)
        vals = rng.normal(size=graph.n_nodes) + 1j * rng.normal(size=graph.n_nodes)
        vals = vals / np.linalg.norm(vals)
        g = Signal(vals)
        col = f.column(0)
        prop = DensePropagator(schrodinger_laplacian(graph, f))

        layer = _columnwise(lambda x: prop.apply(0.4, x))
        report = relative_shift(layer, g, f, _full_window(col))
        out = prop.apply(0.4, vals)
        pre = np.dot(col, np.abs(vals) ** 2)
        post = np.dot(col, np.abs(out) ** 2) / np.linalg.norm(out) ** 2
        expected = (post - pre) / col.std()
        assert report.mean_shift == pytest.approx(expected, abs=1e-10)

    def test_vanishing_output_reports_missing(self, rng):
        graph, f, _ = make_instance(233)
        g = Signal(rng.normal(size=graph.n_nodes)
                   + 1j * rng.normal(size=graph.n_nodes))
        ws = build_windows(f, 0, 3)
        report = relative_shift(lambda s: 0.0 * s, g, f, ws)
        assert report.mean_shift is None
        assert all(e.missing for e in report.entries)
        rows = report.csv_rows()
        assert all(row[2] == "missing" and row[3] == "" for row in rows)
        assert all(len(row) == 7 for row in rows)

    def test_cluster_modulation_shifts_toward_target(self):
        graph, f, g0 = cluster_graph(17)
        ws = build_windows(f, 0, 4)
        prop = DensePropagator(schrodinger_laplacian(graph, f))
        phases = modulation(f.column(0), 4.4)

        layer = _columnwise(lambda x: prop.apply(0.3, phases[:, None] * x))

        report = relative_shift(layer, g0, f, ws)
        assert report.mean_shift is not None
        assert report.mean_shift > 0.05

    def test_batched_windows_match_per_window_filter_calls(self, rng):
        graph, f, _ = make_instance(251, n_features=2)
        n = graph.n_nodes
        terms = tuple(
            FilterTerm(time=t, phase=ph, direction=rng.normal(size=2),
                       mix=rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
            for t, ph in ((0.3, 0.8), (0.6, -1.1)))
        params = FilterParams(terms)
        lap = schrodinger_laplacian(graph, f)
        g = Signal(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
        hats = build_windows(f, 0, 3)
        # A fourth window with no weight anywhere carries no mass.
        ws = WindowSet(
            coordinate=0,
            weights=np.vstack([hats.weights[:1], np.zeros((1, n)), hats.weights[1:]]),
            centers=np.insert(hats.centers, 1, hats.centers[0]),
        )
        calls = []

        def layer(stack):
            calls.append(stack.shape)
            return schrodinger_filter(lap, f, params, stack)

        report = relative_shift(layer, g, f, ws)
        assert calls == [(n, 2, 3)]
        col = f.column(0)
        for e, w in zip(report.entries, ws.weights):
            windowed = np.sqrt(w)[:, None] * g.values
            mass = np.linalg.norm(windowed)
            if mass <= NORM_FLOOR:
                assert e.missing and e.window_id == 1
                continue
            windowed = windowed / mass
            out = schrodinger_filter(lap, f, params, windowed[:, :, None])[:, :, 0]
            p_pre = (np.abs(windowed) ** 2).sum(axis=1)
            p_post = (np.abs(out) ** 2).sum(axis=1)
            p_post = p_post / p_post.sum()
            pre, post = col @ p_pre, col @ p_post
            expected = (pre, post, (col - pre) ** 2 @ p_pre, (col - post) ** 2 @ p_post)
            got = (e.pre_mean, e.post_mean, e.pre_variance, e.post_variance)
            for a, b in zip(got, expected):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
            assert e.shift == pytest.approx((post - pre) / col.std(), rel=1e-12, abs=1e-12)
        assert sum(e.missing for e in report.entries) == 1

    def test_stack_holds_each_normalized_window_exactly(self, rng):
        graph, f, _ = make_instance(253, n_features=1)
        n = graph.n_nodes
        g = Signal(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
        hats = build_windows(f, 0, 3)
        # Windows without mass first, in the middle and last.
        zero = np.zeros((1, n))
        weights = np.vstack([zero, hats.weights[:2], zero, hats.weights[2:], zero])
        ws = WindowSet(coordinate=0, weights=weights,
                       centers=np.pad(hats.centers, (1, 2), mode="edge"))
        seen = []

        def layer(stack):
            seen.append(stack)
            assert not stack.flags.writeable
            return stack

        report = relative_shift(layer, g, f, ws)
        want = []
        for w in hats.weights:
            windowed = np.sqrt(w)[:, None] * g.values
            want.append(windowed / float(np.linalg.norm(windowed)))
        assert (np.ascontiguousarray(seen[0]).tobytes()
                == np.stack(want, axis=2).tobytes())
        assert [e.missing for e in report.entries] == [True, False, False, True,
                                                       False, True]
        assert all(e.shift == 0.0 for e in report.entries if not e.missing)

    def test_stack_shape_mismatch_rejected(self, rng):
        graph, f, _ = make_instance(257)
        g = Signal(rng.normal(size=graph.n_nodes) + 1j)
        ws = build_windows(f, 0, 3)
        with pytest.raises(ContractError, match="window stack"):
            relative_shift(lambda s: s[:, :, :1], g, f, ws)

    def test_constant_windowed_coordinate_rejected(self, rng):
        graph, _, _ = make_instance(239)
        n = graph.n_nodes
        f = FeatureLocations(np.ones((n, 1)))
        g = Signal(rng.normal(size=n) + 1j * rng.normal(size=n))
        ws = WindowSet(coordinate=0, weights=np.ones((1, n)), centers=[1.0])
        with pytest.raises(DegenerateFeatureError):
            relative_shift(lambda s: s, g, f, ws)

    def test_size_mismatch_rejected(self, rng):
        graph, f, _ = make_instance(241)
        g = Signal(np.ones(graph.n_nodes + 1, dtype=complex))
        ws = build_windows(f, 0, 2)
        with pytest.raises(ContractError):
            relative_shift(lambda s: s, g, f, ws)
