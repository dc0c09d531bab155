"""Filter parameterization, application, activations, and persistence."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from schro_gsp.errors import ContractError, FormatError
from schro_gsp.filters import (
    FilterParams,
    FilterTerm,
    activation,
    load_filter_params,
    save_filter_params,
    schrodinger_filter,
)
from schro_gsp.graph_core import FeatureLocations, Signal, ring_graph
from schro_gsp.operators import schrodinger_laplacian
from schro_gsp.propagate import evolve

from conftest import make_instance


def _random_params(rng, n_features, j, d, n_terms=2):
    terms = []
    for _ in range(n_terms):
        terms.append(FilterTerm(
            time=float(rng.uniform(0.0, 1.0)),
            phase=float(rng.uniform(-2.0, 2.0)),
            direction=rng.normal(size=n_features),
            mix=rng.normal(size=(j, d)) + 1j * rng.normal(size=(j, d)),
        ))
    return FilterParams(terms=tuple(terms))


def _stack(rng, n, j):
    """One random complex signal of ``j`` channels, as an (N, J, 1) stack."""
    return rng.normal(size=(n, j, 1)) + 1j * rng.normal(size=(n, j, 1))


class TestTermValidation:
    def test_empty_direction_rejected(self):
        with pytest.raises(ContractError):
            FilterTerm(time=0.1, phase=0.0, direction=np.zeros(0),
                       mix=np.eye(2, dtype=complex))

    def test_one_dimensional_mix_rejected(self):
        with pytest.raises(ContractError):
            FilterTerm(time=0.1, phase=0.0, direction=np.zeros(1),
                       mix=np.ones(2))

    def test_nonfinite_time_rejected(self):
        with pytest.raises(ContractError):
            FilterTerm(time=float("nan"), phase=0.0, direction=np.zeros(1),
                       mix=np.eye(1, dtype=complex))

    def test_arrays_frozen(self):
        term = FilterTerm(time=0.1, phase=0.0, direction=np.zeros(2),
                          mix=np.eye(2, dtype=complex))
        assert not term.direction.flags.writeable
        assert not term.mix.flags.writeable


class TestParamsValidation:
    def test_empty_terms_rejected(self):
        with pytest.raises(ContractError):
            FilterParams(terms=())

    def test_shape_disagreement_rejected(self):
        a = FilterTerm(time=0.1, phase=0.0, direction=np.zeros(2),
                       mix=np.eye(2, dtype=complex))
        b = FilterTerm(time=0.1, phase=0.0, direction=np.zeros(3),
                       mix=np.eye(2, dtype=complex))
        with pytest.raises(ContractError):
            FilterParams(terms=(a, b))

    def test_shape_properties(self, rng):
        params = _random_params(rng, n_features=3, j=2, d=4)
        assert params.n_terms == 2
        assert params.n_features == 3
        assert params.in_channels == 2
        assert params.terms[0].mix.shape == (2, 4)


def _load_text(tmp_path, text):
    path = tmp_path / "params.json"
    path.write_text(text, encoding="ascii")
    return load_filter_params(path)


class TestPersistence:
    def test_json_round_trip_is_exact(self, rng, tmp_path):
        params = _random_params(rng, n_features=2, j=2, d=3)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_filter_params(params, first)
        back = load_filter_params(first)
        save_filter_params(back, second)
        assert second.read_bytes() == first.read_bytes()
        for orig, copy in zip(params.terms, back.terms):
            assert orig.time == copy.time
            assert orig.phase == copy.phase
            assert np.array_equal(orig.direction, copy.direction)
            assert np.array_equal(orig.mix, copy.mix)

    def test_file_round_trip(self, rng, tmp_path):
        params = _random_params(rng, n_features=1, j=1, d=2)
        path = tmp_path / "params.json"
        save_filter_params(params, path)
        text = path.read_text(encoding="ascii")
        save_filter_params(load_filter_params(path), path)
        assert path.read_text(encoding="ascii") == text

    def test_written_bytes_are_frozen(self, tmp_path):
        # Sorted keys, complex entries as [re, im] pairs, one trailing newline.
        params = FilterParams(terms=(FilterTerm(
            time=0.5, phase=-1.25, direction=np.array([1.0, 0.0]),
            mix=np.array([[1.0 + 2.0j]])),))
        path = tmp_path / "params.json"
        save_filter_params(params, path)
        assert path.read_bytes() == (
            b'{"terms": [{"direction": [1.0, 0.0], "mix": [[[1.0, 2.0]]], '
            b'"phase": -1.25, "time": 0.5}]}\n')

    def test_numpy_scalar_time_round_trips(self, tmp_path):
        term = FilterTerm(time=np.float32(0.1), phase=np.float64(-0.5),
                          direction=np.ones(2), mix=np.eye(2, dtype=complex))
        path = tmp_path / "params.json"
        save_filter_params(FilterParams((term,)), path)
        (back,) = load_filter_params(path).terms
        assert (back.time, back.phase) == (term.time, term.phase)
        assert np.array_equal(back.direction, term.direction)
        assert np.array_equal(back.mix, term.mix)

    def test_string_time_rejected(self, tmp_path):
        text = ('{"terms": [{"direction": [1.0], "mix": [[[1.0, 0.0]]], '
                '"phase": 0.0, "time": "0.1"}]}')
        with pytest.raises(FormatError, match="FilterTerm.time must be a finite number"):
            _load_text(tmp_path, text)

    def test_invalid_json_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="not ASCII JSON") as exc:
            _load_text(tmp_path, "{not json")
        assert str(exc.value).startswith(f"{tmp_path / 'params.json'}: ")

    def test_missing_key_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="malformed filter parameters"):
            _load_text(tmp_path, '{"terms": [{"time": 0.1}]}')

    def test_malformed_mix_rows_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="malformed filter parameters"):
            _load_text(tmp_path, json.dumps({"terms": [{
                "time": 0.1, "phase": 0.0, "direction": [1.0],
                "mix": [[0.5]],  # entries must be [re, im] pairs
            }]}))


class TestFilterAction:
    def test_identity_term_returns_input(self, rng):
        graph, f, _ = make_instance(31)
        g = _stack(rng, graph.n_nodes, 2)
        params = FilterParams(terms=(FilterTerm(
            time=0.0, phase=0.0, direction=np.zeros(1),
            mix=np.eye(2, dtype=complex)),))
        lap = schrodinger_laplacian(graph, f)
        out = schrodinger_filter(lap, f, params, g)
        assert np.array_equal(out, g)

    def test_opposite_mixes_cancel(self, rng):
        graph, f, _ = make_instance(37)
        g = _stack(rng, graph.n_nodes, 2)
        mix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        kw = {"time": 0.7, "phase": 1.3, "direction": np.array([0.8])}
        params = FilterParams(terms=(
            FilterTerm(mix=mix, **kw), FilterTerm(mix=-mix, **kw)))
        lap = schrodinger_laplacian(graph, f)
        out = schrodinger_filter(lap, f, params, g)
        assert np.abs(out).max() == 0.0

    def test_linear_in_the_signal(self, rng):
        graph, f, _ = make_instance(41, n_features=2)
        params = _random_params(rng, n_features=2, j=2, d=3)
        x = _stack(rng, graph.n_nodes, 2)
        y = _stack(rng, graph.n_nodes, 2)
        a, b = 0.3 - 1.1j, -0.8 + 0.2j
        lap = schrodinger_laplacian(graph, f)
        combined = schrodinger_filter(lap, f, params, a * x + b * y)
        parts = (a * schrodinger_filter(lap, f, params, x)
                 + b * schrodinger_filter(lap, f, params, y))
        assert np.abs(combined - parts).max() <= 1e-9

    def test_constant_features_reduce_to_phased_mix(self, rng, path3):
        # constant columns kill the generator, so each term is a global
        # phase on the input followed by its channel mix
        graph, _ = path3
        f = FeatureLocations(np.full((3, 2), [1.5, -0.5]))
        params = _random_params(rng, n_features=2, j=2, d=2)
        g = _stack(rng, 3, 2)
        lap = schrodinger_laplacian(graph, f)
        out = schrodinger_filter(lap, f, params, g)
        expected = np.zeros((3, 2), dtype=np.complex128)
        for term in params.terms:
            c = float(np.array([1.5, -0.5]) @ term.direction)
            expected += np.exp(1j * term.phase * c) * (g[:, :, 0] @ term.mix)
        assert np.abs(out[:, :, 0] - expected).max() <= 1e-12

    def test_unitary_term_preserves_norm(self, rng):
        graph, f, _ = make_instance(43)
        mix, _ = np.linalg.qr(rng.normal(size=(2, 2))
                              + 1j * rng.normal(size=(2, 2)))
        params = FilterParams(terms=(FilterTerm(
            time=0.9, phase=1.7, direction=np.array([1.0]), mix=mix),))
        g = _stack(rng, graph.n_nodes, 2)
        lap = schrodinger_laplacian(graph, f)
        out = schrodinger_filter(lap, f, params, g)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(g), rel=1e-9)

    def test_stack_filters_each_signal_alone(self, rng):
        graph, f, _ = make_instance(59, n_features=2)
        params = _random_params(rng, n_features=2, j=2, d=3)
        n = graph.n_nodes
        stack = rng.normal(size=(n, 2, 4)) + 1j * rng.normal(size=(n, 2, 4))
        lap = schrodinger_laplacian(graph, f)
        out = schrodinger_filter(lap, f, params, stack)
        assert out.shape == (n, 3, 4)
        for b in range(4):
            alone = schrodinger_filter(lap, f, params, stack[:, :, b:b + 1])
            assert type(alone) is np.ndarray and alone.shape == (n, 3, 1)
            err = np.abs(out[:, :, b:b + 1] - alone).max()
            assert err <= 1e-12 * np.abs(alone).max()

    def test_two_dimensional_array_rejected(self, rng):
        graph, f, _ = make_instance(61)
        params = _random_params(rng, n_features=1, j=1, d=1)
        lap = schrodinger_laplacian(graph, f)
        with pytest.raises(ContractError, match=r"an \(N, J, B\) stack"):
            schrodinger_filter(lap, f, params, np.ones((graph.n_nodes, 1)))

    def test_signal_rejected(self, rng):
        graph, f, _ = make_instance(61)
        params = _random_params(rng, n_features=1, j=1, d=1)
        lap = schrodinger_laplacian(graph, f)
        g = Signal(np.ones(graph.n_nodes, dtype=complex))
        with pytest.raises(ContractError, match=r"an \(N, J, B\) stack, got Signal"):
            schrodinger_filter(lap, f, params, g)


    def test_feature_count_mismatch_rejected(self, rng):
        graph, f, _ = make_instance(47)  # one feature column
        params = _random_params(rng, n_features=2, j=1, d=1)
        g = np.ones((graph.n_nodes, 1, 1), dtype=complex)
        lap = schrodinger_laplacian(graph, f)
        with pytest.raises(ContractError, match="features"):
            schrodinger_filter(lap, f, params, g)

    def test_channel_count_mismatch_rejected(self, rng):
        graph, f, _ = make_instance(53)
        params = _random_params(rng, n_features=1, j=2, d=1)
        g = np.ones((graph.n_nodes, 1, 1), dtype=complex)
        lap = schrodinger_laplacian(graph, f)
        with pytest.raises(ContractError, match="input channels"):
            schrodinger_filter(lap, f, params, g)

    def test_overflowing_phase_is_refused_where_it_is_formed(self):
        # theta * h overflows to inf, and exp of it is NaN: refused by
        # ``modulation`` before the term propagates, with no warning, rather
        # than found as non-finite output after the series.
        graph, feats = ring_graph(16)
        f = FeatureLocations(feats.values * 1e10)
        lap = schrodinger_laplacian(graph, f)
        params = FilterParams(terms=(FilterTerm(
            time=1e-22, phase=1e300, direction=np.array([1.0, 0.0, 0.0]),
            mix=np.eye(1, dtype=complex)),))
        g = np.ones((16, 1, 1), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="modulation phases must be finite"):
                schrodinger_filter(lap, f, params, g)


def _reference_filter(lap, f, params, stack):
    """The filter as a modulated block: each term modulates the whole input,
    propagates it with ``evolve`` and mixes it into a zero-filled
    accumulator."""
    n, j, b = stack.shape
    out = np.zeros((n, params.terms[0].mix.shape[1], b), dtype=np.complex128)
    for term in params.terms:
        direction = f.values @ term.direction
        modulated = np.exp(1j * term.phase * direction)[:, None, None] * stack
        evolved = evolve(lap, term.time, modulated.reshape(n, j * b))
        out += term.mix.T @ evolved.reshape(n, j, b)
    return out


class TestModulatedPropagation:
    @pytest.mark.parametrize("n_terms", [1, 2, 3])
    @pytest.mark.parametrize("j,d,b", [(4, 4, 1), (1, 1, 4), (2, 3, 2)])
    @pytest.mark.parametrize("kind", ["stack", "gapped"])
    def test_filter_matches_the_modulated_block_bit_for_bit(
            self, n_terms, j, d, b, kind):
        rng = np.random.default_rng(100 * n_terms + 10 * j + b)
        graph, f, _ = make_instance(71 + b, n_features=2)
        n = graph.n_nodes
        params = _random_params(rng, n_features=2, j=j, d=d, n_terms=n_terms)
        if kind == "stack":
            g = rng.normal(size=(n, j, b)) + 1j * rng.normal(size=(n, j, b))
        else:
            # An empty window inside a batch that is a strided view of a
            # wider buffer, as ``relative_shift`` hands over.
            full = rng.normal(size=(n, j, b + 1)) + 1j * rng.normal(size=(n, j, b + 1))
            full[:, :, b // 2] = 0.0
            g = full[:, :, :b]
        lap = schrodinger_laplacian(graph, f)
        out = schrodinger_filter(lap, f, params, g)
        assert out.tobytes() == _reference_filter(lap, f, params, g).tobytes()

    @pytest.mark.parametrize("t", [0.0, 0.8, -1.3])
    @pytest.mark.parametrize("shape", [(), (3,)])
    @pytest.mark.parametrize("complex_weights", [True, False])
    def test_weights_equal_a_scaled_input_bit_for_bit(self, t, shape, complex_weights):
        rng = np.random.default_rng(83)
        graph, f, _ = make_instance(89, n_features=2)
        n = graph.n_nodes
        lap = schrodinger_laplacian(graph, f)
        v = rng.normal(size=(n, *shape)) + 1j * rng.normal(size=(n, *shape))
        w = rng.normal(size=n)
        if complex_weights:
            w = np.exp(1j * w)
        scaled = w * v if v.ndim == 1 else w[:, None] * v
        got = evolve(lap, t, v, w)
        assert got.tobytes() == evolve(lap, t, scaled).tobytes()

    def test_weights_of_the_wrong_size_rejected(self):
        graph, f, _ = make_instance(97)
        lap = schrodinger_laplacian(graph, f)
        v = np.ones((graph.n_nodes, 2), dtype=complex)
        with pytest.raises(ContractError, match="weights"):
            evolve(lap, 0.5, v, np.ones(graph.n_nodes + 1))

    # Peak allocation beyond the input, in (N, J*B) complex blocks: three
    # Chebyshev blocks, the accumulator from the second term on (1.5 blocks
    # at D = 3), and the term's phase and direction columns (0.36 here).
    # A modulated copy of the input and a zero-filled accumulator beside
    # them would add about 1.77 (5.13, 6.13 and 6.63 blocks).
    @pytest.mark.parametrize("n_terms,d,limit", [(1, 2, 3.6), (2, 2, 4.6), (3, 3, 5.1)])
    def test_working_set_in_blocks(self, n_terms, d, limit):
        rng = np.random.default_rng(101)
        graph, f = ring_graph(20_000)
        n, j, b = graph.n_nodes, 2, 2
        params = _random_params(rng, n_features=3, j=j, d=d, n_terms=n_terms)
        lap = schrodinger_laplacian(graph, f)
        stack = rng.normal(size=(n, j, b)) + 1j * rng.normal(size=(n, j, b))
        block = stack.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = schrodinger_filter(lap, f, params, stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (n, d, b)
        assert (peak - base) / block <= limit


class TestActivation:
    def test_split_relu_clips_by_quadrant(self):
        g = np.array([-1.0 - 2.0j, 3.0 + 4.0j, -1.0 + 2.0j])
        out = activation(g, "split-relu")
        assert np.array_equal(out, np.array([0.0j, 3.0 + 4.0j, 2.0j]))

    def test_modulus_takes_lengths(self):
        out = activation(np.array([[3.0 + 4.0j]]), "modulus")
        assert out[0, 0] == 5.0 + 0.0j
        assert out.dtype == np.complex128

    def test_none_returns_the_same_array(self, rng):
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert activation(g, "none") is g

    @pytest.mark.parametrize("kind", ["split-relu", "modulus", "none"])
    def test_idempotent(self, rng, kind):
        g = rng.normal(size=(8, 2, 3)) + 1j * rng.normal(size=(8, 2, 3))
        once = activation(g, kind)
        twice = activation(once, kind)
        assert np.array_equal(once, twice)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            activation(np.ones(2, dtype=complex), "tanh")

    def test_signal_rejected(self):
        with pytest.raises(ContractError, match="numeric array, got Signal"):
            activation(Signal(np.ones(2, dtype=complex)), "modulus")
