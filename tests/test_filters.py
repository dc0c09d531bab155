"""Filter parameterization, application, activations, and persistence."""

import numpy as np
import pytest

from schro_gsp.errors import ContractError, FormatError
from schro_gsp.filters import (
    FilterParams,
    FilterTerm,
    InputModulationParams,
    TIME_INIT_HIGH,
    TIME_INIT_LOW,
    activation,
    init_times,
    input_modulation,
    load_filter_params,
    save_filter_params,
    schrodinger_filter,
)
from schro_gsp.graph_core import FeatureLocations, Signal
from schro_gsp.operators import schrodinger_laplacian

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
        assert params.out_channels == 4


class TestPersistence:
    def test_json_round_trip_is_exact(self, rng):
        params = _random_params(rng, n_features=2, j=2, d=3)
        text = params.to_json()
        back = FilterParams.from_json(text)
        assert back.to_json() == text
        for orig, copy in zip(params.terms, back.terms):
            assert orig.time == copy.time
            assert orig.phase == copy.phase
            assert np.array_equal(orig.direction, copy.direction)
            assert np.array_equal(orig.mix, copy.mix)

    def test_file_round_trip(self, rng, tmp_path):
        params = _random_params(rng, n_features=1, j=1, d=2)
        path = tmp_path / "params.json"
        save_filter_params(params, path)
        assert load_filter_params(path).to_json() == params.to_json()

    def test_invalid_json_rejected(self):
        with pytest.raises(FormatError):
            FilterParams.from_json("{not json")

    def test_missing_key_rejected(self):
        with pytest.raises(FormatError):
            FilterParams.from_dict({"terms": [{"time": 0.1}]})

    def test_malformed_mix_rows_rejected(self):
        with pytest.raises(FormatError):
            FilterParams.from_dict({"terms": [{
                "time": 0.1, "phase": 0.0, "direction": [1.0],
                "mix": [[0.5]],  # entries must be [re, im] pairs
            }]})


class TestFilterAction:
    def test_identity_term_returns_input(self, rng):
        graph, f, _ = make_instance(31)
        vals = rng.normal(size=(graph.n_nodes, 2)) \
            + 1j * rng.normal(size=(graph.n_nodes, 2))
        g = Signal(vals)
        params = FilterParams(terms=(FilterTerm(
            time=0.0, phase=0.0, direction=np.zeros(1),
            mix=np.eye(2, dtype=complex)),))
        lap = schrodinger_laplacian(graph, f)
        out = schrodinger_filter(lap, f, params, g)
        assert np.array_equal(out.values, g.values)

    def test_opposite_mixes_cancel(self, rng):
        graph, f, _ = make_instance(37)
        g = Signal(rng.normal(size=(graph.n_nodes, 2))
                   + 1j * rng.normal(size=(graph.n_nodes, 2)))
        mix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        kw = {"time": 0.7, "phase": 1.3, "direction": np.array([0.8])}
        params = FilterParams(terms=(
            FilterTerm(mix=mix, **kw), FilterTerm(mix=-mix, **kw)))
        lap = schrodinger_laplacian(graph, f)
        out = schrodinger_filter(lap, f, params, g)
        assert np.abs(out.values).max() == 0.0

    def test_linear_in_the_signal(self, rng):
        graph, f, _ = make_instance(41, n_features=2)
        params = _random_params(rng, n_features=2, j=2, d=3)
        x = Signal(rng.normal(size=(graph.n_nodes, 2))
                   + 1j * rng.normal(size=(graph.n_nodes, 2)))
        y = Signal(rng.normal(size=(graph.n_nodes, 2))
                   + 1j * rng.normal(size=(graph.n_nodes, 2)))
        a, b = 0.3 - 1.1j, -0.8 + 0.2j
        lap = schrodinger_laplacian(graph, f)
        combined = schrodinger_filter(
            lap, f, params, Signal(a * x.values + b * y.values))
        parts = (a * schrodinger_filter(lap, f, params, x).values
                 + b * schrodinger_filter(lap, f, params, y).values)
        assert np.abs(combined.values - parts).max() <= 1e-9

    def test_constant_features_reduce_to_phased_mix(self, rng, path3):
        # constant columns kill the generator, so each term is a global
        # phase on the input followed by its channel mix
        graph, _ = path3
        f = FeatureLocations(np.full((3, 2), [1.5, -0.5]))
        params = _random_params(rng, n_features=2, j=2, d=2)
        g = Signal(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        lap = schrodinger_laplacian(graph, f)
        out = schrodinger_filter(lap, f, params, g)
        expected = np.zeros((3, 2), dtype=np.complex128)
        for term in params.terms:
            c = float(np.array([1.5, -0.5]) @ term.direction)
            expected += np.exp(1j * term.phase * c) * (g.values @ term.mix)
        assert np.abs(out.values - expected).max() <= 1e-12

    def test_unitary_term_preserves_norm(self, rng):
        graph, f, _ = make_instance(43)
        mix, _ = np.linalg.qr(rng.normal(size=(2, 2))
                              + 1j * rng.normal(size=(2, 2)))
        params = FilterParams(terms=(FilterTerm(
            time=0.9, phase=1.7, direction=np.array([1.0]), mix=mix),))
        g = Signal(rng.normal(size=(graph.n_nodes, 2))
                   + 1j * rng.normal(size=(graph.n_nodes, 2)))
        lap = schrodinger_laplacian(graph, f)
        out = schrodinger_filter(lap, f, params, g)
        assert np.linalg.norm(out.values) == pytest.approx(
            np.linalg.norm(g.values), rel=1e-9)

    def test_feature_count_mismatch_rejected(self, rng):
        graph, f, _ = make_instance(47)  # one feature column
        params = _random_params(rng, n_features=2, j=1, d=1)
        g = Signal(np.ones(graph.n_nodes, dtype=complex))
        lap = schrodinger_laplacian(graph, f)
        with pytest.raises(ContractError):
            schrodinger_filter(lap, f, params, g)

    def test_channel_count_mismatch_rejected(self, rng):
        graph, f, _ = make_instance(53)
        params = _random_params(rng, n_features=1, j=2, d=1)
        g = Signal(np.ones(graph.n_nodes, dtype=complex))
        lap = schrodinger_laplacian(graph, f)
        with pytest.raises(ContractError):
            schrodinger_filter(lap, f, params, g)


class TestInputModulation:
    def test_zero_phase_gives_real_output(self, rng):
        q = FeatureLocations(rng.normal(size=(5, 2)))
        amp = rng.normal(size=(2, 3))
        params = InputModulationParams(amp, np.zeros((2, 3)))
        out = input_modulation(q, params)
        assert np.array_equal(out.values, (q.values @ amp).astype(complex))

    def test_zero_amplitude_gives_zero(self, rng):
        q = FeatureLocations(rng.normal(size=(5, 2)))
        params = InputModulationParams(np.zeros((2, 3)), rng.normal(size=(2, 3)))
        assert np.abs(input_modulation(q, params).values).max() == 0.0

    def test_modulus_ignores_the_phase_map(self, rng):
        q = FeatureLocations(rng.normal(size=(6, 2)))
        amp = rng.normal(size=(2, 2))
        with_phase = input_modulation(
            q, InputModulationParams(amp, rng.normal(size=(2, 2))))
        assert np.abs(
            np.abs(with_phase.values) - np.abs(q.values @ amp)).max() <= 1e-12

    def test_feature_count_mismatch_rejected(self, rng):
        q = FeatureLocations(rng.normal(size=(5, 2)))
        params = InputModulationParams(np.ones((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ContractError):
            input_modulation(q, params)

    def test_map_shape_disagreement_rejected(self):
        with pytest.raises(ContractError):
            InputModulationParams(np.ones((2, 2)), np.zeros((2, 3)))

    def test_nonfinite_maps_rejected(self):
        with pytest.raises(ContractError):
            InputModulationParams(np.full((1, 1), np.inf), np.zeros((1, 1)))


class TestActivation:
    def test_split_relu_clips_by_quadrant(self):
        g = Signal(np.array([-1.0 - 2.0j, 3.0 + 4.0j, -1.0 + 2.0j]))
        out = activation(g, "split-relu")
        assert np.array_equal(out.channel(0), np.array([0.0j, 3.0 + 4.0j, 2.0j]))

    def test_modulus_takes_lengths(self):
        out = activation(Signal(np.array([3.0 + 4.0j])), "modulus")
        assert out.values[0, 0] == 5.0 + 0.0j

    def test_none_returns_the_same_signal(self, rng):
        g = Signal(rng.normal(size=4) + 1j * rng.normal(size=4))
        assert activation(g, "none") is g

    @pytest.mark.parametrize("kind", ["split-relu", "modulus", "none"])
    def test_idempotent(self, rng, kind):
        g = Signal(rng.normal(size=8) + 1j * rng.normal(size=8))
        once = activation(g, kind)
        twice = activation(once, kind)
        assert np.array_equal(once.values, twice.values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            activation(Signal(np.ones(2, dtype=complex)), "tanh")


class TestInitTimes:
    def test_zero_channels_gives_empty_list(self):
        assert init_times(0, seed=3) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ContractError):
            init_times(-1, seed=3)

    def test_deterministic_in_the_seed(self):
        assert init_times(6, seed=11) == init_times(6, seed=11)
        assert init_times(6, seed=11) != init_times(6, seed=12)

    def test_range_and_mean(self):
        times = init_times(1000, seed=5)
        arr = np.array(times)
        assert arr.min() >= TIME_INIT_LOW
        assert arr.max() < TIME_INIT_HIGH
        assert 0.70 <= arr.mean() <= 0.80
