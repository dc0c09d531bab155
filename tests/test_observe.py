"""Observable statistics, routing measure, and closed-form dynamics."""

import numpy as np
import pytest

from schro_gsp.errors import ContractError, DegenerateSignalError
from schro_gsp.graph_core import FeatureLocations, Graph, Signal
from schro_gsp.observe import (
    dynamics_rhs_multi,
    epsilon_regularity,
    mean,
    mixed_derivative_rhs,
    momentum_mean_modulated_closed_form,
    routing_measure,
    sensitivity_probe,
    variance,
    variance_rhs,
)
from schro_gsp.operators import (
    SparseOperator,
    feature_derivative,
    location_observable,
    modulation,
    momentum_observable,
    schrodinger_laplacian,
    smoothing_operator,
)
from schro_gsp.propagate import DensePropagator
from schro_gsp.verify import random_connected_graph, random_features, random_unit

from conftest import make_instance

F012 = FeatureLocations([0.0, 1.0, 2.0])


class TestMeanVariance:
    def test_pure_state_mean_is_its_location(self):
        x = location_observable(F012, 0)
        assert mean(x, np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)

    def test_symmetric_mixture(self):
        x = location_observable(F012, 0)
        g = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        assert mean(x, g) == pytest.approx(1.0)
        assert variance(x, g) == pytest.approx(1.0)

    def test_pure_state_has_zero_variance(self):
        x = location_observable(F012, 0)
        assert variance(x, np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_rejected(self):
        x = location_observable(F012, 0)
        with pytest.raises(ContractError):
            mean(x, np.array([2.0, 0.0, 0.0]))

    def test_non_self_adjoint_rejected(self):
        phases = SparseOperator(np.diag([1j, -1j]))
        with pytest.raises(ContractError):
            mean(phases, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("g", [
        Signal(np.array([0.0, 1.0, 0.0])), np.array([[0.0], [1.0], [0.0]]),
        np.zeros(0),
    ], ids=["signal", "column", "empty"])
    def test_anything_but_a_vector_rejected(self, g):
        x = location_observable(F012, 0)
        with pytest.raises(ContractError, match=r"non-empty \(N,\) vector"):
            mean(x, g)

    def test_real_signal_has_zero_momentum(self, rng):
        graph, f, _ = make_instance(61)
        mom = momentum_observable(graph, f, 0)
        vec = rng.normal(size=graph.n_nodes)
        vec = vec / np.linalg.norm(vec)
        assert abs(mean(mom, vec)) <= 1e-12


class TestRoutingMeasure:
    def test_staying_put_scores_one(self):
        x = location_observable(F012, 0)
        g = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        report = routing_measure(x, g, g, mean(x, g))
        assert report.measure == pytest.approx(1.0, abs=1e-12)

    def test_offset_target_adds_quadratic_penalty(self):
        x = location_observable(F012, 0)
        g = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        e, v = mean(x, g), variance(x, g)
        c = 0.7
        report = routing_measure(x, g, g, e + c)
        assert report.measure == pytest.approx(1.0 + c * c / v, abs=1e-12)

    def test_pure_initial_state_rejected(self):
        x = location_observable(F012, 0)
        with pytest.raises(DegenerateSignalError):
            routing_measure(x, np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), 2.0)

    def test_decomposition_identity_on_random_instances(self):
        for seed in range(5):
            graph, f, vec = make_instance(seed)
            x = location_observable(f, 0)
            if variance(x, vec) <= 1e-8:
                continue
            prop = DensePropagator(schrodinger_laplacian(graph, f))
            out = prop.apply(0.7, vec)
            report = routing_measure(x, vec, out, 0.5)
            recon = (report.final_variance + (0.5 - report.final_mean) ** 2)
            assert report.measure == pytest.approx(
                recon / report.initial_variance, abs=1e-10)


class TestModulatedMomentum:
    def test_zero_angle_gives_zero(self, path3):
        graph, f = path3
        g = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        val = momentum_mean_modulated_closed_form(
            graph, f.column(0), f.column(0), 0.0, g)
        assert val == 0.0

    def test_constant_profile_gives_zero(self, path3):
        graph, f = path3
        g = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        val = momentum_mean_modulated_closed_form(
            graph, f.column(0), np.full(3, 3.0), 1.3, g)
        assert val == 0.0

    def test_path_hand_value(self, path3):
        # one active edge; both orientations contribute g(0) g(1) sin(pi/2)
        graph, f = path3
        g = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        col = f.column(0)
        val = momentum_mean_modulated_closed_form(graph, col, col, np.pi / 2, g)
        assert val == pytest.approx(1.0, abs=1e-12)
        direct = mean(momentum_observable(graph, f, 0),
                      modulation(col, np.pi / 2) * g)
        assert val == pytest.approx(direct, abs=1e-10)

    def test_matches_direct_expectation(self, rng):
        graph, f, _ = make_instance(71, n_features=2)
        g = rng.normal(size=graph.n_nodes)
        g = g / np.linalg.norm(g)
        theta = 2.4
        val = momentum_mean_modulated_closed_form(
            graph, f.column(0), f.column(1), theta, g)
        direct = mean(momentum_observable(graph, f, 0),
                      modulation(f.column(1), theta) * g)
        assert val == pytest.approx(direct, abs=1e-10)


def _fd_mean(graph, f, k, vec, step=1e-5):
    """Centered difference of the location mean along the evolution."""
    prop = DensePropagator(schrodinger_laplacian(graph, f))
    loc = location_observable(f, k)
    fwd = mean(loc, prop.apply(step, vec))
    bwd = mean(loc, prop.apply(-step, vec))
    return (fwd - bwd) / (2.0 * step)


class TestDynamics:
    def test_real_signal_stays_put(self, rng):
        graph, f, _ = make_instance(83)
        vec = rng.normal(size=graph.n_nodes)
        vec = vec / np.linalg.norm(vec)
        assert dynamics_rhs_multi(graph, f, 0, vec) == pytest.approx(0.0, abs=1e-12)

    def test_constant_feature_stays_put(self, rng):
        graph, _, vec = make_instance(89)
        const = np.full(graph.n_nodes, 2.0)
        assert dynamics_rhs_multi(graph, FeatureLocations(const), 0, vec) == 0.0

    def test_single_matches_finite_difference(self):
        graph, f, vec = make_instance(97)
        rhs = dynamics_rhs_multi(graph, f, 0, vec)
        fd = _fd_mean(graph, f, 0, vec)
        assert rhs == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_one_feature_rates_are_the_transport_closed_forms(self):
        """On one feature the joint rate is exactly ``2 Re <W g, i G g>``, and
        ``variance_rhs`` is exactly ``growth - 4 E[X] Re <W g, i G g>``."""
        gen = np.random.default_rng(131)
        for _ in range(60):
            graph = random_connected_graph(gen)
            f = random_features(gen, graph.n_nodes, 1)
            vec = random_unit(gen, graph.n_nodes)
            col = f.column(0)
            transport = float(np.real(np.vdot(
                smoothing_operator(graph, f, 0).apply(vec),
                1j * feature_derivative(graph, f, 0).apply(vec))))
            assert dynamics_rhs_multi(graph, f, 0, vec) == 2.0 * transport
            lap = schrodinger_laplacian(graph, f)
            fsq = col * col
            growth = float(np.real(np.vdot(
                vec, 1j * (lap.apply(fsq * vec) - fsq * lap.apply(vec)))))
            e_loc = float(np.real(np.vdot(vec, col * vec)))
            assert variance_rhs(graph, col, vec) == growth - 4.0 * e_loc * transport

    def test_multi_matches_finite_difference(self):
        graph, f, vec = make_instance(103, n_features=3)
        rhs = dynamics_rhs_multi(graph, f, 1, vec)
        fd = _fd_mean(graph, f, 1, vec)
        assert rhs == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_variance_rhs_matches_finite_difference(self):
        graph, f, vec = make_instance(107)
        rhs = variance_rhs(graph, f.column(0), vec)
        prop = DensePropagator(schrodinger_laplacian(graph, f))
        loc = location_observable(f, 0)
        step = 1e-5
        fd = (variance(loc, prop.apply(step, vec))
              - variance(loc, prop.apply(-step, vec))) / (2.0 * step)
        assert rhs == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_variance_rhs_zero_for_real_signal(self, rng):
        graph, f, _ = make_instance(109)
        vec = rng.normal(size=graph.n_nodes)
        vec = vec / np.linalg.norm(vec)
        assert variance_rhs(graph, f.column(0), vec) == pytest.approx(0.0, abs=1e-10)


class TestRegularity:
    def test_two_node_uniform_state_is_perfectly_regular(self):
        graph = Graph.from_edges(2, [(0, 1, 1.0)])
        g = np.array([1.0, 1.0]) / np.sqrt(2)
        assert epsilon_regularity(graph, np.array([0.0, 1.0]), g) == pytest.approx(
            0.0, abs=1e-14)

    def test_constant_feature_gives_unit_defect(self):
        graph, _, vec = make_instance(113)
        const = np.full(graph.n_nodes, 1.0)
        assert epsilon_regularity(graph, const, vec) == pytest.approx(1.0, abs=1e-12)

    def test_transport_speed_bounded_by_regularity(self):
        from schro_gsp.operators import operator_norm

        for seed in range(5):
            graph, f, vec = make_instance(seed + 400)
            lhs = abs(dynamics_rhs_multi(graph, f, 0, vec)
                      - 2.0 * mean(momentum_observable(graph, f, 0), vec))
            eps = epsilon_regularity(graph, f.column(0), vec)
            bound = 2.0 * eps * float(operator_norm(feature_derivative(graph, f, 0)))
            assert lhs <= bound + 1e-9


class TestMixedDerivative:
    def test_constant_modulation_profile_is_inert(self):
        graph, f, _ = make_instance(137)
        gen = np.random.default_rng(1)
        g = gen.normal(size=graph.n_nodes)
        g = g / np.linalg.norm(g)
        val = mixed_derivative_rhs(
            graph, f.column(0), np.full(graph.n_nodes, 4.0), g, 0.3)
        assert val == 0.0

    def test_matches_nested_finite_differences(self):
        # scan seeds until the rate is large enough for a relative check
        for seed in range(200, 260):
            graph, f, _ = make_instance(seed, n_features=2)
            gen = np.random.default_rng(seed)
            g = gen.normal(size=graph.n_nodes)
            g = g / np.linalg.norm(g)
            fcol, hcol = f.column(0), f.column(1)
            loc = location_observable(f, 0)
            if variance(loc, g) <= 1e-6:
                continue
            target = 0.4
            closed = mixed_derivative_rhs(graph, fcol, hcol, g, target)
            if abs(closed) < 1e-2:
                continue
            break
        else:
            pytest.fail("no usable instance found")

        prop = DensePropagator(schrodinger_laplacian(
            graph, FeatureLocations(fcol)))
        v0 = variance(loc, g)

        def measure(t, theta):
            out = prop.apply(t, modulation(hcol, theta) * g)
            e_t = mean(loc, out)
            v_t = variance(loc, out)
            return (v_t + (target - e_t) ** 2) / v0

        def cross(h):
            return (measure(h, h) - measure(h, -h) - measure(-h, h)
                    + measure(-h, -h)) / (4.0 * h * h)

        step = 1e-3
        fd = (4.0 * cross(step / 2.0) - cross(step)) / 3.0
        assert closed == pytest.approx(fd, rel=1e-3)


class TestSensitivityProbe:
    def test_identity_map(self, rng):
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        vec = vec / np.linalg.norm(vec)
        assert sensitivity_probe(lambda x: x, vec) == pytest.approx(1.0, abs=1e-10)

    def test_scalar_multiple(self, rng):
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        vec = vec / np.linalg.norm(vec)
        assert sensitivity_probe(lambda x: 3.0 * x, vec) == pytest.approx(
            1.0, abs=1e-10)

    def test_modulate_then_evolve(self):
        graph, f, vec = make_instance(149)
        prop = DensePropagator(schrodinger_laplacian(graph, f))
        phases = modulation(f.column(0), 1.1)
        probe = sensitivity_probe(lambda x: prop.apply(0.9, phases * x), vec)
        assert probe == pytest.approx(1.0, abs=1e-10)

    def test_vanishing_output_rejected(self, rng):
        vec = rng.normal(size=4)
        vec = vec / np.linalg.norm(vec)
        with pytest.raises(DegenerateSignalError):
            sensitivity_probe(lambda x: 0.0 * x, vec)

    def test_nonlinear_map_rejected(self, rng):
        vec = rng.normal(size=4)
        vec = vec / np.linalg.norm(vec)
        with pytest.raises(ContractError):
            sensitivity_probe(lambda x: x * x, vec)
