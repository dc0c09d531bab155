"""The shared value rules: finiteness tests, the casts of a caller's
arrays, the arrays containers keep, and the scalars configs and containers
keep."""

import dataclasses
import importlib
import json
import pkgutil
import warnings

import numpy as np
import pytest

import schro_gsp
from schro_gsp.cli import DiagnoseConfig, VerifyConfig
from schro_gsp.diagnose import WindowSet
from schro_gsp.errors import ContractError, all_finite, exact_array, frozen_array
from schro_gsp.experiments import ClusterSweepConfig, GridPMOConfig, grid_graph
from schro_gsp.filters import FilterTerm
from schro_gsp.graph_core import FeatureLocations, Graph, Signal, ring_graph
from schro_gsp.observe import (
    mean,
    mixed_derivative_rhs,
    momentum_mean_modulated_closed_form,
    variance_rhs,
)
from schro_gsp.operators import location_observable, modulation, schrodinger_laplacian
from schro_gsp.pmo import PMOConfig, PMOResult, pmo_objective
from schro_gsp.propagate import DensePropagator, evolve
from schro_gsp.ring_task import RingModelParams, RingTaskConfig


class TestAllFinite:
    @pytest.mark.parametrize("values", [
        np.zeros(0), np.zeros((0, 3), dtype=complex), np.arange(4),
        np.array([[1.0, -2.0], [3.0, 1e308]]), np.array([1.0 - 2j, 3j]),
    ])
    def test_finite_arrays_pass(self, values):
        assert all_finite(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0.0, np.nan), complex(1.0, -np.inf)])
    def test_any_nonfinite_entry_fails(self, bad):
        values = np.ones((3, 2), dtype=complex)
        values[2, 1] = bad
        assert not all_finite(values)
        if np.imag(bad) == 0.0:
            assert not all_finite(values.real.copy())


class TestExactArray:
    def test_an_array_in_the_dtype_is_returned_as_it_is(self):
        for values, dtype in [(np.arange(3.0)[::2], np.float64),
                              (np.arange(4).reshape(2, 2).T, np.int64),
                              (np.ones(2, dtype=complex), np.complex128)]:
            assert exact_array(values, dtype, "block") is values

    def test_converts_what_keeps_its_values(self):
        out = exact_array(np.array([1, 2], dtype=np.int32), np.complex128, "block")
        assert out.dtype == np.complex128 and out.tolist() == [1, 2]
        ends = exact_array([1.0, -3.0], np.int64, "ends")
        assert ends.dtype == np.int64 and ends.tolist() == [1, -3]
        assert exact_array([], np.int64, "ends").dtype == np.int64


class TestFrozenArray:
    def test_returns_a_read_only_copy_in_the_dtype(self):
        values = [[1, 2], [3, 4]]
        out = frozen_array(values, np.complex128, "block")
        assert out.dtype == np.complex128 and not out.flags.writeable
        assert np.array_equal(out, values)

    def test_copies_an_array_already_in_the_dtype(self):
        values = np.arange(3.0)
        out = frozen_array(values, np.float64, "column")
        assert out is not values and not np.shares_memory(out, values)
        assert values.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_names_the_array_when_an_entry_is_not_finite(self, dtype):
        with pytest.raises(ContractError, match="^column must be finite$"):
            frozen_array([0.0, np.nan], dtype, "column")

    def test_integer_arrays_need_no_finiteness_test(self):
        assert frozen_array(np.arange(3), np.int64, "index").tolist() == [0, 1, 2]


# Every float or complex array a container keeps: (name, valid array, the
# kept array of a container built around a replacement for it).
_KEPT = {
    "Graph.edge_w": (np.array([1.0, 2.0]),
                     lambda a: Graph(3, [0, 1], [1, 2], a).edge_w),
    "Signal.values": (np.ones((3, 2), dtype=complex), lambda a: Signal(a).values),
    "FeatureLocations.values": (np.arange(6.0).reshape(3, 2),
                                lambda a: FeatureLocations(a).values),
    "WindowSet.weights": (np.full((2, 3), 0.5),
                          lambda a: WindowSet(0, a, [0.0, 1.0]).weights),
    "WindowSet.centers": (np.array([0.0, 1.0]),
                          lambda a: WindowSet(0, np.ones((2, 3)), a).centers),
    "FilterTerm.direction": (np.ones(2),
                             lambda a: FilterTerm(0.1, 0.2, a, np.eye(2)).direction),
    "FilterTerm.mix": (np.eye(2, dtype=complex),
                       lambda a: FilterTerm(0.1, 0.2, np.ones(2), a).mix),
    "RingModelParams.times": (np.ones(2), lambda a: RingModelParams(
        "modulated", a, np.zeros((2, 3)), np.ones(2, dtype=complex), 1.0).times),
    "RingModelParams.directions": (np.ones((2, 3)), lambda a: RingModelParams(
        "modulated", np.ones(2), a, np.ones(2, dtype=complex), 1.0).directions),
    "RingModelParams.mix": (np.ones(2, dtype=complex), lambda a: RingModelParams(
        "modulated", np.ones(2), np.zeros((2, 3)), a, 1.0).mix),
    "PMOResult.transform": (np.eye(2), lambda a: PMOResult(
        a, ((0, 1.0),), 0.0, 1.0, 0.0, 1, "converged").transform),
}


@pytest.mark.parametrize("slot", list(_KEPT))
def test_container_keeps_a_read_only_finite_copy(slot):
    valid, build = _KEPT[slot]
    bads = [np.nan, np.inf, -np.inf]
    if np.iscomplexobj(valid):
        bads += [complex(0.0, b) for b in bads]
    for bad in bads:
        values = valid.copy()
        values.flat[-1] = bad
        with pytest.raises(ContractError, match="must be finite"):
            build(values)
    kept = build(valid)
    assert not kept.flags.writeable
    assert kept is not valid and not np.shares_memory(kept, valid)
    assert valid.flags.writeable
    assert np.array_equal(kept, valid)


# A real unit-norm channel with spread on an 8-node ring, and its generator.
_RING, _RING_F = ring_graph(8)
_RING_LAP = schrodinger_laplacian(_RING, _RING_F)
_BUMP = np.exp(-0.5 * (np.arange(8.0) - 3.0) ** 2)
_BUMP /= np.linalg.norm(_BUMP)
_GRID, _GRID_Q = grid_graph(3)

# Every array a container keeps and every caller's array a public function
# casts: (valid array, the kept array or the result built from a
# replacement for it).
_CAST = {
    **_KEPT,
    "Graph.edge_u": (np.array([0, 1]),
                     lambda a: Graph(3, a, [1, 2], [1.0, 1.0]).edge_u),
    "Graph.edge_v": (np.array([1, 2]),
                     lambda a: Graph(3, [0, 1], a, [1.0, 1.0]).edge_v),
    "Graph.from_edges u": (np.array([0, 1]), lambda a: Graph.from_edges(
        3, zip(a, [1, 2], [1.0, 1.0])).edge_u),
    "Graph.from_edges w": (np.array([1.0, 2.0]), lambda a: Graph.from_edges(
        3, zip([0, 1], [1, 2], a)).edge_w),
    "modulation h": (np.array([1.0, 2.0]), lambda a: modulation(a, 0.3)),
    "pmo_objective transform": (np.eye(2), lambda a: pmo_objective(
        _GRID, _GRID_Q, a, 0.1)),
    "momentum_mean_modulated_closed_form f": (np.arange(8.0), lambda a: (
        momentum_mean_modulated_closed_form(_RING, a, np.arange(8.0), 0.3, _BUMP))),
    "momentum_mean_modulated_closed_form h": (np.arange(8.0), lambda a: (
        momentum_mean_modulated_closed_form(_RING, np.arange(8.0), a, 0.3, _BUMP))),
    "variance_rhs f": (np.arange(8.0), lambda a: variance_rhs(_RING, a, _BUMP)),
    "mixed_derivative_rhs f": (np.arange(8.0), lambda a: mixed_derivative_rhs(
        _RING, a, np.arange(8.0) % 3, _BUMP, 1.0)),
    "mixed_derivative_rhs h": (np.arange(8.0) % 3, lambda a: mixed_derivative_rhs(
        _RING, np.arange(8.0), a, _BUMP, 1.0)),
    "observe channel": (np.eye(8, dtype=complex)[2], lambda a: mean(
        location_observable(_RING_F, 0), a)),
    "evolve operand": (np.ones((8, 2), dtype=complex),
                       lambda a: evolve(_RING_LAP, 0.5, a)),
    "evolve weights": (np.ones(8, dtype=complex), lambda a: evolve(
        _RING_LAP, 0.5, np.ones((8, 2), dtype=complex), a)),
    "DensePropagator.apply operand": (np.ones(8, dtype=complex), lambda a: (
        DensePropagator(_RING_LAP).apply(0.5, a))),
}


@pytest.mark.parametrize("slot", list(_CAST))
def test_cast_refuses_a_value_it_would_drop_or_change(slot):
    valid, build = _CAST[slot]
    refused = [(valid.astype(str), "must be numbers"),
               (np.full(valid.shape, None), "must be numbers"),
               (np.ones(valid.shape, dtype=bool), "must be numbers")]
    if valid.dtype.kind != "c":
        refused.append((valid * (1 + 1j), "must be real$"))
    if valid.dtype.kind == "i":
        for bad in [0.5, np.nan, np.inf, -np.inf]:
            values = valid.astype(float)
            values[-1] = bad
            refused.append((values, "must be integers$"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values, message in refused:
            with pytest.raises(ContractError, match=message):
                build(values)
        ints = valid.real.astype(np.int64)
        assert np.array_equal(build(ints), build(ints.astype(valid.dtype)))
        if valid.dtype.kind == "i":
            assert np.array_equal(build(valid.astype(float)), build(valid))


def test_empty_endpoint_lists_build_an_edgeless_graph():
    for graph in (Graph(3, [], [], []), Graph.from_edges(3, [])):
        assert graph.n_edges == 0 and graph.edge_u.dtype == np.int64


# Every config and every container built from caller scalars, with valid
# keyword arguments (a config's defaults fill the rest).
_HOLDERS = {
    PMOConfig: {"out_features": 2},
    GridPMOConfig: {},
    ClusterSweepConfig: {},
    RingTaskConfig: {},
    VerifyConfig: {},
    DiagnoseConfig: {"filter_params": "p.json", "graph": "g.tsv",
                     "features": "f.csv", "signal": "s.csv"},
    Graph: {"n_nodes": 3, "edge_u": [0], "edge_v": [1], "edge_w": [1.0]},
    WindowSet: {"coordinate": 0, "weights": np.ones((2, 3)), "centers": [0.0, 1.0]},
    FilterTerm: {"time": 0.1, "phase": 0.2, "direction": np.ones(2),
                 "mix": np.eye(2)},
    RingModelParams: {"kind": "modulated", "times": np.ones(2),
                      "directions": np.zeros((2, 3)), "mix": np.ones(2), "scale": 1.0},
}

# Values each scalar annotation refuses.
_REFUSED = {
    "int": [True, 0.5, np.nan, np.inf, -np.inf],
    "float": [True, np.nan, np.inf, -np.inf, "2.5", 10 ** 400],
    "str": [1, None],
    "str | None": [1],
}
_NUMPY = {"int": np.int64, "float": np.float32}


def _scalar_fields(cls, kinds):
    return [f for f in dataclasses.fields(cls) if f.type in kinds]


def test_every_config_class_is_held_to_the_scalar_rule():
    configs = {
        obj for info in pkgutil.iter_modules(schro_gsp.__path__)
        for obj in vars(importlib.import_module(f"schro_gsp.{info.name}")).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__name__.endswith("Config")
    }
    assert configs <= set(_HOLDERS)


@pytest.mark.parametrize("cls", list(_HOLDERS), ids=lambda cls: cls.__name__)
def test_numpy_scalars_are_kept_as_python_numbers(cls):
    valid = cls(**_HOLDERS[cls])
    numeric = _scalar_fields(cls, _NUMPY)
    given = {f.name: _NUMPY[f.type](getattr(valid, f.name)) for f in numeric}
    built = cls(**{**_HOLDERS[cls], **given})
    kept = {f.name: getattr(built, f.name) for f in numeric}
    assert {name: type(value) for name, value in kept.items()} == {
        f.name: int if f.type == "int" else float for f in numeric}
    assert kept == given
    json.dumps(kept)


@pytest.mark.parametrize("cls,name,bad", [
    (cls, f.name, bad) for cls in _HOLDERS
    for f in _scalar_fields(cls, _REFUSED) for bad in _REFUSED[f.type]
], ids=lambda p: p.__name__ if isinstance(p, type) else repr(p)[:16])
def test_scalar_field_refuses_what_its_annotation_does_not_admit(cls, name, bad):
    with pytest.raises(ContractError, match=f"^{cls.__name__}.{name} must be"):
        cls(**{**_HOLDERS[cls], name: bad})
