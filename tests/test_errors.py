"""The shared value rules: finiteness tests, the arrays containers keep,
and the scalars configs and containers keep."""

import dataclasses
import importlib
import json
import pkgutil

import numpy as np
import pytest

import schro_gsp
from schro_gsp.cli import DiagnoseConfig, VerifyConfig
from schro_gsp.diagnose import WindowSet
from schro_gsp.errors import ContractError, all_finite, frozen_array
from schro_gsp.experiments import ClusterSweepConfig, GridPMOConfig
from schro_gsp.filters import FilterTerm
from schro_gsp.graph_core import FeatureLocations, Graph, Signal
from schro_gsp.pmo import PMOConfig, PMOResult
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


# Every float or complex array a container keeps: (name, valid array, how to
# build the container around a replacement for it, the attribute keeping it).
_KEPT = {
    "Graph.edge_w": (np.array([1.0, 2.0]),
                     lambda a: Graph(3, [0, 1], [1, 2], a), "edge_w"),
    "Signal.values": (np.ones((3, 2), dtype=complex), Signal, "values"),
    "FeatureLocations.values": (np.arange(6.0).reshape(3, 2), FeatureLocations,
                                "values"),
    "WindowSet.weights": (np.full((2, 3), 0.5),
                          lambda a: WindowSet(0, a, [0.0, 1.0]), "weights"),
    "WindowSet.centers": (np.array([0.0, 1.0]),
                          lambda a: WindowSet(0, np.ones((2, 3)), a), "centers"),
    "FilterTerm.direction": (np.ones(2),
                             lambda a: FilterTerm(0.1, 0.2, a, np.eye(2)), "direction"),
    "FilterTerm.mix": (np.eye(2, dtype=complex),
                       lambda a: FilterTerm(0.1, 0.2, np.ones(2), a), "mix"),
    "RingModelParams.times": (np.ones(2), lambda a: RingModelParams(
        "modulated", a, np.zeros((2, 3)), np.ones(2, dtype=complex), 1.0), "times"),
    "RingModelParams.directions": (np.ones((2, 3)), lambda a: RingModelParams(
        "modulated", np.ones(2), a, np.ones(2, dtype=complex), 1.0), "directions"),
    "RingModelParams.mix": (np.ones(2, dtype=complex), lambda a: RingModelParams(
        "modulated", np.ones(2), np.zeros((2, 3)), a, 1.0), "mix"),
    "PMOResult.transform": (np.eye(2), lambda a: PMOResult(
        a, ((0, 1.0),), 0.0, 1.0, 0.0, 1, "converged"), "transform"),
}


@pytest.mark.parametrize("slot", list(_KEPT))
def test_container_keeps_a_read_only_finite_copy(slot):
    valid, build, attr = _KEPT[slot]
    bads = [np.nan, np.inf, -np.inf]
    if np.iscomplexobj(valid):
        bads += [complex(0.0, b) for b in bads]
    for bad in bads:
        values = valid.copy()
        values.flat[-1] = bad
        with pytest.raises(ContractError, match="must be finite"):
            build(values)
    kept = getattr(build(valid), attr)
    assert not kept.flags.writeable
    assert kept is not valid and not np.shares_memory(kept, valid)
    assert valid.flags.writeable
    assert np.array_equal(kept, valid)


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
