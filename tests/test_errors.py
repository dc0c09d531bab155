"""The shared value rules: finiteness tests and the arrays containers keep."""

import numpy as np
import pytest

from schro_gsp.diagnose import WindowSet
from schro_gsp.errors import ContractError, all_finite, frozen_array
from schro_gsp.filters import FilterTerm
from schro_gsp.graph_core import FeatureLocations, Graph, Signal
from schro_gsp.pmo import PMOResult
from schro_gsp.ring_task import RingModelParams


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
