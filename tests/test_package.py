"""The package's public surface."""

import pytest

import schro_gsp

# ``schro_gsp.__all__`` in sorted order, submodules included; adding or
# removing a public name is a deliberate change to this list.
PUBLIC_NAMES = [
    "ContractError", "DENSE_MAX_NODES", "DegenerateFeatureError",
    "DegenerateSignalError", "DensePropagator", "DivergedError",
    "FeatureLocations", "FilterParams", "FilterTerm", "FormatError", "Graph",
    "NORM_FLOOR", "NormEstimate", "NumericalError", "PINNED_CLUSTER_SEED",
    "PMOConfig", "PMOResult", "RoutingReport", "SchroGspError",
    "SecondOrderGenerator", "ShiftReport", "Signal", "SizeError",
    "SparseOperator", "VARIANCE_FLOOR", "WindowSet", "WindowShift",
    "activation", "bandwidth_order", "build_windows", "cluster_graph",
    "commutator", "commuting_deficiency", "diagnose", "dynamics_rhs_multi",
    "dynamics_rhs_single", "epsilon_regularity", "errors", "evolve",
    "feature_derivative", "filters", "graph_core", "infinity_norm",
    "load_features", "load_filter_params", "load_graph", "load_signal",
    "location_observable", "mean", "mixed_derivative_rhs", "modulation",
    "momentum_mean_modulated_closed_form", "momentum_observable",
    "normalize_channel", "observe", "operator_norm", "operators", "optim",
    "pmo", "pmo_fit", "pmo_objective", "propagate", "relative_shift",
    "ring_graph", "routing_measure", "save_features", "save_filter_params",
    "save_graph", "save_signal", "schrodinger_filter", "schrodinger_laplacian",
    "sensitivity_probe", "smoothing_operator", "variance", "variance_rhs",
]


def test_public_names_are_frozen():
    assert sorted(schro_gsp.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    assert all(hasattr(schro_gsp, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize("module", ["propagate", "filters", "observe"])
def test_numerical_modules_do_not_see_signal(module):
    # ``Signal`` is the validated type of the input boundary (loaders,
    # instance generators, relabeling, normalization, window shifts); the
    # numerical routines take and return plain arrays.
    assert not hasattr(getattr(schro_gsp, module), "Signal")
