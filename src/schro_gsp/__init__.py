"""Graph signal processing with feature-derivative generators.

Numerical core: graphs carry real feature coordinates per node; first-order
derivative operators along those coordinates induce a self-adjoint
second-order generator whose unitary propagation transports signal mass.
Phase modulation along a feature injects momentum, and observable statistics
(location means, variances, routing measures) quantify the transport.  The
package ships closed-form identities for all of these together with the
verification suites and desk-scale experiments that check them.
"""

from .errors import (
    ContractError,
    DegenerateFeatureError,
    DegenerateSignalError,
    DivergedError,
    FormatError,
    NumericalError,
    SchroGspError,
    SizeError,
)
from .graph_core import (
    NORM_FLOOR,
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
from .operators import (
    DENSE_MAX_NODES,
    NormEstimate,
    SecondOrderGenerator,
    SparseOperator,
    commutator,
    feature_derivative,
    infinity_norm,
    location_observable,
    modulation,
    momentum_observable,
    operator_norm,
    schrodinger_laplacian,
    smoothing_operator,
)
from .propagate import DensePropagator, evolve
from .observe import (
    VARIANCE_FLOOR,
    RoutingReport,
    dynamics_rhs_multi,
    dynamics_rhs_single,
    epsilon_regularity,
    mean,
    mixed_derivative_rhs,
    momentum_mean_modulated_closed_form,
    routing_measure,
    sensitivity_probe,
    variance,
    variance_rhs,
)
from .filters import (
    FilterParams,
    FilterTerm,
    activation,
    load_filter_params,
    save_filter_params,
    schrodinger_filter,
)
from .pmo import PMOConfig, PMOResult, commuting_deficiency, pmo_fit, pmo_objective
from .diagnose import (
    ShiftReport,
    WindowSet,
    WindowShift,
    build_windows,
    relative_shift,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
