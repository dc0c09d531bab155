"""The ``verify`` battery: registry, the shared propagation pass, and its work.

The five propagation suites read one pass over their instance family.  The
reference below recomputes each of them on its own, with a fresh draw and
its own builds and propagations, as separate suites would; the pass must
give the same numbers bit for bit, do less work, and keep nothing beyond
the run that made it.
"""

import numpy as np
import pytest

from schro_gsp import propagate
from schro_gsp.graph_core import Signal
from schro_gsp.operators import SecondOrderGenerator, schrodinger_laplacian
from schro_gsp.propagate import DensePropagator, evolve, unitarity_defect
from schro_gsp.verify import _propagation_family, run_suites, select_suites

# The registry in its order; renaming or reordering a suite is a deliberate
# change to the ``verify`` output.
SUITE_NAMES = [
    "graph-roundtrip", "normalize-idempotent", "signal-finiteness",
    "derivative-skew-symmetry", "laplacian-self-adjoint",
    "smoothing-equals-commutator", "generator-location-commutator",
    "operator-norm-bracket", "unitarity-dense", "unitarity-taylor",
    "taylor-dense-agreement", "momentum-conservation",
    "derivative-evolution-commute", "evolution-inversion-taylor",
    "evolution-inversion-dense", "routing-decomposition", "modulated-momentum",
    "real-signal-momentum", "location-dynamics-vs-fd",
    "multi-feature-dynamics-vs-fd", "variance-dynamics-vs-fd",
    "regularity-transport-bound", "multi-regularity-transport-bound",
    "mixed-derivative-vs-fd", "sensitivity-probe-linear",
    "pmo-permutation-symmetry", "pmo-monotone-fit",
    "pmo-gradient-step-consistency", "filter-linearity", "filter-unitary-norm",
    "activation-idempotent", "filter-complexity-scaling",
    "window-partition-of-unity", "shift-scale-invariance",
    "shift-full-window-consistency",
]

SERIES_SUITES = (
    "unitarity-taylor", "taylor-dense-agreement", "evolution-inversion-taylor")

# Work of one full battery: Chebyshev propagations, eigendecompositions and
# generator applications.  Machine-independent, so duplicated work fails
# here on any host, and so does a product that bypasses ``apply``.
BATTERY_CHEBYSHEV_RUNS = 567
BATTERY_FACTORIZATIONS = 427
BATTERY_GENERATOR_APPLICATIONS = 27_344


def _unitarity_dense():
    worst = 0.0
    for g, f, t, vec in _propagation_family():
        lap = schrodinger_laplacian(g, f)
        start = Signal(vec)
        before = start.norm()
        after = Signal(DensePropagator(lap).apply(t, start.values)).norm()
        worst = max(worst, abs(after - before) / before)
    return worst, 1e-10, "norm drift, factorized propagation, 100 instances"


def _unitarity_taylor():
    worst = 0.0
    for g, f, t, vec in _propagation_family():
        lap = schrodinger_laplacian(g, f)
        worst = max(worst, unitarity_defect(lap, t, Signal(vec)))
    return worst, 1e-6, "norm drift, Chebyshev propagation, 100 instances"


def _taylor_dense_agreement():
    worst = 0.0
    for g, f, t, vec in _propagation_family(50):
        lap = schrodinger_laplacian(g, f)
        approx = evolve(lap, t, Signal(vec)).values
        exact = DensePropagator(lap).apply(t, vec)[:, None]
        worst = max(worst, float(np.abs(approx - exact).max()))
    return worst, 1e-6, "per-entry gap between Chebyshev and factorized paths"


def _evolution_inversion_taylor():
    worst = 0.0
    for g, f, t, vec in _propagation_family(50):
        lap = schrodinger_laplacian(g, f)
        back = evolve(lap, -t, evolve(lap, t, Signal(vec))).values[:, 0]
        worst = max(worst, float(np.abs(back - vec).max()))
    return worst, 1e-6, "forward/backward Chebyshev propagation round trip"


def _evolution_inversion_dense():
    worst = 0.0
    for g, f, t, vec in _propagation_family(50):
        prop = DensePropagator(schrodinger_laplacian(g, f))
        back = prop.apply(-t, prop.apply(t, vec))
        worst = max(worst, float(np.abs(back - vec).max()))
    return worst, 1e-9, "forward/backward factorized propagation round trip"


SEPARATE_SUITES = {
    "unitarity-dense": _unitarity_dense,
    "unitarity-taylor": _unitarity_taylor,
    "taylor-dense-agreement": _taylor_dense_agreement,
    "evolution-inversion-taylor": _evolution_inversion_taylor,
    "evolution-inversion-dense": _evolution_inversion_dense,
}


@pytest.fixture(scope="module")
def battery():
    """One full run, with its Chebyshev runs, factorizations and generator
    applications counted."""
    counts = {"chebyshev": 0, "factorizations": 0, "applications": 0}
    chebyshev = propagate._chebyshev
    factorize = DensePropagator.__init__
    apply = SecondOrderGenerator.apply

    def counted_chebyshev(*args):
        counts["chebyshev"] += 1
        return chebyshev(*args)

    def counted_factorize(self, *args):
        counts["factorizations"] += 1
        factorize(self, *args)

    def counted_apply(self, values):
        counts["applications"] += 1
        return apply(self, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_chebyshev", counted_chebyshev)
        mp.setattr(DensePropagator, "__init__", counted_factorize)
        mp.setattr(SecondOrderGenerator, "apply", counted_apply)
        results = run_suites()
    return {r.name: r for r in results}, counts


def test_registry_keeps_its_names_and_order():
    assert select_suites() == SUITE_NAMES


@pytest.mark.parametrize("name", SEPARATE_SUITES)
def test_pass_matches_the_suite_computed_on_its_own(battery, name):
    results, _ = battery
    worst, bound, detail = SEPARATE_SUITES[name]()
    got = results[name]
    assert (got.worst, got.bound, got.detail) == (worst, bound, detail)
    assert got.passed


def test_battery_work_is_counted(battery):
    _, counts = battery
    assert counts == {"chebyshev": BATTERY_CHEBYSHEV_RUNS,
                      "factorizations": BATTERY_FACTORIZATIONS,
                      "applications": BATTERY_GENERATOR_APPLICATIONS}


def test_one_suite_alone_reads_the_same_pass(battery):
    results, _ = battery
    (alone,) = run_suites("taylor-dense")
    assert alone.name == "taylor-dense-agreement"
    assert alone.worst == results[alone.name].worst


def test_pass_is_not_kept_between_runs(battery, monkeypatch):
    # "taylor" selects exactly the series suites, each run making its pass.
    assert select_suites("taylor") == list(SERIES_SUITES)
    results, _ = battery
    monkeypatch.setattr(propagate, "CHEB_TAIL_TOL", 1e-7)
    for r in run_suites("taylor"):
        assert r.worst > 1e-9, r.name
    monkeypatch.undo()
    for r in run_suites("taylor"):
        assert r.worst == results[r.name].worst, r.name


def test_complexity_suite_records_its_work(battery):
    results, _ = battery
    detail = results["filter-complexity-scaling"].detail
    assert "; Chebyshev terms 1000:" in detail
    assert "; generator entries 1000:3000, 8000:24000, 64000:192000" in detail
