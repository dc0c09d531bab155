"""The ``verify`` battery: registry, the shared propagation pass, and its work.

The five propagation suites read one pass over their instance family.  The
reference below recomputes each of them on its own, with a fresh draw and
its own builds and propagations, as separate suites would; the pass must
give the same numbers bit for bit, do less work, and keep nothing beyond
the run that made it.
"""

import numpy as np
import pytest

from schro_gsp import propagate, verify
from schro_gsp.operators import schrodinger_laplacian
from schro_gsp.propagate import DensePropagator, evolve
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
        before = float(np.linalg.norm(vec))
        after = float(np.linalg.norm(DensePropagator(lap).apply(t, vec)))
        worst = max(worst, abs(after - before) / before)
    return worst, 1e-10, "norm drift, factorized propagation, 100 instances"


def _unitarity_taylor():
    worst = 0.0
    for g, f, t, vec in _propagation_family():
        lap = schrodinger_laplacian(g, f)
        before = float(np.linalg.norm(vec))
        after = float(np.linalg.norm(evolve(lap, t, vec)))
        worst = max(worst, abs(after - before) / before)
    return worst, 1e-6, "norm drift, Chebyshev propagation, 100 instances"


def _taylor_dense_agreement():
    worst = 0.0
    for g, f, t, vec in _propagation_family(50):
        lap = schrodinger_laplacian(g, f)
        approx = evolve(lap, t, vec)
        exact = DensePropagator(lap).apply(t, vec)
        worst = max(worst, float(np.abs(approx - exact).max()))
    return worst, 1e-6, "per-entry gap between Chebyshev and factorized paths"


def _evolution_inversion_taylor():
    worst = 0.0
    for g, f, t, vec in _propagation_family(50):
        lap = schrodinger_laplacian(g, f)
        back = evolve(lap, -t, evolve(lap, t, vec))
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


def test_registry_keeps_its_names_and_order():
    assert select_suites() == SUITE_NAMES


@pytest.mark.parametrize("count, offset", [(9, 0.0), (9, -10.0), (1, 0.0)])
def test_worst_over_takes_the_largest_of_count_draws(monkeypatch, count, offset):
    # Each instance takes a varying number of draws, so only instances drawn
    # in turn from one generator give the hand-written loop's values; the
    # negative offset makes every residual negative, as in the regularity
    # suites.
    def check(rng):
        return float(rng.uniform(size=int(rng.integers(1, 4))).max()) + offset

    monkeypatch.setattr(verify, "_REGISTRY", {})
    verify._worst_over("throwaway", 5, count, -9.5, "a throwaway check")(check)
    got = verify.run_suite("throwaway")
    rng = np.random.default_rng(5)
    drawn = []
    for _ in range(count):
        drawn.append(check(rng))
    assert offset == 0.0 or max(drawn) < 0.0
    assert got.worst == max(drawn)
    assert (got.bound, got.detail) == (-9.5, "a throwaway check")
    assert got.passed == (max(drawn) <= -9.5)


@pytest.mark.parametrize("residuals", [[0.1, np.nan, 0.2], [np.nan, 0.1, 0.2],
                                       [0.1, 0.2, np.nan]])
def test_worst_over_fails_on_a_nan_residual(monkeypatch, residuals):
    # Python's max keeps its running value when the next one is NaN.
    values = iter(residuals)
    monkeypatch.setattr(verify, "_REGISTRY", {})
    verify._worst_over("throwaway", 5, 3, 1.0, "a throwaway check")(
        lambda rng: next(values))
    got = verify.run_suite("throwaway")
    assert np.isnan(got.worst)
    assert not got.passed


def test_run_suites_yields_each_result_before_the_next_suite_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "_REGISTRY", {})
    for name in ("first", "second"):
        verify._suite(name)(lambda name=name: ran.append(name) or (0.0, 1.0, name))
    results = run_suites()
    assert ran == []
    assert next(results).name == "first" and ran == ["first"]
    assert next(results).name == "second" and ran == ["first", "second"]


@pytest.mark.parametrize("name", SEPARATE_SUITES)
def test_pass_matches_the_suite_computed_on_its_own(battery, name):
    results = battery.results
    worst, bound, detail = SEPARATE_SUITES[name]()
    got = results[name]
    assert (got.worst, got.bound, got.detail) == (worst, bound, detail)
    assert got.passed


def test_battery_work_is_counted(battery):
    assert battery.counts == {"chebyshev": BATTERY_CHEBYSHEV_RUNS,
                      "factorizations": BATTERY_FACTORIZATIONS,
                      "applications": BATTERY_GENERATOR_APPLICATIONS}


def test_one_suite_alone_reads_the_same_pass(battery):
    results = battery.results
    (alone,) = run_suites("taylor-dense")
    assert alone.name == "taylor-dense-agreement"
    assert alone.worst == results[alone.name].worst


def test_pass_is_not_kept_between_runs(battery, monkeypatch):
    # "taylor" selects exactly the series suites, each run making its pass.
    assert select_suites("taylor") == list(SERIES_SUITES)
    results = battery.results
    monkeypatch.setattr(propagate, "CHEB_TAIL_TOL", 1e-7)
    for r in run_suites("taylor"):
        assert r.worst > 1e-9, r.name
    monkeypatch.undo()
    for r in run_suites("taylor"):
        assert r.worst == results[r.name].worst, r.name


def test_complexity_suite_records_its_work(battery):
    results = battery.results
    detail = results["filter-complexity-scaling"].detail
    assert "; Chebyshev terms 1000:" in detail
    assert "; generator entries 1000:3000, 8000:24000, 64000:192000" in detail
