"""Top-level acceptance gate.

Each test covers one headline guarantee of the package and prints a single
pass/fail line with the measured quantities, so a plain ``pytest -v`` run of
this file reads as a checklist.  The verification suites are executed once
per session (the ``battery`` fixture in ``conftest.py``, which
``test_verify.py`` reads too) and shared across criteria; the three full
experiments run at their default configurations.
"""

import time

import pytest

from schro_gsp.experiments import run_cluster_sweep, run_grid_pmo
from schro_gsp.ring_task import run_ring_task


def _line(criterion: str, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}: {detail}")


@pytest.fixture
def suites(battery):
    return battery.results, battery.seconds


def _check_suites(criterion, suites, names):
    picked = [suites[n] for n in names]
    passed = all(r.passed for r in picked)
    detail = "; ".join(
        f"{r.name} worst {r.worst:.3e} (bound {r.bound:.3e})" for r in picked
    )
    _line(criterion, passed, detail)
    assert passed, detail


class TestAcceptance:
    def test_criterion_01_propagation_is_unitary(self, suites):
        table, _ = suites
        names = ("unitarity-dense", "unitarity-taylor")
        runtime = sum(table[n].seconds for n in names)
        _check_suites("criterion-01 unitarity", table, names)
        assert runtime < 30.0, f"unitarity suites took {runtime:.1f}s"

    def test_criterion_02_momentum_is_conserved(self, suites):
        table, _ = suites
        _check_suites("criterion-02 momentum conservation", table,
                      ("momentum-conservation",))

    def test_criterion_03_location_dynamics_match_derivatives(self, suites):
        table, _ = suites
        _check_suites(
            "criterion-03 observable dynamics", table,
            ("location-dynamics-vs-fd", "multi-feature-dynamics-vs-fd",
             "variance-dynamics-vs-fd"))

    def test_criterion_04_modulation_injects_momentum(self, suites):
        table, _ = suites
        _check_suites("criterion-04 modulated momentum", table,
                      ("modulated-momentum", "real-signal-momentum"))

    def test_criterion_05_commutator_identities_hold(self, suites):
        table, _ = suites
        _check_suites(
            "criterion-05 commutator identities", table,
            ("smoothing-equals-commutator", "generator-location-commutator"))

    def test_criterion_06_routing_measure_decomposes(self, suites):
        table, _ = suites
        _check_suites("criterion-06 routing decomposition", table,
                      ("routing-decomposition",))

    def test_criterion_07_transport_bound_holds(self, suites):
        table, _ = suites
        _check_suites(
            "criterion-07 regularity transport bound", table,
            ("regularity-transport-bound", "multi-regularity-transport-bound"))

    def test_criterion_08_mixed_derivative_matches_fd(self, suites):
        table, _ = suites
        _check_suites("criterion-08 mixed derivative", table,
                      ("mixed-derivative-vs-fd",))

    def test_criterion_09_sensitivity_probe_is_calibrated(self, suites):
        table, _ = suites
        _check_suites("criterion-09 sensitivity probe", table,
                      ("sensitivity-probe-linear",))

    def test_criterion_10_cluster_sweep_routes_mass(self):
        start = time.perf_counter()
        result = run_cluster_sweep()
        elapsed = time.perf_counter() - start
        ok = (-1.1 <= result.e_initial <= -0.9
              and result.improved and result.moved_toward_target)
        detail = (f"e_initial {result.e_initial:.4f}, "
                  f"p_best {result.p_best:.4f} < p_zero {result.p_zero:.4f}, "
                  f"e_best {result.e_best:.4f} (target "
                  f"{result.config.target}), {elapsed:.1f}s")
        _line("criterion-10 cluster sweep", ok, detail)
        assert -1.1 <= result.e_initial <= -0.9, detail
        assert result.improved, detail
        assert result.moved_toward_target, detail
        assert elapsed < 60.0, detail

    def test_criterion_11_grid_optimization_recovers_momentum_pair(self):
        start = time.perf_counter()
        result = run_grid_pmo()
        elapsed = time.perf_counter() - start
        reduction = result.deficiency_reduction
        ok = reduction >= 0.9 and abs(result.final_cosine) <= 0.1
        detail = (f"deficiency reduction {reduction:.4f}, cosine "
                  f"{result.initial_cosine:.4f} -> {result.final_cosine:.4f},"
                  f" {elapsed:.1f}s")
        _line("criterion-11 grid position-momentum pair", ok, detail)
        assert reduction >= 0.9, detail
        assert abs(result.final_cosine) <= 0.1, detail
        assert elapsed < 300.0, detail

    def test_criterion_12_ring_model_learns_transport(self):
        start = time.perf_counter()
        result = run_ring_task()
        elapsed = time.perf_counter() - start
        shift_mod = result.shift_reports["modulated"].mean_shift
        shift_dif = result.shift_reports["diffusion"].mean_shift
        ok = (result.mse_ratio_plain <= 0.1
              and result.mse_ratio_diffusion <= 0.1
              and shift_mod is not None and abs(shift_mod) > 0.1
              and shift_dif is not None and abs(shift_dif) < 0.02)
        detail = (f"mse ratios {result.mse_ratio_plain:.3e} / "
                  f"{result.mse_ratio_diffusion:.3e}, shifts "
                  f"{shift_mod} / {shift_dif}, {elapsed:.1f}s")
        _line("criterion-12 ring transport", ok, detail)
        assert result.mse_ratio_plain <= 0.1, detail
        assert result.mse_ratio_diffusion <= 0.1, detail
        assert shift_mod is not None and abs(shift_mod) > 0.1, detail
        assert shift_dif is not None and abs(shift_dif) < 0.02, detail
        assert elapsed < 600.0, detail

    def test_criterion_13_filter_cost_scales_linearly(self, suites):
        table, _ = suites
        _check_suites("criterion-13 filter complexity", table,
                      ("filter-complexity-scaling",))

    def test_criterion_14_full_verification_suite_passes(self, suites):
        table, elapsed = suites
        failed = sorted(n for n, r in table.items() if not r.passed)
        ok = not failed and elapsed < 300.0
        detail = f"{len(table)} suites in {elapsed:.1f}s"
        if failed:
            detail += f"; failed: {', '.join(failed)}"
        _line("criterion-14 full verification", ok, detail)
        assert not failed, detail
        assert elapsed < 300.0, detail
