"""Command-line entry point: verification suites and desk-scale experiments.

Every command reads an optional JSON config (unknown keys rejected, ranges
validated before any computation), writes ``summary.json`` plus plot-ready
CSV tables into the output directory, and prints one pass/fail line per
check.  All file I/O of the package's experiment layer lives here.

Outputs are byte-identical across runs for a fixed seed: floats are written
with ``repr``, JSON keys are sorted, CSV columns have fixed order, and
wall-clock timings stay on stdout instead of entering artifact files.  The
one exception is the complexity benchmark inside ``verify``, whose recorded
residual is itself a timing measurement.

Exit codes: 0 success, 1 a documented assertion failed, 2 usage or config
error, 3 numerical failure (divergence, lost precision).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .diagnose import build_windows, relative_shift
from .errors import (
    ContractError,
    DivergedError,
    FormatError,
    NumericalError,
    SchroGspError,
    check_config_fields,
)
from .experiments import (
    ClusterSweepConfig,
    ClusterSweepRow,
    GridPMOConfig,
    grid_graph,
    run_cluster_sweep,
    run_grid_pmo,
)
from .filters import load_filter_params, schrodinger_filter
from .graph_core import (
    PINNED_CLUSTER_SEED,
    bandwidth_order,
    load_features,
    load_graph,
    load_signal,
)
from .operators import schrodinger_laplacian
from .ring_task import RingTaskConfig, run_ring_task
from .verify import run_suite, select_suites

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    filter: str | None = None

    def __post_init__(self):
        check_config_fields(self)


@dataclass(frozen=True)
class DiagnoseConfig:
    filter_params: str = ""
    graph: str = ""
    features: str = ""
    signal: str = ""
    coordinate: int = 0
    n_windows: int = 4

    def __post_init__(self):
        check_config_fields(self)
        for name in ("filter_params", "graph", "features", "signal"):
            if not getattr(self, name):
                raise ContractError(f"diagnose config needs a {name!r} file path")
        if self.coordinate < 0:
            raise ContractError("window coordinate must be nonnegative")
        if self.n_windows < 2:
            raise ContractError("need at least 2 windows")


def _load_config(path: str | None, cls, overrides: dict):
    """Build a command config from a JSON file plus flag overrides.

    Every key must name a field of ``cls``; the config constructor checks
    each value's type and range, so nothing is computed from a bad config."""
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise ContractError(f"cannot read config file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise FormatError(f"config {path} must be a JSON object")
    allowed = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ContractError(
            f"unknown config keys: {', '.join(unknown)}; "
            f"allowed: {', '.join(allowed)}")
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return cls(**data)


# ---------------------------------------------------------------------------
# Deterministic writers.
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _report(out_dir: str, command: str, cfg, metrics: dict, checks) -> int:
    """Print per-check lines, write summary.json, map failures to exit 1."""
    assertions = {}
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assertions[name] = {"passed": bool(ok), "detail": detail}
    passed = all(entry["passed"] for entry in assertions.values())
    summary = {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "metrics": metrics,
        "assertions": assertions,
        "passed": passed,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(f"summary written to {os.path.join(out_dir, 'summary.json')}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    cfg = _load_config(args.config, VerifyConfig, {"filter": args.filter})
    names = select_suites(cfg.filter)
    results = []
    for name in names:
        result = run_suite(name)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(
            f"[{status}] {result.name}: worst {result.worst!r} vs bound "
            f"{result.bound!r} ({result.seconds:.2f}s) - {result.detail}")
    rows = [(r.name, r.passed, r.worst, r.bound, r.detail) for r in results]
    _write_csv(
        os.path.join(args.out, "suites.csv"),
        ("name", "passed", "worst", "bound", "detail"),
        rows,
    )
    failures = [r for r in results if not r.passed]
    if failures:
        _write_json(os.path.join(args.out, "failures.json"), {
            "command": "verify",
            "failures": [
                {"name": r.name, "worst": r.worst, "bound": r.bound,
                 "detail": r.detail}
                for r in failures
            ],
        })
    checks = [(
        "all_suites_pass",
        not failures,
        f"{len(results) - len(failures)} of {len(results)} suites passed",
    )]
    metrics = {
        "suites": [
            {"name": r.name, "passed": r.passed, "worst": r.worst,
             "bound": r.bound, "detail": r.detail}
            for r in results
        ],
    }
    return _report(args.out, "verify", cfg, metrics, checks)


def cmd_clusters(args) -> int:
    cfg = _load_config(args.config, ClusterSweepConfig, {"seed": args.seed})
    result = run_cluster_sweep(cfg)
    _write_csv(
        os.path.join(args.out, "sweep.csv"),
        ClusterSweepRow.FIELDS,
        [row.astuple() for row in result.rows],
    )
    zero_gap = abs(result.e_zero - result.e_free)
    both = any(
        row.p_final < result.p_zero
        and abs(cfg.target - row.e_final) < abs(cfg.target - result.e_zero)
        for row in result.rows
    )
    checks = [
        (
            "routing_improves_at_optimum",
            result.improved,
            f"P({result.theta_best!r}) = {result.p_best!r} < "
            f"P(0) = {result.p_zero!r}",
        ),
        (
            "optimum_moves_mass_toward_target",
            result.moved_toward_target,
            f"E_X moved from {result.e_zero!r} to {result.e_best!r} "
            f"with target {cfg.target!r}",
        ),
        (
            "some_angle_improves_both",
            both,
            "an angle improves the routing measure and moves mass toward "
            "the target at the same time",
        ),
        (
            "zero_angle_matches_free_evolution",
            zero_gap <= 1e-9,
            f"|E_X(0) - E_X(free)| = {zero_gap!r} <= 1e-09",
        ),
    ]
    if cfg.seed == PINNED_CLUSTER_SEED:
        checks.append((
            "pinned_initial_mean_in_range",
            -1.1 <= result.e_initial <= -0.9,
            f"E_X(g0) = {result.e_initial!r} in [-1.1, -0.9]",
        ))
    return _report(args.out, "clusters", cfg, result.summary(), checks)


def cmd_ring(args) -> int:
    cfg = _load_config(args.config, RingTaskConfig, {"seed": args.seed})
    started = time.perf_counter()
    try:
        result = run_ring_task(cfg)
    except DivergedError as exc:
        dump = {"error": str(exc)}
        if exc.last_good is not None:
            params = exc.last_good.get("params")
            trace = exc.last_good.get("trace", [])
            if params is not None:
                dump["last_good_params"] = params.as_dict()
            dump["trace"] = [
                {"iteration": it, "train_mse": tr, "val_mse": va}
                for it, tr, va in trace
            ]
        _write_json(os.path.join(args.out, "divergence.json"), dump)
        print(f"error: {exc}", file=sys.stderr)
        print(f"trace dump written to {os.path.join(args.out, 'divergence.json')}",
              file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started

    curve_rows = []
    for kind in ("modulated", "plain", "diffusion"):
        for it, train, val in result.traces[kind]:
            curve_rows.append((kind, it, train, val))
    _write_csv(
        os.path.join(args.out, "learning_curves.csv"),
        ("kind", "iteration", "train_mse", "val_mse"),
        curve_rows,
    )

    shift_rows = []
    for kind in ("modulated", "diffusion"):
        for row in result.shift_reports[kind].csv_rows():
            shift_rows.append([kind] + list(row))
    _write_csv(
        os.path.join(args.out, "shifts.csv"),
        ("kind", "window_id", "coordinate", "shift", "pre_mean", "post_mean",
         "pre_variance", "post_variance"),
        shift_rows,
    )

    # Test row 0, with the outputs the fit already computed for it.
    x, y = result.dataset.test_x[0], result.dataset.test_y[0]
    preds = [result.test_pred[kind][0] for kind in ("modulated", "plain", "diffusion")]
    _write_csv(
        os.path.join(args.out, "predictions.csv"),
        ("node", "angle", "input", "target",
         "modulated", "plain", "diffusion"),
        [
            (n, result.angles[n], x[n], y[n], *(p[n] for p in preds))
            for n in range(cfg.n_nodes)
        ],
    )

    shift_mod = result.shift_reports["modulated"].mean_shift
    shift_dif = result.shift_reports["diffusion"].mean_shift
    abs_mod = None if shift_mod is None else abs(shift_mod)
    abs_dif = None if shift_dif is None else abs(shift_dif)
    checks = [
        (
            "modulated_beats_plain_tenfold",
            result.mse_ratio_plain <= 0.1,
            f"test MSE ratio {result.mse_ratio_plain!r} <= 0.1",
        ),
        (
            "modulated_beats_diffusion_tenfold",
            result.mse_ratio_diffusion <= 0.1,
            f"test MSE ratio {result.mse_ratio_diffusion!r} <= 0.1",
        ),
        (
            "trained_model_shifts_windows",
            abs_mod is not None and abs_mod > 0.1,
            f"|mean shift| = {abs_mod!r} > 0.1",
        ),
        (
            "diffusion_does_not_shift_windows",
            abs_dif is not None and abs_dif < 0.02,
            f"|mean shift| = {abs_dif!r} < 0.02",
        ),
    ]
    # Wall-clock stays on stdout; artifacts must be byte-stable across runs.
    print(f"fit all three models in {elapsed:.1f}s")
    return _report(args.out, "ring", cfg, result.summary(), checks)


def cmd_pmo_grid(args) -> int:
    cfg = _load_config(args.config, GridPMOConfig, {"seed": args.seed})
    result = run_grid_pmo(cfg)
    n = result.features.n_nodes
    raw = result.features.values
    _, q = grid_graph(cfg.side)
    _write_csv(
        os.path.join(args.out, "features.csv"),
        ("node", "input_0", "input_1", "recovered_0", "recovered_1"),
        [
            (v, q.values[v, 0], q.values[v, 1], raw[v, 0], raw[v, 1])
            for v in range(n)
        ],
    )
    _write_csv(
        os.path.join(args.out, "objective_trace.csv"),
        ("iteration", "objective"),
        list(result.fit.objective_trace),
    )
    checks = [
        (
            "inputs_start_correlated",
            result.initial_cosine > 0.5,
            f"centered cosine of inputs {result.initial_cosine!r} > 0.5",
        ),
        (
            "recovered_directions_orthogonal",
            abs(result.final_cosine) <= 0.1,
            f"|centered cosine| = {abs(result.final_cosine)!r} <= 0.1",
        ),
        (
            "deficiency_reduced_ninety_percent",
            result.deficiency_reduction >= 0.9,
            f"reduction {result.deficiency_reduction!r} >= 0.9",
        ),
    ]
    return _report(args.out, "pmo-grid", cfg, result.summary(), checks)


def cmd_diagnose(args) -> int:
    if args.config is None:
        raise ContractError("diagnose requires --config with the input paths")
    cfg = _load_config(args.config, DiagnoseConfig, {})
    params = load_filter_params(cfg.filter_params)
    # A file lists its nodes in any order, so a row of the generator can
    # read operand rows from anywhere in the block.  Relabeled by bandwidth,
    # neighbours sit at nearby rows and each sparse product stays in cache.
    # The file-order objects are not kept: they would be alive at the
    # generator's build peak.  Window statistics do not depend on the node
    # order, so nothing is mapped back.
    graph, feats, signal = bandwidth_order(
        load_graph(cfg.graph), load_features(cfg.features), load_signal(cfg.signal))
    if cfg.coordinate >= feats.n_features:
        raise ContractError(
            f"window coordinate {cfg.coordinate} out of range for "
            f"{feats.n_features} features")
    windows = build_windows(feats, cfg.coordinate, cfg.n_windows)
    lap = schrodinger_laplacian(graph, feats)

    def layer(stack):
        return schrodinger_filter(lap, feats, params, stack)

    report = relative_shift(layer, signal, feats, windows)
    _write_csv(
        os.path.join(args.out, "shifts.csv"),
        ("window_id", "coordinate", "shift", "pre_mean", "post_mean",
         "pre_variance", "post_variance"),
        report.csv_rows(),
    )
    missing = sum(1 for e in report.entries if e.missing)
    metrics = {
        "mean_shift": report.mean_shift,
        "n_windows": len(report.entries),
        "n_missing": missing,
    }
    checks = [(
        "diagnostic_computed",
        report.mean_shift is not None,
        f"mean shift {report.mean_shift!r} over "
        f"{len(report.entries) - missing} windows",
    )]
    return _report(args.out, "diagnose", cfg, metrics, checks)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schro-gsp",
        description="Verification suites and desk-scale experiments for "
                    "feature-derivative signal processing on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, seeded: bool):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, help="override the config seed")
        p.set_defaults(func=func)
        return p

    p_verify = add("verify", cmd_verify,
                   "run the numerical verification suites", seeded=False)
    p_verify.add_argument("--filter", help="only run suites whose name "
                                           "contains this substring")
    add("clusters", cmd_clusters,
        "modulation sweep routing mass between two clusters", seeded=True)
    add("ring", cmd_ring,
        "learn to transport bumps around a ring", seeded=True)
    add("pmo-grid", cmd_pmo_grid,
        "recover orthogonal feature directions on a grid", seeded=True)
    add("diagnose", cmd_diagnose,
        "windowed shift diagnostic for a saved filter", seeded=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except (ContractError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, DivergedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SchroGspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        name = exc.filename if exc.filename else "output path"
        print(f"error: i/o failure on {name}: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
