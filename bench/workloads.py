"""The benchmark workloads: CLI commands, their inputs and output checks.

Each workload runs ``schro-gsp`` commands back to back.  For each command,
``prepare`` writes whatever inputs it needs into the run's work directory,
``argv`` gives the command line, and ``check`` reads the command's output
directory and returns ``(problems, margin_dec, note)``: a list of failed
checks (empty when the output is correct), the smallest distance in decades
between a numeric check's value and its threshold, and a line for the log.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

# diagnose-large geometry: a random geometric graph in the unit square.
DIAG_NODES = 100_000
DIAG_MEAN_DEGREE = 10.0
DIAG_WINDOWS = 4
# One channel, two short terms; times keep every term to a few sub-steps.
DIAG_TERMS = (
    {"time": 0.015, "phase": 0.8, "direction": [1.0, 0.0], "mix": [[[1.0, 0.0]]]},
    {"time": 0.025, "phase": -0.5, "direction": [0.6, 0.8], "mix": [[[0.5, 0.5]]]},
)
# Allowed disagreement between the CLI's window statistics and the
# independent expm_multiply oracle, in units of the coordinate's spread.
DIAG_ORACLE_TOL = 1e-9


def _decades(value: float, threshold: float, upper: bool) -> float:
    """Headroom in decades of ``value`` below (upper) or above a threshold.

    An exact zero counts as the smallest positive double, so the result
    stays finite and can be written as JSON."""
    value = max(abs(value), sys.float_info.min)
    return math.log10(threshold / value) if upper else math.log10(value / threshold)


def _summary(out: str) -> dict:
    with open(os.path.join(out, "summary.json"), encoding="ascii") as fh:
        return json.load(fh)


def _failed_assertions(summary: dict) -> list[str]:
    return [name for name, entry in sorted(summary["assertions"].items())
            if not entry["passed"]]


# ---------------------------------------------------------------------------
# verify-battery
# ---------------------------------------------------------------------------

# A wall-clock suite: its value is a timing ratio, not an accuracy.
TIMING_SUITE = "filter-complexity-scaling"


def check_verify(out: str, ctx: dict):
    summary = _summary(out)
    suites = summary["metrics"]["suites"]
    problems = [f"suite {s['name']}" for s in suites if not s["passed"]]
    if not summary["passed"] and not problems:
        problems = _failed_assertions(summary)
    margins = [_decades(s["worst"], s["bound"], upper=True) for s in suites
               if s["worst"] > 0 and s["bound"] > 0 and s["name"] != TIMING_SUITE]
    timing = next(s for s in suites if s["name"] == TIMING_SUITE)
    note = (f"{TIMING_SUITE}: per-octave ratio over linear {timing['worst']:.4f} "
            f"(bound {timing['bound']}); {timing['detail']}")
    return problems, min(margins), note


# ---------------------------------------------------------------------------
# ring-train
# ---------------------------------------------------------------------------


def check_ring(out: str, ctx: dict):
    summary = _summary(out)
    m = summary["metrics"]
    margins = [
        _decades(m["mse_ratio_plain"], 0.1, upper=True),
        _decades(m["mse_ratio_diffusion"], 0.1, upper=True),
        _decades(m["mean_shift_modulated"], 0.1, upper=False),
        _decades(m["mean_shift_diffusion"], 0.02, upper=True),
    ]
    return _failed_assertions(summary), min(margins), ""


# ---------------------------------------------------------------------------
# pmo-fit
# ---------------------------------------------------------------------------


# 600 of the default 800 iterations: the fit passes with 0.66 decades to spare
# (400 fails recovered_directions_orthogonal), and the shorter run keeps a
# full set of runs of all four workloads within its time budget.
PMO_CONFIG = {"grad_mode": "spectral-pair", "max_iters": 600}


def prepare_pmo(work: str, seed: int) -> dict:
    path = os.path.join(work, "pmo.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(PMO_CONFIG, fh)
    return {"config": path}


def check_pmo(out: str, ctx: dict):
    summary = _summary(out)
    m = summary["metrics"]
    # inputs_start_correlated tests the fixed input grid, not the fit.
    margins = [
        _decades(m["final_cosine"], 0.1, upper=True),
        _decades(1.0 - m["deficiency_reduction"], 0.1, upper=True),
    ]
    return _failed_assertions(summary), min(margins), ""


# ---------------------------------------------------------------------------
# diagnose-large
# ---------------------------------------------------------------------------


def diag_instance(seed: int):
    """Seeded random geometric graph, coordinate features and signal.

    Features are node coordinates in units of the connection radius, so every
    edge joins nodes at most one feature unit apart."""
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    pts = rng.random((DIAG_NODES, 2))
    radius = math.sqrt(DIAG_MEAN_DEGREE / (math.pi * DIAG_NODES))
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    u = pairs.min(axis=1)
    v = pairs.max(axis=1)
    order = np.lexsort((v, u))
    feats = pts / radius
    signal = rng.normal(size=DIAG_NODES) + 1j * rng.normal(size=DIAG_NODES)
    return u[order], v[order], feats, signal


def prepare_diagnose(work: str, seed: int) -> dict:
    instance = diag_instance(seed)
    u, v, feats, signal = instance
    paths = {name: os.path.join(work, name) for name in
             ("graph.tsv", "features.csv", "signal.csv", "filter.json", "diagnose.json")}
    with open(paths["graph.tsv"], "w", encoding="ascii") as fh:
        fh.write(f"#nodes={DIAG_NODES}\n")
        fh.writelines(f"{a}\t{b}\t1.0\n" for a, b in zip(u.tolist(), v.tolist()))
    with open(paths["features.csv"], "w", encoding="ascii") as fh:
        fh.writelines(f"{x!r},{y!r}\n" for x, y in feats.tolist())
    with open(paths["signal.csv"], "w", encoding="ascii") as fh:
        fh.write("channels=1\n")
        fh.writelines(f"{z.real!r},{z.imag!r}\n" for z in signal.tolist())
    with open(paths["filter.json"], "w", encoding="ascii") as fh:
        json.dump({"terms": list(DIAG_TERMS)}, fh)
    with open(paths["diagnose.json"], "w", encoding="ascii") as fh:
        json.dump({"filter_params": paths["filter.json"], "graph": paths["graph.tsv"],
                   "features": paths["features.csv"], "signal": paths["signal.csv"],
                   "coordinate": 0, "n_windows": DIAG_WINDOWS}, fh)
    return {"config": paths["diagnose.json"], "instance": instance}


def _hat_windows(col: np.ndarray, n_bins: int) -> np.ndarray:
    """Triangular hats at quantile centers, clamped flat at both ends."""
    centers = np.quantile(col, (np.arange(n_bins) + 0.5) / n_bins)
    weights = np.zeros((n_bins, col.size))
    for b, c in enumerate(centers):
        w = np.zeros(col.size)
        if b > 0:
            left = centers[b - 1]
            rise = (col > left) & (col <= c)
            w[rise] = (col[rise] - left) / (c - left)
        else:
            w[col <= c] = 1.0
        if b < n_bins - 1:
            right = centers[b + 1]
            fall = (col > c) & (col < right)
            w[fall] = (right - col[fall]) / (right - c)
        else:
            w[col > c] = 1.0
        weights[b] = w
    return weights


def diag_oracle(instance) -> tuple[list[tuple[float, float]], float]:
    """Per-window (post_mean, post_variance) from an independent route, and
    the spread of the windowed coordinate.

    Assembles the generator -sum_k G_k^2 directly from the edge list and
    propagates with scipy's expm_multiply instead of the
    library's truncated series."""
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    u, v, feats, signal = instance
    n = DIAG_NODES
    lap = None
    for k in range(feats.shape[1]):
        d = feats[u, k] - feats[v, k]
        grad = sparse.csr_matrix((np.concatenate([d, -d]), (np.concatenate([u, v]),
                                  np.concatenate([v, u]))), shape=(n, n))
        sq = grad @ grad
        lap = -sq if lap is None else lap - sq
    col = feats[:, 0]
    weights = _hat_windows(col, DIAG_WINDOWS)
    batch = np.sqrt(weights).T * signal[:, None]
    batch /= np.linalg.norm(batch, axis=0)
    out = np.zeros_like(batch)
    for term in DIAG_TERMS:
        direction = feats @ np.asarray(term["direction"])
        modulated = np.exp(1j * term["phase"] * direction)[:, None] * batch
        (re, im), = term["mix"][0]
        out += complex(re, im) * expm_multiply(-1j * term["time"] * lap, modulated)
    stats = []
    for b in range(DIAG_WINDOWS):
        p = np.abs(out[:, b]) ** 2
        p /= p.sum()
        mean = float(np.dot(col, p))
        stats.append((mean, float(np.dot((col - mean) ** 2, p))))
    return stats, float(col.std())


def check_diagnose(out: str, ctx: dict):
    summary = _summary(out)
    m = summary["metrics"]
    problems = _failed_assertions(summary)
    if m["n_missing"] != 0:
        problems.append(f"n_missing = {m['n_missing']}")
    if m["mean_shift"] is None or not math.isfinite(m["mean_shift"]):
        problems.append(f"mean_shift = {m['mean_shift']}")
    if "oracle" not in ctx:
        ctx["oracle"] = diag_oracle(ctx["instance"])
    with open(os.path.join(out, "shifts.csv"), encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != DIAG_WINDOWS:
        problems.append(f"{len(rows)} window rows, expected {DIAG_WINDOWS}")
        return problems, 0.0, ""
    stats, spread = ctx["oracle"]
    err = 0.0
    for row, (mean, var) in zip(rows, stats):
        err = max(err, abs(float(row["post_mean"]) - mean) / spread,
                  abs(float(row["post_variance"]) - var) / spread ** 2)
    if not err <= DIAG_ORACLE_TOL:
        problems.append(f"window statistics differ from the oracle by {err:.3e}")
    note = f"max deviation from the expm_multiply oracle {err:.3e} (tol {DIAG_ORACLE_TOL})"
    return problems, _decades(err, DIAG_ORACLE_TOL, upper=True), note


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload, with its inputs and output checks."""

    name: str
    argv: Callable[[dict, int, str], list]
    check: Callable[[str, dict], tuple]
    prepare: Callable[[str, int], dict] = lambda work, seed: {}


VERIFY = Command("verify", lambda ctx, seed, out: ["verify", "--out", out], check_verify)
RING = Command("ring", lambda ctx, seed, out: ["ring", "--seed", str(seed), "--out", out],
               check_ring)
PMO = Command("pmo-grid", lambda ctx, seed, out: ["pmo-grid", "--config", ctx["config"],
                                                  "--seed", str(seed), "--out", out],
              check_pmo, prepare_pmo)
DIAGNOSE = Command("diagnose", lambda ctx, seed, out: ["diagnose", "--config", ctx["config"],
                                                       "--out", out],
                   check_diagnose, prepare_diagnose)


@dataclass(frozen=True)
class Workload:
    """Commands run back to back, one child process each; one execution of
    the workload is one pass through all of them."""

    name: str
    why: str
    commands: tuple[Command, ...]


# Two workloads of about 40 s each.  A run of one 15-30 s command showed a
# 13-27% quartile spread on the reference host, whose speed drifts over
# minutes; pairing the commands doubles the time each run averages over and
# halves the number of spreads that must stay within their bounds.
WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-ring",
        "all 35 verify suites (661k generator applications on tiny graphs) then "
        "ring training (dense eigenbasis propagation, no generator or norm work)",
        (VERIFY, RING),
    ),
    Workload(
        "pmo-diagnose",
        "grid PMO fit (power-iteration norms) then the window diagnostic on a "
        "100k-node, 500k-edge graph (file loading, one large sparse generator)",
        (PMO, DIAGNOSE),
    ),
)}
