"""Benchmark of the ``schro-gsp`` CLI, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One execution of a workload runs
its CLI commands back to back, each in a fresh child process
(``bench/launch.py``) with BLAS pinned to one thread.  One client runs one
command at a time (closed loop).

``--trace 0`` launches ``PROBES`` import-only children, then repeats the
execution while the next one is expected to end within ``--seconds`` (at
least once), and prints the end-to-end metrics as medians.  ``--trace 1`` makes one plain execution and one traced
execution and prints the per-layer metrics.  Every execution's outputs are
checked; the last stdout line is the JSON result, the log goes to stderr,
and the full record (host, samples, notes) is written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "launch.py")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)

from tracer import COUNTS, HOT, NAME, PARENT, START, END, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Import-only launches per timed run, for a steady set-up median.
PROBES = 3
# A run stops launching executions once this much time has gone by.
RUN_BUDGET_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
    "check_margin_dec": "dec",
}

VERIFY_SUITES = (
    "unitarity-taylor", "evolution-inversion-taylor", "taylor-dense-agreement",
    "sensitivity-probe-linear", "pmo-monotone-fit", "filter-linearity",
    "filter-complexity-scaling",
)

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "operators.gen_apply.calls": "count",
    "operators.gen_apply.vectors": "count",
    "operators.gen_apply.s": "s",
    "propagate.evolve.calls": "count",
    "propagate.evolve.self_s": "s",
    "propagate.dense_factor.calls": "count",
    "propagate.dense_factor.s": "s",
    "propagate.dense_apply.calls": "count",
    "propagate.dense_apply.s": "s",
    "operators.norm.calls": "count",
    "operators.norm.iters": "count",
    "operators.norm.nonconverged": "count",
    "operators.norm.s": "s",
    "operators.infnorm.calls": "count",
    "operators.infnorm.s": "s",
    "operators.build.calls": "count",
    "operators.build.s": "s",
    "graph_core.load.s": "s",
    "graph_core.graph.calls": "count",
    "graph_core.graph.s": "s",
    "filters.filter.calls": "count",
    "filters.terms": "count",
    "filters.filter.self_s": "s",
    "pmo.fit.calls": "count",
    "pmo.self_s": "s",
    "ring_task.fit.calls": "count",
    "ring_task.self_s": "s",
    "diagnose.windows.s": "s",
    "diagnose.shift.windows": "count",
    "diagnose.shift.self_s": "s",
    "observe.calls": "count",
    "observe.self_s": "s",
    "experiments.self_s": "s",
    "cli.self_s": "s",
    **{f"verify.suite.{name}.s": "s" for name in VERIFY_SUITES},
    "verify.self_s": "s",
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed_frac": "frac",
}

# Counts that must repeat exactly between two traced runs of one commit.
EXACT_COUNTS = (
    "operators.gen_apply.calls", "operators.norm.iters", "operators.norm.nonconverged",
    "propagate.dense_factor.calls", "filters.terms", "diagnose.shift.windows",
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def launch(report: str, argv=(), log=None, probe=False, trace=False, limit=RUN_BUDGET_S):
    """Run the launcher once and wait for it; returns its timings and report."""
    cmd = [sys.executable, "-I", LAUNCHER, "--root", ROOT, "--report", report]
    cmd += (["--probe"] if probe else []) + (["--trace"] if trace else [])
    cmd += ["--", *argv]
    with open(log or os.devnull, "w", encoding="utf-8") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(limit, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(report, encoding="ascii") as fh:
            rep = json.load(fh)
    except (OSError, ValueError):
        rep = {}
    return {
        "exit_code": proc.returncode,
        "wall_s": end - start,
        "setup_s": rep["ready"] - start if "ready" in rep else None,
        "peak_rss_mb": (rep.get("peak_rss_kb") or usage.ru_maxrss) / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "report": rep,
    }


def execute(workload, ctxs: dict, seed: int, work: str, tag: str, deadline: float,
            trace: bool = False) -> dict:
    """One execution: each command of the workload in turn, then its checks.

    ``wall_s`` and ``cpu_s`` add up over the commands' processes,
    ``peak_rss_mb`` is the largest of them and ``margin_dec`` the smallest."""
    steps = []
    for cmd in workload.commands:
        name = f"{tag}-{cmd.name}"
        out = os.path.join(work, f"out-{name}")
        step = launch(os.path.join(work, f"report-{name}.json"),
                      cmd.argv(ctxs[cmd.name], seed, out),
                      log=os.path.join(work, f"log-{name}.txt"), trace=trace,
                      limit=deadline - time.monotonic())
        problems, margin, note = [], None, ""
        if step["exit_code"] != 0:
            problems.append(f"exit code {step['exit_code']}")
        try:
            found, margin, note = cmd.check(out, ctxs[cmd.name])
            problems += found
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"output unreadable: {exc!r}")
        step.update(command=cmd.name, problems=problems, margin_dec=margin, note=note)
        print(f"[{workload.name} {name}] exit {step['exit_code']} wall {step['wall_s']:.3f}s "
              f"setup {step['setup_s']} rss {step['peak_rss_mb']:.1f}MB margin {margin} "
              f"{'OK' if not problems else 'FAILED: ' + '; '.join(problems)}", file=sys.stderr)
        if note:
            print(f"[{workload.name} {name}] {note}", file=sys.stderr)
        steps.append(step)
    margins = [st["margin_dec"] for st in steps]
    return {
        "wall_s": sum(st["wall_s"] for st in steps),
        "cpu_s": sum(st["cpu_s"] for st in steps),
        "peak_rss_mb": max(st["peak_rss_mb"] for st in steps),
        "setups": [st["setup_s"] for st in steps if st["setup_s"] is not None],
        "margin_dec": None if None in margins else min(margins),
        "problems": [f"{st['command']}: {p}" for st in steps for p in st["problems"]],
        "notes": [f"{st['command']}: {st['note']}" for st in steps if st["note"]],
        "steps": [{k: st[k] for k in ("command", "wall_s", "setup_s", "peak_rss_mb",
                                      "cpu_s", "margin_dec")} for st in steps],
        "reports": [st["report"] for st in steps],
    }


def timed_run(workload, ctxs, seed, seconds, work, deadline):
    probes = [launch(os.path.join(work, f"probe-{i}.json"), probe=True,
                     limit=deadline - time.monotonic())
              for i in range(PROBES)]
    runs = []
    start = time.monotonic()
    # Start another execution only if it is expected to end within the run.
    while not runs or (time.monotonic() - start + runs[-1]["wall_s"] <= seconds
                       and time.monotonic() + runs[-1]["wall_s"] < deadline):
        runs.append(execute(workload, ctxs, seed, work, f"run{len(runs)}", deadline))
    passed = [r for r in runs if not r["problems"]]
    setups = [p["setup_s"] for p in probes if p["setup_s"] is not None]
    setups += [t for r in runs for t in r["setups"]]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "pass_frac": len(passed) / len(runs),
        "check_margin_dec": statistics.median(r["margin_dec"] for r in passed)
        if passed else 0.0,
    }
    samples = {"executions": len(runs), "setup_samples": len(setups)}
    return runs, values, END_TO_END, samples


def layer_metrics(trace: dict) -> tuple[dict, float]:
    """Per-layer metrics from one traced execution's spans, and the seconds
    attributed to layers other than ``cli.main`` itself."""
    spans = trace["spans"]
    selfs = self_times(spans)
    calls, incl, self_s = {}, {}, {}
    for span, own in zip(spans, selfs):
        name = span[NAME]
        self_s[name] = self_s.get(name, 0.0) + own
        parent = span[PARENT]
        if parent is None or spans[parent][NAME] != name:
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + span[END] - span[START]
    hot, counts = {}, dict(trace["root_counts"])
    for bucket in [s[HOT] for s in spans if s[HOT]] + [trace["root_hot"]]:
        for name, (n, secs, vecs) in bucket.items():
            total = hot.setdefault(name, [0, 0.0, 0])
            total[0] += n
            total[1] += secs
            total[2] += vecs
    for span in spans:
        for key, amount in (span[COUNTS] or {}).items():
            counts[key] = counts.get(key, 0) + amount

    def group(prefix):
        return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "."))

    gen = hot.get("operators.gen_apply", [0, 0.0, 0])
    dense = hot.get("propagate.dense_apply", [0, 0.0, 0])
    out = {
        "operators.gen_apply.calls": gen[0],
        "operators.gen_apply.vectors": gen[2],
        "operators.gen_apply.s": gen[1],
        "propagate.evolve.calls": calls.get("propagate.evolve", 0),
        "propagate.evolve.self_s": self_s.get("propagate.evolve", 0.0),
        "propagate.dense_factor.calls": calls.get("propagate.dense_factor", 0),
        "propagate.dense_factor.s": incl.get("propagate.dense_factor", 0.0),
        "propagate.dense_apply.calls": dense[0],
        "propagate.dense_apply.s": dense[1],
        "operators.norm.calls": calls.get("operators.norm", 0),
        "operators.norm.iters": counts.get("operators.norm.iters", 0),
        "operators.norm.nonconverged": counts.get("operators.norm.nonconverged", 0),
        "operators.norm.s": incl.get("operators.norm", 0.0),
        "operators.infnorm.calls": calls.get("operators.infnorm", 0),
        "operators.infnorm.s": incl.get("operators.infnorm", 0.0),
        "operators.build.calls": calls.get("operators.build", 0),
        "operators.build.s": incl.get("operators.build", 0.0),
        "graph_core.load.s": incl.get("graph_core.load", 0.0),
        "graph_core.graph.calls": calls.get("graph_core.graph", 0),
        "graph_core.graph.s": incl.get("graph_core.graph", 0.0),
        "filters.filter.calls": calls.get("filters.filter", 0),
        "filters.terms": counts.get("filters.terms", 0),
        "filters.filter.self_s": self_s.get("filters.filter", 0.0),
        "pmo.fit.calls": calls.get("pmo.fit", 0),
        "pmo.self_s": group("pmo"),
        "ring_task.fit.calls": calls.get("ring_task.fit", 0),
        "ring_task.self_s": group("ring_task"),
        "diagnose.windows.s": incl.get("diagnose.windows", 0.0),
        "diagnose.shift.windows": counts.get("diagnose.shift.windows", 0),
        "diagnose.shift.self_s": self_s.get("diagnose.shift", 0.0),
        "observe.calls": calls.get("observe", 0),
        "observe.self_s": self_s.get("observe", 0.0),
        "experiments.self_s": self_s.get("experiments", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "verify.self_s": group("verify.suite"),
    }
    for name in VERIFY_SUITES:
        out[f"verify.suite.{name}.s"] = incl.get(f"verify.suite.{name}", 0.0)
    attributed = sum(v for k, v in self_s.items() if k != "cli") + sum(
        h[1] for h in hot.values())
    return out, attributed


def traced_run(workload, ctxs, seed, work, deadline):
    plain = execute(workload, ctxs, seed, work, "plain", deadline)
    traced = execute(workload, ctxs, seed, work, "traced", deadline, trace=True)
    values = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    attributed = 0.0
    for report in traced["reports"]:
        if "trace" not in report:
            traced["problems"].append("a traced command wrote no spans")
            continue
        layers, seconds = layer_metrics(report["trace"])
        for name, value in layers.items():
            values[name] += value
        attributed += seconds
        if report.get("untraced"):
            note = f"not in the library, so not traced: {', '.join(report['untraced'])}"
            traced["notes"].append(note)
            print(f"[{workload.name} traced] {note}", file=sys.stderr)
    values["trace.attributed_frac"] = attributed / traced["wall_s"]
    values["proc.cpu_s"] = plain["cpu_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return [plain, traced], values, PER_LAYER, {"executions": 2}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def host_info(runs) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = {rep.get("blas_threads") for r in runs for rep in r["reports"]}
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": sorted(threads, key=str),
        "blas_env": {k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "schro_gsp", "cli.py")):
        print(f"error: no schro_gsp sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        prep_start = time.monotonic()
        ctxs = {cmd.name: cmd.prepare(work, args.seed) for cmd in workload.commands}
        print(f"[{workload.name}] inputs prepared in {time.monotonic() - prep_start:.2f}s",
              file=sys.stderr)
        if args.trace:
            runs, values, units, samples = traced_run(workload, ctxs, args.seed, work, deadline)
        else:
            runs, values, units, samples = timed_run(
                workload, ctxs, args.seed, args.seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in runs if r["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  samples=samples, host=host_info(runs),
                  executions=[r["steps"] for r in runs],
                  problems=[p for r in runs for p in r["problems"]],
                  notes=sorted({n for r in runs for n in r["notes"]}))
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: record[k] for k in ("samples", "host")}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
