"""Child-process launcher: import the CLI from the checkout and run one command.

    python3 -I bench/launch.py --root DIR --report FILE [--probe] [--trace] -- ARGV...

``--probe`` only imports ``schro_gsp.cli`` and exits; the benchmark uses it
to time set-up.  ``--trace`` wraps the public functions of each layer before
the command runs (see ``install``).  In every mode the report file receives
the monotonic time at which the CLI was imported and ready, the CLI's exit
code and, when traced, the recorded spans.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, hot_wrapper, patch_everywhere, span_wrapper  # noqa: E402


def _suite_name(args, kwargs):
    return "verify.suite." + (args[0] if args else kwargs["name"])


def _norm_counts(tracer, args, kwargs, result):
    tracer.count("operators.norm.iters", int(result.iterations))
    tracer.count("operators.norm.nonconverged", 0 if result.converged else 1)


def _filter_counts(tracer, args, kwargs, result):
    params = args[2] if len(args) > 2 else kwargs["params"]
    tracer.count("filters.terms", params.n_terms)


def _shift_counts(tracer, args, kwargs, result):
    windows = args[3] if len(args) > 3 else kwargs["windows"]
    tracer.count("diagnose.shift.windows", windows.n_windows)


# Module-level functions traced as spans: (module, names, span name, counts).
SPANS = [
    ("schro_gsp.verify", ["run_suite"], _suite_name, None),
    ("schro_gsp.experiments", ["run_grid_pmo", "run_cluster_sweep", "grid_graph"],
     "experiments", None),
    ("schro_gsp.pmo", ["pmo_fit"], "pmo.fit", None),
    ("schro_gsp.pmo", ["pmo_objective"], "pmo.objective", None),
    ("schro_gsp.ring_task", ["fit_ring_model"], "ring_task.fit", None),
    ("schro_gsp.ring_task", ["run_ring_task", "make_dataset", "evaluate_model",
                             "predict_model"], "ring_task", None),
    ("schro_gsp.diagnose", ["build_windows"], "diagnose.windows", None),
    ("schro_gsp.diagnose", ["relative_shift"], "diagnose.shift", _shift_counts),
    ("schro_gsp.filters", ["schrodinger_filter"], "filters.filter", _filter_counts),
    ("schro_gsp.observe", ["mean", "variance", "observable_stats", "routing_measure",
                           "momentum_mean_modulated_closed_form", "dynamics_rhs_single",
                           "dynamics_rhs_multi", "variance_rhs", "epsilon_regularity",
                           "commuting_deficiency", "mixed_derivative_rhs",
                           "sensitivity_probe"], "observe", None),
    ("schro_gsp.propagate", ["evolve", "evolve_array"], "propagate.evolve", None),
    ("schro_gsp.operators", ["operator_norm"], "operators.norm", _norm_counts),
    ("schro_gsp.operators", ["infinity_norm"], "operators.infnorm", None),
    ("schro_gsp.operators", ["schrodinger_laplacian", "feature_derivative",
                             "momentum_observable", "smoothing_operator", "commutator"],
     "operators.build", None),
    ("schro_gsp.graph_core", ["load_graph", "load_features", "load_signal"],
     "graph_core.load", None),
]


# Methods traced on their class: (module, class, method, kind, name, operand).
METHODS = [
    ("schro_gsp.graph_core", "Graph", "__post_init__", "span", "graph_core.graph", None),
    ("schro_gsp.propagate", "DensePropagator", "__init__", "span", "propagate.dense_factor",
     None),
    ("schro_gsp.propagate", "DensePropagator", "apply", "hot", "propagate.dense_apply", 2),
    ("schro_gsp.operators", "SecondOrderGenerator", "apply", "hot", "operators.gen_apply", 1),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced layer; class methods are replaced on the class.

    Returns the names that no longer exist in the library; their layers read
    zero instead of failing the run."""
    import importlib

    missing = []
    for module_name, names, span_name, after in SPANS:
        module = importlib.import_module(module_name)
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                missing.append(f"{module_name}.{name}")
                continue
            patch_everywhere("schro_gsp", original,
                             span_wrapper(tracer, original, span_name, after))
    for module_name, cls_name, attr, kind, name, operand in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        original = getattr(cls, attr, None)
        if original is None:
            missing.append(f"{module_name}.{cls_name}.{attr}")
        elif kind == "hot":
            setattr(cls, attr, hot_wrapper(tracer, original, name, operand))
        else:
            setattr(cls, attr, span_wrapper(tracer, original, name))
    return missing


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    try:
        names = [n for n in os.listdir(libdir) if "openblas" in n]
    except OSError:
        return None
    for lib_name in names:
        lib = ctypes.CDLL(os.path.join(libdir, lib_name))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_kb() -> int | None:
    """This process's peak resident set since exec (``VmHWM``).

    ``ru_maxrss`` is not used: Linux carries the parent's resident set at
    fork over into the child's, so a large benchmark process would show up
    as the program's memory."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    src = os.path.join(os.path.abspath(opts.root), "src")
    sys.path.insert(0, src)
    from schro_gsp import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"schro_gsp imported from {cli.__file__}, not from {src}")
    tracer = None
    untraced = []
    if opts.trace:
        tracer = Tracer()
        untraced = install(tracer)
    report = {"ready": time.monotonic(), "untraced": untraced}
    code = 0
    if not opts.probe:
        if tracer is None:
            code = cli.main(argv)
        else:
            code = span_wrapper(tracer, cli.main, "cli")(argv)
            report["trace"] = tracer.dump()
        report["blas_threads"] = blas_threads()
    report["exit_code"] = code
    report["peak_rss_kb"] = peak_rss_kb()
    with open(opts.report, "w", encoding="ascii") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
