"""The tamarimaps benchmark.

    python3 benchmarks/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread.  Set-up (import plus building the
workload's inputs) runs SETUPS times, each time on a fresh import; then
passes over the workload run until ``--seconds`` have passed, and every
answer of every pass is checked.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median set-up),
``pass_s`` (one pass with every operation at its median over the passes),
both in seconds at a reference machine speed (see ``recorder.Reference``),
and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes,
records spans around every call into the library and reports per-layer
metrics; the spans and the per-function table go to ``.bench_out/``.  See
benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import census
import chain_desk
import chain_large
import cli_script
from recorder import MODULES, ImportSpans, Recorder, Reference, op_total, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = {"census": census, "chain_desk": chain_desk, "chain_large": chain_large,
             "cli": cli_script}
SETUPS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tamarimaps", "__init__.py")):
        print("error: no tamarimaps package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    rec = Recorder(getattr(workload, "reference", Reference)())
    if trace:
        sys.meta_path.insert(0, ImportSpans(rec))
    setups = []  # (wall seconds, speed) per set-up, which runs in-process
    setup_speed = Reference()
    for _ in range(SETUPS):
        gc.collect()  # garbage of the previous set-up is not this one's cost
        rec.begin("setup", trace)
        setup_speed.speed(force=True)
        start = perf_counter()
        state = workload.setup(_fresh_import(), args.seed, rec)
        setups.append((perf_counter() - start, setup_speed.speed(force=True)))

    # In a traced run, untraced and traced passes alternate, untraced first,
    # so the tracing overhead is measured on the same inputs.
    untraced, traced = [], []  # per pass: op name -> durations
    deadline = perf_counter() + args.seconds
    while True:
        tracing = trace and len(untraced) > len(traced)
        gc.collect()
        (traced if tracing else untraced).append(rec.begin("pass", tracing))
        workload.run_pass(state, rec)
        if perf_counter() >= deadline and len(traced) >= trace:
            break
    if hasattr(workload, "run_probes"):
        rec.begin("probe", trace)
        workload.run_probes(state, rec)

    figures = workload.report(untraced, rec.op_objects)
    figures += [
        ("wall_setup_s", statistics.median(w for w, _ in setups), "s"),
        ("wall_pass_s", op_total(untraced), "s"),
        ("speed", rec.reference.nominal_s / statistics.median(rec.reference.samples), "x"),
        ("failed_ratio", rec.failed / rec.attempted, "ratio"),
    ]
    if rec.probes_attempted:
        figures.append(("probes_failed", rec.probes_failed, "count"))
    for name, value, unit in figures:
        print("%-16s %14.6g %s" % (name, value, unit))

    if trace:
        metrics = _per_layer(args, workload, rec, untraced, traced, figures)
    else:
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        metrics = {
            "setup_s": (statistics.median(w * speed for w, speed in setups), "s"),
            "pass_s": (op_total(untraced, norm=True), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
    for line in rec.errors[:20]:
        print("FAILED %s" % line, file=sys.stderr)
    correct = rec.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _fresh_import():
    """Import the package and its CLI module from scratch, as a new process
    would, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "tamarimaps"]:
        del sys.modules[name]
    tm = importlib.import_module("tamarimaps")
    importlib.import_module("tamarimaps.cli")
    return tm


def _per_layer(args, workload, rec, untraced, traced, figures):
    functions, layers = summarize(rec)
    pass_s = op_total(untraced, norm=True)
    overhead = op_total(traced, norm=True) - pass_s
    import_s = cli_script.import_cost(SRC)
    growth = workload.growth(rec) if hasattr(workload, "growth") else {}

    metrics = {}
    for module in MODULES:
        metrics[module + ".self_s"] = (layers[module]["self_s"], "s")
        metrics[module + ".calls"] = (layers[module]["calls"], "count")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["probes.failed"] = (rec.probes_failed, "count")

    print("%-44s %10s %10s %8s %8s %6s" % ("per pass", "s", "self_s", "calls", "objects",
                                             "failed"))
    for phase in ("pass", "setup"):
        for name, row in functions[phase].items():
            print("%-44s %10.4g %10.4g %8g %8g %6g" % (
                (name if phase == "pass" else "setup:" + name), row["s"], row["self_s"],
                row["calls"], row["objects"], row["failed"]))
    for name, value in growth.items():
        print("%-44s %10.3f" % (name, value))
    print("%-44s %10.4g (%.1f%% of %.4g s)" % ("trace.overhead_s", overhead,
                                                100 * overhead / pass_s, pass_s))

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as handle:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "figures": {name: [value, unit] for name, value, unit in figures},
            "layers": layers,
            "functions": functions,
            "growth": growth,
            "cli.import_s": import_s,
            "overhead_s": overhead,
            "untraced_passes": untraced,
            "traced_passes": traced,
            "phases": rec.phases,
            "ops": rec.op_names,
            "spans": rec.spans,
        }, handle)
    print("trace written to %s" % os.path.relpath(path, ROOT))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
