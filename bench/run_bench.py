"""popctrl benchmark: four CLI workloads, end-to-end timing, traced per-layer run.

Usage (from the repository root):

    python3 bench/run_bench.py --workload solve_coarse --seed 1 --seconds 60 --trace 0
    python3 bench/run_bench.py --workload all --trace 1

Each workload runs in its own process and calls ``popctrl.cli.run_command``
on a scenario generated from the seed, repeatedly, for ``--seconds``.
Every call's outputs are checked (see workloads.check_outputs).  With
``--trace 0`` nothing in the package is patched and the end-to-end metrics
are reported; with ``--trace 1`` traced and untraced calls alternate and
the per-layer metrics are reported.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The package is imported from ``src/`` of the checkout this file lives in;
the run stops with a non-zero exit code if that source tree is missing.
Outputs go to ``.bench_work/`` at the checkout root.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from tracing import COUNTERS, Tracer
from workloads import (REFERENCE_GRID_H, WORKLOADS, check_outputs, reference_drift,
                       scalars, write_scenario)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE_FILE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
# Set-up probes run one after each timed call (at least this many per run),
# so their median spans the whole run rather than one moment of it.
SETUP_REPEATS = 7
MIN_SAMPLES = 3
DUALITY_LIMIT = 1e-12

END_TO_END = (("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("model.fertility.calls", "count"), ("model.fertility.self_s", "s"),
    ("model.rate.calls", "count"), ("model.rate.self_s", "s"),
    ("forward.frozen.calls", "count"), ("forward.nonlinear.calls", "count"),
    ("forward.self_s", "s"), ("forward.cell_updates", "cells-computed"),
    ("adjoint.sweeps", "count"), ("adjoint.columns", "count"),
    ("adjoint.self_s", "s"), ("adjoint.cell_updates", "cells-computed"),
    ("control.stages", "count"), ("control.cg_iters", "count"),
    ("control.hessian_applies", "count"), ("control.hessian_per_cg_iter", "ratio"),
    ("control.self_s", "s"),
    ("fixed_point.outer_iters", "count"), ("fixed_point.delta_ratio_median", "ratio"),
    ("fixed_point.self_s", "s"), ("fixed_point.contraction_trials", "count"),
    ("observability.adjoint_solves", "count"), ("observability.estimates", "count"),
    ("observability.self_s", "s"),
    ("util.map_parallel.calls", "count"), ("util.map_parallel.items", "count"),
    ("util.map_parallel.efficiency", "ratio"), ("util.max_concurrent_items", "count"),
    ("grid.csv.bytes", "B"), ("grid.csv.write_s", "s"), ("scenario.load_s", "s"),
    ("pipelines.self_s", "s"),
    ("trace.run_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count"),
    ("trace.absent_boundaries", "count"), ("trace.count_mismatches", "count"),
)
RUN_LEVEL = ("util.max_concurrent_items", "trace.run_s", "trace.overhead_s",
             "trace.absent_boundaries", "trace.count_mismatches")
# Counts a deterministic program repeats exactly from one traced call to the next;
# any that differ are reported in trace.count_mismatches.
EXACT = tuple(name for name, unit in PER_LAYER
              if unit in ("count", "B", "cells-computed") and name not in RUN_LEVEL)

# Child process timing one set-up: interpreter start, package import, one parse.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import popctrl.cli\n"
    "from popctrl import load_scenario\n"
    "load_scenario(sys.argv[2])\n"
    "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute bench/reference.json for the default seed")
    return parser.parse_args(argv)


def clean_environment():
    """Drop POPCTRL_* settings so the program's default threading is measured."""
    removed = sorted(k for k in os.environ if k.startswith("POPCTRL_"))
    for key in removed:
        del os.environ[key]
    return removed


def environment_record(removed):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu_model = platform.processor() or "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": np.__version__,
            "popctrl_env_removed": removed}


def import_package():
    if not os.path.isfile(os.path.join(SRC, "popctrl", "__init__.py")):
        raise SystemExit(f"error: no popctrl sources under {SRC}")
    if not os.path.isfile(os.path.join(ROOT, "scenarios", "example.json")):
        raise SystemExit("error: scenarios/example.json is missing")
    sys.path.insert(0, SRC)
    import popctrl
    import popctrl.cli
    if not os.path.abspath(popctrl.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported popctrl from {popctrl.__file__}, not {SRC}")
    return popctrl


def measure_setup(scenario_path):
    """Seconds from process start to imported package and parsed scenario."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, scenario_path],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - started


def file_hashes(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def duality_check(popctrl, scenario_path, seed):
    """Relative duality residual on the synth_fine grid and its uncontrolled trace."""
    scenario = popctrl.load_scenario(scenario_path)
    model, geom = scenario.model, scenario.geometry
    grid = popctrl.build_grid(model.max_age, geom.horizon, WORKLOADS["synth_fine"].grid_h)
    na, nt = grid.num_age_cells, grid.num_time_cells
    m0, f0 = scenario.sample_initial(grid)
    trace = popctrl.solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    rng = np.random.default_rng(seed)
    vm = popctrl.Field2D(grid, rng.standard_normal((na + 1, nt + 1)))
    vf = popctrl.Field2D(grid, rng.standard_normal((na + 1, nt + 1)))
    n_T, l_T = rng.standard_normal(na + 1), rng.standard_normal(na + 1)
    state = popctrl.solve_forward(model, grid, geom, vm, vf, m0, f0, frozen_trace=trace)
    adj = popctrl.solve_adjoint(model, grid, geom, n_T, l_T, trace)
    residual, scale = popctrl.duality_residual(state, adj, n_T, l_T, m0, f0, vm, vf,
                                               model, grid, geom)
    return residual / scale


def delta_ratio_median(outdir):
    """Median of successive fixed-point step ratios within each penalty stage."""
    path = os.path.join(outdir, "history.csv")
    if not os.path.exists(path):
        return 0.0
    with open(path) as handle:
        rows = [line.split(",") for line in handle.read().splitlines()[1:]]
    ratios = [float(b[2]) / float(a[2]) for a, b in zip(rows, rows[1:])
              if a[0] == b[0] and float(a[2]) > 0]
    return statistics.median(ratios) if ratios else 0.0


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def call(popctrl, argv):
    """Run one CLI call; returns (exit code or None, wall s, cpu s, error text)."""
    started, cpu_started = time.perf_counter(), time.process_time()
    try:
        code, error = popctrl.cli.run_command(argv), None
    except Exception:
        code, error = None, traceback.format_exc()
    return code, time.perf_counter() - started, time.process_time() - cpu_started, error


def checked(workload, outdir, code, error, scenario_path):
    if error is not None:
        return [f"raised:\n{error}"]
    try:
        return check_outputs(workload, outdir, code, scenario_path)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable outputs: {exc!r}"]


def layer_metrics(stats, outdir):
    counts = stats["counts"]
    m = {k: counts.get(k, 0) for k in COUNTERS}
    m["model.fertility.calls"] = stats["name_calls"].get("model.fertility", 0)
    m["model.rate.calls"] = stats["name_calls"].get("model.rate", 0)
    m["model.fertility.self_s"] = stats["name_self_s"].get("model.fertility", 0.0)
    m["model.rate.self_s"] = stats["name_self_s"].get("model.rate", 0.0)
    for layer in ("forward", "adjoint", "control", "fixed_point", "observability",
                  "pipelines"):
        m[f"{layer}.self_s"] = stats["layer_self_s"].get(layer, 0.0)
    m["control.hessian_per_cg_iter"] = (m["control.hessian_applies"] / m["control.cg_iters"]
                                        if m["control.cg_iters"] else 0.0)
    m["fixed_point.delta_ratio_median"] = delta_ratio_median(outdir)
    m["util.map_parallel.efficiency"] = stats["map_efficiency"]
    m["grid.csv.write_s"] = stats["name_total_s"].get("grid.write_field_csv", 0.0)
    m["scenario.load_s"] = stats["name_total_s"].get("scenario.load_scenario", 0.0)
    m["trace.spans"] = stats["spans"]
    return m


def run_workload(args, popctrl, env):
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    scenario_path = os.path.join(workdir, "scenario.json")
    member = write_scenario(ROOT, workload, args.seed, scenario_path)
    ref_scenario = os.path.join(workdir, "scenario-default-seed.json")
    write_scenario(ROOT, workload, DEFAULT_SEED, ref_scenario)
    with open(REFERENCE_FILE) as handle:
        reference = json.load(handle)[workload.name]

    setup_all = []
    failures = []
    attempted = 0

    # Untimed reference call at the default seed on a coarse grid; also warms up.
    attempted += 1
    ref_out = os.path.join(workdir, "reference-call")
    code, _, _, error = call(popctrl, workload.argv(ref_scenario, DEFAULT_SEED, ref_out,
                                                    REFERENCE_GRID_H))
    errors = checked(workload, ref_out, code, error, ref_scenario)
    coarse_drift = math.inf
    if not errors:
        coarse_drift, errors = reference_drift(workload, ref_out, reference["coarse"])
    failures += [f"reference call: {e}" for e in errors]
    failed = int(bool(errors))

    attempted += 1
    try:
        duality = duality_check(popctrl, scenario_path, args.seed)
    except Exception:
        duality = math.inf
        failures.append(f"duality check raised:\n{traceback.format_exc()}")
    if not duality <= DUALITY_LIMIT:
        failures.append(f"duality residual {duality:.3g} above {DUALITY_LIMIT:g}")
        failed += 1

    tracer = Tracer() if args.trace else None
    walls = {True: [], False: []}
    cpus = []
    layer_samples = []
    mismatched = set()
    first_hashes = None
    full_drift = None
    started = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 0
        outdir = os.path.join(workdir, f"sample-{k}")
        argv = workload.argv(scenario_path, args.seed, outdir)
        if traced:
            lo = tracer.begin_sample(k)
            tracer.install()
            try:
                code, wall, cpu, error = call(popctrl, argv)
            finally:
                tracer.uninstall()
        else:
            code, wall, cpu, error = call(popctrl, argv)
        attempted += 1
        walls[traced].append(wall)
        if not traced:
            cpus.append(cpu)
        errors = checked(workload, outdir, code, error, scenario_path)
        if not errors:
            hashes = file_hashes(outdir)
            if first_hashes is None:
                first_hashes = hashes
            elif hashes != first_hashes:
                errors.append("artifacts differ from the first sample's: " + ", ".join(
                    n for n in sorted(set(hashes) | set(first_hashes))
                    if hashes.get(n) != first_hashes.get(n)))
            if args.seed == DEFAULT_SEED:
                full_drift, drift_errors = reference_drift(workload, outdir,
                                                           reference["full"])
                errors += drift_errors
        if traced:
            sample = layer_metrics(tracer.sample_stats(lo), outdir)
            # a count that differs between traced calls is reported, not failed:
            # the call's outputs are checked above
            mismatched.update(name for name in EXACT if layer_samples
                              and sample[name] != layer_samples[0][name])
            if tracer.max_concurrent_items > env["nproc"]:
                errors.append(f"{tracer.max_concurrent_items} pool items ran at once "
                              f"on {env['nproc']} CPUs")
            layer_samples.append(sample)
        failures += [f"sample {k}: {e}" for e in errors]
        failed += int(bool(errors))
        if k > 0:
            shutil.rmtree(os.path.join(workdir, f"sample-{k - 1}"), ignore_errors=True)
        k += 1
        setup_all.append(measure_setup(scenario_path))
        elapsed = time.perf_counter() - started
        typical = statistics.median(walls[True] + walls[False])
        enough = len(walls[False]) >= (2 if args.trace else MIN_SAMPLES) and \
            len(walls[True]) >= (2 if args.trace else 0)
        if enough and elapsed + typical > args.seconds:
            break
    while len(setup_all) < SETUP_REPEATS:
        setup_all.append(measure_setup(scenario_path))

    result = {
        "workload": workload.name, "seed": args.seed, "family_member": member,
        "seconds": args.seconds, "samples": k, "attempted": attempted,
        "failed": failed, "failures": failures, "setup_s_all": setup_all,
        "run_s_all": walls[False], "cpu_s_all": cpus, "traced_run_s_all": walls[True],
        "reference_drift_coarse": coarse_drift, "reference_drift_full": full_drift,
        "duality_residual": duality,
    }
    metrics = {}
    if args.trace:
        traced_run_s = statistics.median(walls[True])
        per_run = {"util.max_concurrent_items": tracer.max_concurrent_items,
                   "trace.run_s": traced_run_s,
                   "trace.overhead_s": traced_run_s - statistics.median(walls[False]),
                   "trace.absent_boundaries": len(tracer.absent),
                   "trace.count_mismatches": len(mismatched)}
        for name, _ in PER_LAYER:
            if name in per_run:
                metrics[name] = per_run[name]
            elif name in EXACT:
                metrics[name] = layer_samples[0][name]
            else:
                metrics[name] = statistics.median(s[name] for s in layer_samples)
        result["absent_boundaries"] = tracer.absent
        result["count_mismatches"] = sorted(mismatched)
        tracer.write(os.path.join(workdir, "spans.npz"))
        units = dict(PER_LAYER)
    else:
        metrics = {"run_s": statistics.median(walls[False]),
                   "cpu_s": statistics.median(cpus),
                   "setup_s": statistics.median(setup_all),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = dict(END_TO_END)
    result["metrics"] = metrics
    result["environment"] = env
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    print_report(result, units, args.trace)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def print_report(result, units, trace):
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  family member "
          f"{result['family_member']}  calls {result['samples']}  trace {trace}")
    print(f"environment: nproc {env['nproc']}, {env['cpu_model']}, python "
          f"{env['python']}, numpy {env['numpy']}, POPCTRL_* removed: "
          f"{', '.join(env['popctrl_env_removed']) or 'none'}")
    for name, value in result["metrics"].items():
        note = ""
        if name == "run_s":
            tail = tail_percentile(result["run_s_all"])
            note = (f"median of {len(result['run_s_all'])} calls; " + (
                f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
                "no percentile has ten calls beyond it"))
        elif name == "setup_s":
            note = f"median of {len(result['setup_s_all'])} set-ups"
        elif units[name] == "cells-computed":
            note = "computed: columns x Na x Nt"
        print(f"  {name:<32} {value:>14.6g} {units[name]:<15} {note}")
    print("  run_s per call: " + " ".join(f"{x:.3f}" for x in result["run_s_all"]))
    if trace:
        print(f"  untraced run_s median {statistics.median(result['run_s_all']):.4f} s; "
              f"absent boundaries: {', '.join(result['absent_boundaries']) or 'none'}; "
              f"counts that differed between traced calls: "
              f"{', '.join(result['count_mismatches']) or 'none'}")
    print(f"  fail_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.3g}")
    full = result["reference_drift_full"]
    print(f"  reference drift: coarse call {result['reference_drift_coarse']:.3g}" +
          (f", timed calls {full:.3g}" if full is not None else
           " (timed calls compared only for the default seed)"))
    print(f"  duality residual {result['duality_residual']:.3g} (limit {DUALITY_LIMIT:g})")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def run_all(args):
    """Each workload in its own process; prints a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def write_reference(popctrl):
    """Record the default seed's scalars on the coarse and the workload grid."""
    reference = {}
    for workload in WORKLOADS.values():
        workdir = os.path.join(WORK, "reference", workload.name)
        os.makedirs(workdir, exist_ok=True)
        path = os.path.join(workdir, "scenario.json")
        write_scenario(ROOT, workload, DEFAULT_SEED, path)
        reference[workload.name] = {}
        for label, grid_h in (("coarse", REFERENCE_GRID_H), ("full", workload.grid_h)):
            outdir = os.path.join(workdir, label)
            code, _, _, error = call(popctrl, workload.argv(path, DEFAULT_SEED, outdir,
                                                            grid_h))
            errors = checked(workload, outdir, code, error, path)
            if errors:
                raise SystemExit(f"error: {workload.name} {label}: {errors}")
            reference[workload.name][label] = scalars(workload, outdir)
    with open(REFERENCE_FILE, "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv):
    args = parse_args(argv)
    removed = clean_environment()
    if args.workload == "all" and not args.write_reference:
        result = run_all(args)
    else:
        popctrl = import_package()
        if args.write_reference:
            write_reference(popctrl)
            return 0
        result = run_workload(args, popctrl, environment_record(removed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
