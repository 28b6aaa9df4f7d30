"""Wall time of popctrl's layers, measured in-process, alone or against a
second source tree.

Runs the layers of the frozen-trace machinery on scenarios/example.json at
h = 1/64 (80 x 28 cells) and h = 1/256 (260 x 91) and prints one JSON
object: per grid and layer, the min and the median over the rounds of the
mean time of one call, in ms.  Each round runs every layer once, in turn,
so a slow spell of the host falls on all layers alike.

Beside them, ``worker_ms`` is the CPU time, in ms, that threads other than
the calling one burn during one call of the layer and a 0.2 s idle tail
after it: time.process_time() minus time.thread_time() over that span,
measured once per layer after the rounds and after 0.2 s of idling.  The
package starts no threads of its own, so this is BLAS worker threads: an
OpenBLAS worker that a call wakes spins on for about 0.13 s after the call
returns, and the tail charges that spin to the layer that woke it.  It reads
0 with OPENBLAS_NUM_THREADS=1; run with the default thread count to see
which layers take a second thread.

    python tools/layer_timings.py [--rounds 12] [--src DIR] [--against DIR]
    python tools/layer_timings.py --against DIR --end-to-end

--src loads popctrl from another source directory (for instance a copy of
an earlier commit's src/), so two versions can be timed with the same
layers; the source must take ``minimize_penalty(problem, operator, m0, f0,
epsilon)``, ``estimate_observability_constant(..., config=)``,
``observability._power_iteration(op, iters)``,
``FrozenOperator.adjoint_images`` of one (N+1,) work pair and
``Fertility.expression(expr)``.  The layers:

  nonlinear       solve_forward without controls or frozen trace: the
                  nonlinear sweep, one rate-function call per level
  rate            FrozenOperator.retrace: the fertility table of every level
  step_loop       FrozenOperator.forward, both controls, one column
  observe         FrozenOperator.observe, the same controls
  adjoint_images  FrozenOperator.adjoint_images of one terminal work column
  gramian         FrozenOperator.gramians of a freshly retraced operator
  gramian_expr    the same with the example's fertility written as one
                  expression, 1.3 * step(a - 0.15) * p / (1 + p): the swept
                  Gramians of a fertility that is not separable
  stage           minimize_penalty at epsilon 1e-2 on a freshly retraced operator
  stage_expr      the same with that expression fertility (step loop, backward
                  sweeps and the swept control Gramian)
  power_iteration observability._power_iteration, 20 steps, on a freshly
                  retraced operator (its Gramians included)
  fixed_point     iterate_to_fixed_point with the scenario's settings (CLI solve)
  observability   estimate_observability_constant, three traces, 8 probes and
                  20 power steps (the observe_sweep settings of bench/)

The trace is the uncontrolled one, the controls those of the epsilon 1e-2
stage, and every trace-independent table is built before the timing starts.

--against DIR loads a second source tree in the same process, under another
package name (every module of popctrl imports its siblings relatively), and
times the --src tree (A) against it (B).  Each round runs every layer's
batch of calls four times, in the order A B B A, so that a slow spell of
the host falls on both trees alike, and pairs the batches (A1, B1) and
(A2, B2); every other round runs B A A B, since the first batch after a
change of layer runs cold and would otherwise always be A's.  A batch
repeats the layer's calls until it lasts about 5 ms.  Per grid and layer
the tool prints one table row: the median of the paired ratios A / B with
its quartiles, the number of pairs in which A was the faster, and each
tree's median ms per call.  A tree against itself reads 1.00x, within a
few percent.

--end-to-end, with --against, runs each tree's ``cli.run_command``
in-process instead: simulate, adjoint, control, solve, contraction and
observability on scenarios/example.json, sweep on
scenarios/sweep_example.json, and observability on the observe_sweep
scenario of bench/workloads.py (seed 0), each at h = 1/64, 1/128 and 1/256,
into temporary directories.  It compares the exit codes and every artifact
pair byte for byte, prints one line per case and exits 1 if any differs.

What the tool cannot see: process start-up (the interpreter, the numpy
import and popctrl's own import), since every call runs in one warm
process; BLAS-thread effects beyond ``worker_ms``, so run a comparison both
with OPENBLAS_NUM_THREADS=1 and without; and memory, which it does not
measure.
"""

import argparse
import dataclasses
import filecmp
import importlib
import importlib.util
import json
import math
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRIDS = ((1.0 / 64, 20), (1.0 / 256, 5))  # (h, calls per round): 80 x 28 and 260 x 91
EPSILON = 1e-2  # the penalty weight of the stage layer and of the controls
# the example's separable fertility written as one expression of a and p
EXPR_FERTILITY = "1.3 * step(a - 0.15) * p / (1 + p)"
IDLE_S = 0.2  # outlasts the spin of a BLAS worker after its last task
# a paired batch repeats its calls until it lasts about this long: the batches
# of the short layers then read a few percent of timer and cache noise
MIN_BATCH_MS = 5.0
END_TO_END_STEPS = (1.0 / 64, 1.0 / 128, 1.0 / 256)
EXAMPLE_COMMANDS = ("simulate", "adjoint", "control", "solve", "contraction", "observability")


def _load(tree, name):
    """The popctrl package of the source directory ``tree``, imported under
    the package name ``name``."""
    init = os.path.join(os.path.abspath(tree), "popctrl", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _layers(package, h, calls):
    """(grid, {layer: (prepare, run)}) of the example at step ``h``, with the
    modules of the loaded ``package``: ``prepare()`` makes the arguments of
    ``calls`` runs outside the timing, ``run(argument)`` is one timed call."""
    def module(name):
        return importlib.import_module(f"{package.__name__}.{name}")

    minimize_penalty = module("control").minimize_penalty
    iterate_to_fixed_point = module("fixed_point").iterate_to_fixed_point
    FrozenOperator, solve_forward = module("forward").FrozenOperator, module("forward").solve_forward
    Fertility = module("model").Fertility
    observability = module("observability")
    ObservabilityConfig = observability.ObservabilityConfig
    _power_iteration = observability._power_iteration
    estimate_observability_constant = observability.estimate_observability_constant
    make_grid = module("pipelines").make_grid

    scenario = module("scenario").load_scenario(os.path.join(ROOT, "scenarios", "example.json"))
    scenario.target_h = h
    model, geom, penalty = scenario.model, scenario.geometry, scenario.penalty
    grid = make_grid(scenario)
    m0, f0 = scenario.sample_initial(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    op = FrozenOperator(model, grid, geom, trace)
    expr_model = dataclasses.replace(model, fertility=Fertility.expression(EXPR_FERTILITY))
    op_expr = FrozenOperator(expr_model, grid, geom, trace)
    control = minimize_penalty(penalty, op, m0, f0, EPSILON)
    v_m, v_f = control.v_m.values, control.v_f.values
    work = (m0, f0)
    traces = [trace, 0.5 * trace, 1.5 * trace]

    def repeat(value):
        return lambda: [value] * calls

    def retraced(base):
        return lambda: [base.retrace(trace) for _ in range(calls)]

    return grid, {
        "nonlinear": (repeat(None), lambda _: solve_forward(model, grid, geom, None, None,
                                                             m0, f0)),
        "rate": (repeat(trace), op.retrace),
        "step_loop": (repeat(None), lambda _: op.forward(m0, f0, v_m, v_f)),
        "observe": (repeat(None), lambda _: op.observe(m0, f0, v_m, v_f)),
        "adjoint_images": (repeat(work), lambda w: op.adjoint_images(*w)),
        "gramian": (retraced(op), lambda fresh: fresh.gramians()),
        "gramian_expr": (retraced(op_expr), lambda fresh: fresh.gramians()),
        "stage": (retraced(op), lambda fresh: minimize_penalty(penalty, fresh, m0, f0, EPSILON)),
        "stage_expr": (retraced(op_expr),
                       lambda fresh: minimize_penalty(penalty, fresh, m0, f0, EPSILON)),
        "power_iteration": (retraced(op), lambda fresh: _power_iteration(fresh, 20)),
        "fixed_point": (lambda: [None], lambda _: iterate_to_fixed_point(
            model, grid, geom, penalty, scenario.fixed_point, m0, f0)),
        "observability": (lambda: [None], lambda _: estimate_observability_constant(
            model, grid, geom, traces, config=ObservabilityConfig(probes=8, power_iters=20),
            seed=0)),
    }


def _worker_ms(run, argument):
    """CPU ms of the threads other than the caller over one ``run(argument)``
    and an ``IDLE_S`` tail, from an idle start."""
    time.sleep(IDLE_S)
    process, caller = time.process_time(), time.thread_time()
    run(argument)
    time.sleep(IDLE_S)
    # the two clocks tick apart, so an idle worker can read a hair below 0
    return max(0.0, (time.process_time() - process) - (time.thread_time() - caller)) * 1e3


def _timed(run, arguments):
    """Mean ms of one ``run(argument)`` over ``arguments``."""
    start = time.perf_counter()
    for argument in arguments:
        run(argument)
    return (time.perf_counter() - start) / len(arguments) * 1e3


def _single(package, rounds):
    """Per grid and layer: min, median and ``worker_ms`` of one tree."""
    grids = {}
    for h, calls in GRIDS:
        grid, layers = _layers(package, h, calls)
        for prepare, run in layers.values():  # warm-up: every lazy table is built
            run(prepare()[0])
        samples = {layer: [] for layer in layers}
        for _ in range(rounds):
            for layer, (prepare, run) in layers.items():
                samples[layer].append(_timed(run, prepare()))
        grids[f"{grid.num_age_cells}x{grid.num_time_cells}"] = {
            layer: {"min_ms": round(min(samples[layer]), 4),
                    "median_ms": round(statistics.median(samples[layer]), 4),
                    "worker_ms": round(_worker_ms(run, prepare()[0]), 1)}
            for layer, (prepare, run) in layers.items()}
    return grids


def _paired(package, against, rounds):
    """Table rows of the paired ratios of ``package`` (A) over ``against``
    (B) per grid and layer, two pairs per round, in the order A B B A in
    even rounds and B A A B in odd ones."""
    rows = []
    for h, calls in GRIDS:
        grid, layers = _layers(package, h, calls)
        layers_b = _layers(against, h, calls)[1]
        for prepare, run in [*layers.values(), *layers_b.values()]:  # warm-up
            run(prepare()[0])
        repeats = {layer: max(1, math.ceil(MIN_BATCH_MS / (_timed(run, prepare()) * calls)))
                   for layer, (prepare, run) in layers.items()}
        times = {layer: {"A": [], "B": []} for layer in layers}
        for k in range(rounds):
            for layer in layers:
                # the first batch after a change of layer runs cold: it is A's
                # in even rounds and B's in odd ones
                for side in "ABBA" if k % 2 == 0 else "BAAB":
                    prepare, run = (layers if side == "A" else layers_b)[layer]
                    arguments = [a for _ in range(repeats[layer]) for a in prepare()]
                    times[layer][side].append(_timed(run, arguments))
        for layer, sides in times.items():
            pairs = list(zip(sides["A"], sides["B"]))
            ratios = [a / b for a, b in pairs]
            low, _, high = statistics.quantiles(ratios, n=4)
            name = f"{grid.num_age_cells}x{grid.num_time_cells}"
            rows.append(f"{name:<8} {layer:<16} "
                        f"{statistics.median(ratios):6.3f}x [{low:.3f}, {high:.3f}]  "
                        f"{sum(a < b for a, b in pairs):3d}/{len(pairs):<3d} "
                        f"{statistics.median(sides['A']):9.4f} "
                        f"{statistics.median(sides['B']):9.4f}")
    return rows


def _artifacts(directory):
    """The relative paths of the files under ``directory``, sorted."""
    return sorted(os.path.relpath(os.path.join(base, name), directory)
                  for base, _, names in os.walk(directory) for name in names)


def _end_to_end(package, against):
    """One line per CLI case of the two trees: ``same``, or ``DIFFERS`` with
    the exit codes, the artifacts only one tree wrote and those whose bytes
    differ; and whether any case differs."""
    spec = importlib.util.spec_from_file_location(
        "layer_timings_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    clis = [importlib.import_module(f"{tree.__name__}.cli") for tree in (package, against)]
    scenarios = os.path.join(ROOT, "scenarios")
    lines, differs = [], False
    with tempfile.TemporaryDirectory() as tmp:
        observe_sweep = os.path.join(tmp, "observe_sweep.json")
        workloads.write_scenario(ROOT, workloads.WORKLOADS["observe_sweep"], 0, observe_sweep)
        cases = [(command, os.path.join(scenarios, "example.json"))
                 for command in EXAMPLE_COMMANDS]
        cases += [("sweep", os.path.join(scenarios, "sweep_example.json")),
                  ("observability", observe_sweep)]
        for h in END_TO_END_STEPS:
            for k, (command, scenario) in enumerate(cases):
                outs = [os.path.join(tmp, f"{side}-{h!r}-{k}") for side in "AB"]
                codes = [cli.run_command([command, scenario, "--grid-h", repr(h),
                                          "--out", out, "--quiet"])
                         for cli, out in zip(clis, outs)]
                files = [_artifacts(out) for out in outs]
                differ = sorted(set(files[0]) ^ set(files[1])) + [
                    name for name in files[0] if name in files[1] and not filecmp.cmp(
                        os.path.join(outs[0], name), os.path.join(outs[1], name),
                        shallow=False)]
                case = f"{command} {os.path.basename(scenario)} h=1/{round(1 / h)}"
                if differ or codes[0] != codes[1]:
                    differs = True
                    lines.append(f"DIFFERS {case}: exit {codes}, {differ}")
                else:
                    lines.append(f"same    {case}: exit {codes[0]}, {len(files[0])} files")
    return lines, differs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=12, help="rounds per grid (>= 1)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory popctrl is loaded from")
    parser.add_argument("--against", default=None,
                        help="second source directory, timed against --src")
    parser.add_argument("--end-to-end", action="store_true",
                        help="with --against: compare the CLI artifacts of the two trees")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.end_to_end and args.against is None:
        parser.error("--end-to-end needs --against")
    package = _load(args.src, "popctrl")
    if args.against is None:
        result = {"rounds": args.rounds, "unit": "ms per call",
                  "grids": _single(package, args.rounds)}
        print(json.dumps(result, indent=1))
        return 0
    against = _load(args.against, "popctrl_against")
    if args.end_to_end:
        lines, differs = _end_to_end(package, against)
        print("\n".join(lines))
        return int(differs)
    print(f"A = {os.path.abspath(args.src)}, B = {os.path.abspath(args.against)}, "
          f"{args.rounds} rounds")
    print("grid     layer            A / B  quartiles        A wins  A ms/call B ms/call")
    print("\n".join(_paired(package, against, args.rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
