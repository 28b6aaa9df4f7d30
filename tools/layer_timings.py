"""Wall time of popctrl's layers, measured in-process.

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

    python tools/layer_timings.py [--rounds 12] [--src DIR]

--src imports popctrl from another source directory (for instance a copy of
an earlier commit's src/), so two versions can be timed with the same
layers; the source must take ``minimize_penalty(problem, operator, m0, f0,
epsilon)``, ``estimate_observability_constant(..., config=)``,
``observability._power_iteration(op, iters)`` and
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
"""

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRIDS = ((1.0 / 64, 20), (1.0 / 256, 5))  # (h, calls per round): 80 x 28 and 260 x 91
EPSILON = 1e-2  # the penalty weight of the stage layer and of the controls
# the example's separable fertility written as one expression of a and p
EXPR_FERTILITY = "1.3 * step(a - 0.15) * p / (1 + p)"
IDLE_S = 0.2  # outlasts the spin of a BLAS worker after its last task


def _layers(h, calls):
    """(grid, {layer: (prepare, run)}) of the example at step ``h``:
    ``prepare()`` makes the arguments of ``calls`` runs outside the timing,
    ``run(argument)`` is one timed call."""
    from popctrl.control import minimize_penalty
    from popctrl.fixed_point import iterate_to_fixed_point
    from popctrl.forward import FrozenOperator, solve_forward
    from popctrl.model import Fertility
    from popctrl.observability import (ObservabilityConfig, _power_iteration,
                                       estimate_observability_constant)
    from popctrl.pipelines import make_grid
    from popctrl.scenario import load_scenario

    scenario = load_scenario(os.path.join(ROOT, "scenarios", "example.json"))
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
    work = (m0[:, None], f0[:, None])
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=12, help="rounds per grid (>= 1)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory popctrl is imported from")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))

    result = {"rounds": args.rounds, "unit": "ms per call", "grids": {}}
    for h, calls in GRIDS:
        grid, layers = _layers(h, calls)
        for prepare, run in layers.values():  # warm-up: every lazy table is built
            run(prepare()[0])
        samples = {layer: [] for layer in layers}
        for _ in range(args.rounds):
            for layer, (prepare, run) in layers.items():
                arguments = prepare()
                start = time.perf_counter()
                for argument in arguments:
                    run(argument)
                samples[layer].append((time.perf_counter() - start) / len(arguments) * 1e3)
        result["grids"][f"{grid.num_age_cells}x{grid.num_time_cells}"] = {
            layer: {"min_ms": round(min(samples[layer]), 4),
                    "median_ms": round(statistics.median(samples[layer]), 4),
                    "worker_ms": round(_worker_ms(run, prepare()[0]), 1)}
            for layer, (prepare, run) in layers.items()}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
