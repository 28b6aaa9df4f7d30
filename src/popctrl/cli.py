"""Command-line surface: one binary, subcommand style.

Exit codes: 0 success, 1 completed with flags (non-admissible geometry,
unreached targets, unconverged iterations), 2 errors.  All randomness is
seeded through --seed (default 0) and reports never embed wall-clock data,
so identical scenario + seed reproduce outputs byte for byte; timings are
printed to stderr only.
"""

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import replace

from . import pipelines
from .errors import PopctrlError
from .scenario import _number, _require_dict, load_scenario

# command -> help text; each command but "sweep" runs pipelines.cmd_<command>,
# looked up at call time so that wrappers installed on the module see the call
_COMMANDS = {
    "validate": "check demographic hypotheses and geometry",
    "simulate": "uncontrolled nonlinear solve; writes m.csv f.csv traces.csv",
    "adjoint": "backward adjoint solve from terminal data; writes n.csv l.csv",
    "control": "synthesize approximate null controls; writes v_m.csv v_f.csv",
    "solve": "full nonlinear controlled pipeline via fixed-point iteration",
    "contraction": "probe the well-posedness contraction map",
    "observability": "estimate observability constants over a geometry sweep",
    "sweep": "parameter sweep of the control pipeline from a sweep file",
}


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="popctrl",
        description="Simulation, control synthesis and observability probes for a "
                    "two-sex age-structured population model.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="scenario JSON file"
                       if name != "sweep" else "sweep JSON file (with 'base' scenario)")
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
        p.add_argument("--grid-h", type=float, default=None,
                       help="override grid.target_h")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--quiet", action="store_true", help="suppress console output")
    return parser


def run_command(argv):
    """Execute a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        if args.grid_h is not None:
            # the rule a scenario file's grid.target_h meets, before anything is written
            _number(args.grid_h, "grid.target_h", strict_min=0.0)
        if args.command == "sweep":
            with open(args.scenario) as handle:
                sweep_spec = json.load(handle)
            if not isinstance(sweep_spec, dict) or "base" not in sweep_spec:
                raise PopctrlError("sweep file needs a 'base' key naming a scenario "
                                   "file or holding an inline scenario object")
            extra = set(sweep_spec) - {"base", "parameters"}
            if extra:
                raise PopctrlError(f"sweep file has unknown key(s) {sorted(extra)}")
            base = sweep_spec["base"]
            if isinstance(base, str):
                base_path = os.path.join(os.path.dirname(args.scenario), base)
                with open(base_path) as handle:
                    base_raw = json.load(handle)
            else:
                base_raw = base
            _require_dict(base_raw, "base")
            if args.grid_h is not None:
                grid_raw = _require_dict(base_raw.setdefault("grid", {}), "base.grid")
                grid_raw["target_h"] = args.grid_h
            scenario_like = None
            outdir = args.out or "."
            quiet = args.quiet
        else:
            scenario_like = load_scenario(args.scenario)
            if args.grid_h is not None:
                resolved = dict(scenario_like.resolved)
                resolved["grid"] = {"target_h": args.grid_h}
                scenario_like = replace(scenario_like, target_h=args.grid_h,
                                        resolved=resolved)
            outdir = args.out or scenario_like.output_dir
            quiet = args.quiet or scenario_like.quiet
        os.makedirs(outdir, exist_ok=True)

        def log(message):
            if not quiet:
                print(message)

        if args.command == "sweep":
            code = pipelines.cmd_sweep(sweep_spec, base_raw, outdir, args.seed, log)
        else:
            command = getattr(pipelines, f"cmd_{args.command}")
            code = command(scenario_like, outdir, args.seed, log)
    except (PopctrlError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not quiet:
        print(f"elapsed {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return code


def main():
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
