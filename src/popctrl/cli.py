"""Command-line surface: one binary, subcommand style.

Exit codes: 0 success, 1 completed with flags (non-admissible geometry,
unreached targets, unconverged iterations), 2 errors.  All randomness is
seeded through --seed (default 0) and reports never embed wall-clock data,
so identical scenario + seed reproduce outputs byte for byte; timings are
printed to stderr only.
"""

import argparse
import functools
import os
import sys
import time

from . import pipelines
from .errors import PopctrlError
from .scenario import load_input

# command -> help text; each command runs pipelines.cmd_<command> on its
# parsed input file, looked up at call time so that wrappers installed on
# the module see the call
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
        description="Simulation, control synthesis and observability estimates for a "
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
    made = []
    try:
        job = load_input(args.scenario, args.command, args.grid_h)
        outdir = args.out or job.output_dir
        quiet = args.quiet or job.quiet
        made = _make_directory(outdir)

        def log(message):
            if not quiet:
                print(message)

        code = getattr(pipelines, f"cmd_{args.command}")(job, outdir, args.seed, log)
    except (PopctrlError, OSError, ValueError) as exc:
        for path in made:  # an error exit leaves no empty directory of its own behind
            if os.listdir(path):
                break
            os.rmdir(path)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not quiet:
        print(f"elapsed {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return code


def _make_directory(path):
    """Make the directory ``path``; returns the directories this made, deepest first."""
    made = []
    missing = os.path.abspath(path)
    while not os.path.isdir(missing):
        made.append(missing)
        missing = os.path.dirname(missing)
    os.makedirs(path, exist_ok=True)
    return made


def main():
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
