"""The benchmark's workloads: seeded scenario generation and output checks.

Every workload starts from ``scenarios/example.json``.  The workload seed
picks the initial age profiles from a small family and is also passed to
the program's ``--seed``; the program only ever sees the generated
scenario file.  The family members were chosen so that each one reaches
the control target without flags and costs the same work to within about
half a percent (379-381 Hessian applies at 260x91, 998-1002 at 80x28,
30 outer iterations), so that timings from different seeds are
comparable.
"""

import copy
import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

PI = "3.141592653589793"

# (m0, f0) expressions in the age variable a; expected flags: none.
FAMILY = (
    (f"0.9 * sin({PI} * a)**2", "0.5 * exp(-30 * (a - 0.55)**2)"),
    (f"0.9 * sin({PI} * a)**2", "0.45 * exp(-25 * (a - 0.5)**2)"),
    (f"0.9 * sin({PI} * a)**2", "0.55 * exp(-35 * (a - 0.6)**2)"),
    (f"0.9 * sin({PI} * a)**2", "0.5 * exp(-30 * (a - 0.5)**2)"),
)
EXPECTED_FLAGS = []
EXPECTED_EXIT = 0

# Grid used by the untimed reference call made at the start of every run.
REFERENCE_GRID_H = 1.0 / 32

# Relative tolerance of the reported scalars against bench/reference.json.
# control/contraction: CG stops at a relative gradient of 1e-9, so any exact
# reformulation of the same minimization agrees far below 1e-6.  solve: the
# outer loop stops at a relative trace step of 1e-4, and the last iterates
# still move the terminal norms by about 1e-3, so a different outer scheme
# may legitimately land 1e-3 away.  observability: 20 power iterations stop
# up to 0.7% below the converged quotient at h = 1/128, so an exact
# eigen-solve of the same forms may raise the estimates by that much.
REFERENCE_RTOL = {"control": 1e-6, "solve": 1e-2, "contraction": 1e-9,
                  "observability": 2e-2}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    grid_h: float
    why: str
    overrides: dict = field(default_factory=dict)

    def argv(self, scenario_path, seed, outdir, grid_h=None):
        return [self.command, scenario_path, "--seed", str(seed),
                "--grid-h", repr(self.grid_h if grid_h is None else grid_h),
                "--out", outdir, "--quiet"]


WORKLOADS = {w.name: w for w in (
    Workload(
        "synth_fine", "control", 1.0 / 256,
        "isolates control, forward, adjoint and model: about 300 Hessian applies of CG "
        "on one frozen trace at 260x91; no fixed point, no thread pool"),
    Workload(
        "solve_coarse", "solve", 1.0 / 64,
        "isolates fixed_point: 30 damped outer iterations at 80x28, each a new trace "
        "and a warm-started CG, so per-call overhead dominates; no thread pool"),
    Workload(
        "observe_sweep", "observability", 1.0 / 128,
        "isolates observability and adjoint: about 2.4k single-column adjoint solves "
        "and eigh over three horizons, probes on the thread pool; no CG",
        {"observability": {"horizons": [0.2, 0.35, 0.5], "male_lo": [0.2],
                           "male_hi": [0.9], "probes": 8, "power_iters": 20,
                           "num_traces": 3}}),
    Workload(
        "contract_trials", "contraction", 1.0 / 256,
        "isolates forward and util.map_parallel: 400 frozen sweeps at 260x91, each on "
        "a new trace, on the thread pool; nothing for a per-trace cache to reuse",
        {"contraction": {"trials": 200, "amplitude": 1.0}}),
)}


def write_scenario(root, workload, seed, path):
    """Generate the workload's scenario for ``seed``; returns the family index."""
    with open(os.path.join(root, "scenarios", "example.json")) as handle:
        raw = json.load(handle)
    member = random.Random(seed).randrange(len(FAMILY))
    m0, f0 = FAMILY[member]
    raw["initial"] = {"m0": {"kind": "expr", "expr": m0},
                      "f0": {"kind": "expr", "expr": f0}}
    raw.update(copy.deepcopy(workload.overrides))
    with open(path, "w") as handle:
        json.dump(raw, handle, indent=2, sort_keys=True)
    return member


def _report(outdir):
    with open(os.path.join(outdir, "report.json")) as handle:
        return json.load(handle)


def _observability_rows(outdir):
    with open(os.path.join(outdir, "observability.csv"), newline="") as handle:
        return list(csv.DictReader(handle))


def scalars(workload, outdir):
    """The reported numbers compared against the stored references."""
    if workload.command == "observability":
        out = {}
        for row in _observability_rows(outdir):
            out[f"estimate_T{float(row['T']):g}"] = float(row["estimate"])
            out[f"margin_T{float(row['T']):g}"] = float(row["margin"])
        return out
    s = _report(outdir)["scalars"]
    keys = {"control": ("terminal_m_norm", "terminal_f_norm", "J_value"),
            "solve": ("terminal_m_norm", "terminal_f_norm", "J_value",
                      "nonlinear_m_norm", "nonlinear_f_norm"),
            "contraction": ("max_ratio", "sigma_hat")}[workload.command]
    return {k: float(s[k]) for k in keys}


def check_outputs(workload, outdir, exit_code, scenario_path):
    """Errors in one call's outputs; an empty list means the call is correct."""
    errors = []
    if exit_code != EXPECTED_EXIT:
        errors.append(f"exit code {exit_code}, expected {EXPECTED_EXIT}")
    with open(scenario_path) as handle:
        raw = json.load(handle)
    if workload.command == "observability":
        rows = _observability_rows(outdir)
        horizons = raw["observability"]["horizons"]
        if [float(r["T"]) for r in rows] != [float(t) for t in horizons]:
            errors.append(f"observability rows {[r['T'] for r in rows]} "
                          f"do not match horizons {horizons}")
        for r in rows:
            estimate = float(r["estimate"])
            if r["diverged_flag"] != "0" or not (math.isfinite(estimate) and estimate > 0):
                errors.append(f"T={r['T']}: estimate {r['estimate']} "
                              f"diverged {r['diverged_flag']}")
        return errors

    report = _report(outdir)
    if report["flags"] != EXPECTED_FLAGS:
        errors.append(f"flags {report['flags']}, expected {EXPECTED_FLAGS}")
    s = report["scalars"]
    if workload.command in ("control", "solve"):
        target = raw["penalty"]["target_norm"]
        names = ["terminal_m_norm", "terminal_f_norm"]
        if workload.command == "solve":
            names += ["nonlinear_m_norm", "nonlinear_f_norm"]
            if not s["fixed_point_converged"]:
                errors.append("fixed point not converged")
        for name in names:
            if not s[name] <= target:
                errors.append(f"{name} {s[name]:.6g} above target {target:.6g}")
    if workload.command == "contraction":
        if not s["max_ratio"] <= s["bound"]:
            errors.append(f"max_ratio {s['max_ratio']:.6g} above bound {s['bound']:.6g}")
        if s["trials"] != raw["contraction"]["trials"]:
            errors.append(f"{s['trials']} trials, expected {raw['contraction']['trials']}")
    return errors


def reference_drift(workload, outdir, reference):
    """(largest relative drift, errors) of the scalars against ``reference``."""
    measured = scalars(workload, outdir)
    rtol = REFERENCE_RTOL[workload.command]
    worst = 0.0
    errors = []
    if set(measured) != set(reference):
        return math.inf, [f"scalars {sorted(measured)} differ from reference "
                          f"{sorted(reference)}"]
    for key, ref in reference.items():
        drift = abs(measured[key] - ref) / max(abs(ref), 1e-300)
        worst = max(worst, drift)
        if drift > rtol:
            errors.append(f"{key} = {measured[key]!r}, reference {ref!r} "
                          f"(relative drift {drift:.3g} > {rtol:g})")
    return worst, errors
