import argparse
import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from popctrl import build_grid, read_field_csv, region_mask
from popctrl import cli
from popctrl.cli import run_command

FAST_SCENARIO = {
    "model": {
        "male_mortality": 0.2,
        "female_mortality": 0.3,
        "fertility": {
            "kind": "separable",
            "age_profile": {"kind": "expr", "expr": "1.3 * step(a - 0.15)"},
            "response": {"kind": "expr", "expr": "p / (1 + p)"},
            "response_lipschitz": 1.0,
        },
        "male_fertility_weight": {"kind": "expr", "expr": "4 * a * (1 - a)"},
        "female_fraction": 0.6,
        "fertility_onset": 0.15,
        "max_age": 1.0,
    },
    "geometry": {
        "male_window": [0.2, 0.9],
        "female_window": [0.1, 0.95],
        "horizon": 0.35,
        "mode": "BOTH",
    },
    "grid": {"target_h": 0.0625},
    "initial": {
        "m0": {"kind": "expr", "expr": "sin(3.141592653589793 * a)**2"},
        "f0": {"kind": "expr", "expr": "0.5 * exp(-30 * (a - 0.55)**2)"},
    },
    "terminal": {"n_T": {"kind": "expr", "expr": "exp(-30 * (a - 0.5)**2)"}},
    "penalty": {"target_norm": 0.002, "max_cg_iters": 2000, "cg_tol": 1e-8,
                "schedule": {"start": 0.01, "ratio": 10.0, "stages": 3}},
    "fixed_point": {"omega": 0.5, "fp_tol": 0.001, "max_outer_iters": 25},
    "observability": {"probes": 4, "num_traces": 2},
    "contraction": {"trials": 5, "amplitude": 1.0},
}


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(FAST_SCENARIO))
    return str(path)


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_validate_exit_codes(scenario_path, tmp_path):
    out = str(tmp_path / "out")
    # reference scenario trips the onset/window check, hence flagged exit 1
    assert run_command(["validate", scenario_path, "--out", out, "--quiet"]) == 1
    report = json.loads(_read(os.path.join(out, "validation.json")))
    assert report["ok"] is False
    clean = json.loads(json.dumps(FAST_SCENARIO))
    clean["geometry"]["male_window"] = [0.1, 0.9]
    clean_path = tmp_path / "clean.json"
    clean_path.write_text(json.dumps(clean))
    assert run_command(["validate", str(clean_path), "--out", out, "--quiet"]) == 0


def test_simulate_outputs_and_roundtrip(scenario_path, tmp_path):
    out = str(tmp_path / "out")
    assert run_command(["simulate", scenario_path, "--out", out, "--quiet"]) == 0
    for name in ("m.csv", "f.csv", "traces.csv", "report.json"):
        assert os.path.exists(os.path.join(out, name))
    grid = build_grid(1.0, 0.35, 0.0625)
    field = read_field_csv(os.path.join(out, "m.csv"), grid)
    assert np.all(np.isfinite(field.values))
    report = json.loads(_read(os.path.join(out, "report.json")))
    assert report["command"] == "simulate"
    assert report["flags"] == []


def test_adjoint_requires_terminal_data(scenario_path, tmp_path):
    raw = json.loads(json.dumps(FAST_SCENARIO))
    del raw["terminal"]
    path = tmp_path / "no_terminal.json"
    path.write_text(json.dumps(raw))
    assert run_command(["adjoint", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    out = str(tmp_path / "adj")
    assert run_command(["adjoint", scenario_path, "--out", out, "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "n.csv"))
    assert os.path.exists(os.path.join(out, "l.csv"))


def test_control_success_and_flags(scenario_path, tmp_path):
    out = str(tmp_path / "ok")
    assert run_command(["control", scenario_path, "--out", out, "--quiet"]) == 0
    report = json.loads(_read(os.path.join(out, "report.json")))
    assert report["flags"] == []
    assert report["scalars"]["terminal_m_norm"] <= 0.002

    bad = json.loads(json.dumps(FAST_SCENARIO))
    bad["geometry"]["horizon"] = 0.25  # below the strict threshold 0.3
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    out_bad = str(tmp_path / "bad")
    assert run_command(["control", str(bad_path), "--out", out_bad, "--quiet"]) == 1
    report = json.loads(_read(os.path.join(out_bad, "report.json")))
    assert "NON_ADMISSIBLE" in report["flags"]


def test_no_command_exits_2_with_usage(capsys):
    assert run_command([]) == 2
    assert capsys.readouterr().err.startswith("usage: popctrl ")


def test_error_after_writing_keeps_the_directory_made(scenario_path, tmp_path, monkeypatch,
                                                      capsys):
    # a directory the command made is removed on an error exit only while empty
    from popctrl import pipelines
    from popctrl.errors import NumericalFailure

    def failing(scenario, outdir, seed, log):
        (tmp_path / "made" / "run" / "partial.csv").write_text("t\r\n")
        raise NumericalFailure("lost finiteness")

    monkeypatch.setattr(pipelines, "cmd_simulate", failing)
    out = tmp_path / "made" / "run"
    assert run_command(["simulate", scenario_path, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: lost finiteness\n"
    assert os.listdir(out) == ["partial.csv"]


def test_unknown_subcommand_and_bad_scenario(tmp_path):
    assert run_command(["frobnicate", "x.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"modle\": {}}")
    assert run_command(["simulate", str(bad), "--quiet"]) == 2
    assert run_command(["simulate", str(tmp_path / "missing.json"), "--quiet"]) == 2


def test_solve_deterministic_reports(scenario_path, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert run_command(["solve", scenario_path, "--seed", "7", "--out", out_a,
                        "--quiet"]) == 0
    assert run_command(["solve", scenario_path, "--seed", "7", "--out", out_b,
                        "--quiet"]) == 0
    for name in ("report.json", "v_m.csv", "v_f.csv", "m.csv", "f.csv",
                 "history.csv"):
        assert _read(os.path.join(out_a, name)) == _read(os.path.join(out_b, name))


def test_solve_report_lists_every_stage(scenario_path, tmp_path):
    out = str(tmp_path / "stages")
    assert run_command(["solve", scenario_path, "--out", out, "--quiet"]) == 0
    scalars = json.loads(_read(os.path.join(out, "report.json")))["scalars"]
    with open(os.path.join(out, "history.csv")) as handle:
        walked = list(dict.fromkeys(line.split(",")[0]
                                    for line in handle.read().splitlines()[1:]))
    stages = scalars["stages"]
    assert [float(s["epsilon"]) for s in stages] == [float(e) for e in walked]
    assert len(stages) >= 2
    for key in ("epsilon", "terminal_m_norm", "terminal_f_norm", "iterations",
                "J_value"):
        assert stages[-1][key] == scalars[key]


def test_contraction_command(scenario_path, tmp_path):
    out = str(tmp_path / "c")
    assert run_command(["contraction", scenario_path, "--out", out, "--quiet"]) == 0
    report = json.loads(_read(os.path.join(out, "report.json")))
    assert report["scalars"]["max_ratio"] <= report["scalars"]["bound"]


ONLY_AGE_A = {"mode": "MALE_ONLY", "target_min_age": 0.99}


@pytest.mark.parametrize("overrides, estimate", [
    ({}, None),
    # only the terminal age A is targeted, and it dies in the last age cell
    # (last_cell_survival 0): every trace's estimate is 0, and equal
    # estimates have no spread
    ({"geometry": ONLY_AGE_A}, 0.0),
    ({"geometry": ONLY_AGE_A, "observability": {"power_iters": 5}}, 0.0)],
    ids=["default", "only_age_A", "only_age_A_power"])
def test_observability_command(tmp_path, overrides, estimate):
    raw = json.loads(json.dumps(FAST_SCENARIO))
    for section, values in overrides.items():
        raw[section].update(values)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    out = str(tmp_path / "o")
    assert run_command(["observability", str(path), "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, "observability.csv")) as handle:
        header = handle.readline().strip().split(",")
        rows = handle.readlines()
    assert header == ["T", "a1", "a2", "margin", "estimate", "diverged_flag"]
    assert len(rows) == 1
    if estimate is not None:
        assert float(rows[0].split(",")[4]) == estimate


def _observability_rows(tmp_path, raw):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert run_command(["observability", str(path), "--out", str(out), "--quiet"]) == 0
    return _read(out / "observability.csv").decode().splitlines()[1:]


def test_observability_writes_an_infinite_estimate(tmp_path):
    # the horizon 0.3 is below the time condition's 0.6, and a terminal
    # direction the control regions never see carries initial energy
    raw = json.loads(json.dumps(FAST_SCENARIO))
    raw["geometry"]["female_window"] = [0.05, 0.6]
    raw["observability"] = {"horizons": [0.3], "male_lo": [0.1], "male_hi": [0.5],
                            "probes": 4, "power_iters": 3, "num_traces": 2}
    [row] = _observability_rows(tmp_path, raw)
    assert row.endswith(",inf,1")


def test_observability_in_female_only_mode(tmp_path):
    # the mode has no male window, so the cone probe's rule gets none; the
    # female control observes every direction here
    raw = json.loads(json.dumps(FAST_SCENARIO))
    raw["geometry"]["mode"] = "FEMALE_ONLY"
    [row] = _observability_rows(tmp_path, raw)
    estimate, diverged = row.split(",")[4:]
    assert float(estimate) > 0 and diverged == "0"


def test_observability_without_a_window_writes_the_header_only(tmp_path, monkeypatch):
    # every male_lo at or above every male_hi leaves no window to estimate,
    # and no horizon needs its uncontrolled solve
    from popctrl import pipelines

    monkeypatch.setattr(pipelines, "uncontrolled_trace", None)
    raw = json.loads(json.dumps(FAST_SCENARIO))
    raw["observability"] = {"male_lo": [0.5, 0.9], "male_hi": [0.2, 0.5]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert run_command(["observability", str(path), "--out", str(out), "--quiet"]) == 0
    assert _read(out / "observability.csv") == b"T,a1,a2,margin,estimate,diverged_flag\r\n"


def test_observability_window_sweep_solves_once_per_horizon(tmp_path, monkeypatch):
    from popctrl import pipelines

    def run(name, horizons, male_lo, male_hi):
        raw = json.loads(json.dumps(FAST_SCENARIO))
        raw["observability"] = {"horizons": horizons, "male_lo": male_lo,
                                "male_hi": male_hi, "probes": 4, "power_iters": 3,
                                "num_traces": 2}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        out = str(tmp_path / name)
        assert run_command(["observability", str(path), "--out", out, "--quiet"]) == 0
        return _read(os.path.join(out, "observability.csv")).splitlines(keepends=True)

    solves = []
    solve_forward = pipelines.solve_forward

    def counting(*args, **kwargs):
        solves.append(args[1].horizon)
        return solve_forward(*args, **kwargs)

    monkeypatch.setattr(pipelines, "solve_forward", counting)
    swept = run("sweep", [0.35, 0.5], [0.2, 0.3], [0.8, 0.9])
    assert solves == pytest.approx([0.35, 0.5])  # one solve per horizon, not per window
    # each row is byte-identical to the row of a run with that window alone
    single = [run(f"T{t}_{lo}_{hi}", [t], [lo], [hi])
              for t in (0.35, 0.5) for lo in (0.2, 0.3) for hi in (0.8, 0.9)]
    assert swept[0] == single[0][0] and len(swept) == 9
    assert swept[1:] == [lines[1] for lines in single]


def test_sweep_command(scenario_path, tmp_path):
    sweep = {"base": os.path.basename(scenario_path),
             "parameters": [{"path": "penalty.schedule.stages", "values": [1, 2]}]}
    sweep_path = os.path.join(os.path.dirname(scenario_path), "sweep.json")
    with open(sweep_path, "w") as handle:
        json.dump(sweep, handle)
    out = str(tmp_path / "s")
    code = run_command(["sweep", sweep_path, "--out", out, "--quiet"])
    assert code in (0, 1)  # one-stage runs may be flagged TARGET_NOT_REACHED
    with open(os.path.join(out, "sweep.csv")) as handle:
        lines = handle.read().strip().splitlines()
    assert lines[0].startswith("penalty.schedule.stages")
    assert len(lines) == 3

    # the schedule sets every stage's penalty weight, so two starts whose
    # schedules share no weight give different results
    sweep["parameters"] = [{"path": "penalty.schedule.start", "values": [1e-2, 3e-3]}]
    with open(sweep_path, "w") as handle:
        json.dump(sweep, handle)
    out = str(tmp_path / "start")
    assert run_command(["sweep", sweep_path, "--out", out, "--quiet"]) in (0, 1)
    with open(os.path.join(out, "sweep.csv")) as handle:
        rows = handle.read().strip().splitlines()[1:]
    assert len(rows) == 2
    first, second = (row.split(",")[1:] for row in rows)
    assert first != second

    # two schedules that end on the same penalty weight (1e-4, the first to
    # reach the target) write the same results and tell apart by the stages run
    sweep["parameters"] = [{"path": "penalty.schedule.start", "values": [1e-2, 1e-3]}]
    with open(sweep_path, "w") as handle:
        json.dump(sweep, handle)
    out = str(tmp_path / "same_end")
    assert run_command(["sweep", sweep_path, "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, "sweep.csv"), newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["stages"] for row in rows] == ["3", "2"]
    assert rows[0]["epsilon"] == rows[1]["epsilon"]
    assert float(rows[0]["epsilon"]) == pytest.approx(1e-4, rel=1e-15)



def _input(command, **changes):
    """The FAST_SCENARIO document with top-level ``changes`` (None deletes a
    key), as the input file of ``command``: the base of a one-run sweep file."""
    raw = json.loads(json.dumps(FAST_SCENARIO))
    for key, value in changes.items():
        raw.pop(key) if value is None else raw.update({key: value})
    if command != "sweep":
        return raw
    return {"base": raw, "parameters": [{"path": "penalty.schedule.stages", "values": [1]}]}


RETIRED = "no longer exist: a stage's penalty weight comes from penalty.schedule.start"


@pytest.mark.parametrize("command, document, message", [
    ("sweep", {"base": [1.0], "parameters": [{"path": "x", "values": [1]}]},
     "base: expected an object"),
    ("sweep", _input("sweep", grid=0.0625), "base.grid: expected an object"),
    ("sweep", _input("sweep", grid=3), "base.grid: expected an object"),
    ("sweep", _input("sweep", penalty=dict(FAST_SCENARIO["penalty"], cg_tol=0)),
     "base.penalty.cg_tol: must be > 0"),
    ("sweep", {"base": FAST_SCENARIO, "parameters": "x"},
     "parameters: expected a non-empty list"),
    ("adjoint", _input("adjoint", terminal=None), "adjoint command needs a 'terminal'"),
    ("adjoint", _input("adjoint", geometry=dict(FAST_SCENARIO["geometry"], mode="MALE_ONLY"),
                       terminal={"l_T": 1.0}), "l_T must vanish"),
    ("observability", _input("observability", observability={"horizons": [1e-9]}),
     "target_h=0.0625 must be smaller than min(max_age, horizon)=1e-09"),
    # the retired penalty weights, which moved the hash and no result
    ("control", _input("control", penalty=dict(FAST_SCENARIO["penalty"], epsilon=1e-2)),
     f"penalty: ['epsilon'] {RETIRED}"),
    ("sweep", _input("sweep", penalty=dict(FAST_SCENARIO["penalty"], theta=1e-2)),
     f"base.penalty: ['theta'] {RETIRED}"),
    ("sweep", {"base": FAST_SCENARIO, "parameters": [{"path": 3, "values": [1]}]},
     "parameters[0].path: expected a string"),
    ("sweep", {"base": FAST_SCENARIO, "parameters": [{"path": "grid.target_h", "values": 0.1}]},
     "parameters[0].values: expected a list"),
    ("sweep", {"base": FAST_SCENARIO, "parameters": [{"path": "penalty.stages", "values": [1]}]},
     "parameters[0].path: 'penalty.stages' is not in the base scenario"),
], ids=["base", "grid", "grid-3", "cg_tol", "parameters", "adjoint", "adjoint-mode",
        "observability", "epsilon", "sweep-theta", "sweep-path", "sweep-values",
        "sweep-missing-path"])
def test_sweep_grid_override_on_a_malformed_base_is_an_error(command, document, message,
                                                             tmp_path, capsys):
    # with --grid-h the first two used to end in a traceback and exit 1, the
    # "completed with flags" code; the others exited 2 but left an empty
    # output directory.  The directories the run made go; one that existed stays
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    existing = tmp_path / "existing"
    existing.mkdir()
    for override in ([], ["--grid-h", "0.0625"]):
        assert run_command([command, str(path), *override,
                            "--out", str(existing / "out" / "run"), "--quiet"]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert os.listdir(existing) == []


def test_female_only_mode_via_cli(tmp_path):
    raw = json.loads(json.dumps(FAST_SCENARIO))
    raw["geometry"]["mode"] = "FEMALE_ONLY"
    raw["penalty"]["target_norm"] = 0.0015
    path = tmp_path / "female.json"
    path.write_text(json.dumps(raw))
    out = str(tmp_path / "f")
    assert run_command(["control", str(path), "--out", out, "--quiet"]) == 0
    report = json.loads(_read(os.path.join(out, "report.json")))
    assert report["scalars"]["terminal_f_norm"] <= 0.0015
    grid = build_grid(1.0, 0.35, 0.0625)
    vm = read_field_csv(os.path.join(out, "v_m.csv"), grid)
    assert np.all(vm.values == 0.0)


def test_male_only_tail_norm_reported_as_targeted(tmp_path):
    # the nonlinear norm in the report is the one the target is tested with:
    # the infant ages below target_min_age are exempt in male-only mode
    raw = json.loads(json.dumps(FAST_SCENARIO))
    raw["geometry"].update({"male_window": [0.0, 0.9], "horizon": 0.15,
                            "target_min_age": 0.05, "mode": "MALE_ONLY"})
    raw["grid"]["target_h"] = 0.03125
    raw["penalty"]["target_norm"] = 0.0006
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(raw))
    out = str(tmp_path / "tail")
    code = run_command(["solve", str(path), "--out", out, "--quiet"])
    report = json.loads(_read(os.path.join(out, "report.json")))
    grid = build_grid(1.0, 0.15, 0.03125)
    m_T = read_field_csv(os.path.join(out, "m.csv"), grid).values[:, -1]
    tail = grid.step * region_mask(grid, 0.05, 1.0)
    norm = report["scalars"]["nonlinear_m_norm"]
    assert norm == pytest.approx(float(np.sqrt(tail @ m_T ** 2)), rel=1e-12)
    assert norm < float(np.sqrt(grid.age_weights() @ m_T ** 2))
    reached = norm <= 0.0006
    assert reached == ("TARGET_NOT_REACHED" not in report["flags"])
    assert code == (0 if reached else 1)


def test_nan_target_norm_is_a_configuration_error(tmp_path):
    # json reads a bare NaN; it used to run every stage and exit 1 with
    # TARGET_NOT_REACHED
    raw = json.loads(json.dumps(FAST_SCENARIO))
    raw["penalty"]["target_norm"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(raw))
    assert "NaN" in path.read_text()
    out = str(tmp_path / "nan")
    assert run_command(["control", str(path), "--out", out, "--quiet"]) == 2
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_nan_grid_step_is_a_configuration_error(scenario_path, tmp_path, capsys):
    # it used to surface as "cannot convert float NaN to integer"
    out = str(tmp_path / "nan")
    assert run_command(["simulate", scenario_path, "--grid-h", "nan",
                        "--out", out, "--quiet"]) == 2
    assert "grid.target_h: must be finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))


@pytest.mark.parametrize("command", ["validate", "control"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_grid_step_override_meets_the_scenario_rule(command, value, tmp_path, capsys):
    # --grid-h is checked as the scenario file's grid.target_h is, before any
    # artifact is written: validate used to exit 1 with a validation.json
    raw = json.loads(json.dumps(FAST_SCENARIO))
    raw["grid"]["target_h"] = float(value)
    path = tmp_path / "bad_h.json"
    path.write_text(json.dumps(raw))
    assert run_command([command, str(path), "--out", str(tmp_path / "file"), "--quiet"]) == 2
    from_file = capsys.readouterr().err
    assert from_file.startswith("error: grid.target_h: must be ")

    out = str(tmp_path / "override")
    good = tmp_path / "good.json"
    good.write_text(json.dumps(FAST_SCENARIO))
    assert run_command([command, str(good), "--grid-h", value, "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err == from_file
    assert not os.path.exists(out)


def test_adjoint_mode_mismatch_is_an_error(tmp_path):
    # male-only adjoint admits no female terminal datum
    raw = json.loads(json.dumps(FAST_SCENARIO))
    raw["geometry"]["mode"] = "MALE_ONLY"
    raw["terminal"] = {"l_T": {"kind": "constant", "value": 1.0}}
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(raw))
    assert run_command(["adjoint", str(path), "--out", str(tmp_path), "--quiet"]) == 2


@pytest.mark.parametrize("quiet", ["false", "yes", 2, 0, [True]])
def test_output_quiet_takes_only_true_or_false(quiet, tmp_path, capsys):
    # any value used to count by its truth: "false" silenced a run, and
    # entered the hash as true
    raw = json.loads(json.dumps(FAST_SCENARIO))
    raw["output"] = {"quiet": quiet}
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps(raw))
    assert run_command(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: output.quiet: expected true or false\n"
    assert not os.path.exists(tmp_path / "out")


def test_output_quiet_null_is_absent(tmp_path, capsys):
    hashes = {}
    for quiet in ("absent", None, False, True):
        raw = json.loads(json.dumps(FAST_SCENARIO))
        if quiet != "absent":
            raw["output"] = {"quiet": quiet}
        path = tmp_path / f"{quiet}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / f"out_{quiet}"
        assert run_command(["simulate", str(path), "--out", str(out)]) == 0
        assert (capsys.readouterr().out == "") is (quiet is True)
        hashes[quiet] = json.loads(_read(out / "report.json"))["scenario_hash"]
    assert hashes["absent"] == hashes[None] == hashes[False] != hashes[True]


def test_grid_override_changes_hash(scenario_path, tmp_path):
    out_a = str(tmp_path / "ga")
    out_b = str(tmp_path / "gb")
    assert run_command(["simulate", scenario_path, "--out", out_a, "--quiet"]) == 0
    assert run_command(["simulate", scenario_path, "--grid-h", "0.05",
                        "--out", out_b, "--quiet"]) == 0
    rep_a = json.loads(_read(os.path.join(out_a, "report.json")))
    rep_b = json.loads(_read(os.path.join(out_b, "report.json")))
    assert rep_a["scenario_hash"] != rep_b["scenario_hash"]
    assert rep_b["grid"]["h"] == 0.05


def test_run_command_builds_its_parser_once(scenario_path, tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    argv = ["validate", scenario_path, "--out", str(tmp_path), "--quiet"]
    assert run_command(argv) == run_command(argv) in (0, 1)
    assert built.count("popctrl") == 1


EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "example.json")


def test_blas_thread_count_moves_fields_only_in_the_last_bits(tmp_path):
    # the artifacts are byte-identical for one BLAS thread count; between 1
    # and 2 threads the flags and iterations hold and the fields agree to
    # rounding.  The variable is set for the child processes only.  The
    # products at 80x28 may be too small for a second BLAS thread, so a
    # 260x91 control runs too, and the observability sweep of the
    # observe_sweep bench workload, whose eigh takes a second thread once the
    # Schur complement is wider than 25 rows, as at each of its horizons
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    observe = json.loads(_read(EXAMPLE))
    observe["observability"] = {"horizons": [0.2, 0.35, 0.5], "male_lo": [0.2],
                                "male_hi": [0.9], "probes": 8, "power_iters": 20,
                                "num_traces": 3}
    (tmp_path / "observe.json").write_text(json.dumps(observe))
    cases = (("control", 64, ("v_m", "v_f")), ("solve", 64, ("v_m", "v_f", "m", "f")),
             ("control", 256, ("v_m", "v_f")))
    children = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for command, cells, _ in (*cases, ("observability", 128, ())):
            out = tmp_path / f"{command}_{cells}_{threads}"
            scenario = tmp_path / "observe.json" if command == "observability" else EXAMPLE
            children.append(subprocess.Popen(
                [sys.executable, "-m", "popctrl.cli", command, str(scenario), "--grid-h",
                 repr(1.0 / cells), "--out", str(out), "--quiet"], env=env))
    assert [child.wait(timeout=60) for child in children] == [0] * len(children)
    one, two = (np.loadtxt(tmp_path / f"observability_128_{threads}" / "observability.csv",
                           delimiter=",", skiprows=1) for threads in ("1", "2"))
    assert one.shape == (3, 6)
    # T, a1, a2, margin and diverged_flag; then the estimates
    assert np.array_equal(one[:, [0, 1, 2, 3, 5]], two[:, [0, 1, 2, 3, 5]])
    assert np.allclose(one[:, 4], two[:, 4], rtol=1e-12, atol=0)
    for command, cells, fields in cases:
        one, two = (tmp_path / f"{command}_{cells}_{threads}" for threads in ("1", "2"))
        reports = [json.loads(_read(out / "report.json")) for out in (one, two)]
        assert reports[0]["flags"] == reports[1]["flags"]
        for key in ("iterations", "outer_iterations", "fixed_point_converged"):
            assert reports[0]["scalars"].get(key) == reports[1]["scalars"].get(key)
        assert [stage["iterations"] for stage in reports[0]["scalars"]["stages"]] == \
            [stage["iterations"] for stage in reports[1]["scalars"]["stages"]]
        for name in fields:
            a, b = (np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1)
                    for out in (one, two))
            assert np.array_equal(a[:, :2], b[:, :2])
            assert np.max(np.abs(a[:, 2] - b[:, 2])) <= 1e-13 * np.max(np.abs(a[:, 2]))


SCHEMA = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "scenario_schema.md")


def _documented_scalars():
    """Command -> the keys its table under "`report.json` scalars" in
    docs/scenario_schema.md lists; "stages" -> those of a stage entry."""
    with open(SCHEMA, encoding="utf-8") as handle:
        section = handle.read().split("## `report.json` scalars\n", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for line in section.splitlines():
        heading = re.match(r"^(?:`(\w+)`|Each entry of `(stages)`):$", line)
        if heading:
            keys = tables[heading.group(1) or heading.group(2)] = set()
        row = re.match(r"^\| `(\w+)`", line)
        if row:
            keys.add(row.group(1))
    return tables


def test_report_scalars_are_the_documented_ones(tmp_path):
    # each command writes exactly the scalars its table documents, so a key
    # can neither linger unread nor go undocumented
    documented = _documented_scalars()
    commands = ("simulate", "adjoint", "control", "solve", "contraction")
    assert set(documented) == {*commands, "stages"}
    for command in commands:
        out = tmp_path / command
        assert run_command([command, EXAMPLE, "--grid-h", repr(1 / 64),
                            "--out", str(out), "--quiet"]) == 0
        scalars = json.loads(_read(out / "report.json"))["scalars"]
        assert set(scalars) == documented[command]
        assert "stages" not in scalars or scalars["stages"]
        for stage in scalars.get("stages", []):
            assert set(stage) == documented["stages"]


RATE_SLOTS = ["model.male_mortality", "model.female_mortality", "model.male_fertility_weight",
              "model.fertility.age_profile", "model.fertility.response", "initial.m0",
              "initial.f0", "terminal.n_T", "terminal.l_T"]


def _table(bad):
    return {"kind": "table", "points": [0.0, 0.5, 1.0], "values": [0.2, bad, 0.3]}


HUGE_INT = "1" + "0" * 400

# each malformed spec and the error after the slot's JSON path
MALFORMED_RATES = {
    "nan": ({"kind": "constant", "value": float("nan")}, ".value: must be finite"),
    "infinity": ({"kind": "constant", "value": float("inf")}, ".value: must be finite"),
    "true": ({"kind": "constant", "value": True}, ".value: expected a number"),
    "string": ({"kind": "constant", "value": "x"}, ".value: expected a number"),
    "null": ({"kind": "constant", "value": None}, ": missing required key(s) ['value']"),
    "bare-true": (True, ": expected a number"),
    "table-nan": (_table(float("nan")), ".values[1]: must be finite"),
    "table-string": (_table("x"), ".values[1]: expected a number"),
    "table-list": (_table([0.2]), ".values[1]: expected a number"),
    "unknown-key": ({"kind": "constant", "value": 0.2, "scale": 2},
                    ": unknown key(s) ['scale']"),
    "missing-key": ({"kind": "table", "points": [0.0, 1.0]},
                    ": missing required key(s) ['values']"),
    "expr-number": ({"kind": "expr", "expr": 3}, ".expr: expression must be a non-empty string"),
    # ast reads True as an int, and used to end an int beyond the float range
    # in an OverflowError traceback
    "expr-true": ({"kind": "expr", "expr": "True + 0.5"},
                  ".expr: constant True in expression 'True + 0.5': expected a number"),
    "expr-huge-int": ({"kind": "expr", "expr": HUGE_INT},
                      f".expr: constant {HUGE_INT[:40]} in expression {HUGE_INT!r}: "
                      "must be finite"),
}


def _with(raw, slot, spec):
    """A copy of the document ``raw`` with ``spec`` at the dotted ``slot``."""
    raw = json.loads(json.dumps(raw))
    *parents, key = slot.split(".")
    node = raw
    for name in parents:
        node = node[name]
    node[key] = spec
    return raw


def _exits_2_at_load(command, raw, message, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_command([command, str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", MALFORMED_RATES)
@pytest.mark.parametrize("slot", RATE_SLOTS)
def test_malformed_rate_spec_exits_2_with_its_json_path(slot, case, tmp_path, capsys):
    # NaN and Infinity used to pass the loader, true to load as 1.0 inside a
    # fertility, and a null constant to end in a TypeError traceback
    spec, message = MALFORMED_RATES[case]
    _exits_2_at_load("contraction", _with(FAST_SCENARIO, slot, spec), f"{slot}{message}",
                     tmp_path, capsys)


# rates with non-finite samples that used to load: a NaN weight is not < 0,
# and the response's pole lies between the three male levels that the loader
# sampled.  The weights then failed in the adjoint and the forward solve, and
# the pole ran to exit 0 unflagged, though `validate` failed H3
NON_FINITE_RATES = {
    "weight-pole": ("model.male_fertility_weight", "4 * (1 - a) / a",
                    "model.male_fertility_weight: non-finite value at age 0"),
    "weight-sqrt": ("model.male_fertility_weight", "4 * a * (1 - a) * sqrt(a - 0.5)",
                    "model.male_fertility_weight: non-finite value at age 0"),
    "response-pole": ("model.fertility.response", "p / (1 + p) / (p - 0.5)**2",
                      "model.fertility: non-finite value at p=0.5"),
    # a pole at the second of the mortality table's 8193 points, between the
    # samples: the table is filled at load, and used to fail mid-command
    # without the JSON path
    "mortality-fine-pole": ("model.male_mortality", "1 / abs(a - 0.0001220703125)",
                            "model.male_mortality: non-finite value on the 8193-point table"),
}


@pytest.mark.parametrize("case", NON_FINITE_RATES)
def test_non_finite_rate_samples_exit_2_at_load(case, tmp_path, capsys):
    slot, expr, message = NON_FINITE_RATES[case]
    raw = _with(json.loads(_read(EXAMPLE)), slot, {"kind": "expr", "expr": expr})
    _exits_2_at_load("control", raw, message, tmp_path, capsys)


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text('{"model": ')
    assert run_command(["control", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON: ")
    assert not (tmp_path / "out").exists()


def _leaves(value, path=""):
    """The numbers and flags of a report's scalars by their path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    return {leaf: v for key, item in items for leaf, v in _leaves(item, f"{path}/{key}").items()}


@pytest.mark.parametrize("command", ["control", "solve"])
def test_expr_fertility_reports_match_the_separable_example(command, tmp_path):
    # the example's fertility written as one expression of a and p takes the
    # level sweeps instead of the closed forms of the separable path; the two
    # reports agree to rounding (6.5e-14 relative at most at h = 1/32)
    raw = _with(json.loads(_read(EXAMPLE)), "model.fertility",
                {"kind": "expr", "expr": "1.3 * step(a - 0.15) * p / (1 + p)"})
    (tmp_path / "expr.json").write_text(json.dumps(raw))
    reports = []
    for scenario in (EXAMPLE, tmp_path / "expr.json"):
        out = tmp_path / f"out{len(reports)}"
        assert run_command([command, str(scenario), "--out", str(out), "--quiet"]) == 0
        reports.append(_leaves(json.loads(_read(out / "report.json"))["scalars"]))
    separable, expr = reports
    assert expr.keys() == separable.keys()
    for key, value in separable.items():
        if isinstance(value, float):
            assert expr[key] == pytest.approx(value, rel=1e-10, abs=0), key
        else:
            assert expr[key] == value, key


@pytest.mark.parametrize("window", [[0.2], [0.2, 0.5, 0.9], 0.2])
def test_male_window_that_is_not_a_pair_exits_2(window, tmp_path, capsys):
    raw = _with(FAST_SCENARIO, "geometry.male_window", window)
    _exits_2_at_load("control", raw, "geometry.male_window: expected [lo, hi]", tmp_path, capsys)


def test_expr_rate_without_its_variable_is_the_constant(tmp_path):
    # "0.2" evaluates to one number, which the rate broadcasts over the ages
    fields = []
    for spec in (0.2, {"kind": "expr", "expr": "0.2"}):
        path = tmp_path / f"s{len(fields)}.json"
        path.write_text(json.dumps(_with(FAST_SCENARIO, "model.male_mortality", spec)))
        out = tmp_path / f"o{len(fields)}"
        assert run_command(["control", str(path), "--out", str(out), "--quiet"]) == 0
        fields.append([_read(out / name) for name in ("v_m.csv", "v_f.csv")])
    assert fields[0] == fields[1]
