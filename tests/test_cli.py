import argparse
import csv
import json
import os
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


def test_observability_command(scenario_path, tmp_path):
    out = str(tmp_path / "o")
    assert run_command(["observability", scenario_path, "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, "observability.csv")) as handle:
        header = handle.readline().strip().split(",")
        rows = handle.readlines()
    assert header == ["T", "a1", "a2", "margin", "estimate", "diverged_flag"]
    assert len(rows) == 1


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
    # 260x91 control runs too
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    cases = (("control", 64, ("v_m", "v_f")), ("solve", 64, ("v_m", "v_f", "m", "f")),
             ("control", 256, ("v_m", "v_f")))
    children = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for command, cells, _ in cases:
            out = tmp_path / f"{command}_{cells}_{threads}"
            children.append(subprocess.Popen(
                [sys.executable, "-m", "popctrl.cli", command, EXAMPLE, "--grid-h",
                 repr(1.0 / cells), "--out", str(out), "--quiet"], env=env))
    assert [child.wait(timeout=60) for child in children] == [0] * len(children)
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
