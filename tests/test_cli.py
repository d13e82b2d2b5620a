"""Command-line tests: exit codes, file outputs, byte determinism."""

import csv
import json

import numpy as np
import pytest

from subspace_dfo.cli import main

# The CSV schemas are a contract, so they are spelled out here: a reordered
# record field must fail these tests.
CSV_HEADER = "variant,d,p,method,metric,value,std_error,n_sims,seed"
TRACE_HEADER = "iteration,eval_count,best_value,step_size"


def test_formula_text_output(capsys):
    assert main(["formula", "--variant", "mb", "--p", "2", "--d", "4"]) == 0
    out = capsys.readouterr().out
    assert "per-iteration" in out and "0.666666666667" in out


def test_formula_csv_includes_per_work(tmp_path):
    out = tmp_path / "f.csv"
    code = main(
        [
            "formula", "--variant", "ds", "--p", "2", "--d", "8",
            "--cores-model", "4", "--format", "csv", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert any("per-work(4)" in line for line in lines)


@pytest.mark.parametrize(
    "args",
    [
        ["formula", "--variant", "ds", "--p", "2", "--d", "10"],
        ["mc", "--variant", "ds", "--p", "2", "--d", "10", "--nsims", "100"],
    ],
    ids=["formula", "mc"],
)
def test_text_format_honours_out(tmp_path, capsys, args):
    assert main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "f.txt"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed and "per-iteration" in printed


def test_formula_rejects_invalid_dimension(capsys):
    assert main(["formula", "--variant", "ds", "--p", "5", "--d", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_mc_json_output(capsys):
    code = main(
        ["mc", "--variant", "mb", "--d", "12", "--p", "12", "--nsims", "500", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["value"] == 1.0 and rows[0]["std_error"] == 0.0


def test_mc_per_evaluation_flag(capsys):
    code = main(
        [
            "mc", "--variant", "ds", "--d", "8", "--p", "1",
            "--nsims", "400", "--per-evaluation", "--format", "json",
        ]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["metric"] == "per-evaluation"


def test_figure_writes_csv_and_manifest(tmp_path, capsys):
    code = main(
        ["figure", "ds-vary-p", "--nsims", "200", "--seed", "1", "--out", str(tmp_path)]
    )
    assert code == 0
    csv_path = tmp_path / "ds-vary-p.csv"
    manifest_path = tmp_path / "ds-vary-p.manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    manifest = json.loads(manifest_path.read_text())
    assert manifest["spec"]["n_sims"] == 200


def test_figure_manifest_records_draws_and_environment(tmp_path):
    assert main(["figure", "ds-vary-d", "--nsims", "100", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "ds-vary-d.manifest.json").read_text())
    assert manifest["mc_draws"] == (
        "one draw per figure, from the row stream of its largest d; a cell at d reads its first d "
        "coordinates"
    )
    env = manifest["environment"]
    assert env["numpy"] == np.__version__
    assert env["platform"] and env["python"]
    assert isinstance(env["usable_cpus"], int) and env["usable_cpus"] >= 1


def test_figure_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(
            ["figure", "mb-vary-d", "--nsims", "300", "--seed", "0", "--out", str(out)]
        ) == 0
    assert (a / "mb-vary-d.csv").read_bytes() == (b / "mb-vary-d.csv").read_bytes()


def test_figure_config_file_with_flag_override(tmp_path):
    config = {
        "name": "ds-vary-d",
        "variant": "ds",
        "d_values": [8],
        "p_rule": [1, 2],
        "n_sims": 150,
        "include": ["exact", "mc"],
    }
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(config))
    code = main(
        [
            "figure", "ds-vary-d", "--config", str(cfg_path),
            "--seed", "7", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "ds-vary-d.manifest.json").read_text())
    assert manifest["spec"]["n_sims"] == 150
    assert manifest["spec"]["seed"] == 7
    assert manifest["spec"]["include"] == ["exact", "mc"]


def test_figure_parallel_sweep_reports_argmax(tmp_path):
    code = main(
        [
            "figure", "parallel-sweep", "--variant", "mb", "--d", "32",
            "--cores-model", "1,2", "--nsims", "200", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "parallel-sweep.manifest.json").read_text())
    assert manifest["argmax"]["1"] == 1
    assert manifest["argmax"]["2"] == 2
    assert manifest["ties"]["2"] == [2, 4]
    # The sweep is exact, so replicate count and seed do not shape it.
    assert "n_sims" not in manifest["spec"] and "seed" not in manifest["spec"]


def test_figure_grid_refuses_cores_model(tmp_path, capsys):
    # --cores-model sets only the sweep's core counts; a grid refuses it
    # rather than run as if it were absent.
    out = tmp_path / "out"
    assert main(["figure", "ds-vary-d", "--cores-model", "4", "--out", str(out)]) == 2
    assert "--cores-model" in capsys.readouterr().err
    assert not out.exists()


def test_figure_parallel_sweep_notes_ignored_flags(tmp_path, capsys):
    # The sweep is exact: --nsims and --seed are accepted, named on stderr
    # as ignored, and leave the CSV as it is without them.
    plain, flagged = tmp_path / "plain", tmp_path / "flagged"
    assert main(["figure", "parallel-sweep", "--out", str(plain)]) == 0
    assert "note" not in capsys.readouterr().err
    code = main(
        ["figure", "parallel-sweep", "--nsims", "5", "--seed", "3", "--out", str(flagged)]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--nsims and --seed change nothing" in err
    csv = "parallel-sweep.csv"
    assert (flagged / csv).read_bytes() == (plain / csv).read_bytes()


def test_figure_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("SUBSPACE_DFO_OUTDIR", str(tmp_path))
    code = main(["figure", "mb-vary-p", "--nsims", "100"])
    assert code == 0
    assert (tmp_path / "mb-vary-p.csv").exists()


def test_optimize_writes_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(
        [
            "optimize", "--function", "sphere-quadratic", "--d", "10", "--p", "2",
            "--iteration", "mb", "--budget", "120", "--seed", "4", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) > 2
    assert "final best" in capsys.readouterr().err


def test_optimize_budget_zero_single_row(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(
        [
            "optimize", "--function", "rosenbrock", "--d", "6", "--p", "1",
            "--budget", "0", "--out", str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 2


def test_optimize_unknown_function_is_an_error():
    with pytest.raises(SystemExit):
        main(["optimize", "--function", "mystery", "--d", "5", "--p", "1", "--budget", "10"])


def test_unknown_figure_is_an_error():
    with pytest.raises(SystemExit):
        main(["figure", "nonexistent-figure"])


def test_verify_small_run_exits_cleanly(tmp_path, capsys):
    # Exit code reflects gate status; the printed report covers every criterion.
    code = main(["verify", "--nsims", "2000", "--seed", "0", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    for criterion in range(1, 11):
        assert f"criterion {criterion} " in out
    assert (tmp_path / "verify_gates.csv").exists()
    assert code in (0, 1)


def test_verify_with_a_zero_standard_error_fails_without_a_traceback(capsys):
    # At n = 2 and seed 3 both p = 1 model costs are 2, so that cell's SE is 0:
    # its z is infinite and gate 10 fails, as any other gate may at n = 2.
    assert main(["verify", "--nsims", "2", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] criterion 10 (optimizer-behavior)" in captured.out
    assert "max p=1 model cost |z| from 1.5 = inf" in captured.out
    assert "Traceback" not in captured.err


def test_figure_manifest_reports_mc_against_exact(tmp_path):
    # The manifest's summary is recomputed here from the figure's own CSV.
    assert main(["figure", "mb-vary-d", "--nsims", "300", "--seed", "5",
                 "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader((tmp_path / "mb-vary-d.csv").read_text().splitlines()))
    exact = {(r["p"], r["d"]): float(r["value"]) for r in rows if r["method"] == "exact"}
    mc = [r for r in rows if r["method"] == "mc"]
    z = {
        f"(p={r['p']}; d={r['d']})": abs(float(r["value"]) - exact[r["p"], r["d"]])
        / float(r["std_error"])
        for r in mc if float(r["std_error"]) > 0
    }
    at = max(z, key=z.get)
    manifest = json.loads((tmp_path / "mb-vary-d.manifest.json").read_text())
    assert manifest["mc_vs_exact"] == {
        "cells": len(mc), "passed": True, "max_abs_z": z[at], "at": at,
    }
    assert len(mc) - len(z) == 8  # p = d: zero SE, checked for equality


def test_manifests_record_sampler(tmp_path):
    assert main(["figure", "mb-vary-p", "--nsims", "100", "--out", str(tmp_path)]) == 0
    assert main(["verify", "--nsims", "200", "--out", str(tmp_path)]) in (0, 1)
    for name in ("mb-vary-p.manifest.json", "verify_manifest.json"):
        manifest = json.loads((tmp_path / name).read_text())
        assert manifest["sampler"] == (
            "reduced: ds p normals + chi-square tail, mb chi-square head + tail; "
            "full-basis: g reflected by max(p) fresh Householder reflections, "
            "one draw per d, read at each p"
        )


def test_mc_refuses_single_replicate(capsys):
    code = main(["mc", "--variant", "ds", "--d", "8", "--p", "1", "--nsims", "1"])
    assert code == 2
    assert "n_sims must be at least 2 for a standard error, got 1" in capsys.readouterr().err


def test_figure_refuses_single_replicate(tmp_path, capsys):
    code = main(["figure", "ds-vary-d", "--d", "8", "--nsims", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "n_sims must be at least 2 for a standard error, got 1" in capsys.readouterr().err
    assert not (tmp_path / "ds-vary-d.csv").exists()


def test_verify_rejects_single_replicate(capsys):
    code = main(["verify", "--nsims", "1"])
    assert code == 2
    assert "n_sims must be at least 2 for a standard error, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("nsims", ["x", "2.5"])
def test_verify_names_a_non_integer_replicate_count(capsys, nsims):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nsims", nsims])
    assert exc.value.code == 2
    assert f"argument --nsims: invalid int value: '{nsims}'" in capsys.readouterr().err


SPEC = {"name": "ds-vary-d", "variant": "ds", "d_values": [8], "n_sims": 100}


@pytest.mark.parametrize(
    "config,message",
    [
        ({"name": "ds-vary-d", "variant": "ds", "d_values": [8], "nsim": 5},
         "unknown spec keys ['nsim']"),
        ({**SPEC, "n_sims": None}, "n_sims must be an integer, got None"),
        ([1, 2], "spec must be an object of named fields, got [1, 2]"),
        ({**SPEC, "d_values": "8"}, "d_values must be a list of integers, got '8'"),
        ({**SPEC, "d_values": [8.5]}, "d_values must be a list of integers, got [8.5]"),
        ({**SPEC, "d_values": [True]}, "d_values must be a list of integers, got [True]"),
        ({**SPEC, "p_rule": [1.5]}, "p_rule must be a list of integers, got [1.5]"),
        ({**SPEC, "p_rule": [True]}, "p_rule must be a list of integers, got [True]"),
        ({**SPEC, "n_sims": "100"}, "n_sims must be an integer, got '100'"),
        ({**SPEC, "n_sims": True}, "n_sims must be an integer, got True"),
        ({**SPEC, "seed": 1.5}, "seed must be a 64-bit unsigned integer, got 1.5"),
        ({**SPEC, "include": "formula"}, "include must be a list of names, got 'formula'"),
        ({**SPEC, "include": []}, "include must name at least one value, got none"),
        ({**SPEC, "d_values": [8, 8]}, "d_values must not repeat a value, got [8, 8]"),
        ({**SPEC, "p_rule": [1, 2, 1]}, "p_rule must not repeat a value, got [1, 2, 1]"),
        ({**SPEC, "seed": -1}, "seed must be a 64-bit unsigned integer, got -1"),
        ({**SPEC, "seed": 2**64}, f"seed must be a 64-bit unsigned integer, got {2**64}"),
        ({**SPEC, "d_values": []}, "d_values must name at least one value, got none"),
        ({**SPEC, "outputs": "decrease"},
         "config outputs 'decrease' disagrees with figure ds-vary-d, "
         "whose outputs is per-iteration"),
        ({**SPEC, "p_rule": []}, "p_rule must name at least one value, got none"),
        ({**SPEC, "include": ["formula"]},
         "include must be one of ('exact', 'mc', 'asymptotic'), got 'formula'"),
    ],
)
def test_figure_config_bad_key_is_named(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["figure", "ds-vary-d", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ds-vary-d.csv").exists()


def test_parallel_sweep_names_core_count_with_empty_grid(tmp_path, capsys):
    code = main(["figure", "parallel-sweep", "--d", "3", "--out", str(tmp_path)])
    assert code == 2
    assert "c=8 cores has an empty p grid at d=3" in capsys.readouterr().err


def test_figure_zero_dimension_is_refused(tmp_path, capsys):
    code = main(["figure", "ds-vary-d", "--d", "0", "--nsims", "100", "--out", str(tmp_path)])
    assert code == 2
    assert "d_values must be positive, got (0,)" in capsys.readouterr().err
    assert not (tmp_path / "ds-vary-d.csv").exists()


def test_figure_variant_disagreeing_with_grid_is_refused(tmp_path, capsys):
    args = ["figure", "ds-vary-d", "--d", "8", "--nsims", "100", "--out", str(tmp_path)]
    assert main(args + ["--variant", "mb"]) == 2
    assert "--variant mb disagrees with figure ds-vary-d" in capsys.readouterr().err
    assert not (tmp_path / "ds-vary-d.csv").exists()
    assert main(args + ["--variant", "ds"]) == 0
    assert (tmp_path / "ds-vary-d.csv").exists()


def test_parallel_sweep_zero_dimension_is_refused(tmp_path, capsys):
    code = main(["figure", "parallel-sweep", "--d", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "dimension must be a positive integer, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("content,reason", [(None, "No such file"), ("{bad", "Expecting")])
def test_figure_unreadable_config_file_is_named(tmp_path, capsys, content, reason):
    path = tmp_path / "spec.json"
    if content is not None:
        path.write_text(content)
    code = main(["figure", "ds-vary-d", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"cannot read --config {path}: " in err and reason in err


@pytest.mark.parametrize(
    "cores,message",
    [
        ("0", "error: core count must be a positive integer, got 0"),
        ("x", "argument --cores-model: expected integers such as 2,4,8, got 'x'"),
        ("2,-1", "error: core count must be a positive integer, got -1"),
        ("2,,4", "argument --cores-model: expected integers such as 2,4,8, got '2,,4'"),
    ],
    ids=["0", "x", "2,-1", "2,,4"],
)
def test_parallel_sweep_bad_core_count_names_flag(tmp_path, capsys, cores, message):
    # argparse refuses a token that is not an integer; the sweep refuses the list.
    try:
        code = main(["figure", "parallel-sweep", "--cores-model", cores, "--out", str(tmp_path)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "parallel-sweep.csv").exists()


@pytest.mark.parametrize("cores", ["0", "-1"])
def test_a_bad_core_count_gets_one_refusal_from_formula_and_sweep(tmp_path, capsys, cores):
    formula = main(["formula", "--variant", "ds", "--d", "8", "--p", "2", "--cores-model", cores])
    refusal = capsys.readouterr().err
    sweep = main(["figure", "parallel-sweep", "--cores-model", cores, "--out", str(tmp_path)])
    assert formula == sweep == 2
    assert capsys.readouterr().err == refusal
    assert f"core count must be a positive integer, got {cores}" in refusal


@pytest.mark.parametrize(
    "args,parent",
    [
        (["formula", "--variant", "ds", "--d", "10", "--p", "2", "--format", "csv"], "missing"),
        (["mc", "--variant", "ds", "--d", "10", "--p", "2", "--nsims", "10", "--format", "csv"],
         "missing"),
        (["optimize", "--function", "sphere-quadratic", "--d", "4", "--p", "2", "--budget", "9"],
         "missing"),
        (["figure", "parallel-sweep"], "file"),
        (["verify", "--nsims", "2"], "file"),
    ],
    ids=["formula", "mc", "optimize", "figure", "verify"],
)
def test_unwritable_out_is_reported(tmp_path, capsys, args, parent):
    # Below a missing directory or below a regular file nothing can be written.
    (tmp_path / "file").write_text("")
    out = tmp_path / parent / "out.csv"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and str(out) in err


@pytest.mark.parametrize("flag", ["--nsims", "--seed"])
def test_formula_takes_no_sampling_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["formula", "--variant", "ds", "--d", "10", "--p", "2", flag, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config,message",
    [
        ({"name": "mb-vary-p", "variant": "mb", "d_values": [8], "n_sims": 100},
         "config name 'mb-vary-p' disagrees with figure ds-vary-d"),
        ({"variant": "mb", "d_values": [8], "n_sims": 100},
         "config variant 'mb' disagrees with figure ds-vary-d, whose variant is ds"),
    ],
    ids=["name", "variant"],
)
def test_figure_config_naming_another_figure_is_refused(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["figure", "ds-vary-d", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_figure_config_cannot_change_the_figure_metric(tmp_path, capsys):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({"outputs": "decrease"}))
    out = tmp_path / "out"
    code = main(["figure", "ds-perfev-vary-d", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert (
        "config outputs 'decrease' disagrees with figure ds-perfev-vary-d, "
        "whose outputs is per-evaluation"
    ) in capsys.readouterr().err
    assert not out.exists()


def _figure_rows(tmp_path, name, config, *flags):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(config))
    args = ["figure", name, "--config", str(cfg_path), "--out", str(tmp_path), *flags]
    assert main(args) == 0
    lines = (tmp_path / f"{name}.csv").read_text().splitlines()
    return [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines[1:]]


# Keys a config leaves out keep the named figure's values.
def test_figure_perfev_config_keeps_per_evaluation_rows(tmp_path):
    config = {"name": "ds-perfev-vary-d", "variant": "ds", "d_values": [8], "n_sims": 100}
    rows = _figure_rows(tmp_path, "ds-perfev-vary-d", config)
    assert rows and {r["metric"] for r in rows} == {"per-evaluation"}


def test_figure_vary_p_config_keeps_the_vary_p_list(tmp_path):
    config = {"name": "mb-vary-p", "variant": "mb", "d_values": [1000], "n_sims": 100}
    rows = _figure_rows(tmp_path, "mb-vary-p", config)
    assert sorted({int(r["p"]) for r in rows}) == [1, 2, 3, 4, 5, 10, 20, 50, 100, 200, 500, 1000]
    assert {r["method"] for r in rows} == {"exact", "mc"}


def test_figure_vary_p_below_the_largest_p_runs_the_p_values_up_to_d(tmp_path):
    args = ["figure", "ds-vary-p", "--d", "64", "--nsims", "100", "--out", str(tmp_path)]
    assert main(args) == 0
    lines = (tmp_path / "ds-vary-p.csv").read_text().splitlines()
    rows = [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines[1:]]
    assert sorted({int(r["p"]) for r in rows}) == [1, 2, 3, 4, 5, 10, 20, 50]
    assert {r["d"] for r in rows} == {"64"}


def test_figure_flag_beats_config_key(tmp_path):
    config = {"d_values": [8], "n_sims": 100, "seed": 5}
    rows = _figure_rows(tmp_path, "ds-vary-d", config, "--seed", "7", "--d", "16")
    mc = [r for r in rows if r["method"] == "mc"]
    assert {r["seed"] for r in mc} == {"7"} and {r["d"] for r in rows} == {"16"}
    assert {r["n_sims"] for r in mc} == {"100"}


def test_figure_parallel_sweep_refuses_config(tmp_path, capsys):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({"n_sims": 100}))
    out = tmp_path / "out"
    code = main(["figure", "parallel-sweep", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert f"--config {cfg_path} does not apply to parallel-sweep" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta0", ["nan", "inf"])
def test_optimize_non_finite_step_is_refused(capsys, delta0):
    args = ["optimize", "--function", "sphere-quadratic", "--d", "5", "--p", "2",
            "--budget", "30", "--delta0", delta0]
    assert main(args) == 2
    assert f"error: initial_step must be finite, got {delta0}" in capsys.readouterr().err


def test_optimize_non_finite_objective_is_reported(capsys):
    args = ["optimize", "--function", "rosenbrock", "--d", "5", "--p", "2",
            "--budget", "30", "--delta0", "1e200"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: objective 'rosenbrock' returned inf")


def test_optimize_non_finite_objective_message_summarises_the_point(capsys):
    args = ["optimize", "--function", "rosenbrock", "--d", "1000", "--p", "2",
            "--budget", "30", "--delta0", "1e200"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: objective 'rosenbrock' returned inf")
    assert "dimension 1000" in err and "..." in err
    assert len(err) < 500
