import dataclasses
import json
import pickle
from collections import Counter

import numpy as np
import pytest

import biotbench.cli as cli
import biotbench.experiments as experiments
import biotbench.stepper as stepper
from biotbench.config import (CSV_COLUMNS, ConfigError, ResultsTable, SchemeSpec,
                              parse_config)
from biotbench.experiments import (cmd_compare, cmd_convergence, cmd_run,
                                   cmd_sweep_alpha, simulate)
from biotbench.analysis import NormKind, error_vs_manufactured
from biotbench.forcing import experiment_42_data, with_coefficients


def base_config(**extra):
    obj = {
        "experiment": "ex42",
        "schemes": [{"scheme": "semi_explicit"}],
        "mesh_levels": [8],
        "tau_levels": [0.25],
        "output_dir": "out",
    }
    obj.update(extra)
    return obj


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        parse_config(base_config(tua_levels=[0.5]))
    assert "config" in str(err.value) and "tua_levels" in str(err.value)

    with pytest.raises(ConfigError) as err:
        parse_config(base_config(schemes=[{"scheme": "semi_explicit", "oops": 1}]))
    assert "config.schemes[0]" in str(err.value)


def test_invalid_values_rejected_with_path():
    with pytest.raises(ConfigError, match="config.experiment"):
        parse_config(base_config(experiment="ex99"))
    with pytest.raises(ConfigError, match=r"config.tau_levels\[0\]"):
        parse_config(base_config(tau_levels=[-0.5]))
    with pytest.raises(ConfigError, match=r"config.mesh_levels\[0\]"):
        parse_config(base_config(mesh_levels=[0]))
    with pytest.raises(ConfigError, match="config.norms"):
        parse_config(base_config(norms=["nope"]))
    with pytest.raises(ConfigError, match="config.workers"):
        parse_config(base_config(workers=0))
    with pytest.raises(ConfigError, match="config.coefficients.permeability"):
        parse_config(base_config(coefficients={"permeability": {"kind": "bad"}}))


def test_scheme_labels():
    assert SchemeSpec(scheme="semi_explicit").label == "semi_explicit"
    assert SchemeSpec(scheme="implicit_picard", picard_max=2).label == "implicit_picard_2"


def test_results_table_schema_and_formatting():
    table = ResultsTable()
    table.add_row(scheme="semi_explicit", h=0.125, tau=0.25, alpha=1.0,
                  err_p_c=0.001234, blowup_flag=False)
    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "semi_explicit"
    assert cells[CSV_COLUMNS.index("err_p_c")] == "0.001234"
    assert cells[CSV_COLUMNS.index("err_u_a")] == ""      # missing stays empty
    assert cells[CSV_COLUMNS.index("blowup_flag")] == "0"
    with pytest.raises(ValueError):
        table.add_row(nonsense=1.0)


def test_cmd_run_produces_single_row():
    config = parse_config(base_config(snapshots=True))
    table, aux = cmd_run(config)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row["scheme"] == "semi_explicit"
    assert row["h"] == 0.125 and row["tau"] == 0.25
    assert row["err_p_c"] > 0 and np.isfinite(row["err_p_c"])
    assert row["picard_mean"] is None  # no inner iteration for this scheme
    assert any(name.startswith("snapshot_") for name in aux)
    snapshot = next(iter(aux.values()))
    assert snapshot.splitlines()[0].split() == ["x", "y", "u1", "u2", "p"]
    assert len(snapshot.splitlines()) == 1 + 81  # header + (8+1)^2 nodes


def test_cmd_run_rejects_multiple_combinations():
    config = parse_config(base_config(tau_levels=[0.25, 0.125]))
    with pytest.raises(ConfigError):
        cmd_run(config)


def test_cmd_run_implicit_reports_picard_columns():
    config = parse_config(base_config(
        experiment="ex41",
        schemes=[{"scheme": "implicit_picard", "picard_max": 10,
                  "picard_tol": 1e-9}],
        tau_levels=[0.125]))
    table, _ = cmd_run(config)
    row = table.rows[0]
    assert row["picard_max"] <= 10
    assert row["picard_mean"] >= 1.0


def test_cmd_convergence_appends_orders_and_plot_series():
    config = parse_config(base_config(
        schemes=[{"scheme": "semi_explicit"},
                 {"scheme": "implicit_picard", "picard_max": 10}],
        mesh_levels=[16], tau_levels=[0.5, 0.25, 0.125]))
    table, aux = cmd_convergence(config)
    assert len(table.rows) == 6
    semi_rows = [r for r in table.rows if r["scheme"] == "semi_explicit"]
    assert semi_rows[0]["order_p_c"] is None
    for row in semi_rows[1:]:
        assert 0.5 < row["order_p_c"] < 1.5
    assert "plot_err_p_c.csv" in aux
    header = aux["plot_err_p_c.csv"].splitlines()[0].split(",")
    assert header == ["tau", "semi_explicit", "implicit_picard_10"]


def test_cmd_convergence_rows_regenerable_from_library_calls():
    config = parse_config(base_config(mesh_levels=[8], tau_levels=[0.5, 0.25]))
    table, _ = cmd_convergence(config)
    row = table.rows[0]
    prob = experiment_42_data()
    mesh, traj, _ = simulate(prob, SchemeSpec(scheme="semi_explicit"),
                             round(1.0 / row["h"]), row["tau"])
    report = error_vs_manufactured(mesh, prob.coeffs, traj, prob.exact_u,
                                   prob.exact_p, kinds=[NormKind.C])
    assert report.relative["p_c"] == row["err_p_c"]


def test_cmd_convergence_implicit_first_order_in_tau_dominated_regime():
    # the implicit scheme is first order in tau as well; measured on step
    # sizes where its (small) temporal error still dominates the spatial
    # floor of the mesh
    config = parse_config(base_config(
        schemes=[{"scheme": "implicit_picard", "picard_max": 10,
                  "picard_tol": 1e-9}],
        mesh_levels=[64], tau_levels=[0.5, 0.25, 0.125]))
    table, _ = cmd_convergence(config)
    for row in table.rows[1:]:
        assert 0.85 <= row["order_p_c"] <= 1.15


def test_cmd_convergence_tau_equals_h():
    config = parse_config(base_config(mesh_levels=[4, 8, 16], tau_levels=[],
                                      tau_equals_h=True))
    table, aux = cmd_convergence(config)
    assert [row["tau"] for row in table.rows] == [0.25, 0.125, 0.0625]
    assert [row["h"] for row in table.rows] == [0.25, 0.125, 0.0625]


def test_cmd_sweep_alpha_flags_blowup():
    config = parse_config({
        "experiment": "ex43",
        "schemes": [{"scheme": "semi_explicit"},
                    {"scheme": "implicit_picard", "picard_max": 50,
                     "picard_tol": 1e-9}],
        "mesh_levels": [16],
        "tau_levels": [0.03125],
        "alpha_values": [0.0, 0.5, 4.0],
    })
    table, aux = cmd_sweep_alpha(config)
    by_alpha = {row["alpha"]: row for row in table.rows}
    assert by_alpha[0.5]["err_triple"] < 0.1
    assert by_alpha[0.5]["blowup_flag"] is False
    assert by_alpha[4.0]["blowup_flag"] is True
    # fully decoupled limit: both schemes do the same diffusion stepping
    assert by_alpha[0.0]["err_triple"] < 1e-12
    assert by_alpha[0.0]["blowup_flag"] is False
    assert "plot_alpha_sweep.csv" in aux


def test_cmd_sweep_alpha_parallel_matches_serial():
    spec = {
        "experiment": "ex43",
        "schemes": [{"scheme": "semi_explicit"},
                    {"scheme": "implicit_picard", "picard_max": 50,
                     "picard_tol": 1e-9}],
        "mesh_levels": [8],
        "tau_levels": [0.125],
        "alpha_values": [0.5, 1.0, 2.0, 4.0],
    }
    serial, _ = cmd_sweep_alpha(parse_config(spec))
    parallel, _ = cmd_sweep_alpha(parse_config({**spec, "workers": 2}))

    def strip_timing(rows):
        return [{k: v for k, v in row.items() if k != "wall_time_s"}
                for row in rows]

    assert strip_timing(serial.rows) == strip_timing(parallel.rows)


def test_cmd_compare_emits_speedup_summary():
    config = parse_config(base_config(
        schemes=[], mesh_levels=[8], tau_levels=[],
        pairs=[{"scheme": {"scheme": "semi_explicit"}, "tau": 0.125},
               {"scheme": {"scheme": "implicit_picard", "picard_max": 2},
                "tau": 0.125}]))
    table, _ = cmd_compare(config)
    assert len(table.rows) == 2
    assert len(table.summary) == 1
    assert table.summary[0].startswith("speedup vs implicit_picard_2")

    single = parse_config(base_config(
        schemes=[], mesh_levels=[8], tau_levels=[],
        pairs=[{"scheme": {"scheme": "semi_explicit"}, "tau": 0.25}]))
    table_single, _ = cmd_compare(single)
    assert len(table_single.rows) == 1
    assert table_single.summary == []


def test_cli_end_to_end(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config()))
    out_dir = tmp_path / "results"
    code = cli.main(["run", "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0
    csv_text = (out_dir / "results.csv").read_text()
    assert csv_text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(csv_text.splitlines()) == 2


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(base_config(bogus=True)))
    assert cli.main(["run", "--config", str(config_path)]) == 2
    assert "bogus" in capsys.readouterr().err

    config_path.write_text("{not json")
    assert cli.main(["run", "--config", str(config_path)]) == 2


def test_alpha_accepts_zero_and_rejects_negative_or_bool(tmp_path, capsys):
    assert parse_config({"experiment": "ex43", "alpha": 0}).alpha == 0
    for bad in (-1, True):
        with pytest.raises(ConfigError) as err:
            parse_config({"experiment": "ex43", "alpha": bad})
        assert err.value.path == "config.alpha"

        config_path = tmp_path / "alpha.json"
        config_path.write_text(json.dumps(base_config(experiment="ex43", alpha=bad)))
        assert cli.main(["run", "--config", str(config_path)]) == 2
        assert "config.alpha" in capsys.readouterr().err


def test_cli_exit_code_on_solver_failure(tmp_path, monkeypatch):
    from biotbench.linsolve import SolverFailure

    def boom(config):
        raise SolverFailure("factorization broke", 1.0)

    monkeypatch.setitem(cli._COMMANDS, "run", boom)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config()))
    assert cli.main(["run", "--config", str(config_path)]) == 3


def test_csv_deterministic_apart_from_timing(tmp_path):
    config = base_config(mesh_levels=[8], tau_levels=[0.5, 0.25])
    t1, _ = cmd_convergence(parse_config(config))
    t2, _ = cmd_convergence(parse_config(config))

    def strip(table):
        lines = []
        idx = CSV_COLUMNS.index("wall_time_s")
        for line in table.to_csv().splitlines():
            cells = line.split(",")
            cells[idx] = ""
            lines.append(",".join(cells))
        return lines

    assert strip(t1) == strip(t2)


@pytest.mark.parametrize("key", ["lam", "M", "kappa_over_nu"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_coefficients_rejected(key, value, tmp_path, capsys):
    # Python's json reads NaN and Infinity, so the schema has to refuse them
    with pytest.raises(ConfigError) as err:
        parse_config(base_config(coefficients={key: value}))
    assert err.value.path == f"config.coefficients.{key}"

    config_path = tmp_path / "coefficients.json"
    config_path.write_text(json.dumps(base_config(coefficients={key: value})))
    assert cli.main(["run", "--config", str(config_path)]) == 2
    assert f"config.coefficients.{key}" in capsys.readouterr().err


# M = 1e308 and a denormal kappa/nu leave pressure operators that SuperLU
# finds exactly singular; with alpha = 0 the block system's pressure
# block is that operator too, so every scheme fails
DEGENERATE = {"M": 1e308, "kappa_over_nu": 1e-320}
SINGULAR = {"alpha": 0, **DEGENERATE}


def _degenerate_run(tmp_path, scheme, coefficients):
    config_path = tmp_path / "degenerate.json"
    config_path.write_text(json.dumps(base_config(
        schemes=[{"scheme": scheme}], mesh_levels=[4], tau_levels=[0.25],
        coefficients=coefficients, output_dir=str(tmp_path / "out"))))
    return cli.main(["run", "--config", str(config_path)])


@pytest.mark.parametrize("scheme", ["semi_explicit", "implicit_picard", "delay_implicit"])
def test_solver_failure_on_degenerate_coefficients_exits_3(scheme, tmp_path, capsys):
    inputs = [SINGULAR] if scheme == "implicit_picard" else [DEGENERATE, SINGULAR]
    for coefficients in inputs:
        assert _degenerate_run(tmp_path, scheme, coefficients) == 3
        assert "solver failure" in capsys.readouterr().err


def test_picard_on_degenerate_coefficients_reaches_T_with_finite_states(tmp_path):
    # the block system is regular once coupled (alpha = 1): its diagonal
    # scales to entries of order one, although products s_i * s_j overflow
    problem = with_coefficients(experiment_42_data(), **DEGENERATE)
    spec = SchemeSpec(scheme="implicit_picard")
    _, trajectory, report = simulate(problem, spec, 4, 0.25)
    assert trajectory[-1].t == problem.T and report.n_steps == len(trajectory) - 1
    assert all(np.isfinite(s.u).all() and np.isfinite(s.p).all() for s in trajectory)
    assert _degenerate_run(tmp_path, "implicit_picard", DEGENERATE) == 0


def test_cmd_sweep_alpha_flags_a_solver_failure_as_blowup():
    config = parse_config({
        "experiment": "ex43",
        "schemes": [{"scheme": "semi_explicit"},
                    {"scheme": "implicit_picard", "picard_max": 3}],
        "mesh_levels": [4],
        "tau_levels": [0.25],
        "alpha_values": [1.0],
        "coefficients": DEGENERATE,
    })
    table, _ = cmd_sweep_alpha(config)
    (row,) = table.rows
    assert row["blowup_flag"] is True and row["err_triple"] is None


SEMI = {"scheme": "semi_explicit"}
PICARD = {"scheme": "implicit_picard"}
PICARD_TOL = {**PICARD, "picard_tol": 1e-6}
EX41_N4 = {"experiment": "ex41", "mesh_levels": [4]}


def _config_error_before_any_run(tmp_path, capsys, monkeypatch, content, path,
                                 command="run", flags=()):
    """cli.main on a config file with this content (None: no file) exits 2 with path."""
    def no_run(*args, **kwargs):
        raise AssertionError("a run started on a malformed config")

    monkeypatch.setattr(experiments, "simulate", no_run)
    config_path = tmp_path / "config.json"
    if isinstance(content, dict):
        content = json.dumps(content).encode()
    if content is not None:
        config_path.write_bytes(content)
    assert cli.main([command, "--config", str(config_path), *flags]) == 2
    assert f"config error: {path}:" in capsys.readouterr().err


@pytest.mark.parametrize("extra, path", [
    ({"coefficients": {"lam": -1}}, "config.coefficients"),
    ({"coefficients": {"mu": 0}}, "config.coefficients"),
    ({"coefficients": {"M": 0}}, "config.coefficients"),
    ({"coefficients": {"kappa_over_nu": 0}}, "config.coefficients"),
    ({"coefficients": {"alpha": -1}}, "config.coefficients"),
    ({"alpha": 0.5, "coefficients": {"alpha": 1.0}}, "config.coefficients.alpha"),
    ({"alpha_values": [0.5, 4.0], "coefficients": {"alpha": 1.0}},
     "config.coefficients.alpha"),
    ({"tau_levels": [0.3]}, "config.tau_levels[0]"),
    ({"pairs": [{"scheme": SEMI, "tau": 0.3}]}, "config.pairs[0].tau"),
    ({**EX41_N4, "reference": {"n_ref": 8, "tau_ref": 0.3, "scheme": SEMI}},
     "config.reference.tau_ref"),
    ({**EX41_N4, "reference": {"n_ref": 6, "tau_ref": 0.125, "scheme": SEMI}},
     "config.reference.n_ref"),
])
def test_coefficients_alpha_steps_and_meshes_that_cannot_run_exit_2(extra, path, tmp_path,
                                                                   capsys, monkeypatch):
    with pytest.raises(ConfigError) as err:
        parse_config(base_config(**extra))
    assert err.value.path == path
    _config_error_before_any_run(tmp_path, capsys, monkeypatch, base_config(**extra), path)


@pytest.mark.parametrize("content, path", [
    (base_config(mesh_levels=[True]), "config.mesh_levels[0]"),
    (base_config(schemes=[{**PICARD, "picard_max": True}]),
     "config.schemes[0].picard_max"),
    (base_config(schemes=[{**PICARD, "picard_tol": "x"}]),
     "config.schemes[0].picard_tol"),
    (base_config(**EX41_N4, reference={"n_ref": True, "tau_ref": 0.125, "scheme": SEMI}),
     "config.reference.n_ref"),
    (base_config(workers=True), "config.workers"),
    (base_config(timing_repeats=True), "config.timing_repeats"),
    (None, "config"),                                  # no such file
    (b'{"experiment": "ex42\xff"}', "config"),         # not UTF-8
])
def test_config_type_holes_exit_2(content, path, tmp_path, capsys, monkeypatch):
    _config_error_before_any_run(tmp_path, capsys, monkeypatch, content, path)


def test_sweep_alpha_with_a_scheme_besides_its_two_exits_2(tmp_path, capsys, monkeypatch):
    # the sweep runs one semi-explicit and one Picard scheme per point; a
    # third scheme would not run, so it is a config error, not dropped
    content = base_config(experiment="ex43", alpha_values=[0.5],
                          schemes=[SEMI, PICARD, {"scheme": "delay_implicit"}])
    _config_error_before_any_run(tmp_path, capsys, monkeypatch, content, "config.schemes",
                                 command="sweep-alpha")


SWEEP = base_config(experiment="ex43", schemes=[SEMI, PICARD], mesh_levels=[4],
                    tau_levels=[0.25], alpha_values=[1.0])


@pytest.mark.parametrize("command, content, path", [
    ("convergence", base_config(tau_levels=[], tau_equals_h=True), "config.mesh_levels"),
    ("convergence", base_config(), "config.tau_levels"),
    ("convergence", base_config(mesh_levels=[4, 8], tau_levels=[0.5, 0.25]),
     "config.mesh_levels"),
    ("convergence", base_config(schemes=[]), "config.schemes"),
    ("sweep-alpha", {**SWEEP, "alpha_values": []}, "config.alpha_values"),
    ("sweep-alpha", {**SWEEP, "mesh_levels": [4, 8]}, "config"),
    ("compare", base_config(), "config.pairs"),
    ("compare", base_config(mesh_levels=[4, 8], pairs=[{"scheme": SEMI, "tau": 0.25}]),
     "config.mesh_levels"),
    # no exact solution and no reference run: no error column, order or plot to write
    ("convergence", base_config(**EX41_N4, tau_levels=[0.5, 0.25]), "config.reference"),
    ("convergence", base_config(experiment="ex43", mesh_levels=[4], tau_levels=[0.5, 0.25]),
     "config.reference"),
    # rows, plot series and speed-ups are keyed by the label (and tau), and a
    # Picard label names only picard_max: a second spec would overwrite the first's
    ("convergence", base_config(schemes=[PICARD, PICARD_TOL], mesh_levels=[4],
                                tau_levels=[0.5, 0.25]), "config.schemes[1]"),
    ("compare", base_config(mesh_levels=[4], pairs=[
        {"scheme": SEMI, "tau": 0.25}, {"scheme": PICARD, "tau": 0.25},
        {"scheme": PICARD, "tau": 0.5}, {"scheme": PICARD_TOL, "tau": 0.25}]),
     "config.pairs[3]"),
], ids=["tau-equals-h-one-level", "one-tau-level", "two-mesh-levels", "no-schemes",
        "sweep-no-alphas", "sweep-two-mesh-levels", "compare-no-pairs",
        "compare-two-mesh-levels", "ex41-no-reference", "ex43-no-reference",
        "repeated-scheme-label", "repeated-pair-label-and-tau"])
def test_driver_config_errors_exit_2_before_any_run(command, content, path, tmp_path,
                                                    capsys, monkeypatch):
    _config_error_before_any_run(tmp_path, capsys, monkeypatch, content, path,
                                 command=command)


def test_convergence_writes_a_plot_only_for_the_norms_it_reports(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(mesh_levels=[4], tau_levels=[0.5, 0.25],
                                                  norms=["p_c"])))
    out_dir = tmp_path / "out"
    assert cli.main(["convergence", "--config", str(config_path),
                     "--out", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["plot_err_p_c.csv", "results.csv"]


def test_workers_is_a_flag_of_sweep_alpha_alone(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config()))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--config", str(config_path), "--workers", "2"])
    assert exit_.value.code == 2


def test_sweep_alpha_workers_below_one_exits_2(tmp_path, capsys, monkeypatch):
    _config_error_before_any_run(tmp_path, capsys, monkeypatch, SWEEP, "--workers",
                                 command="sweep-alpha", flags=("--workers", "0"))


def test_workers_flag_overrides_the_config(tmp_path, monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a worker pool started")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", NoPool)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**SWEEP, "workers": 2}))
    argv = ["sweep-alpha", "--config", str(config_path), "--out", str(tmp_path / "out")]
    with pytest.raises(AssertionError, match="worker pool"):
        cli.main(argv)
    assert cli.main([*argv, "--workers", "1"]) == 0


def test_compare_writes_the_printed_speedups_to_its_summary(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(
        schemes=[], mesh_levels=[4], tau_levels=[],
        pairs=[{"scheme": SEMI, "tau": 0.25}, {"scheme": PICARD, "tau": 0.25}])))
    out_dir = tmp_path / "out"
    assert cli.main(["compare", "--config", str(config_path), "--out", str(out_dir)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("speedup")]
    assert len(printed) == 1
    assert (out_dir / "summary.txt").read_text().splitlines() == printed


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("flag", [True, False], ids=["--out", "output_dir"])
def test_an_output_path_that_cannot_be_a_directory_exits_2_before_any_run(
        flag, below, tmp_path, capsys, monkeypatch):
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / "sub" if below else afile
    if flag:
        content, flags, path = base_config(), ("--out", str(out)), "--out"
    else:
        content, flags, path = base_config(output_dir=str(out)), (), "config.output_dir"
    _config_error_before_any_run(tmp_path, capsys, monkeypatch, content, path, flags=flags)
    assert afile.read_text() == "kept"


@pytest.mark.parametrize("permeability", [
    {"kind": "constant", "kappa": "2.5"},
    {"kind": "constant", "kappa": True},
    {"kind": "constant", "kappa": float("nan")},
    {"kind": "constant", "kappa": float("inf")},
    {"kind": "kozeny_carman", "kappa0": 1.0, "rho0": "0.5", "c_s": -0.75, "C_s": 0.75},
    5,
], ids=["string", "bool", "nan", "inf", "kozeny_carman-string", "not-an-object"])
def test_permeability_fields_that_are_not_finite_numbers_exit_2(permeability, tmp_path,
                                                                  capsys, monkeypatch):
    content = base_config(coefficients={"permeability": permeability})
    with pytest.raises(ConfigError) as err:
        parse_config(content)
    assert err.value.path == "config.coefficients.permeability"
    _config_error_before_any_run(tmp_path, capsys, monkeypatch, content,
                                 "config.coefficients.permeability")


def test_reference_is_not_run_when_the_problem_has_an_exact_solution(monkeypatch):
    meshes = []
    simulate = experiments.simulate

    def counted(problem, spec, n, tau, *args):
        meshes.append(n)
        return simulate(problem, spec, n, tau, *args)

    monkeypatch.setattr(experiments, "simulate", counted)
    cmd_run(parse_config(base_config(
        mesh_levels=[4], reference={"n_ref": 8, "tau_ref": 0.125, "scheme": SEMI})))
    assert meshes == [4]


def test_reference_from_a_config_fills_the_error_columns():
    config = parse_config(base_config(
        **EX41_N4, reference={"n_ref": 8, "tau_ref": 0.125, "scheme": SEMI}))
    table, _ = cmd_run(config)
    (row,) = table.rows
    for col in ("err_u_a", "err_u_HV", "err_p_c", "err_p_Q", "err_p_HQ", "err_triple"):
        assert 0 < row[col] < np.inf


def test_sweep_alpha_applies_alpha_to_ex42():
    config = parse_config(base_config(
        schemes=[SEMI, PICARD], mesh_levels=[4], alpha_values=[0.5, 4.0]))
    table, _ = cmd_sweep_alpha(config)
    low, high = (row["err_triple"] for row in table.rows)
    assert [row["alpha"] for row in table.rows] == [0.5, 4.0]
    assert low is not None and high is not None and low != high


def test_cmd_run_applies_alpha_to_ex41():
    table, _ = cmd_run(parse_config(base_config(experiment="ex41", mesh_levels=[4],
                                                alpha=0.5)))
    assert table.rows[0]["alpha"] == 0.5


def test_config_error_survives_pickling():
    # a sweep worker sends its exception to the parent pickled
    err = pickle.loads(pickle.dumps(ConfigError("config.x", "bad")))
    assert type(err) is ConfigError
    assert err.path == "config.x"
    assert str(err) == "config.x: bad"


def wrap_forcing(monkeypatch, wrap):
    """Wrap f and g of every problem the drivers build, the way the
    benchmark's forcing spans do: around ``experiments.problem_by_name``."""
    build = experiments.problem_by_name

    def wrapped_build(*args, **kwargs):
        problem = build(*args, **kwargs)
        return dataclasses.replace(problem, **{key: wrap(fn) for key, fn in
                                               (("f", problem.f), ("g", problem.g))
                                               if fn is not None})

    monkeypatch.setattr(experiments, "problem_by_name", wrapped_build)


def test_build_problem_keeps_a_wrapped_forcing_under_coefficient_overrides(monkeypatch):
    wrapped = []

    def wrap(fn):
        def forcing(*args):
            return fn(*args)
        wrapped.append(forcing)
        return forcing

    wrap_forcing(monkeypatch, wrap)
    problem = experiments.build_problem(parse_config(base_config(coefficients={"mu": 2.0})))
    assert problem.coeffs.mu == 2.0
    assert problem.g in wrapped and problem.f in wrapped


@pytest.mark.parametrize("scheme", ["semi_explicit", "implicit_picard", "delay_implicit"])
@pytest.mark.parametrize("coefficients", [{}, {"mu": 2.0}])
def test_run_reaches_the_load_and_forcing_bindings(scheme, coefficients, tmp_path,
                                                   monkeypatch):
    # the benchmark's traced mode counts the calls through these names
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(stepper, "assemble_load_v",
                        counting("load_v", stepper.assemble_load_v))
    monkeypatch.setattr(stepper, "assemble_load_q",
                        counting("load_q", stepper.assemble_load_q))
    wrap_forcing(monkeypatch, lambda fn: counting("forcing", fn))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(
        schemes=[{"scheme": scheme}], mesh_levels=[4], tau_levels=[0.25],
        coefficients=coefficients)))
    assert cli.main(["run", "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 0
    n_steps = 4
    assert calls == {"load_v": n_steps + 1, "load_q": n_steps, "forcing": 2 * n_steps + 1}
