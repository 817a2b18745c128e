import json

import numpy as np
import pytest

import biotbench.cli as cli
import biotbench.experiments as experiments
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
EX41_N4 = {"experiment": "ex41", "mesh_levels": [4]}


def _config_error_before_any_run(tmp_path, capsys, monkeypatch, content, path):
    """cli.main on a config file with this content (None: no file) exits 2 with path."""
    def no_run(*args, **kwargs):
        raise AssertionError("a run started on a malformed config")

    monkeypatch.setattr(experiments, "simulate", no_run)
    config_path = tmp_path / "config.json"
    if isinstance(content, dict):
        content = json.dumps(content).encode()
    if content is not None:
        config_path.write_bytes(content)
    assert cli.main(["run", "--config", str(config_path)]) == 2
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


def test_reference_is_not_run_when_the_problem_has_an_exact_solution(monkeypatch):
    meshes = []
    simulate = experiments.simulate

    def counted(problem, spec, n, tau):
        meshes.append(n)
        return simulate(problem, spec, n, tau)

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
