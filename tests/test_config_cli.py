import json

import numpy as np
import pytest

import biotbench.cli as cli
from biotbench.config import (CSV_COLUMNS, ConfigError, ResultsTable, SchemeSpec,
                              parse_config)
from biotbench.experiments import (cmd_compare, cmd_convergence, cmd_run,
                                   cmd_sweep_alpha, simulate)
from biotbench.analysis import NormKind, error_vs_manufactured
from biotbench.forcing import experiment_42_data


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
