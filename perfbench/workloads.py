"""The three benchmark workloads, their configs and their correctness checks.

Each workload is one biotbench subcommand on a fixed config.  The seed
only permutes the alpha list of the sweep (its rows are sorted by the
program, so the output must not depend on the order); the ex42 runs are
fully determined by their definition.
"""

import csv
import random
from dataclasses import dataclass

import numpy as np
from biotbench.analysis import NormKind, error_vs_reference

TAU = 2.0**-5
PICARD = {"scheme": "implicit_picard", "picard_max": 10, "picard_tol": 1e-9}
SEMI = {"scheme": "semi_explicit"}
SWEEP_ALPHAS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
#: criterion 7's partition of the sweep: flagged at and above, unflagged at and below
BLOWUP_FROM, STABLE_UP_TO = 3.0, 1.5
#: alpha at which the sweep's semi-explicit run is measured against its implicit run
SWEEP_ERROR_ALPHA = 1.0
#: relative tolerance on the final-time errors against the reference values, measured
#: on the solver as first imported; a change of linear solver moves them by about
#: picard_tol / error ~ 1e-7
ERROR_RTOL = 1e-6

# Layers every workload reaches; the Picard and ex42 sets add to it.
_COMMON_LAYERS = (
    "mesh.build", "forcing.rhs", "permeability.eval", "assembly.perm_stiffness",
    "assembly.load", "assembly.elasticity", "assembly.coupling",
    "assembly.pressure_mass", "linsolve.splu", "linsolve.spd_solve", "stepper.step",
    "stepper.initial_displacement", "stepper.operators", "analysis.norm",
    "analysis.assemble", "cli.main", "config.load", "experiments.cmd",
    "experiments.simulate",
)
_PICARD_LAYERS = ("linsolve.block_solve", "linsolve.monolithic", "stepper.picard_residual")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # biotbench subcommand
    config: dict          # JSON config without output_dir
    runs_per_job: int     # stepper.run calls one job makes
    step_scheme: str      # the scheme whose steps step_ms pools
    expected_layers: tuple
    #: reference final-time errors (err_p_c, err_u_a), see ERROR_RTOL
    reference_errors: tuple

    def config_for(self, seed, output_dir):
        config = dict(self.config, output_dir=output_dir)
        if "alpha_values" in config:
            alphas = list(config["alpha_values"])
            random.Random(seed).shuffle(alphas)
            config["alpha_values"] = alphas
        return config


WORKLOADS = {w.name: w for w in (
    Workload(
        name="semi-ex42-n64", command="run",
        config={"experiment": "ex42", "schemes": [SEMI], "mesh_levels": [64],
                "tau_levels": [TAU]},
        runs_per_job=1, step_scheme=SEMI["scheme"],
        expected_layers=_COMMON_LAYERS + ("analysis.errors",),
        reference_errors=(0.0055103482611, 0.017333356338)),
    Workload(
        name="picard-ex42-n32", command="run",
        config={"experiment": "ex42", "schemes": [PICARD], "mesh_levels": [32],
                "tau_levels": [TAU]},
        runs_per_job=1, step_scheme=PICARD["scheme"],
        expected_layers=_COMMON_LAYERS + _PICARD_LAYERS + ("analysis.errors",),
        reference_errors=(0.000887384437026, 0.000789310151997)),
    Workload(
        name="sweep-ex43-n16", command="sweep-alpha",
        config={"experiment": "ex43", "schemes": [SEMI, PICARD], "mesh_levels": [16],
                "tau_levels": [TAU], "alpha_values": list(SWEEP_ALPHAS), "workers": 1},
        # its semi-explicit steps cost an order of magnitude less than its Picard
        # steps; pooling both halves would put the median in the gap between them
        runs_per_job=2 * len(SWEEP_ALPHAS), step_scheme=PICARD["scheme"],
        expected_layers=_COMMON_LAYERS + _PICARD_LAYERS,
        reference_errors=(0.0074306691125941675, 0.026615646845647233)),
)}


def warmup_config(workload, output_dir):
    """A tiny config with the workload's subcommand and schemes, run untimed first."""
    config = dict(workload.config, mesh_levels=[4], tau_levels=[0.25],
                  output_dir=output_dir)
    if "alpha_values" in config:
        config["alpha_values"] = [1.0]
    return config


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(runs):
    return all(np.isfinite(state.u).all() and np.isfinite(state.p).all()
               for run in runs for state in run.trajectory)


def job_errors(workload, rows, runs):
    """Final-time (err_p_c, err_u_a) of a job.

    On ex42 they come from results.csv.  ex43 has no closed-form solution,
    so for the sweep they are the relative deviation of the semi-explicit
    run from the implicit Picard run at SWEEP_ERROR_ALPHA, measured by the
    library's own ``error_vs_reference``.
    """
    if workload.command == "run":
        return float(rows[0]["err_p_c"]), float(rows[0]["err_u_a"])
    at_alpha = {run.scheme: run for run in runs if run.alpha == SWEEP_ERROR_ALPHA}
    semi, impl = at_alpha[SEMI["scheme"]], at_alpha[PICARD["scheme"]]
    report = error_vs_reference(semi.trajectory, impl.trajectory, semi.mesh, impl.mesh,
                                semi.coeffs, kinds=(NormKind.C, NormKind.A))
    return report.relative["p_c"], report.relative["u_a"]


def check_job(workload, exit_code, rows, runs, errors):
    """Reasons a job's output is wrong; empty when it is correct."""
    problems = []
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if len(runs) != workload.runs_per_job:
        problems.append(f"{len(runs)} runs, expected {workload.runs_per_job}")
    if any(run.trajectory is None for run in runs) or not _finite(runs):
        problems.append("a run returned no trajectory or a non-finite state")
    if workload.command == "sweep-alpha":
        problems += _check_sweep(rows)
    elif len(rows) != 1:
        problems.append(f"{len(rows)} result rows, expected 1")
    for label, got, want in zip(("err_p_c", "err_u_a"), errors, workload.reference_errors):
        if not abs(got - want) <= ERROR_RTOL * abs(want):
            problems.append(f"{label} = {got!r}, reference {want!r}")
    return problems


def _check_sweep(rows):
    flags = {float(row["alpha"]): row["blowup_flag"] == "1" for row in rows}
    problems = []
    if sorted(flags) != sorted(SWEEP_ALPHAS):
        problems.append(f"sweep rows for alpha {sorted(flags)}")
    for alpha, flagged in flags.items():
        if alpha >= BLOWUP_FROM and not flagged:
            problems.append(f"alpha={alpha} not flagged as blow-up")
        if alpha <= STABLE_UP_TO and flagged:
            problems.append(f"alpha={alpha} flagged as blow-up")
    return problems
