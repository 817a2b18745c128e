"""Experiment drivers behind the CLI subcommands.

Each driver turns a validated config into a ResultsTable; all numbers in a
row come straight from the library operations (the drivers add bookkeeping
only).  Auxiliary outputs (log-log plot series, nodal snapshots) are
returned as text payloads for the CLI to write.

A driver whose runs share a mesh owns one study for the length of its
call, so they share one discretization: the mesh and the operators that
do not change between them (see ``simulate``).  ``run`` shares only
with a reference run on its own mesh level.
"""

import io
import math
import statistics
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .analysis import (NormKind, convergence_order, error_vs_manufactured,
                       error_vs_reference)
from .config import (ERR_COLUMNS, ConfigError, ExperimentConfig, ResultsTable,
                     SchemeSpec, csv_text, error_columns)
from .forcing import ProblemData, problem_by_name
from .linsolve import SolverFailure
from .mesh import build_structured_mesh
from .stepper import (IMPLICIT_PICARD, SEMI_EXPLICIT, SharedOperators, StepperConfig,
                      run)

BLOWUP_THRESHOLD = 10.0


def build_problem(config: ExperimentConfig, alpha=None) -> ProblemData:
    """The config's problem; a given alpha (a sweep point) replaces config.alpha.

    alpha and the coefficient overrides reach ``problem_by_name`` in one
    call, so the f and g it returns are the ones the runs call.
    """
    alpha = config.alpha if alpha is None else alpha
    return problem_by_name(config.experiment, **{"alpha": alpha, **config.coefficients})


def simulate(problem: ProblemData, spec: SchemeSpec, n: int, tau: float, study=None):
    """Run one (scheme, mesh, step size) combination.

    A ``study`` is a dict from mesh level n to the ``SharedOperators`` that
    the runs of one driver call share.  A level it lacks is built here, so
    the first run on a mesh builds it and each operator is built by the
    first run that needs it.  A driver makes its study empty and drops it
    when it returns, and a run given none makes its own, so nothing
    outlives the call.
    """
    study = {} if study is None else study
    if n not in study:
        study[n] = SharedOperators(build_structured_mesh(n))
    shared = study[n]
    cfg = StepperConfig(scheme=spec.scheme, tau=tau, T=problem.T,
                        picard_max=spec.picard_max, picard_tol=spec.picard_tol)
    trajectory, report = run(shared.mesh, problem.coeffs, cfg, problem.f, problem.g,
                             problem.p0, shared)
    return shared.mesh, trajectory, report


def _row_errors(problem, mesh, trajectory, norms, reference=None):
    kinds = [NormKind(k) for k in norms]
    if problem.has_exact:
        report = error_vs_manufactured(mesh, problem.coeffs, trajectory,
                                       problem.exact_u, problem.exact_p, kinds=kinds)
        return error_columns(report.relative)
    if reference is not None:
        ref_mesh, ref_trajectory = reference
        report = error_vs_reference(trajectory, ref_trajectory, mesh, ref_mesh,
                                    problem.coeffs, kinds=kinds)
        return error_columns(report.relative)
    return {}


def _single_row(problem, spec, n, tau, norms, reference=None, study=None):
    mesh, trajectory, report = simulate(problem, spec, n, tau, study)
    row = {"scheme": spec.label, "h": 1.0 / n, "tau": tau,
           "alpha": problem.coeffs.alpha, "wall_time_s": report.wall_time,
           "blowup_flag": False}
    row.update(_row_errors(problem, mesh, trajectory, norms, reference))
    if spec.scheme == IMPLICIT_PICARD:
        row["picard_mean"] = report.picard_mean
        row["picard_max"] = report.picard_max
    return row, trajectory, mesh


def _compute_reference(config, problem, study):
    """The reference run, when the config gives one and the problem has no exact pair.

    It joins ``study`` only on one of the driver's levels, else its operators die with it.
    """
    if config.reference is None or problem.has_exact:
        return None
    ref = config.reference
    study = study if ref.n_ref in config.mesh_levels else None
    mesh, trajectory, _ = simulate(problem, ref.scheme, ref.n_ref, ref.tau_ref, study)
    return mesh, trajectory


def _snapshot_text(mesh, state) -> str:
    full_u = mesh.extend_vector(state.u)
    full_p = mesh.extend_scalar(state.p)
    data = np.column_stack([mesh.nodes[:, 0], mesh.nodes[:, 1],
                            full_u[0::2], full_u[1::2], full_p])
    buf = io.StringIO()
    np.savetxt(buf, data, fmt="%.12g", header="x y u1 u2 p", comments="")
    return buf.getvalue()


def cmd_run(config: ExperimentConfig):
    """Single (scheme, h, tau) combination; one CSV row."""
    if len(config.schemes) != 1 or len(config.mesh_levels) != 1 \
            or len(config.tau_levels) != 1:
        raise ConfigError("config", "run expects exactly one scheme, one mesh level "
                                    "and one tau level")
    problem = build_problem(config)
    spec = config.schemes[0]
    n, tau = config.mesh_levels[0], config.tau_levels[0]
    study = {}
    reference = _compute_reference(config, problem, study)
    # the run shares the study only if the reference joined it, else its factor
    # of A dies with the run
    row, trajectory, mesh = _single_row(problem, spec, n, tau, config.norms, reference,
                                        study or None)

    table = ResultsTable()
    table.add_row(**row)
    aux = {}
    if config.snapshots:
        name = f"snapshot_{spec.label}_n{n}_tau{tau:.8g}.txt"
        aux[name] = _snapshot_text(mesh, trajectory[-1])
    return table, aux


def _convergence_levels(config):
    if config.tau_equals_h:
        if len(config.mesh_levels) < 2:
            raise ConfigError("config.mesh_levels",
                              "coupled tau=h study needs at least two levels")
        return [(n, 1.0 / n) for n in config.mesh_levels]
    if len(config.tau_levels) < 2:
        raise ConfigError("config.tau_levels",
                          "convergence study needs at least two tau levels")
    if len(config.mesh_levels) != 1:
        raise ConfigError("config.mesh_levels",
                          "convergence over tau expects exactly one mesh level")
    n = config.mesh_levels[0]
    return [(n, tau) for tau in config.tau_levels]


def cmd_convergence(config: ExperimentConfig):
    """Error decay over step-size levels, with observed orders appended."""
    if not config.schemes:
        raise ConfigError("config.schemes", "at least one scheme is required")
    problem = build_problem(config)
    if not problem.has_exact and config.reference is None:
        raise ConfigError("config.reference", f"{config.experiment} has no exact "
                          "solution, so a convergence study needs a reference run")
    levels = _convergence_levels(config)
    study = {}
    reference = _compute_reference(config, problem, study)

    table = ResultsTable()
    series = {}
    for spec in config.schemes:
        rows = []
        for n, tau in levels:
            row, _, _ = _single_row(problem, spec, n, tau, config.norms, reference,
                                    study)
            rows.append(row)
        for col, order_col in (("err_u_a", "order_u_a"), ("err_p_c", "order_p_c")):
            errors = [r.get(col) for r in rows]
            if all(e is not None and e > 0 and math.isfinite(e) for e in errors):
                for row, order in zip(rows[1:], convergence_order(errors)):
                    row[order_col] = order
        for row in rows:
            table.add_row(**row)
        series[spec.label] = rows

    aux = _convergence_plot_data(config, levels, series)
    return table, aux


def _convergence_plot_data(config, levels, series):
    aux = {}
    labels = list(series)
    x_name = "h" if config.tau_equals_h else "tau"
    for key in ERR_COLUMNS:
        if not any(series[lab][0].get(key) is not None for lab in labels):
            continue
        rows = [[1.0 / n if config.tau_equals_h else tau]
                + [series[lab][i].get(key) for lab in labels]
                for i, (n, tau) in enumerate(levels)]
        aux[f"plot_{key}.csv"] = csv_text([x_name] + labels, rows)
    return aux


def _sweep_schemes(config):
    semi = [s for s in config.schemes if s.scheme == SEMI_EXPLICIT]
    impl = [s for s in config.schemes if s.scheme == IMPLICIT_PICARD]
    if len(semi) != 1 or len(impl) != 1 or len(config.schemes) != 2:
        raise ConfigError("config.schemes", "sweep-alpha expects exactly one "
                          "semi_explicit and one implicit_picard scheme")
    return semi[0], impl[0]


def _sweep_point(config, alpha, tau, study=None):
    """One (alpha, tau) deviation measurement; picklable for worker pools.

    Its two runs share ``study``, or a study of their own when none is given.
    """
    problem = build_problem(config, alpha)
    semi, impl = _sweep_schemes(config)
    n = config.mesh_levels[0]
    study = {} if study is None else study
    row = {"scheme": semi.label, "h": 1.0 / n, "tau": tau, "alpha": alpha}
    try:
        mesh, semi_traj, semi_report = simulate(problem, semi, n, tau, study)
        _, impl_traj, _ = simulate(problem, impl, n, tau, study)
        deviation = error_vs_reference(semi_traj, impl_traj, mesh, mesh, problem.coeffs,
                                       kinds=(NormKind.TRIPLE,)).relative["triple"]
        row["wall_time_s"] = semi_report.wall_time
    except (SolverFailure, FloatingPointError, OverflowError):
        deviation = math.inf
    if math.isfinite(deviation):
        row["err_triple"] = deviation
        row["blowup_flag"] = deviation > BLOWUP_THRESHOLD
    else:
        row["blowup_flag"] = True
    return row


def cmd_sweep_alpha(config: ExperimentConfig):
    """Deviation of the semi-explicit from the implicit run over alpha values."""
    if not config.alpha_values:
        raise ConfigError("config.alpha_values", "sweep-alpha needs alpha values")
    if len(config.mesh_levels) != 1 or not config.tau_levels:
        raise ConfigError("config", "sweep-alpha expects one mesh level and at "
                                    "least one tau level")
    _sweep_schemes(config)  # a config error here, not in a worker
    alphas, taus = zip(*[(alpha, tau) for tau in config.tau_levels
                         for alpha in config.alpha_values])
    configs = [config] * len(alphas)
    if config.workers > 1:
        # each point's two runs share a study in their worker
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_sweep_point, configs, alphas, taus))
    else:
        study = {}
        rows = [_sweep_point(config, alpha, tau, study) for alpha, tau in zip(alphas, taus)]

    table = ResultsTable()
    for row in rows:
        table.add_row(**row)
    table.sort()

    deviation = {(r["alpha"], r["tau"]): r["err_triple"] for r in table.rows}
    header = ["alpha"] + [f"tau_{tau:.8g}" for tau in config.tau_levels]
    rows = [[alpha] + [deviation[alpha, tau] for tau in config.tau_levels]
            for alpha in config.alpha_values]
    return table, {"plot_alpha_sweep.csv": csv_text(header, rows)}


def cmd_compare(config: ExperimentConfig):
    """Run-time comparison of (scheme, tau) pairs at a fixed mesh size."""
    if not config.pairs:
        raise ConfigError("config.pairs", "compare needs (scheme, tau) pairs")
    if len(config.mesh_levels) != 1:
        raise ConfigError("config.mesh_levels", "compare expects exactly one mesh level")
    problem = build_problem(config)
    n = config.mesh_levels[0]
    study = {}

    table = ResultsTable()
    timings = {}
    for spec, tau in config.pairs:
        walls = []
        for _ in range(config.timing_repeats):
            row, trajectory, mesh = _single_row(problem, spec, n, tau, config.norms,
                                                study=study)
            walls.append(row["wall_time_s"])
        row["wall_time_s"] = statistics.median(walls)
        timings[(spec.label, tau)] = row["wall_time_s"]
        table.add_row(**row)

    semi = [(label, tau) for (label, tau) in timings if label == SEMI_EXPLICIT]
    if semi:
        semi_wall = timings[semi[0]]
        for (label, tau), wall in timings.items():
            if label.startswith("implicit"):
                factor = wall / semi_wall if semi_wall > 0 else math.inf
                table.summary.append(
                    f"speedup vs {label} (tau={tau:.8g}): {factor:.2f}x")
    return table, {}
