import math

import numpy as np
import pytest
import scipy.sparse as sp

from biotbench import (Coefficients, Constant, KozenyCarman, SolverFailure, State,
                       StepperConfig, assemble_load_q, assemble_load_v,
                       build_structured_mesh, delay_implicit_run, experiment_41_data,
                       experiment_42_data, experiment_43_data, implicit_picard_step,
                       initial_displacement, run, solve_spd, tau_bound_diagnostic,
                       with_coefficients)
from biotbench import forcing, linsolve, stepper
from biotbench.assembly import (assemble_coupling, assemble_mass,
                                assemble_permeability_stiffness, assemble_pressure_mass)
from biotbench.stepper import StepOperators, picard_residual
from dense_reference import (dense_coupling, dense_elasticity, dense_mass,
                             dense_permeability_stiffness, eight_trig_forcing,
                             restrict_dense)

KC = KozenyCarman(kappa0=1.0, rho0=0.5, c_s=-0.75, C_s=0.75)


def coeffs(alpha=1.0, model=None):
    return Coefficients(lam=1.0, mu=1.0, alpha=alpha, M=1.0, kappa_over_nu=1.0,
                        permeability=model or KC)


def zero_scalar(x, y, t=None):
    return np.zeros_like(np.asarray(x, dtype=float))


def zero_p0(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


# initial displacement


def test_initial_displacement_trivial_cases():
    mesh = build_structured_mesh(3)
    co = coeffs()
    u0 = initial_displacement(StepOperators(mesh, co), np.zeros(mesh.num_pressure_dofs))
    assert np.all(u0 == 0.0)

    co0 = coeffs(alpha=0.0)
    rng = np.random.default_rng(0)
    p0 = rng.standard_normal(mesh.num_pressure_dofs)
    assert np.all(initial_displacement(StepOperators(mesh, co0), p0) == 0.0)


def test_initial_displacement_residual_on_consolidation_data():
    prob = experiment_41_data()
    mesh = build_structured_mesh(8)
    p0 = mesh.nodal_scalar(prob.p0)
    u0 = initial_displacement(StepOperators(mesh, prob.coeffs), p0)

    A = restrict_dense(mesh, dense_elasticity(mesh, prob.coeffs.lam, prob.coeffs.mu),
                       "vector", "vector")
    D = restrict_dense(mesh, dense_coupling(mesh, prob.coeffs.alpha),
                       "scalar", "vector")
    rhs = D.T @ p0
    res = np.linalg.norm(A @ u0 - rhs) / np.linalg.norm(rhs)
    assert res < 1e-11


def test_picard_run_factors_a_once_and_one_pressure_operator_per_step(factors):
    # the A factor serves u0 and every preconditioner; the fixed-stress
    # pressure operator is factorized per step, not per Picard iterate
    prob = experiment_42_data()
    mesh = build_structured_mesh(4)
    cfg = StepperConfig(scheme="implicit_picard", tau=0.25, T=0.5, picard_max=3)
    _, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert report.picard_mean > 1.0
    nu, np_ = mesh.num_displacement_dofs, mesh.num_pressure_dofs
    assert [f.shape for f in factors] == [(nu, nu)] + [(np_, np_)] * cfg.n_steps
    assert report.factorization_count == len(factors)


# semi-explicit scheme


def test_zero_data_stays_zero():
    mesh = build_structured_mesh(4)
    co = coeffs(model=Constant(kappa=2.0))
    cfg = StepperConfig(scheme="semi_explicit", tau=0.25, T=1.0)
    traj, _ = run(mesh, co, cfg, None, zero_scalar, zero_p0)
    assert len(traj) == 5
    for state in traj:
        assert np.all(state.u == 0.0) and np.all(state.p == 0.0)


def test_semi_explicit_step_satisfies_both_equations():
    prob = experiment_42_data()
    mesh = build_structured_mesh(16)
    tau = 0.25
    cfg = StepperConfig(scheme="semi_explicit", tau=tau, T=tau)
    traj, _ = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    s0, s1 = traj

    co = prob.coeffs
    A = restrict_dense(mesh, dense_elasticity(mesh, co.lam, co.mu), "vector", "vector")
    C = restrict_dense(mesh, dense_mass(mesh, 1.0 / co.M))
    D = restrict_dense(mesh, dense_coupling(mesh, co.alpha), "scalar", "vector")
    B1 = restrict_dense(mesh, dense_permeability_stiffness(mesh, co, s1.u))
    Fv = assemble_load_v(mesh, prob.f, tau)
    Gq = assemble_load_q(mesh, prob.g, tau)

    r_momentum = A @ s1.u - D.T @ s0.p - Fv
    assert np.linalg.norm(r_momentum) / np.linalg.norm(Fv) < 1e-10

    r_flow = D @ (s1.u - s0.u) + C @ (s1.p - s0.p) + tau * (B1 @ s1.p) - tau * Gq
    assert np.linalg.norm(r_flow) / np.linalg.norm(tau * Gq) < 1e-10


def test_decoupled_pressure_path_is_nonlinear_heat_step():
    # alpha = 0: displacement solves pure elasticity, pressure does an
    # implicit Euler diffusion step with the mobility frozen at that u
    prob = experiment_42_data()
    co = coeffs(alpha=0.0)
    mesh = build_structured_mesh(8)
    tau = 0.5
    cfg = StepperConfig(scheme="semi_explicit", tau=tau, T=tau)
    traj, _ = run(mesh, co, cfg, prob.f, prob.g, prob.p0)

    Fv = assemble_load_v(mesh, prob.f, tau)
    from biotbench.assembly import assemble_elasticity
    u_elastic = solve_spd(assemble_elasticity(mesh, co), Fv)
    assert np.abs(traj[1].u - u_elastic).max() < 1e-12

    C = assemble_pressure_mass(mesh, co)
    B = assemble_permeability_stiffness(mesh, co, u_elastic)
    Gq = assemble_load_q(mesh, prob.g, tau)
    p0 = mesh.nodal_scalar(prob.p0)
    p_heat = solve_spd((C + tau * B).tocsr(), tau * Gq + C @ p0)
    assert np.abs(traj[1].p - p_heat).max() < 1e-12


def test_no_semigroup_property_and_halving_contraction():
    # one step of size tau and two steps of size tau/2 land on different
    # states; the gap contracts by about one order in tau per halving
    # (the lagged pressure makes the one-step difference first order)
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)

    def gap(tau):
        cfg1 = StepperConfig(scheme="semi_explicit", tau=tau, T=tau)
        cfg2 = StepperConfig(scheme="semi_explicit", tau=tau / 2, T=tau)
        t1, _ = run(mesh, prob.coeffs, cfg1, prob.f, prob.g, prob.p0)
        t2, _ = run(mesh, prob.coeffs, cfg2, prob.f, prob.g, prob.p0)
        return np.linalg.norm(t1[-1].p - t2[-1].p) + np.linalg.norm(t1[-1].u - t2[-1].u)

    g1, g2, g3 = gap(0.25), gap(0.125), gap(0.0625)
    assert g1 > 1e-4
    assert 0.35 < g2 / g1 < 0.75
    assert 0.35 < g3 / g2 < 0.75


# implicit scheme with Picard iteration


def test_picard_converges_immediately_for_constant_permeability():
    prob = experiment_42_data()
    co = coeffs(model=Constant(kappa=0.5))
    probc = with_coefficients(prob, permeability=Constant(kappa=0.5))
    mesh = build_structured_mesh(8)
    cfg = StepperConfig(scheme="implicit_picard", tau=0.25, T=1.0,
                        picard_max=10, picard_tol=1e-9)
    traj, report = run(mesh, co, cfg, probc.f, probc.g, probc.p0)
    assert report.picard_max == 1
    assert report.picard_capped == 0
    assert report.max_picard_residual < 1e-12


def test_picard_cap_limits_block_solves():
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)
    cfg = StepperConfig(scheme="implicit_picard", tau=0.25, T=0.5,
                        picard_max=1, picard_tol=1e-9)
    traj, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert report.picard_mean == 1.0
    assert report.picard_max == 1
    assert report.picard_capped == report.n_steps
    # one fixed-stress pressure factorization per step plus the displacement one
    assert report.factorization_count == report.n_steps + 1


@pytest.mark.parametrize("make_problem", [experiment_42_data, lambda: experiment_43_data(4.0)],
                         ids=["ex42", "ex43-alpha4"])
def test_picard_block_solves_take_few_krylov_iterations(make_problem):
    # a wrong beta or a broken fixed-stress preconditioner shows here as
    # many more CG iterations per block solve, before it shows as lost time
    prob = make_problem()
    mesh = build_structured_mesh(8)
    cfg = StepperConfig(scheme="implicit_picard", tau=2.0**-5, T=1.0, picard_max=10)
    _, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    block_solves = round(report.picard_mean * report.n_steps)
    assert 0 < report.linear_iterations <= 20 * block_solves


def test_picard_run_back_solves_a_once_per_cg_iteration_and_step(monkeypatch):
    # each step's warm start is one back-solve, and every later iterate starts
    # from the pair its predecessor left, so an iterate adds only its CG
    # iterations; the last one is u0's solve
    calls = []
    solve = linsolve.BandedCholesky.solve

    def counting(self, rhs):
        calls.append(1)
        return solve(self, rhs)

    monkeypatch.setattr(linsolve.BandedCholesky, "solve", counting)
    prob = experiment_42_data()
    cfg = StepperConfig(scheme="implicit_picard", tau=2.0**-5, T=1.0, picard_max=10)
    _, report = run(build_structured_mesh(8), prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert report.picard_mean > 1.0
    assert len(calls) == report.linear_iterations + report.n_steps + 1


def test_picard_fixed_point_satisfies_nonlinear_system():
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)
    tau = 0.25
    cfg = StepperConfig(scheme="implicit_picard", tau=tau, T=tau,
                        picard_max=30, picard_tol=1e-10)
    traj, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert report.max_picard_residual <= 1e-10

    ops = StepOperators(mesh, prob.coeffs)
    rhs_u = assemble_load_v(mesh, prob.f, tau)
    rhs_p = tau * assemble_load_q(mesh, prob.g, tau) + ops.D @ traj[0].u \
        + ops.C @ traj[0].p
    B = ops.permeability_stiffness(traj[1].u)
    res = picard_residual(ops, B, traj[1].u, traj[1].p, rhs_u, rhs_p, tau)
    assert res <= 2e-10


@pytest.mark.parametrize("make_problem", [experiment_42_data, lambda: experiment_43_data(1.0)],
                         ids=["ex42", "ex43"])
def test_picard_fixed_point_matches_the_dense_oracle_where_b_matters(make_problem):
    # criterion 3's residual on problems where tau*B(u)p is a few percent
    # of its normalization (on ex41 it is below 1e-10), so a wrong
    # permeability in the library shows against the dense oracle's
    prob = make_problem()
    mesh = build_structured_mesh(8)
    tau = 2.0**-5
    cfg = StepperConfig(scheme="implicit_picard", tau=tau, T=1.0,
                        picard_max=30, picard_tol=1e-9)
    trajectory, _ = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)

    co = prob.coeffs
    A = restrict_dense(mesh, dense_elasticity(mesh, co.lam, co.mu), "vector", "vector")
    C = restrict_dense(mesh, dense_mass(mesh, 1.0 / co.M))
    D = restrict_dense(mesh, dense_coupling(mesh, co.alpha), "scalar", "vector")
    worst_res = b_share = 0.0
    for prev, cur in zip(trajectory[:-1], trajectory[1:]):
        B = restrict_dense(mesh, dense_permeability_stiffness(mesh, co, cur.u))
        rhs_u = assemble_load_v(mesh, prob.f, cur.t)
        rhs_p = tau * assemble_load_q(mesh, prob.g, cur.t) + D @ prev.u + C @ prev.p
        terms = (A @ cur.u, D.T @ cur.p, D @ cur.u, C @ cur.p, tau * (B @ cur.p))
        r_u = terms[0] - terms[1] - rhs_u
        r_p = terms[2] + terms[3] + terms[4] - rhs_p
        scale = math.hypot(np.linalg.norm(rhs_u), np.linalg.norm(rhs_p)) + sum(
            np.linalg.norm(v) for v in terms)
        worst_res = max(worst_res, math.hypot(np.linalg.norm(r_u),
                                              np.linalg.norm(r_p)) / scale)
        b_share = max(b_share, np.linalg.norm(terms[4]) / scale)
    assert b_share >= 1e-2
    assert worst_res <= 2e-9


ORACLE_PROBLEMS = {"ex41": experiment_41_data, "ex42": experiment_42_data,
                   "ex43-alpha0.5": lambda: experiment_43_data(0.5),
                   "ex43-alpha4": lambda: experiment_43_data(4.0)}


def _picard_run_by_step(prob, mesh, picard_max, monkeypatch):
    """A Picard run's trajectory and its per-step Picard counts."""
    counts = []
    step = stepper.implicit_picard_step

    def counting(*args):
        state, report = step(*args)
        counts.append(report.picard_iterations)
        return state, report

    with monkeypatch.context() as patch:
        patch.setattr(stepper, "implicit_picard_step", counting)
        cfg = StepperConfig(scheme="implicit_picard", tau=2.0**-5, T=prob.T,
                            picard_max=picard_max, picard_tol=1e-9)
        trajectory, _ = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    return trajectory, counts


@pytest.mark.parametrize("name", list(ORACLE_PROBLEMS))
def test_forcing_term_keeps_picard_counts_and_states_of_exact_inner_solves(name, monkeypatch):
    # the oracle solves every iterate to DEFAULT_TOL
    prob = ORACLE_PROBLEMS[name]()
    mesh = build_structured_mesh(16)
    solve = stepper.solve_block

    def exact(system, rhs_u, rhs_p, a_factor, s_factor, guess, reduction=None):
        return solve(system, rhs_u, rhs_p, a_factor, s_factor, guess)

    for picard_max in (1, 2, 10):
        got, counts = _picard_run_by_step(prob, mesh, picard_max, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(stepper, "solve_block", exact)
            expected, oracle_counts = _picard_run_by_step(prob, mesh, picard_max, monkeypatch)
        assert counts == oracle_counts
        if picard_max <= 2:  # every iterate is a step's first or its last allowed
            assert all(np.array_equal(a.u, b.u) and np.array_equal(a.p, b.p)
                       for a, b in zip(got, expected))
        for field in ("u", "p"):
            a, b = getattr(got[-1], field), getattr(expected[-1], field)
            assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)


def _d_transposes(monkeypatch):
    """A list that gains an entry whenever a run transposes its D: a CSR
    matrix built by ``assemble_coupling`` or sharing its ``data`` array.
    Transposes of other operators, such as the assembly's own maps, are
    not counted."""
    couplings, transposes = [], []
    transpose = sp.csr_matrix.transpose

    def coupling(*args, **kwargs):
        couplings.append(assemble_coupling(*args, **kwargs))
        return couplings[-1]

    def counted(self, *args, **kwargs):
        if any(np.shares_memory(self.data, D.data) for D in couplings):
            transposes.append(1)
        return transpose(self, *args, **kwargs)

    monkeypatch.setattr(stepper, "assemble_coupling", coupling)
    monkeypatch.setattr(sp.csr_matrix, "transpose", counted)
    return transposes


@pytest.mark.parametrize("scheme", ["semi_explicit", "implicit_picard"])
def test_steps_assemble_one_b_per_iterate_and_transpose_no_d(scheme, monkeypatch):
    # guards the per-iterate work: one B(u) per Picard iterate plus the one
    # each step freezes first, at its own starting state, and no sparse
    # constructor for D^T in the loop
    b_calls, before_step, after_step = [], [], []
    transposes = _d_transposes(monkeypatch)

    def counted(fn, calls):
        def wrapped(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapped

    def marking(step):
        def marked(*args):
            before_step.append(len(transposes))
            out = step(*args)
            after_step.append((out[1].picard_iterations, len(transposes)))
            return out
        return marked

    step_name = "semi_explicit_step" if scheme == "semi_explicit" else "implicit_picard_step"
    monkeypatch.setattr(stepper, step_name, marking(getattr(stepper, step_name)))
    monkeypatch.setattr(stepper, "assemble_permeability_stiffness",
                        counted(stepper.assemble_permeability_stiffness, b_calls))
    prob = experiment_42_data()
    cfg = StepperConfig(scheme=scheme, tau=2.0**-3, T=1.0, picard_max=10)
    _, report = run(build_structured_mesh(8), prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert len(after_step) == report.n_steps == 8
    iterates = sum(n for n, _ in after_step)
    if scheme == "semi_explicit":
        assert iterates == 0 and len(b_calls) == report.n_steps
    else:
        assert iterates == round(report.picard_mean * report.n_steps) > 2 * report.n_steps
        assert len(b_calls) == iterates + report.n_steps
    # no step transposes D, the Picard block solves included
    assert before_step[0] == after_step[-1][1] == 0


@pytest.mark.parametrize("scheme", ["semi_explicit", "delay_implicit", "implicit_picard"])
def test_no_run_transposes_d(scheme, monkeypatch):
    # every path applies D^T by linsolve.rmatvec on D: u0, the delay path
    # and the Picard block solves, whose K is applied from its blocks
    transposes = _d_transposes(monkeypatch)
    prob = experiment_42_data()
    cfg = StepperConfig(scheme=scheme, tau=2.0**-3, T=1.0)
    run(build_structured_mesh(8), prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert transposes == []


def test_semi_run_computes_the_trig_factors_once_and_the_eight_trig_bits(monkeypatch):
    # f and g share one memo of their spatial fields, so a whole run takes
    # sin and cos on its edge midpoints once (the forcing used to take
    # them in each of its 65 calls) and every state keeps its bits
    calls = []
    trig = forcing._trig_factors
    monkeypatch.setattr(forcing, "_trig_factors", lambda x, y: calls.append(1) or trig(x, y))
    prob = experiment_42_data()
    mesh = build_structured_mesh(24)
    cfg = StepperConfig(scheme="semi_explicit", tau=2.0**-5, T=1.0)
    got, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert report.n_steps == 32 and len(calls) == 1
    expected, _ = run(mesh, prob.coeffs, cfg, *eight_trig_forcing(prob.coeffs), prob.p0)
    assert len(got) == len(expected) == 33
    for a, b in zip(got, expected):
        assert a.u.tobytes() == b.u.tobytes() and a.p.tobytes() == b.p.tobytes()


@pytest.mark.parametrize("cap", [1, 10])
def test_picard_step_after_an_in_place_change_of_u_equals_one_on_fresh_operators(cap):
    # a step reads only its arguments: the run's operators carry no B(u)
    # from the step before, so a state changed in place gets the step that
    # fresh operators give it, also under Picard(1), which never corrects
    # a wrongly frozen permeability
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)
    cfg = StepperConfig(scheme="implicit_picard", tau=2.0**-3, T=2.0**-2, picard_max=cap)

    def loads(t):
        return assemble_load_v(mesh, prob.f, t), assemble_load_q(mesh, prob.g, t)

    ops = StepOperators(mesh, prob.coeffs)
    p0 = mesh.nodal_scalar(prob.p0)
    state = State(initial_displacement(ops, p0, loads(0.0)[0]), p0, 0.0)
    state, _ = implicit_picard_step(ops, state, cfg.tau, *loads(cfg.tau), cfg)
    state.u *= 1.5
    steps = [implicit_picard_step(op, state, cfg.T, *loads(cfg.T), cfg)[0]
             for op in (ops, StepOperators(mesh, prob.coeffs))]
    assert steps[0].u.tobytes() == steps[1].u.tobytes()
    assert steps[0].p.tobytes() == steps[1].p.tobytes()


@pytest.mark.parametrize("scheme", ["semi_explicit", "delay_implicit"])
def test_decoupled_runs_never_reach_the_block_solver(scheme, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"a {scheme} run called the block solver")

    monkeypatch.setattr(stepper, "solve_block", forbidden)
    monkeypatch.setattr(StepOperators, "block_system", forbidden)
    prob = experiment_42_data()
    cfg = StepperConfig(scheme=scheme, tau=0.25, T=1.0)
    trajectory, report = run(build_structured_mesh(8), prob.coeffs, cfg, prob.f, prob.g,
                             prob.p0)
    assert len(trajectory) == report.n_steps + 1 == 5


def test_constant_permeability_caps_agree():
    prob = experiment_42_data()
    probc = with_coefficients(prob, permeability=Constant(kappa=0.5))
    mesh = build_structured_mesh(8)
    cfg1 = StepperConfig(scheme="implicit_picard", tau=0.25, T=1.0,
                         picard_max=1, picard_tol=1e-9)
    cfg10 = StepperConfig(scheme="implicit_picard", tau=0.25, T=1.0,
                          picard_max=10, picard_tol=1e-9)
    t1, _ = run(mesh, probc.coeffs, cfg1, probc.f, probc.g, probc.p0)
    t10, _ = run(mesh, probc.coeffs, cfg10, probc.f, probc.g, probc.p0)
    for a, b in zip(t1, t10):
        assert np.abs(a.u - b.u).max() < 1e-9
        assert np.abs(a.p - b.p).max() < 1e-9


# delay formulation


def test_delay_matches_semi_explicit_with_constant_history():
    prob = experiment_41_data()
    mesh = build_structured_mesh(8)
    cfg_s = StepperConfig(scheme="semi_explicit", tau=0.125, T=1.0)
    cfg_d = StepperConfig(scheme="delay_implicit", tau=0.125, T=1.0)
    ts, _ = run(mesh, prob.coeffs, cfg_s, prob.f, prob.g, prob.p0)
    td, _ = run(mesh, prob.coeffs, cfg_d, prob.f, prob.g, prob.p0)
    assert len(ts) == len(td)
    for a, b in zip(ts, td):
        assert np.abs(a.u - b.u).max() < 1e-12
        assert np.abs(a.p - b.p).max() < 1e-12


def test_delay_matches_semi_explicit_with_smooth_history():
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)
    tau = 0.25
    p0 = mesh.nodal_scalar(prob.p0)

    def history(t):
        # smooth, equals p0 at both endpoints of [-tau, 0]
        return p0 + math.sin(math.pi * t / tau) ** 2 * (p0 + 1e-3)

    cfg_s = StepperConfig(scheme="semi_explicit", tau=tau, T=1.0)
    cfg_d = StepperConfig(scheme="delay_implicit", tau=tau, T=1.0, history=history)
    ts, _ = run(mesh, prob.coeffs, cfg_s, prob.f, prob.g, prob.p0)
    td = delay_implicit_run(mesh, prob.coeffs, cfg_d, prob.f, prob.g, prob.p0)
    for a, b in zip(ts, td):
        assert np.abs(a.u - b.u).max() < 1e-12
        assert np.abs(a.p - b.p).max() < 1e-12


def test_delay_first_step_uses_initial_pressure_as_delayed_argument():
    prob = experiment_41_data()
    mesh = build_structured_mesh(4)
    tau = 0.5
    cfg = StepperConfig(scheme="delay_implicit", tau=tau, T=tau)
    traj = delay_implicit_run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)

    ops = StepOperators(mesh, prob.coeffs)
    p0 = mesh.nodal_scalar(prob.p0)
    r = ops.A @ traj[1].u - ops.D.T @ p0
    assert np.linalg.norm(r) / np.linalg.norm(ops.D.T @ p0) < 1e-11


def test_delay_zero_data_trajectory_is_zero():
    mesh = build_structured_mesh(4)
    cfg = StepperConfig(scheme="delay_implicit", tau=0.25, T=1.0)
    traj = delay_implicit_run(mesh, coeffs(), cfg, None, zero_scalar, zero_p0)
    for state in traj:
        assert np.all(state.u == 0.0) and np.all(state.p == 0.0)


@pytest.mark.parametrize("extra, value, message", [
    (0, 42.0, "must equal the initial pressure"),
    (1, 0.0, "must be interior pressure vectors"),
], ids=["value", "length"])
def test_delay_rejects_history_violating_endpoint_conditions(extra, value, message):
    prob = experiment_41_data()
    mesh = build_structured_mesh(4)
    cfg = StepperConfig(scheme="delay_implicit", tau=0.5, T=0.5,
                        history=lambda t: np.full(mesh.num_pressure_dofs + extra, value))
    with pytest.raises(ValueError, match=message):
        delay_implicit_run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)


def test_delay_rejects_a_nan_history_before_any_factorization(factors):
    # a NaN deviation compares false against the tolerance in either direction
    prob = experiment_42_data()
    mesh = build_structured_mesh(4)
    p0 = mesh.nodal_scalar(prob.p0)

    def history(t):
        value = p0.copy()
        value[0] = math.nan
        return value

    def no_factor(factor, op, build):
        raise AssertionError("factorized with a NaN history")

    factors.around = no_factor
    cfg = StepperConfig(scheme="delay_implicit", tau=0.25, T=0.5, history=history)
    with pytest.raises(ValueError, match="history"):
        delay_implicit_run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert not factors


def test_semi_and_delay_paths_factor_byte_identical_pressure_operators_with_explicit_zeros(
        factors, monkeypatch):
    # unit coefficients and kappa = C[0, 1] / tau: on every axis-parallel
    # interior edge tau*B = -C exactly, and the sum keeps the slot as a zero
    mesh = build_structured_mesh(4)
    tau = 0.25
    C = assemble_pressure_mass(mesh, coeffs())
    co = coeffs(model=Constant(kappa=C[0, 1] / tau))
    prob = experiment_42_data()
    n_p = mesh.num_pressure_dofs
    operands = []

    def recording(factor, op, build):
        if factor.shape == (n_p, n_p):
            operands[-1].append(op)
        return build()

    factors.around = recording
    for scheme in ("semi_explicit", "delay_implicit"):
        operands.append([])
        cfg = StepperConfig(scheme=scheme, tau=tau, T=1.0)
        run(mesh, co, cfg, prob.f, prob.g, prob.p0)
    semi, delay = ([(op.data.tobytes(), op.indices.tobytes(), op.indptr.tobytes())
                    for op in ops] for ops in operands)
    assert len(semi) == len(delay) == cfg.n_steps
    assert semi == delay
    assert all(op.nnz == C.nnz and (op.data == 0.0).any() for ops in operands for op in ops)

    # above the multigrid crossover the factor is the coarsest level's, so
    # record the pressure solves: each operator with its zeros is on the
    # pattern its Galerkin maps read, and CG solves it as its LU does
    factors.around = None
    mesh = build_structured_mesh(32)
    tau = 2.0**-4
    C = assemble_pressure_mass(mesh, coeffs())
    co = coeffs(model=Constant(kappa=C[0, 1] / tau))
    solve = stepper.solve_pressure
    solves, runs = [], []

    def recording(op, rhs, guess, levels):
        x, steps = solve(op, rhs, guess, levels)
        solves.append((op, rhs, x, steps))
        return x, steps

    monkeypatch.setattr(stepper, "solve_pressure", recording)
    for scheme in ("semi_explicit", "delay_implicit"):
        cfg = StepperConfig(scheme=scheme, tau=tau, T=4 * tau)
        runs.append(run(mesh, co, cfg, prob.f, prob.g, prob.p0)[0])
    semi, delay = runs
    assert len(semi) == len(delay) == cfg.n_steps + 1
    for a, b in zip(semi, delay):
        assert a.u.tobytes() == b.u.tobytes() and a.p.tobytes() == b.p.tobytes()
    assert len(solves) == 2 * cfg.n_steps
    for op, rhs, x, steps in solves:
        assert op.nnz == C.nnz and (op.data == 0.0).any() and steps > 0
        lu = linsolve.SpdFactorization(op).solve(rhs)
        assert np.linalg.norm(x - lu) <= 1e-10 * np.linalg.norm(lu)


@pytest.mark.parametrize("n", [16, 32])
def test_every_pressure_space_operator_lies_on_the_pattern_of_c(n, factors, monkeypatch):
    # on unit coefficients, tau*B cancels C (kappa = C[0, 1] / tau) or the
    # fixed-stress C + beta*M (kappa = (C + beta*M)[0, 1] / tau) on every
    # axis-parallel interior edge: a sum that prunes a cancelled slot has
    # fewer slots than C, one that keeps it has C's index arrays
    mesh = build_structured_mesh(n)
    tau = 2.0**-4
    C = assemble_pressure_mass(mesh, coeffs())
    beta = 1.0 / 4.0  # alpha^2 / (2*(lam + mu))
    stabilized = C + beta * assemble_mass(mesh)
    n_p = mesh.num_pressure_dofs
    prob = experiment_42_data()
    operators = []

    def recording(factor, op, build):
        if factor.shape == (n_p, n_p):  # not A's, nor a coarse multigrid level's
            operators.append(("factor", op))
        return build()

    solve, solve_block = stepper.solve_pressure, stepper.solve_block

    def recorded_solve(op, *args):
        operators.append(("solve_pressure", op))
        return solve(op, *args)

    def recorded_block_solve(system, *args, **kwargs):
        operators.append(("block", system.pressure))
        return solve_block(system, *args, **kwargs)

    factors.around = recording
    monkeypatch.setattr(stepper, "solve_pressure", recorded_solve)
    monkeypatch.setattr(stepper, "solve_block", recorded_block_solve)
    zeros = set()
    for cancelled in (C, stabilized):
        co = coeffs(model=Constant(kappa=cancelled[0, 1] / tau))
        for scheme in ("semi_explicit", "delay_implicit", "implicit_picard"):
            operators.clear()
            run(mesh, co, StepperConfig(scheme=scheme, tau=tau, T=2 * tau),
                prob.f, prob.g, prob.p0)
            assert {kind for kind, _ in operators} == (
                {"factor", "block"} if scheme == "implicit_picard"
                else {"solve_pressure"} | ({"factor"} if n < 24 else set()))
            for kind, op in operators:
                # a factor sees the CSC copy, whose arrays are C's on C's symmetric pattern
                assert np.array_equal(op.indptr, C.indptr)
                assert np.array_equal(op.indices, C.indices)
                if (op.data == 0.0).any():
                    zeros.add((cancelled is C, scheme, kind))
    # every sum whose slots cancel was seen to keep them
    assert zeros == {(True, "semi_explicit", "solve_pressure"),
                     (True, "delay_implicit", "solve_pressure"),
                     (True, "implicit_picard", "block"),
                     (False, "implicit_picard", "factor")} | (
        {(True, "semi_explicit", "factor"), (True, "delay_implicit", "factor")}
        if n < 24 else set())


def test_delay_path_factors_through_stepper_splu(factors, monkeypatch):
    # the delay path factors through linsolve's backends only; stepper.splu
    # is still a name perfbench wraps, so a wrapper on it must see none of
    # the delay path's factors, or a profiler wrapping both names would
    # count each LU twice
    calls = []
    splu = stepper.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(stepper, "splu", counted)
    prob = experiment_42_data()
    mesh = build_structured_mesh(4)
    cfg = StepperConfig(scheme="delay_implicit", tau=0.25, T=1.0)
    _, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert not calls
    assert len(factors) == report.factorization_count == cfg.n_steps + 1


class _FirstSolveOff:
    """An LU whose first back-solve is off by a relative 1e-6."""

    def __init__(self, lu):
        self._lu = lu
        self.solves = 0

    def solve(self, rhs):
        x = self._lu.solve(rhs)
        self.solves += 1
        return x * (1.0 + 1e-6) if self.solves == 1 else x


def test_semi_and_delay_paths_refine_alike_and_stay_bit_identical(factors):
    # both paths verify through one SpdFactorization, so a solve that needs
    # refinement on one path gets the same refinement on the other
    lus = []

    def first_solve_off(factor, op, build):
        lus.append(_FirstSolveOff(build()))
        return lus[-1]

    factors.around = first_solve_off
    prob = experiment_41_data()
    mesh = build_structured_mesh(8)
    runs = []
    for scheme in ("semi_explicit", "delay_implicit"):
        cfg = StepperConfig(scheme=scheme, tau=0.125, T=1.0)
        runs.append(run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)[0])
    # every LU of both runs was refined after its first back-solve
    assert len(lus) == 2 * (cfg.n_steps + 1)
    assert all(lu.solves >= 2 for lu in lus)
    semi, delay = runs
    assert len(semi) == len(delay) == cfg.n_steps + 1
    for a, b in zip(semi, delay):
        assert a.u.tobytes() == b.u.tobytes()
        assert a.p.tobytes() == b.p.tobytes()


def test_semi_and_delay_paths_stay_bit_identical_above_the_multigrid_crossover(factors):
    # criterion 2's n = 16 solves every pressure by its LU; from n = 24 on
    # both paths solve it by multigrid-preconditioned CG, which must give
    # the same bits on both, with the coarsest level as each step's factor
    prob = experiment_41_data()
    mesh = build_structured_mesh(32)
    nu = mesh.num_displacement_dofs
    runs = []
    for scheme in ("semi_explicit", "delay_implicit"):
        factors.clear()
        cfg = StepperConfig(scheme=scheme, tau=2.0**-4, T=0.25)
        states, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
        assert [(f.backend, f.shape) for f in factors] == \
            [("cholesky_banded", (nu, nu))] + [("splu", (49, 49))] * cfg.n_steps
        assert report.factorization_count == len(factors)
        runs.append(states)
    semi, delay = runs
    assert len(semi) == len(delay) == cfg.n_steps + 1
    for a, b in zip(semi, delay):
        assert a.u.tobytes() == b.u.tobytes()
        assert a.p.tobytes() == b.p.tobytes()


def test_semi_and_delay_paths_warm_start_each_pressure_solve_by_extrapolation(monkeypatch):
    # each pressure CG starts from p_0 on the first step and from the linear
    # extrapolation 2 p_{n-1} - p_{n-2} of the trajectory on every later one
    prob = experiment_41_data()
    mesh = build_structured_mesh(32)
    solve = linsolve.solve_pressure
    guesses = []

    def recording(op, rhs, guess, levels):
        assert levels  # n = 32 is above the multigrid crossover: the guess is read
        guesses.append(np.array(guess))
        return solve(op, rhs, guess, levels)

    monkeypatch.setattr(stepper, "solve_pressure", recording)
    for scheme in ("semi_explicit", "delay_implicit"):
        guesses.clear()
        cfg = StepperConfig(scheme=scheme, tau=2.0**-5, T=0.25)
        states, _ = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
        assert len(guesses) == cfg.n_steps
        assert guesses[0].tobytes() == states[0].p.tobytes()
        for n in range(2, cfg.n_steps + 1):
            expected = 2.0 * states[n - 1].p - states[n - 2].p
            assert guesses[n - 1].tobytes() == expected.tobytes()


@pytest.mark.parametrize("field, kwargs", [
    ("tau", {"tau": math.inf, "T": 1.0}),
    ("tau", {"tau": math.nan, "T": 1.0}),
    ("T", {"tau": 0.5, "T": math.inf}),
    ("T", {"tau": 0.5, "T": math.nan}),
    ("picard_max", {"tau": 0.5, "T": 1.0, "picard_max": 2.5}),
    ("picard_max", {"tau": 0.5, "T": 1.0, "picard_max": True}),
    ("picard_max", {"tau": 0.5, "T": 1.0, "picard_max": False}),
], ids=["tau-inf", "tau-nan", "T-inf", "T-nan", "picard_max-2.5", "picard_max-True",
        "picard_max-False"])
def test_config_rejects_non_finite_and_non_integral_values(field, kwargs):
    with pytest.raises(ValueError, match=rf"^{field} "):
        StepperConfig(scheme="implicit_picard", **kwargs)


# run-level behavior


def test_run_with_zero_steps_returns_initial_state():
    prob = experiment_42_data()
    mesh = build_structured_mesh(4)
    cfg = StepperConfig(scheme="semi_explicit", tau=0.5, T=0.0)
    traj, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert len(traj) == 1
    assert traj[0].t == 0.0
    assert report.n_steps == 0


@pytest.mark.parametrize("scheme", ["semi_explicit", "implicit_picard", "delay_implicit"])
def test_every_path_stamps_its_states_at_n_tau(scheme):
    # a sum of ten 0.1s is 0.9999999999999999; every path stamps the n*tau
    # its loads are evaluated at
    prob = experiment_42_data()
    cfg = StepperConfig(scheme=scheme, tau=0.1, T=1.0)
    traj, _ = run(build_structured_mesh(4), prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert [state.t for state in traj] == [n * 0.1 for n in range(11)]


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(scheme="semi_explicit", tau=0.3, T=1.0)  # T/tau not integral
    with pytest.raises(ValueError):
        StepperConfig(scheme="unknown", tau=0.5, T=1.0)
    with pytest.raises(ValueError):
        StepperConfig(scheme="semi_explicit", tau=-0.5, T=1.0)
    with pytest.raises(ValueError):
        StepperConfig(scheme="implicit_picard", tau=0.5, T=1.0, picard_tol=2.0)
    with pytest.raises(ValueError):
        StepperConfig(scheme="implicit_picard", tau=0.5, T=1.0, picard_max=0)
    # bool is an int: tau=True would run one step of size 1 and T=False none
    for tau, T in ((True, 1.0), (0.5, False), (0.5, True), (np.True_, 1.0)):
        with pytest.raises(ValueError):
            StepperConfig(scheme="semi_explicit", tau=tau, T=T)


def test_semi_explicit_cost_structure():
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)
    cfg = StepperConfig(scheme="semi_explicit", tau=0.25, T=1.0)
    _, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    # one pressure factorization per step plus the single displacement one
    assert report.factorization_count == report.n_steps + 1


@pytest.mark.parametrize("scheme", ["semi_explicit", "implicit_picard", "delay_implicit"])
def test_reported_factorizations_equal_lu_calls(scheme, factors):
    # every scheme factors A once, for u0 and every step (and every Picard
    # preconditioner), and one pressure operator per step, not per iterate
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)
    cfg = StepperConfig(scheme=scheme, tau=0.25, T=1.0, picard_max=3)
    _, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    nu, np_ = mesh.num_displacement_dofs, mesh.num_pressure_dofs
    assert [(f.backend, f.shape) for f in factors] == \
        [("cholesky_banded", (nu, nu))] + [("splu", (np_, np_))] * cfg.n_steps
    assert report.factorization_count == len(factors)
    if scheme == "implicit_picard":
        assert report.picard_mean > 1.0


@pytest.mark.parametrize("scheme", ["semi_explicit", "implicit_picard", "delay_implicit"])
def test_a_run_after_a_failed_run_reports_only_its_own_factors(scheme, factors):
    # a run that fails partway leaves its factors in the process-wide count;
    # the next run counts from its own start
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)
    cfg = StepperConfig(scheme=scheme, tau=0.25, T=1.0, picard_max=3)

    def fail_the_third(factor, op, build):
        if len(factors) == 3:
            raise RuntimeError("Factor is exactly singular")
        return build()

    factors.around = fail_the_third
    with pytest.raises(SolverFailure):
        run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert len(factors) == 3
    factors.around = None
    factors.clear()
    _, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert report.factorization_count == len(factors) == cfg.n_steps + 1


# step size diagnostic


def test_tau_bound_diagnostic():
    co_const = coeffs(model=Constant(kappa=1.0))
    assert tau_bound_diagnostic(co_const, p_bound=5.0) == math.inf

    prob = experiment_42_data()
    bound1 = tau_bound_diagnostic(prob.coeffs, p_bound=1.0)
    bound2 = tau_bound_diagnostic(prob.coeffs, p_bound=2.0)
    assert 0.0 < bound1 < math.inf
    assert bound2 == pytest.approx(bound1 / 4.0, rel=1e-12)

    with pytest.raises(ValueError):
        tau_bound_diagnostic(prob.coeffs, p_bound=0.0)
