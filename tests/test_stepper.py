import math

import numpy as np
import pytest

from biotbench import (Coefficients, Constant, KozenyCarman, StepperConfig,
                       assemble_load_q, assemble_load_v, build_structured_mesh,
                       delay_implicit_run, experiment_41_data, experiment_42_data,
                       experiment_43_data, initial_displacement, run, solve_spd,
                       tau_bound_diagnostic, with_coefficients)
from biotbench import linsolve, stepper
from biotbench.assembly import assemble_permeability_stiffness, assemble_pressure_mass
from biotbench.stepper import StepOperators, picard_residual
from dense_reference import (dense_coupling, dense_elasticity, dense_mass,
                             dense_permeability_stiffness, restrict_dense)

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
    p0 = mesh.nodal_scalar(prob.p0, interior=True)
    u0 = initial_displacement(StepOperators(mesh, prob.coeffs), p0)

    A = restrict_dense(mesh, dense_elasticity(mesh, prob.coeffs.lam, prob.coeffs.mu),
                       "vector", "vector")
    D = restrict_dense(mesh, dense_coupling(mesh, prob.coeffs.alpha),
                       "scalar", "vector")
    rhs = D.T @ p0
    res = np.linalg.norm(A @ u0 - rhs) / np.linalg.norm(rhs)
    assert res < 1e-11


def test_picard_run_factors_a_once_and_one_pressure_operator_per_step(monkeypatch):
    # the A factor serves u0 and every preconditioner; the fixed-stress
    # pressure operator is factorized per step, not per Picard iterate
    shapes = []

    def counting(splu):
        def factor(op, *args, **kwargs):
            shapes.append(op.shape)
            return splu(op, *args, **kwargs)
        return factor

    monkeypatch.setattr(linsolve, "splu", counting(linsolve.splu))
    prob = experiment_42_data()
    mesh = build_structured_mesh(4)
    cfg = StepperConfig(scheme="implicit_picard", tau=0.25, T=0.5, picard_max=3)
    _, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert report.picard_mean > 1.0
    nu, np_ = mesh.num_displacement_dofs, mesh.num_pressure_dofs
    assert shapes == [(nu, nu)] + [(np_, np_)] * cfg.n_steps
    assert report.factorization_count == len(shapes)


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
    p0 = mesh.nodal_scalar(prob.p0, interior=True)
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
    assert report.max_picard_residual < 1e-12


def test_picard_cap_limits_block_solves():
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)
    cfg = StepperConfig(scheme="implicit_picard", tau=0.25, T=0.5,
                        picard_max=1, picard_tol=1e-9)
    traj, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert report.picard_mean == 1.0
    assert report.picard_max == 1
    # one fixed-stress pressure factorization per step plus the displacement one
    assert report.factorization_count == report.n_steps + 1


@pytest.mark.parametrize("make_problem", [experiment_42_data, lambda: experiment_43_data(4.0)],
                         ids=["ex42", "ex43-alpha4"])
def test_picard_block_solves_take_few_krylov_iterations(make_problem):
    # a wrong beta or a broken fixed-stress sweep shows here as many more
    # GMRES iterations per block solve, before it shows as lost time
    prob = make_problem()
    mesh = build_structured_mesh(8)
    cfg = StepperConfig(scheme="implicit_picard", tau=2.0**-5, T=1.0, picard_max=10)
    _, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    block_solves = round(report.picard_mean * report.n_steps)
    assert 0 < report.linear_iterations <= 20 * block_solves


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
    p0 = mesh.nodal_scalar(prob.p0, interior=True)

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
    p0 = mesh.nodal_scalar(prob.p0, interior=True)
    r = ops.A @ traj[1].u - ops.D.T @ p0
    assert np.linalg.norm(r) / np.linalg.norm(ops.D.T @ p0) < 1e-11


def test_delay_zero_data_trajectory_is_zero():
    mesh = build_structured_mesh(4)
    cfg = StepperConfig(scheme="delay_implicit", tau=0.25, T=1.0)
    traj = delay_implicit_run(mesh, coeffs(), cfg, None, zero_scalar, zero_p0)
    for state in traj:
        assert np.all(state.u == 0.0) and np.all(state.p == 0.0)


def test_delay_rejects_history_violating_endpoint_conditions():
    prob = experiment_41_data()
    mesh = build_structured_mesh(4)
    cfg = StepperConfig(scheme="delay_implicit", tau=0.5, T=0.5,
                        history=lambda t: np.full(mesh.num_pressure_dofs, 42.0))
    with pytest.raises(ValueError):
        delay_implicit_run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)


# run-level behavior


def test_run_with_zero_steps_returns_initial_state():
    prob = experiment_42_data()
    mesh = build_structured_mesh(4)
    cfg = StepperConfig(scheme="semi_explicit", tau=0.5, T=0.0)
    traj, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert len(traj) == 1
    assert traj[0].t == 0.0
    assert report.n_steps == 0


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
    for linear_tol in (0.0, 1.0, -1e-12):
        with pytest.raises(ValueError, match="linear_tol"):
            StepperConfig(scheme="semi_explicit", tau=0.5, T=1.0, linear_tol=linear_tol)


def test_semi_explicit_cost_structure():
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)
    cfg = StepperConfig(scheme="semi_explicit", tau=0.25, T=1.0)
    _, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    # one pressure factorization per step plus the single displacement one
    assert report.factorization_count == report.n_steps + 1


@pytest.mark.parametrize("scheme", ["semi_explicit", "implicit_picard", "delay_implicit"])
def test_reported_factorizations_equal_lu_calls(scheme, monkeypatch):
    calls = []

    def counting(splu):
        def factor(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)
        return factor

    for module in (linsolve, stepper):
        monkeypatch.setattr(module, "splu", counting(module.splu))
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)
    cfg = StepperConfig(scheme=scheme, tau=0.25, T=1.0, picard_max=3)
    _, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert report.factorization_count == len(calls)


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
