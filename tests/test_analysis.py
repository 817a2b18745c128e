import math

import numpy as np
import pytest

from biotbench import (Coefficients, KozenyCarman, NormKind, StepperConfig,
                       build_structured_mesh, convergence_order,
                       coupling_diagnostic, error_vs_manufactured,
                       error_vs_reference, experiment_41_data, experiment_42_data,
                       experiment_43_data, p_error_time_integrated, run)
from biotbench import analysis
from biotbench.analysis import NormCalculator
from biotbench.assembly import (assemble_elasticity, assemble_laplace, assemble_mass,
                                assemble_pressure_mass)
from biotbench.config import SchemeSpec
from biotbench.experiments import simulate
from dense_reference import dense_mass, restrict_dense

CO = Coefficients(lam=1.0, mu=1.0, alpha=1.0, M=1.0, kappa_over_nu=1.0,
                  permeability=KozenyCarman(kappa0=1.0, rho0=0.5, c_s=-0.75, C_s=0.75))


def test_zero_vectors_have_zero_norm():
    mesh = build_structured_mesh(3)
    u0 = np.zeros(mesh.num_displacement_dofs)
    p0 = np.zeros(mesh.num_pressure_dofs)
    for kind in NormKind:
        assert NormCalculator(mesh, CO).norm(kind, u=u0, p=p0) == 0.0


def test_triple_norm_combines_energy_norms():
    mesh = build_structured_mesh(4)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.num_displacement_dofs)
    p = rng.standard_normal(mesh.num_pressure_dofs)
    a = NormCalculator(mesh, CO).norm(NormKind.A, u=u)
    c = NormCalculator(mesh, CO).norm(NormKind.C, p=p)
    t = NormCalculator(mesh, CO).norm(NormKind.TRIPLE, u=u, p=p)
    assert t == pytest.approx(math.hypot(a, c), rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_c_norm_matches_dense_quadratic_form(n):
    mesh = build_structured_mesh(n)
    C_ref = restrict_dense(mesh, dense_mass(mesh, 1.0 / CO.M))
    rng = np.random.default_rng(n)
    for _ in range(10):
        p = rng.standard_normal(mesh.num_pressure_dofs)
        expected = math.sqrt(p @ (C_ref @ p))
        assert abs(NormCalculator(mesh, CO).norm(NormKind.C, p=p) - expected) < 1e-12


def test_norm_axioms_on_random_pairs():
    mesh = build_structured_mesh(4)
    calc = NormCalculator(mesh, CO)
    rng = np.random.default_rng(42)
    for _ in range(100):
        u1, u2 = rng.standard_normal((2, mesh.num_displacement_dofs))
        p1, p2 = rng.standard_normal((2, mesh.num_pressure_dofs))
        lam = rng.uniform(-3, 3)
        for kind in NormKind:
            n1 = calc.norm(kind, u=u1, p=p1)
            n2 = calc.norm(kind, u=u2, p=p2)
            n12 = calc.norm(kind, u=u1 + u2, p=p1 + p2)
            assert n12 <= n1 + n2 + 1e-10
            nl = calc.norm(kind, u=lam * u1, p=lam * p1)
            assert abs(nl - abs(lam) * n1) < 1e-10
        assert calc.norm(NormKind.A, u=u1) > 0.0
        assert calc.norm(NormKind.Q, p=p1) > 0.0


def test_elastic_and_gradient_norms_are_equivalent():
    # mu*|grad u|^2 <= a(u,u) <= (3 mu + 2 lam)*|grad u|^2 on the
    # zero-boundary space
    lam, mu = 2.0, 3.0
    co = Coefficients(lam=lam, mu=mu, alpha=1.0, M=1.0, kappa_over_nu=1.0,
                      permeability=CO.permeability)
    mesh = build_structured_mesh(5)
    calc = NormCalculator(mesh, co)
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.standard_normal(mesh.num_displacement_dofs)
        ratio = calc.norm(NormKind.A, u=u) / calc.norm(NormKind.V, u=u)
        assert math.sqrt(mu) - 1e-10 <= ratio <= math.sqrt(3 * mu + 2 * lam) + 1e-10


def test_each_norm_is_the_root_of_its_quadratic_forms_bit_for_bit():
    mesh = build_structured_mesh(5)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(mesh.num_displacement_dofs)
    p = rng.standard_normal(mesh.num_pressure_dofs)
    A, C = assemble_elasticity(mesh, CO), assemble_pressure_mass(mesh, CO)
    L, M = assemble_laplace(mesh), assemble_mass(mesh)

    def form(X, v):
        return float(v @ (X @ v))

    squares = {
        NormKind.A: form(A, u),
        NormKind.C: form(C, p),
        NormKind.V: form(L, u[0::2]) + form(L, u[1::2]),
        NormKind.Q: form(L, p),
        NormKind.HV: form(M, u[0::2]) + form(M, u[1::2]),
        NormKind.HQ: form(M, p),
        NormKind.TRIPLE: form(A, u) + form(C, p),
    }
    assert set(squares) == set(NormKind)
    calc = NormCalculator(mesh, CO)
    for kind, square in squares.items():
        assert calc.norm(kind, u=u, p=p) == math.sqrt(square)


def test_a_calculator_assembles_each_matrix_once_in_first_use_order(monkeypatch):
    calls = []
    for name in ("assemble_elasticity", "assemble_pressure_mass", "assemble_laplace",
                 "assemble_mass"):
        def counted(*args, _name=name, _real=getattr(analysis, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(analysis, name, counted)
    mesh = build_structured_mesh(4)
    u = np.ones(mesh.num_displacement_dofs)
    p = np.ones(mesh.num_pressure_dofs)
    calc = NormCalculator(mesh, CO)
    for _ in range(2):
        for kind in NormKind:
            calc.norm(kind, u=u, p=p)
    assert calls == ["assemble_elasticity", "assemble_pressure_mass", "assemble_laplace",
                     "assemble_mass"]


def test_manufactured_error_vanishes_for_exact_input():
    prob = experiment_42_data()
    mesh = build_structured_mesh(6)
    t = 0.5
    from biotbench.stepper import State
    state = State(u=mesh.nodal_vector(prob.exact_u, t),
                  p=mesh.nodal_scalar(prob.exact_p, t), t=t)
    report = error_vs_manufactured(mesh, prob.coeffs, [state], prob.exact_u,
                                   prob.exact_p)
    for value in report.absolute.values():
        assert value < 1e-13
    for value in report.relative.values():
        assert value < 1e-13


def test_reference_error_vanishes_against_itself():
    prob = experiment_41_data()
    mesh = build_structured_mesh(8)
    cfg = StepperConfig(scheme="semi_explicit", tau=0.25, T=1.0)
    traj, _ = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    report = error_vs_reference(traj, traj, mesh, mesh, prob.coeffs)
    for value in report.absolute.values():
        assert value < 1e-14


def test_reference_error_vanishes_for_prolonged_state():
    # a coarse state compared against its own prolongation is exact
    prob = experiment_41_data()
    coarse = build_structured_mesh(4)
    fine = build_structured_mesh(8)
    cfg = StepperConfig(scheme="semi_explicit", tau=0.5, T=1.0)
    traj, _ = run(coarse, prob.coeffs, cfg, prob.f, prob.g, prob.p0)

    from biotbench.mesh import prolongation
    from biotbench.stepper import State
    fine_states = []
    for s in traj:
        pf = fine.restrict_scalar(prolongation(coarse, fine) @ coarse.extend_scalar(s.p))
        uf_full = np.empty(2 * fine.num_nodes)
        full = coarse.extend_vector(s.u)
        uf_full[0::2] = prolongation(coarse, fine) @ full[0::2]
        uf_full[1::2] = prolongation(coarse, fine) @ full[1::2]
        fine_states.append(State(u=fine.restrict_vector(uf_full), p=pf, t=s.t))
    report = error_vs_reference(traj, fine_states, coarse, fine, prob.coeffs)
    for value in report.absolute.values():
        assert value < 1e-12


def test_reference_error_rejects_non_nested_meshes():
    prob = experiment_41_data()
    m3, m4 = build_structured_mesh(3), build_structured_mesh(4)
    cfg = StepperConfig(scheme="semi_explicit", tau=0.5, T=1.0)
    t3, _ = run(m3, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    t4, _ = run(m4, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    with pytest.raises(ValueError):
        error_vs_reference(t3, t4, m3, m4, prob.coeffs)


def test_reference_error_rejects_a_reference_without_the_final_time():
    prob = experiment_41_data()
    mesh = build_structured_mesh(4)
    cfg = StepperConfig(scheme="semi_explicit", tau=0.5, T=1.0)
    traj, _ = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    with pytest.raises(ValueError, match="no state at time 1.0"):
        error_vs_reference(traj, traj[:-1], mesh, mesh, prob.coeffs)


def test_convergence_order_basics():
    assert convergence_order([0.4, 0.2, 0.1]) == pytest.approx([1.0, 1.0])
    assert convergence_order([0.4, 0.1]) == pytest.approx([2.0])
    assert convergence_order([0.3, 0.3, 0.3]) == pytest.approx([0.0, 0.0])
    with pytest.raises(ValueError):
        convergence_order([0.4])
    with pytest.raises(ValueError):
        convergence_order([0.4, -0.1])
    with pytest.raises(ValueError):
        convergence_order([0.4, 0.0])


def test_convergence_order_on_a_measured_error_column():
    # error column of a typical first-order run, orders slightly above 1
    orders = convergence_order([0.00716, 0.00340, 0.00165, 0.000805])
    assert orders == pytest.approx([1.07, 1.04, 1.04], abs=0.01)


def test_coupling_diagnostic_for_the_three_experiments():
    ratio41, ok41 = coupling_diagnostic(experiment_41_data().coeffs)
    assert ratio41 == pytest.approx(2.77, abs=0.01)
    assert not ok41

    ratio42, ok42 = coupling_diagnostic(experiment_42_data().coeffs)
    assert ratio42 == pytest.approx(1.0, abs=1e-14)
    assert ok42

    for alpha in (0.5, 1.0, 2.0):
        ratio43, ok43 = coupling_diagnostic(experiment_43_data(alpha).coeffs)
        assert ratio43 == pytest.approx(alpha**2, rel=1e-14)
        assert ok43 == (alpha <= 1.0)

    co0 = Coefficients(lam=1.0, mu=1.0, alpha=0.0, M=1.0, kappa_over_nu=1.0,
                       permeability=CO.permeability)
    assert coupling_diagnostic(co0) == (0.0, True)


def test_time_integrated_pressure_error_scales_linearly():
    prob = experiment_42_data()
    mesh = build_structured_mesh(16)
    errs = []
    for tau in (0.25, 0.125, 0.0625):
        cfg = StepperConfig(scheme="semi_explicit", tau=tau, T=1.0)
        traj, _ = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
        errs.append(p_error_time_integrated(mesh, prob.coeffs, traj, prob.exact_p))
    orders = convergence_order(errs)
    for order in orders:
        assert 0.7 <= order <= 1.3


def test_elastic_error_stagnates_at_spatial_floor():
    # at a fixed coarse mesh the energy-norm displacement error is
    # temporal-dominated for large tau and flattens out at the spatial
    # error level as tau -> 0
    prob = experiment_42_data()
    errors = []
    for k in range(2, 10):
        mesh, traj, _ = simulate(prob, SchemeSpec(scheme="semi_explicit"), 8,
                                 2.0**-k)
        report = error_vs_manufactured(mesh, prob.coeffs, traj, prob.exact_u,
                                       prob.exact_p, kinds=[NormKind.A])
        errors.append(report.relative["u_a"])
    assert errors[0] / errors[1] > 1.7        # still first order in tau
    assert errors[-2] / errors[-1] < 1.15     # flat: spatial floor reached
    assert errors[-1] > 1e-2                  # the floor is genuinely spatial


def test_reference_convergence_on_consolidation_benchmark():
    # fixed reference run (implicit scheme, finer time grid), then coarse
    # semi-explicit runs with halved step sizes on the same mesh
    prob = experiment_41_data()
    n_ref = 64
    ref_spec = SchemeSpec(scheme="implicit_picard", picard_max=10, picard_tol=1e-9)
    ref_mesh, ref_traj, _ = simulate(prob, ref_spec, n_ref, 2.0**-7)

    p_errors, u_errors = [], []
    for k in range(1, 6):
        mesh, traj, _ = simulate(prob, SchemeSpec(scheme="semi_explicit"), n_ref,
                                 2.0**-k)
        report = error_vs_reference(traj, ref_traj, mesh, ref_mesh, prob.coeffs,
                                    kinds=[NormKind.C, NormKind.A])
        p_errors.append(report.relative["p_c"])
        u_errors.append(report.relative["u_a"])

    # monotone decay under halving for both variables
    assert all(b < a for a, b in zip(p_errors, p_errors[1:]))
    assert all(b < a for a, b in zip(u_errors, u_errors[1:]))
    # first-order decay: overall slope across the tau range within the band
    # (adjacent pairs fluctuate at this desk scale, so bound them loosely)
    slope_p = math.log2(p_errors[0] / p_errors[-1]) / (len(p_errors) - 1)
    slope_u = math.log2(u_errors[0] / u_errors[-1]) / (len(u_errors) - 1)
    assert 0.8 <= slope_p <= 1.2
    assert 0.8 <= slope_u <= 1.2
    for order in convergence_order(p_errors) + convergence_order(u_errors):
        assert 0.4 <= order <= 1.5
