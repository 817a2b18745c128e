"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s``); the
assertions pin the tolerances.  Some criteria measure wall time and are
sized for an ordinary desktop machine.
"""

import math
import statistics
import time

import numpy as np

import biotbench as bb
from biotbench.analysis import NormCalculator, NormKind
from biotbench.config import SchemeSpec
from biotbench.experiments import simulate
from dense_reference import (dense_coupling, dense_elasticity, dense_mass,
                             dense_permeability_stiffness, restrict_dense,
                             strong_form_residual, unconstrained)

SEMI = SchemeSpec(scheme="semi_explicit")


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _final_error(problem, spec, n, tau, kinds):
    mesh, trajectory, report = simulate(problem, spec, n, tau)
    err = bb.error_vs_manufactured(mesh, problem.coeffs, trajectory,
                                   problem.exact_u, problem.exact_p, kinds=kinds)
    return err, report


def test_criterion_01_temporal_first_order():
    tic = time.perf_counter()
    prob = bb.experiment_42_data()
    errs_p, errs_u = [], []
    for k in range(2, 7):
        err, _ = _final_error(prob, SEMI, 64, 2.0**-k,
                              kinds=[NormKind.C, NormKind.HV])
        errs_p.append(err.relative["p_c"])
        errs_u.append(err.relative["u_hv"])
    elapsed = time.perf_counter() - tic
    order_p = bb.convergence_order(errs_p)[-1]
    order_u = bb.convergence_order(errs_u)[-1]
    ok = 0.85 <= order_p <= 1.15 and 0.85 <= order_u <= 1.15 and elapsed < 180.0
    _report(1, ok, f"observed orders p_c={order_p:.3f}, u_hv={order_u:.3f} "
                   f"(target [0.85, 1.15]), elapsed {elapsed:.1f}s < 180s")


def test_criterion_02_delay_equivalence():
    prob = bb.experiment_41_data()
    mesh = bb.build_structured_mesh(16)
    tau = 2.0**-4
    cfg_semi = bb.StepperConfig(scheme="semi_explicit", tau=tau, T=1.0)
    semi, _ = bb.run(mesh, prob.coeffs, cfg_semi, prob.f, prob.g, prob.p0)

    p0 = mesh.nodal_scalar(prob.p0)
    histories = {
        "constant": None,
        "smooth nonconstant": lambda t: p0 * (1.0 + math.sin(math.pi * t / tau) ** 2),
    }
    worst = 0.0
    for label, history in histories.items():
        cfg = bb.StepperConfig(scheme="delay_implicit", tau=tau, T=1.0,
                               history=history)
        delay = bb.delay_implicit_run(mesh, prob.coeffs, cfg, prob.f, prob.g,
                                      prob.p0)
        for a, b in zip(semi, delay):
            worst = max(worst, np.abs(a.u - b.u).max(), np.abs(a.p - b.p).max())
    _report(2, worst <= 1e-12,
            f"max nodewise deviation semi-explicit vs delay path {worst:.2e} <= 1e-12")


def test_criterion_03_picard_fixed_point():
    prob = bb.experiment_41_data()
    mesh = bb.build_structured_mesh(32)
    tau = 2.0**-5
    cfg = bb.StepperConfig(scheme="implicit_picard", tau=tau, T=1.0,
                           picard_max=30, picard_tol=1e-9)
    trajectory, report = bb.run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)

    co = prob.coeffs
    A = restrict_dense(mesh, dense_elasticity(mesh, co.lam, co.mu), "vector", "vector")
    C = restrict_dense(mesh, dense_mass(mesh, 1.0 / co.M))
    D = restrict_dense(mesh, dense_coupling(mesh, co.alpha), "scalar", "vector")

    worst_res = 0.0
    for prev, cur in zip(trajectory[:-1], trajectory[1:]):
        B = restrict_dense(mesh, dense_permeability_stiffness(mesh, co, cur.u))
        rhs_u = np.zeros(mesh.num_displacement_dofs)
        rhs_p = tau * bb.assemble_load_q(mesh, prob.g, cur.t) + D @ prev.u + C @ prev.p
        terms = (A @ cur.u, D.T @ cur.p, D @ cur.u, C @ cur.p, tau * (B @ cur.p))
        r_u = terms[0] - terms[1] - rhs_u
        r_p = terms[2] + terms[3] + terms[4] - rhs_p
        scale = math.hypot(np.linalg.norm(rhs_u), np.linalg.norm(rhs_p)) + sum(
            np.linalg.norm(v) for v in terms)
        worst_res = max(worst_res, math.hypot(np.linalg.norm(r_u),
                                              np.linalg.norm(r_p)) / scale)
    ok = worst_res <= 2e-9 and report.picard_max <= 10
    _report(3, ok, f"independently assembled step residual {worst_res:.2e} <= 2e-9, "
                   f"max Picard iterations {report.picard_max} <= 10")


def test_criterion_04_assembly_oracle():
    co = bb.Coefficients(lam=1.0, mu=1.0, alpha=1.0, M=1.0, kappa_over_nu=1.0,
                         permeability=bb.KozenyCarman(kappa0=1.0, rho0=0.5,
                                                      c_s=-0.75, C_s=0.75))
    worst = 0.0
    for n in (1, 2, 4):
        mesh = bb.build_structured_mesh(n)
        rng = np.random.default_rng(n)
        u = rng.standard_normal(mesh.num_displacement_dofs)
        free = unconstrained(mesh)
        pairs = [
            (bb.assemble_elasticity(free, co).toarray(),
             dense_elasticity(mesh, co.lam, co.mu)),
            (bb.assemble_pressure_mass(free, co).toarray(),
             dense_mass(mesh, 1.0 / co.M)),
            (bb.assemble_coupling(free, co).toarray(),
             dense_coupling(mesh, co.alpha)),
            (bb.assemble_permeability_stiffness(free, co, mesh.extend_vector(u)).toarray(),
             dense_permeability_stiffness(mesh, co, u)),
        ]
        worst = max(worst, *(np.abs(a - b).max() for a, b in pairs))

    mesh = bb.build_structured_mesh(4)
    free = unconstrained(mesh)
    mass_gap = abs(bb.assemble_pressure_mass(free, co).sum() - 1.0 / co.M)
    D_full = bb.assemble_coupling(free, co)
    ones = np.ones(mesh.num_nodes)
    rng = np.random.default_rng(17)
    div_gap = max(abs(ones @ (D_full @ mesh.extend_vector(
        rng.standard_normal(mesh.num_displacement_dofs)))) for _ in range(20))
    ok = worst < 1e-12 and mass_gap <= 1e-12 and div_gap <= 1e-12
    _report(4, ok, f"entrywise assembly gap {worst:.2e} < 1e-12, mass sum gap "
                   f"{mass_gap:.2e}, divergence identity gap {div_gap:.2e}")


def test_criterion_05_permeability_contract():
    models = [
        bb.NetworkInspired(kappa0=1.0, rho0=0.4, rho_hat=0.2, delta=0.01),
        bb.KozenyCarman(kappa0=1.0, rho0=0.5, c_s=-0.75, C_s=0.75),
        bb.QuadraticClamped(kappa0=1.0, rho0=0.4, c_s=0.01, C_s=0.75),
    ]
    rng = np.random.default_rng(123)
    ok = True
    detail = []
    for model in models:
        lo, hi = model.bounds()
        s, t = rng.uniform(-10, 10, size=(2, 10_000))
        vals_s, vals_t = model.eval(s), model.eval(t)
        bound_ok = bool(np.all(vals_s >= lo - 1e-12) and np.all(vals_s <= hi + 1e-12))
        lipschitz_ok = bool(np.all(
            np.abs(vals_s - vals_t)
            <= model.lipschitz_constant() * np.abs(s - t) + 1e-12))
        wide = np.linspace(-1e3, 1e3, 10_001)
        wide_ok = bool(np.all((model.eval(wide) >= lo - 1e-12)
                              & (model.eval(wide) <= hi + 1e-12)))
        ok = ok and bound_ok and lipschitz_ok and wide_ok
        detail.append(f"{type(model).__name__}: bounds {bound_ok}, "
                      f"lipschitz {lipschitz_ok}")

    # continuity at the clamp joints
    kc, net, quad = models[1], models[0], models[2]
    joints = [
        abs(kc.eval(kc.c_s - 1.0) - kc.eval(kc.c_s)),
        abs(kc.eval(kc.C_s + 1.0) - kc.eval(kc.C_s)),
        abs(net.eval(-50.0) - net.eval(-math.log((1 - net.rho_hat) / (1 - net.rho0)))),
        abs(quad.eval((quad.c_s - quad.rho0) / (1 - quad.rho0) - 1.0)
            - quad.eval((quad.c_s - quad.rho0) / (1 - quad.rho0))),
        abs(quad.eval((quad.C_s - quad.rho0) / (1 - quad.rho0) + 1.0)
            - quad.eval((quad.C_s - quad.rho0) / (1 - quad.rho0))),
    ]
    joint_gap = max(joints)
    ok = ok and joint_gap < 1e-12
    _report(5, ok, "; ".join(detail) + f"; joint continuity gap {joint_gap:.2e}")


def test_criterion_06_manufactured_forcing_oracle():
    prob = bb.experiment_42_data()
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(50):
        x, y = rng.uniform(0.05, 0.95, 2)
        t = rng.uniform(0.05, 0.95)
        res_momentum, res_mass = strong_form_residual(prob, x, y, t)
        worst = max(worst, np.abs(res_momentum).max(), abs(res_mass))
    _report(6, worst < 1e-5,
            f"strong-form residual of derived forcing {worst:.2e} < 1e-5")


def test_criterion_07_stability_boundary():
    tic = time.perf_counter()
    n, tau = 16, 2.0**-5
    stable_alphas = [0.05, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
    unstable_alphas = [3.0, 3.5, 4.0, 4.5, 5.0]
    impl = SchemeSpec(scheme="implicit_picard", picard_max=50, picard_tol=1e-9)

    def deviation(alpha):
        prob = bb.experiment_43_data(alpha)
        mesh, semi, _ = simulate(prob, SEMI, n, tau)
        _, ref, _ = simulate(prob, impl, n, tau)
        calc = NormCalculator(mesh, prob.coeffs)
        num = calc.norm(NormKind.TRIPLE, u=semi[-1].u - ref[-1].u,
                        p=semi[-1].p - ref[-1].p)
        den = calc.norm(NormKind.TRIPLE, u=ref[-1].u, p=ref[-1].p)
        return num / den

    stable_devs = [deviation(a) for a in stable_alphas]
    unstable_devs = [deviation(a) for a in unstable_alphas]
    elapsed = time.perf_counter() - tic
    ok = all(d < 0.1 for d in stable_devs) and \
        all(d > 10.0 for d in unstable_devs) and elapsed < 300.0
    _report(7, ok,
            f"deviation at alpha<=1.5 max {max(stable_devs):.3e} < 0.1; "
            f"alpha>=3 min {min(unstable_devs):.3e} > 10; elapsed {elapsed:.0f}s")


def test_criterion_08_coupling_diagnostic():
    r41, ok41 = bb.coupling_diagnostic(bb.experiment_41_data().coeffs)
    r42, ok42 = bb.coupling_diagnostic(bb.experiment_42_data().coeffs)
    checks = [abs(r41 - 2.77) < 0.01, not ok41,
              abs(r42 - 1.0) < 1e-12, ok42]
    for alpha in (0.5, 1.0, 1.5, 3.0):
        r43, ok43 = bb.coupling_diagnostic(bb.experiment_43_data(alpha).coeffs)
        checks.append(abs(r43 - alpha**2) < 1e-12)
        checks.append(ok43 == (alpha <= 1.0))
    _report(8, all(checks),
            f"ratios: consolidation {r41:.3f} (violated), manufactured {r42:.1f} "
            f"(boundary case), stability alpha^2 with threshold at 1")


def test_criterion_09_performance():
    prob_t1 = bb.experiment_42_data()
    prob_t2 = bb.with_coefficients(prob_t1, mu=10.0, M=0.1)
    n = 64
    impl2 = SchemeSpec(scheme="implicit_picard", picard_max=2, picard_tol=1e-9)
    impl10 = SchemeSpec(scheme="implicit_picard", picard_max=10, picard_tol=1e-9)

    def median_run(problem, spec, tau, repeats=3):
        """Median loop wall time of ``repeats`` identical runs, and the last report."""
        walls = []
        for _ in range(repeats):
            _, _, report = simulate(problem, spec, n, tau)
            walls.append(report.wall_time)
        return statistics.median(walls), report

    def median_wall(problem, spec, tau):
        return median_run(problem, spec, tau)[0]

    # same (h, tau) for all three schemes
    tau = 2.0**-5
    semi_wall = median_wall(prob_t1, SEMI, tau)
    impl2_wall = median_wall(prob_t1, impl2, tau)
    impl10_wall = median_wall(prob_t1, impl10, tau)
    same_ok = semi_wall < impl2_wall and semi_wall < impl10_wall

    # matched-accuracy protocol: each scheme runs at a step size giving
    # comparable final errors (the implicit variant affords a much larger
    # tau); with the weaker coupling the speed-up must grow
    base10_wall, base10 = median_run(prob_t1, impl10, 2.0**-1)
    speedup_t1 = base10_wall / median_wall(prob_t1, SEMI, 2.0**-6)
    weak10_wall, weak10 = median_run(prob_t2, impl10, 2.0**-1)
    speedup_t2 = weak10_wall / median_wall(prob_t2, SEMI, 2.0**-4)
    protocol_ok = speedup_t2 > speedup_t1 and speedup_t1 > 0

    def capped(report):
        # implicit(10) at tau = 1/2 may stop at its cap, short of picard_tol
        return (f"{report.picard_capped}/{report.n_steps} steps capped, "
                f"max Picard residual {report.max_picard_residual:.1e}")

    ok = same_ok and protocol_ok
    _report(9, ok,
            f"walls at same (h,tau): semi {semi_wall:.2f}s < implicit(2) "
            f"{impl2_wall:.2f}s and < implicit(10) {impl10_wall:.2f}s; "
            f"matched-accuracy speedup vs implicit(10): weak-coupling "
            f"{speedup_t2:.2f}x ({capped(weak10)}) > base {speedup_t1:.2f}x "
            f"({capped(base10)})")


def test_criterion_10_linear_case_degeneracy():
    base = bb.experiment_42_data()
    frozen = bb.with_coefficients(
        base, permeability=bb.Constant(base.coeffs.permeability.eval(0.0)))

    mesh = bb.build_structured_mesh(16)
    cfg1 = bb.StepperConfig(scheme="implicit_picard", tau=0.125, T=1.0,
                            picard_max=1, picard_tol=1e-9)
    cfg10 = bb.StepperConfig(scheme="implicit_picard", tau=0.125, T=1.0,
                             picard_max=10, picard_tol=1e-9)
    t1, _ = bb.run(mesh, frozen.coeffs, cfg1, frozen.f, frozen.g, frozen.p0)
    t10, _ = bb.run(mesh, frozen.coeffs, cfg10, frozen.f, frozen.g, frozen.p0)
    cap_gap = max(max(np.abs(a.u - b.u).max(), np.abs(a.p - b.p).max())
                  for a, b in zip(t1, t10))

    # without the nonlinearity the temporal error constant is much smaller,
    # so a finer mesh keeps the last step sizes inside the tau-dominated
    # regime
    errs_p, errs_u = [], []
    for k in range(2, 7):
        err, _ = _final_error(frozen, SEMI, 128, 2.0**-k,
                              kinds=[NormKind.C, NormKind.HV])
        errs_p.append(err.relative["p_c"])
        errs_u.append(err.relative["u_hv"])
    order_p = bb.convergence_order(errs_p)[-1]
    order_u = bb.convergence_order(errs_u)[-1]
    ok = cap_gap <= 1e-9 and 0.85 <= order_p <= 1.15 and 0.85 <= order_u <= 1.15
    _report(10, ok, f"capped vs tolerance-stopped gap {cap_gap:.2e} <= 1e-9; "
                    f"frozen-permeability temporal orders p_c={order_p:.3f}, "
                    f"u_hv={order_u:.3f} in [0.85, 1.15]")
