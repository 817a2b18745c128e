import json
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from biotbench import (BlockSystem, Coefficients, KozenyCarman, SolverFailure,
                       StepperConfig, assemble_coupling, assemble_elasticity,
                       assemble_laplace, assemble_load_q, assemble_load_v,
                       assemble_permeability_stiffness, assemble_pressure_mass,
                       build_structured_mesh, experiment_41_data, experiment_42_data,
                       experiment_43_data, initial_displacement, linsolve, run, solve_block,
                       solve_spd, stepper)
from biotbench import cli
from biotbench.assembly import assemble_mass, pressure_prolongations, pressure_sum
from biotbench.linsolve import SpdFactorization
from biotbench.stepper import StepOperators
from dense_reference import (ProductVCycle, reference_schur_solve, scipy_csr,
                             stacked_block_operator)

CO = Coefficients(lam=1.0, mu=1.0, alpha=1.0, M=1.0, kappa_over_nu=1.0,
                  permeability=KozenyCarman(kappa0=1.0, rho0=0.5, c_s=-0.75, C_s=0.75))


def test_identity_returns_rhs():
    rhs = np.array([1.0, -2.0, 3.5])
    x = solve_spd(sp.eye(3, format="csr"), rhs)
    assert np.allclose(x, rhs, atol=1e-15)


def test_two_by_two_hand_checkable():
    op = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = solve_spd(op, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_laplace_residual_below_tolerance():
    mesh = build_structured_mesh(4)
    L = assemble_laplace(mesh)
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(L.shape[0])
    x = solve_spd(L, rhs)
    assert np.linalg.norm(scipy_csr(L) @ x - rhs) / np.linalg.norm(rhs) <= 1e-12


def test_zero_rhs_gives_zero_without_solving():
    L = assemble_laplace(build_structured_mesh(3))
    assert np.all(solve_spd(L, np.zeros(L.shape[0])) == 0.0)


def test_spd_solve_verifies_the_backward_error_not_the_relative_residual():
    # b = T v for the smoothest eigenvector v of tridiag(-1, 2, -1), whose
    # eigenvalue is about (pi/N)^2: ||b|| is so small against ||T|| ||x||
    # that a backward-stable solve leaves a relative residual of about
    # 3e-11, while its normwise backward error is at roundoff level
    N = 2000
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(N, N), format="csr")
    v = np.sin(np.pi * np.arange(1, N + 1) / (N + 1))
    b = T @ v
    x = solve_spd(T, b)
    assert np.linalg.norm(T @ x - b) / (4.0 * np.linalg.norm(x) + np.linalg.norm(b)) <= 1e-12
    # the condition number is about 1.6e6
    assert np.linalg.norm(x - v) / np.linalg.norm(v) <= 1e-8


def test_spd_solve_accepts_an_operator_whose_norm_overflows():
    # ||op||_inf = 2.5e308 is not a double, but the solve and its residual are
    op = sp.csr_matrix(np.array([[1e308, 1e308], [1e308, 1.5e308]]))
    assert np.array_equal(solve_spd(op, np.ones(2)), [1e-308, 0.0])


def test_solver_failure_carries_residual():
    # a singular operator cannot meet any tolerance
    op = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises((SolverFailure, RuntimeError)):
        solve_spd(op, np.array([1.0, 2.0]))


def test_solver_failure_survives_pickling():
    # a sweep worker sends an exception raised outside its try to the parent pickled
    err = pickle.loads(pickle.dumps(SolverFailure("block solve failed", 1.5e-3)))
    assert type(err) is SolverFailure
    assert err.error == 1.5e-3
    assert str(err) == "block solve failed (achieved backward error 1.500e-03)"


def _block_parts(n=2):
    mesh = build_structured_mesh(n)
    A = assemble_elasticity(mesh, CO)
    C = scipy_csr(assemble_pressure_mass(mesh, CO))
    D = assemble_coupling(mesh, CO)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(mesh.num_displacement_dofs)
    B = scipy_csr(assemble_permeability_stiffness(mesh, CO, u))
    return mesh, A, C, D, B


def _sweep_factors(A, S):
    return SpdFactorization(A), SpdFactorization(S.tocsr())


def test_block_dimension_validation():
    _, A, C, D, B = _block_parts()
    with pytest.raises(ValueError):
        BlockSystem(A, D.T, C)


def test_block_zero_coupling_decouples():
    mesh, A, C, D, B = _block_parts(4)
    tau = 0.25
    zero_D = sp.csr_matrix(D.shape)
    rng = np.random.default_rng(1)
    rhs_u = rng.standard_normal(A.shape[0])
    rhs_p = rng.standard_normal(C.shape[0])
    # without coupling S is the pressure block, which the preconditioner
    # factors: one CG step
    u, p, steps = solve_block(BlockSystem(A, zero_D, C + tau * B), rhs_u, rhs_p,
                              *_sweep_factors(A, C + tau * B))
    assert steps == 1
    assert np.abs(u - solve_spd(A, rhs_u)).max() < 1e-12
    assert np.abs(p - solve_spd((C + tau * B).tocsr(), rhs_p)).max() < 1e-12


def test_block_zero_rhs_gives_zero():
    _, A, C, D, B = _block_parts()
    u, p, steps = solve_block(BlockSystem(A, D, C + 0.5 * B),
                              np.zeros(A.shape[0]), np.zeros(C.shape[0]),
                              *_sweep_factors(A, C + 0.5 * B))
    assert np.all(u == 0.0) and np.all(p == 0.0) and steps == 0


def test_block_matches_dense_inverse_oracle():
    _, A, C, D, B = _block_parts(2)
    tau = 0.125
    system = BlockSystem(A, D, C + tau * B)
    rng = np.random.default_rng(3)
    rhs_u = rng.standard_normal(A.shape[0])
    rhs_p = rng.standard_normal(C.shape[0])
    u, p, _ = solve_block(system, rhs_u, rhs_p, *_sweep_factors(A, C + tau * B))

    K = stacked_block_operator(system).toarray()
    expected = np.linalg.solve(K, np.concatenate([rhs_u, rhs_p]))
    assert np.abs(np.concatenate([u, p]) - expected).max() < 1e-10


def test_block_monolithic_layout():
    _, A, C, D, B = _block_parts(2)
    P = C + 0.5 * B
    system = BlockSystem(A, D, P)
    rng = np.random.default_rng(4)
    for _ in range(3):
        u, p = rng.standard_normal(A.shape[0]), rng.standard_normal(C.shape[0])
        # scipy's products run the same compiled kernels, so the same bits
        expected = np.concatenate([A @ u - D.T @ p, D @ u + P @ p])
        assert system.monolithic(u, p).tobytes() == expected.tobytes()


def test_spd_solve_deterministic():
    mesh = build_structured_mesh(5)
    L = assemble_laplace(mesh)
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(L.shape[0])
    x1 = solve_spd(L, rhs)
    x2 = solve_spd(L, rhs)
    assert np.all(x1 == x2)


# block solves on the first Picard system of each experiment


def lu_block_solve(system, rhs_u, rhs_p):
    """Slow-path oracle: one sparse LU of the monolithic operator, refined twice.

    This is the direct block solve the Krylov one replaced.
    """
    K = stacked_block_operator(system).tocsc()
    rhs = np.concatenate([rhs_u, rhs_p])
    lu = splu(K)
    x = lu.solve(rhs)
    for _ in range(2):
        x = x + lu.solve(rhs - K @ x)
    nu = system.A.shape[0]
    return x[:nu], x[nu:]


PROBLEMS = {"ex41": experiment_41_data, "ex42": experiment_42_data,
            "ex43": lambda: experiment_43_data(4.0)}


def _first_picard_system(name, n=8, tau=2.0**-5):
    """Block system, right-hand sides, warm start and factors of step 1's first iterate.

    The warm start is the one the Picard step builds: p0 and the u consistent
    with it, A^-1 (f + D^T p0) with the step's load f.
    """
    prob = PROBLEMS[name]()
    mesh = build_structured_mesh(n)
    ops = StepOperators(mesh, prob.coeffs)
    p0 = mesh.nodal_scalar(prob.p0)
    u0 = initial_displacement(ops, p0, assemble_load_v(mesh, prob.f, 0.0))
    B = ops.permeability_stiffness(u0)
    system = BlockSystem(ops.A, ops.D, scipy_csr(ops.C) + tau * scipy_csr(B))
    rhs_u = assemble_load_v(mesh, prob.f, tau)
    rhs_p = tau * assemble_load_q(mesh, prob.g, tau) + ops.D @ u0 + scipy_csr(ops.C) @ p0
    factors = (ops.a_factor(), ops.fixed_stress_factor(B, tau))
    guess = (ops.a_factor().back_solve(rhs_u + linsolve.rmatvec(ops.D, p0)), p0)
    return system, rhs_u, rhs_p, guess, factors


def _second_picard_system(name, n=8, tau=2.0**-5):
    """Step 1's second iterate: B frozen at the first iterate, which is the warm start."""
    system, rhs_u, rhs_p, guess, factors = _first_picard_system(name, n, tau)
    first = solve_block(system, rhs_u, rhs_p, *factors, guess)[:2]
    ops = StepOperators(build_structured_mesh(n), PROBLEMS[name]().coeffs)
    B = ops.permeability_stiffness(first[0])
    return (BlockSystem(ops.A, ops.D, scipy_csr(ops.C) + tau * scipy_csr(B)), rhs_u, rhs_p,
            first, factors)


def _backward_error(system, rhs_u, rhs_p, u, p):
    """The equilibrated normwise backward error, from a fresh diagonal and |K|."""
    K = stacked_block_operator(system)
    s = 1.0 / np.sqrt(np.abs(K.diagonal()))
    b, y = s * np.concatenate([rhs_u, rhs_p]), np.concatenate([u, p]) / s
    norm_K = (s * (abs(K) @ s)).max()
    return np.linalg.norm(b - s * (K @ (s * y))) / (norm_K * np.linalg.norm(y)
                                                     + np.linalg.norm(b))


@pytest.mark.parametrize("name", ["ex41", "ex42", "ex43"])
def test_forcing_term_bounds_the_verified_error(name):
    system, rhs_u, rhs_p, guess, factors = _second_picard_system(name)
    initial = _backward_error(system, rhs_u, rhs_p, *guess)
    exact = solve_block(system, rhs_u, rhs_p, *factors, guess)
    assert _backward_error(system, rhs_u, rhs_p, *exact[:2]) <= linsolve.DEFAULT_TOL
    for reduction in (1e-1, 1e-2, 1e-6):
        u, p, steps = solve_block(system, rhs_u, rhs_p, *factors, guess,
                                  reduction=reduction)
        target = max(linsolve.DEFAULT_TOL, reduction * initial)
        assert _backward_error(system, rhs_u, rhs_p, u, p) <= target
        assert steps <= exact[2]
    if name == "ex42":
        # the saving the Picard path relies on
        assert solve_block(system, rhs_u, rhs_p, *factors, guess,
                           reduction=1e-2)[2] < exact[2]


def test_forcing_term_solve_fails_when_its_target_is_not_reached(monkeypatch):
    system, rhs_u, rhs_p, guess, factors = _second_picard_system("ex42")
    monkeypatch.setattr(linsolve, "_CG_MAX", 1)  # one Krylov step in all
    with pytest.raises(SolverFailure, match="block solve failed"):
        solve_block(system, rhs_u, rhs_p, *factors, guess, reduction=1e-2)


def _block_deviation(got, expected):
    return max(np.linalg.norm(a - b) / np.linalg.norm(b) for a, b in zip(got, expected))


@pytest.mark.parametrize("name", ["ex41", "ex42", "ex43"])
def test_block_solve_matches_equilibrated_dense_solve(name):
    # ex41's blocks differ in scale by about 1e18 (lam ~ 8e8, kappa/nu ~ 8e-10);
    # an unequilibrated stopping test cannot see the pressure block there
    system, rhs_u, rhs_p, guess, factors = _first_picard_system(name)
    u, p, _ = solve_block(system, rhs_u, rhs_p, *factors, guess)

    K = stacked_block_operator(system).toarray()
    s = 1.0 / np.sqrt(np.abs(np.diag(K)))
    x = s * np.linalg.solve(s[:, None] * K * s, s * np.concatenate([rhs_u, rhs_p]))
    nu = system.A.shape[0]
    assert _block_deviation((u, p), (x[:nu], x[nu:])) <= 1e-12


@pytest.mark.parametrize("name", ["ex42", "ex43"])
def test_block_solve_matches_monolithic_lu(name):
    system, rhs_u, rhs_p, guess, factors = _first_picard_system(name)
    u, p, steps = solve_block(system, rhs_u, rhs_p, *factors, guess)
    assert steps > 0
    assert _block_deviation((u, p), lu_block_solve(system, rhs_u, rhs_p)) <= 1e-12


@pytest.mark.parametrize("name", ["ex41", "ex42", "ex43"])
@pytest.mark.parametrize("system", [_first_picard_system, _second_picard_system],
                         ids=["first", "second"])
def test_block_solve_matches_the_dense_schur_reference(name, system):
    system, rhs_u, rhs_p, guess, factors = system(name)
    u, p, steps = solve_block(system, rhs_u, rhs_p, *factors, guess)
    assert steps > 0
    assert _block_deviation((u, p), reference_schur_solve(system, rhs_u, rhs_p)) <= 1e-12


def test_a_warm_start_whose_u_is_not_consistent_is_verified_through_the_restart(monkeypatch):
    # ex42's t = 0 pair: u0 solves A u0 = f(0) + D^T p0, not the step's
    # f(tau) + D^T p0, so CG converges on a shifted system, the verification
    # of K's residual fails, and the restart solves u from p again
    system, rhs_u, rhs_p, (_, p0), factors = _first_picard_system("ex42")
    prob, mesh = experiment_42_data(), build_structured_mesh(8)
    u0 = initial_displacement(StepOperators(mesh, prob.coeffs), p0,
                              assemble_load_v(mesh, prob.f, 0.0))
    back_solves = []
    back_solve = factors[0].back_solve
    monkeypatch.setattr(factors[0], "back_solve",
                        lambda rhs: back_solves.append(1) or back_solve(rhs))
    u, p, steps = solve_block(system, rhs_u, rhs_p, *factors, (u0, p0))
    assert len(back_solves) == steps + 1  # one per CG iteration, and the restart's
    assert _backward_error(system, rhs_u, rhs_p, u, p) <= linsolve.DEFAULT_TOL
    # the pair the normwise error bounds, against the dense oracle
    expected = np.concatenate(reference_schur_solve(system, rhs_u, rhs_p))
    x = np.concatenate([u, p])
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("name", ["ex41", "ex42", "ex43"])
def test_block_solve_keeps_the_displacement_rows_at_rounding_level(name):
    # u is carried through CG's updates, not re-solved at the end, so its
    # rows A u - D^T p = f must stay as exact as one back-solve leaves them
    system, rhs_u, rhs_p, guess, factors = _second_picard_system(name)
    for reduction in (None, 1e-2):
        u, p, _ = solve_block(system, rhs_u, rhs_p, *factors, guess, reduction=reduction)
        residual = system.A @ u - system.D.T @ p - rhs_u
        scale = (abs(system.A).sum(axis=1).max() * np.linalg.norm(u)
                 + abs(system.D.T).sum(axis=1).max() * np.linalg.norm(p) + np.linalg.norm(rhs_u))
        assert np.linalg.norm(residual) <= 1e-14 * scale


# the run's one block operator and its in-place rewrites, against the
# per-iterate rebuild they replaced


def _same_csr(a, b):
    return (a.shape == b.shape and a.data.tobytes() == b.data.tobytes()
            and a.indices.tobytes() == b.indices.tobytes()
            and a.indptr.tobytes() == b.indptr.tobytes())


@pytest.mark.parametrize("name", ["ex41", "ex42", "ex43"])
def test_run_block_operator_equals_a_fresh_stack_after_every_rewrite(name):
    prob = PROBLEMS[name]()
    mesh = build_structured_mesh(8)
    ops = StepOperators(mesh, prob.coeffs)
    tau = 2.0**-5
    p0 = mesh.nodal_scalar(prob.p0)
    u0 = initial_displacement(ops, p0)
    rng = np.random.default_rng(11)
    scale = max(np.abs(u0).max(), 1e-3)
    displacements = [u0] + [u0 + scale * rng.standard_normal(u0.size) for _ in range(3)]
    for u in displacements:
        B = ops.permeability_stiffness(u)
        system = ops.block_system(B, tau)
        fresh = BlockSystem(ops.A, ops.D, scipy_csr(ops.C) + tau * scipy_csr(B))
        assert _same_csr(system.pressure, scipy_csr(ops.C) + tau * scipy_csr(B))
        x_u, x_p = rng.standard_normal(u0.size), rng.standard_normal(p0.size)
        assert system.monolithic(x_u, x_p).tobytes() == fresh.monolithic(x_u, x_p).tobytes()
        # the equilibration built from the blocks follows every rewrite
        K = stacked_block_operator(system)
        s, norm = system.equilibration()
        assert s.tobytes() == (1.0 / np.sqrt(np.abs(K.diagonal()))).tobytes()
        expected = (s * (abs(K) @ s)).max()
        assert abs(norm - expected) <= 1e-15 * expected
    # the rewrites leave the run's C, which a study shares, as it was assembled
    assert _same_csr(ops.C, assemble_pressure_mass(mesh, prob.coeffs))


def _on_pattern_of(op, C, dense):
    """Assert that op has C's index arrays and, slot by slot, the entries of
    ``dense``, which is zero off that pattern."""
    assert np.array_equal(op.indptr, C.indptr) and np.array_equal(op.indices, C.indices)
    rows = np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))
    assert op.data.tobytes() == dense[rows, C.indices].tobytes()
    off_pattern = dense.copy()
    off_pattern[rows, C.indices] = 0.0
    assert not off_pattern.any()


def test_in_place_pressure_sums_equal_scipy_sums():
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)
    ops = StepOperators(mesh, prob.coeffs)
    C = scipy_csr(ops.C)
    rng = np.random.default_rng(2)
    B = ops.permeability_stiffness(1e-2 * rng.standard_normal(mesh.num_displacement_dofs))
    tau = 2.0**-5
    op = pressure_sum(ops.C, tau, B)
    _on_pattern_of(op, C, C.toarray() + tau * scipy_csr(B).toarray())
    # where no slot cancels, scipy's sum has the same pattern and bits
    assert _same_csr(op, scipy_csr(ops.C) + tau * scipy_csr(B))

    # the fixed-stress operator is the nested sum (C + beta*M) + tau*B
    co = prob.coeffs
    M = scipy_csr(assemble_mass(mesh)).toarray()
    beta = co.alpha**2 / (2.0 * (co.lam + co.mu))
    _on_pattern_of(ops.fixed_stress_factor(B, tau).op, C,
                   (C.toarray() + beta * M) + tau * scipy_csr(B).toarray())
    # the sums leave C, which a study shares, as it was
    assert _same_csr(ops.C, C)


def test_pressure_sum_keeps_a_slot_that_cancels_as_an_explicit_zero():
    mesh = build_structured_mesh(4)
    ops = StepOperators(mesh, CO)
    C = scipy_csr(ops.C)
    tau = 0.5  # a power of two, so tau * (-2 c) is exactly -c
    B = ops.permeability_stiffness(np.zeros(mesh.num_displacement_dofs))
    B.data[7] = -2.0 * ops.C.data[7]
    dense = C.toarray() + tau * scipy_csr(B).toarray()
    assert np.count_nonzero(dense) == C.nnz - 1
    op = pressure_sum(ops.C, tau, B)
    # the cancelled slot is stored as an explicit 0.0, every other one is the dense sum's
    _on_pattern_of(op, C, dense)
    assert scipy_csr(op).nnz == C.nnz and op.data[7] == 0.0
    assert _same_csr(ops.C, C)
    # a factorization sees it too: csc_matrix keeps explicit zeros
    assert sp.csc_matrix(scipy_csr(op)).nnz == C.nnz
    # a term on another pattern, such as scipy's pruned sum, is refused
    with pytest.raises(ValueError, match="different patterns"):
        pressure_sum(ops.C, tau, scipy_csr(ops.C) + tau * scipy_csr(B))


def test_picard_run_stacks_no_block_operator(monkeypatch):
    stacks, systems = [], []

    def counting(bmat):
        def stack(*args, **kwargs):
            stacks.append(1)
            return bmat(*args, **kwargs)
        return stack

    def recording(solve):
        def wrapped(system, *args, **kwargs):
            systems.append(system)
            return solve(system, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(sp, "bmat", counting(sp.bmat))
    monkeypatch.setattr(stepper, "solve_block", recording(stepper.solve_block))
    prob = experiment_42_data()
    mesh = build_structured_mesh(4)
    semi = StepperConfig(scheme="semi_explicit", tau=0.25, T=0.5)
    run(mesh, prob.coeffs, semi, prob.f, prob.g, prob.p0)
    picard = StepperConfig(scheme="implicit_picard", tau=0.25, T=0.5, picard_max=3)
    _, report = run(mesh, prob.coeffs, picard, prob.f, prob.g, prob.p0)
    assert len(systems) == round(report.picard_mean * report.n_steps) > 2
    # K is applied from its blocks, and every iterate rewrites the run's one system
    assert stacks == [] and all(system is systems[0] for system in systems)


def test_block_solve_fails_on_a_zero_diagonal():
    _, A, C, D, B = _block_parts(2)
    P = (C + 0.5 * B).tocsr()
    P.data[P.indices == np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))] = 0.0
    rhs_u, rhs_p = np.ones(A.shape[0]), np.ones(C.shape[0])
    factors = _sweep_factors(A, C + 0.5 * B)
    with pytest.raises(SolverFailure, match="diagonal"):
        solve_block(BlockSystem(A, D, P), rhs_u, rhs_p, *factors)
    # a pressure block with no stored entries at all: the diagonal is missing
    with pytest.raises(SolverFailure, match="diagonal"):
        solve_block(BlockSystem(A, D, sp.csr_matrix(C.shape)), rhs_u, rhs_p, *factors)
    # an infinite diagonal entry would scale its row and column to zero
    P = (C + 0.5 * B).tocsr()
    P[0, 0] = np.inf
    with pytest.raises(SolverFailure, match="diagonal"):
        solve_block(BlockSystem(A, D, P), rhs_u, rhs_p, *factors)


def test_block_solve_fails_before_a_non_finite_cg_update():
    # a finite equilibrated norm and a finite starting residual, but a
    # preconditioned residual whose inner product with it overflows: CG
    # must fail before it adds a step to the iterate
    _, A, C, D, _ = _block_parts(4)
    with pytest.raises(SolverFailure, match="CG broke down"):
        solve_block(BlockSystem(A, 1e160 * D, C), np.ones(A.shape[0]),
                    np.ones(C.shape[0]), SpdFactorization(A), SpdFactorization(C))


def test_block_cg_breaks_down_on_an_indefinite_pressure_block():
    _, A, C, D, _ = _block_parts(4)
    # S = -C + D A^-1 D^T is not positive definite
    Ad, Dd = A.toarray(), D.toarray()
    assert np.linalg.eigvalsh(-C.toarray() + Dd @ np.linalg.solve(Ad, Dd.T)).min() < 0.0
    rhs_u, rhs_p = np.ones(A.shape[0]), np.ones(C.shape[0])
    with pytest.raises(SolverFailure, match="CG broke down"):
        solve_block(BlockSystem(A, D, -C), rhs_u, rhs_p, SpdFactorization(A),
                    SpdFactorization(C))
    # and a preconditioner that is not positive definite gives r.z < 0
    with pytest.raises(SolverFailure, match="CG broke down"):
        solve_block(BlockSystem(A, D, C), rhs_u, rhs_p, SpdFactorization(A),
                    SpdFactorization(-C))


def test_block_solve_fails_when_the_equilibrated_norm_overflows():
    # an infinite ||SKS|| would make every backward error zero and accept
    # any iterate, so the solve must refuse it
    _, A, C, D, _ = _block_parts(4)
    A = 1e-4 * A  # so that s_u * s_p * 1e308 * D overflows, not only |K| @ s
    with pytest.raises(SolverFailure, match="not finite"):
        solve_block(BlockSystem(A, 1e308 * D, C), np.ones(A.shape[0]), np.ones(C.shape[0]),
                    SpdFactorization(A), SpdFactorization(C))


# the banded Cholesky factor of A


PROBLEMS = {"ex41": experiment_41_data, "ex42": experiment_42_data,
            "ex43": experiment_43_data}


@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_banded_factor_of_a_matches_the_dense_solve(name, n, factors):
    # ex41's A is badly scaled (lam and mu of order 1e9)
    A = assemble_elasticity(build_structured_mesh(n), PROBLEMS[name]().coeffs)
    factor = linsolve.factor_banded(A)
    assert factors == [("cholesky_banded", A.shape, linsolve.half_bandwidth(A))]
    rhs = np.random.default_rng(n).standard_normal(A.shape[0])
    expected = np.linalg.solve(A.toarray(), rhs)
    for x in (factor.back_solve(rhs), factor.solve(rhs)):
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_banded_factor_of_the_empty_mesh_solves_like_the_lu():
    A = assemble_elasticity(build_structured_mesh(1), CO)
    assert A.shape == (0, 0)
    for factor in (linsolve.factor_banded(A), SpdFactorization(A)):
        assert factor.solve(np.zeros(0)).shape == factor.back_solve(np.zeros(0)).shape == (0,)


def test_banded_factor_fills_duplicate_entries_as_their_sum():
    op = sp.csr_matrix((np.array([1.0, 2.0, -1.0, -1.0, 2.0]), np.array([0, 0, 1, 0, 1]),
                        np.array([0, 3, 5])), shape=(2, 2))
    assert not op.has_canonical_format
    x = linsolve.factor_banded(op).solve(np.array([2.0, 1.0]))
    assert np.allclose(x, np.linalg.solve([[3.0, -1.0], [-1.0, 2.0]], [2.0, 1.0]), atol=1e-15)


def test_banded_factor_of_an_indefinite_operator_fails():
    A = assemble_elasticity(build_structured_mesh(4), CO)
    with pytest.raises(SolverFailure, match="not positive definite"):
        linsolve.factor_banded(-A)


def test_banded_factor_of_an_overflowing_operator_fails_when_factored():
    # entries of 1e308 * A overflow to inf, whose pivots pbtrf does not flag
    A = assemble_elasticity(build_structured_mesh(4), CO)
    with np.errstate(over="ignore"):
        huge = 1e308 * A
    with pytest.raises(SolverFailure, match="not finite"):
        linsolve.factor_banded(huge)


@pytest.mark.parametrize("scheme", ["semi_explicit", "implicit_picard", "delay_implicit"])
def test_run_on_an_indefinite_elasticity_operator_exits_3(scheme, tmp_path, monkeypatch, capsys):
    assemble = stepper.assemble_elasticity
    monkeypatch.setattr(stepper, "assemble_elasticity", lambda *args: -assemble(*args))
    config_path = tmp_path / "indefinite.json"
    config_path.write_text(json.dumps({
        "experiment": "ex42", "schemes": [{"scheme": scheme}], "mesh_levels": [4],
        "tau_levels": [0.25], "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", "--config", str(config_path)]) == 3
    assert "not positive definite" in capsys.readouterr().err


def test_operator_over_the_band_budget_gets_the_lu(factors, monkeypatch):
    A = assemble_elasticity(build_structured_mesh(8), CO)
    band = A.shape[0] * (linsolve.half_bandwidth(A) + 1)
    monkeypatch.setattr(linsolve, "_BAND_BUDGET", band)
    linsolve.factor_banded(A)
    monkeypatch.setattr(linsolve, "_BAND_BUDGET", band - 1)
    factor = linsolve.factor_banded(A)
    assert [f.backend for f in factors] == ["cholesky_banded", "splu"]
    rhs = np.ones(A.shape[0])
    assert np.linalg.norm(factor.solve(rhs) - solve_spd(A, rhs)) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("n", [16, 18, 22, 23, 24, 32, 33, 64, 128])
def test_a_is_banded_while_its_band_is_small_and_pressure_operators_never(n, factors):
    # a dof numbering that widened A's band would move a workload's A onto
    # SuperLU, or past the budget, without changing any number; this pins
    # it, and which factor the semi-explicit pressure solve makes: the LU
    # of C + tau*B below the multigrid crossover (n = 18) or on an odd
    # mesh, else the LU of the coarsest level, 8 x 8 to 11 x 11 or 7 x 7
    # interior nodes; SpdFactorization counts each of them once
    mesh = build_structured_mesh(n)
    prob = experiment_42_data()
    built = SpdFactorization.built
    ops = StepOperators(mesh, prob.coeffs)
    ops.a_factor()
    B = ops.permeability_stiffness(np.zeros(mesh.num_displacement_dofs))
    np_ = mesh.num_pressure_dofs
    _, iterations = linsolve.solve_pressure(scipy_csr(ops.C) + 0.25 * scipy_csr(B), np.ones(np_),
                                            np.zeros(np_),
                                            pressure_prolongations(mesh))
    ops.fixed_stress_factor(B, 0.25)
    nu = mesh.num_displacement_dofs
    a_factor = ("cholesky_banded", (nu, nu), 2 * n + 1) if n < 128 else ("splu", (nu, nu), None)
    coarsest = {18: 8 ** 2, 22: 10 ** 2, 24: 11 ** 2, 32: 7 ** 2, 64: 7 ** 2,
                128: 7 ** 2}.get(n, np_)
    multigrid = coarsest != np_
    pressure = ("splu", (coarsest, coarsest), None)
    assert factors == [a_factor, pressure, ("splu", (np_, np_), None)]
    assert SpdFactorization.built - built == len(factors)
    assert (iterations > 0) == multigrid


# the multigrid-preconditioned pressure solve


def _pressure_system(name, n, steps=3, tau=2.0**-5):
    """Mesh, C + tau*B, right-hand side and warm start of semi-explicit step
    ``steps`` + 1, after ``steps`` steps whose pressures the LU solved."""
    prob = PROBLEMS[name]()
    mesh = build_structured_mesh(n)
    ops = StepOperators(mesh, prob.coeffs)
    p = mesh.nodal_scalar(prob.p0)
    u = initial_displacement(ops, p, assemble_load_v(mesh, prob.f, 0.0))
    for k in range(1, steps + 2):
        u_new = ops.a_factor().solve(assemble_load_v(mesh, prob.f, k * tau)
                                     + linsolve.rmatvec(ops.D, p))
        B = ops.permeability_stiffness(u_new)
        rhs = (tau * assemble_load_q(mesh, prob.g, k * tau) + scipy_csr(ops.C) @ p
               - ops.D @ (u_new - u))
        op = pressure_sum(ops.C, tau, B)
        if k == steps + 1:
            return mesh, op, rhs, p
        p, u = SpdFactorization(op).solve(rhs), u_new


def _normwise_backward_error(op, x, rhs):
    op = scipy_csr(op)
    norm_op = abs(op).sum(axis=1).max()
    return np.linalg.norm(op @ x - rhs) / (norm_op * np.linalg.norm(x) + np.linalg.norm(rhs))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_multigrid_pressure_solve_matches_the_lu_in_iterations_that_do_not_grow(name):
    iterations = []
    for n in (32, 64, 128):
        mesh, op, rhs, guess = _pressure_system(name, n)
        x, steps = linsolve.solve_pressure(op, rhs, guess,
                                           pressure_prolongations(mesh))
        lu = SpdFactorization(op).solve(rhs)
        assert np.linalg.norm(x - lu) <= 1e-10 * np.linalg.norm(lu)
        for y in (x, lu):
            assert _normwise_backward_error(op, y, rhs) <= linsolve.DEFAULT_TOL
        iterations.append(steps)
    assert 0 < min(iterations) and max(iterations) <= 16
    assert iterations[-1] <= iterations[0] + 1


def test_multigrid_pressure_solve_returns_a_warm_start_that_passes_as_it_is(factors):
    mesh, op, rhs, guess = _pressure_system("ex42", 32)
    factors.clear()
    x, _ = linsolve.solve_pressure(op, rhs, guess, pressure_prolongations(mesh))
    again, steps = linsolve.solve_pressure(op, rhs, x, pressure_prolongations(mesh))
    assert steps == 0 and np.array_equal(again, x)
    # a zero right-hand side gives zero, whatever the warm start, as the LU does
    zero, steps = linsolve.solve_pressure(op, np.zeros_like(rhs), x,
                                          pressure_prolongations(mesh))
    assert steps == 0 and not zero.any()
    # every call factored the coarsest level once
    assert factors == [("splu", (49, 49), None)] * 3


def _faulty(op, fault):
    op = scipy_csr(op)
    diagonal = op.indices == np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    if fault == "nan-diagonal":
        op.data[np.flatnonzero(diagonal)[5]] = np.nan
    elif fault == "nan-off-diagonal":
        op.data[np.flatnonzero(~diagonal)[5]] = np.nan
    elif fault == "inf-off-diagonal":
        op.data[np.flatnonzero(~diagonal)[5]] = np.inf
    elif fault == "negated":
        op.data *= -1.0
    else:  # indefinite with a positive diagonal
        op = (op - 0.5 * op.diagonal().min() * sp.eye(op.shape[0])).tocsr()
    return op


@pytest.mark.parametrize("fault, message", [
    ("nan-diagonal", "diagonal"),
    # Galerkin products carry a non-finite entry onto a coarse diagonal
    ("nan-off-diagonal", "diagonal"),
    ("inf-off-diagonal", "diagonal"),
    ("negated", "diagonal"),
    ("shifted", "broke down"),
])
def test_multigrid_pressure_solve_fails_on_an_operator_that_is_not_spd(fault, message):
    mesh, op, rhs, guess = _pressure_system("ex42", 32, steps=0)
    with pytest.raises(SolverFailure, match=message):
        linsolve.solve_pressure(_faulty(op, fault), rhs, guess,
                                pressure_prolongations(mesh))


@pytest.mark.parametrize("fault", ["nan-off-diagonal", "shifted"])
def test_run_on_a_pressure_operator_that_is_not_spd_exits_3(fault, tmp_path, monkeypatch,
                                                            capsys):
    solve = linsolve.solve_pressure
    monkeypatch.setattr(stepper, "solve_pressure",
                        lambda op, *args: solve(_faulty(op, fault), *args))
    config_path = tmp_path / "faulty.json"
    config_path.write_text(json.dumps({
        "experiment": "ex42", "schemes": [{"scheme": "semi_explicit"}], "mesh_levels": [32],
        "tau_levels": [0.25], "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", "--config", str(config_path)]) == 3
    assert "solver failure: pressure" in capsys.readouterr().err


def test_spd_solve_fails_when_two_refinements_leave_its_backward_error_high():
    # a factor of -op for op: each refinement step moves away from op's solution
    _, op, rhs, _ = _pressure_system("ex42", 8, steps=0)
    factor = SpdFactorization(_faulty(op, "negated"))
    factor.op = op
    with pytest.raises(SolverFailure, match="SPD solve failed"):
        factor.solve(rhs)


def test_multigrid_pressure_solve_fails_at_its_iteration_cap(monkeypatch):
    mesh, op, rhs, guess = _pressure_system("ex42", 32, steps=0)
    monkeypatch.setattr(linsolve, "_CG_MAX", 3)
    with pytest.raises(SolverFailure, match="pressure CG solve failed"):
        linsolve.solve_pressure(op, rhs, guess, pressure_prolongations(mesh))


# the per-step multigrid setup: Galerkin maps and the compiled matvec


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_matvec_gives_the_bits_of_scipy_products(index_dtype):
    # matvec and rmatvec call scipy's private csr_matvec and csc_matvec
    # kernels; a scipy that moves or changes them fails here, not deep
    # inside a pressure or block solve
    mesh, op, _, _ = _pressure_system("ex42", 32, steps=0)
    level = pressure_prolongations(mesh)[0]
    rng = np.random.default_rng(4)
    for A in (scipy_csr(op), level.P, level.R):
        A = A.copy()
        # assigned, since scipy's constructor casts indices that fit to int32
        A.indices, A.indptr = A.indices.astype(index_dtype), A.indptr.astype(index_dtype)
        x = rng.standard_normal(A.shape[1])
        expected = A @ x
        for got in (linsolve.matvec(A, x),
                    linsolve.matvec(linsolve.CsrArrays(A.data, A.indices, A.indptr, A.shape), x)):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        # into a given output, which holds garbage (NaN included) until matvec zeroes it
        out = rng.standard_normal(A.shape[0])
        out[0] = np.nan
        assert linsolve.matvec(A, x, out=out) is out
        assert out.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="vector of shape"):
            linsolve.matvec(A, x[:-1])
        with pytest.raises(ValueError, match="output of shape"):
            linsolve.matvec(A, x, out=out[:-1])
        # and the transposed product, against scipy's product with the CSC view A.T
        x = rng.standard_normal(A.shape[0])
        expected = A.T @ x
        got = linsolve.rmatvec(A, x)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        out = rng.standard_normal(A.shape[1])
        out[0] = np.nan
        assert linsolve.rmatvec(A, x, out=out) is out
        assert out.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="vector of shape"):
            linsolve.rmatvec(A, x[:-1])
        with pytest.raises(ValueError, match="output of shape"):
            linsolve.rmatvec(A, x, out=out[:-1])


def test_an_operator_of_values_has_no_arithmetic_to_fall_back_on():
    # as a tuple, C + B would concatenate and 2 * B repeat, silently
    mesh = build_structured_mesh(4)
    C = assemble_pressure_mass(mesh, CO)
    B = assemble_permeability_stiffness(mesh, CO, np.zeros(mesh.num_displacement_dofs))
    assert isinstance(B, linsolve.CsrArrays)
    tau = 2.0**-5
    for combine in (lambda: C + B, lambda: 2 * B, lambda: tau * B):
        with pytest.raises(TypeError):
            combine()
    assert pressure_sum(C, tau, B).data.tobytes() == (C.data + tau * B.data).tobytes()


def _check_mapped_levels(op, levels):
    """Every level's mapped coarse operator against R @ (A @ P) of the mapped A above it."""
    fine = levels[0].fine
    assert np.array_equal(op.indptr, fine.indptr) and np.array_equal(op.indices, fine.indices)
    data = op.data
    for level in levels:
        n_fine, n_coarse = level.P.shape
        A = sp.csr_matrix((data, fine.indices, fine.indptr), shape=(n_fine, n_fine))
        data = level.galerkin @ data
        fine = level.coarse
        mapped = sp.csr_matrix((data, fine.indices, fine.indptr), shape=(n_coarse, n_coarse))
        product = level.R @ (A @ level.P)
        # |R| |A| |P| bounds each entry's rounding, and no entry of it cancels,
        # so its pattern is the structural one the map must have
        bound = abs(level.R) @ (abs(A) @ abs(level.P))
        bound.sort_indices()
        assert np.array_equal(mapped.indptr, bound.indptr)
        assert np.array_equal(mapped.indices, bound.indices)
        assert (abs(mapped - product) - 1e-14 * bound).max() <= 0.0


@pytest.mark.parametrize("n", [24, 32, 64, 128])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_galerkin_maps_give_the_product_operators_and_its_cg_iterations(name, n, monkeypatch):
    prob = PROBLEMS[name]()
    mesh = build_structured_mesh(n)
    solve = linsolve.solve_pressure
    counts = []

    def both(op, rhs, guess, levels):
        _check_mapped_levels(op, levels)
        x, steps = solve(op, rhs, guess, levels)
        with monkeypatch.context() as patch:
            patch.setattr(linsolve, "_VCycle", ProductVCycle)
            y, product_steps = solve(op, rhs, guess, levels)
        counts.append((steps, product_steps))
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
        return x, steps

    monkeypatch.setattr(stepper, "solve_pressure", both)
    tau = 2.0**-5
    cfg = StepperConfig(scheme="semi_explicit", tau=tau, T=4 * tau)
    run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    assert len(counts) == cfg.n_steps
    assert all(steps == product_steps > 0 for steps, product_steps in counts)


def test_multigrid_pressure_solve_takes_explicit_zeros_and_refuses_another_pattern(factors):
    mesh, op, rhs, guess = _pressure_system("ex42", 32, steps=0)
    levels = pressure_prolongations(mesh)
    # an explicit zero in a symmetric pair of off-diagonal slots
    stored = scipy_csr(op)
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    stored.data[((rows == 0) & (op.indices == 1)) | ((rows == 1) & (op.indices == 0))] = 0.0
    assert np.count_nonzero(stored.data != op.data) == 2 and stored.nnz == scipy_csr(op).nnz
    x, steps = linsolve.solve_pressure(stored, rhs, guess, levels)
    lu = SpdFactorization(stored).solve(rhs)
    assert steps > 0 and np.linalg.norm(x - lu) <= 1e-10 * np.linalg.norm(lu)
    # index arrays other than the hierarchy's pattern are refused before
    # anything is factored: the same operator without its zeros, and one
    # with an entry outside the pattern
    factors.clear()
    outside = scipy_csr(op).tolil()
    outside[0, op.shape[0] - 1] = outside[op.shape[0] - 1, 0] = 1e-3
    for other in (sp.csr_matrix(stored.toarray()), outside.tocsr()):
        with pytest.raises(ValueError, match="not on the multigrid hierarchy's pattern"):
            linsolve.solve_pressure(other, rhs, guess, levels)
    assert factors == []


def test_factors_that_only_back_solve_never_build_their_normwise_error(monkeypatch):
    built = []
    error = linsolve.NormwiseError

    def counting(op):
        built.append(op.shape)
        return error(op)

    monkeypatch.setattr(linsolve, "NormwiseError", counting)
    prob = experiment_42_data()
    mesh = build_structured_mesh(32)
    np_, nu = mesh.num_pressure_dofs, mesh.num_displacement_dofs
    for scheme, per_step in (("semi_explicit", [(np_, np_)]), ("implicit_picard", [])):
        built.clear()
        cfg = StepperConfig(scheme=scheme, tau=0.25, T=0.5, picard_max=3)
        _, report = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
        # A's, for its verified solves; per semi step the pressure CG's; never a
        # coarse multigrid factor's or a fixed-stress one's, which only back-solve
        assert built == [(nu, nu)] + per_step * cfg.n_steps
        assert report.factorization_count == 1 + cfg.n_steps
