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
from biotbench.assembly import assemble_mass
from biotbench.linsolve import SpdFactorization
from biotbench.stepper import StepOperators

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
    x = solve_spd(L, rhs, tol=1e-12)
    assert np.linalg.norm(L @ x - rhs) / np.linalg.norm(rhs) <= 1e-12


def test_zero_rhs_gives_zero_without_solving():
    L = assemble_laplace(build_structured_mesh(3))
    assert np.all(solve_spd(L, np.zeros(L.shape[0])) == 0.0)


def test_invalid_tolerance_rejected():
    with pytest.raises(ValueError):
        solve_spd(sp.eye(2, format="csr"), np.ones(2), tol=0.0)


def test_solver_failure_carries_residual():
    # a singular operator cannot meet any tolerance
    op = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises((SolverFailure, RuntimeError)):
        solve_spd(op, np.array([1.0, 2.0]))


def _block_parts(n=2):
    mesh = build_structured_mesh(n)
    A = assemble_elasticity(mesh, CO)
    C = assemble_pressure_mass(mesh, CO)
    D = assemble_coupling(mesh, CO)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(mesh.num_displacement_dofs)
    B = assemble_permeability_stiffness(mesh, CO, u)
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
    # without coupling the sweep is exact: one GMRES step
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

    K = system.monolithic().toarray()
    expected = np.linalg.solve(K, np.concatenate([rhs_u, rhs_p]))
    assert np.abs(np.concatenate([u, p]) - expected).max() < 1e-10


def test_block_monolithic_layout():
    _, A, C, D, B = _block_parts(2)
    tau = 0.5
    K = BlockSystem(A, D, C + tau * B).monolithic().toarray()
    nu = A.shape[0]
    assert np.abs(K[:nu, :nu] - A.toarray()).max() == 0.0
    assert np.abs(K[:nu, nu:] + D.T.toarray()).max() == 0.0
    assert np.abs(K[nu:, :nu] - D.toarray()).max() == 0.0
    assert np.abs(K[nu:, nu:] - (C + tau * B).toarray()).max() == 0.0


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
    K = system.monolithic().tocsc()
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
    """Block system, right-hand sides, warm start and factors of step 1's first iterate."""
    prob = PROBLEMS[name]()
    mesh = build_structured_mesh(n)
    ops = StepOperators(mesh, prob.coeffs)
    zero_u = np.zeros(mesh.num_displacement_dofs)
    p0 = mesh.nodal_scalar(prob.p0, interior=True)
    f0 = assemble_load_v(mesh, prob.f, 0.0) if prob.f is not None else zero_u
    u0 = initial_displacement(ops, p0, f0)
    B = ops.permeability_stiffness(u0)
    system = BlockSystem(ops.A, ops.D, ops.C + tau * B)
    rhs_u = assemble_load_v(mesh, prob.f, tau) if prob.f is not None else zero_u
    rhs_p = tau * assemble_load_q(mesh, prob.g, tau) + ops.D @ u0 + ops.C @ p0
    factors = (ops.a_factor(), ops.fixed_stress_factor(B, tau))
    return system, rhs_u, rhs_p, (u0, p0), factors


def _block_deviation(got, expected):
    return max(np.linalg.norm(a - b) / np.linalg.norm(b) for a, b in zip(got, expected))


@pytest.mark.parametrize("name", ["ex41", "ex42", "ex43"])
def test_block_solve_matches_equilibrated_dense_solve(name):
    # ex41's blocks differ in scale by about 1e18 (lam ~ 8e8, kappa/nu ~ 8e-10);
    # an unequilibrated stopping test cannot see the pressure block there
    system, rhs_u, rhs_p, guess, factors = _first_picard_system(name)
    u, p, _ = solve_block(system, rhs_u, rhs_p, *factors, guess)

    K = system.monolithic().toarray()
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
    p0 = mesh.nodal_scalar(prob.p0, interior=True)
    u0 = initial_displacement(ops, p0)
    rng = np.random.default_rng(11)
    scale = max(np.abs(u0).max(), 1e-3)
    displacements = [u0] + [u0 + scale * rng.standard_normal(u0.size) for _ in range(3)]
    first = None
    for u in displacements:
        B = ops.permeability_stiffness(u)
        system = ops.block_system(B, tau)
        K = system.monolithic()
        first = first or (system, K, K.indices)
        assert system is first[0] and K is first[1] and K.indices is first[2]
        assert _same_csr(K, BlockSystem(ops.A, ops.D, ops.C + tau * B).monolithic())
        assert _same_csr(system.C_plus_tauB, ops.C + tau * B)


def test_in_place_pressure_sums_equal_scipy_sums():
    prob = experiment_42_data()
    mesh = build_structured_mesh(8)
    ops = StepOperators(mesh, prob.coeffs)
    rng = np.random.default_rng(2)
    B = ops.permeability_stiffness(1e-2 * rng.standard_normal(mesh.num_displacement_dofs))
    tau = 2.0**-5
    op = ops.pressure_operator(B, tau)
    assert _same_csr(op, (ops.C + tau * B).tocsr()) and op.nnz == ops.C.nnz

    co = prob.coeffs
    stabilized = ops.C + co.alpha**2 / (co.lam + co.mu) * assemble_mass(mesh)
    assert _same_csr(ops.fixed_stress_factor(B, tau).op, stabilized + tau * B)


def test_in_place_pressure_sum_drops_a_slot_that_cancels_like_scipy():
    mesh = build_structured_mesh(4)
    ops = StepOperators(mesh, CO)
    indices, indptr = ops.C.indices.copy(), ops.C.indptr.copy()
    tau = 0.5  # a power of two, so tau * (-2 c) is exactly -c
    B = ops.permeability_stiffness(np.zeros(mesh.num_displacement_dofs))
    B.data[7] = -2.0 * ops.C.data[7]
    expected = ops.C + tau * B
    assert expected.nnz == ops.C.nnz - 1  # scipy prunes the cancelled slot
    op = ops.pressure_operator(B, tau)
    assert _same_csr(op, expected) and op.nnz == expected.nnz
    # pruning works on copies: C keeps its full pattern
    assert np.array_equal(ops.C.indices, indices) and np.array_equal(ops.C.indptr, indptr)
    # and the factorization sees the pattern the delay path's (C + tau*B).tocsc() has
    assert _same_csr(sp.csc_matrix(op).tocsr(), expected.tocsc().tocsr())


def test_picard_run_stacks_its_block_operator_once(monkeypatch):
    stacks, operators = [], []

    def counting(bmat):
        def stack(*args, **kwargs):
            stacks.append(1)
            return bmat(*args, **kwargs)
        return stack

    def recording(solve):
        def wrapped(system, *args, **kwargs):
            out = solve(system, *args, **kwargs)
            K = system.monolithic()
            operators.append((id(K), id(K.indices), id(K.indptr)))
            return out
        return wrapped

    monkeypatch.setattr(linsolve.sp, "bmat", counting(linsolve.sp.bmat))
    monkeypatch.setattr(stepper, "solve_block", recording(stepper.solve_block))
    prob = experiment_42_data()
    mesh = build_structured_mesh(4)
    semi = StepperConfig(scheme="semi_explicit", tau=0.25, T=0.5)
    run(mesh, prob.coeffs, semi, prob.f, prob.g, prob.p0)
    assert stacks == []  # a semi-explicit run never builds the block operator

    picard = StepperConfig(scheme="implicit_picard", tau=0.25, T=0.5, picard_max=3)
    _, report = run(mesh, prob.coeffs, picard, prob.f, prob.g, prob.p0)
    assert len(operators) == round(report.picard_mean * report.n_steps) > 2
    assert stacks == [1] and len(set(operators)) == 1


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


def test_block_solve_fails_before_a_non_finite_gmres_update():
    # finite Hessenberg entries and g, but a triangular solve that gives
    # nan and +-inf: the cycle must fail before it adds them to the iterate
    _, A, C, D, _ = _block_parts(2)
    with pytest.raises(SolverFailure, match="GMRES"):
        solve_block(BlockSystem(A, 1e300 * D, 1e-300 * C), np.ones(A.shape[0]),
                    np.ones(C.shape[0]), SpdFactorization(A), SpdFactorization(C))


def test_block_solve_fails_when_the_equilibrated_norm_overflows():
    # an infinite ||SKS|| would make every backward error zero and accept
    # any iterate, so the solve must refuse it
    _, A, C, D, _ = _block_parts(4)
    A = 1e-4 * A  # so that s_u * s_p * 1e308 * D overflows, not only |K| @ s
    with pytest.raises(SolverFailure, match="not finite"):
        solve_block(BlockSystem(A, 1e308 * D, C), np.ones(A.shape[0]), np.ones(C.shape[0]),
                    SpdFactorization(A), SpdFactorization(C))
