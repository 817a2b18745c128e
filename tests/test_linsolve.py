import numpy as np
import pytest
import scipy.sparse as sp

from biotbench import (BlockSystem, Coefficients, KozenyCarman, SolverFailure,
                       assemble_coupling, assemble_elasticity, assemble_laplace,
                       assemble_permeability_stiffness, assemble_pressure_mass,
                       build_structured_mesh, solve_block, solve_spd)

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
    u, p = solve_block(BlockSystem(A, zero_D, C + tau * B), rhs_u, rhs_p)
    assert np.abs(u - solve_spd(A, rhs_u)).max() < 1e-12
    assert np.abs(p - solve_spd((C + tau * B).tocsr(), rhs_p)).max() < 1e-12


def test_block_zero_rhs_gives_zero():
    _, A, C, D, B = _block_parts()
    u, p = solve_block(BlockSystem(A, D, C + 0.5 * B),
                       np.zeros(A.shape[0]), np.zeros(C.shape[0]))
    assert np.all(u == 0.0) and np.all(p == 0.0)


def test_block_matches_dense_inverse_oracle():
    _, A, C, D, B = _block_parts(2)
    tau = 0.125
    system = BlockSystem(A, D, C + tau * B)
    rng = np.random.default_rng(3)
    rhs_u = rng.standard_normal(A.shape[0])
    rhs_p = rng.standard_normal(C.shape[0])
    u, p = solve_block(system, rhs_u, rhs_p)

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
