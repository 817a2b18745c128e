"""Direct sparse solvers for the per-step linear systems.

Two paths: SPD systems (the two decoupled solves of the semi-explicit
scheme) are factorized once and the factors cached by the caller, since
the displacement operator never changes within a run; the coupled
two-by-two block systems of the implicit/Picard path are refactorized on
every iterate because the permeability block changes.  Every solve is
verified post hoc by an independent matrix-vector residual.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

DEFAULT_TOL = 1e-12


class SolverFailure(RuntimeError):
    """A linear solve did not reach the requested relative residual."""

    def __init__(self, message, residual=float("nan")):
        super().__init__(f"{message} (achieved relative residual {residual:.3e})")
        self.residual = residual


def _relative_residual(op, x, rhs):
    num = np.linalg.norm(op @ x - rhs)
    den = np.linalg.norm(rhs)
    return num / den if den > 0 else num


def _refined_solve(lu, op, rhs, error, tol, what):
    """Solve with the factors ``lu`` of ``op``, refining until ``error(x) <= tol``.

    Iterative refinement recovers the last digits on badly scaled data; if
    two refinement steps do not reach the tolerance the solve has failed.
    """
    x = lu.solve(rhs)
    res = error(x)
    for _ in range(2):
        if np.isfinite(res) and res <= tol:
            break
        x = x + lu.solve(rhs - op @ x)
        res = error(x)
    if not np.isfinite(res) or res > tol:
        raise SolverFailure(f"{what} failed", res)
    return x


class SpdFactorization:
    """Cached direct factorization of a sparse SPD operator."""

    def __init__(self, op):
        self.op = op.tocsr()
        self._lu = splu(sp.csc_matrix(op), permc_spec="MMD_AT_PLUS_A")

    def solve(self, rhs, tol=DEFAULT_TOL):
        rhs = np.asarray(rhs, dtype=float)
        if not rhs.any():
            return np.zeros_like(rhs)
        return _refined_solve(self._lu, self.op, rhs,
                              lambda x: _relative_residual(self.op, x, rhs), tol, "SPD solve")


def solve_spd(op, rhs, tol=DEFAULT_TOL) -> np.ndarray:
    """One-shot SPD solve with residual verification."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")
    return SpdFactorization(op).solve(rhs, tol)


@dataclass
class BlockSystem:
    """Monolithic operator [[A, -D^T], [D, C + tau*B]] in the unknowns (u, p)."""

    A: sp.spmatrix
    D: sp.spmatrix
    C_plus_tauB: sp.spmatrix

    def __post_init__(self):
        nu, np_ = self.A.shape[0], self.C_plus_tauB.shape[0]
        if self.A.shape != (nu, nu) or self.C_plus_tauB.shape != (np_, np_) \
                or self.D.shape != (np_, nu):
            raise ValueError("inconsistent block dimensions")

    def monolithic(self) -> sp.csc_matrix:
        return sp.bmat([[self.A, -self.D.T], [self.D, self.C_plus_tauB]], format="csc")


def solve_block(system: BlockSystem, rhs_u, rhs_p, tol=DEFAULT_TOL):
    """Solve the coupled block system by sparse LU; returns (u, p).

    The blocks may differ in scale by many orders of magnitude (realistic
    material constants), so the verified quantity is the normwise backward
    error ||Kx - b|| / (||K||*||x|| + ||b||), with iterative refinement.
    """
    nu = system.A.shape[0]
    K = system.monolithic()
    rhs = np.concatenate([np.asarray(rhs_u, dtype=float), np.asarray(rhs_p, dtype=float)])
    if not rhs.any():
        return np.zeros(nu), np.zeros(K.shape[0] - nu)
    try:
        lu = splu(K)
    except RuntimeError as exc:  # singular factorization
        raise SolverFailure(f"block factorization failed: {exc}") from exc

    norm_K = np.max(np.abs(K).sum(axis=1))
    rhs_norm = np.linalg.norm(rhs)

    def backward_error(vec):
        denom = norm_K * np.linalg.norm(vec) + rhs_norm
        return np.linalg.norm(K @ vec - rhs) / denom

    x = _refined_solve(lu, K, rhs, backward_error, tol, "block solve")
    return x[:nu], x[nu:]
