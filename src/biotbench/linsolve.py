"""Sparse solvers for the per-step linear systems.

SPD systems (the elasticity operator A and the pressure operators
C + tau*B) are factorized once by sparse LU and the factors cached by the
caller; each solve is verified post hoc by an independent matrix-vector
residual, with iterative refinement.  The coupled two-by-two block systems
of the implicit/Picard path are solved by right-preconditioned GMRES on
the monolithic operator, equilibrated symmetrically by its diagonal inside
each matrix-vector product.  The preconditioner is one fixed-stress
sweep: back-solves with the factor of A, then with that of a stabilized
pressure operator, both kept by the caller, so a block solve factorizes
nothing.  It is verified by the normwise backward error of the
equilibrated system.  A Picard run owns one block operator: its CSR
pattern is built on the first iterate, and later iterates rewrite only
the pressure block's values, in place, with no sparse constructor.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

DEFAULT_TOL = 1e-12
#: a block solve runs at most this many GMRES cycles of at most this many steps
_GMRES_CYCLES = 3
_GMRES_RESTART = 60


class SolverFailure(RuntimeError):
    """A linear solve did not reach the requested relative residual."""

    def __init__(self, message, residual=float("nan")):
        super().__init__(f"{message} (achieved relative residual {residual:.3e})")
        self.residual = residual


def _relative_residual(op, x, rhs):
    num = np.linalg.norm(op @ x - rhs)
    den = np.linalg.norm(rhs)
    return num / den if den > 0 else num


class SpdFactorization:
    """Cached direct factorization of a sparse SPD operator."""

    def __init__(self, op):
        self.op = op.tocsr()
        try:
            self._lu = splu(sp.csc_matrix(op), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
            raise SolverFailure(f"LU factorization failed: {exc}") from exc

    def solve(self, rhs, tol=DEFAULT_TOL):
        """Solve, refining until the relative residual is at most ``tol``.

        Iterative refinement recovers the last digits on badly scaled data;
        if two refinement steps do not reach the tolerance the solve has
        failed.
        """
        rhs = np.asarray(rhs, dtype=float)
        if not rhs.any():
            return np.zeros_like(rhs)
        x = self._lu.solve(rhs)
        res = _relative_residual(self.op, x, rhs)
        for _ in range(2):
            if np.isfinite(res) and res <= tol:
                break
            x = x + self._lu.solve(rhs - self.op @ x)
            res = _relative_residual(self.op, x, rhs)
        if not np.isfinite(res) or res > tol:
            raise SolverFailure("SPD solve failed", res)
        return x

    def back_solve(self, rhs):
        """Triangular solves with the factors alone, unverified (a preconditioner step)."""
        return self._lu.solve(rhs)


def solve_spd(op, rhs, tol=DEFAULT_TOL) -> np.ndarray:
    """One-shot SPD solve with residual verification."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")
    return SpdFactorization(op).solve(rhs, tol)


@dataclass(eq=False)
class BlockSystem:
    """Monolithic operator K = [[A, -D^T], [D, C + tau*B]] in the unknowns (u, p).

    K is stacked once, when the system is built, and kept: its CSR
    pattern and a mask of the pressure block's slots are fixed from then
    on.  ``set_pressure_block`` rewrites the pressure slots in place, so a
    Picard run owns one system (``StepOperators.block_system``) and no
    iterate stacks or transposes a block.  The blocks are used as CSR,
    and the system owns the pressure block's ``data``.
    """

    A: sp.spmatrix
    D: sp.spmatrix
    C_plus_tauB: sp.spmatrix

    def __post_init__(self):
        nu, np_ = self.A.shape[0], self.C_plus_tauB.shape[0]
        if self.A.shape != (nu, nu) or self.C_plus_tauB.shape != (np_, np_) \
                or self.D.shape != (np_, nu):
            raise ValueError("inconsistent block dimensions")
        self.A, self.D = self.A.tocsr(), self.D.tocsr()
        self.C_plus_tauB = self.C_plus_tauB.tocsr()
        # with all four blocks in CSR, bmat stacks index arrays instead of
        # going through COO, and each row keeps its blocks' slot order
        blocks = [[self.A, -self.D.T.tocsr()], [self.D, self.C_plus_tauB]]
        self._K = sp.bmat(blocks, format="csr")
        # the rows of p are the last slots; in each, D's slots come first
        self._tail = self._K.indptr[nu]
        self._pressure_mask = self._K.indices[self._tail:] >= nu

    def monolithic(self) -> sp.csr_matrix:
        """K itself: the same object on every call, with the current values."""
        return self._K

    def set_pressure_block(self, values):
        """Write new values of the pressure block, in its own slot order, into K in place."""
        self.C_plus_tauB.data[:] = values
        self._K.data[self._tail:][self._pressure_mask] = values


def solve_block(system: BlockSystem, rhs_u, rhs_p, a_factor: SpdFactorization,
                s_factor: SpdFactorization, guess=None, tol=DEFAULT_TOL):
    """Solve the coupled block system by fixed-stress preconditioned GMRES.

    ``a_factor`` factorizes the elasticity block A and ``s_factor`` a
    pressure operator close to the Schur complement C + tau*B + D A^-1 D^T,
    such as the fixed-stress C + tau*B + beta*M.  One preconditioner
    application is a sweep: u from A, then p from the pressure operator
    with D u moved to the right-hand side.  ``guess`` is an optional
    starting pair (u, p).  Returns (u, p, GMRES iterations).

    The blocks may differ in scale by many orders of magnitude (realistic
    material constants), so GMRES runs on the symmetrically equilibrated
    system S K S with S = diag(s), s = |diag K|^(-1/2), applied inside
    each product as s * (K @ (s * y)); no scaled copy of K is formed.
    The verified quantity is the normwise backward error
    ||SKSy - Sb|| / (||SKS||_inf*||y|| + ||Sb||), where ||SKS||_inf is
    the largest entry of s * (|K| @ s); |K| is the one sparse matrix a
    solve allocates.  GMRES aims at a hundredth of ``tol``; up to three
    cycles may run.  A zero, missing or non-finite
    diagonal entry, or Krylov quantities that go non-finite, raise
    SolverFailure.
    """
    nu = system.A.shape[0]
    K = system.monolithic()
    rhs = np.concatenate([np.asarray(rhs_u, dtype=float), np.asarray(rhs_p, dtype=float)])
    if not rhs.any():
        return np.zeros(nu), np.zeros(K.shape[0] - nu), 0

    d = np.abs(K.diagonal())
    if not np.all((d > 0.0) & (d < np.inf)):
        raise SolverFailure("block operator has a zero or non-finite diagonal")
    s = 1.0 / np.sqrt(d)
    with np.errstate(over="ignore"):  # reported just below
        norm_K = (s * (abs(K) @ s)).max()
    if not np.isfinite(norm_K):
        raise SolverFailure("equilibrated block operator is not finite")
    b = s * rhs
    norm_b = np.linalg.norm(b)
    y = np.zeros_like(b) if guess is None else np.concatenate(guess) / s

    def op(y):  # the equilibrated operator S K S
        return s * (K @ (s * y))

    def sweep(v):
        w = v / s
        u = a_factor.back_solve(w[:nu])
        p = s_factor.back_solve(w[nu:] - system.D @ u)
        return np.concatenate([u, p]) / s

    def scale(y):  # denominator of the backward error
        return norm_K * np.linalg.norm(y) + norm_b

    r = b - op(y)
    iterations = 0
    for _ in range(_GMRES_CYCLES):
        if np.linalg.norm(r) <= 0.01 * tol * scale(y):
            break
        y, steps = _gmres_cycle(op, sweep, r, y, 0.01 * tol * scale(y))
        iterations += steps
        r = b - op(y)
        if np.linalg.norm(r) <= tol * scale(y):
            break
    error = np.linalg.norm(r) / scale(y)
    if not np.isfinite(error) or error > tol:
        raise SolverFailure("block solve failed", error)
    x = s * y
    return x[:nu], x[nu:], iterations


def _gmres_cycle(op, precond, r, y, target):
    """One cycle of right-preconditioned GMRES from ``y`` with residual ``r = b - op(y)``.

    ``op`` and ``precond`` are callables on vectors.  Modified Gram-Schmidt
    Arnoldi with Givens rotations.  Stops once the least-squares residual
    is at most ``target``, on breakdown, or after ``_GMRES_RESTART`` steps;
    the basis grows as a list, so only the vectors the cycle uses are
    allocated.  Raises SolverFailure when the Hessenberg system or the
    update's coefficients go non-finite, before ``y`` is touched.
    Returns (new y, steps taken).
    """
    m = _GMRES_RESTART
    beta = np.linalg.norm(r)
    H = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    V, Z = [r / beta], []
    k = 0
    while True:
        Z.append(precond(V[k]))
        w = op(Z[k])
        for i, v in enumerate(V):
            H[i, k] = v @ w
            w -= H[i, k] * v
        h_next = np.linalg.norm(w)
        for i in range(k):
            H[i, k], H[i + 1, k] = (cs[i] * H[i, k] + sn[i] * H[i + 1, k],
                                    cs[i] * H[i + 1, k] - sn[i] * H[i, k])
        rho = np.hypot(H[k, k], h_next)
        cs[k], sn[k] = H[k, k] / rho, h_next / rho
        H[k, k] = rho
        g[k + 1] = -sn[k] * g[k]
        g[k] *= cs[k]
        k += 1
        if abs(g[k]) <= target or h_next == 0.0 or k == m:
            break
        V.append(w / h_next)
    if not (np.isfinite(H[:k, :k]).all() and np.isfinite(g[:k]).all()):
        raise SolverFailure("GMRES produced non-finite values", abs(g[k]))
    coef = solve_triangular(H[:k, :k], g[:k])
    if not np.isfinite(coef).all():
        raise SolverFailure("GMRES update is not finite")
    for c, z in zip(coef, Z):
        y = y + c * z
    return y, k
