"""Sparse solvers for the per-step linear systems.

SPD systems (the elasticity operator A and the pressure operators
C + tau*B) are factorized once by sparse LU and the factors cached by the
caller; each solve is verified post hoc by an independent matrix-vector
residual, with iterative refinement.  The coupled two-by-two block systems
of the implicit/Picard path are solved by right-preconditioned GMRES on
the monolithic operator, equilibrated symmetrically by its diagonal.  The
preconditioner is one fixed-stress sweep: back-solves with the factor of
A, then with that of a stabilized pressure operator, both kept by the
caller, so a block solve factorizes nothing.  It is verified by the
normwise backward error of the equilibrated system.  A Picard run owns
one block operator: its CSR pattern and its equilibrated copy are built
on the first iterate, and later iterates rewrite only the values that
change, in place, with O(nnz) numpy and no sparse constructor.
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

    K is stacked on the first ``monolithic()`` call and kept: its CSR
    pattern, a mask of the pressure block's slots and the diagonal slots
    are fixed from then on.  ``set_pressure_block`` rewrites the pressure
    slots in place, so a Picard run owns one system
    (``StepOperators.block_system``) and no iterate stacks, transposes or
    allocates an operator.  ``equilibrated`` keeps the diagonally scaled
    K in one persistent buffer on the same pattern.  The blocks are used
    as CSR, and the system owns the pressure block's ``data``.
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
        self._K = None
        self._scaled = None

    def monolithic(self) -> sp.csr_matrix:
        """K itself, unequilibrated: stacked once, then the same object with current values."""
        return self._stacked()

    def _stacked(self):
        if self._K is None:
            # with all four blocks in CSR, bmat stacks index arrays instead of
            # going through COO, and each row keeps its blocks' slot order
            blocks = [[self.A, -self.D.T.tocsr()], [self.D, self.C_plus_tauB]]
            K = sp.bmat(blocks, format="csr")
            nu = self.A.shape[0]
            # the rows of p are the last slots; in each, D's slots come first
            self._tail = K.indptr[nu]
            self._pressure_mask = K.indices[self._tail:] >= nu
            rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
            diag = np.flatnonzero(K.indices == rows).astype(K.indices.dtype)
            self._diag_slots = diag if diag.size == K.shape[0] else None
            self._K = K
        return self._K

    def set_pressure_block(self, values):
        """Write new values of the pressure block, in its own slot order, into K in place."""
        K = self._stacked()
        self.C_plus_tauB.data[:] = values
        K.data[self._tail:][self._pressure_mask] = values

    def equilibrated(self):
        """(s, S K S, ||S K S||_inf) with S = diag(s), s = |diag K|^(-1/2).

        The scaled operator is one persistent matrix on K's pattern; each
        call rescales only the slots whose scale can have moved.  Raises
        SolverFailure on a zero or non-finite diagonal or scaled value.
        """
        K = self._stacked()
        if self._diag_slots is None:
            raise SolverFailure("block operator has a structurally zero diagonal")
        d = np.abs(K.data.take(self._diag_slots))
        if not np.all((d > 0.0) & (d < np.inf)):
            raise SolverFailure("block operator has a zero or non-finite diagonal")
        s = 1.0 / np.sqrt(d)
        if self._scaled is None:
            self._scaled = _Equilibration(K, self.A.shape[0], s)
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            norm = self._scaled.rescale(K, s)
        if not np.isfinite(norm):
            raise SolverFailure("equilibrated block operator is not finite")
        return s, self._scaled.matrix, norm


class _Equilibration:
    """The diagonally scaled copy S K S of a block operator, slot by slot.

    Every slot holds K * (s[row] * s[col]), the same product a fresh
    scaling forms.  K's slots fall into three groups:

    * the A block's, whose scale is fixed because diag A is: written once;
    * the rows of p (the D and pressure blocks): one contiguous tail of
      the slots, rescaled as a slice;
    * the D^T slots, at the end of each row of u: gathered and scattered
      through a boolean mask over the slots of those rows.

    The row sums of |S K S| come from one ``np.bincount`` over a short
    array: per row of u its A part's sum (formed once), then that row's
    D^T slots in order, then the tail.  A row of u holds A's slots before
    D^T's, so that adds the same numbers in the same order as a sum along
    each full row.
    """

    def __init__(self, K, nu, s):
        self.nu, self.tail = nu, K.indptr[nu]
        rows = np.repeat(np.arange(nu), np.diff(K.indptr[:nu + 1]))
        cols = K.indices[:self.tail]
        coupling = self.dt_mask = cols >= nu
        self.dt_cols = cols[coupling]
        self.dt_counts = np.bincount(rows[coupling], minlength=nu)
        self.tail_counts = np.diff(K.indptr[nu:])
        self.matrix = sp.csr_matrix((np.empty_like(K.data), K.indices, K.indptr),
                                    shape=K.shape)
        a = ~coupling
        scaled_a = K.data[:self.tail][a] * (s[rows[a]] * s[cols[a]])
        self.matrix.data[:self.tail][a] = scaled_a
        tail_rows = np.repeat(np.arange(nu, K.shape[0]), self.tail_counts)
        self.sum_rows = np.concatenate([np.arange(nu), rows[coupling], tail_rows]).astype(
            K.indices.dtype)
        self.sums = np.empty(self.sum_rows.size)
        self.sums[:nu] = np.bincount(rows[a], weights=np.abs(scaled_a), minlength=nu)

    def rescale(self, K, s):
        """Rescale the D^T slots and the tail by ``s``; returns ||S K S||_inf."""
        nu, tail, scaled = self.nu, self.tail, self.matrix.data
        dt = K.data[:tail][self.dt_mask] * (np.repeat(s[:nu], self.dt_counts)
                                            * s.take(self.dt_cols))
        scaled[:tail][self.dt_mask] = dt
        np.multiply(K.data[tail:], np.repeat(s[nu:], self.tail_counts)
                    * s.take(K.indices[tail:]), out=scaled[tail:])
        np.abs(dt, out=self.sums[nu:nu + dt.size])
        np.abs(scaled[tail:], out=self.sums[nu + dt.size:])
        return np.bincount(self.sum_rows, weights=self.sums).max()


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
    material constants), so the system is equilibrated symmetrically by
    s = |diag K|^(-1/2) and the verified quantity is the normwise backward
    error ||Ky - b|| / (||K||*||y|| + ||b||) of the equilibrated system.
    GMRES aims at a hundredth of ``tol``; up to three cycles may run.  The
    operator and its equilibrated copy are the system's own persistent
    ones (see ``BlockSystem``), so a solve allocates no sparse matrix.
    A zero or non-finite diagonal, or Krylov quantities that go
    non-finite, raise SolverFailure.
    """
    nu = system.A.shape[0]
    K = system.monolithic()
    rhs = np.concatenate([np.asarray(rhs_u, dtype=float), np.asarray(rhs_p, dtype=float)])
    if not rhs.any():
        return np.zeros(nu), np.zeros(K.shape[0] - nu), 0

    s, K, norm_K = system.equilibrated()
    b = s * rhs
    norm_b = np.linalg.norm(b)
    y = np.zeros_like(b) if guess is None else np.concatenate(guess) / s

    def sweep(v):
        w = v / s
        u = a_factor.back_solve(w[:nu])
        p = s_factor.back_solve(w[nu:] - system.D @ u)
        return np.concatenate([u, p]) / s

    def scale(y):  # denominator of the backward error
        return norm_K * np.linalg.norm(y) + norm_b

    r = b - K @ y
    iterations = 0
    for _ in range(_GMRES_CYCLES):
        if np.linalg.norm(r) <= 0.01 * tol * scale(y):
            break
        y, steps = _gmres_cycle(K, sweep, r, y, 0.01 * tol * scale(y))
        iterations += steps
        r = b - K @ y
        if np.linalg.norm(r) <= tol * scale(y):
            break
    error = np.linalg.norm(r) / scale(y)
    if not np.isfinite(error) or error > tol:
        raise SolverFailure("block solve failed", error)
    x = s * y
    return x[:nu], x[nu:], iterations


def _gmres_cycle(K, precond, r, y, target):
    """One cycle of right-preconditioned GMRES from ``y`` with residual ``r = b - K y``.

    Modified Gram-Schmidt Arnoldi with Givens rotations.  Stops once the
    least-squares residual is at most ``target``, on breakdown, or after
    ``_GMRES_RESTART`` steps; the basis grows as a list, so only the
    vectors the cycle uses are allocated.  Returns (new y, steps taken).
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
        w = K @ Z[k]
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
    for c, z in zip(coef, Z):
        y = y + c * z
    return y, k
