"""Sparse solvers for the per-step linear systems.

SPD systems are factorized by one of two backends, and the factors
cached by the caller: A, which a run factors once and solves thousands of
times, by ``cholesky_banded`` while its band is small (``factor_banded``),
and every other operator, or a wide-band A, by ``splu``.  Every factor is
an ``SpdFactorization``, the one place factors are counted: a run reports
the difference of its count between the run's start and end.  The
semi-explicit pressure operator C + tau*B(u), which changes every step
and keeps the scalar plan's pattern, is solved by ``solve_pressure`` on
the multigrid hierarchy its caller passes: by its LU when the hierarchy
is empty, and otherwise by CG from the caller's warm start,
preconditioned by one geometric multigrid V-cycle whose coarsest level
is the step's one ``splu`` factor.  The CG loop and the V-cycle update
vectors made once per solve, in place (``matvec`` writes into a given
vector), with the same two roundings per update as a freshly allocated
expression.  The V-cycle's coarse operators are read off the operator's
own values through the hierarchy's per-mesh Galerkin maps, one
matrix-vector product per level, and the solve's products with CSR
operators go through ``matvec``, scipy's compiled kernel without its
Python dispatch: a pressure solve builds no sparse matrix but its
coarsest level's.  Each SPD solve, direct or iterative, is verified post
hoc by the normwise backward error of an independent matrix-vector
residual (``NormwiseError``), with iterative refinement; its residuals
go through ``matvec`` and its norms through one dot product and square
root (``_norm``).  The coupled two-by-two block systems of the
implicit/Picard path are solved by ``solve_block``: u is eliminated with
the exact factor of A, and CG solves the SPD pressure Schur complement
C + tau*B + D A^-1 D^T, preconditioned by the factor of the fixed-stress
operator; both factors are kept by the caller, so a block solve
factorizes nothing.  It starts from a warm start (u, p) whose u is
consistent with its p, so it makes one back-solve of A per CG iteration
and none to start, and its CG loop updates work vectors made once per
solve, in place.  It is verified by the normwise backward error of the
monolithic system, equilibrated symmetrically by its diagonal, either
against a fixed tolerance or, for the inner solves of an outer
iteration, against a forcing term: a fixed fraction of the backward
error at its warm start.  The monolithic operator is never stacked: its
residual and equilibration come from the blocks, and a Picard run's
iterates rewrite only the pressure block's values, in place.
"""

import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import splu

DEFAULT_TOL = 1e-12
#: ``factor_banded`` stores a band of at most this many doubles, N*(kd + 1):
#: A up to n = 101 (kd = 2n + 1); from about n = 112 on SuperLU's factor is
#: smaller and its back-solve no slower
_BAND_BUDGET = 2 ** 22
_pbtrf, _pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)
#: damped-Jacobi weight and smoothing sweeps after the coarse correction (one before)
_JACOBI_WEIGHT = 0.8
_POST_SWEEPS = 2
#: a pressure or block CG solve runs at most this many iterations
_CG_MAX = 100
#: block CG aims at this fraction of the backward error a block solve verifies
_CG_AIM = 1e-2


class SolverFailure(RuntimeError):
    """A linear solve did not reach the requested normwise backward error."""

    def __init__(self, message, error=float("nan")):
        super().__init__(f"{message} (achieved backward error {error:.3e})")
        self.error = error


class CsrArrays(NamedTuple):
    """A CSR operator as the arrays ``matvec`` reads, with no scipy matrix around them."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


def matvec(op, x, out=None) -> np.ndarray:
    """``op @ x`` for a CSR ``op`` (a scipy CSR matrix or ``CsrArrays``) and a float vector.

    The compiled kernel scipy's own product calls, on a zeroed result of
    the same type, so the same bits, without scipy's Python dispatch
    around it.  The result is written into ``out`` when given, a float
    vector of op's row count that is zeroed first, so a Krylov loop
    allocates nothing.  The index arrays may be int32 or int64.  The
    kernel reads x at op's column indices unchecked, so x's length is
    checked here, as scipy's product checks it.
    """
    if x.shape != (op.shape[1],):
        raise ValueError(f"vector of shape {x.shape} for an operator of shape {op.shape}")
    out = _zeroed(out, op.shape[0], op.shape)
    _sparsetools.csr_matvec(op.shape[0], op.shape[1], op.indptr, op.indices, op.data, x, out)
    return out


def rmatvec(op, x, out=None) -> np.ndarray:
    """``op.T @ x`` for a CSR ``op``, checked and written as ``matvec``: the compiled
    CSC kernel ``op.T @ x`` dispatches to, on op's own arrays (op.T's in CSC), so no
    transpose is built."""
    if x.shape != (op.shape[0],):
        raise ValueError(f"vector of shape {x.shape} for the transpose of an operator "
                         f"of shape {op.shape}")
    out = _zeroed(out, op.shape[1], op.shape)
    _sparsetools.csc_matvec(op.shape[1], op.shape[0], op.indptr, op.indices, op.data, x, out)
    return out


def _zeroed(out, size, shape) -> np.ndarray:
    """A product's result vector of ``size`` entries: ``out`` zeroed, or a new zero vector."""
    if out is None:
        return np.zeros(size)
    if out.shape != (size,):
        raise ValueError(f"output of shape {out.shape} for an operator of shape {shape}")
    out.fill(0.0)
    return out


def _diagonal(op) -> np.ndarray:
    """The diagonal of a square CSR ``op``, by the compiled kernel scipy's ``diagonal``
    calls: duplicates summed, zero where no entry is stored."""
    d = np.empty(op.shape[0])
    _sparsetools.csr_diagonal(0, op.shape[0], op.shape[1], op.indptr, op.indices, op.data, d)
    return d


class NormwiseError:
    """The normwise backward error ||op x - rhs|| / (||op||_inf ||x|| + ||rhs||).

    What a backward-stable solve attains whatever the condition of the
    operator, so every verified SPD solve, direct or iterative, is held to
    it.  ||op||_inf is computed once per operator and kept as two factors,
    peak * ratio: the norm itself may overflow a double where the solve
    and its residual do not.
    """

    def __init__(self, op):
        magnitudes = np.abs(op.data)
        self._peak = float(magnitudes.max(initial=0.0)) or 1.0
        scaled = CsrArrays(magnitudes / self._peak, op.indices, op.indptr, op.shape)
        self._ratio = float(matvec(scaled, np.ones(op.shape[1])).max(initial=0.0))

    def __call__(self, residual_norm, x, rhs_norm):
        """The error of ``x`` given ||op x - rhs|| and ||rhs||."""
        return residual_norm / self.scale(x, rhs_norm)

    def scale(self, x, rhs_norm):
        """The denominator ||op||_inf ||x|| + ||rhs||."""
        return self._ratio * (self._peak * _norm(x)) + rhs_norm


class SpdFactorization:
    """Cached direct factorization of a sparse SPD operator.

    The operator is factored by this module's ``splu``, in symmetric mode
    and with diagonal pivots only (an SPD operator needs no partial
    pivoting), or, given a half-bandwidth ``kd``, by its
    ``cholesky_banded``, each looked up when
    the factor is built: every factor of every scheme passes through
    these two names, and through here.  ``built`` counts the factors
    constructed in this process, each before its backend is called, so a
    run's factors are the difference of two readings.  Either factor only
    has to ``solve``; a breakdown (an exactly singular LU, a Cholesky
    pivot that is not positive or not finite) raises SolverFailure.  The
    normwise error is set up on the first ``solve``, so a factor that only
    ``back_solve``s never reads its operator's norm.
    """

    built = 0

    def __init__(self, op, kd=None):
        SpdFactorization.built += 1
        self.op = op.tocsr()
        try:
            if kd is None:
                self._lu = splu(sp.csc_matrix(op), permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            else:
                self._lu = cholesky_banded(self.op, kd)
        except RuntimeError as exc:
            raise SolverFailure(f"factorization failed: {exc}") from exc
        self._error = None

    def _backward_error(self, x, rhs):
        if self._error is None:
            self._error = NormwiseError(self.op)
        return self._error(_norm(matvec(self.op, x) - rhs), x, _norm(rhs))

    def solve(self, rhs):
        """Solve, refining until the normwise backward error is at most ``DEFAULT_TOL``.

        The backward error (``NormwiseError``) is what a backward-stable
        solve attains whatever the condition of the operator; the relative
        residual ||op x - rhs|| / ||rhs|| grows with it and is not a test a
        correct solve always passes on fine meshes.  Iterative refinement
        recovers the last digits on badly scaled data; if two refinement
        steps do not reach the tolerance, or the error is not finite (a
        singular or overflowing operator), the solve has failed.
        """
        rhs = np.asarray(rhs, dtype=float)
        if not rhs.any():
            return np.zeros_like(rhs)
        x = self._lu.solve(rhs)
        err = self._backward_error(x, rhs)
        for _ in range(2):
            if np.isfinite(err) and err <= DEFAULT_TOL:
                break
            x = x + self._lu.solve(rhs - matvec(self.op, x))
            err = self._backward_error(x, rhs)
        if not np.isfinite(err) or err > DEFAULT_TOL:
            raise SolverFailure("SPD solve failed", err)
        return x

    def back_solve(self, rhs):
        """Triangular solves with the factors alone, unverified (a preconditioner step)."""
        return self._lu.solve(rhs)


class BandedCholesky:
    """LAPACK ``pbtrf`` factor of an SPD operator, in lower band storage.

    ``band`` is the (kd + 1) x N Fortran-ordered array whose column j
    holds op[j:j + kd + 1, j]; ``pbtrf`` overwrites it with the Cholesky
    factor, so the operator's band is never held twice.
    """

    def __init__(self, band):
        self._band = band

    def solve(self, rhs):
        x, _ = _pbtrs(self._band, rhs, lower=1)
        return x


def half_bandwidth(op) -> int:
    """Largest |i - j| over the stored entries of a CSR operator.

    Reduced row by row, so no temporary of one entry per stored value is
    made: an operator past the band budget is measured, not copied.
    """
    rows = np.flatnonzero(np.diff(op.indptr))
    if rows.size == 0:
        return 0
    starts = op.indptr[rows]
    below = rows - np.minimum.reduceat(op.indices, starts)
    above = np.maximum.reduceat(op.indices, starts) - rows
    return int(max(below.max(), above.max()))


def cholesky_banded(op, kd) -> BandedCholesky:
    """Banded Cholesky factor of the symmetric CSR ``op`` with half-bandwidth ``kd``.

    The lower band is filled straight from op's CSR arrays into the
    Fortran-ordered array that ``pbtrf`` overwrites in place (a C-ordered
    one would be copied by LAPACK); a duplicate entry adds up, as in
    scipy's conversions.  A pivot that is not positive (an operator that
    is not positive definite) or not finite raises RuntimeError, as
    SuperLU's exactly singular factor does.
    """
    n = op.shape[0]
    rows = np.repeat(np.arange(n), np.diff(op.indptr))
    lower = op.indices <= rows
    cols = op.indices[lower]
    # column j of the band holds op[j + d, j] at row d: flat index j*(kd + 1) + d
    slots = cols * (kd + 1) + (rows[lower] - cols)
    band = np.bincount(slots, weights=op.data[lower], minlength=n * (kd + 1))
    band = band.reshape((kd + 1, n), order="F")
    _, info = _pbtrf(band, lower=1, overwrite_ab=1)
    if info > 0:
        raise RuntimeError(f"leading minor of order {info} is not positive definite")
    if not np.isfinite(band[0]).all():  # pbtrf passes an inf or NaN pivot on
        raise RuntimeError("Cholesky factor is not finite")
    return BandedCholesky(band)


def factor_banded(op) -> SpdFactorization:
    """Factor an SPD operator that many solves will reuse.

    A ``cholesky_banded`` factor on the operator's own ordering while its
    band, N*(kd + 1) doubles, is within ``_BAND_BUDGET``: LAPACK's banded
    back-solve runs through a narrow band up to about three times as fast
    as SuperLU's supernodal one through its factor.  Past the budget the
    band holds more than the sparse factor and its back-solve is no
    faster, so the operator gets this module's ``splu`` (see
    ``SpdFactorization``).  A per-step pressure operator is solved once
    or a few times per factor and is never banded.
    """
    op = op.tocsr()
    kd = half_bandwidth(op)
    if op.shape[0] * (kd + 1) <= _BAND_BUDGET:
        return SpdFactorization(op, kd)
    return SpdFactorization(op)


def solve_spd(op, rhs) -> np.ndarray:
    """One-shot SPD solve with residual verification."""
    return SpdFactorization(op).solve(rhs)


def solve_pressure(op, rhs, guess, levels):
    """Solve a per-step pressure operator C + tau*B(u), verified as ``SpdFactorization.solve``.

    ``op`` is CSR, taken as it is, explicit zeros included.  ``levels``
    is the multigrid hierarchy of its space, one ``assembly.MultigridLevel``
    per level, finest first (``assembly.pressure_prolongations``).  With
    no level the operator is factored by this module's ``splu`` and solved
    by ``solve_spd``.  Otherwise op's index arrays must be the finest
    level's pattern (ValueError before anything is factored), and it is
    solved by CG from the warm start ``guess``, preconditioned by one
    multigrid V-cycle (``_VCycle``) on its own values; its coarsest level
    is factored by ``splu``.  So each call makes exactly one factor, and
    every product with the operator, a prolongation or a restriction goes
    through ``matvec``.

    The V-cycle is not symmetric (one smoothing sweep before the coarse
    correction, two after), so CG takes the Polak-Ribiere direction
    update of flexible CG, which tolerates such a preconditioner.  It
    stops on the recursive residual, and the iterate is then verified by
    the normwise backward error of an independent residual
    (``NormwiseError``); a miss restarts CG from that residual.  A
    diagonal entry that is not positive and finite, a non-positive or
    non-finite curvature or preconditioned residual (the breakdown of CG
    on an operator that is not SPD), or ``_CG_MAX`` iterations without
    reaching ``DEFAULT_TOL``, raise SolverFailure; there is no fallback to an LU
    of the full operator.  A zero ``rhs`` gives zero, as the LU path
    does.  Returns (solution, CG iterations), with 0 iterations on the LU
    path.
    """
    if not levels:
        return solve_spd(op, rhs), 0
    fine = levels[0].fine
    if not (np.array_equal(op.indptr, fine.indptr) and np.array_equal(op.indices, fine.indices)):
        raise ValueError("pressure operator is not on the multigrid hierarchy's pattern")
    precondition = _VCycle(op.data, levels)
    rhs = np.asarray(rhs, dtype=float)
    if not rhs.any():
        return np.zeros_like(rhs), 0
    error = NormwiseError(op)
    norm_b = _norm(rhs)
    # the iterate, two residuals (current and previous), the preconditioned
    # residual, the direction, op times the direction, and a scratch vector
    x = np.array(guess, dtype=float)
    r, r_old, z, p, q, t = (np.empty_like(rhs) for _ in range(6))
    iterations = 0
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite values fail below
        np.subtract(rhs, matvec(op, x, out=q), out=r)
        while True:
            err = error(_norm(r), x, norm_b)
            if err <= DEFAULT_TOL:
                return x, iterations
            if not math.isfinite(err) or iterations >= _CG_MAX:
                raise SolverFailure("pressure CG solve failed", err)
            precondition(r, z)
            rz = float(r @ z)
            np.copyto(p, z)
            while iterations < _CG_MAX:
                matvec(op, p, out=q)
                curvature = float(p @ q)
                if not (rz > 0.0 and 0.0 < curvature < math.inf):
                    raise SolverFailure("pressure CG broke down: the operator or its "
                                        "preconditioner is not SPD", err)
                step = rz / curvature
                np.add(x, np.multiply(step, p, out=t), out=x)
                r_old, r = r, np.subtract(r, np.multiply(step, q, out=t), out=r_old)
                iterations += 1
                if _norm(r) <= DEFAULT_TOL * error.scale(x, norm_b):
                    break
                precondition(r, z)
                rz_old, rz = rz, float(r @ z)
                np.add(z, np.multiply((rz - float(r_old @ z)) / rz_old, p, out=p), out=p)
            np.subtract(rhs, matvec(op, x, out=q), out=r)


class _VCycle:
    """One multigrid V-cycle for an SPD operator, applied as a preconditioner.

    Built from the values of the finest operator on ``levels[0].fine``:
    each level's Galerkin map gives the next level's values, so the level
    operators are P^T A P on their cached patterns with no sparse
    product; the coarsest is factored by this module's ``splu`` and
    solved by its back-solve.  Every finer level is smoothed by damped
    Jacobi with weight ``_JACOBI_WEIGHT``: one sweep from zero before the
    coarse correction and two after.  A diagonal entry that is not
    positive and finite raises SolverFailure, since Jacobi cannot smooth
    with it.  Each level keeps a scratch vector and the right-hand side
    and iterate of the level below it, made with the cycle, so applying
    it allocates nothing but the coarsest back-solve's result.
    """

    def __init__(self, data, levels):
        self._levels = []
        for level in levels:
            d = data[level.fine.diagonal]
            if not np.all((d > 0.0) & (d < np.inf)):
                raise SolverFailure("pressure operator has a diagonal entry that is not "
                                    "positive and finite")
            n, m = level.P.shape
            op = CsrArrays(data, level.fine.indices, level.fine.indptr, (n, n))
            self._levels.append((op, _JACOBI_WEIGHT / d, level.P, level.R,
                                 np.empty(n), np.empty(m), np.empty(m)))
            data = matvec(level.galerkin, data)
        coarse, n = levels[-1].coarse, levels[-1].P.shape[1]
        self._coarse = SpdFactorization(sp.csr_matrix((data, coarse.indices, coarse.indptr),
                                                      shape=(n, n)))

    def __call__(self, b, x, level=0):
        """Write the cycle applied to ``b`` into ``x``, and return ``x``."""
        op, weight, P, R, t, coarse_b, coarse_x = self._levels[level]
        np.multiply(weight, b, out=x)
        matvec(R, np.subtract(b, matvec(op, x, out=t), out=t), out=coarse_b)
        if level + 1 == len(self._levels):
            coarse_x = self._coarse.back_solve(coarse_b)
        else:
            self(coarse_b, coarse_x, level + 1)
        np.add(x, matvec(P, coarse_x, out=t), out=x)
        for _ in range(_POST_SWEEPS):
            np.subtract(b, matvec(op, x, out=t), out=t)
            np.add(x, np.multiply(weight, t, out=t), out=x)
        return x


@dataclass(eq=False)
class BlockSystem:
    """The block operator K = [[A, -D^T], [D, P]] in the unknowns (u, p), P = C + tau*B.

    The blocks are kept as CSR: A, D, whose transpose is applied by
    ``rmatvec``, and the pressure block P (``pressure``, the ``CsrArrays`` of
    its own pattern).  K is never stacked: ``monolithic`` and
    ``equilibration`` apply and scale it from the blocks, and what the
    equilibration reads of A and D alone is computed here, once.
    ``set_pressure_block`` rewrites the values of ``pressure`` in place, so a
    Picard run owns one system (``StepOperators.block_system``) and no
    iterate stacks or transposes a block or forms a sparse sum.  The
    pressure block given at construction sets only the pattern and the
    first values: it is neither kept nor modified, so it may be a matrix
    that other runs share.
    """

    A: sp.spmatrix
    D: sp.spmatrix
    C_plus_tauB: InitVar[sp.spmatrix]

    def __post_init__(self, C_plus_tauB):
        # a canonical copy: its slot order is the order set_pressure_block writes in
        pressure = C_plus_tauB.tocsr(copy=True)
        pressure.sum_duplicates()
        nu, np_ = self.A.shape[0], pressure.shape[0]
        if self.A.shape != (nu, nu) or pressure.shape != (np_, np_) \
                or self.D.shape != (np_, nu):
            raise ValueError("inconsistent block dimensions")
        self.A, self.D = self.A.tocsr(), self.D.tocsr()
        self.pressure = CsrArrays(pressure.data, pressure.indices, pressure.indptr,
                                  pressure.shape)
        # s_u = |diag A|^(-1/2), |A| s_u and |D| s_u; a zero or non-finite
        # diagonal, and an overflow, are refused by equilibration
        self._abs_D = CsrArrays(np.abs(self.D.data), self.D.indices, self.D.indptr,
                                self.D.shape)
        self._abs_diag_A = np.abs(self.A.diagonal())
        abs_A = CsrArrays(np.abs(self.A.data), self.A.indices, self.A.indptr, self.A.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s_u = 1.0 / np.sqrt(self._abs_diag_A)
            self._displacement_scaling = (s_u, matvec(abs_A, s_u), matvec(self._abs_D, s_u))

    def monolithic(self, u, p) -> np.ndarray:
        """K (u, p) = [A u - D^T p; D u + P p], applied block by block."""
        return np.concatenate([matvec(self.A, u) - rmatvec(self.D, p),
                               matvec(self.D, u) + matvec(self.pressure, p)])

    def equilibration(self):
        """The scaling s = |diag K|^(-1/2) and ||EKE||_inf with E = diag(s), from the blocks.

        |diag K| is [|diag A|; |diag P|], and ||EKE||_inf is the largest entry
        of s * (|K| s), whose rows are s_u * (|A| s_u + |D|^T s_p) and
        s_p * (|D| s_u + |P| s_p): |A| s_u and |D| s_u are fixed with A, so a
        call makes one product with |D|^T and one with |P|.  A zero, missing
        or non-finite diagonal entry, or a norm that is not finite, raise
        SolverFailure.  Returns (s, ||EKE||_inf).
        """
        s_u, abs_A_s, abs_D_s = self._displacement_scaling
        P = self.pressure
        d = np.concatenate([self._abs_diag_A, np.abs(_diagonal(P))])
        if not np.all((d > 0.0) & (d < np.inf)):
            raise SolverFailure("block operator has a zero or non-finite diagonal")
        s_p = 1.0 / np.sqrt(d[s_u.size:])
        abs_P = CsrArrays(np.abs(P.data), P.indices, P.indptr, P.shape)
        with np.errstate(over="ignore"):  # reported just below
            rows = np.concatenate([s_u * (abs_A_s + rmatvec(self._abs_D, s_p)),
                                   s_p * (abs_D_s + matvec(abs_P, s_p))])
        norm = float(rows.max())
        if not math.isfinite(norm):
            raise SolverFailure("equilibrated block operator is not finite")
        return np.concatenate([s_u, s_p]), norm

    def set_pressure_block(self, values):
        """Write new values of the pressure block, in its own slot order, in place."""
        self.pressure.data[:] = values


def solve_block(system: BlockSystem, rhs_u, rhs_p, a_factor: SpdFactorization,
                s_factor: SpdFactorization, guess=None, reduction=None):
    """Solve the block system K (u, p) = (f, g) by CG on its pressure Schur complement.

    ``a_factor`` factorizes the elasticity block A exactly, so u is
    eliminated, u = A^-1 (f + D^T p), and p solves S p = g - D A^-1 f
    with S = P + D A^-1 D^T, which is SPD.  S is never formed: each CG
    iteration applies it to its direction d as D w + P d with
    w = A^-1 D^T d, one back-solve of ``a_factor``, and carries u along as
    u += step * w, so u stays consistent with p.  ``s_factor`` factorizes
    an SPD operator close to S, such as the fixed-stress P + beta*M, and
    preconditions CG: one back-solve per iteration.  CG starts from
    ``guess``, a pair (u, p) with A u = f + D^T p to rounding, such as the
    result of an earlier solve with the same A, D and f, and makes no
    back-solve of A for it; with no guess it starts from p = 0 and
    u = A^-1 f.  The loop updates work vectors made once per solve, in
    place, with the same two roundings per update as a freshly allocated
    expression.  Returns (u, p, CG iterations).

    The blocks may differ in scale by many orders of magnitude (realistic
    material constants), so the solve is measured on the symmetrically
    equilibrated system E K E with E = diag(s), s = |diag K|^(-1/2).  The
    verified quantity is the normwise backward error
    ||E(b - Kx)|| / (||EKE||_inf*||y|| + ||Eb||) with y = x / s; s and
    ||EKE||_inf are built from the blocks (``BlockSystem.equilibration``),
    so a solve allocates no sparse matrix.  It is verified against
    ``DEFAULT_TOL`` or, given a ``reduction``, against the forcing term
    max(DEFAULT_TOL, reduction * e0), where e0 is the backward error of the
    starting pair itself: an inner solve of an outer iteration then does
    only the work the outer residual needs.

    CG stops on its recursive residual, the pressure rows' residual
    scaled as in the equilibrated error (u's rows carry only the rounding
    of its updates), once it is at most ``_CG_AIM`` times the target: a
    normwise error bounds p only relative to ||y||, which u dominates, so
    CG aims further than the normwise test needs.  The iterate is then
    verified by an independent residual of K (``BlockSystem.monolithic``);
    a miss, also one that a guess whose u is not consistent leaves,
    restarts CG from the u consistent with its p, one back-solve of A,
    and that pair's own residual.  A zero, missing or non-finite diagonal entry, an
    equilibrated norm that overflows, a curvature or preconditioned
    residual that is not positive and finite (the breakdown of CG when S
    or the preconditioner is not SPD), a non-finite error, or ``_CG_MAX``
    iterations without reaching the target raise SolverFailure.
    """
    nu = system.A.shape[0]
    D, P = system.D, system.pressure
    f, g = np.asarray(rhs_u, dtype=float), np.asarray(rhs_p, dtype=float)
    rhs = np.concatenate([f, g])
    if not rhs.any():
        return np.zeros(nu), np.zeros(g.size), 0

    s, norm_K = system.equilibration()
    norm_b = _norm(s * rhs)
    s_u, s_p = s[:nu], s[nu:]
    # the iterate, the pressure residual, the direction, S times the
    # direction, and a scratch vector of each length
    if guess is None:
        u, p = a_factor.back_solve(f), np.zeros(g.size)
    else:
        u, p = (np.array(v, dtype=float) for v in guess)
    r, direction, q, t = (np.empty_like(g) for _ in range(4))
    t_u = np.empty_like(f)

    def scale(u, p):  # denominator of the backward error
        return norm_K * math.hypot(_norm(np.divide(u, s_u, out=t_u)),
                                   _norm(np.divide(p, s_p, out=t))) + norm_b

    def backward_error(u, p):  # from an independent residual of K
        return _norm(s * (rhs - system.monolithic(u, p))) / scale(u, p)

    tol = DEFAULT_TOL
    if reduction is not None:  # the forcing term
        tol = max(tol, reduction * backward_error(u, p))
    iterations, rz = 0, 0.0
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite values fail below
        while True:
            # a (re)start: the residual of S p = g - D A^-1 f at the pair (u, p)
            start = iterations
            np.subtract(g, matvec(D, u, out=r), out=r)
            np.subtract(r, matvec(P, p, out=t), out=r)
            while iterations < _CG_MAX and \
                    _norm(np.multiply(s_p, r, out=t)) > _CG_AIM * tol * scale(u, p):
                z = s_factor.back_solve(r)
                rz_old, rz = rz, float(r @ z)
                if iterations == start:
                    np.copyto(direction, z)
                else:
                    np.add(z, np.multiply(rz / rz_old, direction, out=direction), out=direction)
                w = a_factor.back_solve(rmatvec(D, direction, out=t_u))
                np.add(matvec(D, w, out=q), matvec(P, direction, out=t), out=q)
                curvature = float(direction @ q)
                if not (0.0 < rz < math.inf and 0.0 < curvature < math.inf):
                    raise SolverFailure("block CG broke down: the Schur complement or its "
                                        "preconditioner is not SPD",
                                        _norm(s_p * r) / scale(u, p))
                step = rz / curvature
                np.add(p, np.multiply(step, direction, out=t), out=p)
                np.add(u, np.multiply(step, w, out=t_u), out=u)
                np.subtract(r, np.multiply(step, q, out=t), out=r)
                iterations += 1
            error = backward_error(u, p)
            if error <= tol:
                return u, p, iterations
            if not math.isfinite(error) or iterations >= _CG_MAX or iterations == start:
                raise SolverFailure("block solve failed", error)
            u = a_factor.back_solve(f + rmatvec(D, p))


def _norm(v) -> float:
    """Euclidean norm as a Python float; the same dot and square root as
    ``np.linalg.norm`` on a real vector, without its wrapper."""
    return math.sqrt(v @ v)
