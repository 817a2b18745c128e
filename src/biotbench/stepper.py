"""Time stepping schemes for the coupled poroelastic system.

Three paths over an equidistant grid t_n = n*tau:

* semi-explicit Euler: the elasticity equation sees the previous
  pressure, which decouples the system into two sequential SPD solves and
  evaluates the permeability at the freshly computed displacement; no
  inner iteration at all.
* implicit Euler with Picard linearization: per step, a fixed-point loop
  solves coupled linear block systems with the permeability frozen at the
  previous iterate, until the residual of the nonlinear step system drops
  below a tolerance or an iteration cap is hit.
* implicit Euler for the pressure-delay formulation: the same stepping
  written against a prescribed pressure history on [-tau, 0]; kept as a
  deliberately separate code path because its trajectories must coincide
  with the semi-explicit ones.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.sparse.linalg import splu
import scipy.sparse as sp

from .assembly import (Coefficients, assemble_coupling, assemble_elasticity,
                       assemble_load_q, assemble_load_v, assemble_mass,
                       assemble_permeability_stiffness, assemble_pressure_mass)
from .linsolve import DEFAULT_TOL, BlockSystem, SolverFailure, SpdFactorization, solve_block
from .mesh import Mesh

SEMI_EXPLICIT = "semi_explicit"
IMPLICIT_PICARD = "implicit_picard"
DELAY_IMPLICIT = "delay_implicit"
SCHEMES = (SEMI_EXPLICIT, IMPLICIT_PICARD, DELAY_IMPLICIT)


@dataclass
class State:
    """Interior coefficient vectors of displacement and pressure at time t."""

    u: np.ndarray
    p: np.ndarray
    t: float


@dataclass
class StepperConfig:
    scheme: str
    tau: float
    T: float
    picard_max: int = 10
    picard_tol: float = 1e-9
    history: Optional[Callable[[float], np.ndarray]] = None
    linear_tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.tau <= 0 or self.T < 0:
            raise ValueError("require tau > 0 and T >= 0")
        steps = self.T / self.tau
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"T/tau = {steps} is not an integer")
        if not 0.0 < self.picard_tol < 1.0:
            raise ValueError("picard_tol must lie in (0, 1)")
        if not 0.0 < self.linear_tol < 1.0:
            raise ValueError("linear_tol must lie in (0, 1)")
        if self.picard_max < 1:
            raise ValueError("picard_max must be at least 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.tau))


@dataclass
class StepReport:
    picard_iterations: int = 0
    final_picard_residual: float = 0.0
    #: GMRES iterations summed over the step's block solves
    linear_iterations: int = 0


@dataclass
class RunReport:
    """Aggregate statistics of a full time loop."""

    wall_time: float = 0.0
    n_steps: int = 0
    picard_mean: float = 0.0
    picard_max: int = 0
    max_picard_residual: float = 0.0
    factorization_count: int = 0
    linear_iterations: int = 0

    @staticmethod
    def from_steps(wall_time, reports, factorization_count):
        iters = [r.picard_iterations for r in reports]
        return RunReport(
            wall_time=wall_time,
            n_steps=len(reports),
            picard_mean=float(np.mean(iters)) if iters else 0.0,
            picard_max=max(iters) if iters else 0,
            max_picard_residual=max((r.final_picard_residual for r in reports), default=0.0),
            factorization_count=factorization_count,
            linear_iterations=sum(r.linear_iterations for r in reports),
        )


class StepOperators:
    """Time-independent operators A, C, D shared by the initial solve and all steps of a run.

    The elasticity factorization is built lazily, once, and then kept for
    the whole run: the initial displacement solve, every semi-explicit step
    and every fixed-stress preconditioner of the Picard path use it.  The
    pressure operator changes with u and is refactorized per step, as
    C + tau*B(u) on the semi-explicit path and as the fixed-stress
    C + tau*B(u) + beta*M on the Picard path.  C, M and every B(u) share
    one CSR pattern (one scatter plan), so each such sum is one numpy
    addition over the slots, equal bit for bit to scipy's sparse sum.
    The Picard path's block system is built lazily on its first iterate
    and then kept: later iterates rewrite its pressure slots in place
    (``block_system``), so a semi-explicit run never builds it.
    ``factorization_count`` is the run's only LU count: the steps add
    their pressure factorizations to it.
    """

    def __init__(self, mesh: Mesh, coeffs: Coefficients):
        self.mesh = mesh
        self.coeffs = coeffs
        self.A = assemble_elasticity(mesh, coeffs)
        self.C = assemble_pressure_mass(mesh, coeffs)
        self.D = assemble_coupling(mesh, coeffs)
        self._a_factor = None
        self._stabilized_C = None
        self._block = None
        self.factorization_count = 0

    def a_factor(self) -> SpdFactorization:
        if self._a_factor is None:
            self._a_factor = SpdFactorization(self.A)
            self.factorization_count += 1
        return self._a_factor

    def pressure_operator(self, B, tau) -> sp.csr_matrix:
        """C + tau*B on the shared pressure pattern."""
        return _plus_tau_b(self.C, B, tau)

    def fixed_stress_factor(self, B, tau) -> SpdFactorization:
        """Factor C + tau*B + beta*M with beta = alpha^2/(lam + mu), and count it.

        M is the unscaled P1 mass matrix; beta*M stands in for D A^-1 D^T,
        the part of the pressure Schur complement that the sweep drops.
        """
        if self._stabilized_C is None:
            co = self.coeffs
            beta = co.alpha ** 2 / (co.lam + co.mu)
            self._stabilized_C = self.C + beta * assemble_mass(self.mesh)
        self.factorization_count += 1
        return SpdFactorization(_plus_tau_b(self._stabilized_C, B, tau))

    def block_system(self, B, tau) -> BlockSystem:
        """The run's block system [[A, -D^T], [D, C + tau*B]], with B's values written in.

        Built on the first call; later calls write C + tau*B into the
        pressure slots of the same operator.  Its pressure block keeps the
        full shared pattern: a slot that cancels to zero stays an explicit
        zero, which changes no product.
        """
        values = self.C.data + tau * B.data
        if self._block is None:
            block = sp.csr_matrix((values, self.C.indices, self.C.indptr), shape=self.C.shape)
            self._block = BlockSystem(self.A, self.D, block)
        else:
            self._block.set_pressure_block(values)
        return self._block

    def permeability_stiffness(self, u):
        return assemble_permeability_stiffness(self.mesh, self.coeffs, u)


def _plus_tau_b(base, B, tau) -> sp.csr_matrix:
    """base + tau*B for two matrices on one CSR pattern, as scipy's sum gives it.

    The slots add as scipy adds them, and a slot that cancels to exactly
    zero is dropped as scipy drops it, so a factorization sees the same
    pattern as it would for ``base + tau*B``.
    """
    data = base.data + tau * B.data
    if data.all():
        return sp.csr_matrix((data, base.indices, base.indptr), shape=base.shape)
    op = sp.csr_matrix((data, base.indices.copy(), base.indptr.copy()), shape=base.shape)
    op.eliminate_zeros()
    return op


def initial_displacement(ops: StepOperators, p0, f0=None, tol=DEFAULT_TOL) -> np.ndarray:
    """Consistent initial displacement: solve A u0 = f0 + D^T p0.

    The initial pressure determines the displacement through the
    equilibrium equation; ``p0`` is an interior pressure vector and ``f0``
    an optional assembled interior load vector.  The solve uses the run's
    shared elasticity factor, which the semi-explicit steps then reuse.
    """
    rhs = ops.D.T @ np.asarray(p0, dtype=float)
    if f0 is not None:
        rhs = rhs + f0
    return ops.a_factor().solve(rhs, tol)


def semi_explicit_step(ops: StepOperators, state: State, load_u, load_p,
                       cfg: StepperConfig):
    """Advance one step with the decoupled, linearized scheme.

    Exactly two sequential SPD solves: the elasticity solve lags the
    pressure by one step, then the flow solve uses the permeability
    evaluated at the new displacement.
    """
    tau = cfg.tau
    u_new = ops.a_factor().solve(load_u + ops.D.T @ state.p, cfg.linear_tol)

    B = ops.permeability_stiffness(u_new)
    rhs_p = tau * load_p + ops.C @ state.p - ops.D @ (u_new - state.u)
    p_new = SpdFactorization(ops.pressure_operator(B, tau)).solve(rhs_p, cfg.linear_tol)
    ops.factorization_count += 1

    return State(u_new, p_new, state.t + tau), StepReport()


def picard_residual(ops: StepOperators, B, u, p, rhs_u, rhs_p,
                    tau: float) -> float:
    """Scaled residual of the nonlinear step system at (u, p).

    The Euclidean block residual is normalized by the right-hand side norm
    plus the norms of the evaluated operator terms.  The extra terms guard
    against material constants whose block scales differ by many orders of
    magnitude, where plain division by the right-hand side norm would sit
    far above floating-point resolution; for unit-scale coefficients both
    normalizations agree up to a small factor.
    """
    Au = ops.A @ u
    DTp = ops.D.T @ p
    Du = ops.D @ u
    Cp = ops.C @ p
    Bp = tau * (B @ p)
    r_u = Au - DTp - rhs_u
    r_p = Du + Cp + Bp - rhs_p
    residual = math.hypot(np.linalg.norm(r_u), np.linalg.norm(r_p))
    scale = math.hypot(np.linalg.norm(rhs_u), np.linalg.norm(rhs_p)) + sum(
        np.linalg.norm(v) for v in (Au, DTp, Du, Cp, Bp))
    return residual / scale if scale > 0 else residual


def implicit_picard_step(ops: StepOperators, state: State, load_u, load_p,
                         cfg: StepperConfig):
    """Advance one step of the implicit Euler scheme via Picard iteration.

    Starting from the previous state, each iterate solves the linear block
    system with the permeability frozen at the preceding iterate, by
    GMRES warm-started from that iterate.  The block system is the run's
    one operator with that iterate's C + tau*B written into its pressure
    slots.  Its fixed-stress preconditioner uses the run's factor of A and
    one factor of C + tau*B + beta*M per step, with B at the previous
    state.  The loop stops once the scaled residual of the nonlinear step
    system is below ``picard_tol`` or after ``picard_max`` iterates;
    running into the cap is not an error (capped variants are legitimate
    schemes of their own).
    """
    tau = cfg.tau
    rhs_u = np.asarray(load_u, dtype=float)
    rhs_p = tau * load_p + ops.D @ state.u + ops.C @ state.p

    u_j, p_j = state.u, state.p
    B_frozen = ops.permeability_stiffness(u_j)
    a_factor = ops.a_factor()
    s_factor = ops.fixed_stress_factor(B_frozen, tau)
    iterations = linear_iterations = 0
    residual = math.inf
    for _ in range(cfg.picard_max):
        system = ops.block_system(B_frozen, tau)
        u_j, p_j, steps = solve_block(system, rhs_u, rhs_p, a_factor, s_factor,
                                      (u_j, p_j), cfg.linear_tol)
        iterations += 1
        linear_iterations += steps

        # residual of the nonlinear step system, permeability at the new iterate
        B_new = ops.permeability_stiffness(u_j)
        residual = picard_residual(ops, B_new, u_j, p_j, rhs_u, rhs_p, tau)
        B_frozen = B_new
        if residual <= cfg.picard_tol:
            break

    report = StepReport(picard_iterations=iterations, final_picard_residual=residual,
                        linear_iterations=linear_iterations)
    return State(u_j, p_j, state.t + tau), report


def run(mesh: Mesh, coeffs: Coefficients, cfg: StepperConfig, f, g, p0):
    """Run a full trajectory from t = 0 to t = T.

    ``f`` (volumetric load, may be None), ``g`` (fluid source) and ``p0``
    (initial pressure) are functions of (x, y[, t]); right-hand sides are
    evaluated pointwise at the step times.  Returns the list of N+1 states
    and an aggregate report whose wall time covers the stepping loop only
    (time-independent assembly and the initial solve are excluded).
    """
    if cfg.scheme == DELAY_IMPLICIT:
        tic = time.perf_counter()
        states, factorizations = _delay_implicit(mesh, coeffs, cfg, f, g, p0)
        wall = time.perf_counter() - tic
        report = RunReport(wall_time=wall, n_steps=cfg.n_steps,
                           factorization_count=factorizations)
        return states, report

    ops = StepOperators(mesh, coeffs)
    p0_vec = mesh.nodal_scalar(p0, interior=True)
    zero_u = np.zeros(mesh.num_displacement_dofs)
    f0 = assemble_load_v(mesh, f, 0.0) if f is not None else zero_u
    u0 = initial_displacement(ops, p0_vec, f0, cfg.linear_tol)
    step = semi_explicit_step if cfg.scheme == SEMI_EXPLICIT else implicit_picard_step

    states = [State(u0, p0_vec, 0.0)]
    reports = []
    tic = time.perf_counter()
    for n in range(1, cfg.n_steps + 1):
        t_n = n * cfg.tau
        load_u = assemble_load_v(mesh, f, t_n) if f is not None else zero_u
        load_p = assemble_load_q(mesh, g, t_n)
        state, rep = step(ops, states[-1], load_u, load_p, cfg)
        states.append(state)
        reports.append(rep)
    wall = time.perf_counter() - tic
    return states, RunReport.from_steps(wall, reports, ops.factorization_count)


def delay_implicit_run(mesh: Mesh, coeffs: Coefficients, cfg: StepperConfig, f, g, p0):
    """Implicit Euler applied to the formulation with a pressure delay of tau.

    The elasticity equation at t_n sees the delayed pressure at t_n - tau,
    supplied by the history function on [-tau, 0] and by the computed
    trajectory afterwards.  The history must match the initial pressure at
    both endpoints of [-tau, 0].  Written independently of
    ``semi_explicit_step`` (fresh factorizations, its own loop) so the two
    paths can be compared against each other.
    """
    return _delay_implicit(mesh, coeffs, cfg, f, g, p0)[0]


def _delay_implicit(mesh, coeffs, cfg, f, g, p0):
    """``delay_implicit_run``'s trajectory and the number of LUs it made."""
    tau = cfg.tau
    p0_vec = mesh.nodal_scalar(p0, interior=True)
    history = cfg.history if cfg.history is not None else (lambda t: p0_vec)

    scale = max(1.0, float(np.max(np.abs(p0_vec))) if p0_vec.size else 1.0)
    for endpoint in (-tau, 0.0):
        value = np.asarray(history(endpoint), dtype=float)
        if value.shape != p0_vec.shape:
            raise ValueError("history values must be interior pressure vectors")
        if np.max(np.abs(value - p0_vec), initial=0.0) > 1e-12 * scale:
            raise ValueError(
                f"history function must equal the initial pressure at t={endpoint}")

    A = assemble_elasticity(mesh, coeffs)
    C = assemble_pressure_mass(mesh, coeffs)
    D = assemble_coupling(mesh, coeffs)
    zero_u = np.zeros(mesh.num_displacement_dofs)

    factorizations = 0

    def load_u_at(t):
        return assemble_load_v(mesh, f, t) if f is not None else zero_u

    def factor(op):
        nonlocal factorizations
        factorizations += 1
        try:
            return splu(op, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
            raise SolverFailure(f"LU factorization failed: {exc}") from exc

    # initial displacement from the delayed pressure at -tau
    u0 = factor(sp.csc_matrix(A)).solve(load_u_at(0.0) + D.T @ history(-tau))

    pressures = [p0_vec]
    states = [State(u0, p0_vec, 0.0)]
    for n in range(1, cfg.n_steps + 1):
        t_n = n * tau
        delayed = history(t_n - tau) if n == 1 else pressures[n - 1]
        u_n = factor(sp.csc_matrix(A)).solve(
            load_u_at(t_n) + D.T @ np.asarray(delayed, dtype=float))
        B = assemble_permeability_stiffness(mesh, coeffs, u_n)
        rhs = tau * assemble_load_q(mesh, g, t_n) + C @ pressures[-1] \
            - D @ (u_n - states[-1].u)
        p_n = factor((C + tau * B).tocsc()).solve(rhs)
        pressures.append(p_n)
        states.append(State(u_n, p_n, t_n))
    return states, factorizations


def tau_bound_diagnostic(coeffs: Coefficients, p_bound: float, model=None) -> float:
    """Heuristic upper bound on the admissible step size.

    Evaluates c_a*c_b / (2*L_b^2*p_bound^2) with c_b the lower mobility
    bound, L_b the mobility Lipschitz constant and c_a estimated by the
    shear modulus.  The constants are analysis-style estimates only; the
    returned value is advisory and never gates execution.  A model without
    displacement dependence returns infinity (no restriction).
    """
    if p_bound <= 0:
        raise ValueError("p_bound must be positive")
    model = coeffs.permeability if model is None else model
    c_a = coeffs.mu
    c_b = coeffs.kappa_over_nu * model.bounds()[0]
    L_b = coeffs.kappa_over_nu * model.lipschitz_constant()
    if L_b == 0.0:
        return math.inf
    return c_a * c_b / (2.0 * L_b**2 * p_bound**2)
