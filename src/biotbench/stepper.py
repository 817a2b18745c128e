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
import numbers
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.sparse.linalg import splu  # noqa: F401 (perfbench/spans.py binds stepper.splu)

from .assembly import (Coefficients, assemble_coupling, assemble_elasticity,
                       assemble_load_q, assemble_load_v, assemble_mass,
                       assemble_permeability_stiffness, assemble_pressure_mass,
                       pressure_prolongations, pressure_sum)
from .linsolve import (BlockSystem, SpdFactorization, _norm, factor_banded, matvec,
                       rmatvec, solve_block, solve_pressure)
from .mesh import Mesh
from .permeability import is_finite_number

#: forcing term of the Picard inner solves: an iterate that is neither the
#: first of its step nor the last the cap allows is verified to this
#: fraction of its warm start's backward error, not to ``DEFAULT_TOL``
_PICARD_FORCING = 1e-2

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

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if not (is_finite_number(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be a finite number > 0, got {self.tau!r}")
        if not (is_finite_number(self.T) and self.T >= 0):
            raise ValueError(f"T must be a finite number >= 0, got {self.T!r}")
        steps = self.T / self.tau
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"T/tau = {steps} is not an integer")
        if not 0.0 < self.picard_tol < 1.0:
            raise ValueError("picard_tol must lie in (0, 1)")
        cap = self.picard_max
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise ValueError(f"picard_max must be an integer >= 1, got {cap!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.tau))


@dataclass
class StepReport:
    picard_iterations: int = 0
    final_picard_residual: float = 0.0
    #: CG iterations summed over the step's block solves
    linear_iterations: int = 0


@dataclass
class RunReport:
    """Aggregate statistics of a full time loop."""

    #: seconds in the stepping loop; on the delay path also its own assembly,
    #: A's factor and the initial solve (see ``run``)
    wall_time: float = 0.0
    n_steps: int = 0
    picard_mean: float = 0.0
    picard_max: int = 0
    max_picard_residual: float = 0.0
    #: steps that ran all ``picard_max`` iterates
    picard_capped: int = 0
    #: the ``linsolve.SpdFactorization`` factors built while the run ran, the
    #: difference of two readings of its count: A's, and per step one pressure
    #: factor, the LU of C + tau*B (or of C + tau*B + beta*M) or, where
    #: multigrid solves C + tau*B, the LU of its coarsest level; a factor of A
    #: that another run of its study made is not counted
    factorization_count: int = 0
    linear_iterations: int = 0

    @staticmethod
    def from_steps(wall_time, reports, factorization_count, picard_cap):
        iters = [r.picard_iterations for r in reports]
        return RunReport(
            wall_time=wall_time,
            n_steps=len(reports),
            picard_mean=float(np.mean(iters)) if iters else 0.0,
            picard_max=max(iters) if iters else 0,
            max_picard_residual=max((r.final_picard_residual for r in reports), default=0.0),
            picard_capped=sum(n >= picard_cap for n in iters),
            factorization_count=factorization_count,
            linear_iterations=sum(r.linear_iterations for r in reports),
        )


class SharedOperators:
    """Time-independent operators of one mesh, each built on first request.

    Every semi-explicit or Picard run reads its A, A's factor, C, D,
    the unscaled mass M and the fixed-stress C + beta*M from a store: its
    own when it is given none, or one that the runs of a study on one mesh
    share.  Those runs differ in scheme, step size or alpha.  Each piece
    is kept under the coefficients it reads: A and its factor (banded
    while A's band is small, see ``linsolve.factor_banded``) under lam
    and mu, C under M, D under alpha, M once per mesh and
    C + beta*M under M and beta.  D is assembled for each alpha: alpha
    times another alpha's D is not bit-identical.  A piece is built by the
    run that first asks for it, and stored only once it is complete, so a
    build that raises leaves nothing behind.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self._pieces = {}

    def get(self, key, build):
        """The piece kept under ``key``, made by ``build()`` on the first request."""
        if key not in self._pieces:
            self._pieces[key] = build()
        return self._pieces[key]


class StepOperators:
    """The operators of one run: the initial solve and all its steps read them here.

    A semi-explicit or Picard run forms and factors its SPD operators
    here: A by ``linsolve.factor_banded`` and the fixed-stress pressure
    operator by ``linsolve.SpdFactorization``, which counts every factor.
    A, its factor, C, D, M and C + beta*M are read through ``shared``,
    a private ``SharedOperators`` of the mesh when none is given, so each is
    built once per store.  The elasticity factor serves the initial
    displacement solve, every semi-explicit step and, on the Picard path,
    every elimination of u in the Schur complement CG of
    ``linsolve.solve_block``, which the fixed-stress factor
    preconditions.  Every pressure-space operator is a
    ``linsolve.CsrArrays`` formed by ``assembly.pressure_sum`` on the
    scalar plan's pattern, which C, M and every B(u) share, a slot that
    cancels kept as an explicit zero.  The pressure operator
    changes with u, so no step keeps it: the semi-explicit step solves
    C + tau*B(u) by the same call the delay path makes, and the Picard path
    refactorizes the fixed-stress C + beta*M + tau*B(u) per step.  The
    Picard path's block system is the run's own and the one operator
    rewritten in place: built on its first iterate and then kept, every
    iterate writes C + tau*B into the values of its pressure block
    (``block_system``); K is never stacked.  A semi-explicit run never
    builds it.  Apart from that system, whose products are kept by value,
    a step reads nothing that an earlier step left here: each starts from
    its state argument.
    """

    def __init__(self, mesh: Mesh, coeffs: Coefficients,
                 shared: Optional[SharedOperators] = None):
        shared = SharedOperators(mesh) if shared is None else shared
        if shared.mesh is not mesh:
            raise ValueError("shared operators belong to another mesh")
        self.mesh = mesh
        self.coeffs = coeffs
        self._shared = shared
        self.A = shared.get(("A", coeffs.lam, coeffs.mu),
                            lambda: assemble_elasticity(mesh, coeffs))
        self.C = shared.get(("C", coeffs.M), lambda: assemble_pressure_mass(mesh, coeffs))
        self.D = shared.get(("D", coeffs.alpha), lambda: assemble_coupling(mesh, coeffs))

    def a_factor(self) -> SpdFactorization:
        """A's factor, banded while its band is small (``linsolve.factor_banded``)."""
        co = self.coeffs
        return self._shared.get(("A factor", co.lam, co.mu),
                                lambda: factor_banded(self.A))

    def fixed_stress_factor(self, B, tau) -> SpdFactorization:
        """Factor (C + beta*M) + tau*B with beta = alpha^2/(2*(lam + mu)).

        Both sums are ``assembly.pressure_sum``s, and C + beta*M is kept in
        the store.  M is the unscaled P1 mass matrix; beta*M stands in for
        D A^-1 D^T, so the factor preconditions CG on the pressure Schur
        complement C + tau*B + D A^-1 D^T (``linsolve.solve_block``).
        beta is the optimized fixed-stress weight alpha^2/(2*(2*mu/d + lam))
        of Storvik et al. (IJNME 2019) for d = 2, half the classical
        alpha^2/(lam + mu).
        """
        co, shared = self.coeffs, self._shared
        beta = co.alpha ** 2 / (2.0 * (co.lam + co.mu))
        mass = shared.get(("M",), lambda: assemble_mass(self.mesh))
        stabilized = shared.get(("C + beta M", co.M, beta),
                                lambda: pressure_sum(self.C, beta, mass))
        return SpdFactorization(pressure_sum(stabilized, tau, B))

    @cached_property
    def block(self) -> BlockSystem:
        """The run's block system [[A, -D^T], [D, P]], built on C's pattern on first use."""
        return BlockSystem(self.A, self.D, self.C)

    def block_system(self, B, tau) -> BlockSystem:
        """``block`` with the values of C + tau*B (``assembly.pressure_sum``) written in."""
        self.block.set_pressure_block(pressure_sum(self.C, tau, B).data)
        return self.block

    def permeability_stiffness(self, u):
        return assemble_permeability_stiffness(self.mesh, self.coeffs, u)


def initial_displacement(ops: StepOperators, p0, f0=None) -> np.ndarray:
    """Consistent initial displacement: solve A u0 = f0 + D^T p0.

    The initial pressure determines the displacement through the
    equilibrium equation; ``p0`` is an interior pressure vector and ``f0``
    an optional assembled interior load vector.  The solve uses the run's
    shared elasticity factor, which the semi-explicit steps then reuse.
    """
    rhs = rmatvec(ops.D, np.asarray(p0, dtype=float))
    if f0 is not None:
        rhs = rhs + f0
    return ops.a_factor().solve(rhs)


def semi_explicit_step(ops: StepOperators, state: State, t: float, load_u, load_p,
                       cfg: StepperConfig, guess):
    """Advance one step, to time ``t``, with the decoupled, linearized scheme.

    Exactly two sequential SPD solves: the elasticity solve lags the
    pressure by one step, then the flow solve uses the permeability
    evaluated at the new displacement, on the mesh's multigrid hierarchy
    (none below the crossover, see ``assembly.pressure_prolongations``).
    ``guess`` is the pressure CG's warm start, which ``run`` extrapolates
    from the last two pressures (``pressure_guess``); the LU path below
    the crossover ignores it.
    """
    tau = cfg.tau
    u_new = ops.a_factor().solve(load_u + rmatvec(ops.D, state.p))

    B = ops.permeability_stiffness(u_new)
    rhs_p = tau * load_p + matvec(ops.C, state.p) - matvec(ops.D, u_new - state.u)
    p_new, _ = solve_pressure(pressure_sum(ops.C, tau, B), rhs_p, guess,
                              pressure_prolongations(ops.mesh))

    return State(u_new, p_new, t), StepReport()


def pressure_guess(states) -> np.ndarray:
    """The warm start of a step's pressure CG, from the trajectory so far.

    The linear extrapolation 2 p_{n-1} - p_{n-2} of the last two
    pressures, or p_{n-1} on the first step: the simplest projection of a
    solution that moves smoothly in time (Fischer, CMAME 1998).  The
    semi-explicit and delay paths both take their guess from here, so
    their solves start from the same bits.
    """
    if len(states) < 2:
        return states[-1].p
    return 2.0 * states[-1].p - states[-2].p


def picard_residual(ops: StepOperators, B, u, p, rhs_u, rhs_p,
                    tau: float) -> float:
    """Scaled residual of the nonlinear step system at (u, p).

    The Euclidean block residual is normalized by the right-hand side norm
    plus the norms of the evaluated operator terms.  The extra terms guard
    against material constants whose block scales differ by many orders of
    magnitude, where plain division by the right-hand side norm would sit
    far above floating-point resolution; for unit-scale coefficients both
    normalizations agree up to a small factor.  A u, D^T p and D u come from
    the run's block system (``BlockSystem.products``), which the block
    solve that returned (u, p) filled in its verification, so only C p and
    tau*B p are formed here.
    """
    Au, DTp, Du = ops.block.products(u, p)
    Cp = matvec(ops.C, p)
    Bp = tau * matvec(B, p)
    r_u = Au - DTp - rhs_u
    r_p = Du + Cp + Bp - rhs_p
    residual = math.hypot(_norm(r_u), _norm(r_p))
    scale = math.hypot(_norm(rhs_u), _norm(rhs_p)) + sum(
        _norm(v) for v in (Au, DTp, Du, Cp, Bp))
    return residual / scale if scale > 0 else residual


def implicit_picard_step(ops: StepOperators, state: State, t: float, load_u, load_p,
                         cfg: StepperConfig):
    """Advance one step, to time ``t``, of implicit Euler via Picard iteration.

    Starting from the previous state, each iterate solves the linear block
    system with the permeability frozen at the preceding iterate, by CG on
    its pressure Schur complement (``linsolve.solve_block``), warm-started
    from a pair (u, p) whose u is consistent with its p: before the first
    iterate the step's starting p and u = A^-1 (f + D^T p), one back-solve
    of A per step, and afterwards the preceding iterate, whose u CG
    carried along.  The block system is the run's one operator with that
    iterate's C + tau*B written into its pressure block; it keeps the
    products A u, D^T p and D u that an iterate's verification forms, for
    its nonlinear residual and the next iterate's start.  u is eliminated
    with the run's factor of A, and CG is preconditioned by one factor of
    C + tau*B + beta*M per step, with B assembled at the step's starting
    state: nothing carries over from the step before, so a state changed
    in place between steps gets the step it asks for.  The loop stops
    once the scaled residual of the nonlinear step system is below
    ``picard_tol`` or after ``picard_max`` iterates; running into the cap is
    not an error (capped variants are legitimate schemes of their own).

    The first iterate of a step and the last one the cap allows are
    solved to ``DEFAULT_TOL``, so Picard(1) and Picard(2) are exact linear
    schemes.  Every other iterate is an inexact-Newton style inner solve:
    its warm start's backward error is the nonlinear residual there (B is
    frozen at that iterate), and it is verified to ``_PICARD_FORCING``
    times that error, which the next iterate's fixed-point contraction
    dominates.
    """
    tau = cfg.tau
    rhs_u = np.asarray(load_u, dtype=float)
    rhs_p = tau * load_p + matvec(ops.D, state.u) + matvec(ops.C, state.p)

    B_frozen = ops.permeability_stiffness(state.u)
    a_factor = ops.a_factor()
    s_factor = ops.fixed_stress_factor(B_frozen, tau)
    u_j, p_j = a_factor.back_solve(rhs_u + rmatvec(ops.D, state.p)), state.p
    iterations = linear_iterations = 0
    residual = math.inf
    for j in range(cfg.picard_max):
        system = ops.block_system(B_frozen, tau)
        forcing = None if j in (0, cfg.picard_max - 1) else _PICARD_FORCING
        u_j, p_j, steps = solve_block(system, rhs_u, rhs_p, a_factor, s_factor,
                                      (u_j, p_j), reduction=forcing)
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
    return State(u_j, p_j, t), report


def run(mesh: Mesh, coeffs: Coefficients, cfg: StepperConfig, f, g, p0,
        shared: Optional[SharedOperators] = None):
    """Run a full trajectory from t = 0 to t = T.

    ``f`` (volumetric load; None is the zero body force, see
    ``assembly.assemble_load_v``), ``g`` (fluid source) and ``p0`` (initial
    pressure) are functions of (x, y[, t]); right-hand sides are evaluated
    pointwise at the step times.  Returns the list of N+1 states
    and an aggregate report.  Its wall time covers the stepping loop: on
    the semi-explicit and Picard paths that excludes the time-independent
    assembly and the initial solve, while the delay path, which assembles
    its own operators, is timed whole, its assembly, A's factor and u0
    included.  Its ``factorization_count`` is the number of
    ``SpdFactorization`` factors built between the start of the run and
    its end; runs in one process never overlap.
    ``shared`` operators of ``mesh`` are used and filled by a semi-explicit
    or Picard run (see ``StepOperators``); the delay path ignores them.
    """
    built = SpdFactorization.built
    if cfg.scheme == DELAY_IMPLICIT:
        tic = time.perf_counter()
        states = delay_implicit_run(mesh, coeffs, cfg, f, g, p0)
        wall = time.perf_counter() - tic
        report = RunReport(wall_time=wall, n_steps=cfg.n_steps,
                           factorization_count=SpdFactorization.built - built)
        return states, report

    ops = StepOperators(mesh, coeffs, shared)
    p0_vec = mesh.nodal_scalar(p0)
    u0 = initial_displacement(ops, p0_vec, assemble_load_v(mesh, f, 0.0))

    states = [State(u0, p0_vec, 0.0)]
    reports = []
    tic = time.perf_counter()
    for n in range(1, cfg.n_steps + 1):
        t_n = n * cfg.tau
        load_u = assemble_load_v(mesh, f, t_n)
        load_p = assemble_load_q(mesh, g, t_n)
        if cfg.scheme == SEMI_EXPLICIT:
            state, rep = semi_explicit_step(ops, states[-1], t_n, load_u, load_p, cfg,
                                            pressure_guess(states))
        else:
            state, rep = implicit_picard_step(ops, states[-1], t_n, load_u, load_p, cfg)
        states.append(state)
        reports.append(rep)
    wall = time.perf_counter() - tic
    return states, RunReport.from_steps(wall, reports, SpdFactorization.built - built,
                                        cfg.picard_max)


def delay_implicit_run(mesh: Mesh, coeffs: Coefficients, cfg: StepperConfig, f, g, p0):
    """Implicit Euler applied to the formulation with a pressure delay of tau.

    The elasticity equation at t_n sees the delayed pressure at t_n - tau,
    supplied by the history function on [-tau, 0] and by the computed
    trajectory afterwards.  The history must match the initial pressure at
    both endpoints of [-tau, 0].  Written independently of
    ``semi_explicit_step`` so the two paths can be compared against each
    other: its own loop, and its own operators rather than those of
    ``StepOperators``; the pressure history it reads is its own states.
    It makes the semi-explicit path's calls: D^T is applied by
    ``linsolve.rmatvec`` on D, and C p and D (u_n - u_{n-1}) by
    ``linsolve.matvec``, one factor of A by ``linsolve.factor_banded``
    serves u0 and every step, and each ``assembly.pressure_sum``
    C + tau*B is solved by ``linsolve.solve_pressure`` on the mesh's
    ``pressure_prolongations``, from the warm start ``pressure_guess``
    extrapolates from its own states, so its solves are verified and
    refined exactly alike and each makes one factor (the LU of C + tau*B,
    or of its coarsest multigrid level).
    """
    tau = cfg.tau
    p0_vec = mesh.nodal_scalar(p0)
    history = cfg.history if cfg.history is not None else (lambda t: p0_vec)

    scale = max(1.0, float(np.max(np.abs(p0_vec))) if p0_vec.size else 1.0)
    for endpoint in (-tau, 0.0):
        value = np.asarray(history(endpoint), dtype=float)
        if value.shape != p0_vec.shape:
            raise ValueError("history values must be interior pressure vectors")
        if not np.max(np.abs(value - p0_vec), initial=0.0) <= 1e-12 * scale:
            raise ValueError(
                f"history function must equal the initial pressure at t={endpoint}")

    A = assemble_elasticity(mesh, coeffs)
    C = assemble_pressure_mass(mesh, coeffs)
    D = assemble_coupling(mesh, coeffs)
    # one factor of A serves u0 and every step
    a_lu = factor_banded(A)
    # initial displacement from the delayed pressure at -tau
    u0 = a_lu.solve(assemble_load_v(mesh, f, 0.0)
                    + rmatvec(D, np.asarray(history(-tau), dtype=float)))

    states = [State(u0, p0_vec, 0.0)]
    for n in range(1, cfg.n_steps + 1):
        t_n = n * tau
        last = states[-1]
        delayed = history(t_n - tau) if n == 1 else last.p
        u_n = a_lu.solve(assemble_load_v(mesh, f, t_n)
                         + rmatvec(D, np.asarray(delayed, dtype=float)))
        B = assemble_permeability_stiffness(mesh, coeffs, u_n)
        rhs = (tau * assemble_load_q(mesh, g, t_n) + matvec(C, last.p)
               - matvec(D, u_n - last.u))
        p_n, _ = solve_pressure(pressure_sum(C, tau, B), rhs, pressure_guess(states),
                                pressure_prolongations(mesh))
        states.append(State(u_n, p_n, t_n))
    return states


def tau_bound_diagnostic(coeffs: Coefficients, p_bound: float) -> float:
    """Heuristic upper bound on the admissible step size.

    Evaluates c_a*c_b / (2*L_b^2*p_bound^2) with c_b the lower mobility
    bound, L_b the mobility Lipschitz constant and c_a estimated by the
    shear modulus.  The constants are analysis-style estimates only; the
    returned value is advisory and never gates execution.  A model without
    displacement dependence returns infinity (no restriction).  A
    ``p_bound`` that is not a finite number > 0 raises ValueError.
    """
    if not (is_finite_number(p_bound) and p_bound > 0):
        raise ValueError(f"p_bound must be a finite number > 0, got {p_bound!r}")
    c_a = coeffs.mu
    c_b = coeffs.kappa_over_nu * coeffs.permeability.bounds()[0]
    L_b = coeffs.kappa_over_nu * coeffs.permeability.lipschitz_constant()
    if L_b == 0.0:
        return math.inf
    return c_a * c_b / (2.0 * L_b**2 * p_bound**2)
