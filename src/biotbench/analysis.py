"""Norms, error measurement and diagnostics.

Errors are measured between discrete states and nodal interpolants of
closed-form solutions, or against reference trajectories on finer nested
grids.  All norms act on interior coefficient vectors.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .assembly import (Coefficients, assemble_elasticity, assemble_laplace,
                       assemble_mass, assemble_pressure_mass)
from .linsolve import matvec
from .mesh import Mesh, prolongation


class NormKind(str, Enum):
    A = "u_a"          # energy norm of the elasticity form
    C = "p_c"          # 1/M-weighted L2 norm
    V = "u_v"          # gradient seminorm of a vector field (a norm here)
    Q = "p_q"          # gradient seminorm of a scalar field
    HV = "u_hv"        # plain L2 norm of a vector field
    HQ = "p_hq"        # plain L2 norm of a scalar field
    TRIPLE = "triple"  # combined (u, p) energy norm


#: error-report keys in canonical CSV order
ERROR_KEYS = ("u_a", "u_hv", "p_c", "p_q", "p_hq", "triple")


#: the parts of (u, p) a form reads: all of u or p, or one component of the interleaved u
_U, _P = ("u", slice(None)), ("p", slice(None))
_UX, _UY = ("u", slice(0, None, 2)), ("u", slice(1, None, 2))

#: each norm's square as a sum of quadratic forms (matrix, part), added in this order
_FORMS = {
    NormKind.A: (("A", _U),),
    NormKind.C: (("C", _P),),
    NormKind.V: (("L", _UX), ("L", _UY)),
    NormKind.Q: (("L", _P),),
    NormKind.HV: (("M", _UX), ("M", _UY)),
    NormKind.HQ: (("M", _P),),
    NormKind.TRIPLE: (("A", _U), ("C", _P)),
}

#: how each matrix is assembled; the module's functions are looked up at call time
_BUILDERS = {
    "A": lambda mesh, coeffs: assemble_elasticity(mesh, coeffs),
    "C": lambda mesh, coeffs: assemble_pressure_mass(mesh, coeffs),
    "L": lambda mesh, coeffs: assemble_laplace(mesh),
    "M": lambda mesh, coeffs: assemble_mass(mesh),
}


class NormCalculator:
    """Evaluates every ``NormKind`` on one (mesh, coefficients).

    A norm is the square root of a sum of quadratic forms v·(X v), read
    from ``_FORMS``: X is one of A, C, L (Laplace) and M (mass), and v is
    u, p or one component of u.  Each matrix is assembled on first use
    and kept, and applied by ``linsolve.matvec``: A is a scipy CSR matrix,
    the others are ``linsolve.CsrArrays``.
    """

    def __init__(self, mesh: Mesh, coeffs: Coefficients):
        self.mesh = mesh
        self.coeffs = coeffs
        self._cache = {}

    def norm(self, kind: NormKind, u=None, p=None) -> float:
        parts = {"u": u, "p": p}
        total = 0.0
        for name, (vector, part) in _FORMS[NormKind(kind)]:
            if name not in self._cache:
                self._cache[name] = _BUILDERS[name](self.mesh, self.coeffs)
            vec = np.asarray(parts[vector], dtype=float)[part]
            total += float(vec @ matvec(self._cache[name], vec))
        return math.sqrt(max(total, 0.0))


@dataclass
class ErrorReport:
    """Absolute and relative errors per norm at the final time."""

    absolute: dict = field(default_factory=dict)
    relative: dict = field(default_factory=dict)


def _measure(calc: NormCalculator, du, dp, ref_u, ref_p, kinds) -> ErrorReport:
    report = ErrorReport()
    for kind in kinds:
        kind = NormKind(kind)
        err = calc.norm(kind, u=du, p=dp)
        exact = calc.norm(kind, u=ref_u, p=ref_p)
        report.absolute[kind.value] = err
        report.relative[kind.value] = err / exact if exact > 0 else math.nan
    return report


def _state_at(trajectory, t):
    for state in trajectory:
        if abs(state.t - t) <= 1e-12 * max(1.0, abs(t)):
            return state
    raise ValueError(f"no state at time {t} in trajectory")


def error_vs_manufactured(mesh: Mesh, coeffs: Coefficients, trajectory, exact_u,
                          exact_p, kinds=ERROR_KEYS) -> ErrorReport:
    """Final-time errors of a trajectory against the nodal interpolant of an exact pair."""
    state = trajectory[-1]
    uI = mesh.nodal_vector(exact_u, state.t)
    pI = mesh.nodal_scalar(exact_p, state.t)
    calc = NormCalculator(mesh, coeffs)
    return _measure(calc, state.u - uI, state.p - pI, uI, pI, kinds)


def error_vs_reference(coarse_trajectory, reference_trajectory, coarse_mesh: Mesh,
                       ref_mesh: Mesh, coeffs: Coefficients,
                       kinds=ERROR_KEYS) -> ErrorReport:
    """Final-time errors of a coarse trajectory against a reference on a finer nested mesh.

    The coarse final state is prolonged to the reference mesh and all
    norms are evaluated there against the reference state at its time.
    ``prolongation`` refuses meshes that are not nested.
    """
    coarse = coarse_trajectory[-1]
    ref = _state_at(reference_trajectory, coarse.t)

    P = prolongation(coarse_mesh, ref_mesh)
    p_f = ref_mesh.restrict_scalar(P @ coarse_mesh.extend_scalar(coarse.p))
    full_u = coarse_mesh.extend_vector(coarse.u)
    u_f = np.empty(2 * ref_mesh.num_nodes)
    u_f[0::2] = P @ full_u[0::2]
    u_f[1::2] = P @ full_u[1::2]
    u_f = ref_mesh.restrict_vector(u_f)

    calc = NormCalculator(ref_mesh, coeffs)
    return _measure(calc, u_f - ref.u, p_f - ref.p, ref.u, ref.p, kinds)


_GAUSS5_NODES = np.polynomial.legendre.leggauss(5)


def p_error_time_integrated(mesh: Mesh, coeffs: Coefficients, trajectory,
                            exact_p) -> float:
    """Gradient-norm error of the piecewise-constant-in-time pressure.

    The discrete pressure is extended to a right-endpoint piecewise
    constant function of time; the squared gradient-norm misfit against
    the exact pressure is integrated exactly in time per interval with a
    five-point Gauss rule.
    """
    calc = NormCalculator(mesh, coeffs)
    xi, wi = _GAUSS5_NODES
    total = 0.0
    for prev, cur in zip(trajectory[:-1], trajectory[1:]):
        half = 0.5 * (cur.t - prev.t)
        mid = 0.5 * (cur.t + prev.t)
        for x, w in zip(xi, wi):
            t = mid + half * x
            diff = mesh.nodal_scalar(exact_p, t) - cur.p
            total += w * half * calc.norm(NormKind.Q, p=diff) ** 2
    return math.sqrt(total)


def convergence_order(errors) -> list:
    """Observed orders log2(e_k / e_{k+1}) for successively halved step sizes."""
    errors = [float(e) for e in errors]
    if len(errors) < 2:
        raise ValueError("need at least two error values")
    if any(e <= 0 or not math.isfinite(e) for e in errors):
        raise ValueError("errors must be positive and finite")
    return [math.log2(a / b) for a, b in zip(errors[:-1], errors[1:])]


def coupling_diagnostic(coeffs: Coefficients):
    """Weak-coupling indicator: (alpha^2 * M / mu, ratio <= 1)."""
    ratio = coeffs.alpha**2 * coeffs.M / coeffs.mu
    return ratio, ratio <= 1.0
