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


class NormCalculator:
    """Caches the assembled matrices behind the norm evaluations."""

    def __init__(self, mesh: Mesh, coeffs: Coefficients):
        self.mesh = mesh
        self.coeffs = coeffs
        self._cache = {}

    def _matrix(self, name):
        if name not in self._cache:
            build = {
                "A": lambda: assemble_elasticity(self.mesh, self.coeffs),
                "C": lambda: assemble_pressure_mass(self.mesh, self.coeffs),
                "L": lambda: assemble_laplace(self.mesh),
                "M": lambda: assemble_mass(self.mesh),
            }[name]
            self._cache[name] = build()
        return self._cache[name]

    def _quadratic(self, name, vec):
        mat = self._matrix(name)
        vec = np.asarray(vec, dtype=float)
        return float(vec @ (mat @ vec))

    def _componentwise(self, name, vec):
        vec = np.asarray(vec, dtype=float)
        return self._quadratic(name, vec[0::2]) + self._quadratic(name, vec[1::2])

    def norm(self, kind: NormKind, u=None, p=None) -> float:
        kind = NormKind(kind)
        if kind == NormKind.A:
            return math.sqrt(max(self._quadratic("A", u), 0.0))
        if kind == NormKind.C:
            return math.sqrt(max(self._quadratic("C", p), 0.0))
        if kind == NormKind.V:
            return math.sqrt(max(self._componentwise("L", u), 0.0))
        if kind == NormKind.Q:
            return math.sqrt(max(self._quadratic("L", p), 0.0))
        if kind == NormKind.HV:
            return math.sqrt(max(self._componentwise("M", u), 0.0))
        if kind == NormKind.HQ:
            return math.sqrt(max(self._quadratic("M", p), 0.0))
        if kind == NormKind.TRIPLE:
            return math.sqrt(max(self._quadratic("A", u) + self._quadratic("C", p), 0.0))
        raise ValueError(f"unknown norm kind {kind!r}")


def norm(mesh: Mesh, coeffs: Coefficients, kind, u=None, p=None) -> float:
    return NormCalculator(mesh, coeffs).norm(kind, u=u, p=p)


@dataclass
class ErrorReport:
    """Absolute and relative errors per norm at a fixed time."""

    t: float
    absolute: dict = field(default_factory=dict)
    relative: dict = field(default_factory=dict)


def _measure(calc: NormCalculator, du, dp, ref_u, ref_p, t, kinds) -> ErrorReport:
    report = ErrorReport(t=t)
    for kind in kinds:
        kind = NormKind(kind)
        err = calc.norm(kind, u=du, p=dp)
        exact = calc.norm(kind, u=ref_u, p=ref_p)
        report.absolute[kind.value] = err
        report.relative[kind.value] = err / exact if exact > 0 else math.nan
    return report


def _state_at(trajectory, t):
    if t is None:
        return trajectory[-1]
    for state in trajectory:
        if abs(state.t - t) <= 1e-12 * max(1.0, abs(t)):
            return state
    raise ValueError(f"no state at time {t} in trajectory")


def error_vs_manufactured(mesh: Mesh, coeffs: Coefficients, trajectory, exact_u,
                          exact_p, t=None, kinds=ERROR_KEYS) -> ErrorReport:
    """Errors of a trajectory against the nodal interpolant of an exact pair."""
    state = _state_at(trajectory, t)
    uI = mesh.nodal_vector(exact_u, state.t)
    pI = mesh.nodal_scalar(exact_p, state.t)
    calc = NormCalculator(mesh, coeffs)
    return _measure(calc, state.u - uI, state.p - pI, uI, pI, state.t, kinds)


def error_vs_reference(coarse_trajectory, reference_trajectory, coarse_mesh: Mesh,
                       ref_mesh: Mesh, coeffs: Coefficients, t=None,
                       kinds=ERROR_KEYS) -> ErrorReport:
    """Errors of a coarse trajectory against a reference on a finer nested mesh.

    The coarse state is prolonged to the reference mesh and all norms are
    evaluated there.
    """
    if ref_mesh.n % coarse_mesh.n != 0:
        raise ValueError("reference mesh is not a refinement of the coarse mesh")
    coarse = _state_at(coarse_trajectory, t)
    ref = _state_at(reference_trajectory, coarse.t)

    P = prolongation(coarse_mesh, ref_mesh)
    p_f = ref_mesh.restrict_scalar(P @ coarse_mesh.extend_scalar(coarse.p))
    full_u = coarse_mesh.extend_vector(coarse.u)
    u_f = np.empty(2 * ref_mesh.num_nodes)
    u_f[0::2] = P @ full_u[0::2]
    u_f[1::2] = P @ full_u[1::2]
    u_f = ref_mesh.restrict_vector(u_f)

    calc = NormCalculator(ref_mesh, coeffs)
    return _measure(calc, u_f - ref.u, p_f - ref.p, ref.u, ref.p, coarse.t, kinds)


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
