"""Problem data for the three benchmark experiments.

ex41: sandstone consolidation driven by a fluid source, network-inspired
permeability, realistic (large) material constants.
ex42: manufactured smooth solution with a Kozeny-Carman permeability;
the forcing terms are derived in closed form from the strong equations,
so exact errors are available.
ex43: unit-coefficient problem with quadratic clamped permeability and a
tunable coupling coefficient, used to probe the stability boundary of the
semi-explicit scheme.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import Coefficients
from .permeability import KozenyCarman, NetworkInspired, QuadraticClamped

PI = math.pi


@dataclass(frozen=True)
class ProblemData:
    """Right-hand sides, initial pressure and (optionally) the exact pair.

    ``f`` maps (x, y, t) to the two load components (None means zero),
    ``g`` maps (x, y, t) to the fluid source, ``p0`` maps (x, y) to the
    initial pressure.  When a closed-form solution is known it vanishes on
    the domain boundary for all times.
    """

    name: str
    coeffs: Coefficients
    g: Callable
    p0: Callable
    f: Optional[Callable] = None
    exact_u: Optional[Callable] = None
    exact_p: Optional[Callable] = None
    T: float = 1.0

    @property
    def has_exact(self) -> bool:
        return self.exact_u is not None and self.exact_p is not None


def experiment_41_data() -> ProblemData:
    """Sandstone consolidation with the network-inspired permeability law."""
    model = NetworkInspired(kappa0=1.0, rho0=0.4, rho_hat=0.2, delta=0.01)
    coeffs = Coefficients(lam=7.826e8, mu=1.826e9, alpha=0.85, M=7e9,
                          kappa_over_nu=8e-10, permeability=model)

    def g(x, y, t):
        return 30.0 * np.sin(PI * x) * math.exp(-t)

    def p0(x, y):
        return 50.0 * (1.0 - x) * x * (1.0 - y) * y

    return ProblemData(name="ex41", coeffs=coeffs, g=g, p0=p0, T=1.0)


def manufactured_problem(coeffs: Coefficients, name="ex42") -> ProblemData:
    """Smooth manufactured solution for arbitrary material coefficients.

    The exact pair is

        p(x, y, t) = t sin(pi x) sin(pi y)
        u(x, y, t) = (1/6) e^{-t} sin(pi x) sin(pi y) [1, 1]^T

    and f, g are obtained by substituting it into the strong equations,
    with the chain rule applied through the permeability law (which the
    exact dilatation never drives into its clamped branches).
    """
    lam, mu, alpha, M = coeffs.lam, coeffs.mu, coeffs.alpha, coeffs.M

    def exact_p(x, y, t):
        return t * np.sin(PI * x) * np.sin(PI * y)

    def exact_u(x, y, t):
        w = np.exp(-t) / 6.0 * np.sin(PI * x) * np.sin(PI * y)
        return w, w

    def f(x, y, t):
        S = np.sin(PI * x) * np.sin(PI * y)
        CC = np.cos(PI * x) * np.cos(PI * y)
        body = PI**2 / 6.0 * np.exp(-t) * ((3 * mu + lam) * S - (lam + mu) * CC)
        f1 = body + alpha * PI * t * np.cos(PI * x) * np.sin(PI * y)
        f2 = body + alpha * PI * t * np.sin(PI * x) * np.cos(PI * y)
        return f1, f2

    def g(x, y, t):
        S = np.sin(PI * x) * np.sin(PI * y)
        CC = np.cos(PI * x) * np.cos(PI * y)
        C1 = np.cos(PI * x) * np.sin(PI * y)
        C2 = np.sin(PI * x) * np.cos(PI * y)
        ew = np.exp(-t)
        s = PI / 6.0 * ew * (C1 + C2)                      # dilatation
        m = coeffs.kappa_over_nu * coeffs.permeability.eval(s)
        dm = coeffs.kappa_over_nu * coeffs.permeability.derivative(s)
        storage = -alpha * PI / 6.0 * ew * (C1 + C2) + S / M
        diffusion = 2.0 * PI**2 * t * m * S \
            - dm * PI**3 * t / 6.0 * ew * (CC - S) * (C1 + C2)
        return storage + diffusion

    def p0(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ProblemData(name=name, coeffs=coeffs, f=f, g=g, p0=p0,
                       exact_u=exact_u, exact_p=exact_p, T=1.0)


def experiment_42_data() -> ProblemData:
    """Manufactured-solution benchmark with a Kozeny-Carman permeability."""
    model = KozenyCarman(kappa0=1.0, rho0=0.5, c_s=-0.75, C_s=0.75)
    coeffs = Coefficients(lam=1.0, mu=1.0, alpha=1.0, M=1.0,
                          kappa_over_nu=1.0, permeability=model)
    return manufactured_problem(coeffs)


def experiment_43_data(alpha: float = 1.0) -> ProblemData:
    """Stability benchmark with quadratic clamped permeability and given alpha.

    The source is spatially constant and oscillates in time; the initial
    pressure is zero.  alpha = 0 is allowed and fully decouples the
    equations.
    """
    model = QuadraticClamped(kappa0=1.0, rho0=0.4, c_s=0.01, C_s=0.75)
    coeffs = Coefficients(lam=1.0, mu=1.0, alpha=float(alpha), M=1.0,
                          kappa_over_nu=1.0, permeability=model)

    def g(x, y, t):
        value = 5.0 * math.cos(0.5 * PI * t) + math.sin(0.5 * PI * t)
        return np.full_like(np.asarray(x, dtype=float), value)

    def p0(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ProblemData(name="ex43", coeffs=coeffs, g=g, p0=p0, T=1.0)


def with_coefficients(problem: ProblemData, **overrides) -> ProblemData:
    """Rebuild a problem with some material coefficients replaced.

    Manufactured problems get their forcing re-derived so the exact pair
    stays exact; for the other experiments only the coefficients change.
    """
    unknown = set(overrides) - {f.name for f in dataclasses.fields(Coefficients)}
    if unknown:
        raise ValueError(f"unknown coefficient override(s): {sorted(unknown)}")
    coeffs = dataclasses.replace(problem.coeffs, **overrides)
    if problem.has_exact:
        return manufactured_problem(coeffs, name=problem.name)
    return dataclasses.replace(problem, coeffs=coeffs)


EXPERIMENTS = {"ex41": experiment_41_data, "ex42": experiment_42_data,
               "ex43": experiment_43_data}


def problem_by_name(name: str, alpha=None) -> ProblemData:
    """Look up an experiment by its registry name (ex41, ex42, ex43).

    A given alpha replaces the experiment's coupling coefficient.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; expected one of {sorted(EXPERIMENTS)}")
    problem = EXPERIMENTS[name]()
    if alpha is None:
        return problem
    return with_coefficients(problem, alpha=float(alpha))
