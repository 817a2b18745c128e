"""Problem data for the three benchmark experiments.

ex41: sandstone consolidation driven by a fluid source, network-inspired
permeability, realistic (large) material constants.
ex42: manufactured smooth solution with a Kozeny-Carman permeability;
the forcing terms are derived in closed form from the strong equations,
so exact errors are available.
ex43: unit-coefficient problem with quadratic clamped permeability and a
tunable coupling coefficient, used to probe the stability boundary of the
semi-explicit scheme.

A manufactured problem's f and g share a one-slot memo of what the
points alone determine: the four trig factors and their products, each
computed as the same subexpression as before, so every value keeps its
bits.  A run evaluates both at the mesh's edge midpoints every step, so
it takes sin and cos there once.  The memo is keyed by the points'
values, compared with a private copy, not by the arrays' identity: an
array changed in place keeps its identity but gets fresh fields.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .assembly import Coefficients
from .permeability import KozenyCarman, NetworkInspired, QuadraticClamped

PI = math.pi


@dataclass(frozen=True)
class ProblemData:
    """Right-hand sides, initial pressure and (optionally) the exact pair.

    ``f`` maps (x, y, t) to the two load components; None is the zero body
    force, whose zero load ``assembly.assemble_load_v`` returns.  ``g``
    maps (x, y, t) to the fluid source, ``p0`` maps (x, y) to the initial
    pressure.  When a closed-form solution is known it vanishes on the
    domain boundary for all times.
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


def _trig_factors(x, y):
    """sin(pi x), sin(pi y), cos(pi x), cos(pi y), each evaluated once."""
    px, py = PI * x, PI * y
    return np.sin(px), np.sin(py), np.cos(px), np.cos(py)


class _SpatialFields(NamedTuple):
    """The time-independent fields of ex42's f and g at one set of points.

    ``x`` and ``y`` are private copies of the points they were computed
    at.  The other fields are the subexpressions of f and g that the
    points alone determine: the four trig factors, S = sx sy, the sum
    C1 + C2 = cx sy + sx cy, CC - S with CC = cx cy, S / M, and f's
    (3 mu + lam) S - (lam + mu) CC.
    """

    x: np.ndarray
    y: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    S: np.ndarray
    C12: np.ndarray
    CC_minus_S: np.ndarray
    S_over_M: np.ndarray
    body: np.ndarray

    @staticmethod
    def at(x, y, lam, mu, M):
        """The fields at (x, y) for the coefficients lam, mu and M."""
        sx, sy, cx, cy = _trig_factors(x, y)
        S = sx * sy
        CC = cx * cy
        return _SpatialFields(np.array(x, dtype=float), np.array(y, dtype=float),
                              sx, sy, cx, cy, S, cx * sy + sx * cy, CC - S, S / M,
                              (3 * mu + lam) * S - (lam + mu) * CC)

    def holds(self, x, y) -> bool:
        """Whether these fields were computed at points equal in value to (x, y)."""
        return np.array_equal(self.x, x) and np.array_equal(self.y, y)


def manufactured_problem(coeffs: Coefficients, name="ex42") -> ProblemData:
    """Smooth manufactured solution for arbitrary material coefficients.

    The exact pair is

        p(x, y, t) = t sin(pi x) sin(pi y)
        u(x, y, t) = (1/6) e^{-t} sin(pi x) sin(pi y) [1, 1]^T

    and f, g are obtained by substituting it into the strong equations,
    with the chain rule applied through the permeability law (which the
    exact dilatation never drives into its clamped branches).

    f and g share a one-slot memo of their time-independent fields
    (``_SpatialFields``): the four trig factors and the products of them
    alone that f and g read, each still computed as its own
    subexpression, so the values are bit-identical to evaluating them
    afresh.  A run evaluates both at the same edge midpoints every step,
    so each step computes only the factors that depend on t and on the
    permeability.  The memo is keyed by the points' values, compared with
    a private copy, not by the arrays' identity, which an array changed in
    place keeps: new points, changed points and scalar points whose
    values differ all recompute the fields.
    """
    lam, mu, alpha, M = coeffs.lam, coeffs.mu, coeffs.alpha, coeffs.M
    memo = None

    def fields(x, y) -> _SpatialFields:
        nonlocal memo
        held = memo
        if held is None or not held.holds(x, y):
            held = memo = _SpatialFields.at(x, y, lam, mu, M)
        return held

    def exact_p(x, y, t):
        return t * np.sin(PI * x) * np.sin(PI * y)

    def exact_u(x, y, t):
        w = np.exp(-t) / 6.0 * np.sin(PI * x) * np.sin(PI * y)
        return w, w

    def f(x, y, t):
        k = fields(x, y)
        body = PI**2 / 6.0 * np.exp(-t) * k.body
        f1 = body + alpha * PI * t * k.cx * k.sy
        f2 = body + alpha * PI * t * k.sx * k.cy
        return f1, f2

    def g(x, y, t):
        k = fields(x, y)
        ew = np.exp(-t)
        s = PI / 6.0 * ew * k.C12                          # dilatation
        m = coeffs.mobility(s)
        dm = coeffs.kappa_over_nu * coeffs.permeability.derivative(s)
        storage = -alpha * PI / 6.0 * ew * k.C12 + k.S_over_M
        diffusion = 2.0 * PI**2 * t * m * k.S \
            - dm * PI**3 * t / 6.0 * ew * k.CC_minus_S * k.C12
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
    coeffs = Coefficients(lam=1.0, mu=1.0, alpha=alpha, M=1.0,
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


def problem_by_name(name: str, alpha=None, **overrides) -> ProblemData:
    """Look up an experiment by its registry name (ex41, ex42, ex43).

    A given alpha replaces the experiment's coupling coefficient.  alpha
    and the other coefficient overrides are applied in one
    ``with_coefficients`` call, so a manufactured problem's forcing is
    derived once, for the final coefficients, and the f and g of the
    returned problem are the ones its runs call.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; expected one of {sorted(EXPERIMENTS)}")
    problem = EXPERIMENTS[name]()
    if alpha is not None:
        overrides["alpha"] = alpha
    return with_coefficients(problem, **overrides) if overrides else problem
