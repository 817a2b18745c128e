"""Displacement-dependent permeability laws kappa(s), s = div(u).

Each model is a bounded, Lipschitz-continuous function of the dilatation
together with the analytic quantities the solver and diagnostics need:
global bounds, pointwise derivative, and a Lipschitz constant.  Models are
immutable value types whose fields are finite numbers, checked at
construction; all evaluations are vectorized and pure.
"""

import math
import numbers
from dataclasses import dataclass, fields
from typing import Union

import numpy as np


def _as_array(s):
    return np.asarray(s, dtype=float)


def _maybe_scalar(arr, s):
    return float(arr) if np.ndim(s) == 0 else arr


@dataclass(frozen=True)
class Constant:
    """Dilatation-independent permeability."""

    kappa: float

    def __post_init__(self):
        check_finite_fields(self)
        if self.kappa <= 0:
            raise ValueError("constant permeability must be positive")

    def eval(self, s):
        return _maybe_scalar(np.full_like(_as_array(s), self.kappa), s)

    def bounds(self):
        return self.kappa, self.kappa

    def derivative(self, s):
        return _maybe_scalar(np.zeros_like(_as_array(s)), s)

    def lipschitz_constant(self) -> float:
        return 0.0


@dataclass(frozen=True)
class KozenyCarman:
    """Cubic porosity-permeability relation with clamped dilatation.

    Porosity rho(s) = rho0 + (1-rho0)*s; permeability
    kappa0 * rho^3 / (1-rho)^2 for c_s < s < C_s, held constant outside.
    The clamp bounds must satisfy rho0/(rho0-1) < c_s < C_s < 1 so that
    rho stays in (0, 1) on the active branch.
    """

    kappa0: float
    rho0: float
    c_s: float
    C_s: float

    def __post_init__(self):
        check_finite_fields(self)
        if self.kappa0 <= 0:
            raise ValueError("kappa0 must be positive")
        if not 0.0 < self.rho0 < 1.0:
            raise ValueError("ground porosity rho0 must lie in (0, 1)")
        lo = self.rho0 / (self.rho0 - 1.0)
        if not lo < self.c_s < self.C_s < 1.0:
            raise ValueError(f"clamp bounds must satisfy {lo} < c_s < C_s < 1")

    def porosity(self, s):
        return self.rho0 + (1.0 - self.rho0) * _as_array(s)

    def _kappa_of_rho(self, rho):
        # products, not ``**``: numpy's power with exponent 3 goes through pow
        gap = 1.0 - rho
        return self.kappa0 * (rho * rho * rho) / (gap * gap)

    def eval(self, s):
        rho = self.porosity(np.clip(_as_array(s), self.c_s, self.C_s))
        return _maybe_scalar(self._kappa_of_rho(rho), s)

    def bounds(self):
        return self.eval(self.c_s), self.eval(self.C_s)

    def derivative(self, s):
        # at the clamp joints the active (cubic) branch is used
        arr = _as_array(s)
        rho = self.porosity(np.clip(arr, self.c_s, self.C_s))
        gap = 1.0 - rho
        inner = self.kappa0 * (1.0 - self.rho0) * (rho * rho) * (3.0 - rho) / (gap * gap * gap)
        out = np.where((arr >= self.c_s) & (arr <= self.C_s), inner, 0.0)
        return _maybe_scalar(out, s)

    def lipschitz_constant(self) -> float:
        # d(kappa)/ds = kappa0*(1-rho0)*rho^2*(3-rho)/(1-rho)^3 increases in rho,
        # so the supremum sits at the upper clamp
        return float(self.derivative(self.C_s))


@dataclass(frozen=True)
class NetworkInspired:
    """Channel-network permeability, affine in the porosity above a threshold.

    Porosity rho(s) = 1 - (1-rho0)*exp(-s).  The raw law vanishes for
    rho < rho_hat; a floor kappa0*delta keeps the medium conductive.
    """

    kappa0: float
    rho0: float
    rho_hat: float
    delta: float

    def __post_init__(self):
        check_finite_fields(self)
        if self.kappa0 <= 0 or self.delta <= 0:
            raise ValueError("kappa0 and delta must be positive")
        if not 0.0 < self.rho_hat < self.rho0 < 1.0:
            raise ValueError("require 0 < rho_hat < rho0 < 1")

    def porosity(self, s):
        # exp may overflow for strongly negative s; -inf porosity is fine
        # downstream (all channels closed)
        with np.errstate(over="ignore"):
            return 1.0 - (1.0 - self.rho0) * np.exp(-_as_array(s))

    def eval(self, s):
        rho = self.porosity(s)
        khat = self.kappa0 * np.maximum(rho - self.rho_hat, 0.0) / (self.rho0 - self.rho_hat)
        return _maybe_scalar(khat + self.kappa0 * self.delta, s)

    def bounds(self):
        # rho -> 1 from below as s -> inf, so the affine branch is bounded by rho = 1
        hi = self.kappa0 * (1.0 - self.rho_hat) / (self.rho0 - self.rho_hat)
        return self.kappa0 * self.delta, hi + self.kappa0 * self.delta

    def derivative(self, s):
        arr = _as_array(s)
        active = self.porosity(arr) >= self.rho_hat
        slope = self.kappa0 * (1.0 - self.rho0) * np.exp(-arr) / (self.rho0 - self.rho_hat)
        return _maybe_scalar(np.where(active, slope, 0.0), s)

    def lipschitz_constant(self) -> float:
        # on the active branch exp(-s) <= (1-rho_hat)/(1-rho0)
        return self.kappa0 * (1.0 - self.rho_hat) / (self.rho0 - self.rho_hat)


@dataclass(frozen=True)
class QuadraticClamped:
    """Permeability quadratic in the clamped porosity: kappa0*clamp(rho, c_s, C_s)^2."""

    kappa0: float
    rho0: float
    c_s: float
    C_s: float

    def __post_init__(self):
        check_finite_fields(self)
        if self.kappa0 <= 0:
            raise ValueError("kappa0 must be positive")
        if not 0.0 < self.rho0 < 1.0:
            raise ValueError("ground porosity rho0 must lie in (0, 1)")
        if not 0.0 < self.c_s < self.C_s:
            raise ValueError("require 0 < c_s < C_s")

    def porosity(self, s):
        return self.rho0 + (1.0 - self.rho0) * _as_array(s)

    def eval(self, s):
        rho = np.clip(self.porosity(s), self.c_s, self.C_s)
        return _maybe_scalar(self.kappa0 * rho * rho, s)

    def bounds(self):
        return self.kappa0 * self.c_s**2, self.kappa0 * self.C_s**2

    def derivative(self, s):
        rho = self.porosity(s)
        clamped = np.clip(rho, self.c_s, self.C_s)
        inner = 2.0 * self.kappa0 * (1.0 - self.rho0) * clamped
        out = np.where((rho >= self.c_s) & (rho <= self.C_s), inner, 0.0)
        return _maybe_scalar(out, s)

    def lipschitz_constant(self) -> float:
        return 2.0 * self.kappa0 * (1.0 - self.rho0) * self.C_s


PermeabilityModel = Union[Constant, KozenyCarman, NetworkInspired, QuadraticClamped]

_MODEL_KINDS = {
    "constant": Constant,
    "kozeny_carman": KozenyCarman,
    "network": NetworkInspired,
    "quadratic_clamped": QuadraticClamped,
}


def is_finite_number(x):
    """A finite real number: an int, a float or a numpy integer or floating
    value, not a bool (``numpy.bool_`` is not a ``numbers.Real``)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def check_finite_fields(obj, skip=()):
    """Raise ValueError at the first field of the dataclass ``obj``, apart
    from those named in ``skip``, that is not a finite number."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name not in skip and not is_finite_number(value):
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")


def model_from_config(obj: dict) -> PermeabilityModel:
    """Build a model from a config mapping with a ``kind`` tag.

    Strict: the keys are exactly ``kind`` and the fields of the kind's
    class, and every field is a finite number (not a bool or a string).
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("permeability config must be an object with a 'kind' tag")
    kind = obj["kind"]
    if kind not in _MODEL_KINDS:
        raise ValueError(f"unknown permeability kind {kind!r}; "
                         f"expected one of {sorted(_MODEL_KINDS)}")
    cls = _MODEL_KINDS[kind]
    names = [f.name for f in fields(cls)]
    extra = set(obj) - {"kind", *names}
    if extra:
        raise ValueError(f"unknown permeability field(s) {sorted(extra)} for kind {kind!r}")
    missing = [name for name in names if name not in obj]
    if missing:
        raise ValueError(f"missing permeability field(s) {missing} for kind {kind!r}")
    for name in names:
        if not is_finite_number(obj[name]):
            raise ValueError(f"permeability field {name!r} of kind {kind!r} must be a "
                             f"finite number, got {obj[name]!r}")
    return cls(**{name: float(obj[name]) for name in names})
