import dataclasses
import math

import numpy as np
import pytest

from biotbench import (Coefficients, Constant, KozenyCarman, NetworkInspired,
                       QuadraticClamped, model_from_config)

# the three nonlinear laws with their benchmark parameters
KC = KozenyCarman(kappa0=1.0, rho0=0.5, c_s=-0.75, C_s=0.75)
NET = NetworkInspired(kappa0=1.0, rho0=0.4, rho_hat=0.2, delta=0.01)
QUAD = QuadraticClamped(kappa0=1.0, rho0=0.4, c_s=0.01, C_s=0.75)
ALL_MODELS = [Constant(kappa=3.0), KC, NET, QUAD]
NONLINEAR = [KC, NET, QUAD]


def test_constant_eval_and_bounds():
    model = Constant(kappa=3.0)
    assert model.eval(0.0) == 3.0
    assert model.eval(-1e3) == 3.0
    assert model.bounds() == (3.0, 3.0)
    assert model.derivative(17.0) == 0.0
    assert model.lipschitz_constant() == 0.0


def test_kozeny_carman_hand_values():
    # rho(0) = 0.5 -> kappa = 0.5^3 / 0.5^2 = 0.125 / 0.25
    assert KC.eval(0.0) == pytest.approx(0.5, abs=1e-15)
    lo, hi = KC.bounds()
    rho_lo, rho_hi = 0.125, 0.875
    assert lo == pytest.approx(rho_lo**3 / (1 - rho_lo) ** 2, rel=1e-14)
    assert hi == pytest.approx(rho_hi**3 / (1 - rho_hi) ** 2, rel=1e-14)


def test_network_hand_values():
    assert NET.porosity(0.0) == pytest.approx(0.4, abs=1e-15)
    assert NET.eval(0.0) == pytest.approx(1.01, abs=1e-14)
    # deep compression closes all channels, only the floor remains
    assert NET.eval(-10.0) == pytest.approx(0.01, abs=1e-14)
    lo, hi = NET.bounds()
    assert lo == pytest.approx(0.01, abs=1e-15)
    assert hi == pytest.approx(4.01, abs=1e-12)
    assert NET.lipschitz_constant() == pytest.approx(4.0, abs=1e-12)


def test_quadratic_hand_values():
    # rho(0) = 0.4 inside the clamps
    assert QUAD.eval(0.0) == pytest.approx(0.16, abs=1e-15)
    lo, hi = QUAD.bounds()
    assert lo == pytest.approx(1e-4, abs=1e-18)
    assert hi == pytest.approx(0.5625, abs=1e-15)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_bounds_hold_on_wide_sampling(model):
    lo, hi = model.bounds()
    assert 0.0 < lo <= hi < np.inf
    s = np.linspace(-1e3, 1e3, 20001)
    vals = model.eval(s)
    assert vals.min() >= lo - 1e-12
    assert vals.max() <= hi + 1e-12


@pytest.mark.parametrize("model", ALL_MODELS)
def test_lipschitz_on_random_pairs(model):
    rng = np.random.default_rng(2024)
    s, t = rng.uniform(-10, 10, size=(2, 10_000))
    L = model.lipschitz_constant()
    lhs = np.abs(model.eval(s) - model.eval(t))
    assert np.all(lhs <= L * np.abs(s - t) + 1e-12)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_lipschitz_dominates_sampled_derivative(model):
    s = np.linspace(-20, 20, 100_001)
    assert np.abs(model.derivative(s)).max() <= model.lipschitz_constant() + 1e-12


def test_branch_continuity_at_clamps():
    # the constant branches must equal the interior branch at each joint
    lo, hi = KC.bounds()
    assert abs(KC.eval(KC.c_s) - lo) < 1e-12
    assert abs(KC.eval(KC.C_s) - hi) < 1e-12
    assert abs(KC.eval(KC.c_s - 5.0) - KC.eval(KC.c_s)) < 1e-12
    assert abs(KC.eval(KC.C_s + 5.0) - KC.eval(KC.C_s)) < 1e-12

    s_break = -np.log((1 - NET.rho_hat) / (1 - NET.rho0))
    assert abs(NET.eval(s_break) - NET.bounds()[0]) < 1e-12
    assert abs(NET.eval(s_break - 5.0) - NET.eval(s_break)) < 1e-12

    s_lo = (QUAD.c_s - QUAD.rho0) / (1 - QUAD.rho0)
    s_hi = (QUAD.C_s - QUAD.rho0) / (1 - QUAD.rho0)
    assert abs(QUAD.eval(s_lo) - QUAD.bounds()[0]) < 1e-12
    assert abs(QUAD.eval(s_hi) - QUAD.bounds()[1]) < 1e-12
    assert abs(QUAD.eval(s_lo - 5.0) - QUAD.eval(s_lo)) < 1e-12
    assert abs(QUAD.eval(s_hi + 5.0) - QUAD.eval(s_hi)) < 1e-12


@pytest.mark.parametrize("model", NONLINEAR)
def test_derivative_matches_finite_difference(model):
    rng = np.random.default_rng(5)
    step = 1e-6
    # stay away from the clamp joints
    samples = rng.uniform(-0.6, 0.6, 200)
    for s in samples:
        fd = (model.eval(s + step) - model.eval(s - step)) / (2 * step)
        exact = model.derivative(s)
        if abs(exact) > 1e-10:
            assert abs(fd - exact) / abs(exact) < 1e-5
        else:
            assert abs(fd) < 1e-8


def test_clamped_branch_derivatives_vanish():
    assert KC.derivative(-2.0) == 0.0
    assert KC.derivative(2.0) == 0.0
    assert QUAD.derivative(5.0) == 0.0
    # at representable joints the interior branch side is reported
    assert KC.derivative(KC.C_s) > 0.0
    assert KC.derivative(KC.c_s) > 0.0
    # just inside the network threshold the slope approaches its supremum
    s_break = -np.log((1 - NET.rho_hat) / (1 - NET.rho0))
    assert NET.derivative(s_break + 1e-9) == pytest.approx(4.0, rel=1e-8)
    assert NET.derivative(s_break - 1e-9) == 0.0


@pytest.mark.parametrize("model", [KC, QUAD])
def test_monotone_nondecreasing(model):
    s = np.linspace(-5, 5, 5001)
    vals = model.eval(s)
    assert np.all(np.diff(vals) >= -1e-15)


def test_kozeny_lipschitz_against_sampling_oracle():
    s = np.linspace(KC.c_s, KC.C_s, 100_000)
    sampled = np.abs(KC.derivative(s)).max()
    L = KC.lipschitz_constant()
    assert L >= sampled - 1e-12
    assert L == pytest.approx(sampled, rel=1e-4)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Constant(kappa=0.0)
    with pytest.raises(ValueError):
        KozenyCarman(kappa0=1.0, rho0=0.5, c_s=0.8, C_s=0.7)
    with pytest.raises(ValueError):
        KozenyCarman(kappa0=1.0, rho0=0.5, c_s=-2.0, C_s=0.5)  # below rho0/(rho0-1)
    with pytest.raises(ValueError):
        NetworkInspired(kappa0=1.0, rho0=0.2, rho_hat=0.4, delta=0.01)
    with pytest.raises(ValueError):
        QuadraticClamped(kappa0=1.0, rho0=0.4, c_s=-0.1, C_s=0.5)
    for model, field, value, message in [
            (KC, "kappa0", 0.0, "kappa0 must be positive"),
            (KC, "rho0", 1.0, "rho0 must lie in"),
            (NET, "kappa0", -1.0, "kappa0 and delta must be positive"),
            (NET, "delta", 0.0, "kappa0 and delta must be positive"),
            (QUAD, "kappa0", 0.0, "kappa0 must be positive"),
            (QUAD, "rho0", 0.0, "rho0 must lie in")]:
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(model, **{field: value})


# every numeric field of the material data and of each law, with valid values
COEFFICIENTS = Coefficients(lam=1.0, mu=1.0, alpha=1.0, M=1.0, kappa_over_nu=1.0,
                            permeability=KC)
NUMERIC_FIELDS = [(obj, f.name) for obj in [COEFFICIENTS, *ALL_MODELS]
                  for f in dataclasses.fields(obj) if f.name != "permeability"]


@pytest.mark.parametrize("value", [math.nan, math.inf, True, np.True_],
                         ids=["nan", "inf", "bool", "numpy-bool"])
@pytest.mark.parametrize("obj, field", NUMERIC_FIELDS,
                         ids=[f"{type(obj).__name__}.{name}" for obj, name in NUMERIC_FIELDS])
def test_library_refuses_a_field_that_is_not_a_finite_number(obj, field, value):
    # the config layer refuses these first; a library caller gets the same refusal
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        dataclasses.replace(obj, **{field: value})


@pytest.mark.parametrize("convert", [int, np.int64, np.uint8, np.float32, np.float64],
                         ids=["int", "int64", "uint8", "float32", "float64"])
def test_library_accepts_ints_and_numpy_numbers(convert):
    for obj, field in NUMERIC_FIELDS:
        if getattr(obj, field) == 1.0:
            assert dataclasses.replace(obj, **{field: convert(1)}) == obj


def test_model_from_config_roundtrip_and_strictness():
    model = model_from_config({"kind": "network", "kappa0": 1.0, "rho0": 0.4,
                               "rho_hat": 0.2, "delta": 0.01})
    assert model == NET
    with pytest.raises(ValueError):
        model_from_config({"kind": "network", "kappa0": 1.0})
    with pytest.raises(ValueError):
        model_from_config({"kind": "constant", "kappa": 1.0, "extra": 2})
    with pytest.raises(ValueError):
        model_from_config({"kind": "nope"})


@pytest.mark.parametrize("kind, model", [("constant", Constant(kappa=3.0)),
                                         ("kozeny_carman", KC), ("network", NET),
                                         ("quadratic_clamped", QUAD)])
def test_model_from_config_requires_finite_numbers_in_every_field(kind, model):
    obj = {"kind": kind, **dataclasses.asdict(model)}
    assert model_from_config(obj) == model
    for field in dataclasses.fields(model):
        if getattr(model, field.name) == 1.0:
            assert model_from_config({**obj, field.name: 1}) == model  # an int is a number
        for bad in ("2.5", True, False, None, [1.0], math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"'{field.name}'"):
                model_from_config({**obj, field.name: bad})
