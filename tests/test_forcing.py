import numpy as np
import pytest

from biotbench import (Constant, experiment_41_data, experiment_42_data,
                       experiment_43_data, problem_by_name, with_coefficients)
from biotbench import forcing
from dense_reference import eight_trig_forcing, strong_form_residual


def test_consolidation_data_values():
    prob = experiment_41_data()
    assert prob.f is None
    assert prob.g(0.5, 0.5, 0.0) == pytest.approx(30.0, abs=1e-13)
    assert prob.p0(0.5, 0.5) == pytest.approx(3.125, abs=1e-13)
    assert prob.T == 1.0
    co = prob.coeffs
    assert (co.lam, co.mu, co.alpha, co.M) == (7.826e8, 1.826e9, 0.85, 7e9)
    assert co.kappa_over_nu == 8e-10


def test_manufactured_exact_values_and_boundary():
    prob = experiment_42_data()
    assert prob.exact_p(0.5, 0.5, 1.0) == pytest.approx(1.0, abs=1e-14)
    u1, u2 = prob.exact_u(0.5, 0.5, 0.0)
    assert u1 == u2 == pytest.approx(1.0 / 6.0, abs=1e-14)

    ts = np.linspace(0.0, 1.0, 5)
    edge = np.linspace(0.0, 1.0, 17)
    for t in ts:
        for x, y in [(edge, np.zeros_like(edge)), (edge, np.ones_like(edge)),
                     (np.zeros_like(edge), edge), (np.ones_like(edge), edge)]:
            v1, v2 = prob.exact_u(x, y, t)
            assert np.abs(v1).max() < 1e-14 and np.abs(v2).max() < 1e-14
            assert np.abs(prob.exact_p(x, y, t)).max() < 1e-14

    assert np.abs(prob.p0(edge, edge)).max() == 0.0


def test_manufactured_forcing_passes_strong_form_oracle():
    prob = experiment_42_data()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(50):
        x, y = rng.uniform(0.05, 0.95, 2)
        t = rng.uniform(0.05, 0.95)
        res_momentum, res_mass = strong_form_residual(prob, x, y, t)
        worst = max(worst, np.abs(res_momentum).max(), abs(res_mass))
    assert worst < 1e-5


def test_forcing_rederived_for_overridden_coefficients():
    prob = with_coefficients(experiment_42_data(), mu=10.0, M=0.1)
    assert prob.coeffs.mu == 10.0 and prob.coeffs.M == 0.1
    rng = np.random.default_rng(99)
    for _ in range(10):
        x, y = rng.uniform(0.1, 0.9, 2)
        t = rng.uniform(0.1, 0.9)
        res_momentum, res_mass = strong_form_residual(prob, x, y, t)
        assert np.abs(res_momentum).max() < 1e-4
        assert abs(res_mass) < 1e-4


def test_forcing_consistent_with_frozen_permeability():
    base = experiment_42_data()
    frozen = with_coefficients(base, permeability=Constant(
        base.coeffs.permeability.eval(0.0)))
    assert isinstance(frozen.coeffs.permeability, Constant)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x, y = rng.uniform(0.1, 0.9, 2)
        t = rng.uniform(0.1, 0.9)
        res_momentum, res_mass = strong_form_residual(frozen, x, y, t)
        assert np.abs(res_momentum).max() < 1e-5
        assert abs(res_mass) < 1e-5


def test_stability_benchmark_source_values():
    prob = experiment_43_data(1.0)
    x = np.array([0.1, 0.9])
    assert np.allclose(prob.g(x, x, 0.0), 5.0, atol=1e-14)
    assert np.allclose(prob.g(x, x, 1.0), 1.0, atol=1e-13)
    assert np.all(prob.p0(x, x) == 0.0)
    assert prob.f is None

    prob2 = experiment_43_data(2.5)
    assert prob2.coeffs.alpha == 2.5
    assert experiment_43_data(0.0).coeffs.alpha == 0.0
    with pytest.raises(ValueError):
        experiment_43_data(-1.0)


def test_right_hand_sides_are_finite_and_smooth():
    grid = np.linspace(0.0, 1.0, 21)
    X, Y = np.meshgrid(grid, grid)
    for name in ("ex41", "ex42", "ex43"):
        prob = problem_by_name(name)
        for t in (0.0, 0.37, 1.0):
            g_vals = prob.g(X, Y, t)
            assert np.all(np.isfinite(g_vals))
            if prob.f is not None:
                f1, f2 = prob.f(X, Y, t)
                assert np.all(np.isfinite(f1)) and np.all(np.isfinite(f2))
        assert np.all(np.isfinite(prob.p0(X, Y)))


def test_problem_registry():
    assert problem_by_name("ex41").name == "ex41"
    assert problem_by_name("ex43", alpha=3.0).coeffs.alpha == 3.0
    with pytest.raises(ValueError):
        problem_by_name("ex99")


def test_coefficient_override_rejects_unknown_names():
    with pytest.raises(ValueError):
        with_coefficients(experiment_42_data(), nu=2.0)


def test_registry_alpha_matches_the_ex43_constructor():
    # the alpha values of the benchmark's sweep workload
    for alpha in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        assert problem_by_name("ex43", alpha=alpha).coeffs == experiment_43_data(alpha).coeffs


def test_an_alpha_that_is_not_a_number_is_refused_by_the_coefficients():
    # the ex43 constructor and the registry pass alpha on as given
    for alpha in (True, "1"):
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            experiment_43_data(alpha)
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            problem_by_name("ex43", alpha=alpha)


def test_registry_alpha_reaches_every_experiment():
    for name in ("ex41", "ex42", "ex43"):
        assert problem_by_name(name, alpha=2.5).coeffs.alpha == 2.5
    prob = problem_by_name("ex42", alpha=2.5)
    res_momentum, res_mass = strong_form_residual(prob, 0.3, 0.6, 0.4)
    assert np.abs(res_momentum).max() < 1e-5 and abs(res_mass) < 1e-5


@pytest.mark.parametrize("overrides", [{}, {"alpha": 4, "mu": 2}])
def test_shared_trig_factors_leave_the_forcing_bit_identical(overrides):
    prob = with_coefficients(experiment_42_data(), **overrides)
    f_ref, g_ref = eight_trig_forcing(prob.coeffs)
    x, y = np.random.default_rng(42).uniform(0.0, 1.0, (2, 2000))
    for t in (0.0, 0.03125, 0.4, 1.0):
        f1, f2 = prob.f(x, y, t)
        r1, r2 = f_ref(x, y, t)
        assert np.array_equal(f1, r1) and np.array_equal(f2, r2)
        assert np.array_equal(prob.g(x, y, t), g_ref(x, y, t))


def test_memoized_fields_recompute_for_new_changed_or_scalar_points(monkeypatch):
    # f and g share one memo of their spatial fields, keyed by the points'
    # values: equal points hit it, and new values, an array changed in
    # place and scalar points recompute the trig factors; every value
    # equals the eight-trig forcing's
    calls = []
    trig = forcing._trig_factors
    monkeypatch.setattr(forcing, "_trig_factors", lambda x, y: calls.append(1) or trig(x, y))
    prob = experiment_42_data()
    f_ref, g_ref = eight_trig_forcing(prob.coeffs)

    def evaluations(x, y, t):
        before = len(calls)
        f1, f2 = prob.f(x, y, t)
        r1, r2 = f_ref(x, y, t)
        assert np.array_equal(f1, r1) and np.array_equal(f2, r2)
        assert np.array_equal(prob.g(x, y, t), g_ref(x, y, t))
        return len(calls) - before

    rng = np.random.default_rng(7)
    x, y = rng.uniform(0.0, 1.0, (2, 500))
    assert evaluations(x, y, 0.1) == 1
    assert evaluations(x.copy(), y.copy(), 0.2) == 0
    x, y = rng.uniform(0.0, 1.0, (2, 500))
    assert evaluations(x, y, 0.3) == 1
    x[17] += 0.25
    assert evaluations(x, y, 0.4) == 1
    assert evaluations(0.3, 0.6, 0.5) == 1
    assert evaluations(0.3, 0.7, 0.5) == 1
    assert evaluations(x, y, 0.6) == 1
