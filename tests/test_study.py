"""A driver's runs share one discretization: one mesh per level, A and its
factor, C, D, the mass M and the fixed-stress C + beta*M, each built inside
the first run that needs it.

Sharing must change no number: every state of a shared run is byte-equal
to that of the same run made alone, every run reports the factors it made,
a failed run leaves nothing half built for the next, and nothing a driver
builds outlives its call.
"""

import gc
import json
import weakref
from collections import Counter

import pytest

import biotbench.cli as cli
import biotbench.experiments as experiments
import biotbench.stepper as stepper
from biotbench.config import SchemeSpec, parse_config
from biotbench.experiments import cmd_compare, cmd_convergence, cmd_sweep_alpha
from biotbench.forcing import experiment_42_data
from biotbench.linsolve import SolverFailure
from biotbench.mesh import build_structured_mesh

SEMI = {"scheme": "semi_explicit"}
PICARD = {"scheme": "implicit_picard", "picard_max": 3}
# not powers of two, so alpha times another alpha's D would not be exact
ALPHAS = [0.3, 1.0, 2.5]


def sweep_config(experiment="ex43", **extra):
    return {"experiment": experiment, "schemes": [SEMI, PICARD], "mesh_levels": [4],
            "tau_levels": [0.25], "alpha_values": ALPHAS, **extra}


def convergence_config(experiment):
    return {"experiment": experiment, "schemes": [SEMI, PICARD], "mesh_levels": [4],
            "tau_levels": [0.5, 0.25],
            "reference": {"n_ref": 4, "tau_ref": 0.125, "scheme": SEMI}}


def compare_config(experiment):
    return {"experiment": experiment, "mesh_levels": [4], "timing_repeats": 2,
            "pairs": [{"scheme": SEMI, "tau": 0.25}, {"scheme": PICARD, "tau": 0.5},
                      {"scheme": SEMI, "tau": 0.125}]}


def run_config(experiment, n_ref=4):
    return {"experiment": experiment, "schemes": [PICARD], "mesh_levels": [4],
            "tau_levels": [0.25], "reference": {"n_ref": n_ref, "tau_ref": 0.125,
                                                "scheme": SEMI}}


DRIVERS = {
    "convergence": (cmd_convergence, convergence_config),
    "compare": (cmd_compare, compare_config),
    "sweep": (cmd_sweep_alpha, sweep_config),
    "run": (experiments.cmd_run, run_config),
}


class Calls:
    """Counts calls through patched bindings and records every simulate call."""

    def __init__(self, monkeypatch):
        self.counts = Counter()
        self.outside_simulate = Counter()
        self.pieces = Counter()  # builds run by a store, by the name in their key
        self.runs = []  # (args, trajectory, report) of each simulate call
        self._depth = 0
        for owner, key, name in ((experiments, "build_structured_mesh", "mesh"),
                                 (stepper, "assemble_elasticity", "A"),
                                 (stepper, "assemble_pressure_mass", "C"),
                                 (stepper, "assemble_coupling", "D"),
                                 (stepper, "assemble_mass", "M")):
            monkeypatch.setattr(owner, key, self._counting(name, getattr(owner, key)))
        monkeypatch.setattr(stepper.SharedOperators, "get",
                            self._counting_pieces(stepper.SharedOperators.get))
        monkeypatch.setattr(experiments, "simulate", self._recording_run(experiments.simulate))

    def _counting(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            if not self._depth:
                self.outside_simulate[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _counting_pieces(self, get):
        def counted(store, key, build):
            def counted_build():
                self.pieces[key[0]] += 1
                return build()
            return get(store, key, counted_build)
        return counted

    def _recording_run(self, simulate):
        def recorded(*args):
            self._depth += 1
            try:
                mesh, trajectory, report = simulate(*args)
            finally:
                self._depth -= 1
            self.runs.append((args, trajectory, report))
            return mesh, trajectory, report
        return recorded


def a_factors(factors, n):
    """How many of the recorded ``factors`` are of A on level n."""
    nu = 2 * (n - 1) ** 2
    return sum(factor.shape == (nu, nu) for factor in factors)


def test_serial_sweep_builds_the_mesh_a_and_its_factor_once(factors, monkeypatch):
    calls = Calls(monkeypatch)
    cmd_sweep_alpha(parse_config(sweep_config(workers=1)))
    assert len(calls.runs) == 2 * len(ALPHAS)
    assert calls.counts == {"mesh": 1, "A": 1, "C": 1, "D": len(ALPHAS), "M": 1}
    assert a_factors(factors, 4) == 1
    # each piece is built inside the run that first needs it
    assert not calls.outside_simulate
    reports = [report for _, _, report in calls.runs]
    assert sum(report.factorization_count for report in reports) == len(factors)
    # only the first run made the A factor; every run made one pressure LU per step
    n_steps = reports[0].n_steps
    assert [r.factorization_count for r in reports] == \
        [n_steps + 1] + [n_steps] * (len(reports) - 1)


def test_compare_with_timing_repeats_assembles_and_factors_a_once(factors, monkeypatch):
    calls = Calls(monkeypatch)
    cmd_compare(parse_config(compare_config("ex42")))
    assert len(calls.runs) == 6
    assert calls.counts["mesh"] == 1 and calls.counts["A"] == 1
    assert a_factors(factors, 4) == 1
    assert sum(report.factorization_count for _, _, report in calls.runs) \
        == len(factors)


def test_compare_with_timing_repeats_builds_m_and_the_fixed_stress_operator_once(monkeypatch):
    calls = Calls(monkeypatch)
    config = compare_config("ex42")
    cmd_compare(parse_config(config))
    picard = [args for args, _, _ in calls.runs if args[1].scheme == "implicit_picard"]
    assert len(picard) == config["timing_repeats"] == 2
    assert calls.counts["M"] == calls.pieces["M"] == 1
    assert calls.pieces["C + beta M"] == 1


def test_convergence_reference_on_a_level_joins_the_study(factors, monkeypatch):
    calls = Calls(monkeypatch)
    cmd_convergence(parse_config(convergence_config("ex41")))
    assert len(calls.runs) == 5  # the reference and two tau levels per scheme
    assert calls.counts == {"mesh": 1, "A": 1, "C": 1, "D": 1, "M": 1}
    assert a_factors(factors, 4) == 1


def test_run_without_a_reference_shares_nothing(factors, monkeypatch):
    calls = Calls(monkeypatch)
    experiments.cmd_run(parse_config({"experiment": "ex42", "schemes": [SEMI],
                                      "mesh_levels": [4], "tau_levels": [0.25]}))
    ((args, _, report),) = calls.runs
    assert len(args) == 5 and args[4] is None
    assert report.factorization_count == len(factors) == report.n_steps + 1


def _recording_a_factors(monkeypatch, n):
    """Weak references to every factor of A that a run on level n makes."""
    refs = []
    factor = stepper.factor_banded
    nu = 2 * (n - 1) ** 2

    def recording(op, *args):
        lu = factor(op, *args)
        if op.shape == (nu, nu):
            refs.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(stepper, "factor_banded", recording)
    return refs


@pytest.mark.parametrize("spec", [SchemeSpec(**SEMI), SchemeSpec(**PICARD)],
                         ids=["semi", "picard"])
def test_a_run_without_a_study_drops_its_factor_of_a_on_return(spec, monkeypatch):
    refs = _recording_a_factors(monkeypatch, 4)
    experiments.simulate(experiment_42_data(), spec, 4, 0.25)
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


def test_run_holds_no_operator_of_a_finer_reference_during_its_main_run(monkeypatch):
    refs = _recording_a_factors(monkeypatch, 8)
    stores = []
    make_store = experiments.SharedOperators

    def recording_store(mesh):
        store = make_store(mesh)
        stores.append(weakref.ref(store))
        return store

    alive = []  # at the start of each simulate call: stores and A factors still held
    simulate = experiments.simulate

    def checked(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in stores + refs))
        return simulate(*args)

    monkeypatch.setattr(experiments, "SharedOperators", recording_store)
    monkeypatch.setattr(experiments, "simulate", checked)
    experiments.cmd_run(parse_config(run_config("ex41", n_ref=8)))
    assert len(stores) == 2 and len(refs) == 1
    assert alive == [0, 0]


def test_operators_of_another_mesh_are_refused():
    problem = experiment_42_data()
    shared = stepper.SharedOperators(build_structured_mesh(4))
    with pytest.raises(ValueError, match="another mesh"):
        stepper.StepOperators(build_structured_mesh(4), problem.coeffs, shared)


@pytest.mark.parametrize("experiment", ["ex41", "ex42", "ex43"])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_shared_runs_are_byte_identical_to_unshared_runs(driver, experiment, monkeypatch):
    cmd, make_config = DRIVERS[driver]
    calls = Calls(monkeypatch)
    cmd(parse_config(make_config(experiment)))
    monkeypatch.undo()
    assert calls.runs
    for args, shared_trajectory, _ in calls.runs:
        problem, spec, n, tau, study = args
        # run shares only with its reference, which an exact pair makes needless
        assert (study is None) == (driver == "run" and problem.has_exact)
        _, alone, _ = experiments.simulate(problem, spec, n, tau)
        assert len(alone) == len(shared_trajectory)
        for a, b in zip(shared_trajectory, alone):
            assert a.u.tobytes() == b.u.tobytes()
            assert a.p.tobytes() == b.p.tobytes()


def _fail_one_picard_run(monkeypatch, factors, alpha):
    step = stepper.implicit_picard_step

    def failing(ops, *args):
        if ops.coeffs.alpha == alpha:
            raise SolverFailure("injected Picard failure", 1.0)
        return step(ops, *args)

    monkeypatch.setattr(stepper, "implicit_picard_step", failing)
    return alpha


def _fail_the_first_a_factor(monkeypatch, factors, alpha):
    # the first run of the sweep (alpha = ALPHAS[0]) makes the first factor of A,
    # through whichever backend
    nu = 2 * 3 ** 2
    armed = [True]

    def failing(factor, op, build):
        if armed[0] and factor.shape == (nu, nu):
            armed[0] = False
            raise RuntimeError("Factor is exactly singular")
        return build()

    factors.around = failing
    return ALPHAS[0]


@pytest.mark.parametrize("inject", [_fail_one_picard_run, _fail_the_first_a_factor],
                         ids=["picard-step", "a-factor"])
def test_a_failed_sweep_point_leaves_the_others_as_unshared(inject, factors, monkeypatch):
    config = sweep_config(workers=1)
    failed = inject(monkeypatch, factors, ALPHAS[1])
    shared, _ = cmd_sweep_alpha(parse_config(config))
    monkeypatch.undo()

    simulate = experiments.simulate

    def alone(problem, spec, n, tau, study=None):
        return simulate(problem, spec, n, tau)

    monkeypatch.setattr(experiments, "simulate", alone)
    unshared, _ = cmd_sweep_alpha(parse_config(config))

    def by_alpha(table):
        return {row["alpha"]: {k: v for k, v in row.items() if k != "wall_time_s"}
                for row in table.rows}

    rows, expected = by_alpha(shared), by_alpha(unshared)
    row = rows.pop(failed)
    assert row["blowup_flag"] is True and row["err_triple"] is None
    expected.pop(failed)
    assert rows == expected


def test_back_to_back_cli_sweeps_each_build_their_own_mesh(tmp_path, factors, monkeypatch):
    # perfbench runs its jobs in one process: a study that outlived cli.main
    # would hand the next job a mesh and a factor it never paid for
    calls = Calls(monkeypatch)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(sweep_config(workers=1)))
    for job in (1, 2):
        argv = ["sweep-alpha", "--config", str(config_path), "--out", str(tmp_path / f"{job}")]
        assert cli.main(argv) == 0
        assert calls.counts["mesh"] == calls.counts["A"] == job
        assert a_factors(factors, 4) == job
