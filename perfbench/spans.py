"""Spans around biotbench's public calls, recorded from outside the package.

Every layer boundary is wrapped where it is looked up, not only where it
is defined: ``stepper``, ``analysis``, ``experiments`` and ``cli`` import
functions by name, so replacing ``biotbench.assembly.assemble_elasticity``
alone would miss every call the stepper makes.  ``install`` lists each
(layer name, owner, attribute) binding; one that no longer exists raises
at install time, and ``missing_layers`` reports a wrapper that recorded
no calls on a workload that must reach it.
"""

import dataclasses
import functools
import time
from collections import defaultdict

from biotbench import analysis, cli, experiments, linsolve, permeability, stepper

#: wrapped layer boundaries; each reports ``<name>.calls``, ``.s`` and ``.self_s``
LAYERS = (
    "mesh.build",
    "forcing.rhs",
    "permeability.eval",
    "assembly.perm_stiffness",
    "assembly.load",
    "assembly.elasticity",
    "assembly.coupling",
    "assembly.pressure_mass",
    "linsolve.splu",
    "linsolve.block_solve",
    "linsolve.monolithic",
    "linsolve.spd_solve",
    "stepper.step",
    "stepper.picard_residual",
    "stepper.initial_displacement",
    "stepper.operators",
    "analysis.errors",
    "analysis.norm",
    "analysis.assemble",
    "cli.main",
    "config.load",
    "experiments.cmd",
    "experiments.simulate",
)
#: per-layer metrics the run derives from counters and step reports
DERIVED = {
    "linsolve.splu.fill_nnz": "count",
    "linsolve.refine_ratio": "ratio",
    "stepper.picard_iters.mean": "ratio",
    "stepper.picard_capped_frac": "ratio",
    "stepper.reported_factorizations": "count",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
}


def unit(metric):
    if metric in DERIVED:
        return DERIVED[metric]
    return "count" if metric.endswith(".calls") else "s"


class Tracer:
    """Keeps spans (job, name, start, end, parent index) and per-job counters in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)  # (job, counter name) -> value
        self.job = 0
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [self.job, name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        # updated=() because StepOperators is a class whose __dict__ must not be copied
        return functools.update_wrapper(traced, fn, updated=())

    def count(self, name, amount=1):
        self.counts[(self.job, name)] += amount

    def job_metrics(self, job):
        """Per-layer calls, inclusive time and self time of one traced job."""
        spans = self.spans
        child_time = defaultdict(float)
        for _, _, start, end, parent in (s for s in spans if s[0] == job):
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for index, (sjob, name, start, end, parent) in enumerate(spans):
            if sjob != job:
                continue
            calls[name] += 1
            own[name] += (end - start) - child_time[index]
            # inclusive time counts only the outermost span of a name
            if not _inside(spans, parent, name):
                total[name] += end - start
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("job,name,start_s,end_s,parent\n")
            for job, name, start, end, parent in self.spans:
                fh.write(f"{job},{name},{start!r},{end!r},{parent}\n")


def _inside(spans, parent, name):
    while parent >= 0:
        if spans[parent][1] == name:
            return True
        parent = spans[parent][4]
    return False


class Patcher:
    """Replaces module, class or dict bindings and puts the originals back."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, key, make):
        """Replace ``owner.key`` (or ``owner[key]``) by ``make(original)``."""
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = make(original)
        else:
            original = getattr(owner, key)
            setattr(owner, key, make(original))
        self._saved.append((owner, key, original))

    def restore(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


class _CountedLU:
    """SuperLU handle that counts triangular back-solves."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count("linsolve.lu_solve")
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer, patcher):
    """Wrap every layer boundary; ``cli.main`` is wrapped by the caller."""
    models = (permeability.Constant, permeability.KozenyCarman,
              permeability.NetworkInspired, permeability.QuadraticClamped)
    bindings = [
        ("mesh.build", experiments, "build_structured_mesh"),
        *[("permeability.eval", model, "eval") for model in models],
        ("assembly.perm_stiffness", stepper, "assemble_permeability_stiffness"),
        ("assembly.load", stepper, "assemble_load_v"),
        ("assembly.load", stepper, "assemble_load_q"),
        ("assembly.elasticity", stepper, "assemble_elasticity"),
        ("assembly.coupling", stepper, "assemble_coupling"),
        ("assembly.pressure_mass", stepper, "assemble_pressure_mass"),
        ("linsolve.block_solve", stepper, "solve_block"),
        ("linsolve.monolithic", linsolve.BlockSystem, "monolithic"),
        ("linsolve.spd_solve", linsolve.SpdFactorization, "solve"),
        ("stepper.step", stepper, "semi_explicit_step"),
        ("stepper.step", stepper, "implicit_picard_step"),
        ("stepper.picard_residual", stepper, "picard_residual"),
        ("stepper.initial_displacement", stepper, "initial_displacement"),
        ("stepper.operators", stepper, "StepOperators"),
        ("analysis.errors", experiments, "error_vs_manufactured"),
        ("analysis.errors", experiments, "error_vs_reference"),
        ("analysis.norm", analysis.NormCalculator, "norm"),
        # re-assembly requested by analysis, kept apart from the solver's assembly
        *[("analysis.assemble", analysis, fn) for fn in
          ("assemble_elasticity", "assemble_pressure_mass", "assemble_laplace",
           "assemble_mass")],
        ("experiments.simulate", experiments, "simulate"),
        ("experiments.cmd", cli._COMMANDS, "run"),
        ("experiments.cmd", cli._COMMANDS, "sweep-alpha"),
        ("config.load", cli, "load_config"),
    ]
    for name, owner, key in bindings:
        patcher.wrap(owner, key, functools.partial(tracer.wrap, name))

    def counted_splu(splu):
        traced = tracer.wrap("linsolve.splu", splu)

        def factor(*args, **kwargs):
            lu = traced(*args, **kwargs)
            tracer.count("linsolve.splu.fill_nnz", lu.nnz)
            return _CountedLU(lu, tracer)

        return factor

    # every LU: the SPD and block solvers in linsolve, the delay path in stepper
    patcher.wrap(linsolve, "splu", counted_splu)
    patcher.wrap(stepper, "splu", counted_splu)

    def traced_forcing(problem_by_name):
        # f and g are closures inside ProblemData, so wrap them as problems are built
        def build(*args, **kwargs):
            problem = problem_by_name(*args, **kwargs)
            wrapped = {key: tracer.wrap("forcing.rhs", fn) for key, fn in
                       (("f", problem.f), ("g", problem.g)) if fn is not None}
            return dataclasses.replace(problem, **wrapped)

        return build

    patcher.wrap(experiments, "problem_by_name", traced_forcing)


def missing_layers(metrics, expected):
    """Expected layers whose wrapper recorded zero calls."""
    return [name for name in expected if metrics[f"{name}.calls"] == 0]
