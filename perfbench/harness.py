"""Job loop, step-boundary clock and metrics of one benchmark run.

A job is one ``biotbench.cli.main`` call, exactly what the ``biotbench``
command runs: config parsing, the experiments module, the solver, the
error norms and the results.csv write.  Jobs follow one another (a closed
loop with one client) until the run's seconds have passed; every job's
output is checked.  Imported only after run.py has capped the thread
variables and put the checkout's src/ on the path.
"""

import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy
from biotbench import cli, experiments, stepper
from biotbench.linsolve import DEFAULT_TOL

import spans
from calibrate import NOMINAL_S, Calibrator
from workloads import PICARD, check_job, job_errors, read_rows, warmup_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
#: no job starts once the run could pass this, so a run ends well within 180 s
HARD_LIMIT_S = 150.0


@dataclass
class RunRecord:
    """One stepper.run inside a job, seen through experiments.simulate."""

    scheme: str
    alpha: float
    picard_max: int
    coeffs: object
    start: float
    first_step: float = math.nan
    step_exits: list = field(default_factory=list)
    picard_iterations: list = field(default_factory=list)
    mesh: object = None
    trajectory: list = None
    factorizations: int = 0


class RunLog:
    """Step-boundary timestamps, the only instrumentation of an untraced job."""

    def __init__(self):
        self.runs = []

    def install(self, patcher):
        patcher.wrap(experiments, "simulate", self._timed_simulate)
        patcher.wrap(stepper, "semi_explicit_step", self._timed_step)
        patcher.wrap(stepper, "implicit_picard_step", self._timed_step)

    def _timed_simulate(self, simulate):
        def timed(problem, spec, *args, **kwargs):
            run = RunRecord(spec.scheme, problem.coeffs.alpha, spec.picard_max,
                            problem.coeffs, time.perf_counter())
            self.runs.append(run)
            mesh, trajectory, report = simulate(problem, spec, *args, **kwargs)
            run.mesh, run.trajectory = mesh, trajectory
            run.factorizations = report.factorization_count
            return mesh, trajectory, report

        return timed

    def _timed_step(self, step):
        def timed(*args, **kwargs):
            run = self.runs[-1]
            if not run.step_exits:
                run.first_step = time.perf_counter()
            state, report = step(*args, **kwargs)
            run.step_exits.append(time.perf_counter())
            run.picard_iterations.append(report.picard_iterations)
            return state, report

        return timed

    def setup_s(self):
        """Start of each run to its first step entry (mesh, operators, u0), summed."""
        return sum(run.first_step - run.start for run in self.runs)

    def step_ms(self, scheme):
        """Per-step wall times: step 1 entry to exit, then exit to exit.

        From step 2 on an interval also holds that step's load assembly,
        which stepper.run does between two step calls.
        """
        out = []
        for run in self.runs:
            if run.scheme == scheme and run.step_exits:
                marks = [run.first_step] + run.step_exits
                out += [1e3 * (b - a) for a, b in zip(marks[:-1], marks[1:])]
        return out


@dataclass
class Job:
    wall_s: float
    traced: bool
    setup_s: float
    step_ms: list
    problems: list
    errors: tuple
    picard_iterations: list
    picard_capped: int
    factorizations: int
    #: NOMINAL_S over the mean machine-speed probe before and after the job
    scale: float = 1.0


def run_job(workload, argv, runlog, tracer, traced):
    patcher = spans.Patcher()
    main = cli.main
    if traced:
        spans.install(tracer, patcher)
        main = tracer.wrap("cli.main", main)
    runlog.runs = []
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            tic = time.perf_counter()
            exit_code = main(argv)
            wall = time.perf_counter() - tic
    finally:
        patcher.restore()

    runs = runlog.runs
    rows, errors = [], (math.nan, math.nan)
    if exit_code == 0:
        rows = read_rows(Path(argv[argv.index("--out") + 1]) / "results.csv")
        with contextlib.suppress(KeyError, ValueError):
            errors = job_errors(workload, rows, runs)
    problems = check_job(workload, exit_code, rows, runs, errors)
    if exit_code == 0 and not any(run.step_exits for run in runs):
        problems.append("no time step was recorded")
    picard = [(run.picard_max, n) for run in runs if run.scheme == PICARD["scheme"]
              for n in run.picard_iterations]
    return Job(wall_s=wall, traced=traced, setup_s=runlog.setup_s(),
               step_ms=runlog.step_ms(workload.step_scheme), problems=problems,
               errors=errors, picard_iterations=[n for _, n in picard],
               picard_capped=sum(n >= cap for cap, n in picard),
               factorizations=sum(run.factorizations for run in runs))


def job_argv(workload, config, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return [workload.command, "--config", str(path), "--out", str(out_dir)]


def end_to_end(jobs):
    """Every time is scaled to the nominal machine speed (see calibrate.py)."""
    steps = [ms * job.scale for job in jobs for ms in job.step_ms]
    return {
        "wall_s": (statistics.median(job.wall_s * job.scale for job in jobs), "s"),
        "setup_s": (statistics.median(job.setup_s * job.scale for job in jobs), "s"),
        "step_ms.p50": (statistics.median(steps), "ms"),
        "step_ms.p90": (statistics.quantiles(steps, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "err_p_c": (jobs[-1].errors[0], "rel"),
        "err_u_a": (jobs[-1].errors[1], "rel"),
    }


def per_layer(workload, jobs, tracer):
    traced = [i for i, job in enumerate(jobs) if job.traced]
    per_job = []
    for i in traced:
        metrics = tracer.job_metrics(i)
        lost = spans.missing_layers(metrics, workload.expected_layers)
        if lost:
            raise RuntimeError(f"wrapper(s) {', '.join(lost)} recorded no calls on "
                               f"{workload.name}: a binding moved and the trace is blind")
        job = jobs[i]
        for name in metrics:
            if not name.endswith(".calls"):
                metrics[name] *= job.scale
        iters = job.picard_iterations
        solves = metrics["linsolve.spd_solve.calls"] + metrics["linsolve.block_solve.calls"]
        metrics.update({
            "linsolve.splu.fill_nnz": tracer.counts[(i, "linsolve.splu.fill_nnz")],
            "linsolve.refine_ratio": tracer.counts[(i, "linsolve.lu_solve")] / solves,
            "stepper.picard_iters.mean": sum(iters) / len(iters) if iters else 0.0,
            "stepper.picard_capped_frac": job.picard_capped / len(iters) if iters else 0.0,
            "stepper.reported_factorizations": job.factorizations,
        })
        per_job.append(metrics)
    out = {name: (statistics.median(m[name] for m in per_job), spans.unit(name))
           for name in per_job[0]}
    scaled = {job.traced: [] for job in jobs}
    for job in jobs:
        scaled[job.traced].append(job.wall_s * job.scale)
    out["trace.overhead_s"] = (statistics.median(scaled[True])
                               - statistics.median(scaled[False]), "s")
    out["failed_frac"] = (sum(bool(job.problems) for job in jobs) / len(jobs), "ratio")
    return out


def measure(workload, seed, seconds, trace):
    """Run jobs for ``seconds``; with ``trace``, even jobs are traced, odd ones not."""
    runlog, tracer, clock = RunLog(), spans.Tracer(), spans.Patcher()
    calibrator = Calibrator()
    runlog.install(clock)
    try:
        warm_dir = OUT / f"{workload.name}-warmup"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(job_argv(workload, warmup_config(workload, str(warm_dir)), warm_dir))

        out_dir = OUT / workload.name
        argv = job_argv(workload, workload.config_for(seed, str(out_dir)), out_dir)
        jobs, probes = [], [calibrator.probe()]
        start = time.perf_counter()
        while True:
            tracer.job = len(jobs)
            job = run_job(workload, argv, runlog, tracer, traced=trace and len(jobs) % 2 == 0)
            probes.append(calibrator.probe())
            job.scale = NOMINAL_S / (0.5 * (probes[-2] + probes[-1]))
            jobs.append(job)
            elapsed = time.perf_counter() - start
            longest = max(job.wall_s for job in jobs)
            if len(jobs) >= (2 if trace else 1) and (
                    elapsed >= seconds or elapsed + longest > HARD_LIMIT_S):
                break
    finally:
        clock.restore()
    return jobs, tracer, probes


def environment(workload, machine):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"workload": workload.name, **machine, "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "picard_tol": PICARD["picard_tol"], "linear_tol": DEFAULT_TOL}


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run(workload, seed, seconds, trace, machine):
    """Measure one workload, print every metric, end with the JSON result line."""
    env = environment(workload, machine)
    print("environment: " + json.dumps(env))
    jobs, tracer, probes = measure(workload, seed, seconds, trace)
    metrics = per_layer(workload, jobs, tracer) if trace else end_to_end(jobs)

    failed = [job.problems for job in jobs if job.problems]
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    record = {"environment": env, "seed": seed, "seconds": seconds,
              "jobs": len(jobs), "job_wall_s": [job.wall_s for job in jobs],
              "probe_s": probes, "job_scale": [job.scale for job in jobs],
              "step_samples": sum(len(job.step_ms) for job in jobs if not job.traced),
              "failures": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if trace:
        tracer.write(OUT / f"{tag}-spans.csv")
    for problems in failed:
        print("failed job: " + "; ".join(problems))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not failed, "attempted": len(jobs), "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0
