"""Run one biotbench benchmark workload and print its metrics.

    python3 perfbench/run.py --workload semi-ex42-n64 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, in this process.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See perfbench/README.md.
"""

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads():
    """Cap BLAS/OpenMP threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        value = int(current) if current.isdigit() and 1 <= int(current) <= nproc else nproc
        os.environ[var] = caps[var] = str(value)
    return nproc, caps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc, caps = cap_threads()
    sys.path.insert(0, str(SRC))
    try:
        import biotbench
    except ImportError as exc:
        print(f"perfbench: cannot import biotbench from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(biotbench.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: biotbench was imported from {biotbench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    return harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                       {"nproc": nproc, "threads": caps})


if __name__ == "__main__":
    sys.exit(main())
