"""Machine-speed probe: a fixed numpy/scipy kernel timed around every job.

The shared 2-core machine this benchmark was built on switches between two
speeds about 1.5x apart, for seconds to minutes at a time, so raw seconds
from two runs are not comparable.  The kernel is timed before the first
job and after every job; a job's times are multiplied by NOMINAL_S over
the mean of the two probes around it, which gives the seconds the job
would take on a machine where the kernel takes NOMINAL_S.  The kernel
uses only numpy and scipy, never biotbench, so no change to the program
can move it.  It mixes what the solver spends its time in: a sparse LU
and solve, COO to CSR conversion with row and column slicing, vectorized
element arithmetic and interpreted Python.
"""

import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: kernel time that defines the reported seconds (a typical reading when built)
NOMINAL_S = 0.030
PROBE_REPEATS = 3


class Calibrator:
    def __init__(self):
        m = 48
        tri = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
        self._laplace = (sp.kron(tri, sp.eye(m)) + sp.kron(sp.eye(m), tri)).tocsc()
        self._rhs = np.ones(m * m)
        rng = np.random.default_rng(0)
        n = 1500
        self._coo = (rng.random(9 * n), rng.integers(0, n, 9 * n), rng.integers(0, n, 9 * n))
        self._n = n
        self._keep = np.arange(1, n - 1)
        self._x = rng.random((20000, 3))

    def kernel(self):
        tic = time.perf_counter()
        splu(self._laplace, permc_spec="MMD_AT_PLUS_A").solve(self._rhs)
        data, rows, cols = self._coo
        for _ in range(12):
            mat = sp.coo_matrix((data, (rows, cols)), shape=(self._n, self._n)).tocsr()
            mat[self._keep][:, self._keep].sort_indices()
        for _ in range(8):
            np.einsum("ei,ej->eij", self._x, self._x).sum(axis=0)
        total = 0
        for i in range(40000):
            total += i % 7
        return time.perf_counter() - tic

    def probe(self):
        """Median of PROBE_REPEATS kernel timings, in seconds."""
        return statistics.median(self.kernel() for _ in range(PROBE_REPEATS))
