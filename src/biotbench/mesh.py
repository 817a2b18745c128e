"""Structured triangulations of the unit square with P1 nodal unknowns.

Nested meshes share one P1 interpolation: ``prolongation``, the sparse
matrix that the reference errors apply, and ``interior_prolongation``,
the same matrix on interior nodes only, which the pressure multigrid
hierarchy applies.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform triangulation of D = (0,1)^2 with ``n`` subdivisions per side.

    Nodes are numbered lexicographically by (row, column): node i*(n+1)+j
    sits at (j*h, i*h) with h = 1/n.  Every grid cell is split along its
    bottom-left to top-right diagonal, so the meshes for n and 2n are
    nested and repeated runs produce identical connectivity.

    Homogeneous Dirichlet conditions are built in: ``interior_index`` maps
    node numbers to compacted interior unknown numbers (-1 on the
    boundary).  It is the one record of the Dirichlet nodes: every
    operator, load and nodal helper keeps exactly the nodes it numbers, so
    a mesh whose ``interior_index`` numbers every node gives the
    unconstrained operators.  Displacement unknowns are interleaved, two
    per kept node.
    """

    n: int
    nodes: np.ndarray           # (num_nodes, 2) coordinates
    triangles: np.ndarray       # (num_triangles, 3) node indices, counterclockwise
    interior_index: np.ndarray  # (num_nodes,) int, -1 at a Dirichlet node

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def interior_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.interior_index >= 0)

    @property
    def num_pressure_dofs(self) -> int:
        return int(np.count_nonzero(self.interior_index >= 0))

    @property
    def num_displacement_dofs(self) -> int:
        return 2 * self.num_pressure_dofs

    def interior_displacement_dofs(self) -> np.ndarray:
        """Full-space displacement dof numbers (2*node+comp) kept after elimination."""
        k = self.interior_nodes
        return np.stack([2 * k, 2 * k + 1], axis=1).ravel()

    # nodal vector helpers (boundary values are identically zero)

    def restrict_scalar(self, full: np.ndarray) -> np.ndarray:
        return np.asarray(full)[self.interior_nodes]

    def extend_scalar(self, interior: np.ndarray) -> np.ndarray:
        full = np.zeros(self.num_nodes)
        full[self.interior_nodes] = interior
        return full

    def restrict_vector(self, full: np.ndarray) -> np.ndarray:
        return np.asarray(full)[self.interior_displacement_dofs()]

    def extend_vector(self, interior: np.ndarray) -> np.ndarray:
        full = np.zeros(2 * self.num_nodes)
        full[self.interior_displacement_dofs()] = interior
        return full

    def nodal_scalar(self, fn, t=None) -> np.ndarray:
        """Interior values of a scalar function fn(x, y[, t]) at the mesh nodes."""
        x, y = self.nodes[:, 0], self.nodes[:, 1]
        values = fn(x, y) if t is None else fn(x, y, t)
        return self.restrict_scalar(np.broadcast_to(np.asarray(values, dtype=float), x.shape))

    def nodal_vector(self, fn, t=None) -> np.ndarray:
        """Interior values of a vector function fn(x, y[, t]) -> (v1, v2), interleaved."""
        x, y = self.nodes[:, 0], self.nodes[:, 1]
        v1, v2 = fn(x, y) if t is None else fn(x, y, t)
        full = np.empty(2 * self.num_nodes)
        full[0::2] = np.broadcast_to(np.asarray(v1, dtype=float), x.shape)
        full[1::2] = np.broadcast_to(np.asarray(v2, dtype=float), x.shape)
        return self.restrict_vector(full)


def build_structured_mesh(n: int) -> Mesh:
    """Build the uniform diagonal-split triangulation with mesh size h = 1/n."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"subdivision count must be a positive integer, got {n!r}")
    n = int(n)
    side = np.linspace(0.0, 1.0, n + 1)
    jj, ii = np.meshgrid(side, side)  # row i is the y level
    nodes = np.column_stack([jj.ravel(), ii.ravel()])

    cell_i, cell_j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    v00 = (cell_i * (n + 1) + cell_j).ravel()
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    return Mesh(n=n, nodes=nodes, triangles=triangles,
                interior_index=structured_interior_index(n))


def structured_interior_index(n: int) -> np.ndarray:
    """The ``interior_index`` of ``build_structured_mesh(n)``: the nodes off the
    boundary of the unit square, numbered lexicographically."""
    interior_index = np.full((n + 1, n + 1), -1, dtype=np.int64)
    interior_index[1:-1, 1:-1] = np.arange((n - 1) ** 2).reshape(n - 1, n - 1)
    return interior_index.ravel()


def prolongation(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """P1 interpolation from the nodes of ``coarse`` to those of ``fine``, as CSR.

    Requires fine.n to be a multiple r of coarse.n, so that every coarse
    node coincides with a fine node.  Built from the structured index
    pattern alone (``_interpolation``).  Zero weights are not stored, so
    for r = 2 every entry is exactly 1 or 1/2.
    """
    if fine.n % coarse.n != 0:
        raise ValueError(
            f"meshes are not nested: fine n={fine.n} is not a multiple of coarse n={coarse.n}")
    cols, weights = _interpolation(coarse.n, fine.n // coarse.n, np.arange(fine.num_nodes))
    return _stored(cols, weights, weights != 0.0, (fine.num_nodes, coarse.num_nodes))


def interior_prolongation(nodes, n: int) -> sp.csr_matrix:
    """``prolongation`` from the structured mesh with n/2 cells per side to
    the one with an even n, restricted to the fine ``nodes`` and to the
    coarse interior nodes, numbered by ``structured_interior_index``.

    Exact for coarse values that vanish on the boundary.  Built from the
    index pattern alone, with no coarse mesh and no full matrix: the same
    entries, in the same order, as ``prolongation`` indexed down to those
    rows and columns.
    """
    cn = n // 2
    cols, weights = _interpolation(cn, 2, nodes)
    cols = structured_interior_index(cn)[cols]
    stored = (weights != 0.0) & (cols >= 0)
    return _stored(cols, weights, stored, (cols.shape[0], (cn - 1) ** 2))


def _interpolation(cn, r, nodes):
    """The coarse nodes and weights of the P1 interpolant at each fine node of ``nodes``.

    Fine node (i, j) of the mesh with r*cn cells per side lies in coarse
    cell (i // r, j // r), clamped to the last cell, at the offsets
    t = i/r - i // r (up) and s = j/r - j // r (across), and takes the
    barycentric weights of the cell's lower triangle where t <= s, else of
    its upper one.  Returns two (len(nodes), 3) arrays, coarse node
    numbers ascending along each row, and weights.
    """
    i, j = np.divmod(nodes, r * cn + 1)
    ci, cj = np.minimum(i // r, cn - 1), np.minimum(j // r, cn - 1)
    t, s = (i - r * ci) / r, (j - r * cj) / r
    lower = t <= s
    base = ci * (cn + 1) + cj
    # the triangle's vertices in ascending node order, so each row comes out sorted:
    # lower (bottom-left, bottom-right, top-right), upper (bottom-left, top-left, top-right)
    cols = np.stack([base, base + np.where(lower, 1, cn + 1), base + cn + 2], axis=1)
    weights = np.stack([np.where(lower, 1.0 - s, 1.0 - t), np.abs(s - t),
                        np.where(lower, t, s)], axis=1)
    return cols, weights


def _stored(cols, weights, stored, shape) -> sp.csr_matrix:
    """The CSR matrix of the ``stored`` entries, row by row, of ``_interpolation``'s arrays."""
    indptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1))))
    return sp.csr_matrix((weights[stored], cols[stored], indptr), shape=shape)
