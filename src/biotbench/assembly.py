"""P1 finite element assembly of the poroelastic bilinear forms.

Assembles, on a structured triangulation, the four operators

    a(u,v) = int sigma(u):eps(v) dx            (elasticity, 2 dofs/node)
    b(u;p,q) = int (kappa(div u)/nu) grad p . grad q dx
    c(p,q) = int (1/M) p q dx                  (scaled pressure mass)
    d(u,q) = int alpha (div u) q dx            (coupling)

plus load vectors, with homogeneous Dirichlet conditions imposed by
interior-dof compaction.  ``Mesh.interior_index`` is the one record of
the Dirichlet nodes: every operator and load keeps the dofs of the nodes
it numbers and drops the rest, so a mesh that numbers every node gives
the unconstrained operators.  All element integrals are exact for P1
spaces: the dilatation div(u_h) is elementwise constant, so kappa is
evaluated once per element, and loads use the three edge-midpoint
quadrature rule (exact for quadratic integrands).

Everything that depends on the mesh alone is computed once per mesh and
kept in a cache keyed weakly by the ``Mesh`` object, so it is dropped with
the mesh: the element geometry, the dof tables, the unique edge midpoints
with the element->edge map and each edge's endpoints, per pair of spaces
a scatter plan, the load map, the two sparse maps the permeability
stiffness B(u) is read through, and, from the multigrid
crossover on, the pressure space's multigrid hierarchy
(``pressure_prolongations``, built on its first request): per level the
prolongation, ``mesh.interior_prolongation``, and the Galerkin map, a
sparse map from the values of any operator on the level's pattern to
those of its coarsening P^T A P on the next one.  C, M, L and every
B(u) are ``linsolve.CsrArrays``: values on the scalar plan's own
read-only index arrays, with no scipy matrix around them.  Every sum of
them keeps that pattern (``pressure_sum``), so the map replaces two
sparse products per level and step.  A and D are scipy CSR matrices
with their own copies of their plans' index arrays.  The load vectors
evaluate the forcing once per mesh edge, on those midpoints, and take
the values to the nodes by one sparse product with the load map, whose
entry (i, e) is the
sum of |T|/6 over the elements T sharing edge e, at the rows of e's
endpoints i; the displacement load applies it to the (edges x 2) values
at once, which gives its interleaved dofs.  A plan fixes the CSR pattern
and maps every element-matrix entry to its nonzero slot.  It is built by
replaying scipy's COO to CSR conversion (a row-stable counting sort, a
per-row sort on column keys, summation of duplicate runs in order) on
entry numbers instead of values.  Applying it with one weighted ``np.bincount``
therefore adds every slot's addends one after another in exactly the
order ``coo_matrix(...).tocsr()`` adds them, so the operators are
bit-identical to those of a plain COO assembly.

B(u) is the one operator that changes with the state, so it costs two
sparse products per call (``linsolve.matvec``, scipy's compiled kernel)
and builds no element matrices and no scipy matrix.  The
dilatation map (elements x interior displacement dofs, entries
b/(2|T|) and c/(2|T|)) gives the elementwise divergence of u, and the
permeability gives the element weights kappa/(4|T|).  The B map has one
row per nonzero slot of the scalar plan, listing that slot's addends in
the plan's order as (element, grad-grad numerator) pairs, so its
product with the weights adds the same products in the same order as
the scatter would: given the dilatation, B(u) equals the COO assembly
bit for bit.  Each map is built on first use, inside the first B(u) call
of a run.
"""

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .linsolve import CsrArrays, matvec, same_pattern
from .mesh import Mesh, interior_prolongation, structured_interior_index
from .permeability import PermeabilityModel, check_finite_fields


@dataclass(frozen=True)
class Coefficients:
    """Material data of the poroelastic model.

    Each number is finite and not a bool.

    lam, mu   : Lame coefficients (lam >= 0, mu > 0)
    alpha     : fluid-solid coupling coefficient (alpha >= 0; zero decouples)
    M         : Biot modulus (> 0), the pressure mass is scaled by 1/M
    kappa_over_nu : mobility scale; the effective mobility is
                    kappa_over_nu * permeability.eval(div u)
    """

    lam: float
    mu: float
    alpha: float
    M: float
    kappa_over_nu: float
    permeability: PermeabilityModel

    def __post_init__(self):
        check_finite_fields(self, skip=("permeability",))
        if self.lam < 0 or self.mu <= 0:
            raise ValueError("require lam >= 0 and mu > 0")
        if self.alpha < 0:
            raise ValueError("require alpha >= 0")
        if self.M <= 0 or self.kappa_over_nu <= 0:
            raise ValueError("require M > 0 and kappa_over_nu > 0")

    def mobility(self, s):
        return self.kappa_over_nu * self.permeability.eval(s)


class _MeshData:
    """What assembly needs of one mesh, computed once.

    Holds no reference to the mesh, so the weakly keyed cache entry dies
    with it.  The arrays are read-only because every assembly shares them.
    """

    def __init__(self, mesh: Mesh):
        pts = mesh.nodes[mesh.triangles]
        x, y = pts[..., 0], pts[..., 1]
        b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                      - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
        # (E, 6) displacement dofs per element, interleaved as (x0, y0, x1, y1, x2, y2)
        element_dofs = np.empty((mesh.num_triangles, 6), dtype=np.int64)
        element_dofs[:, 0::2] = 2 * mesh.triangles
        element_dofs[:, 1::2] = 2 * mesh.triangles + 1
        # full dof -> interior unknown number, -1 on the boundary
        node_map = mesh.interior_index
        dof_map = np.full(2 * mesh.num_nodes, -1, dtype=np.int64)
        dof_map[0::2] = np.where(node_map >= 0, 2 * node_map, -1)
        dof_map[1::2] = np.where(node_map >= 0, 2 * node_map + 1, -1)
        self.geometry = (b, c, area)
        # b_i b_j + c_i c_j = 4 area^2 grad lambda_i . grad lambda_j, the grad-grad numerator
        self.grad_grad = b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
        # local edge k of an element joins its vertices k and k+1 (mod 3); an
        # edge is keyed by its (smaller, larger) node pair
        start, end = mesh.triangles.ravel(), mesh.triangles[:, [1, 2, 0]].ravel()
        keys = np.minimum(start, end) * mesh.num_nodes + np.maximum(start, end)
        _, first, edges = np.unique(keys, return_index=True, return_inverse=True)
        # 0.5 * (a + b) from one element equals the other element's 0.5 * (b + a)
        i, j = start[first], end[first]
        node_x, node_y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        self.x, self.y = 0.5 * (node_x[i] + node_x[j]), 0.5 * (node_y[i] + node_y[j])
        self.edge_nodes = np.stack([i, j], axis=1)
        self.element_edges = edges.reshape(mesh.num_triangles, 3)
        self.spaces = {"scalar": (mesh.triangles, node_map), "vector": (element_dofs, dof_map)}
        for arr in (b, c, area, self.grad_grad, self.x, self.y, self.edge_nodes,
                    self.element_edges, element_dofs, dof_map):
            arr.flags.writeable = False
        self.plans = {}
        self.maps = {}


_MESH_DATA = weakref.WeakKeyDictionary()


def _mesh_data(mesh: Mesh) -> _MeshData:
    data = _MESH_DATA.get(mesh)
    if data is None:
        data = _MESH_DATA[mesh] = _MeshData(mesh)
    return data


def triangle_geometry(mesh: Mesh):
    """Per-element gradient cofactors and areas.

    Returns (b, c, area): the P1 basis gradients on element e are
    grad lambda_i = (b[e,i], c[e,i]) / (2*area[e]).  The arrays are cached
    per mesh and read-only.
    """
    return _mesh_data(mesh).geometry


def element_divergence(mesh: Mesh, u_interior: np.ndarray) -> np.ndarray:
    """Elementwise-constant divergence of an interior displacement vector."""
    return matvec(_divergence_map(mesh), np.asarray(u_interior, dtype=float))


def _divergence_map(mesh: Mesh) -> sp.csr_matrix:
    """The (elements x interior displacement dofs) map u -> div u, cached per mesh.

    Row e holds b_i/(2|T|) at the x dof and c_i/(2|T|) at the y dof of
    each interior vertex i of element e.
    """
    data = _mesh_data(mesh)
    div = data.maps.get("div")
    if div is None:
        b, c, area = data.geometry
        element_dofs, dof_map = data.spaces["vector"]
        values = np.empty(element_dofs.shape)
        values[:, 0::2] = b / (2.0 * area)[:, None]
        values[:, 1::2] = c / (2.0 * area)[:, None]
        columns = dof_map[element_dofs]
        rows = np.broadcast_to(np.arange(mesh.num_triangles)[:, None], columns.shape)
        keep = columns >= 0
        div = data.maps["div"] = sp.csr_matrix(
            (values[keep], (rows[keep], columns[keep])),
            shape=(mesh.num_triangles, mesh.num_displacement_dofs))
    return div


@dataclass(frozen=True)
class _ScatterPlan:
    """Fixed CSR pattern of one pair of spaces plus the addends of each slot.

    Nonzero k of the pattern is the sum of the entries of the flattened
    (E, r, c) element matrices listed in ``perm`` at the positions where
    the nondecreasing ``slots`` equals k, added in the order in which
    scipy's COO to CSR conversion adds them.  Entries in a dropped
    Dirichlet row or column are not listed.  Every array is read-only:
    the operators assembled on the plan share ``indices`` and ``indptr``.
    """

    perm: np.ndarray
    slots: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


def _build_plan(mesh: Mesh, rows, cols) -> _ScatterPlan:
    """Replay ``coo_matrix(...).tocsr()``, restriction and sort on entry numbers."""
    spaces = _mesh_data(mesh).spaces
    row_dof, row_map = spaces[rows]
    col_dof, col_map = spaces[cols]
    r, c = row_dof.shape[1], col_dof.shape[1]
    size = row_dof.size * c
    idx = np.int32 if size <= np.iinfo(np.int32).max else np.int64

    # coo_tocsr places the entries row by row, keeping their input order
    # within a row; the c entries of one element row stay together, so a
    # stable sort of the element rows gives that order
    row_keys = row_dof.ravel()
    order = np.argsort(row_keys, kind="stable")
    indptr = np.zeros(row_map.size + 1, dtype=idx)
    np.cumsum(np.bincount(row_keys, minlength=row_map.size) * c, out=indptr[1:])
    entries = (order[:, None] * float(c) + np.arange(c, dtype=float)).ravel()
    columns = col_dof.astype(idx)[order // r].ravel()

    # tocsr then sorts each row on its column keys alone (not a stable
    # sort), so the same sort on entry numbers yields the order of values
    replay = sp.csr_matrix((entries, columns, indptr), shape=(row_map.size, col_map.size))
    replay.sort_indices()
    perm = replay.data.astype(idx)
    columns = replay.indices

    # a run of equal columns within a row is one slot, which
    # csr_sum_duplicates adds up front to back; every row starts a new run
    first = np.empty(size, dtype=bool)
    first[0] = True
    np.not_equal(columns[1:], columns[:-1], out=first[1:])
    first[indptr[:-1][indptr[:-1] < size]] = True
    starts = np.flatnonzero(first)
    slots_per_row = np.diff(np.searchsorted(starts, indptr))
    slot_rows = row_map[np.repeat(np.arange(row_map.size), slots_per_row)]
    slot_cols = col_map[columns[starts]]
    keep = (slot_rows >= 0) & (slot_cols >= 0)
    counts = np.diff(starts, append=size)
    perm = perm[np.repeat(keep, counts)]

    n_rows = int(np.count_nonzero(row_map >= 0))
    n_cols = int(np.count_nonzero(col_map >= 0))
    out_indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(slot_rows[keep], minlength=n_rows), out=out_indptr[1:])
    slots = np.repeat(np.arange(np.count_nonzero(keep)), counts[keep])
    indices = slot_cols[keep].astype(np.int32)
    for arr in (perm, slots, indices, out_indptr):
        arr.flags.writeable = False
    return _ScatterPlan(perm=perm, slots=slots, indices=indices, indptr=out_indptr,
                        shape=(n_rows, n_cols))


def _plan(mesh: Mesh, rows, cols) -> _ScatterPlan:
    """The mesh's scatter plan of a pair of spaces, built on first use."""
    plans = _mesh_data(mesh).plans
    key = (rows, cols)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _build_plan(mesh, rows, cols)
    return plan


def _scatter(mesh: Mesh, local, rows="scalar", cols="scalar") -> CsrArrays:
    """Sum (E, r, c) local matrices into a CSR operator between two P1 spaces.

    ``rows`` and ``cols`` name the spaces ("scalar" or "vector"); the
    Dirichlet dofs are dropped.  The mesh's cached scatter
    plan fixes the pattern, and one weighted ``np.bincount`` adds each
    slot's addends in the order scipy's COO to CSR conversion would, so
    the result equals ``coo_matrix(...).tocsr()`` restricted and sorted,
    bit for bit.  The values lie on the plan's own index arrays.
    """
    plan = _plan(mesh, rows, cols)
    return CsrArrays(np.bincount(plan.slots, weights=local.ravel()[plan.perm],
                                 minlength=plan.indices.size),
                     plan.indices, plan.indptr, plan.shape)


def _scipy_csr(op: CsrArrays) -> sp.csr_matrix:
    """A scipy CSR matrix of op's values, with its own copies of the index arrays."""
    mat = sp.csr_matrix((op.data, op.indices.copy(), op.indptr.copy()), shape=op.shape)
    mat.has_canonical_format = True
    return mat


def pressure_sum(X, w, Y) -> CsrArrays:
    """X + w*Y for two CSR operators on one pattern, as C, M and every B(u) are.

    The ``CsrArrays`` of the values X.data + w*Y.data on X's index arrays,
    which the sum shares: a slot whose values cancel stays an explicit
    zero, so every pressure-space operator keeps the scalar plan's
    pattern.  Operators on different patterns (``linsolve.same_pattern``)
    raise ValueError.
    """
    if X.shape != Y.shape or not same_pattern(X, Y):
        raise ValueError("the terms of a pressure sum lie on different patterns")
    return CsrArrays(X.data + w * Y.data, X.indices, X.indptr, X.shape)


def _permeability_map(mesh: Mesh):
    """The scalar plan and the B map that reads B's values off the element weights.

    Row k of the B map lists the addends of slot k in the plan's order,
    each as its element (column) and grad-grad numerator (value).  A CSR
    product adds a row's products front to back, as the plan's
    ``np.bincount`` adds the entries of the scaled element matrices, so
    the map times kappa/(4|T|) is the scatter's data bit for bit.  Cached
    per mesh.
    """
    data = _mesh_data(mesh)
    plan = _plan(mesh, "scalar", "scalar")
    bmap = data.maps.get("B")
    if bmap is None:
        nnz = plan.indices.size
        indptr = np.zeros(nnz + 1, dtype=plan.perm.dtype)
        np.cumsum(np.bincount(plan.slots, minlength=nnz), out=indptr[1:])
        local_size = data.grad_grad[0].size
        bmap = data.maps["B"] = sp.csr_matrix(
            (data.grad_grad.ravel()[plan.perm], plan.perm // local_size, indptr),
            shape=(nnz, mesh.num_triangles))
    return plan, bmap


#: a mesh of fewer cells per side has no pressure hierarchy, so its per-step
#: pressure operator is solved by its LU: multigrid-preconditioned CG was
#: measured faster from n = 16 on, and n = 16, where criterion 2 compares the
#: semi-explicit and delay paths, keeps the LU
_MULTIGRID_CELLS = 18
#: the pressure hierarchy stops at a mesh of at least this many cells per side
_COARSEST_CELLS = 8


class Pattern(NamedTuple):
    """The index arrays of a square CSR pattern, sorted, and the slots of its diagonal."""

    indptr: np.ndarray
    indices: np.ndarray
    diagonal: np.ndarray


class MultigridLevel(NamedTuple):
    """One level of the pressure hierarchy, an operator A on ``fine`` and its coarsening.

    ``P`` prolongs coarse to fine values and ``R`` is P^T, both CSR.
    ``galerkin`` is the CSR map from A's values, slot by slot on
    ``fine``, to the values of R A P on the pattern ``coarse``, which is
    the next level's ``fine``.
    """

    P: sp.csr_matrix
    R: sp.csr_matrix
    fine: Pattern
    galerkin: sp.csr_matrix
    coarse: Pattern


def _pattern(indptr, indices) -> Pattern:
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    diagonal = np.flatnonzero(indices == rows)
    for arr in (indptr, indices, diagonal):
        arr.flags.writeable = False
    return Pattern(indptr, indices, diagonal)


def _galerkin_map(fine: Pattern, P):
    """The map from the values of any A on ``fine`` to those of P^T A P, and its pattern.

    The fine slot s = (i, j) adds P[i, a] A[i, j] P[j, b] to the coarse
    entry (a, b) for every stored P[i, a] and P[j, b], so column s of the
    map holds the weights P[i, a] P[j, b] in the rows of those entries.
    The coarse pattern is that of |P|^T S |P|, S the fine pattern with
    unit values: a sum of positive terms cancels nowhere, so the pattern
    holds every entry some fine slot reaches, also where the values of a
    particular A cancel, which scipy's product would not store.
    """
    n_fine, n_coarse = P.shape
    unit = sp.csr_matrix((np.ones(fine.indices.size), fine.indices, fine.indptr),
                         shape=(n_fine, n_fine))
    positive = abs(P)
    structure = positive.T @ (unit @ positive)
    structure.sort_indices()
    coarse = _pattern(structure.indptr.astype(np.int32), structure.indices.astype(np.int32))
    coarse_rows = np.repeat(np.arange(n_coarse, dtype=np.int64), np.diff(coarse.indptr))
    coarse_keys = coarse_rows * n_coarse + coarse.indices
    # slot s expands to one term per pair of P's entries in rows i and j; term
    # k of the slot pairs entry k // (row j's count) of row i with entry k % that of row j
    rows = np.repeat(np.arange(n_fine, dtype=np.int32), np.diff(fine.indptr))
    per_row = np.diff(P.indptr)
    down = per_row[fine.indices]
    first_term = np.zeros(rows.size + 1, dtype=np.int32)
    np.cumsum(per_row[rows] * down, out=first_term[1:])
    slot = np.repeat(np.arange(rows.size, dtype=np.int32), np.diff(first_term))
    k = np.arange(slot.size, dtype=np.int32) - first_term[slot]
    a = P.indptr[rows][slot] + k // down[slot]
    b = P.indptr[fine.indices][slot] + k % down[slot]
    targets = np.searchsorted(coarse_keys, P.indices[a].astype(np.int64) * n_coarse
                              + P.indices[b]).astype(np.int32)
    # the terms come in fine slot order, so they are the map's transpose in CSR
    transpose = sp.csr_matrix((P.data[a] * P.data[b], targets, first_term),
                              shape=(rows.size, coarse_keys.size))
    return transpose.T.tocsr(), coarse


def pressure_prolongations(mesh: Mesh) -> tuple:
    """The multigrid hierarchy of the mesh's interior scalar P1 space, cached per mesh.

    One ``MultigridLevel`` per level, finest first.  Level k's P maps the
    interior nodal values on the mesh with n/2^(k+1) cells per side to
    the values of their P1 interpolant at the interior nodes of the one
    with n/2^k.  Level 0's fine pattern is the scalar plan's, which C and
    every B(u) are assembled on, held as the plan's own read-only index
    arrays.  Each level's Galerkin map carries
    an operator's values on it down to the next pattern: the per-step
    coarse operators cost one sparse matrix-vector product per level.
    The hierarchy halves n while n is even and its half has at least
    ``_COARSEST_CELLS`` cells per side.  A mesh with fewer than
    ``_MULTIGRID_CELLS`` cells per side, or an odd n, has no level and
    gets an empty tuple, so this is the one place that decides whether
    ``linsolve.solve_pressure`` runs multigrid; a mesh below the
    crossover leaves the per-mesh cache untouched.  Built on the first
    call: P is ``mesh.interior_prolongation``, the P1 interpolation on
    interior rows and columns, which is exact because boundary values are
    zero; level 0's rows are the mesh's own interior nodes.
    """
    if mesh.n < _MULTIGRID_CELLS:
        return ()
    data = _mesh_data(mesh)
    levels = data.maps.get("prolongations")
    if levels is None:
        plan = _plan(mesh, "scalar", "scalar")
        pattern = _pattern(plan.indptr, plan.indices)
        levels, n, nodes = [], mesh.n, mesh.interior_nodes
        while n % 2 == 0 and n // 2 >= _COARSEST_CELLS:
            P = interior_prolongation(nodes, n)
            galerkin, coarse_pattern = _galerkin_map(pattern, P)
            levels.append(MultigridLevel(P, P.T.tocsr(), pattern, galerkin, coarse_pattern))
            n, pattern = n // 2, coarse_pattern
            nodes = np.flatnonzero(structured_interior_index(n) >= 0)
        levels = data.maps["prolongations"] = tuple(levels)
    return levels


def assemble_elasticity(mesh: Mesh, coeffs: Coefficients) -> sp.csr_matrix:
    """Stiffness of the linear elastic form a, a scipy CSR matrix; SPD after elimination."""
    b, c, area = triangle_geometry(mesh)
    E = mesh.num_triangles
    # Voigt strain-displacement matrix rows (e_xx, e_yy, gamma_xy), 6 local dofs
    B = np.zeros((E, 3, 6))
    B[:, 0, 0::2] = b
    B[:, 1, 1::2] = c
    B[:, 2, 0::2] = c
    B[:, 2, 1::2] = b
    B /= (2.0 * area)[:, None, None]
    lam, mu = coeffs.lam, coeffs.mu
    Dmat = np.array([[lam + 2 * mu, lam, 0.0],
                     [lam, lam + 2 * mu, 0.0],
                     [0.0, 0.0, mu]])
    local = np.einsum("eki,kl,elj,e->eij", B, Dmat, B, area, optimize=True)
    return _scipy_csr(_scatter(mesh, local, rows="vector", cols="vector"))


def assemble_pressure_mass(mesh: Mesh, coeffs: Coefficients) -> CsrArrays:
    """Consistent P1 mass matrix scaled by 1/M (the form c), on the scalar plan's pattern."""
    mass = assemble_mass(mesh)
    return CsrArrays(mass.data * (1.0 / coeffs.M), mass.indices, mass.indptr, mass.shape)


def assemble_mass(mesh: Mesh) -> CsrArrays:
    """Unscaled consistent P1 mass matrix (exact integration), on the scalar plan's pattern."""
    _, _, area = triangle_geometry(mesh)
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = area[:, None, None] * base
    return _scatter(mesh, local)


def assemble_laplace(mesh: Mesh) -> CsrArrays:
    """Unit-coefficient P1 stiffness (grad-grad), used for the H1-type norms, on the
    scalar plan's pattern."""
    data = _mesh_data(mesh)
    _, _, area = data.geometry
    return _scatter(mesh, data.grad_grad / (4.0 * area)[:, None, None])


def assemble_coupling(mesh: Mesh, coeffs: Coefficients) -> sp.csr_matrix:
    """Rectangular coupling operator, a scipy CSR matrix: d(u,q) = q^T D u on nodal vectors."""
    b, c, area = triangle_geometry(mesh)
    E = mesh.num_triangles
    # int_T (div u) q dx = (area/3) sum_i q_i * sum_j (b_j u_jx + c_j u_jy)/(2 area)
    local = np.empty((E, 3, 6))
    local[:, :, 0::2] = b[:, None, :] / 6.0
    local[:, :, 1::2] = c[:, None, :] / 6.0
    local *= coeffs.alpha
    return _scipy_csr(_scatter(mesh, local, cols="vector"))


def assemble_permeability_stiffness(mesh: Mesh, coeffs: Coefficients,
                                    u_interior) -> CsrArrays:
    """Stiffness of b(u; ., .) with the mobility frozen at the given displacement.

    The values on the scalar plan's pattern, read off the element weights
    by the B map.  The dilatation of a P1 displacement is constant per
    element, so the permeability is evaluated exactly once per element;
    no quadrature choice arises.
    """
    _, _, area = triangle_geometry(mesh)
    kappa = coeffs.mobility(element_divergence(mesh, u_interior))
    plan, bmap = _permeability_map(mesh)
    return CsrArrays(matvec(bmap, kappa / (4.0 * area)), plan.indices, plan.indptr, plan.shape)


def _load_map(mesh: Mesh) -> sp.csr_matrix:
    """The CSR map from values at the unique edge midpoints to the nodal load, cached per mesh.

    The edge-midpoint rule gives vertex i of an element T the weight
    |T|/3 * 1/2 at the midpoints of its two edges, so entry (i, e) is the
    sum of |T|/6 over the (one or two) elements that share edge e, at
    the rows of e's interior endpoints in their interior numbering.
    Built straight from the edge endpoints, which are its columns in CSC;
    the conversion to CSR keeps each node's edges in increasing order.
    Cached per mesh; both loads read the same map.
    """
    data = _mesh_data(mesh)
    lmap = data.maps.get("load")
    if lmap is None:
        _, node_map = data.spaces["scalar"]
        _, _, area = data.geometry
        n_edges = data.x.size
        weight = np.bincount(data.element_edges.ravel(), weights=np.repeat(area / 6.0, 3),
                             minlength=n_edges)
        ends = node_map[data.edge_nodes].astype(np.int32)
        keep = ends >= 0
        per_edge = np.count_nonzero(keep, axis=1)
        indptr = np.zeros(n_edges + 1, dtype=np.int32)
        np.cumsum(per_edge, out=indptr[1:])
        columns = sp.csc_matrix((np.repeat(weight, per_edge), ends[keep], indptr),
                                shape=(int(np.count_nonzero(node_map >= 0)), n_edges))
        lmap = data.maps["load"] = columns.tocsr()
    return lmap


def _midpoint_load(mesh: Mesh, components) -> np.ndarray:
    """int v q dx from the values of v at the unique edge midpoints, one value
    array (or scalar) per component: the load map times the (edges x
    components) values, which for a vector field gives the interleaved
    dofs 2*node + component."""
    data = _mesh_data(mesh)
    values = np.empty((data.x.size, len(components)))
    for k, vals in enumerate(components):
        values[:, k] = vals
    return (_load_map(mesh) @ values).ravel()


def assemble_load_q(mesh: Mesh, g, t: float) -> np.ndarray:
    """Pressure load vector int g q dx by the edge-midpoint rule; g is
    evaluated once, on the mesh's unique edge midpoints."""
    data = _mesh_data(mesh)
    return _midpoint_load(mesh, [g(data.x, data.y, t)])


def assemble_load_v(mesh: Mesh, f, t: float) -> np.ndarray:
    """Displacement load vector int f . v dx by the edge-midpoint rule; f is
    evaluated once, on the mesh's unique edge midpoints.  ``f=None`` is the
    zero body force, whose load is the zero vector."""
    if f is None:
        return np.zeros(mesh.num_displacement_dofs)
    data = _mesh_data(mesh)
    return _midpoint_load(mesh, list(f(data.x, data.y, t)))
