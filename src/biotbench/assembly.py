"""P1 finite element assembly of the poroelastic bilinear forms.

Assembles, on a structured triangulation, the four operators

    a(u,v) = int sigma(u):eps(v) dx            (elasticity, 2 dofs/node)
    b(u;p,q) = int (kappa(div u)/nu) grad p . grad q dx
    c(p,q) = int (1/M) p q dx                  (scaled pressure mass)
    d(u,q) = int alpha (div u) q dx            (coupling)

plus load vectors, with homogeneous Dirichlet conditions imposed by
interior-dof compaction.  All element integrals are exact for P1 spaces:
the dilatation div(u_h) is elementwise constant, so kappa is evaluated
once per element, and loads use the three edge-midpoint quadrature rule
(exact for quadratic integrands).  Assembly is vectorized over elements
with a deterministic reduction, so repeated runs are bit-identical.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh
from .permeability import PermeabilityModel


@dataclass(frozen=True)
class Coefficients:
    """Material data of the poroelastic model.

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
        if self.lam < 0 or self.mu <= 0:
            raise ValueError("require lam >= 0 and mu > 0")
        if self.alpha < 0:
            raise ValueError("require alpha >= 0")
        if self.M <= 0 or self.kappa_over_nu <= 0:
            raise ValueError("require M > 0 and kappa_over_nu > 0")

    def mobility(self, s):
        return self.kappa_over_nu * self.permeability.eval(s)

    def mobility_bounds(self):
        lo, hi = self.permeability.bounds()
        return self.kappa_over_nu * lo, self.kappa_over_nu * hi


def triangle_geometry(mesh: Mesh):
    """Per-element gradient cofactors and areas.

    Returns (b, c, area): the P1 basis gradients on element e are
    grad lambda_i = (b[e,i], c[e,i]) / (2*area[e]).
    """
    pts = mesh.nodes[mesh.triangles]
    x, y = pts[..., 0], pts[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    return b, c, area


def element_divergence(mesh: Mesh, u_interior: np.ndarray) -> np.ndarray:
    """Elementwise-constant divergence of an interior displacement vector."""
    b, c, area = triangle_geometry(mesh)
    full = mesh.extend_vector(np.asarray(u_interior, dtype=float))
    u = full[_element_dofs(mesh)]
    return ((u[:, 0::2] * b).sum(axis=1) + (u[:, 1::2] * c).sum(axis=1)) / (2.0 * area)


def _element_dofs(mesh: Mesh) -> np.ndarray:
    """(E, 6) displacement dofs per element, interleaved as (x0, y0, x1, y1, x2, y2)."""
    dof = np.empty((mesh.num_triangles, 6), dtype=np.int64)
    dof[:, 0::2] = 2 * mesh.triangles
    dof[:, 1::2] = 2 * mesh.triangles + 1
    return dof


def _space(mesh: Mesh, kind):
    """Element dof table, global size and interior dofs of the scalar or vector P1 space."""
    if kind == "scalar":
        return mesh.triangles, mesh.num_nodes, mesh.interior_nodes
    return _element_dofs(mesh), 2 * mesh.num_nodes, mesh.interior_displacement_dofs()


def _scatter(mesh: Mesh, local, interior_only, rows="scalar", cols="scalar"):
    """Sum (E, r, c) local matrices into a CSR matrix between two P1 spaces.

    ``rows`` and ``cols`` name the spaces ("scalar" or "vector").  The COO
    duplicate summation fixes the reduction order, so repeated assemblies
    are bit-identical; ``interior_only`` drops the Dirichlet dofs.
    """
    row_dof, n_rows, row_keep = _space(mesh, rows)
    col_dof, n_cols, col_keep = _space(mesh, cols)
    row_idx = np.repeat(row_dof, col_dof.shape[1], axis=1).ravel()
    col_idx = np.tile(col_dof, (1, row_dof.shape[1])).ravel()
    mat = sp.coo_matrix((local.ravel(), (row_idx, col_idx)), shape=(n_rows, n_cols)).tocsr()
    if interior_only:
        mat = mat[row_keep][:, col_keep]
    mat.sort_indices()
    return mat


def assemble_elasticity(mesh: Mesh, coeffs: Coefficients, interior_only=True) -> sp.csr_matrix:
    """Stiffness of the linear elastic form a; SPD after elimination."""
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
    return _scatter(mesh, local, interior_only, rows="vector", cols="vector")


def assemble_pressure_mass(mesh: Mesh, coeffs: Coefficients, interior_only=True) -> sp.csr_matrix:
    """Consistent P1 mass matrix scaled by 1/M (the form c)."""
    return assemble_mass(mesh, interior_only) * (1.0 / coeffs.M)


def assemble_mass(mesh: Mesh, interior_only=True) -> sp.csr_matrix:
    """Unscaled consistent P1 mass matrix (exact integration)."""
    _, _, area = triangle_geometry(mesh)
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = area[:, None, None] * base
    return _scatter(mesh, local, interior_only)


def assemble_laplace(mesh: Mesh, interior_only=True) -> sp.csr_matrix:
    """Unit-coefficient P1 stiffness (grad-grad), used for the H1-type norms."""
    b, c, area = triangle_geometry(mesh)
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
        / (4.0 * area)[:, None, None]
    return _scatter(mesh, local, interior_only)


def assemble_coupling(mesh: Mesh, coeffs: Coefficients, interior_only=True) -> sp.csr_matrix:
    """Rectangular coupling operator: d(u,q) = q^T D u on nodal vectors."""
    b, c, area = triangle_geometry(mesh)
    E = mesh.num_triangles
    # int_T (div u) q dx = (area/3) sum_i q_i * sum_j (b_j u_jx + c_j u_jy)/(2 area)
    local = np.empty((E, 3, 6))
    local[:, :, 0::2] = b[:, None, :] / 6.0
    local[:, :, 1::2] = c[:, None, :] / 6.0
    local *= coeffs.alpha
    return _scatter(mesh, local, interior_only, cols="vector")


def assemble_permeability_stiffness(mesh: Mesh, coeffs: Coefficients, u_interior,
                                    interior_only=True) -> sp.csr_matrix:
    """Stiffness of b(u; ., .) with the mobility frozen at the given displacement.

    The dilatation of a P1 displacement is constant per element, so the
    permeability is evaluated exactly once per element; no quadrature
    choice arises.
    """
    b, c, area = triangle_geometry(mesh)
    s = element_divergence(mesh, u_interior)
    kappa = coeffs.mobility(s)
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
        * (kappa / (4.0 * area))[:, None, None]
    return _scatter(mesh, local, interior_only)


def _edge_midpoints(mesh: Mesh):
    pts = mesh.nodes[mesh.triangles]          # (E, 3, 2)
    return 0.5 * (pts + np.roll(pts, -1, axis=1))  # midpoints of edges (0,1),(1,2),(2,0)


# vertex weights of the edge-midpoint rule: vertex i gets 1/2 on its two edges
_MIDPOINT_VERTEX_WEIGHTS = 0.5 * np.array([[1.0, 0.0, 1.0],
                                           [1.0, 1.0, 0.0],
                                           [0.0, 1.0, 1.0]])


def _add_midpoint_load(out, dofs, area, vals):
    """Add int v q dx to ``out`` from the values of v at the (E, 3) edge midpoints."""
    vals = np.broadcast_to(np.asarray(vals, dtype=float), dofs.shape)
    np.add.at(out, dofs, (area / 3.0)[:, None] * (vals @ _MIDPOINT_VERTEX_WEIGHTS.T))


def assemble_load_q(mesh: Mesh, g, t: float, interior_only=True) -> np.ndarray:
    """Pressure load vector int g q dx by the edge-midpoint rule."""
    _, _, area = triangle_geometry(mesh)
    mid = _edge_midpoints(mesh)
    out = np.zeros(mesh.num_nodes)
    _add_midpoint_load(out, mesh.triangles, area, g(mid[..., 0], mid[..., 1], t))
    return mesh.restrict_scalar(out) if interior_only else out


def assemble_load_v(mesh: Mesh, f, t: float, interior_only=True) -> np.ndarray:
    """Displacement load vector int f . v dx by the edge-midpoint rule."""
    _, _, area = triangle_geometry(mesh)
    mid = _edge_midpoints(mesh)
    out = np.zeros(2 * mesh.num_nodes)
    for comp, vals in enumerate(f(mid[..., 0], mid[..., 1], t)):
        _add_midpoint_load(out, 2 * mesh.triangles + comp, area, vals)
    return mesh.restrict_vector(out) if interior_only else out
