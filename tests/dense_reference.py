"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written differently from the library:
dense matrices, plain element loops, basis gradients obtained by solving
small linear systems (once per element and mesh), and quadrature
evaluated from barycentric coordinates.  Slow but simple enough to audit
by eye.  The one exception is the solver pieces at the end: the stacked
block operator, which the library only applies block by block, the
block solve through a dense pressure Schur complement, which the
library's CG on that complement must reproduce, and the multigrid
V-cycle with its coarse operators formed by scipy's sparse products,
which the library's per-mesh Galerkin maps replace.
"""

import dataclasses
import weakref

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from biotbench import linsolve

_ELEMENTS = weakref.WeakKeyDictionary()


def _elements(mesh):
    """Each element's node numbers, basis gradients and area, in element order.

    Computed by one loop over the elements on a mesh's first use and kept
    while the mesh lives, so an oracle called once per time step solves
    no linear system after its first call.
    """
    elements = _ELEMENTS.get(mesh)
    if elements is None:
        elements = _ELEMENTS[mesh] = [
            (tri, _basis_gradients(mesh.nodes[tri]), _tri_area(mesh.nodes[tri]))
            for tri in mesh.triangles]
    return elements


def _basis_gradients(pts):
    """Gradients of the three P1 basis functions on one triangle.

    Solves V @ coeffs_i = e_i with rows (1, x_j, y_j); the gradient of
    basis i is coeffs_i[1:].
    """
    V = np.column_stack([np.ones(3), pts[:, 0], pts[:, 1]])
    coeffs = np.linalg.solve(V, np.eye(3))
    return coeffs[1:, :].T  # (3, 2): row i is grad of basis i


def _area(pts):
    return 0.5 * abs(np.linalg.det(np.column_stack([pts[:, 1] - pts[:, 0],
                                                    pts[:, 2] - pts[:, 0]]).T))


def _tri_area(pts):
    e1 = pts[1] - pts[0]
    e2 = pts[2] - pts[0]
    return 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])


def dense_laplace(mesh, weight_per_element=None):
    """Full-space grad-grad matrix, optionally with a per-element weight."""
    N = mesh.num_nodes
    out = np.zeros((N, N))
    for e, (tri, grads, area) in enumerate(_elements(mesh)):
        w = 1.0 if weight_per_element is None else weight_per_element[e]
        # entry (i, j) of the element matrix is w * area * grad_i . grad_j
        out[np.ix_(tri, tri)] += w * area * (grads @ grads.T)
    return out


def dense_mass(mesh, scale=1.0):
    """Full-space mass matrix via the (exact) edge-midpoint quadrature rule."""
    N = mesh.num_nodes
    out = np.zeros((N, N))
    # barycentric coordinates of the three edge midpoints
    bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        area = _tri_area(pts)
        for q in range(3):
            for i in range(3):
                for j in range(3):
                    out[tri[i], tri[j]] += scale * (area / 3.0) * bary[q, i] * bary[q, j]
    return out


def dense_elasticity(mesh, lam, mu):
    """Full-space elastic stiffness; dofs interleaved as (2*node, 2*node+1)."""
    N = mesh.num_nodes
    out = np.zeros((2 * N, 2 * N))
    for tri, grads, area in _elements(mesh):
        # the six local basis fields: dof, symmetric gradient, divergence
        fields = []
        for i in range(3):
            for ci in range(2):
                eps = np.zeros((2, 2))
                eps[ci] = grads[i]
                fields.append((2 * tri[i] + ci, 0.5 * (eps + eps.T), grads[i][ci]))
        for row, eps_i, div_i in fields:
            for col, eps_j, div_j in fields:
                out[row, col] += area * (2 * mu * np.sum(eps_i * eps_j) + lam * div_i * div_j)
    return out


def dense_coupling(mesh, alpha):
    """Full-space coupling matrix: rows pressure nodes, columns u dofs."""
    N = mesh.num_nodes
    out = np.zeros((N, 2 * N))
    for tri, grads, area in _elements(mesh):
        for i in range(3):           # pressure basis, int_T lambda_i = area/3
            for j in range(3):
                for cj in range(2):
                    out[tri[i], 2 * tri[j] + cj] += alpha * (area / 3.0) * grads[j][cj]
    return out


def dense_permeability_stiffness(mesh, coeffs, u_interior):
    """Full-space nonlinear-diffusion stiffness with kappa at div(u_h)."""
    full_u = mesh.extend_vector(u_interior)
    weights = []
    for tri, grads, _ in _elements(mesh):
        div = sum(full_u[2 * tri[j]] * grads[j][0] + full_u[2 * tri[j] + 1] * grads[j][1]
                  for j in range(3))
        weights.append(coeffs.kappa_over_nu * coeffs.permeability.eval(div))
    return dense_laplace(mesh, weight_per_element=np.asarray(weights))


def dense_load_q(mesh, g, t):
    """Full-space scalar load by the edge-midpoint rule."""
    out = np.zeros(mesh.num_nodes)
    bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        area = _tri_area(pts)
        for q in range(3):
            point = bary[q] @ pts
            val = g(point[0], point[1], t)
            for i in range(3):
                out[tri[i]] += (area / 3.0) * bary[q, i] * val
    return out


def dense_load_v(mesh, f, t):
    out = np.zeros(2 * mesh.num_nodes)
    bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        area = _tri_area(pts)
        for q in range(3):
            point = bary[q] @ pts
            f1, f2 = f(point[0], point[1], t)
            for i in range(3):
                out[2 * tri[i]] += (area / 3.0) * bary[q, i] * f1
                out[2 * tri[i] + 1] += (area / 3.0) * bary[q, i] * f2
    return out


def eight_trig_forcing(coeffs):
    """ex42's f and g with each trig product written out, eight sin/cos calls apiece."""
    PI = np.pi
    lam, mu, alpha, M = coeffs.lam, coeffs.mu, coeffs.alpha, coeffs.M

    def f(x, y, t):
        S = np.sin(PI * x) * np.sin(PI * y)
        CC = np.cos(PI * x) * np.cos(PI * y)
        body = PI**2 / 6.0 * np.exp(-t) * ((3 * mu + lam) * S - (lam + mu) * CC)
        f1 = body + alpha * PI * t * np.cos(PI * x) * np.sin(PI * y)
        f2 = body + alpha * PI * t * np.sin(PI * x) * np.cos(PI * y)
        return f1, f2

    def g(x, y, t):
        S = np.sin(PI * x) * np.sin(PI * y)
        CC = np.cos(PI * x) * np.cos(PI * y)
        C1 = np.cos(PI * x) * np.sin(PI * y)
        C2 = np.sin(PI * x) * np.cos(PI * y)
        ew = np.exp(-t)
        s = PI / 6.0 * ew * (C1 + C2)                      # dilatation
        m = coeffs.kappa_over_nu * coeffs.permeability.eval(s)
        dm = coeffs.kappa_over_nu * coeffs.permeability.derivative(s)
        storage = -alpha * PI / 6.0 * ew * (C1 + C2) + S / M
        diffusion = 2.0 * PI**2 * t * m * S \
            - dm * PI**3 * t / 6.0 * ew * (CC - S) * (C1 + C2)
        return storage + diffusion

    return f, g


def scipy_csr(op):
    """A pressure-space operator (``linsolve.CsrArrays``) as a scipy CSR matrix.

    The matrix owns copies of op's arrays, so an oracle may add, scale,
    index or modify it as scipy allows, and the library's operator and
    the scalar plan it shares are left as they are.
    """
    return sp.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape, copy=True)


def unconstrained(mesh):
    """The mesh with no Dirichlet node, on which the library assembles the full-space operators.

    Its displacement unknowns are all 2 * num_nodes dofs, so a state u of
    ``mesh`` enters as ``mesh.extend_vector(u)``.
    """
    return dataclasses.replace(mesh, interior_index=np.arange(mesh.num_nodes))


def restrict_dense(mesh, mat, rows="scalar", cols="scalar"):
    """Cut a dense full-space matrix down to interior dofs."""
    def keep(kind):
        if kind == "scalar":
            return mesh.interior_nodes
        return mesh.interior_displacement_dofs()
    return mat[np.ix_(keep(rows), keep(cols))]


def barycentric_eval(mesh, values, x, y):
    """Evaluate a P1 nodal function at one point by searching all triangles."""
    point = np.array([x, y])
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        V = np.column_stack([np.ones(3), pts[:, 0], pts[:, 1]])
        lam = np.linalg.solve(V.T, np.array([1.0, x, y]))
        if np.all(lam >= -1e-12):
            return float(lam @ values[tri])
    raise ValueError(f"point {point} not inside any triangle")


# five-point finite-difference stencils, interior of smooth functions

def fd_derivative(fn, x, delta=1e-4):
    return (-fn(x + 2 * delta) + 8 * fn(x + delta)
            - 8 * fn(x - delta) + fn(x - 2 * delta)) / (12 * delta)


def strong_form_residual(problem, x, y, t, delta=1e-4):
    """Residuals of the two strong equations at one point, all derivatives
    by nested five-point finite differences of the closed-form pair."""
    coeffs = problem.coeffs
    lam, mu, alpha, M = coeffs.lam, coeffs.mu, coeffs.alpha, coeffs.M

    def u(comp, xx, yy, tt=t):
        return float(problem.exact_u(xx, yy, tt)[comp])

    def p(xx, yy, tt=t):
        return float(problem.exact_p(xx, yy, tt))

    def grad_u(comp, xx, yy):
        return np.array([fd_derivative(lambda s: u(comp, s, yy), xx, delta),
                         fd_derivative(lambda s: u(comp, xx, s), yy, delta)])

    def div_u(xx, yy):
        return grad_u(0, xx, yy)[0] + grad_u(1, xx, yy)[1]

    def sigma(xx, yy):
        g0 = grad_u(0, xx, yy)
        g1 = grad_u(1, xx, yy)
        grad = np.array([g0, g1])
        eps = 0.5 * (grad + grad.T)
        return 2 * mu * eps + lam * np.trace(eps) * np.eye(2)

    # momentum balance: -div(sigma) + grad(alpha p) - f = 0
    dsig_x = fd_derivative(lambda s: sigma(s, y)[:, 0], x, delta)
    dsig_y = fd_derivative(lambda s: sigma(x, s)[:, 1], y, delta)
    grad_p = np.array([fd_derivative(lambda s: p(s, y), x, delta),
                       fd_derivative(lambda s: p(x, s), y, delta)])
    f_val = np.array(problem.f(x, y, t), dtype=float) if problem.f else np.zeros(2)
    res_momentum = -(dsig_x + dsig_y) + alpha * grad_p - f_val

    # mass balance: d/dt(alpha div u + p/M) - div(m(div u) grad p) - g = 0
    storage = fd_derivative(lambda s: alpha * div_u_t(problem, x, y, s, delta)
                            + p(x, y, s) / M, t, delta)

    def flux(xx, yy):
        m = coeffs.kappa_over_nu * coeffs.permeability.eval(div_u(xx, yy))
        gp = np.array([fd_derivative(lambda s: p(s, yy), xx, delta),
                       fd_derivative(lambda s: p(xx, s), yy, delta)])
        return m * gp

    div_flux = fd_derivative(lambda s: flux(s, y)[0], x, delta) \
        + fd_derivative(lambda s: flux(x, s)[1], y, delta)
    g_val = float(problem.g(x, y, t))
    res_mass = storage - div_flux - g_val
    return res_momentum, res_mass


def div_u_t(problem, x, y, t, delta):
    def u(comp, xx, yy):
        return float(problem.exact_u(xx, yy, t)[comp])
    dux = fd_derivative(lambda s: u(0, s, y), x, delta)
    duy = fd_derivative(lambda s: u(1, x, s), y, delta)
    return dux + duy


# the block system through its dense pressure Schur complement


def stacked_block_operator(system):
    """The monolithic K = [[A, -D^T], [D, P]] of a ``linsolve.BlockSystem``, as CSR.

    Stacked here by ``sp.bmat`` from the system's blocks ``A``, ``D`` and
    ``pressure``, with scipy's own transpose of D: the library applies K
    block by block and keeps no stacked operator, so the oracles build
    theirs.
    """
    return sp.bmat([[system.A, -system.D.T], [system.D, scipy_csr(system.pressure)]],
                   format="csr")


def reference_schur_solve(system, rhs_u, rhs_p):
    """Solve K (u, p) = (f, g) with S = P + D A^-1 D^T formed densely.

    A, D and the pressure block P are read off the dense monolithic K
    (``stacked_block_operator``), S is formed with ``np.linalg.solve`` on A,
    p solves S p = g - D A^-1 f and u is recovered from p as A^-1 (f + D^T p).
    """
    K = stacked_block_operator(system).toarray()
    nu = system.A.shape[0]
    A, D, P = K[:nu, :nu], K[nu:, :nu], K[nu:, nu:]
    S = P + D @ np.linalg.solve(A, D.T)
    p = np.linalg.solve(S, rhs_p - D @ np.linalg.solve(A, rhs_u))
    return np.linalg.solve(A, rhs_u + D.T @ p), p


class ProductVCycle:
    """The pressure V-cycle with its coarse operators formed as R @ (A @ P).

    Takes what ``linsolve._VCycle`` takes, the finest operator's values
    on ``levels[0].fine`` and the hierarchy, and reads of each level
    only P and R: the Jacobi weights come from ``diagonal()``, and the
    coarsest level is factored as ``linsolve.SpdFactorization`` factors
    it.  Swapped in for ``linsolve._VCycle``, it gives the CG iterations
    of the scipy-product preconditioner the Galerkin maps replaced.
    """

    def __init__(self, data, levels):
        fine = levels[0].fine
        n = fine.indptr.size - 1
        op = sp.csr_matrix((data, fine.indices, fine.indptr), shape=(n, n))
        self._levels = []
        for level in levels:
            self._levels.append((op, linsolve._JACOBI_WEIGHT / op.diagonal(), level.P, level.R))
            op = level.R @ (op @ level.P)
        self._coarse = splu(sp.csc_matrix(op), permc_spec="MMD_AT_PLUS_A")

    def __call__(self, b, x):
        """Write the cycle applied to ``b`` into ``x``, as ``linsolve._VCycle`` does."""
        x[:] = self._cycle(b, 0)
        return x

    def _cycle(self, b, level):
        if level == len(self._levels):
            return self._coarse.solve(b)
        op, weight, P, R = self._levels[level]
        x = weight * b
        x += P @ self._cycle(R @ (b - op @ x), level + 1)
        for _ in range(linsolve._POST_SWEEPS):
            x += weight * (b - op @ x)
        return x
