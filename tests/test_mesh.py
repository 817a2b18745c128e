import numpy as np
import pytest

from biotbench import build_structured_mesh
from biotbench.mesh import interior_prolongation, prolongation
from dense_reference import barycentric_eval


def on_boundary(mesh):
    """The nodes with x or y in {0, 1}, read off the coordinates."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)


@pytest.mark.parametrize("n,nodes,tris,bnodes,inodes", [
    (1, 4, 2, 4, 0),
    (2, 9, 8, 8, 1),
    (4, 25, 32, 16, 9),
])
def test_counts(n, nodes, tris, bnodes, inodes):
    mesh = build_structured_mesh(n)
    assert mesh.num_nodes == nodes == (n + 1) ** 2
    assert mesh.num_triangles == tris == 2 * n * n
    boundary = on_boundary(mesh)
    assert np.array_equal(mesh.interior_index == -1, boundary)
    assert boundary.sum() == bnodes == 4 * n
    assert mesh.num_pressure_dofs == inodes


def test_rejects_zero_subdivisions():
    with pytest.raises(ValueError):
        build_structured_mesh(0)


@pytest.mark.parametrize("n", [True, False])
def test_rejects_a_bool_subdivision_count(n):
    # bool is an int, so True would build the n = 1 mesh
    with pytest.raises(ValueError):
        build_structured_mesh(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_signed_areas_and_partition(n):
    mesh = build_structured_mesh(n)
    pts = mesh.nodes[mesh.triangles]
    signed = 0.5 * ((pts[:, 1, 0] - pts[:, 0, 0]) * (pts[:, 2, 1] - pts[:, 0, 1])
                    - (pts[:, 2, 0] - pts[:, 0, 0]) * (pts[:, 1, 1] - pts[:, 0, 1]))
    h = 1.0 / n
    assert np.allclose(signed, h * h / 2, rtol=0, atol=1e-15)
    assert abs(signed.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4])
def test_nested_grids(n):
    coarse = build_structured_mesh(n)
    fine = build_structured_mesh(2 * n)
    for node in coarse.nodes:
        dist = np.abs(fine.nodes - node).sum(axis=1).min()
        assert dist < 1e-14


def test_interior_index_is_compaction():
    mesh = build_structured_mesh(4)
    boundary = on_boundary(mesh)
    assert (mesh.interior_index[boundary] == -1).all()
    inner = mesh.interior_index[~boundary]
    assert sorted(inner) == list(range(mesh.num_pressure_dofs))


def test_prolong_zero_and_linear_reproduction():
    coarse = build_structured_mesh(1)
    fine = build_structured_mesh(2)
    assert np.all(prolongation(coarse, fine) @ np.zeros(4) == 0.0)

    x1 = coarse.nodes[:, 0]
    fine_vals = prolongation(coarse, fine) @ x1
    assert np.allclose(fine_vals, fine.nodes[:, 0], atol=1e-15)


def test_prolong_matches_barycentric_oracle():
    # 6 and 3 cells per side are not powers of two, and 3 -> 9 is a ratio of 3
    rng = np.random.default_rng(42)
    for m, n in [(2, 4), (6, 12), (3, 9)]:
        coarse = build_structured_mesh(m)
        fine = build_structured_mesh(n)
        values = rng.standard_normal(coarse.num_nodes)
        result = prolongation(coarse, fine) @ values
        for k, (x, y) in enumerate(fine.nodes):
            assert abs(result[k] - barycentric_eval(coarse, values, x, y)) < 1e-14


def test_prolong_rejects_non_nested():
    with pytest.raises(ValueError):
        prolongation(build_structured_mesh(2), build_structured_mesh(3)) @ np.zeros(9)


def test_prolong_linearity():
    coarse = build_structured_mesh(3)
    fine = build_structured_mesh(6)
    rng = np.random.default_rng(7)
    v, w = rng.standard_normal((2, coarse.num_nodes))
    a, b = 1.7, -0.4
    lhs = prolongation(coarse, fine) @ (a * v + b * w)
    rhs = a * (prolongation(coarse, fine) @ v) + b * (prolongation(coarse, fine) @ w)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_prolong_restriction_roundtrip():
    coarse = build_structured_mesh(3)
    fine = build_structured_mesh(9)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(coarse.num_nodes)
    fine_vals = prolongation(coarse, fine) @ values
    ratio = fine.n // coarse.n
    ci, cj = np.divmod(np.arange(coarse.num_nodes), coarse.n + 1)
    on_fine = (ci * ratio) * (fine.n + 1) + cj * ratio
    assert np.abs(fine_vals[on_fine] - values).max() < 1e-14


@pytest.mark.parametrize("n", [18, 24, 32, 64, 128])
def test_interior_prolongation_is_the_full_one_indexed_down(n):
    coarse, fine = build_structured_mesh(n // 2), build_structured_mesh(n)
    full = prolongation(coarse, fine)[:, coarse.interior_nodes]
    # the Dirichlet rows, and every row, as for a mesh that numbers every node
    for nodes in (fine.interior_nodes, np.arange(fine.num_nodes)):
        expected, got = full[nodes], interior_prolongation(nodes, n)
        assert got.shape == expected.shape
        for a, b in ((got.data, expected.data), (got.indices, expected.indices),
                     (got.indptr, expected.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_vector_helpers_roundtrip():
    mesh = build_structured_mesh(3)
    rng = np.random.default_rng(3)
    interior = rng.standard_normal(mesh.num_displacement_dofs)
    full = mesh.extend_vector(interior)
    assert full.shape == (2 * mesh.num_nodes,)
    assert np.all(mesh.restrict_vector(full) == interior)
    bmask = np.repeat(on_boundary(mesh), 2)
    assert np.all(full[bmask] == 0.0)
