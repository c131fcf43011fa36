import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxbound.equilibration as eq
import fluxbound.geometry as geo
import fluxbound.reconstruction as rec
from fluxbound.errors import (DegenerateSimplex, KappaJumpWarning,
                              MeshFormatError, NonConformingMesh)

from conftest import delaunay_mesh, one_simplex, random_simplex, zoned_mesh
from oracles import (simplex_gradients, simplex_measure, to_local_vertices, vertex_facets,
                     vertex_patch)


# ---------------------------------------------------------------------------
# short sums, entry after entry
# ---------------------------------------------------------------------------

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e308, -1e308, 5e-324])


@pytest.mark.parametrize("n", range(1, 8))
def test_row_sum_and_row_max_are_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    scaled = rng.standard_normal((500, n)) * 10.0 ** rng.integers(-30, 30, (500, n))
    special = rng.choice(SPECIAL, (2000, n))
    with np.errstate(invalid="ignore", over="ignore"):
        for a in (scaled, special, np.asfortranarray(special), special[:, ::-1]):
            assert geo._row_sum(a).tobytes() == a.sum(axis=-1).tobytes()
            assert geo._row_max(a).tobytes() == a.max(axis=-1).tobytes()


def test_row_sum_and_row_max_propagate_a_nan():
    # the audits rely on a NaN being the worst value
    a = np.array([[np.nan, 1.0, -np.inf], [1.0, np.inf, np.nan], [0.0, np.nan, 2.0]])
    assert np.isnan(geo._row_max(a)).all()
    assert np.isnan(geo._row_sum(a)).all()


def test_row_sum_of_eight_or_more_entries_is_numpys_pairwise_sum():
    # numpy sums 8 or more entries pairwise, not in order; _row_sum leaves them to it
    rng = np.random.default_rng(8)
    for n in (8, 9, 16, 17):
        a = rng.standard_normal((300, n)) * 10.0 ** rng.integers(-12, 12, (300, n))
        assert geo._row_sum(a).tobytes() == a.sum(axis=-1).tobytes()


def test_outward_normals_of_ids_are_rows_of_the_whole_result():
    mesh = delaunay_mesh(3, 1000)
    every = mesh.outward_normals()
    ids = np.random.default_rng(3).permutation(mesh.n_elements)[:500]
    assert mesh.outward_normals(ids).tobytes() == every[ids].tobytes()
    assert mesh.outward_normals(slice(100, 700)).tobytes() == every[100:700].tobytes()


# ---------------------------------------------------------------------------
# single-simplex operations
# ---------------------------------------------------------------------------

def test_volume_reference_simplices(unit_triangle):
    tet = np.vstack([np.zeros(3), np.eye(3)])
    assert one_simplex(tet).volumes[0] == pytest.approx(1.0 / 6.0)
    assert one_simplex(unit_triangle).volumes[0] == pytest.approx(0.5)
    big = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert one_simplex(big).volumes[0] == pytest.approx(2.0)


def test_volume_degenerate_raises():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-16]])
    with pytest.raises(DegenerateSimplex):
        one_simplex(flat)


@pytest.mark.parametrize("case", ["random", "delaunay-2", "delaunay-3"])
def test_factorisation_matches_lapack(case):
    # |K| and the barycentric gradients of one LU per simplex agree with
    # np.linalg.det and inv (oracles) to 1e-12, the gradients relative to the
    # largest of their simplex: on random simplices at d = 2..5 and on the
    # slivers of the Delaunay family (worst h/rho 1,868 and 8,411)
    if case == "random":
        rng = np.random.default_rng(12)
        batches = [np.stack([random_simplex(d, rng) for _ in range(200)]) for d in (2, 3, 4, 5)]
    else:
        mesh = delaunay_mesh(2, 2000) if case == "delaunay-2" else delaunay_mesh(3, 1000)
        batches = [mesh.points[mesh.simplices]]
    for pts in batches:
        geom = geo.simplex_geometry(pts)
        assert np.all(np.abs(geom.volumes - simplex_measure(pts)) <= 1e-12 * geom.volumes)
        want = simplex_gradients(pts)
        scale = np.abs(want).max(axis=(1, 2))
        assert np.all(np.abs(geom.grads - want).max(axis=(1, 2)) <= 1e-12 * scale)


@pytest.mark.parametrize("pts", [
    [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],                          # a zero pivot
    [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],                          # h = 0
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-15]],
])
def test_degenerate_simplex_raises_without_a_warning(pts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSimplex):
            one_simplex(np.array(pts))


def test_barycentric_gradients_unit_triangle(unit_triangle):
    g = one_simplex(unit_triangle).grads[0]
    assert np.allclose(g, [[-1, -1], [1, 0], [0, 1]])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 31))
def test_gradient_partition_of_unity(d, seed):
    pts = random_simplex(d, np.random.default_rng(seed))
    g = one_simplex(pts).grads[0]
    assert np.abs(g.sum(axis=0)).max() < 1e-10 * np.abs(g).max()
    # lambda_m(x_n) = delta_mn
    for n in range(d + 1):
        lam = (pts[n] - pts[0]) @ g.T
        lam[0] += 1.0
        assert np.allclose(lam, np.eye(d + 1)[n], atol=1e-10)


def test_gradient_facet_measure_identity(rng):
    # d |K| |grad lambda_m| equals the independently computed facet area
    for _ in range(10):
        pts = random_simplex(3, rng)
        vol = one_simplex(pts).volumes[0]
        g = one_simplex(pts).grads[0]
        for m in range(4):
            fpts = np.delete(pts, m, axis=0)
            v = fpts[1:] - fpts[0]
            area = math.sqrt(np.linalg.det(v @ v.T)) / 2.0
            assert 3 * vol * np.linalg.norm(g[m]) == pytest.approx(area, rel=1e-12)


def test_geometric_quantities_unit_triangle(unit_triangle):
    q = one_simplex(unit_triangle)
    assert q.diameters[0] == pytest.approx(math.sqrt(2.0))
    assert q.inradii[0] == pytest.approx(1.0 / (2.0 + math.sqrt(2.0)), rel=1e-12)
    # altitude over the hypotenuse (facet opposite vertex 0), d |K| / |gamma_0|
    altitudes = 1.0 / np.linalg.norm(q.grads[0], axis=1)
    assert altitudes[0] == pytest.approx(2 * 0.5 / math.sqrt(2.0), rel=1e-12)


def _apex_frame(simplices):
    """``rec._component_first`` on a mesh of disjoint simplices (k, d+1, d): the
    vertices relative to each incentre, the incentre's weights, and the mesh."""
    k, dp1, d = simplices.shape
    mesh = geo.build_mesh(simplices.reshape(-1, d), np.arange(k * dp1).reshape(k, dp1),
                          1.0, lambda c: np.ones(len(c), dtype=bool))
    P, _, w = rec._component_first(mesh, np.arange(k))
    return P, w, mesh


def test_regular_simplex_incentre_is_centroid():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    P, w, _ = _apex_frame(pts[None])
    # the centroid relative to the incentre
    assert np.allclose(P[0].mean(axis=0), 0.0, atol=1e-14)
    assert np.allclose(w[0], 1.0 / 3.0, atol=1e-15)


def test_incentre_distance_to_facets_is_inradius(rng):
    for d in (2, 3, 4):
        pts = random_simplex(d, rng)
        P, _, _ = _apex_frame(pts[None])
        q = one_simplex(pts)
        g = q.grads[0]
        for i in range(d + 1):
            n = g[i] / np.linalg.norm(g[i])
            dist = abs(np.delete(P[0], i, axis=0)[0] @ n)    # of the origin, the incentre
            assert dist == pytest.approx(q.inradii[0], rel=1e-12)


def _plane_distance(facet, x):
    """Distance of x from the affine hull of ``facet``, by Gram-Schmidt in np.longdouble."""
    p0 = facet[0].astype(np.longdouble)
    v = x.astype(np.longdouble) - p0
    basis = []
    for e in facet[1:].astype(np.longdouble) - p0:
        for b in basis:
            e = e - (e @ b) * b
        basis.append(e / np.sqrt(e @ e))
        v = v - (v @ basis[-1]) * basis[-1]
    return float(np.sqrt(v @ v))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_mesh_incentres_equidistant_from_facet_planes(d, rng):
    # the layer indicator's cone Jacobian rho t^(d-1) needs this; each element
    # is its own component, half of them random and half flattened 100x along
    # a random direction (rho/h down to ~2e-4)
    simplices = []
    for k in range(16):
        pts = random_simplex(d, rng)
        if k % 2:
            Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            pts = (pts @ Q * np.r_[np.ones(d - 1), 1e-2]) @ Q.T
        simplices.append(pts)
    # the origin of _component_first's frame is the incentre
    P, _, mesh = _apex_frame(np.stack(simplices))
    assert (mesh.inradii / mesh.diameters).min() < 2e-3
    for e in range(mesh.n_elements):
        for i in range(d + 1):
            dist = _plane_distance(np.delete(P[e], i, axis=0), np.zeros(d))
            assert dist == pytest.approx(mesh.inradii[e], rel=1e-12)


# ---------------------------------------------------------------------------
# facet adjacency and meshes
# ---------------------------------------------------------------------------

def test_two_triangle_square_facets(two_triangle_square):
    mesh = two_triangle_square
    assert mesh.n_facets == 5
    interior = mesh.facet_tag == geo.INTERIOR
    assert interior.sum() == 1
    assert (~interior).sum() == 4


def test_sigma_signs_cancel(rng):
    mesh = geo.build_cube_mesh(2, 3, 1.0)
    for fi in np.flatnonzero(mesh.facet_elems[:, 1] >= 0):
        (ea, eb), (la, lb) = mesh.facet_elems[fi], mesh.facet_local[fi]
        assert mesh.elem_sigma[ea, la] + mesh.elem_sigma[eb, lb] == 0
        assert ea < eb and mesh.elem_sigma[ea, la] == 1
    # straight from a row-sorted element list in shuffled order: side 0 is
    # still the smaller element id and carries sigma = +1
    for m, d in ((3, 2), (2, 3), (1, 4)):
        base = geo.build_cube_mesh(m, d, 1.0)
        cells = base.simplices[rng.permutation(base.n_elements)]
        _, facet_elems, facet_local, elem_facets, elem_sigma = \
            geo.build_facet_adjacency(cells)
        two = np.flatnonzero(facet_elems[:, 1] >= 0)
        assert len(two) == (base.facet_elems[:, 1] >= 0).sum()
        (ea, eb), (la, lb) = facet_elems[two].T, facet_local[two].T
        assert np.all(ea < eb)
        assert np.all(elem_sigma[ea, la] == 1) and np.all(elem_sigma[eb, lb] == -1)
        assert np.array_equal(elem_facets[ea, la], two)
        assert np.array_equal(elem_facets[eb, lb], two)


def test_t_junction_raises():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    cells = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(NonConformingMesh):
        geo.build_facet_adjacency(cells)


def test_cube_mesh_counts_and_volume():
    mesh = geo.build_cube_mesh(16, 3, 1.0)
    assert mesh.n_elements == 6 * 16 ** 3
    ndof = mesh.n_points - len(mesh.dirichlet_vertices)
    assert ndof == 15 * 17 ** 2  # (M-1)(M+1)^2
    assert mesh.volumes.sum() == pytest.approx(8.0, rel=1e-12)

    for m, d in ((3, 2), (2, 3), (1, 4)):
        mesh = geo.build_cube_mesh(m, d, 1.0)
        assert mesh.n_elements == math.factorial(d) * m ** d
        assert mesh.volumes.sum() == pytest.approx(2.0 ** d, rel=1e-12)


def test_cube_mesh_m1_d2():
    mesh = geo.build_cube_mesh(1, 2, 1.0)
    assert mesh.n_elements == 2
    interior = np.flatnonzero(mesh.facet_tag == geo.INTERIOR)
    assert len(interior) == 1 and mesh.n_facets == 5


def test_nondirichlet_count_3d():
    for m in (2, 3):
        mesh = geo.build_cube_mesh(m, 3, 1.0)
        free = mesh.n_points - len(mesh.dirichlet_vertices)
        assert free == (m - 1) * (m + 1) ** 2


def test_boundary_tags_benchmark_rule():
    mesh = geo.build_cube_mesh(2, 3, 1.0)
    for fi in np.flatnonzero(mesh.facet_tag != geo.INTERIOR):
        cent = mesh.points[mesh.facets[fi]].mean(axis=0)
        on_x1 = abs(abs(cent[0]) - 1.0) < 1e-12
        assert (mesh.facet_tag[fi] == geo.DIRICHLET) == on_x1


def test_element_permutation_invariance(rng):
    base = geo.build_cube_mesh(2, 2, lambda c: 1.0 + np.abs(c[:, 0]))
    perm = rng.permutation(base.n_elements)
    tags = {tuple(int(v) for v in base.facets[fi]):
            ("D" if base.facet_tag[fi] == geo.DIRICHLET else "N")
            for fi in np.flatnonzero(base.facet_tag != geo.INTERIOR)}
    other = geo.build_mesh(base.points, base.simplices[perm], base.kappa[perm], tags)
    assert np.array_equal(base.simplices, other.simplices)
    assert np.array_equal(base.kappa, other.kappa)
    assert np.array_equal(base.facets, other.facets)
    assert np.array_equal(base.elem_sigma, other.elem_sigma)


def test_kappa_jump_warning():
    with pytest.warns(KappaJumpWarning):
        geo.build_cube_mesh(2, 2, lambda c: np.where(c[:, 0] < 0, 1e-3, 1e3))


def test_mesh_immutable():
    mesh = geo.build_cube_mesh(1, 2, 1.0)
    with pytest.raises(ValueError):
        mesh.points[0, 0] = 5.0


def test_layer_is_computed_once_and_read_only():
    mesh = geo.build_cube_mesh(2, 2, lambda c: np.where(c[:, 0] < 0, 1.0, 10.0))
    assert mesh.layer is mesh.layer
    assert not mesh.layer.flags.writeable
    assert np.array_equal(mesh.layer, mesh.kappa * mesh.inradii > 1)
    assert mesh.layer.any() and not mesh.layer.all()


def test_delaunay_family_counts():
    mesh = delaunay_mesh(2, 20000)
    assert (mesh.n_points, mesh.n_elements) == (20580, 40578)
    # the 5 grid points and the 141 face points of each Dirichlet face
    assert len(mesh.dirichlet_vertices) == 2 * (5 + 141)


@pytest.mark.parametrize("mesh", [zoned_mesh(2, 4), zoned_mesh(3, 2), delaunay_mesh(2, 2000)],
                         ids=["zoned-2", "zoned-3", "delaunay-2"])
def test_matrix_pattern_places_every_entry_at_its_row_and_column(mesh):
    # the unknowns are the non-Dirichlet vertices of some element (zoned: a
    # point of no element, Dirichlet faces); row i of the padded rows is i and
    # its edge neighbours, ascending, then i again up to the longest row's
    # width; each element entry between two unknowns has its flat position
    # slot * n + row there, every other one the position width * n
    dof = mesh._vertex_to_dof
    dofs = np.flatnonzero(dof >= 0)
    used = np.zeros(mesh.n_points, dtype=bool)
    used[mesh.simplices] = True
    assert np.array_equal(dofs, np.setdiff1d(np.flatnonzero(used), mesh.dirichlet_vertices))
    assert np.array_equal(dof[dofs], np.arange(len(dofs)))
    n, cols = len(dofs), mesh._pattern_cols
    width = cols.shape[0]
    want = [{i} for i in range(n)]
    for cell in dof[mesh.simplices]:
        for a in cell[cell >= 0]:
            want[a] |= set(cell[cell >= 0].tolist())
    lens = np.array([len(row) for row in want])
    assert cols.shape == (width, n) and width == lens.max()
    for i, row in enumerate(want):
        assert cols[:lens[i], i].tolist() == sorted(row)
        assert np.all(cols[lens[i]:, i] == i)     # the padding: the row's own column
    local = dof[mesh.simplices]
    rr, cc = np.broadcast_arrays(local[:, :, None], local[:, None, :])
    pos = mesh._entry_positions
    kept = (rr >= 0) & (cc >= 0)
    assert np.all(pos[~kept] == width * n)
    slot, row = np.divmod(pos[kept], n)
    assert np.array_equal(row, rr[kept]) and np.all(slot < lens[row])
    assert np.array_equal(cols[slot, row], cc[kept])


def test_vertex_patch_consistency():
    mesh = geo.build_cube_mesh(2, 3, 1.0)
    for v in (0, 13, mesh.n_points - 1):
        els, locs = vertex_patch(mesh, v)
        assert np.all(mesh.simplices[els, locs] == v)
        expected = np.flatnonzero((mesh.simplices == v).any(axis=1))
        assert np.array_equal(np.sort(els), expected)
        fids, slots = vertex_facets(mesh, v)
        assert np.all(mesh.facets[fids, slots] == v)
        assert np.array_equal(fids, np.flatnonzero((mesh.facets == v).any(axis=1)))
        # the patch solves read the same (facet, slot) pairs, grouped by vertex
        counts = np.bincount(mesh.facets.ravel(), minlength=mesh.n_points)
        lo = counts[:v].sum()
        assert np.array_equal(mesh._vertex_facet_data[lo:lo + counts[v]],
                              np.column_stack([fids, slots]))


@pytest.mark.parametrize("relabel", [False, True], ids=["cube", "relabelled"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_facet_slots_are_the_constant_table(d, relabel, rng):
    # facet i of every element lists its vertices other than i in element order,
    # so the batched gather needs no per-element slot table
    mesh = geo.build_cube_mesh(2, d, 1.0)
    if relabel:
        perm = rng.permutation(mesh.n_points)
        tags = {tuple(sorted(int(perm[v]) for v in mesh.facets[fi])):
                ("D" if mesh.facet_tag[fi] == geo.DIRICHLET else "N")
                for fi in np.flatnonzero(mesh.facet_tag != geo.INTERIOR)}
        pts = np.empty_like(mesh.points)
        pts[perm] = mesh.points
        mesh = geo.build_mesh(pts, perm[mesh.simplices], 1.0, tags)
    table = geo.facet_vertices(d)
    for i in range(d + 1):
        assert np.array_equal(table[i], np.delete(np.arange(d + 1), i))
        assert np.array_equal(mesh.facets[mesh.elem_facets[:, i]], mesh.simplices[:, table[i]])
    vals = rng.standard_normal((mesh.n_elements, d + 1, d))
    assert np.array_equal(eq._to_local_vertices(vals), to_local_vertices(mesh, vals))
    # elem_facets/elem_sigma invert facet_elems/facet_local: side 0 is the plus side
    e = np.arange(mesh.n_elements)[:, None]
    fe, fl = mesh.facet_elems[mesh.elem_facets], mesh.facet_local[mesh.elem_facets]
    side = np.where(fe[..., 0] == e, 0, 1)[..., None]
    assert np.all(np.take_along_axis(fe, side, 2)[..., 0] == e)
    assert np.all(np.take_along_axis(fl, side, 2)[..., 0] == np.arange(d + 1))
    assert np.array_equal(mesh.elem_sigma, 1 - 2 * side[..., 0])


@pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "n_points"])
def test_build_mesh_rejects_vertex_id_out_of_range(tmp_path, bad):
    points = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="out of range"):
        geo.build_mesh(points, [[0, 1, bad]], 1.0, {})
    text = (f"DIM 2\nPOINTS 3\n0 0\n1 0\n0 1\nCELLS 1\n0 1 {bad} 1.0\n"
            "BOUNDARY 3\n0 1 D\n0 2 N\n1 2 N\n")
    with pytest.raises(MeshFormatError, match="out of range"):
        geo.read_mesh(_mesh_file(tmp_path, text))


# ---------------------------------------------------------------------------
# mesh file format
# ---------------------------------------------------------------------------

def test_mesh_file_roundtrip(tmp_path, monkeypatch):
    mesh = geo.build_cube_mesh(2, 2, lambda c: np.where(c[:, 0] < 0, 2.0, 3.0))
    # a relative file name starting with the DIM keyword is still a path
    monkeypatch.chdir(tmp_path)
    geo.write_mesh(mesh, "DIM_square.mesh")
    back = geo.read_mesh("DIM_square.mesh")
    assert back.dim == mesh.dim
    assert np.array_equal(back.simplices, mesh.simplices)
    assert np.allclose(back.points, mesh.points)
    assert np.array_equal(back.facet_tag, mesh.facet_tag)
    assert np.allclose(back.kappa, mesh.kappa)


def _mesh_file(tmp_path, text):
    path = tmp_path / "input.mesh"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_mesh_text_parsing_with_comments(tmp_path):
    text = """
    # a single reference triangle with one Dirichlet edge
    DIM 2
    POINTS 3
    0 0
    1 0   # second vertex
    0 1
    CELLS 1
    0 1 2 0.5
    BOUNDARY 3
    0 1 D
    0 2 N
    1 2 N
    """
    mesh = geo.read_mesh(_mesh_file(tmp_path, text))
    assert mesh.n_elements == 1
    assert mesh.kappa[0] == 0.5
    assert (mesh.facet_tag == geo.DIRICHLET).sum() == 1


def test_mesh_file_errors(tmp_path):
    with pytest.raises(MeshFormatError):
        geo.read_mesh(_mesh_file(tmp_path, "DIM 2\nPOINTS 1\n0 0\nCELLS 0\nBOUNDARY 0\nJUNK"))
    # a negative count
    for text in ("DIM 2\nPOINTS -1\n0 0\nCELLS 0\nBOUNDARY 0\n",
                 "DIM 2\nPOINTS 3\n0 0\n1 0\n0 1\nCELLS -1\n0 1 2 1.0\nBOUNDARY 0\n"):
        with pytest.raises(MeshFormatError):
            geo.read_mesh(_mesh_file(tmp_path, text))
    # untagged boundary facet
    with pytest.raises(MeshFormatError):
        geo.read_mesh(_mesh_file(tmp_path, "DIM 2\nPOINTS 3\n0 0\n1 0\n0 1\nCELLS 1\n"
                                 "0 1 2 1.0\nBOUNDARY 2\n0 1 D\n0 2 N"))
    # tag for a non-boundary facet
    with pytest.raises(MeshFormatError):
        geo.read_mesh(_mesh_file(tmp_path, "DIM 2\nPOINTS 4\n0 0\n1 0\n0 1\n1 1\nCELLS 2\n"
                                 "0 1 2 1.0\n1 3 2 1.0\nBOUNDARY 5\n0 1 D\n0 2 N\n"
                                 "1 3 N\n2 3 N\n1 2 N"))


@pytest.mark.parametrize("second", ["0 1 D", "1 0 N"], ids=["same-tag", "conflicting-tag"])
def test_mesh_file_boundary_facet_listed_twice(tmp_path, second):
    text = ("DIM 2\nPOINTS 3\n0 0\n1 0\n0 1\nCELLS 1\n0 1 2 1.0\n"
            f"BOUNDARY 4\n0 1 D\n{second}\n0 2 N\n1 2 N\n")
    with pytest.raises(MeshFormatError, match="listed twice"):
        geo.read_mesh(_mesh_file(tmp_path, text))
