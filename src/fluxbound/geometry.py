"""Simplicial meshes in arbitrary dimension d >= 2 with cached geometry.

Conventions used throughout the package:

* element vertex ids are sorted ascending per element and elements are sorted
  lexicographically (canonical form, makes every downstream computation
  independent of the input ordering);
* a local facet index i refers to the facet opposite local vertex i;
* facet vertex ids are stored sorted ascending ("canonical facet order") and
  per-facet vertex data (flux values, residuals) follows that order; with the
  sorted element vertices this makes slot j of facet i the local vertex
  ``facet_vertices(d)[i, j]``, the same for every element;
* each facet carries an orientation sign: +1 for the incident element with the
  smaller element id (the "plus side"), -1 for the other.

Mesh text format (whitespace separated, '#' comments):

    DIM d
    POINTS n        followed by n lines of d coordinates
    CELLS m         followed by m lines of d+1 vertex ids and kappa
    BOUNDARY k      followed by k lines of d vertex ids and a tag D or N, one per facet
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateSimplex, KappaJumpWarning, MeshFormatError,
                     NonConformingMesh)

INTERIOR, DIRICHLET, NEUMANN = 0, 1, 2

DEGENERACY_FACTOR = 1e-14  # reject elements with volume < factor * h^d
KAPPA_JUMP_WARN = 100.0    # warn when kappa jumps by more than this within a vertex patch


# ---------------------------------------------------------------------------
# simplex geometry
# ---------------------------------------------------------------------------

def simplex_measure(verts):
    """k-dimensional measure of the simplices in a (..., k+1, d) vertex array.

    Full-dimensional simplices (k = d) use |det E| / d!; lower-dimensional ones
    embedded in R^d (facets) use the Gram determinant of the edge vectors. No
    degeneracy check: sub-simplices of cones and extensions are legitimately thin.
    """
    verts = np.asarray(verts, dtype=float)
    k, d = verts.shape[-2] - 1, verts.shape[-1]
    edges = verts[..., 1:, :] - verts[..., :1, :]
    if k == d:
        return np.abs(np.linalg.det(np.swapaxes(edges, -1, -2))) / math.factorial(d)
    gram = edges @ np.swapaxes(edges, -1, -2)
    return np.sqrt(np.maximum(np.linalg.det(gram), 0.0)) / math.factorial(k)


def simplex_gradients(pts) -> np.ndarray:
    """(k, d+1, d) barycentric gradients of the d-simplices in a (k, d+1, d)
    vertex array; no degeneracy check, as for simplex_measure."""
    pts = np.asarray(pts, dtype=float)
    inv = np.linalg.inv(np.swapaxes(pts[:, 1:] - pts[:, :1], 1, 2))  # row i-1 = grad lambda_i
    grads = np.empty_like(pts)
    grads[:, 1:] = inv
    grads[:, 0] = -inv.sum(axis=1)
    return grads


class SimplexGeometry(NamedTuple):
    volumes: np.ndarray         # (k,)
    grads: np.ndarray           # (k, d+1, d) barycentric gradients
    facet_measures: np.ndarray  # (k, d+1), facet opposite each vertex
    diameters: np.ndarray       # (k,)
    inradii: np.ndarray         # (k,)


def simplex_geometry(pts) -> SimplexGeometry:
    """Geometry of the d-simplices in a (k, d+1, d) vertex array.

    A simplex of volume below DEGENERACY_FACTOR * h^d raises DegenerateSimplex.
    """
    pts = np.asarray(pts, dtype=float)
    d = pts.shape[2]
    volumes = simplex_measure(pts)
    i, j = np.triu_indices(d + 1, 1)
    diameters = np.sqrt(((pts[:, i] - pts[:, j]) ** 2).sum(-1).max(axis=1))
    bad = volumes < DEGENERACY_FACTOR * diameters ** d
    if np.any(bad):
        e = int(np.flatnonzero(bad)[0])
        raise DegenerateSimplex(f"simplex {e}: volume {volumes[e]:.3e} below "
                                f"threshold for h={diameters[e]:.3e}")
    grads = simplex_gradients(pts)
    # |gamma_i| = d |K| |grad lambda_i|
    facet_measures = d * volumes[:, None] * np.linalg.norm(grads, axis=2)
    return SimplexGeometry(
        volumes=volumes, grads=grads, facet_measures=facet_measures, diameters=diameters,
        inradii=d * volumes / facet_measures.sum(axis=1))


# ---------------------------------------------------------------------------
# facet adjacency
# ---------------------------------------------------------------------------

def facet_vertices(d: int) -> np.ndarray:
    """(d+1, d) table: row i lists the local vertices of facet i, all but i, in
    element order. Element and facet vertex ids are both stored sorted, so value
    j of the per-vertex data of facet i belongs to local vertex [i, j]."""
    j = np.arange(d)
    return j + (j >= np.arange(d + 1)[:, None])


def build_facet_adjacency(simplices: np.ndarray):
    """Facet table of a conforming element list.

    Returns ``(facets, facet_elems, facet_local, elem_facets, elem_sigma)``:
    facets (nf, d) canonical vertex ids; facet_elems (nf, 2) element ids with -1
    for the missing side of a boundary facet; facet_local the matching local
    facet indices; elem_facets (ne, d+1) the inverse map; elem_sigma (ne, d+1)
    the orientation signs (+1 on the smaller incident element id).
    """
    ne, dp1 = simplices.shape
    d = dp1 - 1
    faces = simplices[:, facet_vertices(d)].reshape(ne * dp1, d)  # row e*(d+1)+i: facet i of e
    order = np.lexsort(faces.T[::-1])
    faces_sorted = faces[order]
    new_group = np.ones(len(faces_sorted), dtype=bool)
    new_group[1:] = np.any(faces_sorted[1:] != faces_sorted[:-1], axis=1)
    group_ids = np.cumsum(new_group) - 1
    nf = group_ids[-1] + 1 if len(group_ids) else 0
    counts = np.bincount(group_ids, minlength=nf)
    if np.any(counts > 2):
        bad = np.flatnonzero(counts > 2)[0]
        verts = faces_sorted[np.searchsorted(group_ids, bad)]
        raise NonConformingMesh(
            f"facet {tuple(int(v) for v in verts)} is shared by {counts[bad]} elements")

    facets = faces_sorted[new_group]
    facet_elems = np.full((nf, 2), -1, dtype=np.int64)
    facet_local = np.full((nf, 2), -1, dtype=np.int64)
    elems_sorted, locals_sorted = np.divmod(order, dp1)
    starts = np.flatnonzero(new_group)
    # lexsort is stable and faces are laid out element by element, so the first
    # face of a group belongs to the smaller element id: side 0 is the plus side
    facet_elems[:, 0] = elems_sorted[starts]
    facet_local[:, 0] = locals_sorted[starts]
    two = counts == 2
    facet_elems[two, 1] = elems_sorted[starts[two] + 1]
    facet_local[two, 1] = locals_sorted[starts[two] + 1]

    elem_facets = np.empty((ne, dp1), dtype=np.int64)
    elem_facets.flat[order] = group_ids
    elem_sigma = np.empty((ne, dp1), dtype=np.int8)
    elem_sigma.flat[order] = np.where(new_group, 1, -1)
    return facets, facet_elems, facet_local, elem_facets, elem_sigma


# ---------------------------------------------------------------------------
# the mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mesh:
    """Immutable conforming simplicial mesh with boundary tags and per-element kappa.

    All geometric quantities the estimator needs are precomputed; queries are
    pure reads and safe for concurrent use.
    """

    dim: int
    points: np.ndarray          # (n_points, d)
    simplices: np.ndarray       # (ne, d+1), canonical
    kappa: np.ndarray           # (ne,)
    facets: np.ndarray          # (nf, d), canonical vertex order
    facet_elems: np.ndarray     # (nf, 2), -1 for missing side
    facet_local: np.ndarray     # (nf, 2)
    facet_tag: np.ndarray       # (nf,), INTERIOR / DIRICHLET / NEUMANN
    elem_facets: np.ndarray     # (ne, d+1)
    elem_sigma: np.ndarray      # (ne, d+1)
    volumes: np.ndarray         # (ne,)
    bary_grads: np.ndarray      # (ne, d+1, d)
    facet_measures: np.ndarray  # (nf,)
    diameters: np.ndarray       # (ne,) h_K
    inradii: np.ndarray         # (ne,) rho_K
    _vertex_elem_offsets: np.ndarray = field(repr=False)
    _vertex_elem_data: np.ndarray = field(repr=False)   # (k, 2): element, local vertex
    _vertex_facet_data: np.ndarray = field(repr=False)  # (k, 2): facet, slot; by vertex

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            val = getattr(self, name)
            if isinstance(val, np.ndarray):
                val.setflags(write=False)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_elements(self) -> int:
        return len(self.simplices)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @cached_property
    def layer(self) -> np.ndarray:
        """(ne,) True where kappa*rho > 1: the layer variant and the least-squares rows."""
        layer = self.kappa * self.inradii > 1.0
        layer.setflags(write=False)
        return layer

    @property
    def neumann(self) -> np.ndarray:
        """Ids of the Neumann facets, in the row order of ``FemSolution.gn_loads``."""
        return np.flatnonzero(self.facet_tag == NEUMANN)

    @property
    def dirichlet_vertices(self) -> np.ndarray:
        return np.unique(self.facets[self.facet_tag == DIRICHLET])

    def outward_normals(self) -> np.ndarray:
        """(ne, d+1, d) unit outward normal of the facet opposite each local vertex."""
        g = self.bary_grads
        return -g / np.linalg.norm(g, axis=2, keepdims=True)


def build_mesh(points, cells, kappa, boundary) -> Mesh:
    """Construct a canonical immutable mesh.

    ``boundary`` is either a dict mapping sorted boundary-facet vertex tuples to
    'D'/'N', or a callable receiving the (k, d) centroids of the discovered
    boundary facets and returning a boolean array (True = Dirichlet).
    Dirichlet and Neumann facets must cover the whole boundary. A kappa jump by
    more than KAPPA_JUMP_WARN within a vertex patch emits a KappaJumpWarning.
    """
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be an (n, d) array")
    d = points.shape[1]
    if d < 2:
        raise ValueError("only d >= 2 is supported")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite entries")
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    if cells.ndim != 2 or cells.shape[1] != d + 1:
        raise ValueError("cells must be an (ne, d+1) array")
    if np.any(cells < 0) or np.any(cells >= len(points)):
        raise ValueError("cell vertex id out of range")
    kappa = np.broadcast_to(np.asarray(kappa, dtype=float), (len(cells),)).copy()
    if np.any(kappa < 0) or not np.all(np.isfinite(kappa)):
        raise ValueError("kappa must be finite and nonnegative")

    # canonical form: sorted vertex ids per element, elements sorted lexicographically
    cells = np.sort(cells, axis=1)
    if np.any(cells[:, :-1] == cells[:, 1:]):
        raise ValueError("an element repeats a vertex id")
    order = np.lexsort(cells.T[::-1])
    cells = cells[order]
    kappa = kappa[order]

    facets, facet_elems, facet_local, elem_facets, elem_sigma = build_facet_adjacency(cells)

    boundary_mask = facet_elems[:, 1] < 0
    facet_tag = np.full(len(facets), INTERIOR, dtype=np.int8)
    bidx = np.flatnonzero(boundary_mask)
    if callable(boundary):
        cent = points[facets[bidx]].mean(axis=1)
        isdir = np.asarray(boundary(cent), dtype=bool)
        if isdir.shape != (len(bidx),):
            raise ValueError("boundary rule must return one flag per boundary facet")
        facet_tag[bidx] = np.where(isdir, DIRICHLET, NEUMANN)
    else:
        tags = dict(boundary)
        for fi in bidx:
            key = tuple(int(v) for v in facets[fi])
            try:
                t = tags.pop(key)
            except KeyError:
                raise MeshFormatError(f"boundary facet {key} has no D/N tag") from None
            if t not in ("D", "N"):
                raise MeshFormatError(f"unknown boundary tag {t!r} for facet {key}")
            facet_tag[fi] = DIRICHLET if t == "D" else NEUMANN
        if tags:
            key = next(iter(tags))
            raise MeshFormatError(f"tagged facet {key} is not a boundary facet of the mesh")

    geom = simplex_geometry(points[cells])
    facet_measures = np.zeros(len(facets))
    facet_measures[elem_facets.ravel()] = geom.facet_measures.ravel()

    # the (element, local vertex) and (facet, slot) entries by vertex
    ve = np.column_stack(np.divmod(np.argsort(cells.ravel(), kind="stable"), d + 1))
    vf = np.column_stack(np.divmod(np.argsort(facets.ravel(), kind="stable"), d))
    veo = np.zeros(len(points) + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells.ravel(), minlength=len(points)), out=veo[1:])

    _warn_kappa_jumps(kappa, veo, ve[:, 0])

    return Mesh(
        dim=d, points=points, simplices=cells, kappa=kappa,
        facets=facets, facet_elems=facet_elems, facet_local=facet_local,
        facet_tag=facet_tag, elem_facets=elem_facets, elem_sigma=elem_sigma,
        volumes=geom.volumes, bary_grads=geom.grads, facet_measures=facet_measures,
        diameters=geom.diameters, inradii=geom.inradii,
        _vertex_elem_offsets=veo, _vertex_elem_data=ve, _vertex_facet_data=vf,
    )


def _warn_kappa_jumps(kappa, offsets, elems_sorted):
    pos = kappa > 0
    if not np.any(pos):
        return
    kmax = np.zeros(len(offsets) - 1)
    kmin = np.full(len(offsets) - 1, np.inf)
    keys = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    kv = kappa[elems_sorted]
    sel = kv > 0
    np.maximum.at(kmax, keys[sel], kv[sel])
    np.minimum.at(kmin, keys[sel], kv[sel])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(kmax > 0, kmax / kmin, 1.0)
    worst = np.nanmax(ratios) if len(ratios) else 1.0
    if worst > KAPPA_JUMP_WARN:
        warnings.warn(
            f"reaction coefficient jumps by a factor {worst:.3g} within a vertex patch "
            f"(warning threshold {KAPPA_JUMP_WARN:g}); robustness assumptions may be stretched",
            KappaJumpWarning, stacklevel=3)


# ---------------------------------------------------------------------------
# structured cube mesh (Kuhn / Freudenthal triangulation)
# ---------------------------------------------------------------------------

def build_cube_mesh(M: int, dim: int, kappa_fn) -> Mesh:
    """Mesh of the cube (-1, 1)^dim: M^dim subcubes, each split into dim! simplices.

    The Kuhn (sort-based) triangulation is used, which is conforming across
    subcube faces and shares the main diagonal of each subcube. ``kappa_fn``
    maps element centroids (ne, d) to kappa values (a scalar is broadcast).
    The faces x_1 = +-1 are Dirichlet, the rest Neumann.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    grid = np.stack(np.meshgrid(*([np.arange(M + 1)] * dim), indexing="ij"), axis=-1)
    points = -1.0 + 2.0 * grid.reshape(-1, dim) / M
    shape = (M + 1,) * dim

    corners = np.stack(np.meshgrid(*([np.arange(M)] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    steps = np.eye(dim, dtype=np.int64)
    cell_blocks = []
    for perm in itertools.permutations(range(dim)):
        offsets = np.concatenate([np.zeros((1, dim), dtype=np.int64),
                                  np.cumsum(steps[list(perm)], axis=0)])
        multi = corners[:, None, :] + offsets[None, :, :]       # (Mc, d+1, d)
        cell_blocks.append(np.ravel_multi_index(np.moveaxis(multi, -1, 0), shape))
    cells = np.concatenate(cell_blocks, axis=0)

    centroids = points[cells].mean(axis=1)
    kappa = kappa_fn(centroids) if callable(kappa_fn) else kappa_fn

    return build_mesh(points, cells, kappa, lambda c: np.abs(np.abs(c[:, 0]) - 1.0) < 1e-12)


# ---------------------------------------------------------------------------
# mesh text format
# ---------------------------------------------------------------------------

def read_mesh(path) -> Mesh:
    """Read a mesh file in the text format (see module docstring)."""
    with open(path, "r", encoding="utf-8") as fh:
        toks = [tok for line in fh for tok in line.split("#", 1)[0].split()]
    pos = 0

    def expect(kw):
        nonlocal pos
        if pos >= len(toks) or toks[pos] != kw:
            got = toks[pos] if pos < len(toks) else "<eof>"
            raise MeshFormatError(f"expected {kw}, got {got}")
        pos += 1

    def take(n, conv):
        nonlocal pos
        if pos + n > len(toks):
            raise MeshFormatError("unexpected end of file")
        try:
            out = [conv(t) for t in toks[pos:pos + n]]
        except ValueError as exc:
            raise MeshFormatError(str(exc)) from None
        pos += n
        return out

    def count(kw):
        expect(kw)
        n = take(1, int)[0]
        if n < 0:
            raise MeshFormatError(f"{kw} must be >= 0, got {n}")
        return n

    expect("DIM")
    d = take(1, int)[0]
    if d < 2:
        raise MeshFormatError(f"DIM must be >= 2, got {d}")
    n = count("POINTS")
    points = np.array(take(n * d, float)).reshape(n, d)
    m = count("CELLS")
    cells = np.empty((m, d + 1), dtype=np.int64)
    kappa = np.empty(m)
    for i in range(m):
        cells[i] = take(d + 1, int)
        kappa[i] = take(1, float)[0]
    k = count("BOUNDARY")
    boundary = {}
    for _ in range(k):
        key = tuple(sorted(take(d, int)))
        if key in boundary:
            raise MeshFormatError(f"boundary facet {key} is listed twice")
        boundary[key] = take(1, str)[0]
    if pos != len(toks):
        raise MeshFormatError(f"trailing tokens starting at {toks[pos]!r}")
    try:
        return build_mesh(points, cells, kappa, boundary)
    except ValueError as exc:   # e.g. a negative kappa or a bad vertex id
        raise MeshFormatError(str(exc)) from None


def write_mesh(mesh: Mesh, path: str) -> None:
    """Write a mesh in the text format (see module docstring)."""
    lines = [f"DIM {mesh.dim}", f"POINTS {mesh.n_points}"]
    lines += [" ".join(f"{c:.17g}" for c in p) for p in mesh.points]
    lines.append(f"CELLS {mesh.n_elements}")
    lines += [" ".join(str(v) for v in s) + f" {k:.17g}"
              for s, k in zip(mesh.simplices, mesh.kappa)]
    bidx = np.flatnonzero(mesh.facet_tag != INTERIOR)
    lines.append(f"BOUNDARY {len(bidx)}")
    for fi in bidx:
        tag = "D" if mesh.facet_tag[fi] == DIRICHLET else "N"
        lines.append(" ".join(str(v) for v in mesh.facets[fi]) + f" {tag}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
