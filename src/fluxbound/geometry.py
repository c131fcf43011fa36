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
  smaller element id (the "plus side"), -1 for the other;
* the unknowns of the P1 system are the non-Dirichlet vertices of some element,
  numbered by ascending vertex id; the mesh holds the columns of the P1
  matrix's rows over them, padded to one width (``build_matrix_pattern``),
  and the position of each element-matrix entry in them.

Mesh text format (whitespace separated, '#' comments):

    DIM d
    POINTS n        followed by n lines of d coordinates
    CELLS m         followed by m lines of d+1 vertex ids and kappa
    BOUNDARY k      followed by k lines of d vertex ids and a tag D or N, one per facet
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import warnings
import weakref
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
# short rows: sums entry after entry, gathers by np.take
# ---------------------------------------------------------------------------
# The element stages of the package work on short rows: the d+1 vertices or
# facets of an element, the d components of a vector. numpy serves a reduction
# over such a short axis, and a gather of such rows by an index array or a
# boolean mask, several times slower than the same work written out: the
# reduction entry after entry as whole-vector operations (_dot, _row_sum,
# _row_max), the gather by np.take or np.compress. Below 8 entries numpy adds
# in order, so the sums keep their bits; no result depends on the route of a
# gather.

def _dot(u, v):
    """sum_c u[c] v[c] over the leading (component) axis, one component at a time.

    Pass (k, d) arrays transposed.
    """
    out = u[0] * v[0]
    for c in range(1, len(u)):
        out += u[c] * v[c]
    return out


def _row_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1), bit for bit: below 8 trailing entries added in order, as
    numpy adds that few; 8 or more, which numpy sums pairwise, by numpy."""
    n = a.shape[-1]
    if n >= 8:
        return a.sum(axis=-1)
    out = a[..., 0] + 0.0      # numpy starts from +0.0: a -0.0 alone sums to +0.0
    for j in range(1, n):
        out += a[..., j]
    return out


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1), entry after entry; a NaN propagates."""
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(out, a[..., j], out=out)
    return out


# ---------------------------------------------------------------------------
# simplex geometry
# ---------------------------------------------------------------------------

class SimplexGeometry(NamedTuple):
    volumes: np.ndarray         # (k,)
    grads: np.ndarray           # (k, d+1, d) barycentric gradients
    facet_measures: np.ndarray  # (k, d+1), facet opposite each vertex
    diameters: np.ndarray       # (k,)
    inradii: np.ndarray         # (k,)


def simplex_geometry(pts) -> SimplexGeometry:
    """Geometry of the d-simplices in a (k, d+1, d) vertex array.

    |K| and the barycentric gradients come from one factorisation of the edge
    matrix E (column i: v_{i+1} - v_0) per simplex: |K| = |det E| / d!, and row
    i of E^-1 is grad lambda_{i+1}. A simplex of volume below
    DEGENERACY_FACTOR * h^d, or of volume 0, raises DegenerateSimplex. The work
    runs on (coordinate, vertex, simplex) arrays; pts laid out so underneath
    (a transposed view) is read without a copy.
    """
    pts = np.asarray(pts, dtype=float)
    d = pts.shape[2]
    x = np.ascontiguousarray(pts.transpose(2, 1, 0))
    h2 = None
    for a, b in itertools.combinations(range(d + 1), 2):
        edge = x[:, a] - x[:, b]
        sq = _dot(edge, edge)
        h2 = sq if h2 is None else np.maximum(h2, sq, out=h2)
    diameters = np.sqrt(h2)
    lu, det = _factor(x)
    volumes = np.abs(det) / math.factorial(d)
    # coincident vertices give h = 0 and a volume that is no smaller than 0 h^d
    bad = (volumes < DEGENERACY_FACTOR * diameters ** d) | (volumes == 0.0)
    if np.any(bad):
        e = int(np.flatnonzero(bad)[0])
        raise DegenerateSimplex(f"simplex {e}: volume {volumes[e]:.3e} below "
                                f"threshold for h={diameters[e]:.3e}")
    grads = np.empty((d + 1, d, len(volumes)))    # (vertex, component, simplex)
    _back_substitute(lu, out=grads[1:])
    del lu                 # before the copies below
    grads[0] = -_row_sum(np.moveaxis(grads[1:], 0, -1))
    # |gamma_i| = d |K| |grad lambda_i|, (vertex, simplex)
    by_component = grads.swapaxes(0, 1)
    facet_measures = d * volumes * np.sqrt(_dot(by_component, by_component))
    return SimplexGeometry(
        volumes=volumes, grads=np.ascontiguousarray(grads.transpose(2, 0, 1)),
        facet_measures=np.ascontiguousarray(facet_measures.T), diameters=diameters,
        inradii=d * volumes / _row_sum(facet_measures.T))


def _factor(x):
    """Gaussian elimination with partial pivoting of the edge matrices
    E = x[:, 1:] - x[:, :1] of the simplices x (coordinate, vertex, simplex),
    written as whole-vector row operations over the simplices.

    Returns ``(lu, det)``: lu (d, 2d, k) holds U on and above the diagonal of its
    first d columns and L^-1 P in its last d, where P E = L U; det (k,) is det E.
    A zero pivot has a zero column below it, so its rows are left as they are:
    a singular E gets det 0 and no division by zero.
    """
    d, k = x.shape[0], x.shape[2]
    lu = np.zeros((d, 2 * d, k))
    np.subtract(x[:, 1:], x[:, :1], out=lu[:, :d])
    for r in range(d):
        lu[r, d + r] = 1.0
    det = np.ones(k)
    for j in range(d):
        # bring the largest |entry| of column j at or below row j up to row j
        for r in range(j + 1, d):
            swap = np.abs(lu[r, j]) > np.abs(lu[j, j])
            top = lu[j, j:].copy()
            np.copyto(lu[j, j:], lu[r, j:], where=swap)
            np.copyto(lu[r, j:], top, where=swap)
            np.negative(det, out=det, where=swap)
        pivot = lu[j, j]
        det *= pivot
        pivot = np.where(pivot == 0.0, 1.0, pivot)
        for r in range(j + 1, d):
            lu[r, j + 1:] -= (lu[r, j] / pivot) * lu[j, j + 1:]
    return lu, det


def _back_substitute(lu, out):
    """E^-1 into ``out`` (d, d, k) from the factors of ``_factor``: the solution X of
    U X = L^-1 P, row after row from the last."""
    d = len(lu)
    for r in reversed(range(d)):
        acc = lu[r, d:].copy()
        for c in range(r + 1, d):
            acc -= lu[r, c] * out[c]
        np.divide(acc, lu[r, r], out=out[r])


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
    # row e*(d+1)+i: facet i of e
    faces = np.take(simplices, facet_vertices(d), axis=1).reshape(ne * dp1, d)
    order = np.lexsort(faces.T[::-1])
    faces_sorted = np.take(faces, order, axis=0)
    new_group = np.ones(len(faces_sorted), dtype=bool)
    new_group[1:] = faces_sorted[1:, 0] != faces_sorted[:-1, 0]
    for j in range(1, d):       # whole columns, not a reduction over each short row
        new_group[1:] |= faces_sorted[1:, j] != faces_sorted[:-1, j]
    group_ids = np.cumsum(new_group) - 1
    nf = group_ids[-1] + 1 if len(group_ids) else 0
    counts = np.bincount(group_ids, minlength=nf)
    if np.any(counts > 2):
        bad = np.flatnonzero(counts > 2)[0]
        verts = faces_sorted[np.searchsorted(group_ids, bad)]
        raise NonConformingMesh(
            f"facet {tuple(int(v) for v in verts)} is shared by {counts[bad]} elements")

    facets = np.compress(new_group, faces_sorted, axis=0)
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
# the pattern of the P1 matrix
# ---------------------------------------------------------------------------

def build_matrix_pattern(dofs: np.ndarray, n: int):
    """Padded rows of the P1 matrix over n unknowns, and where each element entry goes.

    ``dofs`` (ne, d+1) holds the unknown of each element vertex, ascending along
    a row, or -1 for a vertex that is none. Row i holds i and the unknowns
    joined to it by a mesh edge: its lower neighbours, i, its upper neighbours,
    ascending. Returns ``(cols, positions)``: cols (width, n) is slot-major,
    slot k of row i the column of its k-th entry, the slots beyond the row's
    length padded with i, and width the longest row; positions (ne, d+1, d+1)
    is the flat index ``slot * n + row`` into cols of the entry (dofs[e, a],
    dofs[e, b]), or width * n where either is -1. The edges are found as the
    facets are: sorted, with the first of equal ones marked.
    """
    ne, dp1 = dofs.shape
    a, b = np.triu_indices(dp1, 1)
    # row * n + col of each element edge (row < col, as dofs ascend); n * n,
    # after every edge, where an end is no unknown
    keys = np.take(dofs, a, axis=1) * n
    keys += np.take(dofs, b, axis=1)
    off = dofs < 0
    keys[np.take(off, a, axis=1) | np.take(off, b, axis=1)] = n * n
    keys = keys.ravel()
    order = np.argsort(keys, kind="stable")
    keys = np.take(keys, order)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    distinct = np.compress(first, keys)
    row, col = np.divmod(distinct[distinct < n * n], n)   # the edges, by (row, col)
    del keys, distinct     # the sort's arrays go early: they set the build's peak
    group = np.cumsum(first)
    group -= 1
    edge_of = np.empty(len(order), dtype=np.int64)     # edge id of each element edge,
    edge_of[order] = group                             # len(row) where an end is no unknown
    del order, group

    n_upper, n_lower = np.bincount(row, minlength=n), np.bincount(col, minlength=n)
    width = int((n_lower + 1 + n_upper).max(initial=0))
    size = width * n
    # row i: the n_lower[i] edges (j, i) by j in slots 0.., i in slot n_lower[i],
    # the n_upper[i] edges (i, j) by j after it
    diagonal = n_lower * n + np.arange(n)
    edges = np.arange(len(row))
    upper = (n_lower[row] + 1 + edges - (np.cumsum(n_upper) - n_upper)[row]) * n + row
    by_col = np.argsort(col, kind="stable")            # the edges by (col, row)
    lower = np.empty(len(row), dtype=np.int64)
    lower[by_col] = (edges - (np.cumsum(n_lower) - n_lower)[col[by_col]]) * n + col[by_col]
    cols = np.tile(np.arange(n), width)
    cols[upper], cols[lower] = col, row

    index = np.int32 if size < np.iinfo(np.int32).max else np.int64
    positions = np.empty((ne, dp1, dp1), dtype=index)
    diag = np.arange(dp1)
    # the last entry of each table is width * n, which a dof of -1 and an edge
    # id of len(row) take
    positions[:, diag, diag] = np.take(np.append(diagonal, size).astype(index), dofs)
    for table, (r, c) in ((upper, (a, b)), (lower, (b, a))):
        table = np.append(table, size).astype(index)
        positions[:, r, c] = np.take(table, edge_of).reshape(ne, len(a))
    return cols.reshape(width, n), positions


# ---------------------------------------------------------------------------
# the mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mesh:
    """Immutable conforming simplicial mesh with boundary tags and per-element kappa.

    All geometric quantities the estimator needs are precomputed; queries are
    pure reads and safe for concurrent use. Every array is read-only, so meshes
    that differ only in kappa share the rest (``with_kappa``).
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
    # the free (non-Neumann) (facet, slot) entries by vertex, facets ascending: the
    # unknowns of each vertex patch, the run _vertex_facet_offsets[v:v+2] delimits
    _vertex_facet_offsets: np.ndarray = field(repr=False)
    _vertex_facet_data: np.ndarray = field(repr=False)  # (k, 2): facet, slot
    # the unknowns of the P1 system (the non-Dirichlet vertices of some element)
    # and the padded rows of its matrix, from build_matrix_pattern
    _vertex_to_dof: np.ndarray = field(repr=False)      # (n_points,), -1 for no unknown
    _pattern_cols: np.ndarray = field(repr=False)       # (width, n)
    _entry_positions: np.ndarray = field(repr=False)    # (ne, d+1, d+1), width * n if dropped

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            val = getattr(self, name)
            if isinstance(val, np.ndarray):
                val.setflags(write=False)

    def with_kappa(self, kappa) -> Mesh:
        """This mesh with another kappa, a scalar or an (ne,) array in the element
        order of ``simplices``, validated and checked for jumps as by ``build_mesh``.

        Every other array is this mesh's own, shared; ``layer`` follows the new kappa.
        """
        kappa = _kappa_array(kappa, self.n_elements)
        _warn_kappa_jumps(kappa, self._vertex_elem_offsets, self._vertex_elem_data[:, 0])
        return dataclasses.replace(self, kappa=kappa)

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

    def outward_normals(self, elems=slice(None)) -> np.ndarray:
        """(len(elems), d+1, d) unit outward normal of the facet opposite each local
        vertex of the elements ``elems`` (all by default, or ids)."""
        g = (self.bary_grads[elems] if isinstance(elems, slice)
             else np.take(self.bary_grads, elems, axis=0))
        return -g / np.sqrt(_row_sum(g * g))[..., None]


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
    kappa = _kappa_array(kappa, len(cells))

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
        cent = _row_sum(np.take(points, facets[bidx], axis=0).swapaxes(1, 2)) / d
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

    # the unknowns of the P1 system: the non-Dirichlet vertices of some element
    used = np.zeros(len(points), dtype=bool)
    used[cells] = True
    used[facets[facet_tag == DIRICHLET]] = False
    dofs = np.flatnonzero(used)
    vertex_to_dof = np.full(len(points), -1, dtype=np.int64)
    vertex_to_dof[dofs] = np.arange(len(dofs))
    pattern_cols, positions = build_matrix_pattern(np.take(vertex_to_dof, cells), len(dofs))

    # the corners gathered (coordinate, vertex, element), the layout simplex_geometry works in
    geom = simplex_geometry(np.take(points.T, cells.T, axis=1).transpose(2, 1, 0))
    facet_measures = np.zeros(len(facets))
    facet_measures[elem_facets.ravel()] = geom.facet_measures.ravel()

    # the (element, local vertex) and free (facet, slot) entries by vertex
    ve = np.column_stack(np.divmod(np.argsort(cells.ravel(), kind="stable"), d + 1))
    veo = np.zeros(len(points) + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells.ravel(), minlength=len(points)), out=veo[1:])
    free = np.flatnonzero(facet_tag != NEUMANN)
    fv = np.take(facets, free, axis=0).ravel()
    fid, slot = np.divmod(np.argsort(fv, kind="stable"), d)
    vf = np.column_stack([np.take(free, fid), slot])
    vfo = np.zeros(len(points) + 1, dtype=np.int64)
    np.cumsum(np.bincount(fv, minlength=len(points)), out=vfo[1:])

    _warn_kappa_jumps(kappa, veo, ve[:, 0])

    return Mesh(
        dim=d, points=points, simplices=cells, kappa=kappa,
        facets=facets, facet_elems=facet_elems, facet_local=facet_local,
        facet_tag=facet_tag, elem_facets=elem_facets, elem_sigma=elem_sigma,
        volumes=geom.volumes, bary_grads=geom.grads, facet_measures=facet_measures,
        diameters=geom.diameters, inradii=geom.inradii,
        _vertex_elem_offsets=veo, _vertex_elem_data=ve,
        _vertex_facet_offsets=vfo, _vertex_facet_data=vf,
        _vertex_to_dof=vertex_to_dof, _pattern_cols=pattern_cols, _entry_positions=positions,
    )


def _kappa_array(kappa, ne: int) -> np.ndarray:
    """kappa as a new (ne,) float array; ValueError for a wrong length or a
    negative or non-finite value."""
    try:
        kappa = np.broadcast_to(np.asarray(kappa, dtype=float), (ne,)).copy()
    except ValueError:
        raise ValueError(f"kappa must be a scalar or one value per element ({ne})") from None
    if np.any(kappa < 0) or not np.all(np.isfinite(kappa)):
        raise ValueError("kappa must be finite and nonnegative")
    return kappa


def _warn_kappa_jumps(kappa, offsets, elems_sorted):
    """KappaJumpWarning if the positive kappa of some vertex patch spans a factor
    above KAPPA_JUMP_WARN; the patches are the runs of ``elems_sorted`` that
    ``offsets`` delimits."""
    kv = np.take(kappa, elems_sorted)       # kappa >= 0, validated
    pos = kv > 0
    if not np.any(pos):
        return
    starts = offsets[:-1][np.diff(offsets) > 0]    # the non-empty patches
    kmax = np.maximum.reduceat(kv, starts)
    np.copyto(kv, np.inf, where=~pos)
    kmin = np.minimum.reduceat(kv, starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        worst = np.nanmax(np.where(kmax > 0, kmax / kmin, 1.0))
    if worst > KAPPA_JUMP_WARN:
        warnings.warn(
            f"reaction coefficient jumps by a factor {worst:.3g} within a vertex patch "
            f"(warning threshold {KAPPA_JUMP_WARN:g}); robustness assumptions may be stretched",
            KappaJumpWarning, stacklevel=_outside_this_module())


def _outside_this_module() -> int:
    """The ``stacklevel`` of the first frame outside this module, for a warning
    raised by the function that calls this one."""
    frame, level = sys._getframe(2), 2
    while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


# ---------------------------------------------------------------------------
# structured cube mesh (Kuhn / Freudenthal triangulation)
# ---------------------------------------------------------------------------

# (M, dim) -> a live mesh of that cube: the other meshes of the cube are its
# with_kappa, and the entry goes with the mesh
_CUBES = weakref.WeakValueDictionary()


def build_cube_mesh(M: int, dim: int, kappa_fn) -> Mesh:
    """Mesh of the cube (-1, 1)^dim: M^dim subcubes, each split into dim! simplices.

    The Kuhn (sort-based) triangulation is used, which is conforming across
    subcube faces and shares the main diagonal of each subcube. ``kappa_fn``
    maps the element centroids (ne, d), in the canonical element order of
    ``simplices``, to kappa values (a scalar is broadcast). The faces x_1 = +-1
    are Dirichlet, the rest Neumann.

    Only kappa depends on ``kappa_fn``: while a mesh of the same (M, dim) is
    alive, the new one is its ``with_kappa`` and shares every other array; the
    cube is built again once the last of them is gone.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    cube = _CUBES.get((M, dim))
    if cube is None:
        grid = np.stack(np.meshgrid(*([np.arange(M + 1)] * dim), indexing="ij"), axis=-1)
        points = -1.0 + 2.0 * grid.reshape(-1, dim) / M
        shape = (M + 1,) * dim
        corners = np.stack(np.meshgrid(*([np.arange(M)] * dim), indexing="ij"),
                           axis=-1).reshape(-1, dim)
        steps = np.eye(dim, dtype=np.int64)
        cell_blocks = []
        for perm in itertools.permutations(range(dim)):
            offsets = np.concatenate([np.zeros((1, dim), dtype=np.int64),
                                      np.cumsum(steps[list(perm)], axis=0)])
            multi = corners[:, None, :] + offsets[None, :, :]       # (Mc, d+1, d)
            cell_blocks.append(np.ravel_multi_index(np.moveaxis(multi, -1, 0), shape))
        cube = build_mesh(points, np.concatenate(cell_blocks, axis=0), 0.0,
                          lambda c: np.abs(np.abs(c[:, 0]) - 1.0) < 1e-12)

    # the Kuhn cells list their vertex ids ascending, so these are the centroids
    # of the Kuhn cells, bit for bit, in canonical order: vertex after vertex
    centroids = np.take(cube.points, cube.simplices[:, 0], axis=0)
    for j in range(1, dim + 1):
        centroids += np.take(cube.points, cube.simplices[:, j], axis=0)
    centroids /= dim + 1
    mesh = cube.with_kappa(kappa_fn(centroids) if callable(kappa_fn) else kappa_fn)
    _CUBES.setdefault((M, dim), mesh)
    return mesh


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
