"""Canonical model of the regular dodecahedron inscribed in the unit sphere.

The vertex set is the golden-ratio coordinate family, normalised to the unit
sphere and rotated so that one vertex lands exactly on the north pole
(0, 0, 1).  Vertex ids are assigned deterministically: 0 is the north pole,
19 the south pole, and the four latitude bands between them (C1, C2, C3, C4)
are numbered top to bottom, each band ordered by azimuth.

All combinatorial structure is derived from the coordinates once, in
`build_polytope`, validated, and frozen as integer tuples on the model, so
every downstream enumeration is exact: edges, faces, the antipode, the dual
icosahedron, the zigzag turn table, the opposite faces, the 10 inscribed
tetrahedra and the two compounds of five.  The model stays immutable and
hashable, and no other module keeps derived state.  Faces are stored
counterclockwise as seen from outside the sphere, rotated so the smallest
vertex id comes first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

TOL = 1e-9

NORTH_POLE = "north_pole"
C1 = "C1"
C2 = "C2"
C3 = "C3"
C4 = "C4"
SOUTH_POLE = "south_pole"
BANDS = (NORTH_POLE, C1, C2, C3, C4, SOUTH_POLE)
BAND_SIZES = (1, 3, 6, 6, 3, 1)

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


Tetra = tuple[int, int, int, int]


@dataclass(frozen=True)
class Vertex:
    id: int
    position: tuple[float, float, float]
    latitude: str


@dataclass(frozen=True)
class PolytopeModel:
    """Immutable labelled dodecahedron.

    ``faces`` are oriented pentagons (positive sense = counterclockwise seen
    from outside), ``adjacency[v]`` holds the 3 neighbours of v, and
    ``vertex_faces[v]`` the 3 faces through v.  ``icosa_faces`` lists the 20
    faces of the dual icosahedron as sorted triples of dodecahedron face ids
    (icosahedron vertex i is the centre of dodecahedron face i);
    ``dual_faces[k]`` is the dodecahedron vertex corresponding to
    icosahedron face k.

    ``turns[u][w]`` is the (left, right) pair of outgoing edges at w for
    the directed edge u -> w, and None where uw is not an edge.
    ``opposite_faces[f]`` is the face antipodal to face f.  ``tetrahedra``
    are the 10 inscribed regular tetrahedra as sorted 4-tuples, and
    ``compounds`` the two partitions of the vertices into five of them:
    compound A first, the one whose tetrahedron at vertex 0 is the
    lexicographically smaller.
    """

    vertices: tuple[Vertex, ...]
    faces: tuple[tuple[int, int, int, int, int], ...]
    edges: tuple[tuple[int, int], ...]
    antipode: tuple[int, ...]
    adjacency: tuple[tuple[int, int, int], ...]
    vertex_faces: tuple[tuple[int, int, int], ...]
    icosa_faces: tuple[tuple[int, int, int], ...]
    dual_faces: tuple[int, ...]
    turns: tuple[tuple[tuple[int, int] | None, ...], ...]
    opposite_faces: tuple[int, ...]
    tetrahedra: tuple[Tetra, ...]
    compounds: tuple[tuple[Tetra, ...], tuple[Tetra, ...]]


# ---------------------------------------------------------------------------
# geometry on 3-tuples of floats

Vec = tuple[float, float, float]
Mat = tuple[Vec, Vec, Vec]  # rows


def dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b) -> Vec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def add(a, b) -> Vec:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a, b) -> Vec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def norm(a) -> float:
    return math.sqrt(dot(a, a))


def centroid(points) -> Vec:
    xs, ys, zs = zip(*points)
    n = len(xs)
    return (sum(xs) / n, sum(ys) / n, sum(zs) / n)


def det3(m) -> float:
    return dot(m[0], cross(m[1], m[2]))


def inv3(m) -> Mat:
    """Inverse of a 3x3 matrix: the adjugate's columns are the row cross
    products."""
    d = det3(m)
    cols = (cross(m[1], m[2]), cross(m[2], m[0]), cross(m[0], m[1]))
    return tuple(tuple(c[i] / d for c in cols) for i in range(3))


def fma(a: float, b: float, c: float) -> float:
    """a * b + c with a single rounding (exact rational, then rounded)."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


# ---------------------------------------------------------------------------
# the canonical embedding

def _raw_coordinates() -> tuple[Vec, ...]:
    """The 20 classical dodecahedron vertices, normalised to the unit sphere."""
    p = _PHI
    q = 1.0 / _PHI
    pts = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                pts.append((sx, sy, sz))
    for sa in (1, -1):
        for sb in (1, -1):
            pts.append((0.0, sa * q, sb * p))
            pts.append((sa * q, sb * p, 0.0))
            pts.append((sb * p, 0.0, sa * q))
    s = math.sqrt(3.0)
    return tuple((x / s, y / s, z / s) for x, y, z in pts)


def _pole_rotation() -> Mat:
    """Rotation taking (1,1,1)/sqrt(3) onto (0,0,1) along the shortest arc:
    I + K + K^2 (1 - u.v) / |w|^2, with K the cross-product matrix of w = u x v."""
    s = math.sqrt(3.0)
    u = (1.0 / s, 1.0 / s, 1.0 / s)
    w = cross(u, (0.0, 0.0, 1.0))
    k = ((0.0, -w[2], w[1]), (w[2], 0.0, -w[0]), (-w[1], w[0], 0.0))
    f = (1.0 - u[2]) / dot(w, w)
    r = tuple(
        tuple(
            (1.0 if i == j else 0.0) + k[i][j] + dot(k[i], (k[0][j], k[1][j], k[2][j])) * f
            for j in range(3)
        )
        for i in range(3)
    )
    if any(abs(dot(r[i], r[j]) - (i == j)) >= TOL for i in range(3) for j in range(3)):
        raise AssertionError("pole rotation is not orthogonal")
    if norm(sub(tuple(dot(row, u) for row in r), (0.0, 0.0, 1.0))) >= TOL:
        raise AssertionError("pole rotation misses the north pole")
    return r


def _rotate(r: Mat, p: Vec) -> Vec:
    """r applied to p, each coordinate as the fused chain
    fma(p2, r2, fma(p1, r1, p0 * r0)): this rounding fixes the exported bytes."""
    return tuple(fma(p[2], row[2], fma(p[1], row[1], p[0] * row[0])) for row in r)


def _band_partition(pos) -> list[list[int]]:
    """Group vertex indices into latitude bands, top to bottom."""
    order = sorted(range(20), key=lambda i: -pos[i][2])
    bands: list[list[int]] = [[order[0]]]
    for i in order[1:]:
        if abs(pos[i][2] - pos[bands[-1][0]][2]) < 1e-6:
            bands[-1].append(i)
        else:
            bands.append([i])
    if [len(b) for b in bands] != list(BAND_SIZES):
        raise AssertionError("latitude bands malformed")
    return bands


def _azimuth(p) -> float:
    return math.atan2(p[1], p[0]) % (2.0 * math.pi)


def _canon_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate to the smallest id and pick the lexicographically smaller direction."""
    i = cycle.index(min(cycle))
    fwd = cycle[i:] + cycle[:i]
    rev = (fwd[0],) + tuple(reversed(fwd[1:]))
    return min(fwd, rev)


def _face_cycles(adj: list[set[int]]) -> list[tuple[int, ...]]:
    found = set()
    for a in range(20):
        for b in adj[a]:
            for c in adj[b]:
                if c == a:
                    continue
                for d in adj[c]:
                    if d in (a, b):
                        continue
                    for e in adj[d]:
                        if e in (a, b, c):
                            continue
                        if a in adj[e]:
                            found.add(_canon_cycle((a, b, c, d, e)))
    return sorted(found)


def _orient_outward(cycle: tuple[int, ...], pos) -> tuple[int, ...]:
    """Orient a face cycle counterclockwise as seen from outside the sphere."""
    pts = [pos[v] for v in cycle]
    normal = (0.0, 0.0, 0.0)
    for i in range(5):
        normal = add(normal, cross(pts[i], pts[(i + 1) % 5]))
    # coplanarity: all vertices at the same offset along the face normal
    offsets = [dot(p, normal) / norm(normal) for p in pts]
    if max(offsets) - min(offsets) >= TOL:
        raise AssertionError("face vertices not coplanar")
    if dot(normal, centroid(pts)) < 0.0:
        cycle = (cycle[0],) + tuple(reversed(cycle[1:]))
    return cycle


def _compounds(tets) -> tuple[tuple[Tetra, ...], tuple[Tetra, ...]]:
    """The two partitions of the vertices into five disjoint tetrahedra,
    ordered by their tetrahedron at vertex 0."""
    partitions: list[tuple[Tetra, ...]] = []

    def extend(chosen: list[Tetra], covered: frozenset[int]) -> None:
        if len(chosen) == 5:
            if covered != frozenset(range(20)):
                raise AssertionError("five disjoint tetrahedra miss a vertex")
            partitions.append(tuple(sorted(chosen)))
            return
        v = min(set(range(20)) - covered)
        for t in tets:
            if v in t and not (set(t) & covered):
                extend(chosen + [t], covered | frozenset(t))

    extend([], frozenset())
    if len(partitions) != 2:
        raise AssertionError(f"expected 2 compounds, found {len(partitions)}")
    partitions.sort(key=lambda p: next(t for t in p if 0 in t))
    return partitions[0], partitions[1]


def build_polytope() -> PolytopeModel:
    """Construct the canonical dodecahedron model.

    Deterministic: every call yields identical data.  Any internal
    inconsistency raises rather than returning a partial model.
    """
    r = _pole_rotation()
    pos = [_rotate(r, p) for p in _raw_coordinates()]
    if not all(abs(norm(p) - 1.0) < TOL for p in pos):
        raise AssertionError("vertices not on the unit sphere")

    bands = _band_partition(pos)
    ids_in_order: list[int] = []
    latitudes: list[str] = []
    for band, raw_ids in zip(BANDS, bands):
        raw_ids.sort(key=lambda i: _azimuth(pos[i]))
        ids_in_order.extend(raw_ids)
        latitudes.extend([band] * len(raw_ids))
    pos = [pos[i] for i in ids_in_order]
    if norm(sub(pos[0], (0.0, 0.0, 1.0))) >= TOL:
        raise AssertionError("vertex 0 is not the north pole")

    vertices = tuple(Vertex(i, pos[i], latitudes[i]) for i in range(20))

    # adjacency: the 3 vertices at minimal distance
    d2 = [[dot(sub(p, q), sub(p, q)) for q in pos] for p in pos]
    edge2 = min(d2[v][u] for v in range(20) for u in range(20) if u != v)
    adj = [{u for u in range(20) if u != v and d2[v][u] < edge2 + TOL} for v in range(20)]
    if not all(len(a) == 3 for a in adj):
        raise AssertionError("graph is not 3-regular")
    edges = tuple(sorted((v, u) for v in range(20) for u in adj[v] if v < u))
    if len(edges) != 30:
        raise AssertionError(f"expected 30 edges, found {len(edges)}")

    cycles = _face_cycles(adj)
    if len(cycles) != 12:
        raise AssertionError(f"expected 12 pentagonal faces, found {len(cycles)}")
    faces = tuple(sorted(_orient_outward(c, pos) for c in cycles))

    # every directed edge appears in exactly one oriented face, so the two
    # faces sharing an edge traverse it in opposite directions
    directed = [(f[i], f[(i + 1) % 5]) for f in faces for i in range(5)]
    if not (
        len(directed) == len(set(directed)) == 60
        and set(directed) == {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    ):
        raise AssertionError("faces do not traverse each edge once in each direction")

    antipode = []
    for v in range(20):
        m = [u for u in range(20) if norm(add(pos[u], pos[v])) < TOL]
        if len(m) != 1:
            raise AssertionError("antipodal vertex not found")
        antipode.append(m[0])
    if not all(antipode[antipode[v]] == v and antipode[v] != v for v in range(20)):
        raise AssertionError("antipode is not a fixed-point-free involution")

    face_ids = {frozenset(f): fid for fid, f in enumerate(faces)}
    opposite_faces = tuple(face_ids.get(frozenset(antipode[v] for v in f)) for f in faces)
    if None in opposite_faces:
        raise AssertionError("no antipodal face found")

    # at the end of u -> w, left is the edge with positive component along
    # (u -> w) x (outward normal at w); as faces run counterclockwise seen
    # from outside, on the face traversing u -> w -> x right is x and left
    # is w's third neighbour
    turns = [[None] * 20 for _ in range(20)]
    for f in faces:
        for i in range(5):
            u, w, x = f[i - 2], f[i - 1], f[i]
            (left,) = adj[w] - {u, x}
            turns[u][w] = (left, x)

    # inscribed regular tetrahedra: 4-cliques of the pairs at squared distance 8/3
    far = [{u for u in range(20) if abs(d2[v][u] - 8.0 / 3.0) < TOL} for v in range(20)]
    tetrahedra = tuple(sorted({
        tuple(sorted((v, a, b, c)))
        for v in range(20)
        for a, b, c in combinations(far[v], 3)
        if b in far[a] and c in far[a] and c in far[b]
    }))
    if len(tetrahedra) != 10:
        raise AssertionError(f"expected 10 tetrahedra, found {len(tetrahedra)}")
    for v in range(20):
        if sum(v in t for t in tetrahedra) != 2:
            raise AssertionError(f"vertex {v} is not on exactly 2 tetrahedra")

    vf: list[list[int]] = [[] for _ in range(20)]
    for fid, f in enumerate(faces):
        for v in f:
            vf[v].append(fid)
    if not all(len(x) == 3 for x in vf):
        raise AssertionError("a vertex does not lie on exactly 3 faces")
    vertex_faces = tuple(tuple(sorted(x)) for x in vf)

    icosa_faces = tuple(sorted(vertex_faces))
    if len(set(icosa_faces)) != 20:
        raise AssertionError("two vertices share their face triple")
    by_triple = {t: v for v, t in enumerate(vertex_faces)}
    dual_faces = tuple(by_triple[t] for t in icosa_faces)

    return PolytopeModel(
        vertices=vertices,
        faces=faces,
        edges=edges,
        antipode=tuple(antipode),
        adjacency=tuple(tuple(sorted(a)) for a in adj),
        vertex_faces=vertex_faces,
        icosa_faces=icosa_faces,
        dual_faces=dual_faces,
        turns=tuple(tuple(row) for row in turns),
        opposite_faces=opposite_faces,
        tetrahedra=tetrahedra,
        compounds=_compounds(tetrahedra),
    )


def positions(model: PolytopeModel) -> tuple[Vec, ...]:
    return tuple(v.position for v in model.vertices)


def _check_id(x: int, count: int, kind: str) -> None:
    # bool is a subclass of int, but True is not id 1
    if type(x) is not int or not 0 <= x < count:
        raise ValueError(f"{kind} id out of range: {x!r}")


def neighbours(model: PolytopeModel, v: int) -> frozenset[int]:
    """The 3 vertices joined to v by an edge."""
    _check_id(v, 20, "vertex")
    return frozenset(model.adjacency[v])


def distance_spectrum(model: PolytopeModel) -> tuple[tuple[float, int], ...]:
    """All distinct pairwise vertex distances with multiplicities.

    Distances equal within TOL are merged; the result is sorted ascending
    and the multiplicities sum to C(20,2) = 190.
    """
    pos = positions(model)
    groups: list[list] = []
    for i in range(20):
        for j in range(i + 1, 20):
            d = norm(sub(pos[i], pos[j]))
            for g in groups:
                if abs(g[0] - d) <= TOL:
                    g[1] += 1
                    break
            else:
                groups.append([d, 1])
    return tuple(sorted((d, c) for d, c in groups))


def dual_face_of(model: PolytopeModel, icosa_face: int) -> int:
    """The dodecahedron vertex corresponding to a face of the dual icosahedron."""
    _check_id(icosa_face, 20, "icosahedron face")
    return model.dual_faces[icosa_face]


def _fmt(x: float) -> str:
    return format(x, ".17g")


def model_to_off(model: PolytopeModel) -> str:
    """OFF mesh of the dodecahedron; byte-stable across runs."""
    lines = ["OFF", "20 12 30"]
    for v in model.vertices:
        lines.append(" ".join(_fmt(c) for c in v.position))
    for f in model.faces:
        lines.append("5 " + " ".join(str(v) for v in f))
    return "\n".join(lines) + "\n"


def model_to_json(model: PolytopeModel) -> str:
    """JSON document with vertices, faces and the antipodal map; byte-stable."""
    doc = {
        "vertices": [list(v.position) for v in model.vertices],
        "faces": [list(f) for f in model.faces],
        "antipode": list(model.antipode),
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
