"""Canonical model of the regular dodecahedron inscribed in the unit sphere.

The vertex set is the golden-ratio coordinate family, normalised to the unit
sphere and rotated so that one vertex lands exactly on the north pole
(0, 0, 1).  Vertex ids are assigned deterministically: 0 is the north pole,
19 the south pole, and the four latitude bands between them (C1, C2, C3, C4)
are numbered top to bottom, each band ordered by azimuth.

All combinatorial structure is derived once, in `build_polytope`, from the
raw coordinates held exactly in Z[phi], by equality and exact sign tests
with no tolerance, and frozen as integer tuples on the model.  Each fact is
checked once, where it is derived; one that follows is not checked again: a
3-regular graph whose right-turn walks all close pentagons has 30 edges and
12 faces, each edge on two of them in opposite senses.  Floats are only the
exported embedding, which `positions` derives from the exact coordinates.
The model stays immutable and hashable; the memos of `chroma` and
`compound` are keyed on the values of the fields they read.  One exact
rule orients faces and turns: consecutive vertices u, w, x of a face run
counterclockwise as seen from outside have det(u, w, x) > 0.  At the end
of u -> w, right is that next face vertex x and left is w's third
neighbour; a face is a closed walk of right turns, smallest vertex id
first.  A vertex's ring lists its neighbours counterclockwise as seen from
outside, so the right turn at the end of u -> w is the neighbour before u
in w's ring and the left turn the one after; every module takes its turns
from `_turn`, which reads the rings alone.
"""

from __future__ import annotations

import json
import math
from functools import cmp_to_key
from itertools import combinations
from typing import NamedTuple

TOL = 1e-9

BAND_SIZES = (1, 3, 6, 6, 3, 1)

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


class ZPhi(tuple):
    """a + b*phi for integers a, b, held as the pair (a, b); phi^2 = phi + 1.

    Equal and hashable as that pair.  Tuple order is not the real order:
    compare through `sign`.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int = 0):
        return tuple.__new__(cls, (a, b))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return tuple(self)

    def __add__(self, other):
        return tuple.__new__(ZPhi, (self[0] + other[0], self[1] + other[1]))

    def __sub__(self, other):
        return tuple.__new__(ZPhi, (self[0] - other[0], self[1] - other[1]))

    def __neg__(self):
        return tuple.__new__(ZPhi, (-self[0], -self[1]))

    def __mul__(self, other):
        (a, b), (c, d) = self, other
        bd = b * d
        return tuple.__new__(ZPhi, (a * c + bd, a * d + b * c + bd))

    # not tuple repetition: an int factor raises in __mul__
    __rmul__ = __mul__

    def sign(self) -> int:
        """-1, 0 or +1.  a + b*phi = (s + b*sqrt(5)) / 2 with s = 2a + b
        takes the sign of its larger term, and s^2 == 5b^2 only at 0."""
        s, b = 2 * self[0] + self[1], self[1]
        larger = s if s * s > 5 * b * b else b
        return (larger > 0) - (larger < 0)


# sorts Z[phi] values ascending by their real value
_exact_key = cmp_to_key(lambda x, y: (x - y).sign())

ExactVec = tuple[ZPhi, ZPhi, ZPhi]
Tetra = tuple[int, int, int, int]

_TETRA_EDGE2 = ZPhi(8)

# each exact coordinate a model admits -> its float; 1.0 / _PHI is not the
# correctly rounded 1/phi, but it is the value the exported bytes hold
_MAGNITUDES = ((ZPhi(1), 1.0), (ZPhi(0, 1), _PHI), (ZPhi(-1, 1), 1.0 / _PHI))
_FLOATS = {ZPhi(0): 0.0, **dict(_MAGNITUDES), **{-x: -f for x, f in _MAGNITUDES}}


# The model's fields, in order, each with its shape and the rule a fault
# message states.  A spec is "vertex" (an int, not a bool, in 0..19), ZPhi
# (a ZPhi of two int parts), a dict (such a ZPhi among its keys), or
# (lo, hi, entry): a tuple of lo to hi entries, each of shape entry.  Each
# field's shape is read from that field alone.
_ANY = math.inf
_SHAPE = {
    "faces": ((0, _ANY, (5, 5, "vertex")), "5-tuples of vertex ids"),
    "antipode": ((20, 20, "vertex"), "20 vertex ids"),
    "adjacency": ((20, 20, (0, _ANY, "vertex")), "20 tuples of vertex ids"),
    "compounds": ((2, 2, (0, _ANY, (0, _ANY, "vertex"))), "a pair of tuples of vertex-id tuples"),
    "exact_positions": ((20, _ANY, (3, 3, _FLOATS)),
                        "at least 20 triples of ZPhi, each 0, +-1, +-phi or +-1/phi"),
    "squared_distances": ((20, 20, (20, 20, ZPhi)), "20 rows of 20 ZPhi of int parts"),
}
_ModelFields = NamedTuple("_ModelFields", [(name, tuple) for name in _SHAPE])


def _shape_fault(x, spec):
    """None if x has the shape spec, else the index path to its first bad
    entry and what is there."""
    if type(spec) is tuple:
        if type(x) is not tuple:
            return (), f"{x!r}, not a tuple"
        lo, hi, entry = spec
        for i in range(max(len(x), lo)):
            if i >= len(x) or i >= hi:
                return (i,), "missing" if i >= len(x) else repr(x[i])
            if fault := _shape_fault(x[i], entry):
                return (i, *fault[0]), fault[1]
        return None
    if spec == "vertex":  # bool is a subclass of int, but True is not id 1
        ok = type(x) is int and 0 <= x < 20
    else:  # a ZPhi of ints, not an equal plain tuple
        ok = type(x) is ZPhi and type(x[0]) is type(x[1]) is int and (spec is ZPhi or x in spec)
    return None if ok else ((), repr(x))


class PolytopeModel(_ModelFields):
    """Immutable labelled dodecahedron; a variant is made with `_replace`.

    Wherever a model is made (`build_polytope`, the constructor, `_make`,
    `_replace`, a copy, an unpickled one) it has the shape `_SHAPE`
    declares, each field checked on its own, or ValueError names the field
    and its first bad index path, as in ``antipode[19] is missing; the
    antipode must be 20 vertex ids``.  Each field and entry is a tuple,
    every vertex id an int, not a bool, in 0..19, each table indexed by
    vertex id has 20 entries (``exact_positions`` at least 20, each
    coordinate 0, +-1, +-phi or +-1/phi), and an entry a reader unpacks
    has its arity, so readers trust all of that.
    Counts and structure are left to `verify`, which measures them: how
    many vertices, faces, edges and tetrahedra there are, the adjacency's
    arity, and every fact such as an involutive antipode.  Which faces
    meet at a vertex is a fact of ``faces`` alone: `_vertex_faces` works it
    out, and names a vertex on other than 3 faces.  It is also the dual
    icosahedron: icosahedron face v is the triple of dodecahedron faces
    through vertex v (icosahedron vertex i is the centre of dodecahedron
    face i), so the dual face map is the identity on vertex ids.

    ``faces`` are oriented pentagons (positive sense = counterclockwise seen
    from outside), ``adjacency[v]`` is v's ring, its 3 neighbours
    counterclockwise as seen from outside from the smallest (which one a
    ring starts at is no part of the contract).  The rings are the graph:
    its edges are the pairs (u, w), u < w, with w in u's ring.
    ``compounds`` are the two partitions of the vertices into five of the 10
    inscribed regular tetrahedra, each a sorted 4-tuple: compound A first,
    the one whose tetrahedron at vertex 0 is the lexicographically smaller.

    ``exact_positions[v]`` is vertex v's raw coordinate triple in Z[phi]
    (circumradius sqrt(3), not rotated), and ``squared_distances[u][v]``
    the exact squared distance between u and v.  The exact positions are
    the embedding: `positions` derives the float coordinates from them,
    and `latitude_bands` the bands.
    """

    __slots__ = ()

    # typing.NamedTuple forbids overriding these two in its own body
    def __new__(cls, *fields, **named):
        model = super().__new__(cls, *fields, **named)
        for name, (spec, rule) in _SHAPE.items():
            if fault := _shape_fault(getattr(model, name), spec):
                path = name + "".join(f"[{i}]" for i in fault[0])
                raise ValueError(f"{path} is {fault[1]}; the {name} must be {rule}")
        return model

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


# ---------------------------------------------------------------------------
# geometry on 3-tuples, of floats or of ZPhi (sums and products only)

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


def det3(m) -> float:
    return dot(m[0], cross(m[1], m[2]))


def fma(a: float, b: float, c: float) -> float:
    """a * b + c with a single rounding: the exact value as a ratio of
    integers, then one int / int division, which CPython rounds correctly
    (as `float(Fraction)` does, an exact zero included: it is +0.0).
    Raises OverflowError where the result is too large for a float."""
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    cn, cd = c.as_integer_ratio()
    return (an * bn * cd + cn * ad * bd) / (ad * bd * cd)


# ---------------------------------------------------------------------------
# the canonical embedding

def _exact_coordinates() -> tuple[ExactVec, ...]:
    """The 20 classical dodecahedron vertices in Z[phi]: (+-1, +-1, +-1)
    and the cyclic shifts of (0, +-1/phi, +-phi), with 1/phi = phi - 1."""
    pts = [(ZPhi(sx), ZPhi(sy), ZPhi(sz)) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    zero = ZPhi(0)
    for sa in (1, -1):
        for sb in (1, -1):
            q, p = ZPhi(-sa, sa), ZPhi(0, sb)
            pts += [(zero, q, p), (q, p, zero), (p, zero, q)]
    return tuple(pts)


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
    return r


def _rotate(r: Mat, p: Vec) -> Vec:
    """r applied to p, each coordinate as the fused chain
    fma(p2, r2, fma(p1, r1, p0 * r0)): the product rounds once as IEEE does
    and each fma once from its exact value, so the exported bytes do not
    depend on how the platform contracts a * b + c."""
    return tuple(fma(p[2], row[2], fma(p[1], row[1], p[0] * row[0])) for row in r)


def _embedding(exact) -> tuple[Vec, ...]:
    """The exact points as floats on the unit sphere, rotated so that
    (1, 1, 1) lands on the north pole."""
    r, s = _pole_rotation(), math.sqrt(3.0)
    return tuple(_rotate(r, tuple(_FLOATS[x] / s for x in p)) for p in exact)


def latitude_bands(exact) -> list[list[int]]:
    """The indices of the exact points grouped into latitude bands, top to
    bottom, each in index order.  The pole axis is (1, 1, 1), so a point's
    height is its exact x + y + z."""
    by_height: dict[ZPhi, list[int]] = {}
    for i, (x, y, z) in enumerate(exact):
        by_height.setdefault(x + y + z, []).append(i)
    return [by_height[h] for h in sorted(by_height, key=_exact_key, reverse=True)]


def _compounds(tets) -> tuple[tuple[Tetra, ...], tuple[Tetra, ...]]:
    """The two compounds: the sets of five tetrahedra that cover all 20
    vertices (five 4-sets covering 20 vertices are pairwise disjoint),
    ordered by their tetrahedron at vertex 0."""
    partitions = [p for p in combinations(tets, 5) if len({v for t in p for v in t}) == 20]
    if len(partitions) != 2:
        raise AssertionError(f"expected 2 compounds, found {len(partitions)}")
    partitions.sort(key=lambda p: next(t for t in p if 0 in t))
    return partitions[0], partitions[1]


def build_polytope() -> PolytopeModel:
    """Construct the canonical dodecahedron model.

    Deterministic: every call yields identical data.  Any internal
    inconsistency raises AssertionError rather than returning a partial
    model: a pole rotation that is not orthogonal, vertices off the unit
    sphere, malformed latitude bands, vertex 0 off the north pole, a graph
    that is not 3-regular, a zero turn determinant, right turns that do not
    close a pentagon, a face that is not coplanar, other than 10 tetrahedra
    or than 2 through a vertex, and other than 2 compounds.  A vertex
    without an antipodal one leaves None in ``antipode``, which the model's
    shape contract names with ValueError.
    """
    exact = _exact_coordinates()
    pos = _embedding(exact)
    if not all(abs(norm(p) - 1.0) < TOL for p in pos):
        raise AssertionError("vertices not on the unit sphere")
    bands = latitude_bands(exact)
    if [len(b) for b in bands] != list(BAND_SIZES):
        raise AssertionError("latitude bands malformed")
    # the ids run down the bands, each band by azimuth
    order = [i for band in bands for i in sorted(
        band, key=lambda i: math.atan2(pos[i][1], pos[i][0]) % (2.0 * math.pi))]
    if norm(sub(pos[order[0]], (0.0, 0.0, 1.0))) >= TOL:
        raise AssertionError("vertex 0 is not the north pole")
    exact = tuple(exact[i] for i in order)

    # adjacency: the 3 vertices at the minimal exact squared distance
    d2 = [[ZPhi(0)] * 20 for _ in range(20)]
    for u, v in combinations(range(20), 2):
        d = sub(exact[u], exact[v])
        d2[u][v] = d2[v][u] = dot(d, d)
    edge2 = min({d2[v][u] for v in range(20) for u in range(v)}, key=_exact_key)
    adj = [{u for u in range(20) if d2[v][u] == edge2} for v in range(20)]
    if not all(len(a) == 3 for a in adj):
        raise AssertionError("graph is not 3-regular")
    edges = tuple(sorted((v, u) for v in range(20) for u in adj[v] if v < u))

    # right at the end of u -> w has det(u, w, right) > 0; left, its mirror
    # through the plane of u, w and the centre, has the opposite sign
    right = {}
    for u, w in edges + tuple((v, u) for u, v in edges):
        x, y = adj[w] - {u}
        s = det3((exact[u], exact[w], exact[x])).sign()
        if s == 0:
            raise AssertionError(f"zero determinant at the end of {u} -> {w}")
        right[u, w] = x if s > 0 else y

    # each face is the closed walk of right turns, rotated to its smallest id
    walks = set()
    for u, w in right:
        walk = [u, w]
        for _ in range(5):
            walk.append(right[walk[-2], walk[-1]])
        f = walk[:5]
        # so right turns permute the 60 directed edges in twelve 5-cycles, the faces
        if len(set(f)) != 5 or walk[5:] != walk[:2]:
            raise AssertionError(f"right turns from {u} -> {w} do not close a pentagon")
        i = f.index(min(f))
        walks.add(tuple(f[i:] + f[:i]))
    faces = tuple(sorted(walks))
    for f in faces:
        a, b, c = (exact[v] for v in f[:3])
        normal = cross(sub(b, a), sub(c, a))
        if len({dot(exact[v], normal) for v in f}) != 1:
            raise AssertionError("face vertices not coplanar")

    index = {p: v for v, p in enumerate(exact)}
    antipode = tuple(index.get(tuple(-x for x in p)) for p in exact)

    # inscribed regular tetrahedra: 4-cliques of the pairs at squared distance
    # 8, the tetrahedron edge at circumradius sqrt(3)
    far = [{u for u in range(20) if d2[v][u] == _TETRA_EDGE2} for v in range(20)]
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

    # as every directed edge is on a face, right turns cycle w's neighbours
    rings = tuple((p, right[right[p, w], w], right[p, w]) for w, p in enumerate(map(min, adj)))

    return PolytopeModel(
        faces=faces,
        antipode=antipode,
        adjacency=rings,
        compounds=_compounds(tetrahedra),
        exact_positions=exact,
        squared_distances=tuple(tuple(row) for row in d2),
    )


def positions(model: PolytopeModel) -> tuple[Vec, ...]:
    """The float embedding: each exact position on the unit sphere, rotated
    so that the canonical vertex 0 is the north pole (0, 0, 1)."""
    return _embedding(model.exact_positions)


def _check_id(x: int) -> None:
    # bool is a subclass of int, but True is not id 1
    if type(x) is not int or not 0 <= x < 20:
        raise ValueError(f"vertex id out of range: {x!r}")


def _listed(items, kind: str) -> list:
    """The items as a list; raises ValueError if they are not iterable."""
    try:
        return list(items)
    except TypeError:
        raise ValueError(f"expected {kind}, not {items!r}") from None


def _least_neighbour(rings, v: int) -> int:
    """v's smallest neighbour in a model's rings; ValueError if v has none."""
    if not rings[v]:
        raise ValueError(f"vertex {v} has no neighbours")
    return min(rings[v])


def _vertex_faces(faces) -> tuple[tuple[int, int, int], ...]:
    """The ids of the faces through each vertex, ascending, worked out from
    a model's faces; ValueError names a vertex on other than 3 faces."""
    held = [[] for _ in range(20)]
    for fid, f in enumerate(faces):
        for v in set(f):
            held[v].append(fid)
    if off := [v for v in range(20) if len(held[v]) != 3]:
        raise ValueError(f"vertex {off[0]} is on {len(held[off[0]])} faces, expected 3")
    return tuple(map(tuple, held))


def _turn(rings, u: int, w: int, side: int) -> int:
    """The turn at the end of u -> w on a model's rings (`adjacency`): the
    neighbour after u in w's ring for side +1 (left), the one before it for
    side -1 (right).  Raises ValueError unless w's ring is 3 neighbours, u
    among them."""
    ring = rings[w]
    if len(ring) == 3:
        try:
            return ring[(ring.index(u) + side) % 3]
        except ValueError:  # u is not in the ring
            pass
    raise ValueError(f"the ring of {w} has no turns at the end of {u} -> {w}")


def distance_spectrum(model: PolytopeModel) -> tuple[tuple[float, int], ...]:
    """All distinct pairwise vertex distances with multiplicities.

    Pairs are grouped by exact squared distance; each class reports the
    float distance of its first pair.  The result is sorted ascending and
    the multiplicities sum to C(20,2) = 190.
    """
    pos = positions(model)
    groups: dict[ZPhi, list] = {}
    for i, j in combinations(range(20), 2):
        d2 = model.squared_distances[i][j]
        if d2 not in groups:
            groups[d2] = [norm(sub(pos[i], pos[j])), 0]
        groups[d2][1] += 1
    return tuple(sorted((d, c) for d, c in groups.values()))


# the colour of each colouring colour, and of each tetrahedron of a compound
_PALETTE = (
    (230, 230, 230),
    (240, 200, 40),
    (200, 40, 40),
    (40, 80, 200),
    (30, 30, 30),
)


def _off_mesh(model: PolytopeModel, polygons, vertex_suffix=None) -> str:
    """An OFF-family mesh on the 20 vertices: the header (COFF with vertex
    colours ``vertex_suffix[v]``, else OFF), the count line, each vertex's
    coordinates at 17 significant digits, which round-trip, followed by its
    suffix when given, and one line per polygon, its integers space-separated."""
    lines = ["COFF" if vertex_suffix else "OFF", f"20 {len(polygons)} 30"]
    for v, p in enumerate(positions(model)[:20]):
        coords = " ".join(format(x, ".17g") for x in p)
        lines.append(coords + vertex_suffix[v] if vertex_suffix else coords)
    lines += (" ".join(map(str, p)) for p in polygons)
    return "\n".join(lines) + "\n"


def model_to_off(model: PolytopeModel) -> str:
    """OFF mesh of the dodecahedron; byte-stable across runs."""
    return _off_mesh(model, [(5, *f) for f in model.faces])


def model_to_json(model: PolytopeModel) -> str:
    """JSON document with vertices, faces and the antipodal map; byte-stable."""
    doc = {
        "vertices": [list(p) for p in positions(model)],
        "faces": [list(f) for f in model.faces],
        "antipode": list(model.antipode),
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
