"""Symmetry machinery: vertex-permutation groups of the dodecahedron and
the colour-side group.

Vertex permutations are plain tuples of 20 images.  The rotation group (60
elements) is generated from two explicit rotations realized as orthogonal
matrices and converted to permutations by nearest-vertex matching, which is
self-validating: the matching must be a bijection within tolerance.  The
full group adds the central inversion.  Groups are returned sorted
lexicographically on image tuples so set equality is bit-exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import permutations

from .polytope import (
    TOL, Mat, PolytopeModel, centroid, det3, dot, inv3, norm, positions, sub,
)

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# vertex permutations

def identity_perm(n: int = 20) -> Perm:
    return tuple(range(n))


def is_permutation(p, n: int) -> bool:
    return len(p) == n and sorted(p) == list(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p . q)(v) = p[q[v]]."""
    return tuple(p[q[v]] for v in range(len(p)))


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for v, img in enumerate(p):
        inv[img] = v
    return tuple(inv)


def perm_cycles(p: Perm) -> list[tuple[int, ...]]:
    seen = [False] * len(p)
    cycles = []
    for v in range(len(p)):
        if seen[v]:
            continue
        cyc = [v]
        seen[v] = True
        w = p[v]
        while w != v:
            cyc.append(w)
            seen[w] = True
            w = p[w]
        cycles.append(tuple(cyc))
    return cycles


def perm_parity(p: Perm) -> int:
    """+1 for even, -1 for odd: the parity of n minus the number of cycles."""
    seen = [False] * len(p)
    swaps = len(p)
    for v in range(len(p)):
        if seen[v]:
            continue
        swaps -= 1
        w = v
        while not seen[w]:
            seen[w] = True
            w = p[w]
    return 1 if swaps % 2 == 0 else -1


def perm_order(p: Perm) -> int:
    order = 1
    for c in perm_cycles(p):
        order = math.lcm(order, len(c))
    return order


def _closure(generators, identity, product) -> frozenset:
    """The identity and generators closed under product (finite, so
    inverses come free)."""
    gens = list(generators)
    group = {identity}
    frontier = [g for g in gens if g not in group]
    group.update(frontier)
    while frontier:
        fresh = []
        for g in frontier:
            for h in gens:
                for prod in (product(g, h), product(h, g)):
                    if prod not in group:
                        group.add(prod)
                        fresh.append(prod)
        frontier = fresh
    return frozenset(group)


def close_under_composition(generators) -> frozenset:
    """Closure of a set of permutations; empty for no generators."""
    gens = list(generators)
    if not gens:
        return frozenset()
    return _closure(gens, identity_perm(len(gens[0])), compose)


# ---------------------------------------------------------------------------
# rotations of the dodecahedron

def _axis_rotation(axis, angle: float) -> Mat:
    """Rodrigues: cos I + sin K + (1 - cos) a a^T for the unit axis a."""
    a = tuple(float(x) / norm(axis) for x in axis)
    c, s = math.cos(angle), math.sin(angle)
    k = ((0.0, -a[2], a[1]), (a[2], 0.0, -a[0]), (-a[1], a[0], 0.0))
    return tuple(
        tuple((c if i == j else 0.0) + s * k[i][j] + (1.0 - c) * a[i] * a[j] for j in range(3))
        for i in range(3)
    )


def rotation_permutation(model: PolytopeModel, axis, angle: float) -> Perm:
    """Vertex permutation induced by the rotation about axis by angle.

    Raises if the rotated vertex set does not match the vertex set within
    tolerance (i.e. the rotation is not a symmetry).
    """
    pos = positions(model)
    r = _axis_rotation(axis, angle)
    images = []
    for p in pos:
        rotated = tuple(dot(row, p) for row in r)
        d = [norm(sub(q, rotated)) for q in pos]
        w = min(range(20), key=d.__getitem__)
        if d[w] >= TOL:
            raise ValueError("rotation is not a symmetry of the vertex set")
        images.append(w)
    p = tuple(images)
    if not is_permutation(p, 20):
        raise ValueError("rotation does not induce a bijection on vertices")
    return p


def rotation_group(model: PolytopeModel) -> tuple[Perm, ...]:
    """The 60 orientation-preserving symmetries as vertex permutations.

    Generated by an order-3 rotation about the vertex-0 axis and an order-5
    rotation about the axis through the centre of the first face at vertex 0.
    """
    r3 = rotation_permutation(model, (0.0, 0.0, 1.0), 2.0 * math.pi / 3.0)
    face = model.faces[model.vertex_faces[0][0]]
    centre = centroid([model.vertices[v].position for v in face])
    r5 = rotation_permutation(model, centre, 2.0 * math.pi / 5.0)
    group = close_under_composition([r3, r5])
    if len(group) != 60:
        raise AssertionError(f"rotation group has {len(group)} elements")
    return tuple(sorted(group))


def full_group(model: PolytopeModel) -> tuple[Perm, ...]:
    """All 120 symmetries: rotations plus the central inversion coset."""
    rot = rotation_group(model)
    inv = model.antipode
    mirrored = [compose(inv, g) for g in rot]
    group = set(rot) | set(mirrored)
    if len(group) != 120:
        raise AssertionError(f"full group has {len(group)} elements")
    return tuple(sorted(group))


def realization_matrix(model: PolytopeModel, p: Perm) -> Mat:
    """The orthogonal 3x3 matrix (rows) taking every vertex position to its image.

    It maps the basis of vertices 0, 1, 4 onto their images, so it is
    image @ inv(base) with those vertices as the columns.  Raises if p is not
    induced by a linear isometry of the coordinates.
    """
    pos = positions(model)
    base = tuple(zip(pos[0], pos[1], pos[4]))
    if abs(det3(base)) <= TOL:
        raise AssertionError("vertices 0, 1, 4 are not a basis")
    image = tuple(zip(pos[p[0]], pos[p[1]], pos[p[4]]))
    cols = tuple(zip(*inv3(base)))
    mat = tuple(tuple(dot(row, col) for col in cols) for row in image)
    if any(abs(dot(mat[i], mat[j]) - (i == j)) > 1e-8 for i in range(3) for j in range(3)):
        raise ValueError("permutation is not realized by an orthogonal map")
    for v in range(20):
        mapped = tuple(dot(row, pos[v]) for row in mat)
        if max(abs(x) for x in sub(mapped, pos[p[v]])) > 1e-8:
            raise ValueError("matrix does not map all vertices to their images")
    return mat


def spatial_determinant(model: PolytopeModel, p: Perm) -> int:
    """+1 for rotations, -1 for orientation-reversing symmetries."""
    det = det3(realization_matrix(model, p))
    if abs(abs(det) - 1.0) >= 1e-8:
        raise AssertionError(f"determinant {det} is not +-1")
    return 1 if det > 0 else -1


def tetra_action(model: PolytopeModel, g: Perm, tetrahedra) -> Perm:
    """The permutation a symmetry induces on the 5 tetrahedra of a compound.

    ``tetrahedra`` is an ordered sequence of five 4-tuples of vertex ids.
    Returns images as a 5-tuple on indices 0..4.  Raises if g does not map
    the compound to itself setwise.
    """
    tets = [frozenset(t) for t in tetrahedra]
    images = []
    for t in tets:
        img = frozenset(g[v] for v in t)
        if img not in tets:
            raise ValueError("symmetry does not stabilize the compound")
        images.append(tets.index(img))
    p = tuple(images)
    if not is_permutation(p, 5):
        raise AssertionError("tetrahedra images are not a permutation")
    return p


# ---------------------------------------------------------------------------
# the colour-side group: permutations of {1..5} with a sign

_FIVE_INTS = (int,) * 5


@dataclass(frozen=True, order=True)
class ColourSymmetry:
    """A colour permutation together with a sign.

    ``perm[i-1]`` is the image of colour i.  Sign +1 relabels colours only;
    sign -1 additionally exchanges the colours of antipodal vertices.
    """

    perm: tuple[int, int, int, int, int]
    sign: int = 1

    def __post_init__(self):
        # bool is a subclass of int, but True is neither colour 1 nor sign +1
        perm = self.perm
        if not (type(perm) is tuple and tuple(map(type, perm)) == _FIVE_INTS
                and sorted(perm) == [1, 2, 3, 4, 5]):
            raise ValueError(f"not a colour permutation: {perm!r}")
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1: {self.sign!r}")

    def __mul__(self, other: "ColourSymmetry") -> "ColourSymmetry":
        """self after other."""
        return ColourSymmetry(
            tuple(self.perm[other.perm[i] - 1] for i in range(5)),
            self.sign * other.sign,
        )

    def inverse(self) -> "ColourSymmetry":
        inv = [0] * 5
        for i, img in enumerate(self.perm):
            inv[img - 1] = i + 1
        return ColourSymmetry(tuple(inv), self.sign)

    def parity(self) -> int:
        return perm_parity(tuple(v - 1 for v in self.perm))


COLOUR_IDENTITY = ColourSymmetry((1, 2, 3, 4, 5), 1)
COLOUR_SWAP = ColourSymmetry((1, 2, 3, 4, 5), -1)


def _check_symmetries(elements) -> list[ColourSymmetry]:
    """The elements as a list, if they are an iterable of ColourSymmetry;
    raises ValueError otherwise."""
    try:
        elems = list(elements)
    except TypeError:
        raise ValueError(f"expected colour symmetries, not {elements!r}") from None
    for g in elems:
        if not isinstance(g, ColourSymmetry):
            raise ValueError(f"not a colour symmetry: {g!r}")
    return elems


def generate_subgroup(generators) -> frozenset[ColourSymmetry]:
    """Closure of colour symmetries under composition and inverse."""
    group = _closure(_check_symmetries(generators), COLOUR_IDENTITY, operator.mul)
    if 240 % len(group):
        raise AssertionError(f"group order {len(group)} does not divide 240")
    return group


def colour_group() -> frozenset[ColourSymmetry]:
    """The full colour-side group: all 5! permutations times both signs."""
    return frozenset(
        ColourSymmetry(p, s) for p in permutations((1, 2, 3, 4, 5)) for s in (1, -1)
    )


_SUBGROUP_BUILDERS = {
    "trivial": lambda: frozenset({COLOUR_IDENTITY}),
    "C2": lambda: frozenset({COLOUR_IDENTITY, COLOUR_SWAP}),
    "S5": lambda: frozenset(
        ColourSymmetry(p, 1) for p in permutations((1, 2, 3, 4, 5))
    ),
    "A5": lambda: frozenset(
        ColourSymmetry(p, 1)
        for p in permutations((1, 2, 3, 4, 5))
        if ColourSymmetry(p, 1).parity() == 1
    ),
    "A5xC2": lambda: frozenset(
        ColourSymmetry(p, s)
        for p in permutations((1, 2, 3, 4, 5))
        for s in (1, -1)
        if ColourSymmetry(p, 1).parity() == 1
    ),
    "S5xC2": colour_group,
}
NAMED_SUBGROUPS = tuple(_SUBGROUP_BUILDERS)


def named_subgroup(name: str) -> frozenset[ColourSymmetry]:
    """One of the named subgroups: trivial, C2, S5, A5, A5xC2, S5xC2."""
    try:
        return _SUBGROUP_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown subgroup name: {name!r}") from None
