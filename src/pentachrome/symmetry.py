"""Symmetry machinery: vertex-permutation groups of the dodecahedron and
the colour-side group.

Vertex permutations are plain tuples of 20 images.  The rotation group (60
elements) is closed from two rotations given as matrices over Z[phi]/2,
which act on the model's exact coordinates and map each vertex to the
vertex equal to its image; a generator that misses the vertex set raises.
The full group adds the central inversion.  A symmetry's spatial
determinant is the sign of an exact determinant.  Groups are returned
sorted lexicographically on image tuples so set equality is bit-exact.

A colour symmetry is the pair (perm, sign) itself, validated once when it is
built; its action on colourings is `chroma._images`.
"""

from __future__ import annotations

import math
import operator
from itertools import permutations

from .polytope import PolytopeModel, ZPhi, det3, dot

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# vertex permutations

def _check_vertex_perm(p) -> Perm:
    """p as a tuple, if it is a permutation of the 20 vertex ids; raises
    ValueError otherwise."""
    # bool is a subclass of int, but True is not the id 1
    if not (isinstance(p, (tuple, list)) and len(p) == 20
            and all(type(x) is int for x in p) and sorted(p) == list(range(20))):
        raise ValueError(f"not a permutation of the 20 vertex ids: {p!r}")
    return tuple(p)


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
    """The identity and generators closed under product by a generator on
    the right: every product of generators (finite, so inverses come free)."""
    gens = list(generators)
    group = {identity}
    frontier = [g for g in gens if g not in group]
    group.update(frontier)
    while frontier:
        fresh = []
        for g in frontier:
            for h in gens:
                prod = product(g, h)
                if prod not in group:
                    group.add(prod)
                    fresh.append(prod)
        frontier = fresh
    return frozenset(group)


# ---------------------------------------------------------------------------
# rotations of the dodecahedron

# twice the two generating rotations of the raw coordinates, so every entry
# lies in Z[phi]: the cyclic shift (x, y, z) -> (y, z, x), of order 3 about
# vertex 0, and 1/2 [[1, -phi, 1/phi], [phi, 1/phi, -1], [1/phi, 1, phi]],
# of order 5; (a, b) is a + b phi
_GENERATORS_DOUBLED = tuple(tuple(tuple(ZPhi(*e) for e in row) for row in rows) for rows in (
    (((0, 0), (2, 0), (0, 0)), ((0, 0), (0, 0), (2, 0)), ((2, 0), (0, 0), (0, 0))),
    (((1, 0), (0, -1), (-1, 1)), ((0, 1), (-1, 1), (-1, 0)), ((-1, 1), (1, 0), (0, 1))),
))


def rotation_group(model: PolytopeModel) -> tuple[Perm, ...]:
    """The 60 orientation-preserving symmetries as vertex permutations.

    Closed from the order-3 and order-5 generators, each applied to the
    exact coordinates and matched to vertices by equality.
    """
    exact = model.exact_positions
    doubled = {tuple(x + x for x in p): v for v, p in enumerate(exact)}
    try:
        gens = [tuple(doubled[tuple(dot(row, p) for row in rows)] for p in exact)
                for rows in _GENERATORS_DOUBLED]
    except KeyError:
        raise AssertionError("a generator is not a symmetry of the vertex set") from None
    group = _closure(gens, tuple(range(20)), compose)
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


def spatial_determinant(model: PolytopeModel, p: Perm) -> int:
    """+1 for rotations, -1 for orientation-reversing symmetries.

    p must be a vertex permutation keeping every exact squared distance, or
    ValueError is raised; then an orthogonal map M realizes it, and det M
    has the sign of det(images of 0, 1, 4) times that of det(0, 1, 4).
    """
    p = _check_vertex_perm(p)
    d2, image = model.squared_distances, operator.itemgetter(*p)
    if any(image(d2[p[u]]) != d2[u] for u in range(20)):
        raise ValueError("permutation does not keep the vertex distances")
    x = model.exact_positions
    base = det3((x[0], x[1], x[4])).sign()
    if base == 0:
        raise AssertionError("vertices 0, 1, 4 are not a basis")
    return det3((x[p[0]], x[p[1]], x[p[4]])).sign() * base


def tetra_action(model: PolytopeModel, g: Perm, tetrahedra) -> Perm:
    """The permutation a symmetry induces on the 5 tetrahedra of a compound.

    ``tetrahedra`` is an ordered sequence of five 4-tuples of vertex ids.
    Returns images as a 5-tuple on indices 0..4.  Raises ValueError if g
    is not a vertex permutation or does not map the compound to itself
    setwise.
    """
    g = _check_vertex_perm(g)
    tets = [frozenset(t) for t in tetrahedra]
    images = []
    for t in tets:
        img = frozenset(g[v] for v in t)
        if img not in tets:
            raise ValueError("symmetry does not stabilize the compound")
        images.append(tets.index(img))
    # g is a bijection, so distinct tetrahedra have distinct images
    return tuple(images)


# ---------------------------------------------------------------------------
# the colour-side group: permutations of {1..5} with a sign

_FIVE_INTS = (int,) * 5


class ColourSymmetry(tuple):
    """A colour permutation together with a sign: the pair (perm, sign).

    ``perm[i-1]`` is the image of colour i.  Sign +1 relabels colours only;
    sign -1 additionally exchanges the colours of antipodal vertices.  Only
    construction validates, as products of valid symmetries are valid.
    """

    __slots__ = ()
    perm = property(operator.itemgetter(0))
    sign = property(operator.itemgetter(1))

    def __new__(cls, perm: tuple[int, int, int, int, int], sign: int = 1):
        # bool is a subclass of int, but True is neither colour 1 nor sign +1
        if not (type(perm) is tuple and tuple(map(type, perm)) == _FIVE_INTS
                and sorted(perm) == [1, 2, 3, 4, 5]):
            raise ValueError(f"not a colour permutation: {perm!r}")
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1: {sign!r}")
        return tuple.__new__(cls, (perm, sign))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return tuple(self)

    def __repr__(self) -> str:
        return f"ColourSymmetry(perm={self[0]!r}, sign={self[1]!r})"

    def __mul__(self, other: "ColourSymmetry") -> "ColourSymmetry":
        """self after other; a factor that is no ColourSymmetry has no .perm."""
        p, q = self[0], other.perm
        perm = (p[q[0] - 1], p[q[1] - 1], p[q[2] - 1], p[q[3] - 1], p[q[4] - 1])
        return tuple.__new__(ColourSymmetry, (perm, self[1] * other.sign))

    __rmul__ = __mul__  # not tuple repetition: an int factor raises in __mul__

    def inverse(self) -> "ColourSymmetry":
        inv = [0] * 5
        for i, img in enumerate(self[0]):
            inv[img - 1] = i + 1
        return tuple.__new__(ColourSymmetry, (tuple(inv), self[1]))

    def parity(self) -> int:
        return perm_parity(tuple(v - 1 for v in self[0]))


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


def _check_subgroup(H) -> set[ColourSymmetry]:
    """H as a set, if it is the group its own elements generate.  Each
    generator, taken greedily, at least doubles the closure: at most 7."""
    members = set(_check_symmetries(H))
    if COLOUR_IDENTITY not in members:
        raise ValueError("subgroup must contain the identity")
    gens, closure = [], {COLOUR_IDENTITY}
    for g in sorted(members):
        if g not in closure:
            gens.append(g)
            closure = _closure(gens, COLOUR_IDENTITY, operator.mul)
            if not closure <= members:
                raise ValueError("generator set is not closed under composition")
    return members


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
    "S5": lambda: frozenset(g for g in colour_group() if g.sign == 1),
    "A5": lambda: frozenset(g for g in colour_group() if g.sign == 1 and g.parity() == 1),
    "A5xC2": lambda: frozenset(g for g in colour_group() if g.parity() == 1),
    "S5xC2": colour_group,
}
NAMED_SUBGROUPS = tuple(_SUBGROUP_BUILDERS)


def named_subgroup(name: str) -> frozenset[ColourSymmetry]:
    """One of the named subgroups: trivial, C2, S5, A5, A5xC2, S5xC2."""
    try:
        return _SUBGROUP_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown subgroup name: {name!r}") from None
