"""Symmetry machinery: vertex-permutation groups of the dodecahedron and
the colour-side group.

Vertex permutations are plain tuples of 20 images.  A symmetry is read off
the rings: it follows the turns from the edge 0 -> a, a the least neighbour
of 0, onto a directed edge, keeping left and right (the 60 rotations) or
swapping them (the 60 others).  The rule that orients the turns,
det(u, w, right) > 0, makes a symmetry's spatial determinant the sign of one
exact determinant.  Groups are sorted on image tuples, so equality is exact.

A colour symmetry is the pair (perm, sign) itself, validated once when it is
built; its action on colourings is `chroma._images`.  A `Subgroup` is a
frozenset of colour symmetries known to be a group: `Subgroup(H)` checks H
once, and the library's own subgroups are made as groups, so the entries
that need a subgroup trust one and check anything else.
"""

from __future__ import annotations

import math
import operator
from itertools import permutations, repeat

from .polytope import PolytopeModel, _least_neighbour, _listed, _turn, det3

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# vertex permutations

def _permutes(x, values) -> bool:
    """True iff the tuple or list x holds exactly the ints of ``values``, in
    some order.  bool is excluded: True is not 1.  The types go first, as
    sorting mixed types raises TypeError."""
    return tuple(map(type, x)) == (int,) * len(x) and sorted(x) == sorted(values)


def _check_vertex_perm(p) -> Perm:
    """p as a tuple, if it is a permutation of the 20 vertex ids; raises
    ValueError otherwise."""
    if not (isinstance(p, (tuple, list)) and _permutes(p, range(20))):
        raise ValueError(f"not a permutation of the 20 vertex ids: {p!r}")
    return tuple(p)


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p . q)(v) = p[q[v]].  ValueError unless p is a tuple or
    list and q a tuple or list that permutes p's indices."""
    if not (isinstance(p, (tuple, list)) and isinstance(q, (tuple, list))
            and _permutes(q, range(len(p)))):
        raise ValueError(f"cannot compose {p!r} after {q!r}")
    return tuple(p[q[v]] for v in range(len(p)))


def _cycle_lengths(p: Perm) -> list[int]:
    """The lengths of p's cycles, fixed points included.  ValueError unless
    p is a tuple or list that permutes its indices."""
    if not (isinstance(p, (tuple, list)) and _permutes(p, range(len(p)))):
        raise ValueError(f"not a permutation: {p!r}")
    seen = [False] * len(p)
    lengths = []
    for v in range(len(p)):
        n = 0
        w = v
        while not seen[w]:
            seen[w] = True
            w = p[w]
            n += 1
        if n:
            lengths.append(n)
    return lengths


def perm_parity(p: Perm) -> int:
    """+1 for even, -1 for odd: the parity of n minus the number of cycles."""
    cycles = _cycle_lengths(p)
    return 1 if (len(p) - len(cycles)) % 2 == 0 else -1


def perm_order(p: Perm) -> int:
    return math.lcm(*_cycle_lengths(p))


# ---------------------------------------------------------------------------
# the symmetries of the dodecahedron, read off the rings

def _turn_map(model: PolytopeModel, u: int, w: int, hand: int) -> Perm:
    """The vertex map following the turns from the edge 0 -> a, a the least
    neighbour of 0, onto u -> w: hand +1 keeps each turn's side, -1 swaps it.
    Raises ValueError if 0 has no neighbour, where a turn it takes has none
    (`_turn`), or unless it permutes."""
    rings = model.adjacency
    a = _least_neighbour(rings, 0)
    image, edges = {0: u, a: w}, [(0, a)]
    for x, y in edges:  # grows by an edge to each newly reached vertex
        for side in (1, -1):  # the left turn, then the right
            if (z := _turn(rings, x, y, side)) not in image:
                image[z] = _turn(rings, image[x], image[y], side * hand)
                edges.append((y, z))
    if sorted(image.values()) != list(range(20)):
        raise ValueError(f"the turn map onto {u} -> {w} is not a permutation")
    return tuple(map(image.__getitem__, range(20)))


def rotation_group(model: PolytopeModel) -> tuple[Perm, ...]:
    """The 60 rotations: the side-keeping turn map onto each directed edge of the rings."""
    return tuple(sorted(_turn_map(model, u, w, 1)
                        for u, ring in enumerate(model.adjacency) for w in ring))


def full_group(model: PolytopeModel) -> tuple[Perm, ...]:
    """All 120 symmetries: each rotation, and each rotation after the
    side-swapping turn map that fixes 0 -> a, a the least neighbour of 0."""
    return _full_group(model, rotation_group(model))


def _full_group(model: PolytopeModel, rot: tuple[Perm, ...]) -> tuple[Perm, ...]:
    """`full_group` from the model's rotation group ``rot``."""
    mirror = _turn_map(model, 0, _least_neighbour(model.adjacency, 0), -1)
    group = set(rot).union(compose(g, mirror) for g in rot)
    if len(group) != 120:
        raise ValueError(f"full group has {len(group)} elements")
    return tuple(sorted(group))


def spatial_determinant(model: PolytopeModel, p: Perm) -> int:
    """+1 for rotations, -1 for orientation-reversing symmetries.

    p must be a vertex permutation keeping every exact squared distance, or
    ValueError is raised; then an orthogonal map M realizes it, and det M
    has the sign of det(images of 0, a and r), as the turn rule makes
    det(0, a, r) > 0 for a the least neighbour of 0 and r the right turn
    after 0 -> a.  Raises ValueError if 0 has no neighbour, that turn has
    none (`_turn`), or that determinant is zero.
    """
    p = _check_vertex_perm(p)
    d2, image = model.squared_distances, operator.itemgetter(*p)
    if any(image(d2[p[u]]) != d2[u] for u in range(20)):
        raise ValueError("permutation does not keep the vertex distances")
    x, rings = model.exact_positions, model.adjacency
    a = _least_neighbour(rings, 0)
    sign = det3((x[p[0]], x[p[a]], x[p[_turn(rings, 0, a, -1)]])).sign()
    if sign == 0:
        raise ValueError(f"zero determinant at the end of 0 -> {a}")
    return sign


def tetra_action(g: Perm, tetrahedra) -> Perm:
    """The permutation a symmetry induces on the 5 tetrahedra of a compound.

    ``tetrahedra`` is an ordered sequence of five distinct 4-tuples of
    vertex ids.  Returns images as a 5-tuple on indices 0..4.  Raises
    ValueError if g is not a vertex permutation, the tetrahedra are not
    such a sequence, or g does not map the compound to itself setwise.
    """
    g = _check_vertex_perm(g)
    try:
        tets = [frozenset(t) for t in tetrahedra]
    except TypeError:
        tets = []
    if not (len(set(tets)) == len(tets) == 5 and all(
            len(t) == 4 and all(type(v) is int and 0 <= v < 20 for v in t) for t in tets)):
        raise ValueError(f"not five distinct 4-tuples of vertex ids: {tetrahedra!r}")
    images = [frozenset(g[v] for v in t) for t in tets]
    if not set(images) <= set(tets):
        raise ValueError("symmetry does not stabilize the compound")
    # g is a bijection, so distinct tetrahedra have distinct images
    return tuple(map(tets.index, images))


# ---------------------------------------------------------------------------
# the colour-side group: permutations of {1..5} with a sign

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
        if not (type(perm) is tuple and _permutes(perm, range(1, 6))):
            raise ValueError(f"not a colour permutation: {perm!r}")
        # bool is a subclass of int, but True is not sign +1
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


COLOUR_IDENTITY = ColourSymmetry((1, 2, 3, 4, 5), 1)
COLOUR_SWAP = ColourSymmetry((1, 2, 3, 4, 5), -1)


def _closure(generators, identity, product) -> set:
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
    return group


def _check_symmetries(elements) -> list[ColourSymmetry]:
    """The elements as a list, if they are an iterable of ColourSymmetry;
    raises ValueError otherwise."""
    elems = _listed(elements, "colour symmetries")
    if not all(map(isinstance, elems, repeat(ColourSymmetry))):
        g = next(g for g in elems if not isinstance(g, ColourSymmetry))
        raise ValueError(f"not a colour symmetry: {g!r}")
    return elems


class Subgroup(frozenset):
    """A subgroup of G: the frozenset of its colour symmetries, checked once.

    ``Subgroup(H)`` runs `_check_subgroup` and raises ValueError unless H is
    a group of colour symmetries.  A set operation returns a plain
    frozenset, and a copy or an unpickled instance is checked again.
    """

    __slots__ = ()

    def __new__(cls, H) -> "Subgroup":
        return _check_subgroup(H)


def _check_subgroup(H) -> Subgroup:
    """H as a `Subgroup`, if it is the group its own elements generate; a
    `Subgroup` is returned unchanged.  Each generator, taken greedily, at
    least doubles the closure: at most 7."""
    if type(H) is Subgroup:
        return H
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
    return frozenset.__new__(Subgroup, members)


def generate_subgroup(generators) -> Subgroup:
    """Closure of colour symmetries under composition and inverse: a
    subgroup of G, so its order divides 240."""
    closure = _closure(_check_symmetries(generators), COLOUR_IDENTITY, operator.mul)
    return frozenset.__new__(Subgroup, closure)


_PERMS = tuple(permutations((1, 2, 3, 4, 5)))  # the identity first
_EVEN_PERMS = tuple(p for p in _PERMS if perm_parity(tuple(x - 1 for x in p)) == 1)


def _products(perms, signs) -> Subgroup:
    """Every (perm, sign) of a subgroup of S5 and one of {1, -1}: a group."""
    return frozenset.__new__(Subgroup, (
        tuple.__new__(ColourSymmetry, (p, s)) for p in perms for s in signs))


def colour_group() -> Subgroup:
    """The full colour-side group: all 5! permutations times both signs."""
    return _products(_PERMS, (1, -1))


_SUBGROUP_BUILDERS = {
    "trivial": lambda: _products(_PERMS[:1], (1,)),
    "C2": lambda: _products(_PERMS[:1], (1, -1)),
    "S5": lambda: _products(_PERMS, (1,)),
    "A5": lambda: _products(_EVEN_PERMS, (1,)),
    "A5xC2": lambda: _products(_EVEN_PERMS, (1, -1)),
    "S5xC2": colour_group,
}
NAMED_SUBGROUPS = tuple(_SUBGROUP_BUILDERS)


def named_subgroup(name: str) -> Subgroup:
    """One of the named subgroups: trivial, C2, S5, A5, A5xC2, S5xC2."""
    builder = _SUBGROUP_BUILDERS.get(name) if type(name) is str else None
    if builder is None:
        raise ValueError(f"unknown subgroup name: {name!r}")
    return builder()
