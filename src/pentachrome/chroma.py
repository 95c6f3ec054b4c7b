"""Face-rainbow colourings: validity, enumeration, the colour-group action,
orbit partitioning, zigzag traces and cyclic-order parities.

A colouring is a plain tuple of 20 colours in {1..5}, indexed by vertex id.
Tuples are the public type.  The colour action runs in one place,
`_images` (for `act`, `stabilizer` and `orbit_partition`), on 20-byte
copies: relabelling is one `bytes.translate` and the antipodal half of
sign -1 one `itemgetter` gather.
Two independent enumerators are provided: a brute-force backtracking search
(`enumerate_colourings`) and a constraint-propagation replay
(`enumerate_by_propagation`) that fixes the colours of the north pole and
its neighbours, branches on the two completions of the first face, and
forces everything else.  The two must produce identical sets.
"""

from __future__ import annotations

import json
from itertools import permutations
from operator import itemgetter

from .polytope import PolytopeModel, _check_id, _fmt
from .symmetry import (
    ColourSymmetry, _check_subgroup, _check_symmetries, perm_parity,
)

Colouring = tuple[int, ...]

COLOURS = (1, 2, 3, 4, 5)
LEFT = "left"
RIGHT = "right"
LABELLING = "canonical-v1"
_ALL = sum(1 << x for x in COLOURS)  # a face bitmask holding every colour


class PropagationError(RuntimeError):
    """Constraint propagation contradicted itself or stalled."""


def check_colouring(c) -> Colouring:
    """Validate shape and colour range; returns the colouring as a tuple."""
    try:
        c = tuple(c)
    except TypeError:
        raise ValueError(f"colouring must be a sequence of 20 colours, not {c!r}") from None
    if len(c) != 20:
        raise ValueError(f"colouring must assign 20 vertices, got {len(c)}")
    for v, x in enumerate(c):
        # bool is a subclass of int, but True is not colour 1
        if type(x) is not int or x not in COLOURS:
            raise ValueError(f"vertex {v} has colour {x!r}, expected 1..5")
    return c


def is_valid(model: PolytopeModel, c) -> bool:
    """True iff every face carries all five colours."""
    return first_violated_face(model, c) is None


def first_violated_face(model: PolytopeModel, c) -> int | None:
    return _first_violated_face(model, check_colouring(c))


def _first_violated_face(model: PolytopeModel, c: Colouring) -> int | None:
    """`first_violated_face` on a colouring already known to be 20 colours."""
    for fid, (a, b, d, e, f) in enumerate(model.faces):
        if len({c[a], c[b], c[d], c[e], c[f]}) != 5:
            return fid
    return None


def check_rainbow(model: PolytopeModel, c) -> Colouring:
    """The full check made once at each public entry: 20 colours in 1..5
    and every face rainbow.  Returns the colouring as a tuple; raises
    ValueError otherwise."""
    c = check_colouring(c)
    if _first_violated_face(model, c) is not None:
        raise ValueError("colouring is not face-rainbow")
    return c


def colour_classes(c: Colouring) -> dict[int, frozenset[int]]:
    """colour -> the vertices carrying it; c must be 20 colours in 1..5."""
    c = check_colouring(c)
    return {
        colour: frozenset(v for v in range(20) if c[v] == colour)
        for colour in COLOURS
    }


# ---------------------------------------------------------------------------
# enumeration, route one: depth-first backtracking

def enumerate_colourings(model: PolytopeModel) -> tuple[Colouring, ...]:
    """Every face-rainbow colouring, in lexicographic order.

    Vertices are assigned in id order, colours tried ascending; a colour is
    rejected as soon as it repeats on any face through the vertex.  No
    symmetry assumptions are made, so this is the assumption-free oracle.
    """
    vertex_faces = model.vertex_faces
    face_used = [0] * 12
    col = [0] * 20
    out: list[Colouring] = []

    def extend(v: int) -> None:
        if v == 20:
            out.append(tuple(col))
            return
        f0, f1, f2 = vertex_faces[v]
        used = face_used[f0] | face_used[f1] | face_used[f2]
        for colour in COLOURS:
            bit = 1 << colour
            if used & bit:
                continue
            col[v] = colour
            face_used[f0] |= bit
            face_used[f1] |= bit
            face_used[f2] |= bit
            extend(v + 1)
            face_used[f0] &= ~bit
            face_used[f1] &= ~bit
            face_used[f2] &= ~bit
        col[v] = 0

    extend(0)
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration, route two: propagation replay

def colour_frames():
    """The 120 ways to colour the north pole and its three neighbours.

    A frame fixes the colour of vertex 0 and an ordered assignment of three
    of the remaining colours to vertices 1, 2, 3 (the C1 band in azimuth
    order).
    """
    for pole in COLOURS:
        rest = [x for x in COLOURS if x != pole]
        for triple in permutations(rest, 3):
            yield pole, triple


def _propagate(model: PolytopeModel, col: list[int]) -> None:
    """Run singles propagation to a fixpoint, in place.

    Each face keeps a bitmask of the colours on it (bit x for colour x), and
    a vertex's candidates are the colours on none of its three faces.
    Assigns forced vertices (a single candidate) and forced face slots (a
    missing colour with a single possible vertex on that face).  Raises
    PropagationError on contradiction, or if the fixpoint leaves a vertex
    uncoloured.
    """
    faces = model.faces
    vertex_faces = model.vertex_faces
    used = [0] * 12
    for fid, f in enumerate(faces):
        for v in f:
            used[fid] |= 1 << col[v]
        used[fid] &= _ALL  # bit 0 came from the uncoloured vertices

    def candidates(v: int) -> int:
        f0, f1, f2 = vertex_faces[v]
        return _ALL & ~(used[f0] | used[f1] | used[f2])

    def assign(v: int, colour: int) -> None:
        col[v] = colour
        for f in vertex_faces[v]:
            used[f] |= 1 << colour

    changed = True
    while changed:
        changed = False
        for v in range(20):
            if col[v]:
                continue
            cand = candidates(v)
            if not cand:
                raise PropagationError(f"no colour left for vertex {v}")
            if not cand & (cand - 1):
                assign(v, cand.bit_length() - 1)
                changed = True
        for fid, f in enumerate(faces):
            open_vs = [v for v in f if not col[v]]
            if used[fid].bit_count() != 5 - len(open_vs):
                raise PropagationError("face carries a colour twice")
            missing = _ALL & ~used[fid]
            for colour in COLOURS:
                bit = 1 << colour
                if not missing & bit:
                    continue
                slots = [v for v in open_vs if not col[v] and candidates(v) & bit]
                if not slots:
                    raise PropagationError("missing colour has no slot on face")
                if len(slots) == 1:
                    assign(slots[0], colour)
                    changed = True
    if 0 in col:
        raise PropagationError("propagation stalled before completion")


def frame_completions(model: PolytopeModel, pole: int, triple) -> tuple[Colouring, Colouring]:
    """The exactly-two colourings extending a frame.

    Branches on the two ways to finish the first face at the north pole;
    each branch then propagates to a unique full colouring.
    """
    base = [0] * 20
    base[0] = pole
    base[1], base[2], base[3] = triple

    first_face = model.faces[model.vertex_faces[0][0]]
    open_vs = sorted(v for v in first_face if not base[v])
    if len(open_vs) != 2:
        raise AssertionError(f"frame leaves {len(open_vs)} open vertices on the first face")
    missing = sorted(set(COLOURS) - {base[v] for v in first_face if base[v]})
    if len(missing) != 2:
        raise AssertionError(f"frame leaves {len(missing)} colours for the first face")

    results = []
    for pair in (missing, missing[::-1]):
        col = list(base)
        col[open_vs[0]], col[open_vs[1]] = pair
        _propagate(model, col)
        done = tuple(col)
        if not is_valid(model, done):
            raise PropagationError("propagation produced an invalid colouring")
        results.append(done)
    if results[0] == results[1]:
        raise AssertionError("both branches of a frame gave the same colouring")
    return results[0], results[1]


def enumerate_by_propagation(model: PolytopeModel) -> tuple[Colouring, ...]:
    """All colourings via frame-by-frame propagation, sorted lexicographically."""
    out = []
    for pole, triple in colour_frames():
        out.extend(frame_completions(model, pole, triple))
    out.sort()
    if len(out) != len(set(out)):
        raise AssertionError("frames produced a duplicate colouring")
    return tuple(out)


def seed_colourings(model: PolytopeModel) -> tuple[Colouring, Colouring]:
    """The two canonical colourings: north pole 1, neighbours 2, 3, 4.

    Seed A is the branch whose face cyclic orders are even; under the
    canonical embedding its colour classes form compound A of the inscribed
    tetrahedra and its zigzags work left-handed (both pairings are fixed by
    the embedding and asserted in tests).
    """
    a, b = frame_completions(model, 1, (2, 3, 4))
    if parity_class(model, a) != 1:
        a, b = b, a
    if not (parity_class(model, a) == 1 and parity_class(model, b) == -1):
        raise AssertionError("the seeds do not have opposite parities")
    return a, b


# ---------------------------------------------------------------------------
# the colour-group action

# bytes.translate tables, one per colour permutation: byte x -> perm[x-1]
_RELABEL = {p: bytes.maketrans(b"\1\2\3\4\5", bytes(p)) for p in permutations(COLOURS)}


def _images(c, H, model: PolytopeModel) -> list[bytes]:
    """The 20-byte image of the valid colouring c under each element of H,
    in H's order: relabel colours, and for sign -1 take each vertex's
    colour from its antipode."""
    b = bytes(c)
    mirrored = bytes(itemgetter(*model.antipode)(b))
    return [(mirrored if sign == -1 else b).translate(_RELABEL[perm]) for perm, sign in H]


def act(g: ColourSymmetry, c: Colouring, model: PolytopeModel) -> Colouring:
    """Apply a colour symmetry: relabel colours, then for sign -1 take each
    vertex's colour from its antipode."""
    _check_symmetries([g])
    (image,) = _images(check_rainbow(model, c), [g], model)
    return tuple(image)


def orbit_partition(colourings, H, model: PolytopeModel) -> tuple[tuple[Colouring, ...], ...]:
    """Partition colourings into orbits of the subgroup H.

    Sweeps the sorted pool: a colouring not yet placed is the smallest
    member of its orbit, and its image set under H is that orbit.  H acts
    only on these smallest members, once per colouring in all when the
    action is free.  An image outside the pool raises, so the orbit count
    formula is something this function's callers can check, not an
    assumption baked in.  Orbits come out sorted, in order of their
    smallest member.  The sweep runs on 20-byte colourings, which sort
    exactly like the tuples.
    """
    H = _check_subgroup(H)
    pool = sorted(bytes(check_rainbow(model, c)) for c in colourings)
    members = set(pool)
    if len(members) != len(pool):
        raise ValueError("duplicate colourings in input")

    placed: set[bytes] = set()
    orbits = []
    for b in pool:
        if b in placed:
            continue
        orbit = set(_images(b, H, model))
        if not orbit <= members:
            raise ValueError("subgroup action leaves the given colouring set")
        placed |= orbit
        orbits.append(tuple(tuple(o) for o in sorted(orbit)))
    return tuple(orbits)


def stabilizer(c: Colouring, H, model: PolytopeModel) -> list[ColourSymmetry]:
    """The elements of H that fix c; every element is applied."""
    b = bytes(check_rainbow(model, c))
    H = _check_symmetries(H)
    return sorted({g for g, image in zip(H, _images(b, H, model)) if image == b})


# ---------------------------------------------------------------------------
# zigzag walks (property P1)

def zigzag_walk(model: PolytopeModel, start: int, first: int, handedness: str) -> tuple[int, ...]:
    """The closed zigzag walk from ``start`` leaving along the edge to ``first``.

    Each three-edge block turns to the handedness side and then to the
    opposite side; the connecting turn at the block boundaries alternates
    sides, which closes the walk after 12 edges.  Returns the vertex
    sequence with both endpoints equal to ``start``.
    """
    _check_id(start, 20, "vertex")
    _check_id(first, 20, "vertex")
    if first not in model.adjacency[start]:
        raise ValueError(f"{first} is not a neighbour of {start}")
    if handedness not in (LEFT, RIGHT):
        raise ValueError(f"handedness must be 'left' or 'right': {handedness!r}")
    side = (LEFT, RIGHT).index(handedness)  # into model.turns' (left, right) pairs
    word = (side, 1 - side, side, side, 1 - side, 1 - side)
    seq = [start, first]
    prev, cur = start, first
    i = 1
    while True:
        nxt = model.turns[prev][cur][word[(i - 1) % 6]]
        seq.append(nxt)
        prev, cur = cur, nxt
        i += 1
        if (prev, cur) == (start, first) and (i - 1) % 6 == 0:
            break
        if i > 60:
            raise AssertionError("zigzag walk failed to close")
    return tuple(seq[:-1])


def zigzag_trace(model: PolytopeModel, c: Colouring, v: int, handedness: str) -> frozenset[int]:
    """Checkpoint set of the zigzag from v: every 3rd vertex of the closed walk.

    For exactly one handedness (fixed by the chirality class of the
    colouring) this set is the colour class of v.  The set is independent
    of the outgoing edge and of the colouring, so the walk leaves along the
    lowest-id neighbour.
    """
    check_rainbow(model, c)
    _check_id(v, 20, "vertex")
    return _checkpoints(model, v, handedness)


def _checkpoints(model: PolytopeModel, v: int, handedness: str) -> frozenset[int]:
    """`zigzag_trace` without the colouring, which the set does not depend on."""
    walk = zigzag_walk(model, v, min(model.adjacency[v]), handedness)
    return frozenset(walk[::3])


def working_handedness(model: PolytopeModel, c: Colouring) -> str:
    """The handedness whose zigzag checkpoints reproduce colour classes."""
    c = check_rainbow(model, c)
    class0 = frozenset(v for v in range(20) if c[v] == c[0])
    hits = [h for h in (LEFT, RIGHT) if _checkpoints(model, 0, h) == class0]
    if len(hits) != 1:
        raise AssertionError("exactly one handedness must reproduce the class")
    return hits[0]


# ---------------------------------------------------------------------------
# face cyclic orders and their parity (property P2)

def cyclic_order_parity(order) -> int:
    """Parity of a cyclic colour order, +1 even / -1 odd.

    The order is rotated to start at colour 1; the parity is that of the
    permutation sending position i to the i-th colour of the rotated tuple.
    Rotation does not change it, so this is a class function of the cyclic
    order.
    """
    order = tuple(order)
    if sorted(order) != [1, 2, 3, 4, 5]:
        raise ValueError(f"not a colour cycle: {order!r}")
    return perm_parity(tuple(x - 1 for x in canonical_cycle(order)))


def canonical_cycle(order) -> tuple[int, ...]:
    """Rotate a cyclic colour order so it starts at colour 1."""
    order = tuple(order)
    i = order.index(1)
    return order[i:] + order[:i]


def inverse_cycle(order) -> tuple[int, ...]:
    """The same cyclic order traversed backwards, canonically rotated."""
    return canonical_cycle(tuple(reversed(order)))


# each rainbow face reading -> (canonical cyclic order, parity)
_FACE_ORDERS = {
    r: (canonical_cycle(r), cyclic_order_parity(r)) for r in permutations(COLOURS)
}


def face_parity_signature(model: PolytopeModel, c: Colouring):
    """Per face: (face id, canonical cyclic colour order, parity).

    The cyclic order reads the face in the positive sense (counterclockwise
    from outside).  For a valid colouring all 12 parities agree and the 12
    orders are pairwise distinct.
    """
    c = check_rainbow(model, c)
    return tuple(
        (fid, *_FACE_ORDERS[c[a], c[b], c[d], c[e], c[f]])
        for fid, (a, b, d, e, f) in enumerate(model.faces)
    )


def parity_class(model: PolytopeModel, c: Colouring) -> int:
    """The shared parity of all 12 face cyclic orders (+1 even, -1 odd)."""
    parities = {p for _, _, p in face_parity_signature(model, c)}
    if len(parities) != 1:
        raise AssertionError("face parities are not uniform")
    return parities.pop()


def opposite_face(model: PolytopeModel, fid: int) -> int:
    """The face antipodal to fid."""
    _check_id(fid, 12, "face")
    return model.opposite_faces[fid]


def antipodal_rule_holds(model: PolytopeModel, c: Colouring) -> bool:
    """Each antipode carries the one colour missing from a vertex and its
    three neighbours."""
    c = check_colouring(c)
    for v in range(20):
        local = {c[v]} | {c[u] for u in model.adjacency[v]}
        if len(local) != 4:
            return False
        (missing,) = set(COLOURS) - local
        if c[model.antipode[v]] != missing:
            return False
    return True


# ---------------------------------------------------------------------------
# serialization

def colouring_to_json(c: Colouring) -> str:
    doc = {"labelling": LABELLING, "colours": list(check_colouring(c))}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def colouring_from_json(text: str) -> Colouring:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("colouring document is nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("labelling") != LABELLING:
        raise ValueError(f"expected a colouring document with labelling {LABELLING!r}")
    return check_colouring(doc.get("colours"))


def enumeration_to_json(colourings) -> str:
    docs = [{"labelling": LABELLING, "colours": list(check_colouring(c))} for c in colourings]
    return json.dumps(docs, separators=(",", ":")) + "\n"


_PALETTE = (
    (230, 230, 230),
    (240, 200, 40),
    (200, 40, 40),
    (40, 80, 200),
    (30, 30, 30),
)


def colouring_to_off(model: PolytopeModel, c: Colouring) -> str:
    """COFF mesh: the dodecahedron with per-vertex colours from a palette."""
    c = check_colouring(c)
    lines = ["COFF", "20 12 30"]
    for v in model.vertices:
        r, g, b = _PALETTE[c[v.id] - 1]
        coords = " ".join(_fmt(x) for x in v.position)
        lines.append(f"{coords} {r} {g} {b} 255")
    for f in model.faces:
        lines.append("5 " + " ".join(str(v) for v in f))
    return "\n".join(lines) + "\n"
