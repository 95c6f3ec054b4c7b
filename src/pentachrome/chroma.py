"""Face-rainbow colourings: validity, enumeration, the colour-group action,
orbit partitioning, zigzag traces and cyclic-order parities.

A colouring is a tuple of 20 colours in {1..5}, indexed by vertex id.  One
rule decides whether five colours are rainbow: their reading is one of the
120 keys of `_FACE_ORDERS`.  The face readings (`_signature`) and the
antipodal rule apply it; colour bitmasks are left to the two searches.
A colouring's faces have one reader, `_signature`, which gives its first
face that is not rainbow, or its cyclic order and parity per face, once
per value of the faces and the colouring, and only after
`check_colouring`.  `is_valid`, `first_violated_face`, `check_rainbow`,
`face_parity_signature` and `act`'s check of a sign -1 image all read it.
Every entry that needs a face-rainbow colouring runs `check_rainbow` on
that entry's model, so a colouring is judged on the model it is used
with, and every entry returns plain tuples.  In the same way
`orbit_partition` trusts a `symmetry.Subgroup` and closes any other
collection; `stabilizer` only type-checks one, and never closes it.
The colour action runs in one place, `_images` (for `act` and
`orbit_partition`), on 20-byte copies: relabelling is one `bytes.translate`
and the antipodal half of sign -1 one `itemgetter` gather, made at the
first sign -1.  `stabilizer` applies no element of H: it reads the one
candidate relabelling per sign off the colouring and checks that.
The face readings and the zigzag checkpoint sets (`_checkpoints`, on the
rings) are bounded `functools.lru_cache` memos, each keyed on the values
it reads.  The face readings never raise, so a colouring that is not
rainbow is kept too; a fault of the rings raises and is not kept.
Colouring documents share one template, `_DOCUMENT`.
Two independent enumerators are provided: a brute-force backtracking search
(`enumerate_colourings`) and a constraint-propagation replay
(`enumerate_by_propagation`) that fixes the colours of the north pole and
its neighbours, branches on the two completions of the first face, and
forces everything else by naked singles: a vertex whose three faces leave
one colour gets that colour.  The two must produce identical sets.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import compress, permutations
from operator import itemgetter

from .polytope import (
    _PALETTE, PolytopeModel, _check_id, _least_neighbour, _listed, _off_mesh, _turn,
)
from .symmetry import (
    ColourSymmetry, Subgroup, _check_subgroup, _check_symmetries, _permutes, perm_parity,
)

Colouring = tuple[int, ...]

COLOURS = (1, 2, 3, 4, 5)
LEFT = "left"
RIGHT = "right"
# the 12 turns of a zigzag, each a side: +1 left, -1 right (`polytope._turn`)
_ZIGZAG_WORDS = {RIGHT: (-1, 1, -1, -1, 1, 1) * 2, LEFT: (1, -1, 1, 1, -1, -1) * 2}
LABELLING = "canonical-v1"
_ALL = sum(1 << x for x in COLOURS)  # the searches' bitmask of every colour
_COLOUR_SET = frozenset(COLOURS)
_TWENTY_INTS = (int,) * 20


def check_colouring(c) -> Colouring:
    """Validate shape and colour range; returns the colouring as a tuple."""
    try:
        c = tuple(c)
    except TypeError:
        raise ValueError(f"colouring must be a sequence of 20 colours, not {c!r}") from None
    if len(c) != 20:
        raise ValueError(f"colouring must assign 20 vertices, got {len(c)}")
    # bool is a subclass of int, but True is not colour 1; the types go
    # first, as an unhashable entry would make issuperset raise TypeError
    if tuple(map(type, c)) != _TWENTY_INTS or not _COLOUR_SET.issuperset(c):
        v, x = next((v, x) for v, x in enumerate(c) if type(x) is not int or x not in COLOURS)
        raise ValueError(f"vertex {v} has colour {x!r}, expected 1..5")
    return c


def is_valid(model: PolytopeModel, c) -> bool:
    """True iff every face carries all five colours."""
    return first_violated_face(model, c) is None


def first_violated_face(model: PolytopeModel, c) -> int | None:
    """The id of the first face of this model that does not carry all five
    colours, or None; ValueError unless c is 20 colours in 1..5.  Read off
    the colouring's face readings (`_signature`)."""
    return _signature(model.faces, check_colouring(c))[0]


def check_rainbow(model: PolytopeModel, c) -> Colouring:
    """The full check made at each public entry that needs a face-rainbow
    colouring: 20 colours in 1..5 (`check_colouring`), then every face of
    this model rainbow.  Returns the colouring as a tuple; raises
    ValueError otherwise.  The face check is the face readings' lookup
    (`_signature`), made once per value of the faces and the colouring."""
    c = check_colouring(c)
    if _signature(model.faces, c)[0] is not None:
        raise ValueError("colouring is not face-rainbow")
    return c


def colour_classes(c: Colouring, kind=frozenset) -> dict:
    """colour -> the vertices carrying it, as a frozenset, or for kind=tuple
    in ascending order; c must be 20 colours in 1..5."""
    classes = [], [], [], [], [], []  # indexed by colour; entry 0 stays empty
    for v, colour in enumerate(check_colouring(c)):
        classes[colour].append(v)
    return dict(zip(COLOURS, map(kind, classes[1:])))


# ---------------------------------------------------------------------------
# enumeration, route one: depth-first backtracking

def enumerate_colourings(model: PolytopeModel) -> tuple[Colouring, ...]:
    """Every face-rainbow colouring, in lexicographic order.

    Vertices are assigned in id order, each trying ascending the colours on
    none of its three faces, so a colour is rejected as soon as it repeats
    on a face through the vertex.  No symmetry assumptions are made, so this
    is the assumption-free oracle: each complete assignment, made at vertex
    19, passes the full check before it is returned.
    """
    vertex_faces = model.vertex_faces
    face_used = [0] * len(model.faces)
    col = [0] * 20
    out: list[Colouring] = []

    def extend(v: int) -> None:
        f0, f1, f2 = vertex_faces[v]
        free = _ALL & ~(face_used[f0] | face_used[f1] | face_used[f2])
        while free:
            bit = free & -free  # the lowest free colour
            free ^= bit
            col[v] = bit.bit_length() - 1
            if v == 19:
                out.append(check_rainbow(model, tuple(col)))
                continue
            face_used[f0] |= bit
            face_used[f1] |= bit
            face_used[f2] |= bit
            extend(v + 1)
            face_used[f0] &= ~bit
            face_used[f1] &= ~bit
            face_used[f2] &= ~bit

    extend(0)
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration, route two: propagation replay

def _propagate(model: PolytopeModel, col: list[int]) -> None:
    """Run naked-singles propagation to a fixpoint, in place.

    Each face keeps a bitmask of the colours on it (bit x for colour x), and
    a vertex's candidates are the colours on none of its three faces.  The
    one forcing rule is the naked single: a vertex with a single candidate
    gets it.  Raises ValueError on contradiction, or if the fixpoint
    leaves a vertex uncoloured.  So it returns only with every vertex
    coloured and one colour bit per vertex on each face: every face rainbow.
    """
    faces = model.faces
    vertex_faces = model.vertex_faces
    # bit 0 comes from the uncoloured vertices
    used = [(1 << col[a] | 1 << col[b] | 1 << col[d] | 1 << col[e] | 1 << col[f]) & _ALL
            for a, b, d, e, f in faces]

    open_vs = [v for v in range(20) if not col[v]]
    while True:
        still_open = []
        for v in open_vs:
            f0, f1, f2 = vertex_faces[v]
            cand = _ALL & ~(used[f0] | used[f1] | used[f2])
            if not cand:
                raise ValueError(f"no colour left for vertex {v}")
            if not cand & (cand - 1):
                col[v] = cand.bit_length() - 1
                used[f0] |= cand
                used[f1] |= cand
                used[f2] |= cand
            else:
                still_open.append(v)
        if len(still_open) == len(open_vs):  # a sweep that forced nothing
            break
        open_vs = still_open
    # a forced colour is on none of its vertex's faces, so a repeat came with the input
    for u, (a, b, d, e, f) in zip(used, faces):
        coloured = (col[a] > 0) + (col[b] > 0) + (col[d] > 0) + (col[e] > 0) + (col[f] > 0)
        if u.bit_count() != coloured:
            raise ValueError("face carries a colour twice")
    if open_vs:
        raise ValueError("propagation stalled before completion")


def frame_completions(model: PolytopeModel, frame) -> tuple[Colouring, Colouring]:
    """The exactly-two colourings extending a colour frame.

    A frame is a colouring's ``c[:4]``, the colours of the north pole and
    its C1 neighbours 1, 2, 3: a tuple or list of four distinct colours, or
    ValueError is raised.  Branches on the two ways to finish the first
    face at the north pole; each branch then propagates to a unique full
    colouring, which `_propagate`'s per-face bitmask check has shown
    rainbow.
    """
    # bool is a subclass of int, but True is not colour 1
    if not (isinstance(frame, (tuple, list)) and tuple(map(type, frame)) == (int,) * 4
            and len(set(frame) & set(COLOURS)) == 4):
        raise ValueError(f"not a colour frame: {frame!r}")
    base = [*frame] + [0] * 16

    first_face = model.faces[model.vertex_faces[0][0]]
    open_vs = sorted(v for v in first_face if not base[v])
    if len(open_vs) != 2:
        raise ValueError(f"frame leaves {len(open_vs)} open vertices on the first face")
    # three distinct frame colours on the face leave two
    missing = sorted(set(COLOURS) - {base[v] for v in first_face})

    results = []
    for pair in (missing, missing[::-1]):
        col = list(base)
        col[open_vs[0]], col[open_vs[1]] = pair
        _propagate(model, col)
        results.append(tuple(col))
    return results[0], results[1]


def enumerate_by_propagation(model: PolytopeModel) -> tuple[Colouring, ...]:
    """All colourings via frame-by-frame propagation, sorted lexicographically."""
    return tuple(sorted(c for f in permutations(COLOURS, 4) for c in frame_completions(model, f)))


def seed_colourings(model: PolytopeModel) -> tuple[Colouring, Colouring]:
    """The two canonical colourings: north pole 1, neighbours 2, 3, 4.

    Seed A is the branch whose face cyclic orders are even; under the
    canonical embedding its colour classes form compound A of the inscribed
    tetrahedra and its zigzags work left-handed (both pairings are fixed by
    the embedding and asserted in tests).
    """
    a, b = frame_completions(model, (1, 2, 3, 4))
    if parity_class(model, a) != 1:
        a, b = b, a
    if not (parity_class(model, a) == 1 and parity_class(model, b) == -1):
        raise ValueError("the seeds do not have opposite parities")
    return a, b


# ---------------------------------------------------------------------------
# the colour-group action

# bytes.translate tables, one per colour permutation: byte x -> perm[x-1]
_RELABEL = {p: bytes.maketrans(b"\1\2\3\4\5", bytes(p)) for p in permutations(COLOURS)}


def _mirror(b: bytes, model: PolytopeModel) -> bytes:
    """b with each vertex's colour read at its antipode."""
    return bytes(itemgetter(*model.antipode)(b))


def _images(c, H, model: PolytopeModel):
    """The 20-byte image of the valid colouring c under each element of H,
    in H's order, generated one at a time: relabel colours, and for sign -1
    take each vertex's colour from its antipode.  A relabelling keeps faces
    rainbow on any model, an antipodal image only where the antipode maps
    faces onto faces, so callers check it.  The gather is made at the first
    sign -1."""
    b = mirrored = bytes(c)
    # g is the pair (perm, sign): indexing a tuple subclass is cheaper than unpacking it
    for g in H:
        if g[1] == 1:
            yield b.translate(_RELABEL[g[0]])
        else:
            if mirrored is b:
                mirrored = _mirror(b, model)
            yield mirrored.translate(_RELABEL[g[0]])


def act(g: ColourSymmetry, c: Colouring, model: PolytopeModel) -> Colouring:
    """Apply a colour symmetry: relabel colours, then for sign -1 take each
    vertex's colour from its antipode.  A relabelling keeps faces rainbow;
    a sign -1 image's face readings are looked up (`_signature`), and
    ValueError is raised unless it is rainbow."""
    if type(g) is not ColourSymmetry:
        _check_symmetries([g])
    (image,) = _images(check_rainbow(model, c), [g], model)
    image = tuple(image)
    if g[1] == -1 and _signature(model.faces, image)[0] is not None:
        raise ValueError("the model's antipode does not map faces onto faces")
    return image


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
    pool = sorted(bytes(check_rainbow(model, c)) for c in _listed(colourings, "colourings"))
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
        orbits.append(tuple(map(tuple, sorted(orbit))))
    return tuple(orbits)


def stabilizer(c: Colouring, H, model: PolytopeModel) -> list[ColourSymmetry]:
    """The elements of H that fix c, sorted, read off c.

    For each sign the source is c itself (+1) or its antipodal mirror (-1).
    c shows all five colours, so at most one relabelling maps the source
    onto c: the one with perm[source[v]] = c[v].  It is kept if its image
    really is c and it lies in H; no other element of H is applied.
    """
    b = bytes(check_rainbow(model, c))
    members = H if type(H) is Subgroup else set(_check_symmetries(H))
    fixing = []
    for sign, source in ((1, b), (-1, _mirror(b, model))):
        # last write wins; a colour missing from the source leaves None
        read = dict(zip(source, b))
        perm = tuple(map(read.get, COLOURS))
        table = _RELABEL.get(perm)  # None unless perm permutes the colours
        if table is not None and source.translate(table) == b and (perm, sign) in members:
            # perm is a key of _RELABEL, so the pair is a valid symmetry
            fixing.append(tuple.__new__(ColourSymmetry, (perm, sign)))
    return sorted(fixing)


# ---------------------------------------------------------------------------
# zigzag walks (property P1)

def _check_handedness(handedness) -> str:
    # the type goes first, as an unhashable handedness would make the lookup raise TypeError
    if type(handedness) is not str or handedness not in _ZIGZAG_WORDS:
        raise ValueError(f"handedness must be 'left' or 'right': {handedness!r}")
    return handedness


def zigzag_walk(model: PolytopeModel, start: int, first: int, handedness: str) -> tuple[int, ...]:
    """The closed zigzag walk from ``start`` leaving along the edge to ``first``.

    The walk takes exactly 12 turns, repeating the 6-turn word: each
    three-edge block turns to the handedness side and then to the opposite
    side, and the turns at the block boundaries alternate sides.  Raises
    ValueError where a turn it takes has none (`polytope._turn`), or unless
    the 12th edge ends at ``start`` and the next leaves along the edge to
    ``first``.
    Returns the 13 vertices of the walk, both endpoints equal to ``start``.
    """
    _check_id(start)
    _check_id(first)
    if first not in model.adjacency[start]:
        raise ValueError(f"{first} is not a neighbour of {start}")
    return _walk(model.adjacency, start, first, _ZIGZAG_WORDS[_check_handedness(handedness)])


def _walk(rings, start: int, first: int, word) -> tuple[int, ...]:
    """`zigzag_walk` on a model's rings, taking the turns of ``word``."""
    u, w = start, first
    seq = [start, first]
    for side in word:
        u, w = w, _turn(rings, u, w, side)
        seq.append(w)
    if (seq[12], seq[13]) != (start, first):
        raise ValueError(f"zigzag walk from {start} -> {first} failed to close after 12 edges")
    return tuple(seq[:13])


@lru_cache(maxsize=256)
def _checkpoints(rings, v: int, handedness: str) -> frozenset[int]:
    """Every 3rd vertex of the zigzag walk from v that leaves along v's
    least neighbour: a fact of the rings alone, kept for each distinct
    value of them.  A walk that raises is not kept, so it raises again."""
    word = _ZIGZAG_WORDS[handedness]
    return frozenset(_walk(rings, v, _least_neighbour(rings, v), word)[::3])


def zigzag_trace(model: PolytopeModel, c: Colouring, v: int, handedness: str) -> frozenset[int]:
    """Checkpoint set of the zigzag from v: every 3rd vertex of the 12-edge walk.

    For exactly one handedness (fixed by the chirality class of the
    colouring) this set is the colour class of v.  The set is independent
    of the outgoing edge and of the colouring, which is checked but not
    read, so the walk leaves along the lowest-id neighbour and its set is
    read from the model's memo (`_checkpoints`).
    """
    check_rainbow(model, c)
    _check_id(v)
    return _checkpoints(model.adjacency, v, _check_handedness(handedness))


def working_handedness(model: PolytopeModel, c: Colouring) -> str:
    """The handedness whose zigzag checkpoints reproduce colour classes."""
    c = check_rainbow(model, c)
    class0 = frozenset(compress(range(20), map(c[0].__eq__, c)))
    # as `zigzag_trace` from vertex 0
    hits = [h for h in (LEFT, RIGHT) if _checkpoints(model.adjacency, 0, h) == class0]
    if len(hits) != 1:
        raise ValueError("exactly one handedness must reproduce the class")
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
    return perm_parity(tuple(x - 1 for x in canonical_cycle(order)))


def canonical_cycle(order) -> tuple[int, ...]:
    """Rotate a cyclic colour order so it starts at colour 1; raises
    ValueError unless the order holds each of the five colours once."""
    try:
        order = tuple(order)
    except TypeError:
        raise ValueError(f"not a colour cycle: {order!r}") from None
    if not _permutes(order, COLOURS):
        raise ValueError(f"not a colour cycle: {order!r}")
    i = order.index(1)
    return order[i:] + order[:i]


def inverse_cycle(order) -> tuple[int, ...]:
    """The same cyclic order traversed backwards, canonically rotated."""
    c = canonical_cycle(order)
    return c[:1] + c[:0:-1]


# each rainbow reading of five colours -> (canonical cyclic order, parity):
# the five rotations of the 24 orders from colour 1, all 120 orderings
_FACE_ORDERS = {
    order[i:] + order[:i]: (order, parity)
    for order in ((1, *p) for p in permutations(COLOURS[1:]))
    for parity in (cyclic_order_parity(order),)
    for i in range(5)
}


def face_parity_signature(model: PolytopeModel, c: Colouring):
    """Per face: (face id, canonical cyclic colour order, parity).

    The cyclic order reads the face in the positive sense (counterclockwise
    from outside).  For a valid colouring all 12 parities agree and the 12
    orders are pairwise distinct.  The lookup is the rainbow check.
    """
    face, readings = _signature(model.faces, check_colouring(c))
    if face is not None:
        raise ValueError("colouring is not face-rainbow")
    return readings


@lru_cache(maxsize=1024)
def _signature(faces, c: Colouring):
    """The one reader of a colouring's faces, for a colouring already known
    to be 20 colours in 1..5: (None, the 12 readings (face id, canonical
    cyclic colour order, parity)) if every face is rainbow, else (the id of
    the first face that is not, None).  It never raises, so every answer is
    a fact of the faces and the colouring alone, kept for each distinct
    pair of values.  A model has 240 rainbow colourings; the bound leaves
    room beside them for the non-rainbow ones read since, so these do not
    push the rainbow ones out."""
    readings = []
    for fid, (a, b, d, e, f) in enumerate(faces):
        reading = _FACE_ORDERS.get((c[a], c[b], c[d], c[e], c[f]))
        if reading is None:
            return fid, None
        readings.append((fid, *reading))
    return None, tuple(readings)


def parity_class(model: PolytopeModel, c: Colouring) -> int:
    """The shared parity of all 12 face cyclic orders (+1 even, -1 odd)."""
    parities = {p for _, _, p in face_parity_signature(model, c)}
    if len(parities) != 1:
        raise ValueError("face parities are not uniform")
    return parities.pop()


def antipodal_rule_holds(model: PolytopeModel, c: Colouring) -> bool:
    """Each antipode carries the one colour missing from a vertex and its
    three neighbours: the five colours read as a rainbow face would.  Raises
    ValueError on a vertex without three neighbours."""
    c = check_colouring(c)
    adjacency, antipode = model.adjacency, model.antipode
    try:
        for v, (a, b, d) in enumerate(adjacency):
            if (c[v], c[a], c[b], c[d], c[antipode[v]]) not in _FACE_ORDERS:
                return False
    except ValueError:  # v's neighbours do not unpack into three
        raise ValueError(f"vertex {v} has {len(adjacency[v])} neighbours, expected 3") from None
    return True


# ---------------------------------------------------------------------------
# serialization

# one colouring document, as json.dumps writes it with separators (",", ":")
_DOCUMENT = '{"labelling":"%s","colours":[%s]}' % (LABELLING, ",".join(["%d"] * 20))


def colouring_to_json(c: Colouring) -> str:
    return _DOCUMENT % check_colouring(c) + "\n"


def colouring_from_json(text: str) -> Colouring:
    if not isinstance(text, (str, bytes, bytearray)):
        raise ValueError(f"expected a JSON document, not {text!r}")
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("colouring document is nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("labelling") != LABELLING:
        raise ValueError(f"expected a colouring document with labelling {LABELLING!r}")
    return check_colouring(doc.get("colours"))


def enumeration_to_json(colourings) -> str:
    docs = (_DOCUMENT % check_colouring(c) for c in _listed(colourings, "colourings"))
    return "[%s]\n" % ",".join(docs)


def colouring_to_off(model: PolytopeModel, c: Colouring) -> str:
    """COFF mesh: the dodecahedron with per-vertex colours from a palette."""
    suffix = [" %d %d %d 255" % _PALETTE[x - 1] for x in check_colouring(c)]
    return _off_mesh(model, [(5, *f) for f in model.faces], suffix)
