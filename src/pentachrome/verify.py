"""The full invariant and classification check battery behind `verify`.

Each check re-measures a fact about the built model or the enumerated
colourings and reports the measured value, so a failure names exactly what
broke.  `CHECKS` lists the 61 checks in report order, and `run_checks` runs
them under one failure rule.  The facts that several checks read are
computed once per model, when a check first reads them.

Each check's own run time, including the facts it first read, is its
`seconds` in `verify --json`.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from itertools import permutations
from typing import NamedTuple

from . import chroma, symmetry
from . import compound as compound_mod
from .polytope import (
    BAND_SIZES,
    TOL,
    PolytopeModel,
    _vertex_faces,
    add,
    distance_spectrum,
    latitude_bands,
    model_to_json,
    model_to_off,
    norm,
    positions,
    sub,
)


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str
    section: str
    seconds: float  # the check's own run, with the facts it first read


def _label(model: PolytopeModel, c) -> str | None:
    """The label of the compound c's colour classes form, or None if they
    form none."""
    try:
        return compound_mod.classify_colouring(model, c)[0].label
    except ValueError:
        return None


def _equals(got, want):
    """A check result: whether got is want, measured as got."""
    return got == want, f"{got}"


def _below(value, detail: str):
    """A check result: whether value is below TOL, measured as the format
    detail of value."""
    return value < TOL, detail.format(value)


def _enumeration(b):
    """The backtracking enumeration, and its time for the 1 s gate."""
    t0 = time.perf_counter()
    colourings = chroma.enumerate_colourings(b.model)
    return colourings, time.perf_counter() - t0


def _colourings(b):
    """The enumerated colourings; if there are none, no check that reads
    them has anything to measure."""
    if not b.enumeration[0]:
        raise ValueError("the backtracking enumeration found no colouring")
    return b.enumeration[0]


def _third_distance(b):
    """The third-smallest vertex distance; a model with fewer distinct
    distances has none for the checks that read it to measure."""
    if len(b.spectrum) < 3:
        raise ValueError(f"{len(b.spectrum)} distinct distances, no third-smallest")
    return b.spectrum[2][0]


def _opposite_faces(b):
    """face id -> the id of the face its antipodal image is; ValueError
    names the first face whose image is no face."""
    face_ids = {frozenset(f): fid for fid, f in enumerate(b.model.faces)}
    images = [frozenset(b.model.antipode[v] for v in f) for f in b.model.faces]
    if lost := [fid for fid, image in enumerate(images) if image not in face_ids]:
        raise ValueError(f"the antipode maps face {lost[0]} onto no face")
    return [face_ids[image] for image in images]


def _parities(b):
    """colouring -> its one parity, for each colouring whose 12 face orders
    are distinct and share one parity (P2)"""
    out = {}
    for c, sig in b.signatures.items():
        parities = {p for _, _, p in sig}
        if len({o for _, o, _ in sig}) == 12 and len(parities) == 1:
            out[c] = parities.pop()
    return out


def _hands(b):
    """colouring -> its one working handedness, or None (P1)"""
    # a checkpoint set depends on the vertex and handedness only, so the
    # (v, h) whose set is v's colour class are found by looking each class up
    traced = defaultdict(list)  # checkpoint set -> the (v, h) tracing it
    for v in range(20):
        for h in (chroma.LEFT, chroma.RIGHT):
            traced[chroma.zigzag_trace(b.model, b.colourings[0], v, h)].append((v, h))
    hand_of = {}
    for c in b.colourings:
        hits = [
            (v, h) for colour, k in chroma.colour_classes(c).items()
            for v, h in traced.get(k, ()) if c[v] == colour
        ]
        hands = {h for _, h in hits}
        one_per_vertex = sorted(v for v, _ in hits) == list(range(20))
        hand_of[c] = hands.pop() if one_per_vertex and len(hands) == 1 else None
    return hand_of


# an odd relabelling, an even one and the colour swap
_RELABELLINGS = (symmetry.ColourSymmetry((2, 1, 3, 4, 5), 1),
                 symmetry.ColourSymmetry((2, 3, 1, 4, 5), 1), symmetry.COLOUR_SWAP)

# The facts that more than one check reads: name -> its computation from
# the `_Battery` of one model.
_FACTS = {
    "enumeration": _enumeration,
    "colourings": _colourings,
    "propagation": lambda b: chroma.enumerate_by_propagation(b.model),
    "rot": lambda b: symmetry.rotation_group(b.model),
    "full": lambda b: symmetry._full_group(b.model, b.rot),
    "G": lambda b: symmetry.colour_group(),
    # a colouring that does not classify has label None, which fails every
    # check that reads it
    "labels": lambda b: {c: _label(b.model, c) for c in b.colourings},
    "label_counts": lambda b: Counter(b.labels[c] for c in b.colourings),
    "signatures": lambda b: {c: chroma.face_parity_signature(b.model, c) for c in b.colourings},
    "parities": _parities,
    # the enumerated colourings are rainbow and the three relabellings valid,
    # so the action kernel relabels them without checking either again
    "images": lambda b: {
        c: [tuple(i) for i in chroma._images(c, _RELABELLINGS, b.model)] for c in b.colourings
    },
    "hands": _hands,
    "spectrum": lambda b: distance_spectrum(b.model),
    "third": _third_distance,
    "positions": lambda b: positions(b.model),
    "bands": lambda b: latitude_bands(b.model.exact_positions),
    "opposite_faces": _opposite_faces,
    # the faces through each vertex, which are the faces of the dual
    # icosahedron, numbered by vertex
    "vertex_faces": lambda b: _vertex_faces(b.model.faces),
    # the graph the rings state: each pair of ring neighbours once, sorted
    "edges": lambda b: sorted({(min(u, w), max(u, w))
                               for u, ring in enumerate(b.model.adjacency) for w in ring}),
    "compounds": lambda b: compound_mod.compounds(b.model),
    "tetrahedra": lambda b: compound_mod.inscribed_tetrahedra(b.model),
    "spread": lambda b: compound_mod.spread_subsets(b.model),
}


class _Battery:
    """The battery over one model: its facts, and the checks that take more
    than one expression.  A check returns (ok, detail)."""

    def __init__(self, model: PolytopeModel):
        self.model = model
        self.raised = {}  # fact name -> the exception its computation raised

    def __getattr__(self, name):
        """Compute a fact when a check first reads it, and keep it; if the
        computation raises, keep its exception and raise it to every reader,
        so no fact is computed twice."""
        if name not in _FACTS:
            raise AttributeError(name)
        if name not in self.raised:
            try:
                value = _FACTS[name](self)
            except Exception as exc:  # each reader FAILs with it, see run_checks
                self.raised[name] = exc
            else:
                setattr(self, name, value)
                return value
        raise self.raised[name]

    def image_of_a(self, p):
        """Compound A's tetrahedra under the vertex map p."""
        return {tuple(sorted(p[v] for v in t)) for t in self.compounds[0].tetrahedra}

    def faces_are_5_cycles(self):
        rings = self.model.adjacency
        return all(
            f[i - 1] in rings[f[i]] and f[i] in rings[f[i - 1]]
            for f in self.model.faces for i in range(5)
        ) and all(len(set(f)) == 5 for f in self.model.faces), ""

    def antipode_bands(self):
        # band i and band n - 1 - i, counted from the top, are exchanged
        last = len(self.bands) - 1
        band_of = {v: i for i, band in enumerate(self.bands) for v in band}
        return all(band_of[a] == last - band_of[v] for v, a in enumerate(self.model.antipode)), ""

    def edge_senses(self):
        directed = Counter((f[i], f[(i + 1) % 5]) for f in self.model.faces for i in range(5))
        return all(directed[u, w] == directed[w, u] == 1 for u, w in self.edges), ""

    def spectrum_counts(self):
        counts = [c for _, c in self.spectrum]
        total = sum(counts)
        return total == 190 and counts[0] == 30, f"pairs {total}, multiplicities {counts}"

    def dual_adjacency(self):
        # two icosahedron faces share an edge, two dodecahedron faces, iff
        # their vertices are ring neighbours
        held, rings = self.vertex_faces, self.model.adjacency
        return all(
            (len(set(held[u]) & set(held[w])) == 2) == (w in rings[u])
            for u in range(20) for w in range(u + 1, 20)
        ), ""

    def mirror_coset(self):
        mirrored = {symmetry.compose(self.model.antipode, g) for g in self.rot}
        return set(self.full) == set(self.rot) | mirrored and not (set(self.rot) & mirrored), ""

    def transitive(self):
        rot, (u, w) = self.rot, self.edges[0]
        v_orbit = {p[0] for p in rot}
        e_orbit = {tuple(sorted((p[u], p[w]))) for p in rot}
        f_orbit = {tuple(sorted(p[v] for v in self.model.faces[0])) for p in rot}
        sizes = (len(v_orbit), len(e_orbit), len(f_orbit))
        return sizes == (20, 30, 12), "orbit sizes {}/{}/{}".format(*sizes)

    def stabilizer_orders(self):
        rot = self.rot
        v_stab = sum(1 for p in rot if p[0] == 0)
        f0 = set(self.model.faces[0])
        f_stab = sum(1 for p in rot if {p[v] for v in f0} == f0)
        e0 = set(self.edges[0])
        e_stab = sum(1 for p in rot if {p[v] for v in e0} == e0)
        return (v_stab, f_stab, e_stab) == (3, 5, 2), f"{v_stab}/{f_stab}/{e_stab}"

    def tetra_action(self):
        comp_a = self.compounds[0]
        actions = {symmetry.tetra_action(p, comp_a.tetrahedra) for p in self.rot}
        all_even = all(symmetry.perm_parity(a) == 1 for a in actions)
        return len(actions) == 60 and all_even, f"image size {len(actions)}, all even: {all_even}"

    def completions(self):
        # a frame is the colours of the pole and of its neighbours 1, 2 and 3
        per_frame = Counter(c[:4] for c in self.propagation)
        counts = sorted(set(per_frame.values()))
        detail = f"{'/'.join(map(str, counts))} each over {len(per_frame)} frames"
        return len(per_frame) == 120 and counts == [2], detail

    def orbit_of_one(self):
        orbit0 = {chroma.act(g, self.colourings[0], self.model) for g in self.G}
        return orbit0 == set(self.colourings), f"size {len(orbit0)}"

    def stabilizers(self):
        sizes = {len(chroma.stabilizer(c, self.G, self.model)) for c in self.colourings}
        return sizes == {1}, f"sizes {sorted(sizes)}"

    def seeds(self):
        seed_a, seed_b = chroma.seed_colourings(self.model)
        comp_of_a, comp_of_b = _label(self.model, seed_a), _label(self.model, seed_b)
        return (
            chroma.is_valid(self.model, seed_a) and chroma.is_valid(self.model, seed_b)
            and seed_a != seed_b and (comp_of_a, comp_of_b) == ("A", "B"),
            f"seed compounds {comp_of_a}/{comp_of_b}",
        )

    def tetra_edge(self):
        pos = self.positions
        common = {
            round(norm(sub(pos[a], pos[b])), 9)
            for t in self.tetrahedra for a in t for b in t if a < b
        }
        return (len(common) == 1 and abs(common.pop() - self.third) < 1e-8,
                f"spectrum[2] = {self.third:.9f}")

    def rotations_keep_compounds(self):
        set_a, set_b = set(self.compounds[0].tetrahedra), set(self.compounds[1].tetrahedra)
        stab_a = all(self.image_of_a(p) == set_a for p in self.rot)
        maps_ab = any(self.image_of_a(p) == set_b for p in self.rot)
        return stab_a and not maps_ab, ""

    def reflections_swap_compounds(self):
        rot_set, set_b = set(self.rot), set(self.compounds[1].tetrahedra)
        return all(self.image_of_a(p) == set_b for p in self.full if p not in rot_set), ""

    def inverse_orders(self):
        # over the colourings P2 holds for: P2's own check reports the others;
        # a signature lists the faces in order, so entry opp is face opp
        opposite = self.opposite_faces
        return all(
            sig[opp][1] == _INVERSE_CYCLE[order]
            for sig in map(self.signatures.get, self.parities)
            for opp, (_, order, _) in zip(opposite, sig)
        ), ""

    def parity_split(self):
        split = Counter(self.parities.values())
        return split[1] == split[-1] == 120, f"even {split[1]}, odd {split[-1]}"

    def relabelled_parities(self):
        # an image outside the enumeration, or a colouring without one parity,
        # has no parity to compare
        parity_of, images = self.parities, self.images
        flips = all(parity_of.get(images[c][0]) == -p for c, p in parity_of.items())
        keeps = all(parity_of.get(images[c][1]) == p for c, p in parity_of.items())
        return len(parity_of) == len(self.signatures) and flips and keeps, ""

    def pairing(self):
        pairing = {(self.labels[c], self.hands[c]) for c in self.colourings}
        # sorted by repr: a label or handedness may be None
        return pairing == {("A", chroma.LEFT), ("B", chroma.RIGHT)}, f"{sorted(pairing, key=repr)}"

    def independent(self):
        combos = Counter((self.labels[c], self.parities.get(c)) for c in self.colourings)
        return sorted(combos.values()) == [60, 60, 60, 60] and len(combos) == 4, f"{dict(combos)}"

    def export_stable(self):
        first = chroma.enumeration_to_json(self.colourings)
        second = chroma.enumeration_to_json(chroma.enumerate_colourings(self.model))
        return first == second, f"{len(first)} bytes"

    def off_stable(self):
        model = self.model
        off = model_to_off(model)
        header_ok = off.splitlines()[0] == "OFF" and off.splitlines()[1] == "20 12 30"
        stable = off == model_to_off(model) and model_to_json(model) == model_to_json(model)
        return header_ok and stable, ""

    def orbits(self, name: str, want: int):
        """Whether the named subgroup H has `want` orbits on the colourings,
        each of size |H|."""
        H = symmetry.named_subgroup(name)
        orbits = chroma.orbit_partition(self.colourings, H, self.model)
        sizes = {len(o) for o in orbits}
        ok = len(orbits) == want and sizes == {len(H)} and len(orbits) * len(H) == 240
        return ok, f"{len(orbits)} orbits of size {sorted(sizes)}, |H| = {len(H)}"


# each of the 24 canonical cyclic colour orders -> its inverse
_INVERSE_CYCLE = {(1, *p): chroma.inverse_cycle((1, *p)) for p in permutations((2, 3, 4, 5))}


# The battery in report order: (section, name, check), where a check takes
# the `_Battery` of one model and returns (ok, detail).
CHECKS = (
    ("polytope", "vertex count", lambda b: _equals(len(b.model.exact_positions), 20)),
    ("polytope", "face count", lambda b: _equals(len(b.model.faces), 12)),
    ("polytope", "edge count", lambda b: _equals(len(b.edges), 30)),
    ("polytope", "Euler characteristic V-E+F",
     lambda b: _equals(len(b.model.exact_positions) - len(b.edges) + len(b.model.faces), 2)),
    ("polytope", "vertex degree 3", lambda b: (
        all(len(a) == 3 for a in b.model.adjacency),
        f"degrees {sorted({len(a) for a in b.model.adjacency})}",
    )),
    ("polytope", "faces are 5-cycles in the edge set", _Battery.faces_are_5_cycles),
    ("polytope", "vertices on the unit sphere",
     lambda b: _below(max(abs(norm(p) - 1.0) for p in b.positions), "max |r-1| = {:.2e}")),
    ("polytope", "vertex 0 at the north pole",
     lambda b: _below(norm(sub(b.positions[0], (0.0, 0.0, 1.0))), "offset {:.2e}")),
    ("polytope", "latitude band sizes",
     lambda b: _equals(tuple(map(len, b.bands)), BAND_SIZES)),
    ("polytope", "antipode negates positions, involutive, fixed-point free", lambda b: (all(
        norm(add(b.positions[a], b.positions[v])) < TOL and b.model.antipode[a] == v != a
        for v, a in enumerate(b.model.antipode)
    ), "")),
    ("polytope", "antipode exchanges bands (C3=-C2, C4=-C1)", _Battery.antipode_bands),
    ("polytope", "antipodal distance 2", lambda b: _below(max(
        abs(norm(sub(b.positions[v], b.positions[a])) - 2.0)
        for v, a in enumerate(b.model.antipode)
    ), "max dev {:.2e}")),
    ("polytope", "each edge on 2 faces with opposite senses", _Battery.edge_senses),
    ("polytope", "distance spectrum: 190 pairs, 30 at the edge length", _Battery.spectrum_counts),
    ("polytope", "third-smallest distance = inscribed tetrahedron edge", lambda b: (
        abs(b.third - compound_mod.TETRA_EDGE) < TOL,
        f"{b.third:.12f} vs sqrt(8/3) = {compound_mod.TETRA_EDGE:.12f}",
    )),
    ("polytope", "dual face map is a bijection",
     lambda b: (len(set(b.vertex_faces)) == 20, "")),
    ("polytope", "dual face adjacency preserved both ways", _Battery.dual_adjacency),
    ("symmetry", "rotation group order", lambda b: _equals(len(b.rot), 60)),
    ("symmetry", "full group order", lambda b: _equals(len(b.full), 120)),
    ("symmetry", "rotation element orders {1,2,3,5}",
     lambda b: _equals(sorted({symmetry.perm_order(p) for p in b.rot}), [1, 2, 3, 5])),
    ("symmetry", "rotations have determinant +1",
     lambda b: _equals(sorted({symmetry.spatial_determinant(b.model, p) for p in b.rot}), [1])),
    ("symmetry", "full group = rotations + inversion coset, disjoint", _Battery.mirror_coset),
    ("symmetry", "rotations transitive on vertices, edges, faces", _Battery.transitive),
    ("symmetry", "stabilizer orders vertex/face/edge = 3/5/2", _Battery.stabilizer_orders),
    ("symmetry", "all symmetries commute with the antipode", lambda b: (all(
        p[a] == b.model.antipode[p[v]] for p in b.full for v, a in enumerate(b.model.antipode)
    ), "")),
    ("symmetry", "tetrahedra action: injective image = all 60 even permutations",
     _Battery.tetra_action),
    ("colouring", "valid colourings",
     lambda b: (len(b.colourings) == 240, f"{len(b.colourings)} in {b.enumeration[1]:.3f}s")),
    ("colouring", "backtracking enumeration under 1 s",
     lambda b: (b.enumeration[1] < 1.0, f"{b.enumeration[1]:.3f}s")),
    ("colouring", "completions per colour frame", _Battery.completions),
    ("colouring", "propagation enumerator matches backtracking",
     lambda b: (b.propagation == b.colourings, f"{len(b.propagation)} colourings")),
    ("colouring", "orbit of one colouring under the full colour group", _Battery.orbit_of_one),
    ("colouring", "all stabilizers trivial", _Battery.stabilizers),
    ("colouring", "orbits under trivial", lambda b: b.orbits("trivial", 240)),
    ("colouring", "orbits under C2", lambda b: b.orbits("C2", 120)),
    ("colouring", "orbits under S5", lambda b: b.orbits("S5", 2)),
    ("colouring", "orbits under A5 x {1}", lambda b: b.orbits("A5", 4)),
    ("colouring", "orbits under A5xC2", lambda b: b.orbits("A5xC2", 2)),
    ("colouring", "orbits under S5xC2", lambda b: b.orbits("S5xC2", 1)),
    ("colouring", "canonical seeds valid, distinct, classified A and B", _Battery.seeds),
    ("colouring", "antipodal colour rule at all 20 vertices of all 240",
     lambda b: (all(chroma.antipodal_rule_holds(b.model, c) for c in b.colourings), "")),
    ("compound", "inscribed tetrahedra", lambda b: _equals(len(b.tetrahedra), 10)),
    ("compound", "each vertex lies in exactly 2 tetrahedra",
     lambda b: (all(sum(v in t for t in b.tetrahedra) == 2 for v in range(20)), "")),
    ("compound", "tetrahedron edge equals third-smallest distance", _Battery.tetra_edge),
    ("compound", "antipodal image of compound A is compound B",
     lambda b: (b.image_of_a(b.model.antipode) == set(b.compounds[1].tetrahedra), "")),
    ("compound", "every rotation stabilizes each compound", _Battery.rotations_keep_compounds),
    ("compound", "every orientation-reversing symmetry exchanges the compounds",
     _Battery.reflections_swap_compounds),
    ("compound", "colour classes of all 240 form one compound", lambda b: (
        b.label_counts[None] == 0 and len(b.colourings) - b.label_counts[None] == 240,
        f"classified {len(b.colourings) - b.label_counts[None]}",
    )),
    ("compound", "120 colourings per compound", lambda b: (
        b.label_counts["A"] == b.label_counts["B"] == 120,
        f"A: {b.label_counts['A']}, B: {b.label_counts['B']}",
    )),
    ("compound", "well-spread subsets: max size 4, no 5th vertex extension", lambda b: (
        b.spread.max_size == 4,
        f"max {b.spread.max_size} over {b.spread.four_subsets_checked} four-subsets",
    )),
    ("compound", "4-element well-spread subsets are exactly the 10 tetrahedra", lambda b: (
        set(b.spread.maximal_subsets) == set(b.tetrahedra),
        f"{len(b.spread.maximal_subsets)} maximal subsets",
    )),
    ("structure", "P2: 12 distinct cyclic orders of one parity per colouring",
     lambda b: (len(b.parities) == len(b.signatures), "")),
    ("structure", "P2: opposite faces carry inverse cyclic orders", _Battery.inverse_orders),
    ("structure", "parity split 120 even / 120 odd", _Battery.parity_split),
    ("structure", "odd relabelling flips all parities, even preserves",
     _Battery.relabelled_parities),
    ("structure", "P1: exactly one working handedness per vertex, constant per colouring",
     lambda b: (None not in b.hands.values(), "")),
    ("structure", "P1: handedness flips under the antipodal colour swap", lambda b: (all(
        {b.hands[c], b.hands.get(b.images[c][2])} == {chroma.LEFT, chroma.RIGHT}
        for c in b.colourings
    ), "")),
    ("structure", "fixed pairing: compound A works left, compound B works right", _Battery.pairing),
    ("structure", "compound and parity independent: 4 combinations of 60", _Battery.independent),
    ("export", "enumeration export byte-stable", _Battery.export_stable),
    ("export", "colouring JSON round-trip is identity", lambda b: (all(
        chroma.colouring_from_json(chroma.colouring_to_json(c)) == c for c in b.colourings[:10]
    ), "")),
    ("export", "dodecahedron OFF header and stability", _Battery.off_stable),
)


def run_checks(model: PolytopeModel) -> list[Check]:
    """The whole battery, in the order of `CHECKS`; every entry carries its
    measured value, its section and the seconds it took.

    The failure rule: a check whose own code, or a fact it reads, raises
    FAILs with the detail "<ExceptionType>: <message>", and the checks
    after it still run.
    """
    battery = _Battery(model)
    out = []
    for section, name, check in CHECKS:
        t0 = time.perf_counter()
        try:
            ok, detail = check(battery)
        except Exception as exc:  # a broken model: report what broke, go on
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.append(Check(name, ok, detail, section, time.perf_counter() - t0))
    return out
