"""The full invariant and classification check battery behind `verify`.

Each check re-measures a fact about the built model or the enumerated
colourings and reports the measured value, so a failure names exactly what
broke.  The whole battery takes about 0.065 s in-process (the first
`run_checks` in each of 15 fresh processes: median 0.065 s, quartiles
0.058-0.068 s, on a shared 2-CPU x86-64 container, Python 3.11); a fresh
`python -m pentachrome.cli verify` process without a bytecode cache takes
about 0.21 s (15 runs, median 0.211 s, quartiles 0.195-0.218 s).
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
    BANDS,
    TOL,
    PolytopeModel,
    add,
    distance_spectrum,
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


def _polytope_checks(model: PolytopeModel) -> list[Check]:
    out = []
    pos = positions(model)

    out.append(Check("vertex count", len(model.vertices) == 20, f"{len(model.vertices)}"))
    out.append(Check("face count", len(model.faces) == 12, f"{len(model.faces)}"))
    out.append(Check("edge count", len(model.edges) == 30, f"{len(model.edges)}"))
    euler = len(model.vertices) - len(model.edges) + len(model.faces)
    out.append(Check("Euler characteristic V-E+F", euler == 2, f"{euler}"))
    out.append(Check(
        "vertex degree 3",
        all(len(a) == 3 for a in model.adjacency),
        f"degrees {sorted({len(a) for a in model.adjacency})}",
    ))

    edge_set = set(model.edges)
    face_cycles_ok = all(
        (min(f[i], f[(i + 1) % 5]), max(f[i], f[(i + 1) % 5])) in edge_set
        for f in model.faces for i in range(5)
    ) and all(len(set(f)) == 5 for f in model.faces)
    out.append(Check("faces are 5-cycles in the edge set", face_cycles_ok, ""))

    radial = [abs(norm(p) - 1.0) for p in pos]
    out.append(Check(
        "vertices on the unit sphere",
        max(radial) < TOL,
        f"max |r-1| = {max(radial):.2e}",
    ))
    d0 = norm(sub(pos[0], (0.0, 0.0, 1.0)))
    out.append(Check("vertex 0 at the north pole", d0 < TOL, f"offset {d0:.2e}"))

    sizes = Counter(v.latitude for v in model.vertices)
    got = tuple(sizes[b] for b in BANDS)
    out.append(Check("latitude band sizes", got == BAND_SIZES, f"{got}"))

    anti_ok = all(
        norm(add(pos[model.antipode[v]], pos[v])) < TOL
        and model.antipode[model.antipode[v]] == v
        and model.antipode[v] != v
        for v in range(20)
    )
    out.append(Check("antipode negates positions, involutive, fixed-point free", anti_ok, ""))

    band_of = {v.id: v.latitude for v in model.vertices}
    swap = {"north_pole": "south_pole", "south_pole": "north_pole",
            "C1": "C4", "C4": "C1", "C2": "C3", "C3": "C2"}
    bands_ok = all(band_of[model.antipode[v]] == swap[band_of[v]] for v in range(20))
    out.append(Check("antipode exchanges bands (C3=-C2, C4=-C1)", bands_ok, ""))

    anti_dist = [norm(sub(pos[v], pos[model.antipode[v]])) for v in range(20)]
    out.append(Check(
        "antipodal distance 2",
        all(abs(d - 2.0) < TOL for d in anti_dist),
        f"max dev {max(abs(d - 2.0) for d in anti_dist):.2e}",
    ))

    directed = Counter()
    for f in model.faces:
        for i in range(5):
            directed[(f[i], f[(i + 1) % 5])] += 1
    orient_ok = all(
        directed[(u, v)] == 1 and directed[(v, u)] == 1 for u, v in model.edges
    )
    out.append(Check("each edge on 2 faces with opposite senses", orient_ok, ""))

    spectrum = distance_spectrum(model)
    total = sum(c for _, c in spectrum)
    out.append(Check(
        "distance spectrum: 190 pairs, 30 at the edge length",
        total == 190 and spectrum[0][1] == 30,
        f"pairs {total}, multiplicities {[c for _, c in spectrum]}",
    ))
    tetra_edge = compound_mod.TETRA_EDGE
    out.append(Check(
        "third-smallest distance = inscribed tetrahedron edge",
        len(spectrum) >= 3 and abs(spectrum[2][0] - tetra_edge) < TOL,
        f"{spectrum[2][0]:.12f} vs sqrt(8/3) = {tetra_edge:.12f}",
    ))

    bij = sorted(model.dual_faces) == list(range(20))
    adj_pres = True
    for i in range(20):
        for j in range(i + 1, 20):
            share = len(set(model.icosa_faces[i]) & set(model.icosa_faces[j])) == 2
            adjacent = model.dual_faces[j] in model.adjacency[model.dual_faces[i]]
            if share != adjacent:
                adj_pres = False
    out.append(Check("dual face map is a bijection", bij, ""))
    out.append(Check("dual face adjacency preserved both ways", adj_pres, ""))
    return out


def _symmetry_checks(model: PolytopeModel, rot, full) -> list[Check]:
    out = []
    out.append(Check("rotation group order", len(rot) == 60, f"{len(rot)}"))
    out.append(Check("full group order", len(full) == 120, f"{len(full)}"))

    orders = sorted({symmetry.perm_order(p) for p in rot})
    out.append(Check("rotation element orders {1,2,3,5}", orders == [1, 2, 3, 5], f"{orders}"))

    name = "rotations have determinant +1"
    try:
        dets = sorted({symmetry.spatial_determinant(model, p) for p in rot})
    except ValueError as exc:  # a rotation does not keep the vertex distances
        out.append(Check(name, False, str(exc)))
    else:
        out.append(Check(name, dets == [1], f"{dets}"))

    mirrored = {symmetry.compose(model.antipode, g) for g in rot}
    split_ok = set(full) == set(rot) | mirrored and not (set(rot) & mirrored)
    out.append(Check("full group = rotations + inversion coset, disjoint", split_ok, ""))

    v_orbit = {p[0] for p in rot}
    e_orbit = {tuple(sorted((p[u], p[v]))) for p in rot for (u, v) in [model.edges[0]]}
    f_orbit = {tuple(sorted(p[v] for v in model.faces[0])) for p in rot}
    trans_ok = len(v_orbit) == 20 and len(e_orbit) == 30 and len(f_orbit) == 12
    out.append(Check(
        "rotations transitive on vertices, edges, faces",
        trans_ok,
        f"orbit sizes {len(v_orbit)}/{len(e_orbit)}/{len(f_orbit)}",
    ))

    v_stab = sum(1 for p in rot if p[0] == 0)
    f0 = set(model.faces[0])
    f_stab = sum(1 for p in rot if {p[v] for v in f0} == f0)
    e0 = set(model.edges[0])
    e_stab = sum(1 for p in rot if {p[v] for v in e0} == e0)
    out.append(Check(
        "stabilizer orders vertex/face/edge = 3/5/2",
        (v_stab, f_stab, e_stab) == (3, 5, 2),
        f"{v_stab}/{f_stab}/{e_stab}",
    ))

    anti = model.antipode
    equi = all(p[anti[v]] == anti[p[v]] for p in full for v in range(20))
    out.append(Check("all symmetries commute with the antipode", equi, ""))

    comp_a, _ = compound_mod.compounds(model)
    name = "tetrahedra action: injective image = all 60 even permutations"
    try:
        actions = {symmetry.tetra_action(model, p, comp_a.tetrahedra) for p in rot}
    except ValueError as exc:  # a rotation does not stabilize compound A
        out.append(Check(name, False, str(exc)))
    else:
        all_even = all(symmetry.perm_parity(a) == 1 for a in actions)
        out.append(Check(
            name, len(actions) == 60 and all_even,
            f"image size {len(actions)}, all even: {all_even}",
        ))
    return out


def _colouring_checks(model: PolytopeModel, all_c, elapsed: float) -> list[Check]:
    out = []
    out.append(Check(
        "valid colourings", len(all_c) == 240, f"{len(all_c)} in {elapsed:.3f}s"
    ))
    out.append(Check(
        "backtracking enumeration under 1 s", elapsed < 1.0, f"{elapsed:.3f}s"
    ))

    prop = chroma.enumerate_by_propagation(model)
    # a frame is the colours of the pole and of its neighbours 1, 2 and 3
    per_frame = Counter(c[:4] for c in prop)
    counts = sorted(set(per_frame.values()))
    out.append(Check(
        "completions per colour frame",
        len(per_frame) == 120 and counts == [2],
        f"{'/'.join(map(str, counts))} each over {len(per_frame)} frames",
    ))
    out.append(Check(
        "propagation enumerator matches backtracking",
        prop == all_c,
        f"{len(prop)} colourings",
    ))

    G = symmetry.colour_group()
    orbit0 = {chroma.act(g, all_c[0], model) for g in G}
    out.append(Check(
        "orbit of one colouring under the full colour group",
        orbit0 == set(all_c),
        f"size {len(orbit0)}",
    ))
    stab_sizes = {len(chroma.stabilizer(c, G, model)) for c in all_c}
    out.append(Check("all stabilizers trivial", stab_sizes == {1}, f"sizes {sorted(stab_sizes)}"))

    expected = {"trivial": 240, "C2": 120, "S5": 2, "A5": 4, "A5xC2": 2, "S5xC2": 1}
    for name, want in expected.items():
        H = symmetry.named_subgroup(name)
        label = "A5 x {1}" if name == "A5" else name
        try:
            orbits = chroma.orbit_partition(all_c, H, model)
        except ValueError as exc:  # the action leaves the enumerated set
            out.append(Check(f"orbits under {label}", False, str(exc)))
            continue
        sizes = {len(o) for o in orbits}
        ok = (
            len(orbits) == want
            and sizes == {len(H)}
            and len(orbits) * len(H) == 240
        )
        out.append(Check(
            f"orbits under {label}",
            ok,
            f"{len(orbits)} orbits of size {sorted(sizes)}, |H| = {len(H)}",
        ))

    seed_a, seed_b = chroma.seed_colourings(model)
    comp_of_a, comp_of_b = _label(model, seed_a), _label(model, seed_b)
    out.append(Check(
        "canonical seeds valid, distinct, classified A and B",
        chroma.is_valid(model, seed_a) and chroma.is_valid(model, seed_b)
        and seed_a != seed_b and (comp_of_a, comp_of_b) == ("A", "B"),
        f"seed compounds {comp_of_a}/{comp_of_b}",
    ))

    anti_rule = all(chroma.antipodal_rule_holds(model, c) for c in all_c)
    out.append(Check("antipodal colour rule at all 20 vertices of all 240", anti_rule, ""))
    return out


def _compound_checks(model: PolytopeModel, all_c, label_of, rot, full) -> list[Check]:
    out = []
    tets = compound_mod.inscribed_tetrahedra(model)
    out.append(Check("inscribed tetrahedra", len(tets) == 10, f"{len(tets)}"))
    per_vertex = all(sum(v in t for t in tets) == 2 for v in range(20))
    out.append(Check("each vertex lies in exactly 2 tetrahedra", per_vertex, ""))

    spectrum = distance_spectrum(model)
    pos = positions(model)
    common = {
        round(norm(sub(pos[a], pos[b])), 9)
        for t in tets for a in t for b in t if a < b
    }
    out.append(Check(
        "tetrahedron edge equals third-smallest distance",
        len(common) == 1 and abs(common.pop() - spectrum[2][0]) < 1e-8,
        f"spectrum[2] = {spectrum[2][0]:.9f}",
    ))

    comp_a, comp_b = compound_mod.compounds(model)
    set_a, set_b = set(comp_a.tetrahedra), set(comp_b.tetrahedra)

    def image_of_a(p):  # compound A's tetrahedra under the vertex map p
        return {tuple(sorted(p[v] for v in t)) for t in comp_a.tetrahedra}

    out.append(Check(
        "antipodal image of compound A is compound B", image_of_a(model.antipode) == set_b, ""
    ))
    stab_a = all(image_of_a(p) == set_a for p in rot)
    maps_ab = any(image_of_a(p) == set_b for p in rot)
    out.append(Check("every rotation stabilizes each compound", stab_a and not maps_ab, ""))
    rot_set = set(rot)
    swaps = all(image_of_a(p) == set_b for p in full if p not in rot_set)
    out.append(Check("every orientation-reversing symmetry exchanges the compounds", swaps, ""))

    labels = Counter(label_of[c] for c in all_c)
    classified = len(all_c) - labels[None]
    out.append(Check(
        "colour classes of all 240 form one compound",
        labels[None] == 0 and classified == 240,
        f"classified {classified}",
    ))
    out.append(Check(
        "120 colourings per compound",
        labels["A"] == labels["B"] == 120,
        f"A: {labels['A']}, B: {labels['B']}",
    ))

    report = compound_mod.spread_subsets(model)
    out.append(Check(
        "well-spread subsets: max size 4, no 5th vertex extension",
        report.max_size == 4 and not report.five_extension_possible,
        f"max {report.max_size} over {report.four_subsets_checked} four-subsets",
    ))
    out.append(Check(
        "4-element well-spread subsets are exactly the 10 tetrahedra",
        set(report.maximal_subsets) == set(tets),
        f"{len(report.maximal_subsets)} maximal subsets",
    ))
    return out


# each of the 24 canonical cyclic colour orders -> its inverse
_INVERSE_CYCLE = {(1, *p): chroma.inverse_cycle((1, *p)) for p in permutations((2, 3, 4, 5))}


def _structure_checks(model: PolytopeModel, all_c, label_of) -> list[Check]:
    """P1, P2 and the chirality bookkeeping over the full enumeration."""
    out = []
    odd = symmetry.ColourSymmetry((2, 1, 3, 4, 5), 1)
    even = symmetry.ColourSymmetry((2, 3, 1, 4, 5), 1)
    swap = symmetry.COLOUR_SWAP
    # the enumerated colourings are rainbow and the three symmetries valid,
    # so the action kernel relabels them without checking either again
    images = {c: [tuple(b) for b in chroma._images(c, (odd, even, swap), model)] for c in all_c}

    p2_ok = True
    inverse_ok = True
    parity_of = {}
    for c in all_c:
        sig = chroma.face_parity_signature(model, c)
        orders = [o for _, o, _ in sig]
        parities = {p for _, _, p in sig}
        if len(set(orders)) != 12 or len(parities) != 1:
            p2_ok = False
            break
        parity_of[c] = parities.pop()
        inverse_ok = inverse_ok and all(
            orders[opp] == _INVERSE_CYCLE[order] for opp, order in zip(model.opposite_faces, orders)
        )
    out.append(Check("P2: 12 distinct cyclic orders of one parity per colouring", p2_ok, ""))
    out.append(Check("P2: opposite faces carry inverse cyclic orders", inverse_ok, ""))
    split = Counter(parity_of.values())
    out.append(Check(
        "parity split 120 even / 120 odd",
        split[1] == split[-1] == 120,
        f"even {split[1]}, odd {split[-1]}",
    ))

    # an image outside the enumeration, or a colouring without one parity,
    # has no parity to compare
    flips = all(parity_of.get(images[c][0]) == -p for c, p in parity_of.items())
    keeps = all(parity_of.get(images[c][1]) == p for c, p in parity_of.items())
    out.append(Check(
        "odd relabelling flips all parities, even preserves", p2_ok and flips and keeps, ""
    ))

    hand_of = {}  # colouring -> its one working handedness, or None
    # a checkpoint set depends on the vertex and handedness only, so the
    # (v, h) whose set is v's colour class are found by looking each class up
    traced = defaultdict(list)  # checkpoint set -> the (v, h) tracing it
    for v in range(20):
        for h in (chroma.LEFT, chroma.RIGHT):
            traced[chroma.zigzag_trace(model, all_c[0], v, h)].append((v, h))
    for c in all_c:
        hits = [
            (v, h) for colour, k in chroma.colour_classes(c).items()
            for v, h in traced.get(k, ()) if c[v] == colour
        ]
        hands = {h for _, h in hits}
        one_per_vertex = sorted(v for v, _ in hits) == list(range(20))
        hand_of[c] = hands.pop() if one_per_vertex and len(hands) == 1 else None
    out.append(Check(
        "P1: exactly one working handedness per vertex, constant per colouring",
        None not in hand_of.values(),
        "",
    ))
    flip_hand = all(
        {hand_of[c], hand_of.get(images[c][2])} == {chroma.LEFT, chroma.RIGHT}
        for c in all_c
    )
    out.append(Check("P1: handedness flips under the antipodal colour swap", flip_hand, ""))

    pairing = {(label_of[c], hand_of[c]) for c in all_c}
    out.append(Check(
        "fixed pairing: compound A works left, compound B works right",
        pairing == {("A", chroma.LEFT), ("B", chroma.RIGHT)},
        f"{sorted(pairing, key=repr)}",  # a label or handedness may be None
    ))

    combos = Counter((label_of[c], parity_of.get(c)) for c in all_c)
    out.append(Check(
        "compound and parity independent: 4 combinations of 60",
        sorted(combos.values()) == [60, 60, 60, 60] and len(combos) == 4,
        f"{dict(combos)}",
    ))
    return out


def _export_checks(model: PolytopeModel, all_c) -> list[Check]:
    out = []
    first = chroma.enumeration_to_json(all_c)
    second = chroma.enumeration_to_json(chroma.enumerate_colourings(model))
    out.append(Check("enumeration export byte-stable", first == second, f"{len(first)} bytes"))

    round_trip = all(
        chroma.colouring_from_json(chroma.colouring_to_json(c)) == c for c in all_c[:10]
    )
    out.append(Check("colouring JSON round-trip is identity", round_trip, ""))

    off = model_to_off(model)
    header_ok = off.splitlines()[0] == "OFF" and off.splitlines()[1] == "20 12 30"
    stable = off == model_to_off(model) and model_to_json(model) == model_to_json(model)
    out.append(Check("dodecahedron OFF header and stability", header_ok and stable, ""))
    return out


def _label(model: PolytopeModel, c) -> str | None:
    """The label of the compound c's colour classes form, or None if they
    form none."""
    try:
        return compound_mod.classify_colouring(model, c)[0].label
    except ValueError:
        return None


def run_checks(model: PolytopeModel) -> list[Check]:
    """The whole battery; every entry carries its measured value.

    The colourings are enumerated once, timed for the 1 s gate, and
    classified once; the sections share them, their compound labels and
    the rotation and full symmetry groups.  A colouring that does not
    classify has label None, which fails every check that reads it.
    """
    t0 = time.perf_counter()
    all_c = chroma.enumerate_colourings(model)
    elapsed = time.perf_counter() - t0
    rot = symmetry.rotation_group(model)
    full = symmetry.full_group(model)
    label_of = {c: _label(model, c) for c in all_c}
    checks = []
    checks += _polytope_checks(model)
    checks += _symmetry_checks(model, rot, full)
    checks += _colouring_checks(model, all_c, elapsed)
    checks += _compound_checks(model, all_c, label_of, rot, full)
    checks += _structure_checks(model, all_c, label_of)
    checks += _export_checks(model, all_c)
    return checks
