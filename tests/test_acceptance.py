"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here: exact integer equality for counts,
1e-9 for geometric distances.
"""

import math
import time
from collections import Counter
from itertools import combinations, permutations

from pentachrome import chroma
from pentachrome import compound as compound_mod
from pentachrome.polytope import model_to_json, model_to_off, positions
from pentachrome.symmetry import (
    COLOUR_SWAP,
    ColourSymmetry,
    colour_group,
    full_group,
    named_subgroup,
    perm_parity,
    rotation_group,
    tetra_action,
)

GEOM_TOL = 1e-9


def _report(number, text):
    print(f"PASS criterion {number:2d}: {text}")


def test_criterion_01_enumeration_count(model):
    t0 = time.perf_counter()
    found = chroma.enumerate_colourings(model)
    elapsed = time.perf_counter() - t0
    assert len(found) == 240
    assert elapsed < 1.0
    _report(1, f"exactly 240 valid colourings, enumerated in {elapsed:.3f}s")


def test_criterion_02_cross_oracle_equality(model, colourings):
    by_propagation = []
    for frame in permutations(chroma.COLOURS, 4):
        pair = chroma.frame_completions(model, frame)
        assert len(set(pair)) == 2
        by_propagation.extend(pair)
    assert tuple(sorted(by_propagation)) == colourings
    # the geometric route: each vertex takes the colour of its tetrahedron
    by_compound = set()
    for tets in model.compounds:
        for labels in permutations(chroma.COLOURS):
            c = [0] * 20
            for t, colour in zip(tets, labels):
                for v in t:
                    c[v] = colour
            assert chroma.is_valid(model, c)
            by_compound.add(tuple(c))
    assert len(by_compound) == 240
    assert tuple(sorted(by_compound)) == colourings
    _report(2, "propagation enumerator = backtracking enumerator; 2 completions per frame; "
               "the 2 x 5! labelled compounds give the same 240")


def test_criterion_03_simple_transitivity(model, colourings):
    G = colour_group()
    images = [chroma.act(g, colourings[0], model) for g in G]
    # 240 distinct images of one colouring under the 240 elements: a
    # trivial stabilizer there, and so everywhere, without `stabilizer`
    assert len(images) == len(set(images)) == 240
    orbit = {chroma.act(g, colourings[0], model) for g in G}
    assert len(orbit) == 240
    assert orbit == set(colourings)
    for c in colourings:
        assert len(chroma.stabilizer(c, G, model)) == 1
    _report(3, "single orbit of size 240, all 240 stabilizers trivial")


def test_criterion_04_orbit_counts(model, colourings):
    expected = {"A5": 4, "S5xC2": 1, "trivial": 240, "C2": 120, "S5": 2, "A5xC2": 2}
    for name, want in expected.items():
        H = named_subgroup(name)
        orbits = chroma.orbit_partition(colourings, H, model)
        assert len(orbits) == want
        assert len(orbits) * len(H) == 240
    _report(4, "orbits: A5 x {1} -> 4, G -> 1, trivial -> 240; |H| x orbits = 240 throughout")


def test_criterion_05_group_cardinalities(model):
    rot = rotation_group(model)
    full = full_group(model)
    assert len(rot) == 60
    assert len(full) == 120
    comp_a, _ = compound_mod.compounds(model)
    images = {tetra_action(g, comp_a.tetrahedra) for g in rot}
    assert len(images) == 60  # injective on a 60-element group
    assert all(perm_parity(p) == 1 for p in images)
    _report(5, "|I| = 60, |I_h| = 120; tetrahedra action is an isomorphism onto A5")


def test_criterion_06_tetrahedra_and_compounds(model, rotations):
    tets = compound_mod.inscribed_tetrahedra(model)
    assert len(tets) == 10
    comp_a, comp_b = compound_mod.compounds(model)
    assert len(comp_a.tetrahedra) == len(comp_b.tetrahedra) == 5
    assert set(comp_a.tetrahedra) | set(comp_b.tetrahedra) == set(tets)
    assert not set(comp_a.tetrahedra) & set(comp_b.tetrahedra)
    anti = model.antipode
    image = {tuple(sorted(anti[v] for v in t)) for t in comp_a.tetrahedra}
    assert image == set(comp_b.tetrahedra)
    for g in rotations:
        rotated = {tuple(sorted(g[v] for v in t)) for t in comp_a.tetrahedra}
        assert rotated != set(comp_b.tetrahedra)
    _report(6, "10 tetrahedra; 2 compounds exchanged by the antipodal map, by no rotation")


def test_criterion_07_colour_class_structure(model, colourings):
    split = Counter()
    for c in colourings:
        comp, classes = compound_mod.classify_colouring(model, c)
        assert set(classes.values()) == set(comp.tetrahedra)
        split[comp.label] += 1
    assert split["A"] == split["B"] == 120
    # why a labelled compound is rainbow: each face meets each tetrahedron once
    tets_a, tets_b = model.compounds
    for f in model.faces:
        for t in tets_a + tets_b:
            assert len(set(f) & set(t)) == 1
    anti = model.antipode
    images = [tets_b.index(tuple(sorted(anti[v] for v in t))) for t in tets_a]
    assert images == [4, 3, 1, 2, 0]
    _report(7, "all 240 colour-class families are compounds; 120 per compound; every face "
               "meets each of the 10 tetrahedra once; the antipode maps A's 0-4 to B's 4,3,1,2,0")


def test_criterion_08_spread_oracle(model):
    pts = positions(model)
    threshold = math.sqrt(8.0 / 3.0) - GEOM_TOL
    spread_quads = []
    checked = 0
    for quad in combinations(range(20), 4):
        checked += 1
        if all(math.dist(pts[a], pts[b]) >= threshold for a, b in combinations(quad, 2)):
            spread_quads.append(quad)
    assert checked == 4845
    assert len(spread_quads) == 10
    assert set(spread_quads) == set(compound_mod.inscribed_tetrahedra(model))
    for quad in spread_quads:
        for e in range(20):
            if e in quad:
                continue
            assert any(math.dist(pts[e], pts[v]) < threshold for v in quad)
    _report(8, "4845 four-subsets scanned: spread maximisers are the 10 tetrahedra, no 5th vertex")


def test_criterion_09_cyclic_order_parity(model, colourings, opposite_faces):
    from itertools import permutations as _perms

    per_parity = {
        s: {
            (1,) + rest
            for rest in _perms((2, 3, 4, 5))
            if chroma.cyclic_order_parity((1,) + rest) == s
        }
        for s in (1, -1)
    }
    odd = ColourSymmetry((2, 1, 3, 4, 5), 1)
    even = ColourSymmetry((2, 3, 1, 4, 5), 1)
    for c in colourings:
        sig = chroma.face_parity_signature(model, c)
        orders = {order for _, order, _ in sig}
        parities = {p for _, _, p in sig}
        assert len(parities) == 1
        shared = parities.pop()
        assert orders == per_parity[shared]  # all 12 of that parity, each once
        for fid, order, _ in sig:
            opp = opposite_faces[fid]
            opp_order = chroma.canonical_cycle(tuple(c[v] for v in model.faces[opp]))
            assert opp_order == chroma.inverse_cycle(order)
        assert chroma.parity_class(model, chroma.act(odd, c, model)) == -shared
        assert chroma.parity_class(model, chroma.act(even, c, model)) == shared
    _report(9, "faces realize exactly the 12 cyclic orders of one parity; inverse opposite; odd flips")


def test_criterion_10_zigzag(model, colourings):
    hand_of = {}
    for c in colourings:
        classes = chroma.colour_classes(c)
        hands = set()
        for v in range(20):
            hits = [
                h for h in (chroma.LEFT, chroma.RIGHT)
                if chroma.zigzag_trace(model, c, v, h) == classes[c[v]]
            ]
            assert len(hits) == 1
            hands.add(hits[0])
        assert len(hands) == 1
        hand_of[c] = hands.pop()
    for c in colourings:
        assert hand_of[chroma.act(COLOUR_SWAP, c, model)] != hand_of[c]
    _report(10, "one working handedness per colouring at all 20 vertices; flips under (id,-1)")


def test_criterion_11_antipodal_colour_rule(model, colourings):
    for c in colourings:
        for v in range(20):
            local = {c[v]} | {c[u] for u in model.adjacency[v]}
            assert len(local) == 4
            (missing,) = set(chroma.COLOURS) - local
            assert c[model.antipode[v]] == missing
    _report(11, "antipodal colour rule holds at all 20 vertices of all 240 colourings")


def test_criterion_12_determinism_and_round_trips(model, colourings, tmp_path):
    import subprocess
    import sys

    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    for out in (out1, out2):  # two independent processes
        proc = subprocess.run(
            [sys.executable, "-m", "pentachrome.cli", "enumerate", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()

    for c in colourings[:25]:
        assert chroma.colouring_from_json(chroma.colouring_to_json(c)) == c

    lines = model_to_off(model).splitlines()
    verts = [tuple(float(t) for t in ln.split()) for ln in lines[2:22]]
    faces = [tuple(int(t) for t in ln.split()[1:]) for ln in lines[22:]]
    assert verts == list(positions(model))
    assert tuple(faces) == model.faces

    import json

    doc = json.loads(model_to_json(model))
    assert [tuple(p) for p in doc["vertices"]] == list(positions(model))
    assert [tuple(f) for f in doc["faces"]] == list(model.faces)
    assert tuple(doc["antipode"]) == model.antipode
    _report(12, "enumerate output byte-identical across runs; OFF/JSON round-trips lossless")
