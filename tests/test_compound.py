import math
from collections import Counter
from itertools import combinations

import pytest

from pentachrome import chroma
from pentachrome.compound import (
    TETRA_EDGE,
    classify_colouring,
    compound_to_json,
    compound_to_off,
    compounds,
    inscribed_tetrahedra,
    spread_subsets,
)
from pentachrome.polytope import distance_spectrum, positions
from pentachrome.symmetry import full_group, rotation_group


def brute_force_equilateral_quads(model):
    """Independent oracle: scan all C(20,4) subsets with plain math."""
    pts = positions(model)
    quads = []
    for quad in combinations(range(20), 4):
        dists = [math.dist(pts[a], pts[b]) for a, b in combinations(quad, 2)]
        if max(dists) - min(dists) < 1e-9:
            quads.append(quad)
    return quads


def test_ten_tetrahedra_against_brute_force(model):
    tets = inscribed_tetrahedra(model)
    assert len(tets) == 10
    assert set(tets) == set(brute_force_equilateral_quads(model))


def test_every_vertex_in_exactly_two(model):
    tets = inscribed_tetrahedra(model)
    counts = Counter(v for t in tets for v in t)
    assert all(counts[v] == 2 for v in range(20))


def test_common_edge_is_third_smallest_distance(model):
    spectrum = distance_spectrum(model)
    assert abs(TETRA_EDGE - spectrum[2][0]) < 1e-9
    pts = positions(model)
    for t in inscribed_tetrahedra(model):
        for a, b in combinations(t, 2):
            assert abs(math.dist(pts[a], pts[b]) - TETRA_EDGE) < 1e-9


def test_two_compounds_partition_the_tetrahedra(model):
    comp_a, comp_b = compounds(model)
    assert comp_a.label == "A"
    assert comp_b.label == "B"
    for comp in (comp_a, comp_b):
        assert len(comp.tetrahedra) == 5
        members = [v for t in comp.tetrahedra for v in t]
        assert sorted(members) == list(range(20))
        sets = [frozenset(t) for t in comp.tetrahedra]
        assert all(not (s & t) for i, s in enumerate(sets) for t in sets[i + 1:])
    assert set(comp_a.tetrahedra) | set(comp_b.tetrahedra) == set(
        inscribed_tetrahedra(model)
    )
    assert not set(comp_a.tetrahedra) & set(comp_b.tetrahedra)


def test_compound_a_has_lexicographically_first_tetra_at_vertex_zero(model):
    comp_a, comp_b = compounds(model)
    ta = next(t for t in comp_a.tetrahedra if 0 in t)
    tb = next(t for t in comp_b.tetrahedra if 0 in t)
    assert ta < tb


def test_antipodal_map_exchanges_compounds(model):
    comp_a, comp_b = compounds(model)
    anti = model.antipode
    image = {tuple(sorted(anti[v] for v in t)) for t in comp_a.tetrahedra}
    assert image == set(comp_b.tetrahedra)


def test_no_rotation_exchanges_compounds(model, rotations):
    comp_a, comp_b = compounds(model)
    a_set, b_set = set(comp_a.tetrahedra), set(comp_b.tetrahedra)
    for g in rotations:
        image = {tuple(sorted(g[v] for v in t)) for t in comp_a.tetrahedra}
        assert image == a_set
        assert image != b_set


def test_every_reversing_symmetry_exchanges_compounds(model, rotations, full_symmetries):
    comp_a, comp_b = compounds(model)
    b_set = set(comp_b.tetrahedra)
    reversing = set(full_symmetries) - set(rotations)
    assert len(reversing) == 60
    for g in reversing:
        image = {tuple(sorted(g[v] for v in t)) for t in comp_a.tetrahedra}
        assert image == b_set


def test_all_colourings_classify(model, colourings):
    labels = Counter()
    for c in colourings:
        comp, classes = classify_colouring(model, c)
        labels[comp.label] += 1
        assert set(classes.values()) == set(comp.tetrahedra)
        assert sorted(classes) == [1, 2, 3, 4, 5]
    assert labels["A"] == labels["B"] == 120


def test_classes_are_the_colour_classes_in_ascending_order(model, colourings):
    # both are read off one loop: the sets, and the tuples the compounds hold
    for c in (*colourings, tuple(colourings[7]), (5,) * 19 + (1,)):
        by_definition = {x: [v for v in range(20) if c[v] == x] for x in chroma.COLOURS}
        assert chroma.colour_classes(c) == {x: frozenset(vs) for x, vs in by_definition.items()}
        assert chroma.colour_classes(c, tuple) == {x: tuple(vs) for x, vs in by_definition.items()}
        if chroma.is_valid(model, c):
            assert classify_colouring(model, c)[1] == chroma.colour_classes(c, tuple)


def test_classification_matches_zigzag_handedness(model, colourings):
    # the fixed global pairing of the two chirality detectors
    expected = {"A": chroma.LEFT, "B": chroma.RIGHT}
    for c in colourings:
        comp, _ = classify_colouring(model, c)
        assert chroma.working_handedness(model, c) == expected[comp.label]


def test_compound_and_parity_are_independent(model, colourings):
    combos = Counter(
        (classify_colouring(model, c)[0].label, chroma.parity_class(model, c))
        for c in colourings
    )
    assert len(combos) == 4
    assert set(combos.values()) == {60}


def test_classify_rejects_invalid(model):
    with pytest.raises(ValueError):
        classify_colouring(model, tuple([1] * 20))
    seed_a, _ = chroma.seed_colourings(model)
    only_b = model._replace(compounds=(model.compounds[1], model.compounds[1]))
    with pytest.raises(ValueError, match="^colour classes do not form a compound$"):
        classify_colouring(only_b, seed_a)


def test_spread_subsets(model):
    report = spread_subsets(model)
    assert report.four_subsets_checked == 4845
    assert report.max_size == 4  # so no 4-subset extends by a fifth vertex
    assert set(report.maximal_subsets) == set(inscribed_tetrahedra(model))


def test_spread_fifth_vertex_always_too_close(model):
    pts = positions(model)
    threshold = TETRA_EDGE - 1e-9
    for t in inscribed_tetrahedra(model):
        for e in range(20):
            if e in t:
                continue
            assert min(math.dist(pts[e], pts[v]) for v in t) < threshold


def test_compound_off_export(model):
    comp_a, _ = compounds(model)
    off = compound_to_off(model, comp_a)
    lines = off.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "20 20 30"
    face_lines = [ln for ln in lines[2:] if ln.startswith("3 ")]
    assert len(face_lines) == 20  # 4 triangles per tetrahedron
    assert off == compound_to_off(model, comp_a)


def test_compound_json_export(model):
    comp_a, comp_b = compounds(model)
    import json

    doc = json.loads(compound_to_json(comp_a))
    assert doc["compound"] == "A"
    assert [tuple(t) for t in doc["tetrahedra"]] == list(comp_a.tetrahedra)
    assert json.loads(compound_to_json(comp_b))["compound"] == "B"
