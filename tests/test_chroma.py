import copy
import json
import pickle
import random
import re
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentachrome import chroma
from pentachrome import compound as compound_mod
from pentachrome.chroma import (
    COLOURS,
    LABELLING,
    LEFT,
    RIGHT,
    PropagationError,
    act,
    antipodal_rule_holds,
    canonical_cycle,
    colour_classes,
    colour_frames,
    colouring_from_json,
    colouring_to_json,
    cyclic_order_parity,
    enumerate_by_propagation,
    enumerate_colourings,
    enumeration_to_json,
    face_parity_signature,
    first_violated_face,
    frame_completions,
    inverse_cycle,
    is_valid,
    opposite_face,
    orbit_partition,
    parity_class,
    seed_colourings,
    stabilizer,
    working_handedness,
    zigzag_trace,
    zigzag_walk,
)
from pentachrome.polytope import dual_face_of, positions
from pentachrome.symmetry import (
    COLOUR_IDENTITY,
    COLOUR_SWAP,
    ColourSymmetry,
    colour_group,
    generate_subgroup,
    named_subgroup,
    tetra_action,
)


# ---------------------------------------------------------------------------
# validity

def test_constant_colouring_invalid(model):
    assert not is_valid(model, tuple([1] * 20))
    assert first_violated_face(model, tuple([1] * 20)) == 0


def test_malformed_colourings_rejected(model):
    with pytest.raises(ValueError):
        is_valid(model, (1,) * 19)
    with pytest.raises(ValueError):
        is_valid(model, (1,) * 19 + (6,))
    with pytest.raises(ValueError):
        is_valid(model, (0,) + (1,) * 19)
    with pytest.raises(ValueError):
        is_valid(model, (True,) + (2,) * 19)
    with pytest.raises(ValueError):
        is_valid(model, None)


def test_seed_colourings_valid(model):
    seed_a, seed_b = seed_colourings(model)
    assert is_valid(model, seed_a)
    assert is_valid(model, seed_b)
    assert seed_a != seed_b
    for seed in (seed_a, seed_b):
        assert seed[0] == 1
        assert (seed[1], seed[2], seed[3]) == (2, 3, 4)


def test_single_swap_breaks_validity(model, colourings):
    # swapping an antipodal pair's colours breaks every face at both ends:
    # the antipode's colour is the one missing from the other faces there
    c = list(colourings[0])
    c[0], c[19] = c[19], c[0]
    assert not is_valid(model, tuple(c))
    assert first_violated_face(model, tuple(c)) is not None


# ---------------------------------------------------------------------------
# enumeration

def test_enumeration_count(colourings):
    assert len(colourings) == 240


def test_enumeration_sound_and_sorted(model, colourings):
    assert all(is_valid(model, c) for c in colourings)
    assert list(colourings) == sorted(colourings)
    assert len(set(colourings)) == 240


def test_cross_oracle_equality(model, colourings):
    assert enumerate_by_propagation(model) == colourings


def test_two_completions_per_frame(model):
    frames = list(colour_frames())
    assert len(frames) == 120
    for pole, triple in frames:
        a, b = frame_completions(model, pole, triple)
        assert a != b
        assert a[0] == b[0] == pole
        assert (a[1], a[2], a[3]) == (b[1], b[2], b[3]) == triple


def test_propagation_detects_contradiction(model):
    col = [0] * 20
    col[0] = 1
    col[1] = 1  # neighbour of the pole with the same colour
    with pytest.raises(PropagationError):
        chroma._propagate(model, col)


def test_propagation_raises_on_empty_vertex_or_stall(model, colourings):
    # a neighbour of vertex 0 takes vertex 0's colour, so vertex 0 has none left
    col = list(colourings[0])
    col[model.adjacency[0][0]] = col[0]
    col[0] = 0
    with pytest.raises(PropagationError, match="no colour left for vertex 0"):
        chroma._propagate(model, col)
    # with nothing coloured, nothing is forced
    with pytest.raises(PropagationError, match="propagation stalled"):
        chroma._propagate(model, [0] * 20)


def test_seeds_are_frame_completions(model):
    seed_a, seed_b = seed_colourings(model)
    assert set(frame_completions(model, 1, (2, 3, 4))) == {seed_a, seed_b}
    assert parity_class(model, seed_a) == 1
    assert parity_class(model, seed_b) == -1


def test_seed_class_families_are_antipodal_images(model):
    seed_a, seed_b = seed_colourings(model)
    family_a = set(colour_classes(seed_a).values())
    family_b = set(colour_classes(seed_b).values())
    mirrored = {frozenset(model.antipode[v] for v in s) for s in family_a}
    assert mirrored == family_b


# ---------------------------------------------------------------------------
# the colour-group action

def test_act_identity(model, colourings):
    c = colourings[17]
    assert act(COLOUR_IDENTITY, c, model) == c


def test_act_is_an_action(model, colourings):
    rng = random.Random(1847)
    pool = sorted(colour_group())
    for _ in range(60):
        g, h = rng.choice(pool), rng.choice(pool)
        c = rng.choice(colourings)
        assert act(g, act(h, c, model), model) == act(g * h, c, model)


_G = sorted(colour_group())


@settings(max_examples=50, deadline=None)
@given(g=st.sampled_from(_G), h=st.sampled_from(_G), i=st.integers(0, 239))
def test_act_is_a_homomorphism(model, colourings, g, h, i):
    c = colourings[i]
    assert act(g * h, c, model) == act(g, act(h, c, model), model)


def test_act_matches_definition(model, colourings):
    # the definition, written out here: relabel colour x as perm[x-1], and for
    # sign -1 read each vertex's colour at its antipode
    anti = model.antipode
    for g in _G:
        for c in colourings:
            want = tuple(g.perm[c[anti[v] if g.sign == -1 else v] - 1] for v in range(20))
            assert act(g, c, model) == want


@pytest.mark.parametrize("bad", [None, [1], "S5"], ids=["None", "int-list", "string"])
def test_non_group_elements_rejected(model, colourings, bad):
    c = colourings[0]
    with pytest.raises(ValueError):
        generate_subgroup(bad)
    with pytest.raises(ValueError):
        act(bad, c, model)
    with pytest.raises(ValueError):
        stabilizer(c, bad, model)
    with pytest.raises(ValueError):
        orbit_partition([c], bad, model)


def test_colour_symmetry_is_its_pair(model, colourings):
    pairs = {g: (g.perm, g.sign) for g in _G}
    assert all(g == pair and hash(g) == hash(pair) for g, pair in pairs.items())
    assert [pairs[g] for g in _G] == sorted(pairs.values())
    g, h = _G[17], _G[203]
    assert type(g * h) is ColourSymmetry and type(g.inverse()) is ColourSymmetry
    assert repr(COLOUR_SWAP) == "ColourSymmetry(perm=(1, 2, 3, 4, 5), sign=-1)"
    assert pickle.loads(pickle.dumps(g)) == copy.deepcopy(g) == g
    with pytest.raises((TypeError, AttributeError)):  # not tuple repetition
        3 * g
    # a bare pair equals the identity as a tuple, but is no colour symmetry
    bare, c = ((1, 2, 3, 4, 5), 1), colourings[0]
    assert bare == COLOUR_IDENTITY
    with pytest.raises(ValueError):
        act(bare, c, model)
    with pytest.raises(ValueError):
        stabilizer(c, [bare], model)
    with pytest.raises(ValueError):
        orbit_partition([c], {bare}, model)
    with pytest.raises(ValueError):
        generate_subgroup([bare])


def test_act_preserves_validity(model, colourings):
    rng = random.Random(3)
    pool = sorted(colour_group())
    for _ in range(40):
        assert is_valid(model, act(rng.choice(pool), rng.choice(colourings), model))


def test_act_rejects_invalid_colouring(model):
    with pytest.raises(ValueError):
        act(COLOUR_SWAP, tuple([1] * 20), model)


@pytest.mark.parametrize("bad", [None, (1, 2, 3), (0,) * 20], ids=["None", "short", "zeros"])
@pytest.mark.parametrize("call", [
    lambda model, x: working_handedness(model, x),
    lambda model, x: colour_classes(x),
    lambda model, x: enumeration_to_json([x]),
    lambda model, x: tetra_action(model, x, compound_mod.compounds(model)[0].tetrahedra),
], ids=["working_handedness", "colour_classes", "enumeration_to_json", "tetra_action"])
def test_entry_points_reject_malformed_input(model, call, bad):
    with pytest.raises(ValueError):
        call(model, bad)


def test_orbit_of_any_colouring_is_everything(model, colourings):
    G = colour_group()
    orbit = {act(g, colourings[0], model) for g in G}
    assert orbit == set(colourings)


def test_simple_transitivity_trivial_stabilizers(model, colourings):
    G = colour_group()
    for c in colourings:
        assert stabilizer(c, G, model) == [COLOUR_IDENTITY]


def test_orbit_partition_counts(model, colourings):
    for name, want_orbits in [
        ("trivial", 240),
        ("C2", 120),
        ("S5", 2),
        ("A5", 4),
        ("A5xC2", 2),
        ("S5xC2", 1),
    ]:
        H = named_subgroup(name)
        orbits = orbit_partition(colourings, H, model)
        assert len(orbits) == want_orbits
        assert all(len(o) == len(H) for o in orbits)
        assert len(orbits) * len(H) == 240


def test_orbit_partition_rejects_non_subgroup(model, colourings):
    not_closed = {COLOUR_IDENTITY, ColourSymmetry((2, 3, 1, 4, 5), 1)}
    with pytest.raises(ValueError):
        orbit_partition(colourings, not_closed, model)
    no_identity = {COLOUR_SWAP}
    with pytest.raises(ValueError):
        orbit_partition(colourings, no_identity, model)


@pytest.mark.parametrize("name", ["S5", "A5", "A5xC2", "S5xC2"])
def test_orbit_partition_rejects_subgroup_minus_one(model, colourings, name):
    # C2 is left out: C2 minus its swap is the trivial group, a subgroup
    H = named_subgroup(name)
    for g in random.Random(name).sample(sorted(H - {COLOUR_IDENTITY}), 3):
        with pytest.raises(ValueError):
            orbit_partition(colourings, H - {g}, model)


@pytest.mark.parametrize("name", ["C2", "S5", "A5", "A5xC2"])
def test_orbit_partition_rejects_subgroup_plus_one(model, colourings, name):
    H = named_subgroup(name)
    for g in random.Random(name).sample(sorted(colour_group() - H), 3):
        with pytest.raises(ValueError):
            orbit_partition(colourings, H | {g}, model)


# ---------------------------------------------------------------------------
# subgroup closures against a brute-force oracle on validated products

def _validated_product(g, h):
    """g after h, composed here as maps on the colours and built through
    the validating constructor, not through ColourSymmetry.__mul__."""
    g_map, h_map = dict(zip(range(1, 6), g.perm)), dict(zip(range(1, 6), h.perm))
    return ColourSymmetry(tuple(g_map[h_map[x]] for x in range(1, 6)), g.sign * h.sign)


def _validated_closure(gens):
    """The group generated by gens: breadth-first right multiplication,
    every product made and validated by `_validated_product`."""
    group = frozenset({COLOUR_IDENTITY})
    frontier = group
    while frontier:
        frontier = {_validated_product(g, s) for g in frontier for s in gens} - group
        group |= frontier
    return group


@settings(max_examples=40, deadline=None)
@given(gens=st.lists(st.sampled_from(_G), max_size=3))
def test_generate_subgroup_is_the_validated_closure(gens):
    assert generate_subgroup(gens) == _validated_closure(gens)


@settings(max_examples=40, deadline=None)
@given(
    gens=st.lists(st.sampled_from(_G), max_size=2),
    toggled=st.sets(st.sampled_from(_G), max_size=2),
)
def test_orbit_partition_accepts_exactly_the_closed_subsets(model, colourings, gens, toggled):
    # near-subgroups: a generated group with up to two elements toggled
    H = (_validated_closure(gens) ^ toggled) | {COLOUR_IDENTITY}
    closed = all(_validated_product(g, h) in H for g in H for h in H)
    try:
        orbits = orbit_partition(colourings, H, model)
    except ValueError:
        assert not closed
    else:
        assert closed
        assert len(orbits) * len(H) == 240


def test_a5_orbits_are_parity_times_compound(model, colourings):
    orbits = orbit_partition(colourings, named_subgroup("A5"), model)
    invariants = []
    for orbit in orbits:
        combos = {
            (parity_class(model, c), compound_mod.classify_colouring(model, c)[0].label)
            for c in orbit
        }
        assert len(combos) == 1  # both invariants constant on each orbit
        invariants.append(combos.pop())
    assert sorted(invariants) == [(-1, "A"), (-1, "B"), (1, "A"), (1, "B")]


# ---------------------------------------------------------------------------
# P1: zigzag traces

def test_turn_table_matches_geometric_rule(model):
    # README: "left" at w is the outgoing edge with positive component along
    # (incoming direction x outward normal at w); the table reads it off the
    # face orientation instead
    pos = np.array(positions(model))
    table = {
        (u, w): turn
        for u, row in enumerate(model.turns)
        for w, turn in enumerate(row)
        if turn is not None
    }
    assert set(table) == {(u, w) for u in range(20) for w in model.adjacency[u]}
    for (u, w), (left, right) in table.items():
        ref = np.cross(pos[w] - pos[u], pos[w])
        side = {x: float((pos[x] - pos[w]) @ ref) for x in model.adjacency[w] if x != u}
        assert side[left] > 1e-6
        assert side[right] < -1e-6


def test_zigzag_walk_closes_after_twelve_edges(model):
    for v in (0, 7, 13):
        for first in model.adjacency[v]:
            for h in (LEFT, RIGHT):
                walk = zigzag_walk(model, v, first, h)
                assert len(walk) == 13
                assert walk[0] == walk[-1] == v
                assert walk[1] == first


def test_zigzag_trace_independent_of_first_edge(model, colourings):
    c = colourings[0]
    for v in (0, 5, 19):
        for h in (LEFT, RIGHT):
            traces = {
                frozenset(zigzag_walk(model, v, first, h)[::3])
                for first in model.adjacency[v]
            }
            assert len(traces) == 1


def test_zigzag_full_sweep(model, colourings):
    for c in colourings:
        classes = colour_classes(c)
        hands = set()
        for v in range(20):
            hits = [
                h for h in (LEFT, RIGHT)
                if zigzag_trace(model, c, v, h) == classes[c[v]]
            ]
            assert len(hits) == 1
            hands.add(hits[0])
        assert len(hands) == 1  # constant across the colouring


def test_zigzag_handedness_flips_under_colour_swap(model, colourings):
    for c in colourings:
        assert working_handedness(model, c) != working_handedness(
            model, act(COLOUR_SWAP, c, model)
        )


def test_seed_handedness_and_pole_trace(model):
    seed_a, seed_b = seed_colourings(model)
    assert working_handedness(model, seed_a) == LEFT
    assert working_handedness(model, seed_b) == RIGHT
    # from the pole along the edge to its colour-2 neighbour, the walk passes
    # vertices of colours 1, 2, 5, 1
    for seed, hand in ((seed_a, LEFT), (seed_b, RIGHT)):
        first = next(v for v in model.adjacency[0] if seed[v] == 2)
        walk = zigzag_walk(model, 0, first, hand)
        assert [seed[v] for v in walk[:4]] == [1, 2, 5, 1]


def test_working_handedness_checks_the_colouring_once(model, colourings, monkeypatch):
    calls = []
    check = chroma.check_colouring

    def counted(c):
        calls.append(c)
        return check(c)

    monkeypatch.setattr(chroma, "check_colouring", counted)
    for c in colourings[:6]:
        calls.clear()
        working_handedness(model, c)
        assert len(calls) == 1


def test_zigzag_rejects_bad_handedness(model, colourings):
    with pytest.raises(ValueError):
        zigzag_trace(model, colourings[0], 0, "widdershins")


@pytest.mark.parametrize("bad", [20, -1, True])
def test_id_entry_points_reject_bad_ids(model, colourings, bad):
    calls = (
        lambda: zigzag_walk(model, bad, 0, LEFT),
        lambda: zigzag_walk(model, 0, bad, LEFT),
        lambda: zigzag_trace(model, colourings[0], bad, LEFT),
        lambda: dual_face_of(model, bad),
        lambda: opposite_face(model, bad),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()


# ---------------------------------------------------------------------------
# P2: cyclic orders and parity

def test_cyclic_order_parity_values():
    assert cyclic_order_parity((1, 2, 3, 4, 5)) == 1
    assert cyclic_order_parity((2, 1, 4, 5, 3)) == -1  # swap of 1,2 then 3-cycle
    assert cyclic_order_parity((4, 1, 3, 5, 2)) == -1
    # rotation invariance
    assert cyclic_order_parity((3, 2, 1, 4, 5)) == cyclic_order_parity((2, 1, 4, 5, 3))


def test_inverse_cycle():
    assert inverse_cycle((1, 2, 3, 4, 5)) == (1, 5, 4, 3, 2)
    assert canonical_cycle((3, 4, 5, 1, 2)) == (1, 2, 3, 4, 5)


def _all_cyclic_orders_of_parity(parity):
    return {
        (1,) + rest
        for rest in permutations((2, 3, 4, 5))
        if cyclic_order_parity((1,) + rest) == parity
    }


def test_parity_signature_full_sweep(model, colourings):
    split = Counter()
    for c in colourings:
        sig = face_parity_signature(model, c)
        orders = [order for _, order, _ in sig]
        parities = {p for _, _, p in sig}
        assert len(set(orders)) == 12
        assert len(parities) == 1
        split[parities.pop()] += 1
    assert split[1] == split[-1] == 120


def test_face_orders_are_exactly_the_twelve_of_one_parity(model, colourings):
    # 4! = 24 cyclic orders split 12 odd / 12 even; a colouring's faces
    # realize the complete set of its parity, each exactly once
    assert len(_all_cyclic_orders_of_parity(1)) == 12
    assert len(_all_cyclic_orders_of_parity(-1)) == 12
    for c in colourings[:40]:
        sig = face_parity_signature(model, c)
        shared = sig[0][2]
        assert {order for _, order, _ in sig} == _all_cyclic_orders_of_parity(shared)


def test_face_order_table_matches_canonical_cycle_and_parity(model, colourings):
    table = chroma._FACE_ORDERS
    assert len(table) == 120
    assert set(table) == set(permutations(COLOURS))  # every rainbow face reading
    for c in colourings:
        expected = []
        for fid, f in enumerate(model.faces):
            order = canonical_cycle(tuple(c[v] for v in f))
            assert table[tuple(c[v] for v in f)] == (order, cyclic_order_parity(order))
            expected.append((fid, order, cyclic_order_parity(order)))
        assert face_parity_signature(model, c) == tuple(expected)


@pytest.mark.parametrize("bad,message", [
    (None, "colouring must be a sequence of 20 colours, not None"),
    ((1, 2, 3), "colouring must assign 20 vertices, got 3"),
    ((0,) * 20, "vertex 0 has colour 0, expected 1..5"),
    ((1,) * 19 + (True,), "vertex 19 has colour True, expected 1..5"),
    ((1,) * 20, "colouring is not face-rainbow"),
], ids=["None", "short", "zeros", "bool", "constant"])
def test_face_parity_signature_rejection_messages(model, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        face_parity_signature(model, bad)


def test_opposite_faces_inverse_orders(model, colourings):
    for c in colourings[:30]:
        sig = face_parity_signature(model, c)
        for fid, order, _ in sig:
            opp = opposite_face(model, fid)
            opp_order = canonical_cycle(tuple(c[v] for v in model.faces[opp]))
            assert opp_order == inverse_cycle(order)


def test_relabelling_parity_behaviour(model, colourings):
    odd = ColourSymmetry((2, 1, 3, 4, 5), 1)
    even = ColourSymmetry((2, 3, 1, 4, 5), 1)
    for c in colourings:
        p = parity_class(model, c)
        assert parity_class(model, act(odd, c, model)) == -p
        assert parity_class(model, act(even, c, model)) == p
        assert parity_class(model, act(COLOUR_SWAP, c, model)) == p


def test_antipodal_colour_rule_everywhere(model, colourings):
    for c in colourings:
        assert antipodal_rule_holds(model, c)


def test_antipodal_rule_fails_for_perturbed_assignment(model, colourings):
    c = list(colourings[0])
    c[19] = c[0]
    assert not antipodal_rule_holds(model, tuple(c))


# ---------------------------------------------------------------------------
# serialization

def test_colouring_json_round_trip(colourings):
    for c in colourings[:20]:
        assert colouring_from_json(colouring_to_json(c)) == c


def test_colouring_json_rejects_unknown_labelling():
    with pytest.raises(ValueError):
        colouring_from_json('{"labelling": "other", "colours": []}')


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 7) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_MUTATIONS = ("none", "entry", "length", "wrap-entry", "nest", "colours", "labelling", "document", "text")


@settings(max_examples=300, deadline=None)
@given(
    c=st.lists(st.integers(1, 5), min_size=20, max_size=20).map(tuple),
    kind=st.sampled_from(_MUTATIONS),
    data=st.data(),
)
def test_mutated_colouring_documents_raise_only_value_error(c, kind, data):
    doc = {"labelling": LABELLING, "colours": list(c)}
    i = data.draw(st.integers(0, 19))
    if kind == "entry":  # wrong types, bools, out-of-range colours
        doc["colours"][i] = data.draw(_JSON)
    elif kind == "length":
        doc["colours"] = (list(c) * 2)[: data.draw(st.integers(0, 40))]
    elif kind == "wrap-entry":
        doc["colours"][i] = [c[i]]
    elif kind == "colours":
        doc["colours"] = data.draw(_JSON)
    elif kind == "labelling":
        if data.draw(st.booleans()):
            del doc["labelling"]
        else:
            doc["labelling"] = data.draw(_JSON)
    elif kind == "document":
        doc = data.draw(_JSON | st.just([doc]))
    text = json.dumps(doc)
    if kind == "nest":  # 3000 is deeper than the decoder's recursion limit
        depth = data.draw(st.sampled_from([1, 2, 3000]))
        text = f'{{"labelling": "{LABELLING}", "colours": {"[" * depth}{list(c)}{"]" * depth}}}'
    elif kind == "text":
        text = text[: data.draw(st.integers(0, len(text) - 1))]

    if kind == "none":
        assert colouring_from_json(text) == c
        return
    try:
        got = colouring_from_json(text)
    except ValueError:
        return
    # a mutation that still reads as a colouring round-trips like one
    assert colouring_from_json(colouring_to_json(got)) == got


def test_enumeration_export_stable(model, colourings):
    from pentachrome.chroma import enumeration_to_json

    assert enumeration_to_json(colourings) == enumeration_to_json(
        enumerate_colourings(model)
    )
