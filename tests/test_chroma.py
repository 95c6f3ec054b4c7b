import copy
import json
import pickle
import random
import re
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pentachrome import chroma, cli, polytope, symmetry, verify
from pentachrome import compound as compound_mod
from pentachrome.chroma import (
    COLOURS,
    LABELLING,
    LEFT,
    RIGHT,
    act,
    antipodal_rule_holds,
    canonical_cycle,
    check_colouring,
    check_rainbow,
    colour_classes,
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
    orbit_partition,
    parity_class,
    seed_colourings,
    stabilizer,
    working_handedness,
    zigzag_trace,
    zigzag_walk,
)
from pentachrome.polytope import positions
from pentachrome.symmetry import (
    COLOUR_IDENTITY,
    COLOUR_SWAP,
    NAMED_SUBGROUPS,
    ColourSymmetry,
    Subgroup,
    colour_group,
    compose,
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


def _non_rainbow(colourings):
    """Well-formed colourings with a face that is not rainbow."""
    swapped = list(colourings[0])
    swapped[0], swapped[19] = swapped[19], swapped[0]
    return [(1,) * 20, tuple(swapped), swapped, (1, 2, 3, 4, 5) * 4]


def test_no_entry_makes_a_rainbow_of_a_non_rainbow(model, colourings):
    trivial = named_subgroup("trivial")
    for bad in _non_rainbow(colourings):
        assert type(check_colouring(bad)) is tuple
        doc = json.dumps({"labelling": LABELLING, "colours": list(bad)})
        assert type(colouring_from_json(doc)) is tuple
        for call in (
            lambda: check_rainbow(model, bad),
            lambda: act(COLOUR_IDENTITY, bad, model),
            lambda: orbit_partition([bad], trivial, model),
            lambda: stabilizer(bad, trivial, model),
        ):
            with pytest.raises(ValueError, match="^colouring is not face-rainbow$"):
                call()
    for bad in (None, (1, 2, 3), (0,) * 20):
        with pytest.raises(ValueError):
            check_rainbow(model, bad)


@settings(max_examples=200, deadline=None)
@given(i=st.integers(0, 239), changes=st.dictionaries(st.integers(0, 19), st.integers(1, 5), max_size=3))
def test_mutated_colourings_are_rainbow_exactly_when_valid(model, colourings, i, changes):
    c = list(colourings[i])
    for v, x in changes.items():
        c[v] = x
    c = tuple(c)
    valid = is_valid(model, c)
    try:
        checked = check_rainbow(model, c)
    except ValueError:
        assert not valid
    else:
        assert valid and type(checked) is tuple and checked == c
    assert type(check_colouring(c)) is tuple


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
    frames = list(permutations(COLOURS, 4))
    assert len(frames) == 120
    for frame in frames:
        a, b = frame_completions(model, frame)
        assert a != b
        assert a[:4] == b[:4] == frame


@pytest.mark.parametrize("call,match", [
    (lambda model: frame_completions(model, (1, 1, 2, 3)),
     r"^not a colour frame: \(1, 1, 2, 3\)$"),
    (lambda model: frame_completions(model, (7, 2, 3, 4)),
     r"^not a colour frame: \(7, 2, 3, 4\)$"),
    (lambda model: frame_completions(model, (0, 2, 3, 4)),
     r"^not a colour frame: \(0, 2, 3, 4\)$"),
    (lambda model: frame_completions(model, (1, 2, 3, 4.0)),
     r"^not a colour frame: \(1, 2, 3, 4\.0\)$"),
    (lambda model: frame_completions(model, (True, 2, 3, 4)), "^not a colour frame"),
    (lambda model: frame_completions(model, (1, 2, 3)), "^not a colour frame"),
    (lambda model: frame_completions(model, None), "^not a colour frame"),
    (lambda model: cyclic_order_parity(None), "^not a colour cycle: None$"),
    (lambda model: cyclic_order_parity((1, 2, 3, 4, "5")), "^not a colour cycle"),
    (lambda model: cyclic_order_parity((True, 2, 3, 4, 5)), "^not a colour cycle"),
    (lambda model: canonical_cycle((2, 3)), r"^not a colour cycle: \(2, 3\)$"),
    (lambda model: inverse_cycle((2, 3)), r"^not a colour cycle: \(2, 3\)$"),
    (lambda model: inverse_cycle(None), "^not a colour cycle: None$"),
    (lambda model: named_subgroup([]), r"^unknown subgroup name: \[\]$"),
    (lambda model: orbit_partition(None, named_subgroup("A5"), model),
     "^expected colourings, not None$"),
    (lambda model: tetra_action(tuple(range(20)), None),
     "^not five distinct 4-tuples of vertex ids: None$"),
    (lambda model: tetra_action(tuple(range(20)), [1, 2, 3, 4, 5]),
     "^not five distinct 4-tuples of vertex ids"),
    (lambda model: tetra_action(tuple(range(20)), model.compounds[0][:3]),
     "^not five distinct 4-tuples of vertex ids"),
    (lambda model: compose((1, 2), (5,)), r"^cannot compose \(1, 2\) after \(5,\)$"),
    (lambda model: compose((1, 2), (1, 1)), r"^cannot compose \(1, 2\) after \(1, 1\)$"),
    (lambda model: compose((1, 2), (True, 0)), r"^cannot compose \(1, 2\) after \(True, 0\)$"),
    (lambda model: compose(None, None), "^cannot compose None after None$"),
    (lambda model: compose("ab", (1, 0)), r"^cannot compose 'ab' after \(1, 0\)$"),
    (lambda model: colouring_from_json(None), "^expected a JSON document, not None$"),
    (lambda model: enumeration_to_json(None), "^expected colourings, not None$"),
    (lambda model: symmetry.perm_parity((1, 1)), r"^not a permutation: \(1, 1\)$"),
    (lambda model: symmetry.perm_parity(None), "^not a permutation: None$"),
    (lambda model: symmetry.perm_order((-1, 0)), r"^not a permutation: \(-1, 0\)$"),
    (lambda model: symmetry.perm_order({1: 2}), r"^not a permutation: \{1: 2\}$"),
    (lambda model: cli.parse_subgroup_spec(None), "^expected a subgroup spec, not None$"),
], ids=[
    "frame-repeats-a-colour", "frame-pole-7", "frame-pole-0", "frame-float", "frame-bool",
    "frame-short-triple", "frame-no-triple", "parity-None", "parity-str", "parity-bool",
    "canonical-short", "inverse-short", "inverse-None", "subgroup-list", "orbits-None",
    "tetrahedra-None", "tetrahedra-ints", "tetrahedra-three", "compose-short", "compose-repeat",
    "compose-bool", "compose-None", "compose-str", "from-json-None", "enumeration-None",
    "perm-parity-repeat", "perm-parity-None", "perm-order-negative", "perm-order-dict",
    "spec-None",
])
def test_entry_points_raise_value_error_on_bad_input(model, call, match):
    with pytest.raises(ValueError, match=match):
        call(model)


def test_propagation_detects_contradiction(model):
    col = [0] * 20
    col[0] = 1
    col[1] = 1  # neighbour of the pole with the same colour
    with pytest.raises(ValueError, match="^face carries a colour twice$"):
        chroma._propagate(model, col)


def test_propagation_raises_on_empty_vertex_or_stall(model, colourings):
    # a neighbour of vertex 0 takes vertex 0's colour, so vertex 0 has none left
    col = list(colourings[0])
    col[model.adjacency[0][0]] = col[0]
    col[0] = 0
    with pytest.raises(ValueError, match="no colour left for vertex 0"):
        chroma._propagate(model, col)
    # with nothing coloured, nothing is forced
    with pytest.raises(ValueError, match="propagation stalled"):
        chroma._propagate(model, [0] * 20)


def test_propagation_restores_any_one_blanked_vertex(model, colourings):
    for c in colourings:
        for v in range(20):
            col = list(c)
            col[v] = 0
            chroma._propagate(model, col)
            assert tuple(col) == c


@settings(max_examples=200, deadline=None)
@given(
    i=st.integers(0, 239),
    blanked=st.sets(st.integers(0, 19)),
    changes=st.dictionaries(st.integers(0, 19), st.integers(1, 5), max_size=3),
)
def test_propagation_returns_only_a_rainbow_colouring(model, colourings, i, blanked, changes):
    # `frame_completions` returns whatever `_propagate` completes, unread
    col = list(colourings[i])
    for v in blanked:
        col[v] = 0
    for v, x in changes.items():
        col[v] = x
    try:
        chroma._propagate(model, col)
    except ValueError:
        return
    assert 0 not in col and is_valid(model, col)


def test_seeds_are_frame_completions(model):
    seed_a, seed_b = seed_colourings(model)
    assert set(frame_completions(model, (1, 2, 3, 4))) == {seed_a, seed_b}
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
    assert type(g * h) is ColourSymmetry
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


_BAD_ANTIPODE = "the model's antipode does not map faces onto faces"
_NOT_20_IDS = "; the antipode must be 20 vertex ids$"


@pytest.mark.parametrize("edit,refused", [
    (lambda a: a[:19], r"^antipode\[19\] is missing"),
    (lambda a: a[1:2] + a[1:], None),
    (lambda a: (20,) + a[1:], r"^antipode\[0\] is 20"),
], ids=["short", "entry-0-is-entry-1", "entry-0-out-of-range"])
def test_act_rejects_a_malformed_antipode(model, colourings, edit, refused):
    # an antipode that is not 20 vertex ids is refused where the model is made
    if refused:
        with pytest.raises(ValueError, match=refused + _NOT_20_IDS):
            model._replace(antipode=edit(model.antipode))
        return
    mutant = model._replace(antipode=edit(model.antipode))
    with pytest.raises(ValueError, match=f"^{_BAD_ANTIPODE}$"):
        act(COLOUR_SWAP, colourings[0], mutant)
    # a relabelling reads no antipode
    assert act(COLOUR_IDENTITY, colourings[0], mutant) == colourings[0]


def test_act_after_a_single_antipode_edit_raises_or_is_rainbow(model, colourings):
    # every swap of two antipode entries and every entry made a copy of
    # another leaves 20 vertex ids, which the model takes: the colour swap
    # then names the fault, or its image is rainbow on the mutant. The
    # random gate below reads the other fields and the other readers.
    c = tuple(colourings[0])
    antipodes = {_edit_entries(model.antipode, edit, v, w, None)
                 for edit in ("swap", "duplicate") for v in range(20) for w in range(20)}
    assert len(antipodes) == 1 + 190 + 380
    for antipode in antipodes:
        mutant = model._replace(antipode=antipode)
        try:
            image = act(COLOUR_SWAP, c, mutant)
        except ValueError as exc:
            assert str(exc) == _BAD_ANTIPODE, antipode
        else:
            assert is_valid(mutant, image), antipode


def _edit_entries(rows, edit, v, w, value):
    """rows with one edit at entry v (mod its length): swapped with entry w,
    dropped, made a copy of entry w, or replaced by value; or, for a fill,
    every entry made a copy of entry w."""
    rows = list(rows)
    v, w = v % len(rows), w % len(rows)
    if edit == "swap":
        rows[v], rows[w] = rows[w], rows[v]
    elif edit == "drop":
        del rows[v]
    elif edit == "duplicate":
        rows[v] = rows[w]
    elif edit == "fill":
        rows = [rows[w]] * len(rows)
    else:
        rows[v] = value
    return tuple(rows)


# the public entries that read a model, each called with the model, the
# enumerated colourings, one colouring, a colour symmetry and a vertex id
_MODEL_READERS = (
    lambda m, cs, c, g, v: act(g, c, m),
    lambda m, cs, c, g, v: stabilizer(c, _G, m),
    lambda m, cs, c, g, v: orbit_partition(cs, named_subgroup("C2"), m),
    lambda m, cs, c, g, v: antipodal_rule_holds(m, c),
    lambda m, cs, c, g, v: is_valid(m, c),
    lambda m, cs, c, g, v: frame_completions(m, c[:4]),
    lambda m, cs, c, g, v: seed_colourings(m),
    lambda m, cs, c, g, v: zigzag_trace(m, c, v, LEFT),
    lambda m, cs, c, g, v: working_handedness(m, c),
    lambda m, cs, c, g, v: parity_class(m, c),
    lambda m, cs, c, g, v: chroma.colouring_to_off(m, c),
    lambda m, cs, c, g, v: polytope.distance_spectrum(m),
    lambda m, cs, c, g, v: (polytope.model_to_off(m), polytope.model_to_json(m)),
    lambda m, cs, c, g, v: symmetry.full_group(m),
    lambda m, cs, c, g, v: symmetry.spatial_determinant(m, tuple(range(20))),
    lambda m, cs, c, g, v: compound_mod.classify_colouring(m, c),
    lambda m, cs, c, g, v: compound_mod.spread_subsets(m),
    lambda m, cs, c, g, v: [compound_mod.compound_to_off(m, k) for k in compound_mod.compounds(m)],
)
# the start of the message that refuses a model: the field, its first bad
# index path, and the field's rule
_REFUSED = r"^(\w+)(\[\d+\])* is .+; the \1 must be "


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(polytope.PolytopeModel._fields),
       edit=st.sampled_from(["swap", "drop", "duplicate", "replace", "fill"]),
       inner=st.booleans(), v=st.integers(0, 19), w=st.integers(0, 19),
       value=st.sampled_from([20, -1, -20, 99, True, 7.0, None, "3", (0, 1), [0, 1]]),
       i=st.integers(0, 239), g=st.sampled_from(_G))
# with the antipodes of 0 and 5 swapped, the colour swap's image is no
# rainbow: only act's check of that image refuses it
@example(field="antipode", edit="swap", inner=False, v=0, w=5, value=None, i=0, g=COLOUR_SWAP)
# every squared distance the edge's: the spectrum has no third-smallest distance
@example(field="squared_distances", edit="fill", inner=True, v=0, w=1, value=None, i=0,
         g=COLOUR_SWAP)
# a dropped face leaves face ids past the end of `faces` in `vertex_faces`
@example(field="faces", edit="drop", inner=False, v=11, w=0, value=None, i=0, g=COLOUR_SWAP)
# vertex 13 takes vertex 11's faces, and the search finds no colouring
@example(field="vertex_faces", edit="duplicate", inner=False, v=13, w=11, value=None, i=0,
         g=COLOUR_SWAP)
# ring 1 loses vertex 0: the turn maps and the zigzags from 0 -> 1 name it
@example(field="adjacency", edit="replace", inner=True, v=1, w=0, value=5, i=0, g=COLOUR_SWAP)
# vertex 0 at vertex 1's position: the turn at the end of 0 -> 1 has a zero
# determinant
@example(field="exact_positions", edit="duplicate", inner=False, v=0, w=1, value=None, i=0,
         g=COLOUR_SWAP)
# compound B's tetrahedron at 0 also in compound A: the compounds hold 9
@example(field="compounds", edit="replace", inner=True, v=0, w=4, value=(0, 11, 13, 15), i=0,
         g=COLOUR_SWAP)
def test_a_single_field_edit_is_refused_or_read_without_a_shape_error(
        model, colourings, field, edit, inner, v, w, value, i, g):
    # an edit of one field, or of one entry of it: the model refuses it where
    # it is made, or every reader measures it or raises a ValueError that
    # names what broke, never a raw IndexError, TypeError, KeyError or
    # AttributeError, nor tuple.index's own ValueError
    rows = getattr(model, field)
    entry = rows[v % len(rows)]
    if inner and type(entry) is tuple and edit == "fill":
        # every entry of every entry made entry w of entry v
        rows = tuple((entry[w % len(entry)],) * len(row) for row in rows)
    elif inner and type(entry) is tuple:  # the edit is made at entry w of entry v
        rows = _edit_entries(rows, "replace", v, v, _edit_entries(entry, edit, w, v, value))
    else:
        rows = _edit_entries(rows, edit, v, w, value)
    try:
        mutant = model._replace(**{field: rows})
    except ValueError as exc:
        assert re.match(_REFUSED, str(exc)), str(exc)
        return
    checks = verify.run_checks(mutant)
    assert len(checks) == 61
    assert [ch.detail for ch in checks if not ch.ok and (ch.detail.startswith(
        ("IndexError", "TypeError", "KeyError", "AttributeError"))
        or "tuple.index(" in ch.detail)] == []
    # act checks the colouring on the mutant: the image is rainbow there, or
    # the error names the fault
    try:
        image = act(g, colourings[i], mutant)
    except ValueError as exc:
        assert str(exc) in ("colouring is not face-rainbow", _BAD_ANTIPODE), str(exc)
    else:
        assert is_valid(mutant, image)
    for read in _MODEL_READERS:
        try:
            read(mutant, colourings, colourings[i], g, v)
        except ValueError as exc:
            assert "tuple.index(" not in str(exc), str(exc)


@pytest.mark.parametrize("bad", [None, (1, 2, 3), (0,) * 20], ids=["None", "short", "zeros"])
@pytest.mark.parametrize("call", [
    lambda model, x: working_handedness(model, x),
    lambda model, x: colour_classes(x),
    lambda model, x: enumeration_to_json([x]),
    lambda model, x: tetra_action(x, compound_mod.compounds(model)[0].tetrahedra),
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


def _fixing_by_brute_force(c, H, model):
    """The stabilizer by definition: every element of H applied to c."""
    return sorted(g for g in set(H) if act(g, c, model) == c)


def test_stabilizer_matches_brute_force(model, colourings):
    subgroups = [named_subgroup(name) for name in NAMED_SUBGROUPS]
    for c in colourings:
        for H in subgroups:
            assert stabilizer(c, H, model) == _fixing_by_brute_force(c, H, model)


def test_stabilizer_takes_any_iterable_of_symmetries(model, colourings):
    G = colour_group()
    odd = [g for g in _G if symmetry.perm_parity(tuple(x - 1 for x in g.perm)) == -1]
    forms = {
        "list": lambda H: list(H),
        "generator": lambda H: (g for g in H),
        "duplicates": lambda H: list(H) * 2,
        "non-subgroup": lambda H: [COLOUR_IDENTITY] + [g for g in H if g.sign == -1],
        "no identity": lambda H: [g for g in H if g != COLOUR_IDENTITY],
        "empty": lambda H: iter(()),
    }
    for c in (colourings[0], colourings[117], tuple(colourings[239])):
        for name, form in forms.items():
            want = _fixing_by_brute_force(c, form(G), model)
            assert stabilizer(c, form(G), model) == want, name
        assert stabilizer(c, odd, model) == []
        assert stabilizer(c, [COLOUR_SWAP], model) == []
        assert stabilizer(c, [COLOUR_IDENTITY, COLOUR_IDENTITY], model) == [COLOUR_IDENTITY]


@settings(max_examples=60, deadline=None)
@given(H=st.sets(st.sampled_from(_G), max_size=12), identity=st.booleans(), i=st.integers(0, 239))
def test_stabilizer_of_random_subsets(model, colourings, H, identity, i):
    c = colourings[i]
    if identity:
        H.add(COLOUR_IDENTITY)
    assert stabilizer(c, H, model) == _fixing_by_brute_force(c, H, model)
    assert stabilizer(c, sorted(H), model) == _fixing_by_brute_force(c, H, model)


def _mutant_rainbow(model, colourings):
    """A model whose faces and antipode have entries 0 and 1 exchanged, and
    an image `act` makes on the canonical model that is not rainbow on the
    mutant.  The mutant's antipode still maps its faces onto the canonical
    ones."""
    exchange = {0: 1, 1: 0}
    anti = list(model.antipode)
    anti[0], anti[1] = anti[1], anti[0]
    mutant = model._replace(faces=tuple(tuple(exchange.get(v, v) for v in f) for f in model.faces),
                            antipode=tuple(anti))
    image = act(COLOUR_SWAP, colourings[0], model)
    assert is_valid(model, image) and not is_valid(mutant, image)
    return mutant, image


# the public entries that need a face-rainbow colouring, each called with a
# model and a colouring
_RAINBOW_READERS = (
    lambda m, c: act(COLOUR_IDENTITY, c, m),
    lambda m, c: orbit_partition([c], named_subgroup("trivial"), m),
    lambda m, c: stabilizer(c, colour_group(), m),
    lambda m, c: zigzag_trace(m, c, 0, LEFT),
    lambda m, c: working_handedness(m, c),
    lambda m, c: compound_mod.classify_colouring(m, c),
    lambda m, c: face_parity_signature(m, c),
    lambda m, c: parity_class(m, c),
)


def test_a_colouring_is_judged_on_the_model_it_is_used_with(model, colourings):
    # an image made on the canonical model, the equal tuple and the colouring
    # it was made from are checked again on the mutant, where they are not
    # rainbow; each first reads rainbow on the canonical model, so no answer
    # kept there is trusted
    mutant, image = _mutant_rainbow(model, colourings)
    c = colourings[0]
    for x in (image, tuple(image), c):
        for read in _RAINBOW_READERS:
            read(model, x)
            with pytest.raises(ValueError, match="^colouring is not face-rainbow$"):
                read(mutant, x)
    # c with colours 0 and 1 exchanged is rainbow on the mutant, and read there
    G = colour_group()
    x = (c[1], c[0], *c[2:])
    assert stabilizer(x, G, mutant) == stabilizer(c, G, model) == [COLOUR_IDENTITY]


def test_act_raises_where_the_antipode_breaks_faces(model, colourings):
    # the mutant's antipode does not map its faces onto faces, so `act`
    # raises there on a sign -1 image that is not rainbow; interleaved with
    # the canonical model, where every image is rainbow
    mutant, image = _mutant_rainbow(model, colourings)
    c = colourings[0]
    inputs = [(model, c), (mutant, c), (mutant, image), (mutant, (c[1], c[0], *c[2:]))]
    rejected = raised = 0
    for g in sorted(colour_group()):
        perm, sign = g
        for m, x in inputs:
            want = tuple(perm[x[m.antipode[v] if sign == -1 else v] - 1] for v in range(20))
            if not is_valid(m, x):  # c and its image are judged on the mutant
                rejected += 1
                assert _outcome(act, g, x, m) == (ValueError, "colouring is not face-rainbow")
            elif sign == -1 and not is_valid(m, want):
                raised += 1
                assert _outcome(act, g, x, m) == (
                    ValueError, "the model's antipode does not map faces onto faces")
            else:
                assert _outcome(act, g, x, m) == ("returned", want)
    assert raised and rejected == 2 * 240


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


def test_library_subgroups_are_trusted_and_others_checked(model, colourings, monkeypatch):
    checked = []
    check = symmetry._check_symmetries

    def counted(elements):
        elems = check(elements)
        checked.append(len(elems))
        return elems

    monkeypatch.setattr(symmetry, "_check_symmetries", counted)
    monkeypatch.setattr(chroma, "_check_symmetries", counted)
    c = colourings[7]
    for name in NAMED_SUBGROUPS:
        H = named_subgroup(name)
        assert type(H) is Subgroup
        assert stabilizer(c, H, model) == [COLOUR_IDENTITY]
        assert len(orbit_partition(colourings, H, model)) * len(H) == 240
    assert checked == []
    G = colour_group()
    for form in (set(G), frozenset(G), list(G)):
        assert stabilizer(c, form, model) == [COLOUR_IDENTITY]
        assert len(orbit_partition(colourings, form, model)) == 1
    assert checked == [240] * 6


def test_orbit_partition_rejects_non_subgroup(model, colourings):
    not_closed = {COLOUR_IDENTITY, ColourSymmetry((2, 3, 1, 4, 5), 1)}
    with pytest.raises(ValueError):
        orbit_partition(colourings, not_closed, model)
    no_identity = {COLOUR_SWAP}
    with pytest.raises(ValueError):
        orbit_partition(colourings, no_identity, model)


def test_orbit_partition_rejects_duplicate_colourings(model, colourings):
    c = colourings[0]
    with pytest.raises(ValueError, match="^duplicate colourings in input$"):
        orbit_partition([c, c], named_subgroup("trivial"), model)


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

def test_each_ring_runs_counterclockwise(model):
    # float rules independent of the exact determinants that build the
    # rings: seen from outside, each neighbour of w turns counterclockwise
    # into the next, and at the end of u -> w "left", the neighbour after u,
    # has a positive component along (incoming direction x outward normal
    # at w), "right", the one before u, a negative one
    pos = np.array(positions(model))
    for w, ring in enumerate(model.adjacency):
        assert len(ring) == 3 and ring[0] == min(ring)
        for i, u in enumerate(ring):
            assert float(np.cross(pos[u] - pos[w], pos[ring[i - 2]] - pos[w]) @ pos[w]) > 1e-6
            ref = np.cross(pos[w] - pos[u], pos[w])
            assert float((pos[ring[i - 2]] - pos[w]) @ ref) > 1e-6
            assert float((pos[ring[i - 1]] - pos[w]) @ ref) < -1e-6


def test_zigzag_walk_closes_after_twelve_edges(model):
    for v in (0, 7, 13):
        for first in model.adjacency[v]:
            for h in (LEFT, RIGHT):
                walk = zigzag_walk(model, v, first, h)
                assert len(walk) == 13
                assert walk[0] == walk[-1] == v
                assert walk[1] == first


@pytest.mark.parametrize("h", [LEFT, RIGHT])
@pytest.mark.parametrize("at", [0, 5, 11])
def test_zigzag_walk_raises_on_a_swapped_turn_pair(model, h, at):
    # the ring at the end of one edge of the walk runs clockwise, so the walk
    # turns the wrong way there and its 12 turns end off the first edge: it
    # raises instead of returning another length
    w = zigzag_walk(model, 0, 1, h)[at + 1]
    broken = model._replace(adjacency=tuple(
        ring[::-1] if v == w else ring for v, ring in enumerate(model.adjacency)))
    with pytest.raises(ValueError, match="failed to close after 12 edges"):
        zigzag_walk(broken, 0, 1, h)


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


def test_working_handedness_checks_the_colouring_once(model, colourings, census):
    for c in colourings[:6]:
        # every call checks the colouring; the repeat finds its face readings kept
        first, repeat = census(lambda: working_handedness(model, c),
                               lambda: working_handedness(model, c))
        assert [first["chroma.check_colouring"], repeat["chroma.check_colouring"]] == [1, 1]
        assert [first["chroma._signature"], repeat["chroma._signature"]] == [1, 0]


def test_zigzag_rejects_bad_handedness(model, colourings):
    with pytest.raises(ValueError):
        zigzag_trace(model, colourings[0], 0, "widdershins")


def test_zigzag_walk_rejects_a_non_neighbour(model):
    with pytest.raises(ValueError, match="^19 is not a neighbour of 0$"):
        zigzag_walk(model, 0, 19, LEFT)


@pytest.mark.parametrize("bad", [20, -1, True])
def test_id_entry_points_reject_bad_ids(model, colourings, bad):
    calls = (
        lambda: zigzag_walk(model, bad, 0, LEFT),
        lambda: zigzag_walk(model, 0, bad, LEFT),
        lambda: zigzag_trace(model, colourings[0], bad, LEFT),
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
    with pytest.raises(ValueError, match=r"^not a colour cycle: \(1, 2, 3, 4, 4\)$"):
        cyclic_order_parity((1, 2, 3, 4, 4))


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


def test_opposite_faces_inverse_orders(model, colourings, opposite_faces):
    for c in colourings[:30]:
        sig = face_parity_signature(model, c)
        for fid, order, _ in sig:
            opp = opposite_faces[fid]
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


def test_antipodal_rule_names_a_malformed_model(model, colourings):
    adjacency = list(model.adjacency)
    adjacency[3] = adjacency[3][:2]
    with pytest.raises(ValueError, match="^vertex 3 has 2 neighbours, expected 3$"):
        antipodal_rule_holds(model._replace(adjacency=tuple(adjacency)), colourings[0])


def _antipodal_rule_by_definition(model, c):
    """The rule as first written: the antipode's colour is the one colour
    left over by the vertex and its three neighbours."""
    for v in range(20):
        local = {c[v]} | {c[u] for u in model.adjacency[v]}
        if len(local) != 4:
            return False
        (missing,) = set(COLOURS) - local
        if c[model.antipode[v]] != missing:
            return False
    return True


def test_antipodal_rule_matches_its_definition(model, colourings):
    assert all(antipodal_rule_holds(model, c) == _antipodal_rule_by_definition(model, c) is True
               for c in colourings)


@settings(max_examples=300, deadline=None)
@given(i=st.integers(0, 239), changes=st.dictionaries(st.integers(0, 19), st.integers(1, 5), max_size=4))
def test_antipodal_rule_matches_its_definition_on_mutants(model, colourings, i, changes):
    c = list(colourings[i])
    for v, x in changes.items():
        c[v] = x
    assert antipodal_rule_holds(model, c) == _antipodal_rule_by_definition(model, c)


# ---------------------------------------------------------------------------
# the loop forms the bit and set checks replaced, kept as their references

def _check_colouring_by_loop(c):
    """`check_colouring` as a per-vertex loop."""
    try:
        c = tuple(c)
    except TypeError:
        raise ValueError(f"colouring must be a sequence of 20 colours, not {c!r}") from None
    if len(c) != 20:
        raise ValueError(f"colouring must assign 20 vertices, got {len(c)}")
    for v, x in enumerate(c):
        if type(x) is not int or x not in COLOURS:
            raise ValueError(f"vertex {v} has colour {x!r}, expected 1..5")
    return c


def _first_violated_face_by_sets(model, c):
    c = _check_colouring_by_loop(c)
    for fid, (a, b, d, e, f) in enumerate(model.faces):
        if len({c[a], c[b], c[d], c[e], c[f]}) != 5:
            return fid
    return None


def _antipodal_rule_by_sets(model, c):
    c = _check_colouring_by_loop(c)
    return all(len({c[v], c[a], c[b], c[d], c[model.antipode[v]]}) == 5
               for v, (a, b, d) in enumerate(model.adjacency))


def _outcome(f, *args):
    """What f returns, or the type and message of what it raises."""
    try:
        return "returned", f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _compact_json(doc):
    return json.dumps(doc, separators=(",", ":")) + "\n"


class _IntColour(int):
    """Equal to a colour, but of another type than int: a colouring holding one
    is malformed."""


_BAD_ENTRIES = st.sampled_from([True, False, 1.0, _IntColour(3), [1], {2}, 0, 6, "1", None])


def _assert_checks_match_references(model, c):
    plain = _outcome(_check_colouring_by_loop, c)
    assert _outcome(check_colouring, c) == plain
    assert _outcome(first_violated_face, model, c) == _outcome(_first_violated_face_by_sets, model, c)
    assert _outcome(antipodal_rule_holds, model, c) == _outcome(_antipodal_rule_by_sets, model, c)
    if plain[0] == "returned":
        assert colouring_to_json(c) == _compact_json({"labelling": LABELLING, "colours": list(c)})


@settings(max_examples=400, deadline=None)
@given(
    base=st.integers(0, 239) | st.lists(st.integers(1, 5), min_size=20, max_size=20),
    entries=st.dictionaries(st.integers(0, 19), _BAD_ENTRIES, max_size=3),
    length=st.sampled_from([19, 20, 20, 20, 21]),
)
def test_colour_checks_match_their_loop_references(model, colourings, base, entries, length):
    c = list(colourings[base] if type(base) is int else base)
    for v, x in entries.items():
        c[v] = x
    c = (c + c)[:length]
    _assert_checks_match_references(model, tuple(c))
    _assert_checks_match_references(model, c)


def test_colour_checks_match_their_loop_references_on_every_colouring(model, colourings):
    for c in colourings:
        _assert_checks_match_references(model, tuple(c))
        assert first_violated_face(model, c) is None and antipodal_rule_holds(model, c)


def test_a_colouring_that_is_not_rainbow_is_read_once(model, colourings, census):
    # the validity check reads the faces, and each classification finds the
    # reading kept, first violated face included, and raises without
    # reading again
    c = colourings[0]
    bad = (c[1], c[0], *c[2:])

    def classify_twice():
        for _ in range(2):
            with pytest.raises(ValueError, match="^colouring is not face-rainbow$"):
                compound_mod.classify_colouring(model, bad)

    validity, classifications = census(lambda: is_valid(model, bad), classify_twice)
    assert [validity["chroma._signature"], classifications["chroma._signature"]] == [1, 0]
    assert first_violated_face(model, bad) == _first_violated_face_by_sets(model, bad) is not None


def _rainbow_by_bits(colours):
    """The colour-bit rule the one rainbow table replaced: five colours are
    rainbow iff their bits (bit x for colour x) OR to every colour's bit."""
    bits = 0
    for x in colours:
        bits |= 1 << x
    return bits == sum(1 << x for x in COLOURS)


def _first_violated_face_by_bits(model, c):
    return next((fid for fid, f in enumerate(model.faces)
                 if not _rainbow_by_bits([c[v] for v in f])), None)


def _antipodal_rule_by_bits(model, c):
    return all(_rainbow_by_bits([c[v], *(c[u] for u in adj), c[model.antipode[v]]])
               for v, adj in enumerate(model.adjacency))


def _act_by_bits(g, c, model):
    """`act` with its input and its sign -1 image checked by the bit rule."""
    if _first_violated_face_by_bits(model, c) is not None:
        return ValueError, "colouring is not face-rainbow"
    perm, sign = g
    source = c if sign == 1 else [c[model.antipode[v]] for v in range(20)]
    image = tuple(perm[x - 1] for x in source)
    if _first_violated_face_by_bits(model, image) is not None:
        return ValueError, "the model's antipode does not map faces onto faces"
    return "returned", image


def _swap_in(model, field, i, j, k):
    """The model with one swap in a field: entries i and j exchanged, or,
    for k >= 0, vertex k of entry i exchanged with vertex k of entry j."""
    rows = list(getattr(model, field))
    if k < 0 or field == "antipode":
        rows[i], rows[j] = rows[j], rows[i]
    else:
        a, b = list(rows[i]), list(rows[j])
        a[k], b[k] = b[k], a[k]
        rows[i], rows[j] = tuple(a), tuple(b)
    return model._replace(**{field: tuple(rows)})


@settings(max_examples=300, deadline=None)
@given(
    base=st.integers(0, 239) | st.lists(st.integers(1, 5), min_size=20, max_size=20),
    field=st.sampled_from([None, "faces", "adjacency", "antipode"]),
    i=st.integers(0, 19), j=st.integers(0, 19), k=st.integers(-1, 2),
    g=st.sampled_from(_G),
)
def test_rainbow_checks_match_the_colour_bit_rule(model, colourings, base, field, i, j, k, g):
    c = tuple(colourings[base] if type(base) is int else base)
    if field is not None:
        n = len(getattr(model, field))
        model = _swap_in(model, field, i % n, j % n, k)
    face = _first_violated_face_by_bits(model, c)
    assert first_violated_face(model, c) == face
    assert is_valid(model, c) == (face is None)
    assert antipodal_rule_holds(model, c) == _antipodal_rule_by_bits(model, c)
    assert _outcome(act, g, c, model) == _act_by_bits(g, c, model)


def test_documents_are_the_compact_json_dumps(colourings):
    docs = [{"labelling": LABELLING, "colours": list(c)} for c in colourings]
    for c, doc in zip(colourings, docs):
        assert colouring_to_json(c) == colouring_to_json(tuple(c)) == _compact_json(doc)
    assert enumeration_to_json(colourings) == _compact_json(docs)
    assert enumeration_to_json(map(tuple, colourings[:3])) == _compact_json(docs[:3])
    assert enumeration_to_json([]) == _compact_json([])


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
