import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pentachrome
from pentachrome import chroma, cli, symmetry, verify
from pentachrome import compound as compound_mod
from pentachrome.cli import main, parse_subgroup_spec
from pentachrome.polytope import ZPhi
from pentachrome.symmetry import COLOUR_IDENTITY, COLOUR_SWAP, NAMED_SUBGROUPS


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# subgroup spec parsing

def test_parse_named_specs():
    assert len(parse_subgroup_spec("trivial")) == 1
    assert len(parse_subgroup_spec("C2")) == 2
    assert len(parse_subgroup_spec("A5")) == 60
    assert len(parse_subgroup_spec("S5")) == 120
    assert len(parse_subgroup_spec("A5xC2")) == 120
    assert len(parse_subgroup_spec("S5xC2")) == 240


def test_parse_generator_specs():
    assert parse_subgroup_spec("id,+1") == frozenset({COLOUR_IDENTITY})
    assert parse_subgroup_spec("id,-1") == frozenset({COLOUR_IDENTITY, COLOUR_SWAP})
    assert len(parse_subgroup_spec("(1 2),+1; (1 2 3 4 5),+1")) == 120
    assert len(parse_subgroup_spec("(1,2,3),+1")) == 3
    assert len(parse_subgroup_spec("(1 2)(3 4),+1")) == 2


def test_parse_rejects_garbage():
    for bad in ("garbage(((", "(1 2)", "(1 6),+1", "(1 1),+1", "(1 2),+2", "(1 2)(2 3),+1"):
        with pytest.raises(ValueError):
            parse_subgroup_spec(bad)
    for bad in (";", "(1 2),+1;;id,-1"):
        with pytest.raises(ValueError, match="^empty generator entry$"):
            parse_subgroup_spec(bad)


def test_malformed_spec_is_rejected_in_linear_time():
    # the cycle pattern once backtracked exponentially in the number of
    # cycles before a malformed tail: about 8 s for 24 cycles
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_subgroup_spec("(1) " * 24 + "x,+1")
    assert time.perf_counter() - start < 0.5


# some cycles repeat an entry or leave 1..5, so some specs are malformed
_CYCLE = st.one_of(
    st.lists(st.integers(1, 5), min_size=2, max_size=5, unique=True),
    st.lists(st.integers(0, 6), min_size=1, max_size=3),
).map(lambda xs: "(" + " ".join(map(str, xs)) + ")")
_GENERATOR = st.builds(
    lambda cycles, sign: f"{''.join(cycles) or 'id'},{sign}",
    st.lists(_CYCLE, max_size=2),
    st.sampled_from(["+1", "-1", "+2"]),
)
_SPEC = st.one_of(
    st.sampled_from(NAMED_SUBGROUPS),
    st.lists(_GENERATOR, min_size=1, max_size=3).map("; ".join),
)


@settings(max_examples=25, deadline=None)
@given(spec=_SPEC)
def test_parsed_spec_is_a_subgroup_or_rejected(model, colourings, spec):
    try:
        H = parse_subgroup_spec(spec)
    except ValueError:
        return
    orbits = chroma.orbit_partition(colourings, H, model)
    assert len(orbits) * len(H) == 240


# ---------------------------------------------------------------------------
# verify

def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "240" in out
    assert "orbits under A5 x {1}: 4" in out
    assert "inscribed tetrahedra: 10" in out
    assert "FAIL" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert all(c["ok"] for c in doc["checks"])
    # each check names its section, the six in report order, and its own time
    order = ["polytope", "symmetry", "colouring", "compound", "structure", "export"]
    sections = [c["section"] for c in doc["checks"]]
    assert set(sections) == set(order) and sections == sorted(sections, key=order.index)
    assert all(c["seconds"] >= 0 for c in doc["checks"])


def _run_checks_passing(model):
    checks = verify.run_checks(model)
    assert len(checks) == 61 and not [c.name for c in checks if not c.ok]


def test_verify_reads_each_made_colouring_once(model, census):
    # the first backtracking enumeration reads each colouring it makes
    # (`chroma._signature`, the one face reader); the second, the seed
    # validity check, the signatures and the antipodal images `act` makes in
    # the orbit of one colouring find the readings kept.  The propagation
    # replay shows its colourings rainbow by its own per-face check
    def replay():
        assert len(chroma.enumerate_by_propagation(model)) == 240

    verify_run, replayed = census(lambda: _run_checks_passing(model), replay)
    assert verify_run["chroma._signature"] == 240
    assert replayed["chroma._signature"] == 0


def _library_request(model, c):
    """The questions of one library request on c: validity of the colouring
    and of a mutant, the mutant's classification, one action, the
    classification, the parity signature, the handedness, a trace, the
    antipodal rule and a JSON round trip."""
    v = next(v for v in range(20) if c[v] != c[0])
    mutant = (c[v], *c[1:v], c[0], *c[v + 1:])
    assert chroma.is_valid(model, c) and not chroma.is_valid(model, mutant)
    with pytest.raises(ValueError, match="^colouring is not face-rainbow$"):
        compound_mod.classify_colouring(model, mutant)
    chroma.act(symmetry.ColourSymmetry((2, 3, 1, 5, 4), -1), c, model)
    compound_mod.classify_colouring(model, c)
    chroma.face_parity_signature(model, c)
    chroma.zigzag_trace(model, c, 5, chroma.working_handedness(model, c))
    assert chroma.antipodal_rule_holds(model, c)
    assert chroma.colouring_from_json(chroma.colouring_to_json(c)) == c


def test_a_library_request_on_a_plain_tuple_reads_its_colouring_once(model, colourings, census):
    # the validity of the colouring and of the mutant reads each once, and
    # the action reads its antipodal image; the mutant's classification and
    # every later question find the readings kept, so a warm request reads
    # nothing.  The signature's lookup is its own rainbow check
    c = tuple(colourings[37])
    cold, warm, signature = census(
        lambda: _library_request(model, c), lambda: _library_request(model, c),
        lambda: chroma.face_parity_signature(model, tuple(colourings[38])))
    assert [cold["chroma._signature"], warm["chroma._signature"],
            signature["chroma._signature"]] == [3, 0, 1]


def test_kept_non_rainbow_readings_do_not_push_out_the_rainbow_ones(model, colourings, census):
    # as in a stream of library requests, each on a rainbow colouring and a
    # new non-rainbow one (the base-5 digits of n, so vertices 5..19 all
    # colour 1): once the 240 are read, only the new ones are
    rng = random.Random(5)

    def all_valid():
        assert all(chroma.is_valid(model, c) for c in colourings)

    def stream():
        for n in range(3 * 240):
            assert chroma.is_valid(model, rng.choice(colourings))
            assert not chroma.is_valid(model, tuple(1 + n // 5 ** k % 5 for k in range(20)))

    counts = census(all_valid, stream, all_valid)
    assert [count["chroma._signature"] for count in counts] == [240, 3 * 240, 0]


def test_a_warm_library_request_takes_no_turns(model, colourings, census):
    # the checkpoint sets are facts of the rings: the handedness walks both
    # zigzags from vertex 0 and the trace one from vertex 5, 36 turns, once
    # for each value of the rings
    c = tuple(colourings[37])
    cold, warm = census(lambda: _library_request(model, c), lambda: _library_request(model, c))
    assert cold["polytope._turn"] == 36
    assert warm["polytope._turn"] == 0


def _outcome(f, *args):
    """What f returns, or the type and message of the ValueError it raises."""
    try:
        return "returned", f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def test_model_memos_keep_each_model_apart(model, colourings):
    # the memos are keyed on the values of the fields they read: calls
    # interleaved on three models each read their own model's facts, and a
    # cut ring raises on every call, as a fault is never kept
    c = colourings[37]
    models = [
        (model, tuple(c)),
        (_relabel(model, 0, 1), (c[1], c[0], *c[2:])),
        (model._replace(adjacency=model.adjacency[:19] + (model.adjacency[19][:2],)), tuple(c)),
    ]

    def fresh_trace(m, x, v, h):
        return frozenset(chroma.zigzag_walk(m, v, min(m.adjacency[v]), h)[::3])

    def fresh_hand(m, x):
        class0 = frozenset(u for u in range(20) if x[u] == x[0])
        (hand,) = [h for h in (chroma.LEFT, chroma.RIGHT) if fresh_trace(m, x, 0, h) == class0]
        return hand

    raised = 0
    for v in range(20):
        for h in (chroma.LEFT, chroma.RIGHT):
            for m, x in models:
                want = _outcome(fresh_trace, m, x, v, h)
                # twice in a row: a kept set reads the same, a fault raises again
                for _ in range(2):
                    assert _outcome(chroma.zigzag_trace, m, x, v, h) == want
                raised += want[0] is ValueError
    assert raised
    for m, x in models * 2:
        assert _outcome(chroma.working_handedness, m, x) == _outcome(fresh_hand, m, x)

    # the face readings are keyed on the faces and the colouring: on the
    # canonical and the relabelled model, interleaved, each colouring reads
    # as a fresh reading of that model's faces
    def fresh_signature(m, x):
        orders = [tuple(x[v] for v in face) for face in m.faces]
        if any(sorted(order) != [1, 2, 3, 4, 5] for order in orders):
            raise ValueError("colouring is not face-rainbow")
        return tuple((fid, chroma.canonical_cycle(order), chroma.cyclic_order_parity(order))
                     for fid, order in enumerate(orders))

    for m, _ in models[:2] * 2:
        for _, x in models[:2]:
            want = _outcome(fresh_signature, m, x)
            assert _outcome(chroma.face_parity_signature, m, x) == want
            rainbow = want if want[0] is ValueError else ("returned", x)
            assert _outcome(chroma.check_rainbow, m, x) == rainbow
    # they are read only after the type and range checks: once c is kept, a
    # colour True or 1.0 at its vertex 0 compares and hashes as the kept 1,
    # yet raises as it did before
    assert c[0] == 1
    for read in (chroma.check_rainbow, chroma.face_parity_signature, compound_mod.classify_colouring):
        read(model, tuple(c))
        for bad in ((True, *c[1:]), (1.0, *c[1:])):
            assert bad == c and hash(bad) == hash(c)
            assert _outcome(read, model, bad) == (ValueError, f"vertex 0 has colour {bad[0]!r}, "
                                                              "expected 1..5")


def test_every_memo_is_a_bounded_lru_cache(memos):
    # the memos the census empties: each has the `cache_parameters` of a
    # `functools.lru_cache`, with an int bound, so a `functools.cache` fails
    assert memos
    for memo in memos:
        assert type(memo.cache_parameters()["maxsize"]) is int, memo.__qualname__


def test_classify_reads_the_labels_of_its_own_model(model, colourings):
    # a model with its two compounds swapped swaps every label, interleaved
    # with the canonical model; where both compounds hold one set of
    # tetrahedra, A wins
    swapped = model._replace(compounds=model.compounds[::-1])
    a = model.compounds[0]
    twins = model._replace(compounds=(a, a[::-1]))
    other = {"A": "B", "B": "A"}
    for c in colourings[::7]:
        comp, classes = compound_mod.classify_colouring(model, c)
        comp_s, classes_s = compound_mod.classify_colouring(swapped, c)
        assert comp_s == (other[comp.label], comp.tetrahedra) and classes_s == classes
        if comp.label == "A":
            assert compound_mod.classify_colouring(twins, c) == (("A", a), classes)
        else:
            with pytest.raises(ValueError, match="^colour classes do not form a compound$"):
                compound_mod.classify_colouring(twins, c)
    # each call returns a dict of its own: a caller's edit is not kept
    comp, classes = compound_mod.classify_colouring(model, colourings[0])
    want = dict(classes)
    classes.clear()
    assert compound_mod.classify_colouring(model, colourings[0]) == (comp, want)


def test_verify_closes_only_the_rotations_and_multiplies_no_colour_symmetries(model, census):
    # the vertex symmetries are read off the rings, and the colour
    # subgroups come from their builders already checked, so nothing is
    # closed: no orbit partition re-closes a subgroup.  `__rmul__` is
    # `__mul__`, so one count holds both
    (calls,) = census(lambda: _run_checks_passing(model))
    assert calls["symmetry._closure"] == 0
    assert calls["symmetry.__mul__"] == 0


def test_verify_derives_each_symmetry_once(model, census):
    # the 60 rotations and the one side-swapping map that the full group
    # multiplies them by: the full group is built on the rotations already
    # derived, where deriving them again made 121 turn maps
    (calls,) = census(lambda: _run_checks_passing(model))
    assert calls["symmetry._turn_map"] == 61


def _wrap_classify(monkeypatch, fail):
    """Make the package's `classify_colouring` raise ValueError on the
    colouring `fail`."""
    classify = compound_mod.classify_colouring

    def wrapped(model, c):
        if c == fail:
            raise ValueError("colour classes do not form a compound")
        return classify(model, c)

    monkeypatch.setattr(compound_mod, "classify_colouring", wrapped)


def test_verify_classifies_each_colouring_once(model, census):
    # the 240 enumerated colourings and the 2 seeds; 482 when the structure
    # section classified all 240 a second time
    (calls,) = census(lambda: _run_checks_passing(model))
    assert calls["compound.classify_colouring"] == 242


def test_verify_reports_a_colouring_it_cannot_classify(model, colourings, monkeypatch):
    fail = colourings[100]
    assert fail not in chroma.seed_colourings(model)
    _wrap_classify(monkeypatch, fail)
    checks = verify.run_checks(model)
    assert len(checks) == 61
    # exactly the checks that read the compound labels
    failed = {c.name: c.detail for c in checks if not c.ok}
    assert failed.pop("compound and parity independent: 4 combinations of 60").endswith(
        "(None, -1): 1}")
    assert failed == {
        "colour classes of all 240 form one compound": "classified 239",
        "120 colourings per compound": "A: 119, B: 120",
        "fixed pairing: compound A works left, compound B works right":
            "[('A', 'left'), ('B', 'right'), (None, 'left')]",
    }


def test_verify_reports_every_check_when_p1_fails(model, monkeypatch):
    # no zigzag reproduces a colour class, so no colouring has a handedness
    monkeypatch.setattr(chroma, "zigzag_trace", lambda *args: frozenset())
    checks = verify.run_checks(model)
    assert len(checks) == 61
    assert {c.name for c in checks if not c.ok} == {
        "P1: exactly one working handedness per vertex, constant per colouring",
        "P1: handedness flips under the antipodal colour swap",
        "fixed pairing: compound A works left, compound B works right",
    }


def _patch_propagation(monkeypatch, mutate):
    """Make the package's `enumerate_by_propagation` return its result
    passed through `mutate`."""
    enumerate_by_propagation = chroma.enumerate_by_propagation
    monkeypatch.setattr(
        chroma, "enumerate_by_propagation", lambda model: mutate(enumerate_by_propagation(model))
    )


def test_verify_fails_a_propagation_enumerator_that_drops_a_colouring(model, monkeypatch):
    _patch_propagation(monkeypatch, lambda out: out[:100] + out[101:])
    checks = verify.run_checks(model)
    assert len(checks) == 61
    assert {c.name: c.detail for c in checks if not c.ok} == {
        "completions per colour frame": "1/2 each over 120 frames",
        "propagation enumerator matches backtracking": "239 colourings",
    }


def test_verify_fails_a_propagation_enumerator_that_duplicates_a_colouring(model, monkeypatch):
    # the count stays 240, but out[99] and out[100] lie in different frames:
    # one frame now has 3 completions and another 1
    _patch_propagation(monkeypatch, lambda out: out[:100] + out[99:100] + out[101:])
    checks = verify.run_checks(model)
    assert len(checks) == 61
    assert {c.name: c.detail for c in checks if not c.ok} == {
        "completions per colour frame": "1/2/3 each over 120 frames",
        "propagation enumerator matches backtracking": "240 colourings",
    }


def _swap(seq, i, j):
    out = list(seq)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _place(model, v, p):
    """model with vertex v at the exact position p."""
    exact = model.exact_positions
    return model._replace(exact_positions=(*exact[:v], p, *exact[v + 1:]))


def _reverse_rings(model, *vertices):
    """model with the rings of ``vertices`` run clockwise: each turn at the
    end of an edge into one of them swaps sides."""
    return model._replace(adjacency=tuple(
        ring[::-1] if w in vertices else ring for w, ring in enumerate(model.adjacency)))


def _relabel(model, u, w):
    """model with vertices u and w exchanging their ids in every field."""
    s = lambda v: w if v == u else u if v == w else v
    return model._replace(
        exact_positions=_swap(model.exact_positions, u, w),
        adjacency=_swap(tuple(tuple(map(s, ring)) for ring in model.adjacency), u, w),
        faces=tuple(tuple(map(s, f)) for f in model.faces),
        antipode=_swap(tuple(map(s, model.antipode)), u, w),
        vertex_faces=_swap(model.vertex_faces, u, w),
        dual_faces=tuple(map(s, model.dual_faces)),
        compounds=tuple(tuple(tuple(sorted(map(s, t))) for t in c) for c in model.compounds),
        squared_distances=_swap(tuple(_swap(row, u, w) for row in model.squared_distances),
                                u, w))


def _swap_distances_0_1_and_0_19(model):
    d = [list(row) for row in model.squared_distances]
    d[0][1], d[0][19] = d[0][19], d[0][1]
    d[1][0], d[19][0] = d[19][0], d[1][0]
    return model._replace(squared_distances=tuple(tuple(row) for row in d))


def _reports(mutate, failed, name):
    return pytest.param(mutate, failed, id=name)


# the checks that read the rotation or the full group
_READ_GROUPS = (
    "rotation group order",
    "full group order",
    "rotation element orders {1,2,3,5}",
    "rotations have determinant +1",
    "full group = rotations + inversion coset, disjoint",
    "rotations transitive on vertices, edges, faces",
    "stabilizer orders vertex/face/edge = 3/5/2",
    "all symmetries commute with the antipode",
    "tetrahedra action: injective image = all 60 even permutations",
    "every rotation stabilizes each compound",
    "every orientation-reversing symmetry exchanges the compounds",
)
# the checks that read the working handednesses, traced by zigzag walks
_READ_HANDS = (
    "P1: exactly one working handedness per vertex, constant per colouring",
    "P1: handedness flips under the antipodal colour swap",
    "fixed pairing: compound A works left, compound B works right",
)
# the checks that read the backtracking enumeration
_READ_COLOURINGS = (
    "valid colourings",
    "backtracking enumeration under 1 s",
    "propagation enumerator matches backtracking",
    "orbit of one colouring under the full colour group",
    "all stabilizers trivial",
    "orbits under trivial",
    "orbits under C2",
    "orbits under S5",
    "orbits under A5 x {1}",
    "orbits under A5xC2",
    "orbits under S5xC2",
    "antipodal colour rule at all 20 vertices of all 240",
    "colour classes of all 240 form one compound",
    "120 colourings per compound",
    "P2: 12 distinct cyclic orders of one parity per colouring",
    "P2: opposite faces carry inverse cyclic orders",
    "parity split 120 even / 120 odd",
    "odd relabelling flips all parities, even preserves",
    *_READ_HANDS,
    "compound and parity independent: 4 combinations of 60",
    "enumeration export byte-stable",
    "colouring JSON round-trip is identity",
)
# the checks that read the antipode itself, not through the colour action
_READ_ANTIPODE = (
    "antipode negates positions, involutive, fixed-point free",
    "antipode exchanges bands (C3=-C2, C4=-C1)",
    "antipodal distance 2",
    "full group = rotations + inversion coset, disjoint",
    "all symmetries commute with the antipode",
    "antipodal image of compound A is compound B",
)
# an antipode of 20 vertex ids that is no involution: the reflections come
# from the rings, so they still exchange the compounds, but its colour
# swap leaves the enumerated colourings, and its coset is no longer the full
# group's other half
_ANTIPODE_NO_INVOLUTION = {
    **dict.fromkeys(_READ_ANTIPODE, ""),
    "antipodal distance 2": "max dev 1.32e-01",
    "orbit of one colouring under the full colour group":
        "ValueError: the model's antipode does not map faces onto faces",
    **dict.fromkeys(["orbits under C2", "orbits under A5xC2", "orbits under S5xC2"],
                    "ValueError: subgroup action leaves the given colouring set"),
    "P1: handedness flips under the antipodal colour swap": "",
    "antipodal colour rule at all 20 vertices of all 240": "",
}
# a face whose colour orders change parity: no colouring has one parity, and
# the odd relabelling's image has none to compare
_NO_PARITY = {
    "P2: 12 distinct cyclic orders of one parity per colouring": "",
    "parity split 120 even / 120 odd": "even 0, odd 0",
    "odd relabelling flips all parities, even preserves": "",
    "compound and parity independent: 4 combinations of 60":
        "{('A', None): 120, ('B', None): 120}",
}
# compound A then shares B's tetrahedron at 0: 9 distinct tetrahedra are left
_COMPOUND_A_TAKES_B_0 = {
    "inscribed tetrahedra": "9",
    "each vertex lies in exactly 2 tetrahedra": "",
    "4-element well-spread subsets are exactly the 10 tetrahedra": "10 maximal subsets",
    "tetrahedra action: injective image = all 60 even permutations":
        "ValueError: symmetry does not stabilize the compound",
    "canonical seeds valid, distinct, classified A and B": "seed compounds None/B",
    "antipodal image of compound A is compound B": "",
    "every rotation stabilizes each compound": "",
    "every orientation-reversing symmetry exchanges the compounds": "",
    "colour classes of all 240 form one compound": "classified 120",
    "120 colourings per compound": "A: 0, B: 120",
    "fixed pairing: compound A works left, compound B works right":
        "[('B', 'right'), (None, 'left')]",
}
# vertex 0 placed where vertex 1 is: the float checks measure the move
_VERTEX_0_AT_1 = {
    "vertex 0 at the north pole": "offset 7.14e-01",
    "antipode negates positions, involutive, fixed-point free": "",
    "antipode exchanges bands (C3=-C2, C4=-C1)": "",
    "antipodal distance 2": "max dev 1.32e-01",
    "third-smallest distance = inscribed tetrahedron edge":
        "1.154700538379 vs sqrt(8/3) = 1.632993161855",
    "tetrahedron edge equals third-smallest distance": "spectrum[2] = 1.154700538",
}
_DISTANCES_0_1_AND_0_19 = {
    "distance spectrum: 190 pairs, 30 at the edge length":
        "pairs 190, multiplicities [10, 30, 60, 60, 30]",
    "third-smallest distance = inscribed tetrahedron edge":
        "1.154700538379 vs sqrt(8/3) = 1.632993161855",
    "rotations have determinant +1":
        "ValueError: permutation does not keep the vertex distances",
    "tetrahedron edge equals third-smallest distance": "spectrum[2] = 1.154700538",
    "4-element well-spread subsets are exactly the 10 tetrahedra": "17 maximal subsets",
}


# Single-fault models, at least one per model field: each row names the
# checks `run_checks` must FAIL, with what they measured.  A check that
# raises, or reads a fact that raised, reports the exception.
_SINGLE_FAULTS = [
    # every face and turn then runs clockwise: the rotations read off the
    # turns are unchanged, but each right turn has a negative determinant,
    # and vertex 0 is at the south pole
    _reports(lambda m: m._replace(exact_positions=tuple(
        tuple(-x for x in p) for p in m.exact_positions)),
        {"rotations have determinant +1": "[-1]",
         "vertex 0 at the north pole": "offset 2.00e+00"}, "exact-positions-negated"),
    # the same, and the zigzags exchange their handedness
    _reports(lambda m: _reverse_rings(m, *range(20)),
        {"rotations have determinant +1": "[-1]",
         "fixed pairing: compound A works left, compound B works right":
             "[('A', 'right'), ('B', 'left')]"},
        "turn-pairs-reversed"),
    # the positions move, and with them the bands the checks measure
    _reports(lambda m: m._replace(exact_positions=_swap(m.exact_positions, 0, 1)),
             {"rotations have determinant +1": "[-1, 1]", **_VERTEX_0_AT_1},
             "exact-positions-0-1"),
    # vertices 0 and 1 exchange their ids throughout: every fact holds, and
    # only the checks that pin vertex 0 and the seeds' compounds see it
    _reports(lambda m: _relabel(m, 0, 1),
             {"vertex 0 at the north pole": "offset 7.14e-01",
              "canonical seeds valid, distinct, classified A and B": "seed compounds B/A"},
             "vertices-0-1"),
    _reports(lambda m: m._replace(compounds=(m.compounds[0][:4] + m.compounds[1][:1],
                                             m.compounds[1])),
             _COMPOUND_A_TAKES_B_0, "compound-a-takes-b-0"),
    _reports(_swap_distances_0_1_and_0_19, _DISTANCES_0_1_AND_0_19, "distances-0-1-and-0-19"),
    # vertex 0 then has vertex 1's neighbours, 0 among them, and the ring of
    # its neighbour 5 does not hold it; the rings state 35 edges
    _reports(lambda m: m._replace(adjacency=_swap(m.adjacency, 0, 1)),
             {**dict.fromkeys((*_READ_GROUPS, *_READ_HANDS), "ValueError: "
                              "the ring of 5 has no turns at the end of 0 -> 5"),
              "edge count": "35",
              "Euler characteristic V-E+F": "-3",
              "faces are 5-cycles in the edge set": "",
              "each edge on 2 faces with opposite senses": "",
              "dual face adjacency preserved both ways": "",
              "antipodal colour rule at all 20 vertices of all 240": ""},
             "adjacency-0-1"),
    # a ring without its neighbours: no base edge to read a symmetry or a
    # zigzag from
    _reports(lambda m: m._replace(adjacency=((),) + m.adjacency[1:]),
             {**dict.fromkeys((*_READ_GROUPS, *_READ_HANDS),
                              "ValueError: vertex 0 has no neighbours"),
              "vertex degree 3": "degrees [0, 3]",
              "faces are 5-cycles in the edge set": "",
              "dual face adjacency preserved both ways": "",
              "antipodal colour rule at all 20 vertices of all 240":
                  "ValueError: vertex 0 has 0 neighbours, expected 3"},
             "adjacency-0-empty"),
    # which neighbour a ring starts at is no part of the model
    _reports(lambda m: m._replace(adjacency=(m.adjacency[0][1:] + m.adjacency[0][:1],
                                             *m.adjacency[1:])), {}, "ring-0-rotated"),
    _reports(lambda m: m._replace(adjacency=tuple(r[1:] + r[:1] for r in m.adjacency)), {},
             "rings-rotated"),
    # the turns at the end of 0 -> 1, and of the other edges into 1, swap sides
    _reports(lambda m: _reverse_rings(m, 1),
             {**dict.fromkeys(_READ_GROUPS, "ValueError: "
                              "the turn map onto 0 -> 2 is not a permutation"),
              **dict.fromkeys(_READ_HANDS, "ValueError: "
                              "zigzag walk from 0 -> 1 failed to close after 12 edges")},
             "turn-pair-0-1"),
    # the backtracking search then makes a colouring that the face scan rejects
    _reports(lambda m: m._replace(vertex_faces=_swap(m.vertex_faces, 0, 1)),
             dict.fromkeys(_READ_COLOURINGS, "ValueError: colouring is not face-rainbow"),
             "vertex-faces-0-1"),
    # vertex 13 then marks no colour on its own faces, and the search finds
    # no colouring at all, so no check that reads the colourings measures one
    _reports(lambda m: m._replace(vertex_faces=(
        *m.vertex_faces[:13], m.vertex_faces[11], *m.vertex_faces[14:])),
             {**dict.fromkeys(set(_READ_COLOURINGS) - {"backtracking enumeration under 1 s"},
                              "ValueError: the backtracking enumeration found no colouring"),
              **dict.fromkeys(["completions per colour frame",
                               "propagation enumerator matches backtracking",
                               "canonical seeds valid, distinct, classified A and B"],
                              "ValueError: no colour left for vertex 11")},
             "vertex-faces-13-is-11"),
    # the propagation forces vertex 6 off every colour, no colouring has 12
    # distinct face orders of one parity any more, and face 11's antipodal
    # image, face 0, is gone
    _reports(lambda m: m._replace(faces=(m.faces[1],) + m.faces[1:]),
             {"each edge on 2 faces with opposite senses": "",
              "P2: opposite faces carry inverse cyclic orders":
                  "ValueError: the antipode maps face 11 onto no face",
              **dict.fromkeys(["completions per colour frame",
                               "propagation enumerator matches backtracking",
                               "canonical seeds valid, distinct, classified A and B"],
                              "ValueError: no colour left for vertex 6"),
              **_NO_PARITY},
             "face-0-is-face-1"),
    _reports(lambda m: m._replace(faces=((m.faces[0][0], *m.faces[0][:0:-1]), *m.faces[1:])),
             {"each edge on 2 faces with opposite senses": "", **_NO_PARITY}, "face-0-reversed"),
    # edge 0 -> 1 gone from both rings: the faces through it leave the edge
    # set, and the turns at the end of an edge into 0 or 1 are lost
    _reports(lambda m: m._replace(adjacency=(m.adjacency[0][1:], m.adjacency[1][1:],
                                             *m.adjacency[2:])),
             {"edge count": "29",
              "Euler characteristic V-E+F": "3",
              "vertex degree 3": "degrees [2, 3]",
              "faces are 5-cycles in the edge set": "",
              "dual face adjacency preserved both ways": "",
              **dict.fromkeys(_READ_GROUPS, "ValueError: "
                              "the ring of 1 has no turns at the end of 6 -> 1"),
              **dict.fromkeys(_READ_HANDS, "ValueError: "
                              "the ring of 0 has no turns at the end of 3 -> 0"),
              "antipodal colour rule at all 20 vertices of all 240":
                  "ValueError: vertex 0 has 2 neighbours, expected 3"},
             "edge-0-dropped"),
    _reports(lambda m: m._replace(icosa_faces=_swap(m.icosa_faces, 0, 1)),
             {"dual face adjacency preserved both ways": ""}, "icosa-faces-0-1"),
    _reports(lambda m: m._replace(dual_faces=_swap(m.dual_faces, 0, 1)),
             {"dual face adjacency preserved both ways": ""}, "dual-faces-0-1"),
    # compound B's tetrahedron at 0 gone: 9 tetrahedra, and no colouring of
    # compound B classifies
    _reports(lambda m: m._replace(compounds=(m.compounds[0], m.compounds[1][1:])),
             {"inscribed tetrahedra": "9",
              "each vertex lies in exactly 2 tetrahedra": "",
              "4-element well-spread subsets are exactly the 10 tetrahedra":
                  "10 maximal subsets",
              "antipodal image of compound A is compound B": "",
              "every orientation-reversing symmetry exchanges the compounds": "",
              "canonical seeds valid, distinct, classified A and B": "seed compounds A/None",
              "colour classes of all 240 form one compound": "classified 120",
              "120 colourings per compound": "A: 120, B: 0",
              "fixed pairing: compound A works left, compound B works right":
                  "[('A', 'left'), (None, 'right')]"},
             "tetrahedra-0-dropped"),
    # a repeated face: the counts and the OFF export's count line measure it,
    # and the propagation still completes every frame
    _reports(lambda m: m._replace(faces=m.faces + m.faces[:1]),
             {"face count": "13",
              "Euler characteristic V-E+F": "3",
              "each edge on 2 faces with opposite senses": "",
              "dodecahedron OFF header and stability": ""},
             "face-12-added"),
    # a 21st exact position, a copy of the pole's: the readers index the 20
    # vertex ids only
    _reports(lambda m: m._replace(exact_positions=m.exact_positions + m.exact_positions[:1]),
             {"vertex count": "21",
              "Euler characteristic V-E+F": "3",
              "latitude band sizes": "(2, 3, 6, 6, 3, 1)"},
             "vertex-20-added"),
    # vertex 0 at phi times its position: on its own band, off the sphere
    _reports(lambda m: _place(m, 0, (ZPhi(0, 1),) * 3),
             {"vertices on the unit sphere": "max |r-1| = 6.18e-01",
              "vertex 0 at the north pole": "offset 6.18e-01",
              "antipode negates positions, involutive, fixed-point free": "",
              "antipodal distance 2": "max dev 6.18e-01",
              "third-smallest distance = inscribed tetrahedron edge":
                  "2.167192495969 vs sqrt(8/3) = 1.632993161855",
              "tetrahedron edge equals third-smallest distance": "spectrum[2] = 2.167192496"},
             "vertex-0-scaled"),
    # vertex 0 at vertex 1's position: the pole's band is empty, and the
    # turn at the end of 0 -> 1 has a zero determinant
    _reports(lambda m: _place(m, 0, m.exact_positions[1]),
             {"latitude band sizes": "(4, 6, 6, 3, 1)",
              "rotations have determinant +1":
                  "ValueError: zero determinant at the end of 0 -> 1",
              **_VERTEX_0_AT_1},
             "vertex-0-in-band-C1"),
    _reports(lambda m: m._replace(adjacency=m.adjacency[:-1] + (m.adjacency[-1][:2],)),
             {**dict.fromkeys(_READ_GROUPS, "ValueError: "
                              "the ring of 19 has no turns at the end of 16 -> 19"),
              **dict.fromkeys(_READ_HANDS, "ValueError: "
                              "the ring of 19 has no turns at the end of 17 -> 19"),
              "vertex degree 3": "degrees [2, 3]",
              "faces are 5-cycles in the edge set": "",
              "antipodal colour rule at all 20 vertices of all 240":
                  "ValueError: vertex 19 has 2 neighbours, expected 3"},
             "adjacency-19-short"),
    _reports(lambda m: m._replace(dual_faces=m.dual_faces[1:2] + m.dual_faces[1:]),
             {"dual face map is a bijection": "",
              "dual face adjacency preserved both ways": ""},
             "dual-face-0-is-dual-face-1"),
    # 20 vertex ids, but not a permutation: the checks measure it
    _reports(lambda m: m._replace(antipode=(m.antipode[1], *m.antipode[1:])),
             {**_ANTIPODE_NO_INVOLUTION, "P2: opposite faces carry inverse cyclic orders":
                  "ValueError: the antipode maps face 0 onto no face"},
             "antipode-0-is-antipode-1"),
    _reports(lambda m: m._replace(antipode=_swap(m.antipode, 0, 1)),
             {**_ANTIPODE_NO_INVOLUTION, "P2: opposite faces carry inverse cyclic orders":
                  "ValueError: the antipode maps face 1 onto no face"},
             "antipodes-0-1-swapped"),
    # more pairs then lie at least a tetrahedron edge apart
    _reports(lambda m: m._replace(squared_distances=tuple(
        tuple(d + d for d in row) for row in m.squared_distances)),
             {"well-spread subsets: max size 4, no 5th vertex extension":
                  "max 5 over 4845 four-subsets",
              "4-element well-spread subsets are exactly the 10 tetrahedra":
                  "1510 maximal subsets"},
             "distances-doubled"),
    # one distinct distance, so the spectrum has no third-smallest one
    _reports(lambda m: m._replace(squared_distances=tuple(
        tuple(m.squared_distances[0][1] for _ in row) for row in m.squared_distances)),
             {"distance spectrum: 190 pairs, 30 at the edge length":
                  "pairs 190, multiplicities [190]",
              **dict.fromkeys(["third-smallest distance = inscribed tetrahedron edge",
                               "tetrahedron edge equals third-smallest distance"],
                              "ValueError: 1 distinct distances, no third-smallest"),
              "well-spread subsets: max size 4, no 5th vertex extension":
                  "max 3 over 4845 four-subsets",
              "4-element well-spread subsets are exactly the 10 tetrahedra": "0 maximal subsets"},
             "distances-all-equal"),
]


@pytest.mark.parametrize("mutate,failed", _SINGLE_FAULTS)
def test_verify_reports_a_single_fault_model(model, mutate, failed):
    checks = verify.run_checks(mutate(model))
    assert len(checks) == 61
    assert {c.name: c.detail for c in checks if not c.ok} == failed


# Single faults that no check reads: the model refuses them where it is made,
# naming the first bad entry
@pytest.mark.parametrize("edit,refused", [
    (lambda a: a[:19], r"antipode\[19\] is missing"),
    (lambda a: (*a, 5), r"antipode\[20\] is 5"),
    (lambda a: (20, *a[1:]), r"antipode\[0\] is 20"),
], ids=["antipode-19-dropped", "antipode-20-added", "antipode-0-out-of-range"])
def test_a_single_fault_antipode_is_refused_at_replace(model, edit, refused):
    with pytest.raises(ValueError, match=f"^{refused}; the antipode must be 20 vertex ids$"):
        model._replace(antipode=edit(model.antipode))


@pytest.mark.parametrize("mutate,refused", [
    (lambda m: m._replace(exact_positions=m.exact_positions[:-1]),
     r"exact_positions\[19\] is missing; the exact_positions must be at least 20 triples of "
     r"ZPhi, each 0, \+-1, \+-phi or \+-1/phi"),
], ids=["vertex-19-dropped"])
def test_a_single_shape_fault_is_refused_at_replace(model, mutate, refused):
    with pytest.raises(ValueError, match=f"^{refused}$"):
        mutate(model)


def test_verify_computes_a_fact_that_raises_once(model, census):
    # eleven checks read the groups of this model, whose derivation raises:
    # the rotation group is derived once, the full group is built on it, and
    # each reader gets the kept exception
    reversed_rings = _reverse_rings(model, 1)

    def run():
        assert len(verify.run_checks(reversed_rings)) == 61

    (calls,) = census(run)
    assert calls["symmetry.rotation_group"] == 1


def test_single_fault_models_reach_every_check():
    # the union of the checks the rows FAIL: a check that no row reaches
    # fails this test
    reached = set().union(*(param.values[1] for param in _SINGLE_FAULTS))
    assert reached == {name for _, name, _ in verify.CHECKS}


def test_classify_reads_the_colouring_once(capsys, tmp_path, colourings, census):
    # the full check reads the faces, and the signature finds the readings kept
    path = tmp_path / "a.json"
    path.write_text(chroma.colouring_to_json(colourings[0]))

    def classify():
        code, out, _ = run_cli(capsys, "classify", "--in", str(path), "--json")
        assert code == 0 and json.loads(out)["valid"] is True

    (calls,) = census(classify)
    assert calls["chroma._signature"] == 1


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_byte_stable_and_valid(capsys, tmp_path, model):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(capsys, "enumerate", "--out", str(out1))[0] == 0
    assert run_cli(capsys, "enumerate", "--out", str(out2))[0] == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    docs = json.loads(b1)
    assert len(docs) == 240
    for doc in docs:
        assert chroma.is_valid(model, tuple(doc["colours"]))


def test_enumerate_unwritable_path(capsys, tmp_path):
    code, _, err = run_cli(capsys, "enumerate", "--out", str(tmp_path / "nope" / "x.json"))
    assert code == 1
    assert "nope" in err


@pytest.mark.parametrize("argv", [
    ["enumerate"],
    ["export", "--what", "dodecahedron", "--format", "off"],
], ids=["enumerate", "export"])
def test_nul_in_out_path_is_a_one_line_error(capsys, argv):
    # only in-process callers can pass a NUL: argv from a shell holds none
    code, _, err = run_cli(capsys, *argv, "--out", "a\x00b")
    assert code == 1
    assert err.startswith("cannot write ") and err.count("\n") == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# orbits

def test_orbits_trivial(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--subgroup", "trivial")
    assert code == 0
    assert "orbit count: 240" in out
    assert "orbit sizes: [1]" in out


def test_orbits_a5(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--subgroup", "A5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 60
    assert doc["orbit_count"] == 4
    assert doc["orbit_sizes"] == [60, 60, 60, 60]
    assert len(doc["representatives"]) == 4


def test_orbits_full_group(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--subgroup", "S5xC2")
    assert code == 0
    assert "orbit count: 1" in out
    assert "orbit sizes: [240]" in out


def test_orbits_generator_spec(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--subgroup", "id,-1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 2
    assert doc["orbit_count"] == 120


@pytest.mark.parametrize(
    "spec", [*NAMED_SUBGROUPS, "id,-1", "(1 2 3),+1", "(1 2)(3 4),-1; (1 5),+1"])
def test_orbits_text_and_json_agree(capsys, spec):
    code, text, _ = run_cli(capsys, "orbits", "--subgroup", spec)
    json_code, out, _ = run_cli(capsys, "orbits", "--subgroup", spec, "--json")
    doc = json.loads(out)
    assert code == json_code == 0
    assert doc["subgroup"] == spec and doc["orbit_count"] * doc["order"] == 240
    assert text.splitlines() == [
        f"subgroup order: {doc['order']}",
        f"orbit count: {doc['orbit_count']}",
        f"orbit sizes: {sorted(set(doc['orbit_sizes']))}",
        "representatives:",
        *("  " + "".join(map(str, r)) for r in doc["representatives"]),
    ]


def test_orbits_bad_spec_exits_two(capsys):
    for spec in ("garbage(((", ";"):
        with pytest.raises(SystemExit) as exc:
            main(["orbits", "--subgroup", spec])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# classify

def test_classify_seed_a(capsys, tmp_path, model):
    seed_a, _ = chroma.seed_colourings(model)
    path = tmp_path / "seed_a.json"
    path.write_text(chroma.colouring_to_json(seed_a))
    code, out, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 0
    assert "valid: yes" in out
    assert "compound: A" in out
    assert "working zigzag handedness: left" in out


def test_classify_constant_colouring(capsys, tmp_path):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"labelling": "canonical-v1", "colours": [1] * 20}))
    code, out, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 1
    assert "INVALID" in out
    assert "face 0" in out


def test_classify_odd_relabelling_same_compound_flipped_parity(capsys, tmp_path, model):
    from pentachrome.symmetry import ColourSymmetry

    seed_a, _ = chroma.seed_colourings(model)
    odd = ColourSymmetry((2, 1, 3, 4, 5), 1)
    relabelled = chroma.act(odd, seed_a, model)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p1.write_text(chroma.colouring_to_json(seed_a))
    p2.write_text(chroma.colouring_to_json(relabelled))
    _, out1, _ = run_cli(capsys, "classify", "--in", str(p1), "--json")
    _, out2, _ = run_cli(capsys, "classify", "--in", str(p2), "--json")
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["compound"] == doc2["compound"] == "A"
    assert {doc1["parity"], doc2["parity"]} == {"even", "odd"}


def _classify_text_as_document(text):
    """The facts a text classify report states, as its JSON document states them."""
    head, classes, orders = re.fullmatch(
        r"(.*)\ncolour classes \(tetrahedra\):\n(.*)\nface cyclic orders:\n(.*)\n", text, re.S
    ).groups()
    lines = dict(line.split(": ", 1) for line in head.splitlines())
    return {
        "valid": lines["valid"] == "yes",
        "compound": lines["compound"],
        "parity": re.fullmatch(r"(\w+) on all 12 faces", lines["cyclic-order parity"])[1],
        "handedness": lines["working zigzag handedness"],
        "colour_classes": {
            m[1]: [int(v) for v in m[2].split(", ")]
            for m in re.finditer(r"^  colour (\d): \((.*)\)$", classes, re.M)
        },
        "cyclic_orders": [
            {"face": int(m[1]), "order": [int(x) for x in m[2].split()], "parity": m[3]}
            for m in re.finditer(r"^  face +(\d+): ([\d ]+?)  \((\w+)\)$", orders, re.M)
        ],
    }


def test_classify_text_and_json_agree(capsys, tmp_path, model, colourings, monkeypatch):
    monkeypatch.setattr(cli, "build_polytope", lambda: model)
    mutants = []
    for c in colourings[::24]:
        mutants.append((c[1], c[0], *c[2:]))
        mutants.append((c[0], *c[:19]))
    path = tmp_path / "c.json"
    for c in (*colourings, *mutants):
        path.write_text(chroma.colouring_to_json(c))
        code, text, _ = run_cli(capsys, "classify", "--in", str(path))
        json_code, out, _ = run_cli(capsys, "classify", "--in", str(path), "--json")
        doc = json.loads(out)
        assert code == json_code == (0 if doc["valid"] else 1)
        if not doc["valid"]:
            face = doc["first_violated_face"]
            assert face == chroma.first_violated_face(model, c) is not None
            colours = [c[v] for v in model.faces[face]]
            assert text == f"INVALID: face {face} carries colours {colours}\n"
            continue
        assert len(text.splitlines()) == 23 and len(doc["cyclic_orders"]) == 12
        assert _classify_text_as_document(text) == doc
        assert doc["compound"] == compound_mod.classify_colouring(model, c)[0].label
    assert sum(chroma.is_valid(model, c) for c in mutants) == 0


def test_classify_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "classify", "--in", str(tmp_path / "absent.json"))
    assert code == 1
    assert "absent.json" in err


MALFORMED = [
    "{not json",
    '{"labelling": "canonical-v1"}',
    '{"labelling": "canonical-v1", "colours": null}',
    '{"labelling": "canonical-v1", "colours": ' + "[" * 100_000 + "]" * 100_000 + "}",
]


@pytest.mark.parametrize(
    "text", MALFORMED, ids=["not-json", "no-colours", "null-colours", "deep-nesting"]
)
def test_classify_malformed_json(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "classify", "--in", str(path))
    assert code == 1
    assert "malformed" in err


@pytest.mark.parametrize(
    "text", [*MALFORMED[:3], None], ids=["not-json", "no-colours", "null-colours", "missing-file"]
)
def test_classify_json_reports_an_unreadable_file(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, "classify", "--in", str(path), "--json")
    assert code == 1
    assert err.count("\n") == 1
    assert json.loads(out) == {"valid": False, "error": err.rstrip("\n")}


# ---------------------------------------------------------------------------
# export

def test_export_dodecahedron_off(capsys, tmp_path):
    out = tmp_path / "d.off"
    assert run_cli(capsys, "export", "--what", "dodecahedron", "--format", "off",
                   "--out", str(out))[0] == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "20 12 30"


def test_export_compound_off_has_twenty_triangles(capsys, tmp_path):
    for what in ("compound-A", "compound-B"):
        out = tmp_path / f"{what}.off"
        assert run_cli(capsys, "export", "--what", what, "--format", "off",
                       "--out", str(out))[0] == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "20 20 30"
        assert sum(1 for ln in lines if ln.startswith("3 ")) == 20


def test_export_colouring_json_round_trip(capsys, tmp_path, model):
    seed_a, _ = chroma.seed_colourings(model)
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text(chroma.colouring_to_json(seed_a))
    assert run_cli(capsys, "export", "--what", "colouring", "--format", "json",
                   "--in", str(src), "--out", str(dst))[0] == 0
    assert chroma.colouring_from_json(dst.read_text()) == seed_a
    assert dst.read_bytes() == src.read_bytes()


def test_export_colouring_off(capsys, tmp_path, model):
    seed_a, _ = chroma.seed_colourings(model)
    src = tmp_path / "in.json"
    dst = tmp_path / "c.off"
    src.write_text(chroma.colouring_to_json(seed_a))
    assert run_cli(capsys, "export", "--what", "colouring", "--format", "off",
                   "--in", str(src), "--out", str(dst))[0] == 0
    lines = dst.read_text().splitlines()
    assert lines[0] == "COFF"
    assert lines[1] == "20 12 30"


def test_export_colouring_malformed(capsys, tmp_path):
    src = tmp_path / "in.json"
    src.write_text(MALFORMED[1])
    code, _, err = run_cli(capsys, "export", "--what", "colouring", "--format", "json",
                           "--in", str(src), "--out", str(tmp_path / "out.json"))
    assert code == 1
    assert err.startswith("malformed colouring file: ")
    assert len(err.splitlines()) == 1


def test_export_colouring_requires_input(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--what", "colouring", "--format", "json",
              "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_export_bad_selector(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--what", "megaminx", "--format", "off",
              "--out", str(tmp_path / "x.off")])
    assert exc.value.code == 2


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# any input: exit 0, 1 or 2, never a traceback

_ARG = st.text(st.characters(blacklist_characters="\x00"), max_size=12)  # argv holds no NUL
# "" names the directory itself; repeats weight the draw toward paths that work
_IN_PATHS = ("in.json", "in.json", "in.json", "absent.json", "")
_OUT_PATHS = ("out", "out", "missing/out", "")
_COLOURS = st.lists(
    st.one_of(st.integers(-1, 6), st.booleans(), st.none(), st.text(max_size=2)), max_size=21
)


def _file_contents(data, colourings):
    kind = data.draw(st.sampled_from(["valid", "valid", "colours", "malformed", "bytes"]))
    if kind == "valid":
        return chroma.colouring_to_json(data.draw(st.sampled_from(colourings))).encode()
    if kind == "colours":
        colours = data.draw(_COLOURS)
        return json.dumps({"labelling": chroma.LABELLING, "colours": colours}).encode()
    if kind == "malformed":
        return data.draw(st.sampled_from(MALFORMED)).encode()
    return data.draw(st.binary(max_size=64))


def _argv(data, path):
    command = data.draw(st.sampled_from(["orbits", "classify", "export", "enumerate"]))
    argv = [command]

    def often():
        return data.draw(st.integers(0, 3)) > 0

    def draw_path(paths):
        return path(data.draw(st.sampled_from(paths)))

    if command == "orbits":
        if often():
            argv += ["--subgroup", data.draw(st.one_of(_SPEC, _ARG))]
        if not often():
            argv.append("--json")
    elif command == "classify":
        if often():
            argv += ["--in", draw_path(_IN_PATHS)]
        if not often():
            argv.append("--json")
    elif command == "export":
        what = data.draw(st.sampled_from(
            ["dodecahedron", "compound-A", "compound-B", "colouring", "megaminx"]
        ))
        fmt = data.draw(st.sampled_from(["off", "json", "svg"]))
        argv += ["--what", what, "--format", fmt, "--out", draw_path(_OUT_PATHS)]
        if often():
            argv += ["--in", draw_path(_IN_PATHS)]
    else:
        argv += ["--out", draw_path(_OUT_PATHS)]
        if not often():
            argv += ["--format", data.draw(st.sampled_from(["json", "xml"]))]
    if not often():
        argv += data.draw(st.lists(_ARG, min_size=1, max_size=2))
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exits_cleanly_on_any_input(capsys, tmp_path, monkeypatch, colourings, data):
    monkeypatch.chdir(tmp_path)  # a generated relative path stays in tmp_path
    # a process's stderr escapes what it cannot encode, such as a lone
    # surrogate from an undecodable argv byte; the capture stream is strict
    sys.stderr.reconfigure(errors="backslashreplace")
    (tmp_path / "in.json").write_bytes(_file_contents(data, colourings))
    argv = _argv(data, lambda name: str(tmp_path / name))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)


_ORBITS = ("-m", "pentachrome.cli", "orbits", "--subgroup", "trivial")


def _cli_env(unbuffered=False):
    src = str(Path(pentachrome.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_one_without_traceback(unbuffered):
    # `pentachrome orbits ... | true`: the reader is gone before the output
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *_ORBITS], stdout=write_end, stderr=subprocess.PIPE,
            env=_cli_env(unbuffered), text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_no_stdout_at_all_exits_zero():
    # started with stdout closed: sys.stdout is None, and print writes nothing
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, *_ORBITS],
        stderr=subprocess.PIPE, env=_cli_env(), text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# start-up cost

def test_cli_runs_without_numpy(run_python, tmp_path):
    proc = run_python("""
        import sys

        from pentachrome.cli import main

        out = sys.argv[1]
        if main(["verify"]) != 0:
            raise SystemExit("verify failed")
        if main(["export", "--what", "compound-A", "--format", "off", "--out", out]) != 0:
            raise SystemExit("export failed")
        print("numpy imported:", "numpy" in sys.modules)
    """, str(tmp_path / "compound-A.off"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy imported: False"


@pytest.mark.parametrize("module", ["dataclasses", "fractions"])
def test_cli_import_skips_module(run_python, module):
    # the records are NamedTuples: dataclasses would pull in inspect, ast,
    # dis and tokenize at every start; fractions would pull in decimal and
    # numbers, and `fma` rounds through integers instead; every `verify`
    # process loads `verify` as well
    proc = run_python("""
        import sys

        module = sys.argv[1]
        before = module in sys.modules
        import pentachrome.cli
        import pentachrome.verify

        print("imported:", not before and module in sys.modules)
    """, module)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "imported: False"
