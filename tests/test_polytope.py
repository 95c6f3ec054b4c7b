import copy
import json
import math
import pickle
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentachrome import polytope
from pentachrome.compound import inscribed_tetrahedra
from pentachrome.polytope import (
    BAND_SIZES,
    TOL,
    ZPhi,
    build_polytope,
    distance_spectrum,
    fma,
    latitude_bands,
    model_to_json,
    model_to_off,
    positions,
)


def test_counts(model, edges):
    assert len(model.exact_positions) == 20
    assert len(model.faces) == 12
    assert len(edges) == 30
    assert len(model.exact_positions) - len(edges) + len(model.faces) == 2


def test_construction_deterministic(model):
    again = build_polytope()
    assert again == model
    assert hash(again) == hash(model)


def test_vertices_on_unit_sphere(model):
    for p in positions(model):
        assert abs(math.dist(p, (0, 0, 0)) - 1.0) < TOL


def test_vertex_zero_is_north_pole(model):
    assert math.dist(positions(model)[0], (0.0, 0.0, 1.0)) < TOL
    bands = latitude_bands(model.exact_positions)
    assert (bands[0], bands[-1]) == ([0], [19])


def test_band_sizes(model):
    assert tuple(map(len, latitude_bands(model.exact_positions))) == BAND_SIZES


def test_ids_ordered_by_band(model):
    bands = latitude_bands(model.exact_positions)
    assert [v for band in bands for v in band] == list(range(20))


def test_three_regular(model):
    for v in range(20):
        nbrs = frozenset(model.adjacency[v])
        assert len(nbrs) == 3
        assert v not in nbrs


def test_neighbours_of_pole_are_c1(model):
    c1 = latitude_bands(model.exact_positions)[1]
    assert frozenset(model.adjacency[0]) == frozenset(c1)


def test_faces_are_pentagon_cycles(model, edges):
    edge_set = set(edges)
    for f in model.faces:
        assert len(set(f)) == 5
        for i in range(5):
            u, v = f[i], f[(i + 1) % 5]
            assert (min(u, v), max(u, v)) in edge_set


def test_each_edge_on_two_faces_opposite_senses(model, edges):
    directed = Counter()
    for f in model.faces:
        for i in range(5):
            directed[(f[i], f[(i + 1) % 5])] += 1
    for u, v in edges:
        assert directed[(u, v)] == 1
        assert directed[(v, u)] == 1


def test_turn_reads_the_faces_and_the_third_neighbour(model, edges):
    # over the 60 directed edges: right continues the face that runs u -> w,
    # and left is w's neighbour that is neither u nor that
    after = {(f[i - 2], f[i - 1]): f[i] for f in model.faces for i in range(5)}
    directed = [*edges, *((w, u) for u, w in edges)]
    assert len(directed) == 60 and set(after) == set(directed)
    for u, w in directed:
        right = polytope._turn(model.adjacency, u, w, -1)
        assert right == after[u, w]
        assert {u, right, polytope._turn(model.adjacency, u, w, 1)} == set(model.adjacency[w])


@pytest.mark.parametrize("ring", [(16, 18), (16, 17, 15)], ids=["two-neighbours", "lacks-u"])
def test_turn_refuses_a_ring_without_turns_at_the_edge(model, ring):
    broken = model._replace(adjacency=model.adjacency[:19] + (ring,))
    message = "^the ring of 19 has no turns at the end of 18 -> 19$"
    for side in (1, -1):
        with pytest.raises(ValueError, match=message):
            polytope._turn(broken.adjacency, 18, 19, side)


def test_faces_counterclockwise_from_outside(model):
    pos = np.array(positions(model))
    for f in model.faces:
        pts = pos[list(f)]
        normal = sum(np.cross(pts[i], pts[(i + 1) % 5]) for i in range(5))
        assert float(normal @ pts.mean(axis=0)) > 0.0


def test_antipode_structure(model):
    pos = np.array(positions(model))
    for v in range(20):
        a = model.antipode[v]
        assert a != v
        assert model.antipode[a] == v
        assert np.linalg.norm(pos[a] + pos[v]) < TOL
        assert abs(math.dist(tuple(pos[a]), tuple(pos[v])) - 2.0) < TOL


def test_antipode_exchanges_bands(model):
    # the pole with the pole, C1 with C4 and C2 with C3
    band_of = {v: i for i, band in enumerate(latitude_bands(model.exact_positions)) for v in band}
    for v in range(20):
        assert band_of[model.antipode[v]] == 5 - band_of[v]


def test_antipode_of_pole_is_south_pole(model):
    assert model.antipode[0] == 19


def _with(rows, i, entry):
    """rows with entry i replaced."""
    return (*rows[:i], entry, *rows[i + 1:])


# One shape fault in each field, and the start of the message naming it
_SHAPE_FAULTS = [
    pytest.param(lambda m: {"faces": list(m.faces)},
                 r"faces is \[\(0, 1, 6, 7, 2\), .*\], not a tuple", id="faces-a-list"),
    pytest.param(lambda m: {"adjacency": _with(m.adjacency, 3, (0, 7, 20))},
                 r"adjacency\[3\]\[2\] is 20", id="adjacency-3-out-of-range"),
    pytest.param(lambda m: {"compounds": m.compounds + m.compounds[:1]},
                 r"compounds\[2\] is \(\(0, 10, 12, 14\), .*\)", id="compounds-3-entries"),
    pytest.param(lambda m: {"exact_positions": _with(m.exact_positions, 0,
                                                     _with(m.exact_positions[0], 0, (1, 0)))},
                 r"exact_positions\[0\]\[0\] is \(1, 0\)", id="exact-position-0-no-zphi"),
    pytest.param(lambda m: {"exact_positions": m.exact_positions[:19]},
                 r"exact_positions\[19\] is missing", id="exact-positions-19-entries"),
    # a ZPhi, but no coordinate of a dodecahedron vertex at circumradius sqrt(3)
    pytest.param(lambda m: {"exact_positions": _with(m.exact_positions, 3,
                                                     _with(m.exact_positions[3], 1, ZPhi(2)))},
                 r"exact_positions\[3\]\[1\] is \(2, 0\)", id="exact-position-3-is-2"),
    pytest.param(lambda m: {"exact_positions": _with(m.exact_positions, 3,
                                                     _with(m.exact_positions[3], 2, ZPhi(1, 1)))},
                 r"exact_positions\[3\]\[2\] is \(1, 1\)", id="exact-position-3-is-phi-squared"),
    # parts that are not ints: a float equal to 1, and a list, which no table can look up
    pytest.param(lambda m: {"exact_positions": _with(m.exact_positions, 3,
                                                     _with(m.exact_positions[3], 0, ZPhi(1.0)))},
                 r"exact_positions\[3\]\[0\] is \(1\.0, 0\)", id="exact-position-3-a-float"),
    pytest.param(lambda m: {"exact_positions": _with(m.exact_positions, 3,
                                                     _with(m.exact_positions[3], 0, ZPhi([1])))},
                 r"exact_positions\[3\]\[0\] is \(\[1\], 0\)", id="exact-position-3-a-list"),
    pytest.param(lambda m: {"squared_distances": _with(m.squared_distances, 0,
                                                       m.squared_distances[0][:19])},
                 r"squared_distances\[0\]\[19\] is missing", id="distances-0-19-entries"),
    # a ZPhi whose parts are not ints, which no distance comparison can read
    pytest.param(lambda m: {"squared_distances": _with(
                     m.squared_distances, 0, _with(m.squared_distances[0], 1, ZPhi([8])))},
                 r"squared_distances\[0\]\[1\] is \(\[8\], 0\)", id="distance-0-1-a-list"),
    pytest.param(lambda m: {"antipode": _with(m.antipode, 3, -1)}, r"antipode\[3\] is -1",
                 id="antipode-3-is-minus-1"),
    pytest.param(lambda m: {"antipode": _with(m.antipode, 3, True)}, r"antipode\[3\] is True",
                 id="antipode-3-is-True"),
    pytest.param(lambda m: {"antipode": _with(m.antipode, 3, 7.0)}, r"antipode\[3\] is 7\.0",
                 id="antipode-3-a-float"),
    pytest.param(lambda m: {"antipode": (*m.antipode[:3], None, 20, *m.antipode[5:])},
                 r"antipode\[3\] is None", id="antipode-first-of-two-faults"),
    pytest.param(lambda m: {"antipode": None}, r"antipode is None, not a tuple",
                 id="antipode-None"),
    pytest.param(lambda m: {"antipode": 5}, r"antipode is 5, not a tuple", id="antipode-an-int"),
    pytest.param(lambda m: {"antipode": iter(m.antipode)},
                 r"antipode is <tuple_iterator object at 0x[0-9a-f]+>, not a tuple",
                 id="antipode-an-iterator"),
    # a list would leave the model unhashable
    pytest.param(lambda m: {"antipode": list(m.antipode)},
                 r"antipode is \[19, 18, .*, 0\], not a tuple", id="antipode-a-list"),
]


def test_the_shape_faults_cover_every_field(model):
    named = {next(iter(param.values[0](model))) for param in _SHAPE_FAULTS}
    assert named == set(polytope.PolytopeModel._fields)


def _refused_by_every_maker(model, fault, refused):
    """Each of the seven ways to make a model refuses the fault, naming it."""
    ((field, bad),) = fault(model).items()
    # the message names the field its index path starts with, and that field's rule
    named = re.match(r"\w+", refused)[0]
    message = f"^{refused}; the {named} must be {re.escape(polytope._SHAPE[named][1])}$"
    fields = {**model._asdict(), field: bad}
    forged = tuple.__new__(polytope.PolytopeModel, fields.values())
    data = pickle.dumps(forged)
    for make in (lambda: model._replace(**{field: bad}),
                 lambda: polytope.PolytopeModel(*fields.values()),
                 lambda: polytope.PolytopeModel(**fields),
                 lambda: polytope.PolytopeModel._make(fields.values()),
                 lambda: copy.copy(forged), lambda: copy.deepcopy(forged),
                 lambda: pickle.loads(data)):
        with pytest.raises(ValueError, match=message):
            make()


@pytest.mark.parametrize("fault,refused", _SHAPE_FAULTS)
def test_a_model_refuses_a_shape_fault_in_any_field(model, fault, refused):
    _refused_by_every_maker(model, fault, refused)


# the antipode's faults of length and one id past the last; the table above
# holds its other faults
@pytest.mark.parametrize("fault,refused", [
    (lambda m: {"antipode": m.antipode[:19]}, r"antipode\[19\] is missing"),
    (lambda m: {"antipode": (*m.antipode, 0)}, r"antipode\[20\] is 0"),
    (lambda m: {"antipode": _with(m.antipode, 3, 20)}, r"antipode\[3\] is 20"),
], ids=["19-entries", "21-entries", "entry-20"])
def test_a_model_refuses_an_antipode_of_other_than_20_vertex_ids(model, fault, refused):
    _refused_by_every_maker(model, fault, refused)


def test_build_polytope_makes_its_model_through_the_contract(model, monkeypatch):
    compounds = polytope._compounds
    monkeypatch.setattr(polytope, "_compounds", lambda tets: compounds(tets) + ((),))
    with pytest.raises(ValueError, match=r"^compounds\[2\] is \(\); the compounds must be "):
        build_polytope()


def test_a_model_keeps_a_repeated_antipode_entry_for_verify(model):
    # 20 vertex ids that are no permutation: verify's checks measure it
    repeated = model._replace(antipode=(model.antipode[1], *model.antipode[1:]))
    assert type(repeated) is polytope.PolytopeModel
    assert repeated.antipode[:2] == (model.antipode[1],) * 2


def test_copies_and_pickles_are_equal_and_of_the_same_type(model):
    for x in (ZPhi(3, 5), ZPhi(-2), model):
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert twin == x and type(twin) is type(x)
    twin = pickle.loads(pickle.dumps(model))
    assert type(twin.exact_positions[0][0]) is type(twin.squared_distances[0][1]) is ZPhi
    assert twin.squared_distances == model.squared_distances


def test_opposite_faces_are_antipodal_images(model, opposite_faces):
    for f in range(12):
        assert opposite_faces[f] != f
        assert opposite_faces[opposite_faces[f]] == f
        assert set(model.faces[opposite_faces[f]]) == {model.antipode[v] for v in model.faces[f]}


def test_distance_spectrum_multiplicities(model):
    spectrum = distance_spectrum(model)
    assert sum(c for _, c in spectrum) == 190
    assert [c for _, c in spectrum] == [30, 60, 60, 30, 10]
    assert spectrum[0][1] == 30  # one per edge


def test_distance_spectrum_against_raw_pairwise_oracle(model):
    # independent recomputation with plain math, no shared code path
    pts = positions(model)
    raw = sorted(math.dist(pts[i], pts[j]) for i, j in combinations(range(20), 2))
    spectrum = distance_spectrum(model)
    expanded = [d for d, c in spectrum for _ in range(c)]
    assert len(raw) == len(expanded) == 190
    assert all(abs(a - b) < TOL for a, b in zip(raw, expanded))


def test_third_smallest_distance_is_tetrahedron_edge(model):
    # closed form for a regular tetrahedron inscribed in the unit sphere
    spectrum = distance_spectrum(model)
    assert abs(spectrum[2][0] - math.sqrt(8.0 / 3.0)) < TOL


def test_edge_length_closed_form(model):
    # unit-circumradius dodecahedron edge: (sqrt(5) - 1) / sqrt(3)
    spectrum = distance_spectrum(model)
    assert abs(spectrum[0][0] - (math.sqrt(5.0) - 1.0) / math.sqrt(3.0)) < TOL


# icosahedron face v is the triple of dodecahedron faces through vertex v
def test_dual_face_map_is_bijection(model):
    assert len(set(polytope._vertex_faces(model.faces))) == 20


def test_dual_adjacency_preserved_exhaustively(model):
    # two icosahedron faces share an edge (2 common icosa vertices, i.e.
    # 2 common dodecahedron faces) iff their dodecahedron vertices are adjacent
    icosa_faces = polytope._vertex_faces(model.faces)
    for u, w in combinations(range(20), 2):
        share = len(set(icosa_faces[u]) & set(icosa_faces[w])) == 2
        assert share == (w in model.adjacency[u])


def test_dual_pullback_gives_vertex_rainbow_icosahedron(model, colourings):
    # a valid vertex colouring, pulled back to icosahedron faces, puts all
    # five colours around every icosahedron vertex (= dodecahedron face)
    c = colourings[0]
    icosa_faces = polytope._vertex_faces(model.faces)
    for dodeca_face in range(12):
        incident = [v for v in range(20) if dodeca_face in icosa_faces[v]]
        assert len(incident) == 5
        assert {c[v] for v in incident} == {1, 2, 3, 4, 5}


def test_off_export(model):
    off = model_to_off(model)
    lines = off.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "20 12 30"
    assert len(lines) == 2 + 20 + 12
    assert off == model_to_off(model)


def test_off_round_trip(model):
    lines = model_to_off(model).splitlines()
    verts = [tuple(float(t) for t in ln.split()) for ln in lines[2:22]]
    faces = [tuple(int(t) for t in ln.split()[1:]) for ln in lines[22:]]
    assert all(ln.split()[0] == "5" for ln in lines[22:])
    assert verts == list(positions(model))  # .17g round-trips exactly
    assert tuple(faces) == model.faces


def test_json_round_trip(model):
    doc = json.loads(model_to_json(model))
    assert [tuple(p) for p in doc["vertices"]] == list(positions(model))
    assert [tuple(f) for f in doc["faces"]] == list(model.faces)
    assert tuple(doc["antipode"]) == model.antipode
    assert model_to_json(model) == model_to_json(build_polytope())


# ---------------------------------------------------------------------------
# the exact route against the float route

_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_ZPHI = st.builds(ZPhi, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


@settings(max_examples=300, deadline=None)
@given(x=_ZPHI, y=_ZPHI, z=_ZPHI)
def test_zphi_sign_and_ring_laws(x, y, z):
    # a nonzero a + b phi times its conjugate a + b (1 - phi) is a nonzero
    # integer, and the conjugate stays below 2e6 here, so |a + b phi| > 5e-7,
    # far above the float error: the float sign is reliable on this range
    value = x[0] + x[1] * _PHI
    assert x.sign() == (value > 0) - (value < 0)
    assert (x * y).sign() == x.sign() * y.sign()
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x - y == x + -y


def test_zphi_sign_near_zero():
    # F(n+1) - F(n) phi = (1 - phi)^n, of sign (-1)^n and size phi^-n
    fib = [0, 1]
    while fib[-1] < 10**12:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, len(fib) - 1):
        assert ZPhi(fib[n + 1], -fib[n]).sign() == (-1) ** n
        assert ZPhi(-fib[n + 1], fib[n]).sign() == -((-1) ** n)
    assert ZPhi(0).sign() == 0


def test_zphi_rejects_an_int_factor():
    with pytest.raises(TypeError):
        2 * ZPhi(1, 1)  # not tuple repetition


def test_exact_derivation_matches_float_route(model):
    # adjacency, faces, antipode, bands and tetrahedra rebuilt from the
    # exported float positions with a tolerance must equal the exact
    # derivation; the rings' order is checked on its own
    pos = np.array(positions(model))
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    edge = dist[dist > 1e-9].min()
    adjacency = [tuple(int(u) for u in np.flatnonzero(np.abs(row - edge) < 1e-9)) for row in dist]
    assert adjacency == [tuple(sorted(ring)) for ring in model.adjacency]

    # the faces are exactly the graph's 5-cycles: every one, found by brute
    # force, oriented by its Newell normal against its centroid
    paths = [(v,) for v in range(20)]
    for _ in range(4):
        paths = [p + (u,) for p in paths for u in adjacency[p[-1]] if u not in p]
    faces = set()
    for p in paths:
        if p[0] in adjacency[p[-1]]:
            pts = pos[list(p)]
            newell = np.cross(pts, np.roll(pts, -1, axis=0)).sum(axis=0)
            if newell @ pts.mean(axis=0) < 0:
                p = p[::-1]
            i = p.index(min(p))
            faces.add(p[i:] + p[:i])
    assert tuple(sorted(faces)) == model.faces

    sums = np.linalg.norm(pos[:, None, :] + pos[None, :, :], axis=2)
    assert (sums.min(axis=1) < 1e-9).all()
    assert tuple(int(a) for a in sums.argmin(axis=1)) == model.antipode

    heights = sorted(range(20), key=lambda v: -pos[v, 2])
    bands = [[heights[0]]]
    for v in heights[1:]:
        if abs(pos[v, 2] - pos[bands[-1][0], 2]) < 1e-6:
            bands[-1].append(v)
        else:
            bands.append([v])
    assert [sorted(b) for b in bands] == latitude_bands(model.exact_positions)

    tetra_edge = math.sqrt(8.0 / 3.0)
    tetrahedra = tuple(
        q for q in combinations(range(20), 4)
        if all(abs(dist[a, b] - tetra_edge) < 1e-9 for a, b in combinations(q, 2))
    )
    assert tetrahedra == inscribed_tetrahedra(model)


def test_squared_distances_are_exact_classes(model):
    classes = Counter(
        model.squared_distances[u][v] for u, v in combinations(range(20), 2)
    )
    # 8 - 4 phi, 4, 8, 4 + 4 phi and 12 at circumradius sqrt(3)
    assert classes == {ZPhi(8, -4): 30, ZPhi(4): 60, ZPhi(8): 60, ZPhi(4, 4): 30, ZPhi(12): 10}
    for p in model.exact_positions:
        assert sum((x * x for x in p), ZPhi(0)) == ZPhi(3)


# ---------------------------------------------------------------------------
# the pure-Python geometry against numpy

def test_positions_match_numpy_rotation(model):
    # the pole rotation rebuilt with numpy (Rodrigues on u x v) and applied
    # to the exact positions, each a + b phi as a float, as one matrix product
    u = np.ones(3) / math.sqrt(3.0)
    w = np.cross(u, [0.0, 0.0, 1.0])
    k = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    r = np.eye(3) + k + (k @ k) * ((1.0 - u[2]) / float(w @ w))
    raw = np.array([[a + b * _PHI for a, b in p] for p in model.exact_positions]) / math.sqrt(3.0)
    rotated = raw @ r.T
    assert np.abs(rotated - np.array(positions(model))).max() <= 1e-15


def test_fma_rounds_once():
    a = 1.0 + 2.0**-27
    c = -(1.0 + 2.0**-26)
    assert a * a + c == 0.0  # a*a = 1 + 2**-26 + 2**-54 loses its last term
    assert fma(a, a, c) == 2.0**-54


def _fraction_fma(a, b, c):
    """The reference: a * b + c in exact rationals, rounded once."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


@settings(max_examples=500)
@given(a=st.floats(allow_nan=False, allow_infinity=False),
       b=st.floats(allow_nan=False, allow_infinity=False),
       c=st.floats(allow_nan=False, allow_infinity=False))
def test_fma_matches_the_fraction_route(a, b, c):
    try:
        want = _fraction_fma(a, b, c)
    except OverflowError:
        with pytest.raises(OverflowError):
            fma(a, b, c)
        return
    got = fma(a, b, c)
    # the sign of zero too: an exact zero is +0.0 on both routes
    assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


@pytest.mark.parametrize("det, message", [
    (ZPhi(0), "zero determinant at the end of 0 -> 1"),
    (ZPhi(1), "right turns from 0 -> 1 do not close a pentagon"),
], ids=["zero", "no-mirror"])
def test_orientation_rule_rejects_a_broken_determinant(monkeypatch, det, message):
    # a zero determinant leaves no turn; a positive one for every neighbour
    # ignores the mirror, so the right turns wander off the faces
    monkeypatch.setattr(polytope, "det3", lambda m: det)
    with pytest.raises(AssertionError, match=message):
        build_polytope()


def test_compounds_rejects_a_tetrahedron_set_with_one_cover(model):
    tets = tuple(t for t in inscribed_tetrahedra(model) if t != model.compounds[1][0])
    with pytest.raises(AssertionError, match="^expected 2 compounds, found 1$"):
        polytope._compounds(tets)


def test_invariant_checks_survive_python_O(run_python):
    # under -O a bare assert would let a vertex off the sphere through
    proc = run_python("""
        from pentachrome import polytope

        if __debug__:
            raise SystemExit("not running under -O")
        exact, phi = polytope._exact_coordinates(), polytope.ZPhi(0, 1)
        polytope._exact_coordinates = lambda: ((phi, phi, phi),) + exact[1:]
        try:
            polytope.build_polytope()
        except AssertionError as exc:
            print(exc)
        else:
            raise SystemExit("build_polytope accepted a vertex off the sphere")
    """, flags=["-O"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "vertices not on the unit sphere"
