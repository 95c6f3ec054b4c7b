import copy
import math
import pickle
import random
from itertools import permutations

import numpy as np
import pytest

from pentachrome import compound as compound_mod
from pentachrome import symmetry
from pentachrome.chroma import canonical_cycle
from pentachrome.polytope import _vertex_faces, positions
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
    perm_order,
    perm_parity,
    spatial_determinant,
    tetra_action,
)


def axis_rotation(axis, angle):
    """Rodrigues: cos I + sin K + (1 - cos) a a^T for the unit axis a."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    c, s = math.cos(angle), math.sin(angle)
    return c * np.eye(3) + s * k + (1.0 - c) * np.outer(a, a)


def rotation_permutation(model, axis, angle):
    """Float reference route: the vertex permutation of a rotation about axis
    by angle, by nearest-vertex matching on the exported positions.  Raises
    unless every rotated vertex is within 1e-9 of a vertex, bijectively."""
    pos = np.array(positions(model))
    rotated = pos @ axis_rotation(axis, angle).T
    dist = np.linalg.norm(rotated[:, None, :] - pos[None, :, :], axis=2)
    p = tuple(int(w) for w in dist.argmin(axis=1))
    if dist.min(axis=1).max() >= 1e-9 or sorted(p) != list(range(20)):
        raise ValueError("rotation is not a symmetry of the vertex set")
    return p


def graph_automorphisms(adjacency):
    """Independent oracle: all adjacency-preserving bijections, by backtracking."""
    n = len(adjacency)
    adj = [set(a) for a in adjacency]
    autos = []

    def extend(mapping, used):
        v = len(mapping)
        if v == n:
            autos.append(tuple(mapping))
            return
        for img in range(n):
            if img in used:
                continue
            if all((u in adj[v]) == (mapping[u] in adj[img]) for u in range(v)):
                mapping.append(img)
                used.add(img)
                extend(mapping, used)
                mapping.pop()
                used.discard(img)

    extend([], set())
    return autos


def test_group_orders(rotations, full_symmetries):
    assert len(rotations) == 60
    assert len(full_symmetries) == 120
    assert all(sorted(p) == list(range(20)) for p in full_symmetries)


def test_identity_in_rotation_group(rotations):
    assert tuple(range(20)) in rotations


def test_element_orders(rotations):
    assert {perm_order(p) for p in rotations} == {1, 2, 3, 5}


def test_rotations_have_positive_determinant(model, rotations):
    assert all(spatial_determinant(model, p) == 1 for p in rotations)


def test_full_group_is_rotations_plus_inversion_coset(model, rotations, full_symmetries):
    mirrored = {compose(model.antipode, g) for g in rotations}
    assert set(full_symmetries) == set(rotations) | mirrored
    assert not set(rotations) & mirrored
    assert model.antipode in set(full_symmetries)
    assert model.antipode not in set(rotations)
    assert spatial_determinant(model, model.antipode) == -1


def test_full_group_equals_graph_automorphisms(model, full_symmetries):
    autos = graph_automorphisms(model.adjacency)
    assert len(autos) == 120
    assert set(autos) == set(full_symmetries)
    # every automorphism maps faces to faces
    face_sets = {frozenset(f) for f in model.faces}
    for p in autos:
        assert {frozenset(p[v] for v in f) for f in model.faces} == face_sets


def test_generator_independence(model, rotations):
    # a generator pair matched by the float reference route must build the
    # same group as the turn maps
    pos = positions(model)
    r3 = rotation_permutation(model, pos[7], 2.0 * math.pi / 3.0)
    face = model.faces[_vertex_faces(model.faces)[19][-1]]
    centre = np.mean([pos[v] for v in face], axis=0)
    r5 = rotation_permutation(model, centre, 2.0 * math.pi / 5.0)
    assert symmetry._closure([r3, r5], tuple(range(20)), compose) == frozenset(rotations)


def test_rotation_group_rejects_a_reversed_ring(model):
    # ring 1 runs clockwise, so the turns at the end of 0 -> 1 swap sides
    adjacency = (model.adjacency[0], model.adjacency[1][::-1], *model.adjacency[2:])
    with pytest.raises(ValueError, match="is not a permutation"):
        symmetry.rotation_group(model._replace(adjacency=adjacency))


def test_turn_map_names_the_image_ring_without_a_turn(model):
    # ring 7 loses vertex 2; the map onto 1 -> 0 takes the edge 5 -> 4 onto
    # 2 -> 7, so it is the image's ring that has no turns
    adjacency = model.adjacency[:7] + ((12, 17, 13),) + model.adjacency[8:]
    with pytest.raises(ValueError, match="^the ring of 7 has no turns at the end of 2 -> 7$"):
        symmetry._turn_map(model._replace(adjacency=adjacency), 1, 0, 1)


def test_rotation_permutation_rejects_non_symmetry(model):
    with pytest.raises(ValueError):
        rotation_permutation(model, (0.0, 0.0, 1.0), 2.0 * math.pi / 5.0)


def test_transitivity(model, edges, rotations):
    assert {p[0] for p in rotations} == set(range(20))
    e0 = edges[0]
    assert len({tuple(sorted((p[e0[0]], p[e0[1]]))) for p in rotations}) == 30
    f0 = model.faces[0]
    assert len({tuple(sorted(p[v] for v in f0)) for p in rotations}) == 12


def test_stabilizer_orders(model, edges, rotations):
    assert sum(1 for p in rotations if p[0] == 0) == 3
    f0 = set(model.faces[0])
    assert sum(1 for p in rotations if {p[v] for v in f0} == f0) == 5
    e0 = set(edges[0])
    assert sum(1 for p in rotations if {p[v] for v in e0} == e0) == 2


def test_antipode_equivariance(model, full_symmetries):
    anti = model.antipode
    for p in full_symmetries:
        assert all(p[anti[v]] == anti[p[v]] for v in range(20))


def test_edges_and_faces_preserved(model, edges, full_symmetries):
    edge_set = {frozenset(e) for e in edges}
    face_sets = {frozenset(f) for f in model.faces}
    for p in full_symmetries:
        assert {frozenset((p[u], p[v])) for u, v in edges} == edge_set
        assert {frozenset(p[v] for v in f) for f in model.faces} == face_sets


def test_compose_invert_axioms(rotations):
    def invert(p):
        inverse = [0] * len(p)
        for v, w in enumerate(p):
            inverse[w] = v
        return tuple(inverse)

    rng = random.Random(8273)
    pool = list(rotations)
    members = set(rotations)
    for _ in range(50):
        p, q, r = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert compose(p, invert(p)) == tuple(range(20))
        assert compose(invert(p), p) == tuple(range(20))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))
        assert perm_parity(compose(p, q)) == perm_parity(p) * perm_parity(q)
        assert compose(p, q) in members  # closure
        assert invert(p) in members


def test_spatial_determinant_matches_numpy_determinant(model, full_symmetries):
    # float route: the matrix taking vertices 0, 1, 4 to their images is
    # orthogonal, maps every vertex to its image, and has determinant +-1
    pos = np.array(positions(model))
    inv_base = np.linalg.inv(pos[[0, 1, 4]].T)
    for p in full_symmetries:
        mat = pos[[p[0], p[1], p[4]]].T @ inv_base
        assert np.allclose(mat @ mat.T, np.eye(3), atol=1e-9)
        assert np.allclose(pos @ mat.T, pos[list(p)], atol=1e-9)
        assert spatial_determinant(model, p) == round(np.linalg.det(mat))


@pytest.mark.parametrize("p", [
    None,
    (0, 1, 2),
    "12345" * 4,
    (1, 0) + tuple(range(2, 20)),
], ids=["None", "short", "str", "transposition"])
def test_spatial_determinant_rejects_non_symmetries(model, p):
    with pytest.raises(ValueError):
        spatial_determinant(model, p)


def test_spatial_determinant_reports_a_missing_turn_pair(model):
    # vertex 0 then has vertex 1's neighbours, so a is 0 itself, and the turn
    # at the end of 0 -> 0 spans no volume
    adjacency = (model.adjacency[1], model.adjacency[0]) + model.adjacency[2:]
    with pytest.raises(ValueError, match="^zero determinant at the end of 0 -> 0$"):
        spatial_determinant(model._replace(adjacency=adjacency), tuple(range(20)))


def test_tetra_action_identity(model):
    comp_a, _ = compound_mod.compounds(model)
    assert tetra_action(tuple(range(20)), comp_a.tetrahedra) == (0, 1, 2, 3, 4)


def test_tetra_action_is_isomorphism_onto_even_permutations(model, rotations):
    comp_a, comp_b = compound_mod.compounds(model)
    for comp in (comp_a, comp_b):
        images = {}
        for g in rotations:
            a = tetra_action(g, comp.tetrahedra)
            assert perm_parity(a) == 1
            images.setdefault(a, []).append(g)
        assert len(images) == 60  # injective, image is all of A5
        even = {p for p in permutations(range(5)) if perm_parity(p) == 1}
        assert set(images) == even


def test_tetra_action_homomorphism(model, rotations):
    comp_a, _ = compound_mod.compounds(model)
    rng = random.Random(515)
    pool = list(rotations)
    for _ in range(30):
        g, h = rng.choice(pool), rng.choice(pool)
        assert tetra_action(compose(g, h), comp_a.tetrahedra) == compose(
            tetra_action(g, comp_a.tetrahedra),
            tetra_action(h, comp_a.tetrahedra),
        )


def test_tetra_action_rejects_non_stabilizing_permutation(model):
    comp_a, _ = compound_mod.compounds(model)
    with pytest.raises(ValueError):
        tetra_action(model.antipode, comp_a.tetrahedra)


def test_colour_symmetry_validation():
    with pytest.raises(ValueError):
        ColourSymmetry((1, 1, 2, 3, 4), 1)
    with pytest.raises(ValueError):
        ColourSymmetry((1, 2, 3, 4, 5), 0)


@pytest.mark.parametrize("perm,sign", [
    ((1, 2, 3, 4, 5), True),
    ((True, 2, 3, 4, 5), 1),
    ((1.0, 2, 3, 4, 5), 1),
    ((1, 2, 3, 4, 5), 1.0),
    ([1, 2, 3, 4, 5], 1),
    (None, 1),
], ids=["sign-True", "perm-True", "perm-float", "sign-float", "perm-list", "perm-None"])
def test_colour_symmetry_rejects_non_int_entries(perm, sign):
    # bool is a subclass of int, and True == 1, but True is no colour or sign
    with pytest.raises(ValueError):
        ColourSymmetry(perm, sign)


def _inverse(g):
    """g's inverse: the colours ordered by their images, with g's sign."""
    return ColourSymmetry(tuple(sorted(range(1, 6), key=lambda x: g.perm[x - 1])), g.sign)


def _parity(g):
    return perm_parity(tuple(x - 1 for x in g.perm))


def test_colour_symmetry_group_axioms():
    rng = random.Random(90125)
    pool = sorted(colour_group())
    assert len(pool) == 240
    for _ in range(60):
        g, h, k = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert (g * h) * k == g * (h * k)
        assert g * _inverse(g) == COLOUR_IDENTITY == _inverse(g) * g
        assert (g * h).sign == g.sign * h.sign
        assert _parity(g * h) == _parity(g) * _parity(h)


def test_generate_subgroup_cases():
    assert generate_subgroup([]) == frozenset({COLOUR_IDENTITY})
    assert generate_subgroup([COLOUR_SWAP]) == frozenset({COLOUR_IDENTITY, COLOUR_SWAP})
    transpositions = [
        ColourSymmetry(tuple(_swapped(i, j)), 1)
        for i in range(1, 6)
        for j in range(i + 1, 6)
    ]
    closure = generate_subgroup(transpositions)
    assert len(closure) == 120
    # oracle: direct enumeration of all colour permutations with sign +1
    assert closure == frozenset(
        ColourSymmetry(p, 1) for p in permutations((1, 2, 3, 4, 5))
    )


def _swapped(i, j):
    base = list(range(1, 6))
    base[i - 1], base[j - 1] = base[j - 1], base[i - 1]
    return base


def test_subgroup_orders_divide_240():
    rng = random.Random(4)
    pool = sorted(colour_group())
    for _ in range(20):
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        assert 240 % len(generate_subgroup(gens)) == 0


@pytest.mark.parametrize(
    "name,order",
    [("trivial", 1), ("C2", 2), ("S5", 120), ("A5", 60), ("A5xC2", 120), ("S5xC2", 240)],
)
def test_named_subgroups(name, order):
    H = named_subgroup(name)
    assert len(H) == order
    assert COLOUR_IDENTITY in H
    assert all(g * h in H for g in H for h in H)
    if name == "S5xC2":
        assert H == colour_group()


def test_named_subgroup_unknown():
    with pytest.raises(ValueError):
        named_subgroup("D10")


def test_library_subgroups_are_made_checked():
    made = [colour_group(), generate_subgroup([COLOUR_SWAP]), generate_subgroup([])]
    made += [named_subgroup(name) for name in NAMED_SUBGROUPS]
    assert all(type(H) is Subgroup for H in made)
    # each equals the group its elements generate, checked from scratch
    assert all(Subgroup(list(H)) == H and type(Subgroup(list(H))) is Subgroup for H in made)


def test_subgroup_is_its_frozenset():
    H, G = named_subgroup("A5"), colour_group()
    plain = frozenset(H)
    assert H == plain and hash(H) == hash(plain) and sorted(H) == sorted(plain)
    g = min(G - H)
    # a set operation may leave the group, so it returns a plain frozenset
    for result in (H | {g}, H - {g}, H & G, H ^ {g}, H.union([g]), H.difference([g]), H.copy()):
        assert type(result) is frozenset
    assert type(Subgroup(H)) is Subgroup and Subgroup(H) is H


@pytest.mark.parametrize("bad", [
    [COLOUR_SWAP],
    [COLOUR_IDENTITY, ColourSymmetry((2, 3, 1, 4, 5), 1)],
    None,
    [1],
    [((1, 2, 3, 4, 5), 1)],
], ids=["no-identity", "not-closed", "None", "int", "bare-pair"])
def test_subgroup_rejects_a_non_group(bad):
    with pytest.raises(ValueError):
        Subgroup(bad)


def test_subgroup_copy_and_pickle_check_again(census):
    H = named_subgroup("S5")
    twins = []
    (calls,) = census(lambda: twins.extend(
        [copy.copy(H), copy.deepcopy(H), pickle.loads(pickle.dumps(H))]))
    assert all(twin == H and type(twin) is Subgroup for twin in twins)
    assert calls["symmetry._check_subgroup"] == 3


# the three permutation tests that `symmetry._permutes` replaced, kept as
# its references: a vertex permutation, a colour permutation and, on the
# tuple `canonical_cycle` makes, a colour cycle
def _vertex_perm_by_parent(p):
    return (isinstance(p, (tuple, list)) and len(p) == 20
            and all(type(x) is int for x in p) and sorted(p) == list(range(20)))


def _colour_perm_by_parent(perm):
    return (type(perm) is tuple and tuple(map(type, perm)) == (int,) * 5
            and sorted(perm) == [1, 2, 3, 4, 5])


def _colour_cycle_by_parent(order):
    return tuple(map(type, order)) == (int,) * 5 and sorted(order) == [1, 2, 3, 4, 5]


class _Int(int):
    """Equal to an int, but of another type."""


_VERTICES = tuple(range(20))
_PERMUTATION_INPUTS = [
    (1, 2, 3, 4, 5), (3, 1, 5, 2, 4), [2, 1, 3, 4, 5], (True, 2, 3, 4, 5), (1.0, 2, 3, 4, 5),
    (_Int(1), 2, 3, 4, 5), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 1), (1, 1, 2, 3, 4),
    (1, "2", 3, 4, 5), (0, 1, 2, 3, 4), (),
    _VERTICES, _VERTICES[::-1], list(_VERTICES), _VERTICES[1:] + _VERTICES[:1],
    (False, True) + _VERTICES[2:], (0.0,) + _VERTICES[1:], (_Int(0),) + _VERTICES[1:],
    _VERTICES[:19], _VERTICES + (20,), _VERTICES[:19] + (0,), (0,) + _VERTICES[:19],
    _VERTICES[:19] + ("19",), _VERTICES[:19] + (_Int(19),), tuple(range(1, 21)),
]


def _accepts(check, x):
    try:
        check(x)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("x", _PERMUTATION_INPUTS)
def test_permutation_checks_match_the_parent_expressions(x):
    assert _accepts(symmetry._check_vertex_perm, x) == _vertex_perm_by_parent(x)
    assert _accepts(ColourSymmetry, x) == _colour_perm_by_parent(x)
    assert _accepts(canonical_cycle, x) == _colour_cycle_by_parent(tuple(x))
    assert symmetry._permutes(x, range(20)) == _vertex_perm_by_parent(list(x))
    assert symmetry._permutes(x, range(1, 6)) == _colour_perm_by_parent(tuple(x))
