"""Inscribed regular tetrahedra, the two chiral compounds of five, colour
class classification, and the distance-spread brute force."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

from .polytope import TOL, PolytopeModel, Tetra, _fmt, centroid, cross, dot, norm, positions, sub
from . import chroma

TETRA_EDGE = math.sqrt(8.0 / 3.0)


@dataclass(frozen=True)
class Compound:
    """Five vertex-disjoint tetrahedra covering all 20 vertices."""

    label: str  # "A" or "B"
    tetrahedra: tuple[Tetra, ...]


def inscribed_tetrahedra(model: PolytopeModel) -> tuple[Tetra, ...]:
    """The 10 regular tetrahedra with vertices among the dodecahedron's,
    as sorted 4-tuples (derived by `build_polytope`)."""
    return model.tetrahedra


def compounds(model: PolytopeModel) -> tuple[Compound, Compound]:
    """The two compounds of five vertex-disjoint tetrahedra.

    Compound A is the one whose tetrahedron at vertex 0 has the
    lexicographically smaller member tuple.
    """
    tets_a, tets_b = model.compounds
    return Compound("A", tets_a), Compound("B", tets_b)


def classify_colouring(model: PolytopeModel, c) -> tuple[Compound, dict[int, Tetra]]:
    """Match the five colour classes to the tetrahedra of one compound.

    Returns the compound they form and the colour -> tetrahedron map.
    Raises ValueError if the colouring is invalid or the classes are not
    the tetrahedra of a single compound.
    """
    c = chroma.check_rainbow(model, c)
    classes = {
        colour: tuple(sorted(vs))
        for colour, vs in chroma.colour_classes(c).items()
    }
    class_set = set(classes.values())
    for comp in compounds(model):
        if class_set == set(comp.tetrahedra):
            return comp, classes
    raise ValueError("colour classes do not form a compound")


@dataclass(frozen=True)
class SpreadReport:
    """Result of the brute-force scan for well-spread vertex subsets."""

    threshold: float
    max_size: int
    maximal_subsets: tuple[Tetra, ...]
    four_subsets_checked: int
    five_extension_possible: bool


def spread_subsets(model: PolytopeModel) -> SpreadReport:
    """Scan all 4-subsets whose pairwise distances reach the tetrahedron edge.

    Checks every C(20,4) subset against the threshold and then tries to
    extend each survivor by a fifth vertex; no extension can succeed, so
    well-spread subsets have at most four vertices.
    """
    pos = positions(model)
    threshold = TETRA_EDGE - TOL
    ok = [[norm(sub(p, q)) >= threshold for q in pos] for p in pos]

    survivors = []
    checked = 0
    for quad in combinations(range(20), 4):
        checked += 1
        a, b, c, d = quad
        if ok[a][b] and ok[a][c] and ok[a][d] and ok[b][c] and ok[b][d] and ok[c][d]:
            survivors.append(quad)

    extension = False
    for quad in survivors:
        for e in range(20):
            if e in quad:
                continue
            if all(ok[e][v] for v in quad):
                extension = True

    return SpreadReport(
        threshold=threshold,
        max_size=5 if extension else (4 if survivors else 3),
        maximal_subsets=tuple(survivors),
        four_subsets_checked=checked,
        five_extension_possible=extension,
    )


# ---------------------------------------------------------------------------
# serialization

def compound_to_off(model: PolytopeModel, comp: Compound) -> str:
    """OFF mesh of a compound: 20 vertices, 4 coloured triangles per
    tetrahedron, faces oriented outward from each tetrahedron's centre."""
    pos = positions(model)
    lines = ["OFF", "20 20 30"]
    for v in model.vertices:
        lines.append(" ".join(_fmt(x) for x in v.position))
    for i, tet in enumerate(comp.tetrahedra):
        centre = centroid([pos[v] for v in tet])
        r, g, b = chroma._PALETTE[i]
        for tri in combinations(tet, 3):
            a, bb, cc = tri
            normal = cross(sub(pos[bb], pos[a]), sub(pos[cc], pos[a]))
            if dot(normal, sub(pos[a], centre)) < 0.0:
                tri = (a, cc, bb)
            lines.append("3 " + " ".join(str(v) for v in tri) + f" {r} {g} {b}")
    return "\n".join(lines) + "\n"


def compound_to_json(comp: Compound) -> str:
    doc = {"compound": comp.label, "tetrahedra": [list(t) for t in comp.tetrahedra]}
    return json.dumps(doc, separators=(",", ":")) + "\n"
