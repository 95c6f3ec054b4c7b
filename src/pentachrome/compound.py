"""Inscribed regular tetrahedra, the two chiral compounds of five, colour
class classification, and the distance-spread brute force.

`classify_colouring` checks the colouring on its model and matches the set
of its colour classes with each compound's set of tetrahedra, A first.  Its
answer is kept for each distinct value of the compounds and the colouring
(`_classify`), and each call returns a fresh classes dict."""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .polytope import _PALETTE, _TETRA_EDGE2, PolytopeModel, Tetra, _off_mesh, det3
from . import chroma

TETRA_EDGE = math.sqrt(8.0 / 3.0)


class Compound(NamedTuple):
    """Five vertex-disjoint tetrahedra covering all 20 vertices."""

    label: str  # "A" or "B"
    tetrahedra: tuple[Tetra, ...]


def inscribed_tetrahedra(model: PolytopeModel) -> tuple[Tetra, ...]:
    """The inscribed regular tetrahedra: the distinct tetrahedra of the two
    compounds, sorted (the 10 sorted 4-tuples on the canonical model)."""
    return tuple(sorted({t for comp in model.compounds for t in comp}))


def compounds(model: PolytopeModel) -> tuple[Compound, Compound]:
    """The two compounds of five vertex-disjoint tetrahedra.

    Compound A is the one whose tetrahedron at vertex 0 has the
    lexicographically smaller member tuple.
    """
    return tuple(map(Compound, "AB", model.compounds))


def classify_colouring(model: PolytopeModel, c) -> tuple[Compound, dict[int, Tetra]]:
    """Match the five colour classes to the tetrahedra of one compound.

    Returns the compound they form and the colour -> tetrahedron map.
    Raises ValueError if the colouring is invalid or the classes are not
    the tetrahedra of a single compound.
    """
    comp, items = _classify(model.compounds, chroma.check_rainbow(model, c))
    return comp, dict(items)


@lru_cache(maxsize=256)
def _classify(pair, c: chroma.Colouring) -> tuple[Compound, tuple[tuple[int, Tetra], ...]]:
    """The compound of c's colour classes and the (colour, class) items, for
    a model's `compounds` pair and a face-rainbow colouring, kept for each
    distinct pair of values (a model has 240 rainbow colourings).  A wins a
    tie; classes that form no compound raise, and are not kept."""
    classes = chroma.colour_classes(c, tuple)
    tets = frozenset(classes.values())
    for label, comp in zip("AB", pair):
        if frozenset(comp) == tets:
            return Compound(label, comp), tuple(classes.items())
    raise ValueError("colour classes do not form a compound")


class SpreadReport(NamedTuple):
    """The exact scan for vertex subsets spread at least a tetrahedron edge apart."""

    max_size: int  # 5 if a well-spread 4-subset extends by a fifth vertex
    maximal_subsets: tuple[Tetra, ...]
    four_subsets_checked: int


def spread_subsets(model: PolytopeModel) -> SpreadReport:
    """Scan all 4-subsets whose pairwise distances reach the tetrahedron edge.

    Checks every C(20,4) subset against the threshold, comparing exact
    squared distances with the tetrahedron's, and then tries to extend each
    survivor by a fifth vertex; no extension can succeed, so well-spread
    subsets have at most four vertices.
    """
    ok = [[(d - _TETRA_EDGE2).sign() >= 0 for d in row] for row in model.squared_distances]

    quads = list(combinations(range(20), 4))
    survivors = tuple(
        (a, b, c, d) for a, b, c, d in quads
        if ok[a][b] and ok[a][c] and ok[a][d] and ok[b][c] and ok[b][d] and ok[c][d]
    )
    extension = any(all(ok[e][v] for v in q) for q in survivors for e in range(20) if e not in q)
    return SpreadReport(
        max_size=5 if extension else (4 if survivors else 3),
        maximal_subsets=survivors,
        four_subsets_checked=len(quads),
    )


# ---------------------------------------------------------------------------
# serialization

def compound_to_off(model: PolytopeModel, comp: Compound) -> str:
    """OFF mesh of a compound: 20 vertices, 4 coloured triangles per
    tetrahedron, faces oriented outward from each tetrahedron's centre.
    That centre is the origin, so triangle abc faces outward iff the exact
    det(a, b, c) is positive."""
    x = model.exact_positions
    polygons = []
    for colour, tet in zip(_PALETTE, comp.tetrahedra):
        for a, b, c in combinations(tet, 3):
            if det3((x[a], x[b], x[c])).sign() < 0:
                b, c = c, b
            polygons.append((3, a, b, c, *colour))
    return _off_mesh(model, polygons)


def compound_to_json(comp: Compound) -> str:
    doc = {"compound": comp.label, "tetrahedra": [list(t) for t in comp.tetrahedra]}
    return json.dumps(doc, separators=(",", ":")) + "\n"
