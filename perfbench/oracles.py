"""Independent oracles for checking pentachrome's outputs.

Everything here is computed from the exported dodecahedron (vertex
coordinates, oriented face list, antipodal map) by code written apart from
the package: its own enumerator (face by face, not vertex by vertex), its
own closure over S5 x {+1,-1}, its own cyclic-order parity (by inversion
count, not cycle type), its own action formula and its own regular
tetrahedron test.  `Oracle.self_check` makes the oracles agree with each
other before any workload trusts them.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

COLOURS = (1, 2, 3, 4, 5)
TETRA_EDGE = math.sqrt(8.0 / 3.0)
TOL = 1e-9
ID_PERM = (1, 2, 3, 4, 5)
IDENTITY = (ID_PERM, 1)

# Named colour subgroups, each given by generators of (perm, sign), where
# perm[i - 1] is the image of colour i.
_TRANSPOSITION = ((2, 1, 3, 4, 5), 1)
_THREE_CYCLE = ((2, 3, 1, 4, 5), 1)
_FIVE_CYCLE = ((2, 3, 4, 5, 1), 1)
_SWAP = (ID_PERM, -1)
NAMED_GENERATORS = {
    "trivial": (),
    "C2": (_SWAP,),
    "S5": (_TRANSPOSITION, _FIVE_CYCLE),
    "A5": (_THREE_CYCLE, _FIVE_CYCLE),
    "A5xC2": (_THREE_CYCLE, _FIVE_CYCLE, _SWAP),
    "S5xC2": (_TRANSPOSITION, _FIVE_CYCLE, _SWAP),
}


class OracleError(RuntimeError):
    """The oracles disagree with each other or with a known fact."""


def multiply(g, h):
    """g after h on (perm, sign) pairs."""
    (p, s), (q, t) = g, h
    return tuple(p[q[i] - 1] for i in range(5)), s * t


def closure(generators) -> frozenset:
    """The subgroup of S5 x {+1,-1} generated by `generators`."""
    group = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                b = multiply(a, g)
                if b not in group:
                    group.add(b)
                    fresh.append(b)
        frontier = fresh
    return frozenset(group)


def spec_text(generators) -> str:
    """The CLI's `--subgroup` generator notation, e.g. '(1 2 3),+1; id,-1'."""
    items = []
    for perm, sign in generators:
        seen, cycles = set(), []
        for start in COLOURS:
            if start in seen or perm[start - 1] == start:
                continue
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = perm[x - 1]
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
        items.append(("".join(cycles) or "id") + ("," + ("+1" if sign == 1 else "-1")))
    return "; ".join(items)


def order_parity(order) -> int:
    """+1 if the colour sequence is an even permutation of 1..5, else -1."""
    inversions = sum(1 for i, j in combinations(range(len(order)), 2) if order[i] > order[j])
    return 1 if inversions % 2 == 0 else -1


class Oracle:
    """Facts about the exported dodecahedron, computed without the package."""

    def __init__(self, model_doc: dict):
        self.coords = [tuple(map(float, p)) for p in model_doc["vertices"]]
        self.faces = [tuple(f) for f in model_doc["faces"]]
        self.antipode = tuple(model_doc["antipode"])
        self.neighbours = [set() for _ in self.coords]
        self.faces_at = [[] for _ in self.coords]
        for fid, face in enumerate(self.faces):
            for i, v in enumerate(face):
                self.neighbours[v].update((face[i - 1], face[(i + 1) % 5]))
                self.faces_at[v].append(fid)
        self.colourings = self._enumerate()
        self.colouring_set = frozenset(self.colourings)

    # -- colourings ---------------------------------------------------------

    def _enumerate(self) -> tuple:
        """Backtracking face by face: give each face's open vertices every
        arrangement of its missing colours, keep those that repeat no colour
        on any face."""
        col = [0] * len(self.coords)
        out = []

        def consistent(vertices) -> bool:
            for fid in {f for v in vertices for f in self.faces_at[v]}:
                seen = [col[v] for v in self.faces[fid] if col[v]]
                if len(seen) != len(set(seen)):
                    return False
            return True

        def fill(i: int) -> None:
            if i == len(self.faces):
                out.append(tuple(col))
                return
            face = self.faces[i]
            open_vs = [v for v in face if not col[v]]
            missing = [x for x in COLOURS if x not in {col[v] for v in face}]
            for arrangement in permutations(missing):
                for v, x in zip(open_vs, arrangement):
                    col[v] = x
                if consistent(open_vs):
                    fill(i + 1)
            for v in open_vs:
                col[v] = 0

        fill(0)
        return tuple(sorted(out))

    def is_valid(self, c) -> bool:
        return self.first_short_face(c) is None

    def first_short_face(self, c):
        """The first face, in exported order, that lacks one of the colours."""
        for fid, face in enumerate(self.faces):
            if len({c[v] for v in face}) != 5:
                return fid
        return None

    def classes(self, c) -> dict:
        return {x: tuple(v for v in range(len(c)) if c[v] == x) for x in COLOURS}

    def mutate(self, rng, c) -> tuple:
        """`c` with two differently coloured vertices swapped; never valid."""
        while True:
            u, w = rng.sample(range(len(c)), 2)
            if c[u] == c[w]:
                continue
            m = list(c)
            m[u], m[w] = m[w], m[u]
            m = tuple(m)
            if not self.is_valid(m):
                return m

    # -- the colour action ----------------------------------------------------

    def act(self, g, c) -> tuple:
        """Relabel the colours by g's permutation; for sign -1 take each
        vertex's colour from its antipode."""
        perm, sign = g
        relabelled = [perm[x - 1] for x in c]
        if sign == -1:
            relabelled = [relabelled[self.antipode[v]] for v in range(len(c))]
        return tuple(relabelled)

    def antipodal_rule_holds(self, c) -> bool:
        for v in range(len(c)):
            local = {c[v]} | {c[u] for u in self.neighbours[v]}
            if len(local) != 4 or {c[self.antipode[v]]} != set(COLOURS) - local:
                return False
        return True

    # -- cyclic orders --------------------------------------------------------

    def cyclic_order(self, c, fid: int) -> tuple:
        """The face's colours read in its exported sense, starting at colour 1."""
        seq = [c[v] for v in self.faces[fid]]
        k = seq.index(1)
        return tuple(seq[k:] + seq[:k])

    # -- geometry -------------------------------------------------------------

    def is_regular_tetrahedron(self, vertices) -> bool:
        return len(set(vertices)) == 4 and all(
            abs(math.dist(self.coords[a], self.coords[b]) - TETRA_EDGE) < TOL
            for a, b in combinations(vertices, 2)
        )

    def is_compound(self, tetrahedra) -> bool:
        """Five regular tetrahedra covering the 20 vertices once each."""
        covered = sorted(v for t in tetrahedra for v in t)
        return (
            len(tetrahedra) == 5
            and covered == list(range(len(self.coords)))
            and all(self.is_regular_tetrahedron(t) for t in tetrahedra)
        )

    # -- agreement ------------------------------------------------------------

    def self_check(self) -> None:
        """Make the oracles agree with each other and with the paper's counts."""

        def require(ok: bool, what: str) -> None:
            if not ok:
                raise OracleError(what)

        require(len(self.coords) == 20 and len(self.faces) == 12, "model size")
        require(len(self.colourings) == 240, f"{len(self.colourings)} colourings")
        require(all(self.is_valid(c) for c in self.colourings), "enumerated colouring invalid")

        orders = {name: len(closure(gens)) for name, gens in NAMED_GENERATORS.items()}
        want = {"trivial": 1, "C2": 2, "S5": 120, "A5": 60, "A5xC2": 120, "S5xC2": 240}
        require(orders == want, f"named subgroup orders {orders}")

        group = closure(NAMED_GENERATORS["S5xC2"])
        c0 = self.colourings[0]
        orbit = {self.act(g, c0) for g in group}
        require(orbit == self.colouring_set, "action is not simply transitive on colourings")

        require(order_parity(ID_PERM) == 1 and order_parity((1, 3, 4, 5, 2)) == -1, "parity")
        parity_count = {1: 0, -1: 0}
        for c in self.colourings:
            parities = {order_parity(self.cyclic_order(c, f)) for f in range(12)}
            require(len(parities) == 1, "face parities of one colouring disagree")
            parity_count[parities.pop()] += 1
            require(self.antipodal_rule_holds(c), "antipodal colour rule")
            require(
                all(self.is_regular_tetrahedron(t) for t in self.classes(c).values()),
                "a colour class is not a regular tetrahedron",
            )
        require(parity_count == {1: 120, -1: 120}, f"parity split {parity_count}")
