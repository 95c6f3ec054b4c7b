"""Command-line surface: verification, enumeration export, orbit queries,
colouring classification and mesh export.

Exit codes: 0 success, 1 failure (invalid colouring, failed verification,
an output that cannot be written, a closed stdout included), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import chroma, verify
from . import compound as compound_mod
from .polytope import build_polytope, model_to_json, model_to_off
from .symmetry import NAMED_SUBGROUPS, ColourSymmetry, generate_subgroup, named_subgroup

# the text is stripped, so only the space after a cycle is matched; a leading
# \s* too lets cycles split the spaces between them and backtrack exponentially
_CYCLES_RE = re.compile(r"(?:\(\s*\d+(?:[\s,]+\d+)*\s*\)\s*)+")


def _parse_colour_perm(text: str) -> tuple[int, int, int, int, int]:
    """Parse disjoint cycle notation on {1..5}, e.g. '(1 2)(3 4 5)' or 'id'."""
    text = text.strip()
    if text in ("id", "e", "()"):
        return (1, 2, 3, 4, 5)
    if not _CYCLES_RE.fullmatch(text):
        raise ValueError(f"cannot parse cycle notation: {text!r}")
    image = {i: i for i in range(1, 6)}
    seen: set[int] = set()
    for body in re.findall(r"\(([^()]*)\)", text):
        entries = [int(tok) for tok in re.split(r"[\s,]+", body.strip()) if tok]
        if any(not 1 <= x <= 5 for x in entries):
            raise ValueError(f"cycle entries must be colours 1..5: {body!r}")
        if len(set(entries)) != len(entries) or seen & set(entries):
            raise ValueError(f"cycles must be disjoint: {text!r}")
        seen.update(entries)
        for i, x in enumerate(entries):
            image[x] = entries[(i + 1) % len(entries)]
    return tuple(image[i] for i in range(1, 6))


def parse_subgroup_spec(text: str) -> frozenset[ColourSymmetry]:
    """A named subgroup, or a ';'-separated generator list of 'cycles,sign'.

    Examples: 'A5', 'trivial', '(1 2),+1', '(1 2 3 4 5),+1; id,-1'.
    The closure of the generators is always computed.
    """
    text = text.strip()
    if text in NAMED_SUBGROUPS:
        return named_subgroup(text)
    generators = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            raise ValueError("empty generator entry")
        if "," not in item:
            raise ValueError(f"generator must be 'cycles,sign': {item!r}")
        cycles, sign_text = item.rsplit(",", 1)
        sign_text = sign_text.strip()
        if sign_text not in ("+1", "-1"):
            raise ValueError(f"sign must be +1 or -1: {sign_text!r}")
        generators.append(
            ColourSymmetry(_parse_colour_perm(cycles), 1 if sign_text == "+1" else -1)
        )
    return generate_subgroup(generators)


def _colouring_digits(c) -> str:
    return "".join(str(x) for x in c)


def _load_colouring(path):
    """The colouring in a JSON file, or None after a one-line error on stderr."""
    try:
        with open(path) as fh:
            return chroma.colouring_from_json(fh.read())
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
    except ValueError as exc:  # json.JSONDecodeError included
        print(f"malformed colouring file: {exc}", file=sys.stderr)
    return None


def _write(path, text: str) -> int:
    """Write text to path: 0, or 1 after a one-line error on stderr."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    model = build_polytope()
    checks = verify.run_checks(model)
    failed = [c for c in checks if not c.ok]
    if args.json:
        doc = {
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
            ],
            "passed": len(checks) - len(failed),
            "failed": len(failed),
        }
        print(json.dumps(doc, indent=2))
    else:
        for c in checks:
            status = "PASS" if c.ok else "FAIL"
            detail = f": {c.detail}" if c.detail else ""
            print(f"{status}  {c.name}{detail}")
        print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 0 if not failed else 1


def cmd_enumerate(args) -> int:
    model = build_polytope()
    return _write(args.out, chroma.enumeration_to_json(chroma.enumerate_colourings(model)))


def cmd_orbits(args, subgroup) -> int:
    model = build_polytope()
    all_c = chroma.enumerate_colourings(model)
    orbits = chroma.orbit_partition(all_c, subgroup, model)
    sizes = sorted({len(o) for o in orbits})
    reps = [min(o) for o in orbits]
    if args.json:
        doc = {
            "subgroup": args.subgroup,
            "order": len(subgroup),
            "orbit_count": len(orbits),
            "orbit_sizes": [len(o) for o in orbits],
            "representatives": [list(r) for r in reps],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"subgroup order: {len(subgroup)}")
        print(f"orbit count: {len(orbits)}")
        print(f"orbit sizes: {sizes}")
        print("representatives:")
        for r in reps:
            print(f"  {_colouring_digits(r)}")
    return 0


def cmd_classify(args) -> int:
    model = build_polytope()
    c = _load_colouring(args.infile)
    if c is None:
        return 1

    if not chroma.is_valid(model, c):
        face = chroma.first_violated_face(model, c)
        if args.json:
            print(json.dumps({"valid": False, "first_violated_face": face}))
        else:
            colours = [c[v] for v in model.faces[face]]
            print(f"INVALID: face {face} carries colours {colours}")
        return 1

    comp, classes = compound_mod.classify_colouring(model, c)
    sig = chroma.face_parity_signature(model, c)
    parity = "odd" if sig[0][2] == -1 else "even"
    handedness = chroma.working_handedness(model, c)
    if args.json:
        doc = {
            "valid": True,
            "compound": comp.label,
            "parity": parity,
            "handedness": handedness,
            "colour_classes": {str(col): list(t) for col, t in sorted(classes.items())},
            "cyclic_orders": [
                {"face": fid, "order": list(order), "parity": "odd" if p == -1 else "even"}
                for fid, order, p in sig
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        print("valid: yes")
        print(f"compound: {comp.label}")
        print(f"cyclic-order parity: {parity} on all 12 faces")
        print(f"working zigzag handedness: {handedness}")
        print("colour classes (tetrahedra):")
        for col, t in sorted(classes.items()):
            print(f"  colour {col}: {t}")
        print("face cyclic orders:")
        for fid, order, p in sig:
            print(f"  face {fid:2d}: {' '.join(map(str, order))}  ({'odd' if p == -1 else 'even'})")
    return 0


def cmd_export(args) -> int:
    model = build_polytope()
    what, fmt = args.what, args.format
    if what == "dodecahedron":
        text = model_to_off(model) if fmt == "off" else model_to_json(model)
    elif what in ("compound-A", "compound-B"):
        comp_a, comp_b = compound_mod.compounds(model)
        comp = comp_a if what == "compound-A" else comp_b
        text = (
            compound_mod.compound_to_off(model, comp)
            if fmt == "off"
            else compound_mod.compound_to_json(comp)
        )
    else:  # colouring
        c = _load_colouring(args.infile)
        if c is None:
            return 1
        text = chroma.colouring_to_off(model, c) if fmt == "off" else chroma.colouring_to_json(c)
    return _write(args.out, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentachrome",
        description="Rainbow 5-colourings of the dodecahedron: verify, enumerate, "
        "query orbits, classify, export meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("enumerate", help="write all 240 colourings")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=["json"], default="json")

    p = sub.add_parser("orbits", help="orbit report for a colour subgroup")
    p.add_argument(
        "--subgroup",
        required=True,
        help="named subgroup (%s) or generators 'cycles,sign; ...'"
        % "|".join(NAMED_SUBGROUPS),
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="classify a colouring file")
    p.add_argument("--in", dest="infile", required=True, help="colouring JSON path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("export", help="write meshes and JSON artifacts")
    p.add_argument(
        "--what",
        required=True,
        choices=["dodecahedron", "compound-A", "compound-B", "colouring"],
    )
    p.add_argument("--format", required=True, choices=["off", "json"])
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--in", dest="infile", help="colouring JSON path (for --what colouring)")

    return parser


def main(argv=None) -> int:
    try:
        try:
            return _dispatch(argv)
        finally:  # a closed stdout raises here, inside the try
            if sys.stdout is not None:  # None when started with no stdout at all
                sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "enumerate":
        return cmd_enumerate(args)
    if args.command == "orbits":
        try:
            subgroup = parse_subgroup_spec(args.subgroup)
        except ValueError as exc:
            parser.error(f"bad --subgroup: {exc}")
        return cmd_orbits(args, subgroup)
    if args.command == "classify":
        return cmd_classify(args)
    if args.command == "export":
        if args.what == "colouring" and not args.infile:
            parser.error("--what colouring requires --in")
        return cmd_export(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
