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

from . import chroma
from . import compound as compound_mod
from .polytope import build_polytope, model_to_json, model_to_off
from .symmetry import NAMED_SUBGROUPS, ColourSymmetry, Subgroup, generate_subgroup, named_subgroup

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


def parse_subgroup_spec(text: str) -> Subgroup:
    """A named subgroup, or a ';'-separated generator list of 'cycles,sign'.

    Examples: 'A5', 'trivial', '(1 2),+1', '(1 2 3 4 5),+1; id,-1'.
    The closure of the generators is always computed, so the result is a
    `symmetry.Subgroup`, which `orbit_partition` takes without a check.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a subgroup spec, not {text!r}")
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
        generators.append(ColourSymmetry(_parse_colour_perm(cycles), int(sign_text)))
    return generate_subgroup(generators)


def _load_colouring(path, json_report=False):
    """The colouring in a JSON file, or None after a one-line error on
    stderr, repeated on stdout as {"valid": false, "error": ...} for a
    JSON report."""
    try:
        with open(path) as fh:
            return chroma.colouring_from_json(fh.read())
    except OSError as exc:
        error = f"cannot read {path}: {exc}"
    except ValueError as exc:  # json.JSONDecodeError included
        error = f"malformed colouring file: {exc}"
    print(error, file=sys.stderr)
    if json_report:
        print(json.dumps({"valid": False, "error": error}))
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


def cmd_verify(args, model) -> int:
    from . import verify  # only this command runs the battery

    checks = [c._asdict() for c in verify.run_checks(model)]  # name, ok, detail, section, seconds
    failed = sum(not c["ok"] for c in checks)
    doc = {"checks": checks, "passed": len(checks) - failed, "failed": failed}
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for c in checks:
            detail = f": {c['detail']}" if c["detail"] else ""
            print(f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']}{detail}")
        print(f"{doc['passed']}/{len(checks)} checks passed")
    return 0 if not failed else 1


def cmd_enumerate(args, model) -> int:
    return _write(args.out, chroma.enumeration_to_json(chroma.enumerate_colourings(model)))


def cmd_orbits(args, model) -> int:
    subgroup = args.subgroup_elements
    orbits = chroma.orbit_partition(chroma.enumerate_colourings(model), subgroup, model)
    doc = {
        "subgroup": args.subgroup,
        "order": len(subgroup),
        "orbit_count": len(orbits),
        "orbit_sizes": [len(o) for o in orbits],
        "representatives": [list(o[0]) for o in orbits],  # each orbit comes sorted
    }
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    print(f"subgroup order: {doc['order']}")
    print(f"orbit count: {doc['orbit_count']}")
    print(f"orbit sizes: {sorted(set(doc['orbit_sizes']))}")
    print("representatives:")
    for r in doc["representatives"]:
        print("  " + "".join(map(str, r)))
    return 0


def cmd_classify(args, model) -> int:
    c = _load_colouring(args.infile, args.json)
    if c is None:
        return 1

    face = chroma.first_violated_face(model, c)  # the one face read; the calls below find it kept
    if face is not None:
        if args.json:
            print(json.dumps({"valid": False, "first_violated_face": face}))
        else:
            print(f"INVALID: face {face} carries colours {[c[v] for v in model.faces[face]]}")
        return 1

    comp, classes = compound_mod.classify_colouring(model, c)
    sig = chroma.face_parity_signature(model, c)
    parity_word = {1: "even", -1: "odd"}
    doc = {
        "valid": True,
        "compound": comp.label,
        "parity": parity_word[sig[0][2]],
        "handedness": chroma.working_handedness(model, c),
        "colour_classes": {str(col): list(t) for col, t in sorted(classes.items())},
        "cyclic_orders": [
            {"face": fid, "order": list(order), "parity": parity_word[p]} for fid, order, p in sig
        ],
    }
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    print("valid: yes")
    print(f"compound: {doc['compound']}")
    print(f"cyclic-order parity: {doc['parity']} on all 12 faces")
    print(f"working zigzag handedness: {doc['handedness']}")
    print("colour classes (tetrahedra):")
    for col, t in doc["colour_classes"].items():
        print(f"  colour {col}: {tuple(t)}")
    print("face cyclic orders:")
    for f in doc["cyclic_orders"]:
        print(f"  face {f['face']:2d}: {' '.join(map(str, f['order']))}  ({f['parity']})")
    return 0


def cmd_export(args, model) -> int:
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
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("enumerate", help="write all 240 colourings")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("orbits", help="orbit report for a colour subgroup")
    p.add_argument(
        "--subgroup",
        required=True,
        help="named subgroup (%s) or generators 'cycles,sign; ...'"
        % "|".join(NAMED_SUBGROUPS),
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_orbits)

    p = sub.add_parser("classify", help="classify a colouring file")
    p.add_argument("--in", dest="infile", required=True, help="colouring JSON path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("export", help="write meshes and JSON artifacts")
    p.add_argument(
        "--what",
        required=True,
        choices=["dodecahedron", "compound-A", "compound-B", "colouring"],
    )
    p.add_argument("--format", required=True, choices=["off", "json"])
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--in", dest="infile", help="colouring JSON path (for --what colouring)")
    p.set_defaults(run=cmd_export)

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
    if args.command == "orbits":
        try:
            args.subgroup_elements = parse_subgroup_spec(args.subgroup)
        except ValueError as exc:
            parser.error(f"bad --subgroup: {exc}")
    if args.command == "export" and args.what == "colouring" and not args.infile:
        parser.error("--what colouring requires --in")
    return args.run(args, build_polytope())


if __name__ == "__main__":
    sys.exit(main())
