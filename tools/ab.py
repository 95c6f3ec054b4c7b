"""Paired in-process timing of library requests: the working tree against a git revision.

    python tools/ab.py --rev <git-rev> [--requests N] [--rounds R] [--seed S]

Extracts the revision's ``src/pentachrome`` with ``git archive`` into a
temporary directory and loads it under another package name (the package
imports itself only relatively).  Beside it, the working tree's package is
loaded twice, as "change" and "copy".  Each round runs the same seeded
library-stream requests (those of ``perfbench/run.py --workload
library-stream``: validity of a colouring and of a mutant, the mutant's
classification, one action, the classification, the parity signature, the
handedness, a trace, the antipodal rule and a JSON round trip) on every
package, alternating the packages request by request, so host drift falls
on all of them alike.  Every output is checked against the independent
oracles of ``perfbench/oracles.py``.

It prints the median request time of each package, then the change/parent
ratio of the medians next to the copy/change ratio: two loads of the same
code, the noise floor of the measurement.  The same loop also times each of
a request's ten calls (``CALLS``), and the same two ratios are printed for
each call by name, so a saving shows in the calls that make it.  Timings
are reported, never gated: the exit status is 1 only if a package gives a
wrong output, and 2 on a usage error, such as a revision git cannot
archive.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import json
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import oracles  # noqa: E402

WARM_REQUESTS = 100


def load(name: str, package_dir: Path):
    """The package in package_dir, imported as the top-level package `name`."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def extract(rev: str, into: Path) -> Path:
    """The revision's src/pentachrome, written into `into` by git archive."""
    git = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/pentachrome"],
                         capture_output=True)
    if git.returncode:  # a usage error, as argparse reports one
        print(f"git archive {rev}: {git.stderr.decode().strip()}", file=sys.stderr)
        sys.exit(2)
    with tarfile.open(fileobj=io.BytesIO(git.stdout)) as archive:
        for member in archive.getmembers():
            if member.isfile():  # the package has no subpackages
                (into / Path(member.name).name).write_bytes(archive.extractfile(member).read())
    return into


# a request's calls, in the order `request` makes them
CALLS = ("is_valid", "is_valid mutant", "classify mutant", "act", "classify_colouring",
         "face_parity_signature", "working_handedness", "zigzag_trace",
         "antipodal_rule_holds", "JSON round trip")


def request(pkg, model, x, stamps):
    """One library-stream request; returns what the check needs.  Appends
    the clock to stamps after each of its calls, in the order of CALLS."""
    chroma, compound = pkg.chroma, pkg.compound
    clock = time.perf_counter
    c, mutant = x["c"], x["mutant"]
    r = {"valid": chroma.is_valid(model, c)}
    stamps.append(clock())
    r["mutant_valid"] = chroma.is_valid(model, mutant)
    stamps.append(clock())
    try:
        compound.classify_colouring(model, mutant)
        r["mutant_raised"] = False
    except ValueError:
        r["mutant_raised"] = True
    stamps.append(clock())
    r["image"] = chroma.act(x["symmetry"][pkg.__name__], c, model)
    stamps.append(clock())
    r["compound"], r["classes"] = compound.classify_colouring(model, c)
    stamps.append(clock())
    r["signature"] = chroma.face_parity_signature(model, c)
    stamps.append(clock())
    r["hand"] = chroma.working_handedness(model, c)
    stamps.append(clock())
    r["trace"] = chroma.zigzag_trace(model, c, x["vertex"], r["hand"])
    stamps.append(clock())
    r["antipodal"] = chroma.antipodal_rule_holds(model, c)
    stamps.append(clock())
    r["round_trip"] = chroma.colouring_from_json(chroma.colouring_to_json(c))
    stamps.append(clock())
    return r


def problem(oracle, compounds, x, r):
    """None if the request's outputs agree with the oracles, else what differs."""
    c = x["c"]
    classes = oracle.classes(c)
    if not r["valid"] or r["mutant_valid"] or not r["mutant_raised"]:
        return "validity of the colouring or its mutant misjudged"
    if r["image"] != oracle.act(x["g"], c):
        return f"act by {x['g']} differs from the oracle's action"
    if {k: tuple(sorted(v)) for k, v in r["classes"].items()} != classes:
        return "colour classes differ from the oracle's"
    if set(classes.values()) != set(compounds[r["compound"].label]):
        return f"classes do not form compound {r['compound'].label}"
    orders = [(f, oracle.cyclic_order(c, f)) for f in range(12)]
    if [(f, tuple(order), p) for f, order, p in r["signature"]] != [
            (f, order, oracles.order_parity(order)) for f, order in orders]:
        return "face cyclic orders or parities differ from the oracle's"
    if (r["compound"].label, r["hand"]) not in (("A", "left"), ("B", "right")):
        return f"compound {r['compound'].label} works {r['hand']}"
    if r["trace"] != frozenset(classes[c[x["vertex"]]]):
        return f"zigzag checkpoints from vertex {x['vertex']} are not its colour class"
    if r["antipodal"] is not True or r["round_trip"] != c:
        return "antipodal rule or JSON round trip"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", required=True, help="the git revision to compare against")
    ap.add_argument("--requests", type=int, default=2000, help="requests per round (default 2000)")
    ap.add_argument("--rounds", type=int, default=10, help="rounds (default 10)")
    ap.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    args = ap.parse_args(argv)
    if args.requests < 1 or args.rounds < 1:
        ap.error("--requests and --rounds must be at least 1")

    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        pkgs = {
            "change": load("ab_change", ROOT / "src" / "pentachrome"),
            "copy": load("ab_copy", ROOT / "src" / "pentachrome"),
            "parent": load("ab_parent", extract(args.rev, Path(tmp))),
        }
    models = {label: pkg.build_polytope() for label, pkg in pkgs.items()}
    exported = {pkg.model_to_json(models[label]) for label, pkg in pkgs.items()}
    if len(exported) != 1:
        print("the packages export different models", file=sys.stderr)
        return 1
    oracle = oracles.Oracle(json.loads(exported.pop()))
    oracle.self_check()
    compounds = {comp.label: set(comp.tetrahedra)
                 for comp in pkgs["change"].compounds(models["change"])}

    rng = random.Random(f"{args.seed}:library-stream")
    inputs = []
    for _ in range(args.requests):
        c = rng.choice(oracle.colourings)
        g = (tuple(rng.sample(oracles.COLOURS, 5)), rng.choice((1, -1)))
        inputs.append({
            "c": c, "mutant": oracle.mutate(rng, c), "g": g,
            "symmetry": {pkg.__name__: pkg.ColourSymmetry(*g) for pkg in pkgs.values()},
            "vertex": rng.randrange(20),
        })

    labels = list(pkgs)
    wrong = []

    def timed(label, x, where):
        """One request on a package: its seconds and the seconds of each of
        its calls, with any wrong output noted."""
        stamps = [time.perf_counter()]
        try:
            r = request(pkgs[label], models[label], x, stamps)
        except Exception as exc:  # the package failed the request
            r = exc
        seconds = time.perf_counter() - stamps[0]
        p = repr(r) if isinstance(r, Exception) else problem(oracle, compounds, x, r)
        if p is not None:
            wrong.append(f"{label}, {where}, on {x['c']}: {p}")
        return seconds, [b - a for a, b in zip(stamps, stamps[1:])]

    for x in inputs[:WARM_REQUESTS]:  # the first calls fill each package's memos
        for label in labels:
            timed(label, x, "warm-up")
    # label -> timed part (the request, or one of its calls) -> median per round, in us
    medians = {label: {part: [] for part in ("request", *CALLS)} for label in labels}
    for rnd in range(1, args.rounds + 1):
        times = {label: {part: [] for part in ("request", *CALLS)} for label in labels}
        gc.collect()
        for i, x in enumerate(inputs):
            k = i % len(labels)  # each package goes first in turn
            for label in labels[k:] + labels[:k]:
                seconds, calls = timed(label, x, f"round {rnd} request {i}")
                times[label]["request"].append(seconds)
                for name, call_seconds in zip(CALLS, calls):
                    times[label][name].append(call_seconds)
        for label in labels:
            for part, samples in times[label].items():
                if samples:  # empty only where every request failed before this call
                    medians[label][part].append(statistics.median(samples) * 1e6)
        print(f"round {rnd}: " + ", ".join(f"{label} {medians[label]['request'][-1]:.1f} us"
                                           for label in labels))

    def ratio(a, b, part="request"):
        rs = sorted(x / y for x, y in zip(medians[a][part], medians[b][part]))
        if not rs:
            return "n/a"
        return f"{statistics.median(rs):.3f} (range {rs[0]:.3f}-{rs[-1]:.3f})"

    def median_us(label, part="request"):
        return f"{statistics.median(medians[label][part] or [float('nan')]):.2f} us"

    print("median request: " + ", ".join(f"{label} {median_us(label)}" for label in labels))
    print(f"change/parent {ratio('change', 'parent')}; "
          f"copy/change {ratio('copy', 'change')}, the noise floor")
    print("per call: parent and change medians, change/parent, copy/change (the noise floor)")
    width = max(map(len, CALLS))
    for name in CALLS:
        print(f"  {name:<{width}}  {median_us('parent', name):>9} -> {median_us('change', name):>9}"
              f"  {ratio('change', 'parent', name)}  {ratio('copy', 'change', name)}")
    for line in wrong[:5]:
        print(f"wrong output: {line}", file=sys.stderr)
    if wrong:
        print(f"{len(wrong)} wrong outputs", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
