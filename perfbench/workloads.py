"""The three workloads: their requests, the checks on every output, and the
closed loops (one client, next request after the previous one ends) that
time them.

A request's check returns None when the output is right, else a short
description of what is wrong.  Checks compare against `oracles.Oracle`,
never against stored copies of the program's output.
"""

from __future__ import annotations

import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable

import oracles

CHILD_TIMEOUT_S = 60
SETUP_PROBES = 5
LABELLING = "canonical-v1"
EXPORT_WHATS = ("dodecahedron", "compound-A", "compound-B", "colouring")
EXPORT_FORMATS = ("off", "json")
# Colour subgroups drawn for the two generator-spec `orbits` requests of a
# round: (number of generators, order).  The order is fixed so that every
# round costs the same whatever the seed; the generators are random.
SPEC_SHAPES = ((1, 6), (2, 120))
# Malformed colouring documents.  They do not depend on the seed: the
# program fails on both today (a traceback instead of a one-line message),
# and they are counted in `failed`.
MALFORMED = {
    "missing": {"labelling": LABELLING},
    "null": {"labelling": LABELLING, "colours": None},
}


@dataclass
class Request:
    """One CLI invocation: `pentachrome <args>` and the check on its result."""

    kind: str
    args: list
    check: Callable  # (exit code, stdout, stderr) -> problem or None
    outputs: tuple = ()
    known_fault: bool = False


@dataclass
class Tally:
    """What one workload measured: per-operation samples and outcomes."""

    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list = field(default_factory=list)

    def add(self, wall, cpu, rss, problem, known_fault=False, what=""):
        self.attempted += 1
        self.walls.append(wall)
        self.cpus.append(cpu)
        if rss is not None:
            self.rss.append(rss)
        if problem is not None:
            self.failed += 1
            if not known_fault:
                self.correct = False
                if len(self.problems) < 5:
                    self.problems.append(f"{what}: {problem}")


class Bench:
    """Everything the workloads share: paths, the child environment, the
    in-process package and the oracles built from its exported model."""

    def __init__(self, root: Path, out_dir: Path, workdir_name: str):
        import pentachrome
        from pentachrome import chroma, cli, compound, polytope

        self.root = root
        self.src = root / "src"
        self.bench_dir = Path(__file__).resolve().parent
        self.work = out_dir / workdir_name
        self.work.mkdir(parents=True, exist_ok=True)
        for old in self.work.iterdir():
            old.unlink()
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.package = pentachrome
        self.chroma, self.cli, self.compound, self.polytope = chroma, cli, compound, polytope

        model = polytope.build_polytope()
        self.model_doc = json.loads(polytope.model_to_json(model))
        self.oracle = oracles.Oracle(self.model_doc)
        self.oracle.self_check()
        if set(chroma.enumerate_colourings(model)) != self.oracle.colouring_set:
            raise oracles.OracleError("package enumeration differs from the oracle's 240")
        self.compounds = {}
        for comp in compound.compounds(model):
            doc = json.loads(compound.compound_to_json(comp))
            tets = tuple(tuple(t) for t in doc["tetrahedra"])
            if not self.oracle.is_compound(tets):
                raise oracles.OracleError(f"exported compound {doc['compound']} is not a compound")
            self.compounds[doc["compound"]] = tets
        self.orders = {
            name: len(oracles.closure(gens)) for name, gens in oracles.NAMED_GENERATORS.items()
        }
        for name, doc in MALFORMED.items():
            (self.work / f"malformed-{name}.json").write_text(json.dumps(doc))

    # -- processes ------------------------------------------------------------

    def run_child(self, argv):
        """Run argv to its end; (exit code, stdout, stderr, wall s, CPU s, peak RSS MB)."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.work, env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            proc.returncode,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )

    def cli_argv(self, args):
        return [sys.executable, "-m", "pentachrome.cli", *args]

    def probe_seconds(self, argv, runs: int = SETUP_PROBES) -> float:
        """Median wall time of `runs` fresh processes running argv."""
        walls = []
        for _ in range(runs):
            code, _, err, wall, _, _ = self.run_child(argv)
            if code != 0:
                raise RuntimeError(f"probe {argv[1:]} failed: {err.strip()[-300:]}")
            walls.append(wall)
        return statistics.median(walls)

    def setup_seconds(self) -> float:
        """The library set-up in a fresh interpreter (`warm.py`)."""
        return self.probe_seconds([sys.executable, str(self.bench_dir / "warm.py")])

    def start_ms(self) -> float:
        """A fresh interpreter that only imports the CLI."""
        return 1000.0 * self.probe_seconds([sys.executable, "-c", "import pentachrome.cli"])

    def run_in_process(self, args):
        """`cli.main(args)` in this process, as a fresh process would end:
        an uncaught exception prints its traceback and gives status 1."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception:  # the child would die here with a traceback
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    # -- inputs -----------------------------------------------------------------

    def write_colouring(self, name: str, c) -> Path:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps({"labelling": LABELLING, "colours": list(c)}))
        return path

    def random_spec(self, rng, n_generators: int, order: int):
        """Random generators (perm, sign) whose closure has the given order."""
        while True:
            gens = [
                (tuple(rng.sample(oracles.COLOURS, 5)), rng.choice((1, -1)))
                for _ in range(n_generators)
            ]
            if len(oracles.closure(gens)) == order:
                return gens

    # -- requests ---------------------------------------------------------------

    def verify_request(self) -> Request:
        return Request("verify", ["verify", "--json"], self.check_verify)

    def cli_round(self, rng) -> list:
        """One round of `cli-queries`: 23 requests, always the same kinds."""
        o = self.oracle
        reqs = []
        for name in oracles.NAMED_GENERATORS:
            reqs.append(self._orbits(name, self.orders[name]))
        for n_generators, order in SPEC_SHAPES:
            gens = self.random_spec(rng, n_generators, order)
            reqs.append(self._orbits(oracles.spec_text(gens), order))
        for as_json in (True, False):
            c = rng.choice(o.colourings)
            path = self.write_colouring(f"valid-{int(as_json)}", c)
            args = ["classify", "--in", str(path)] + (["--json"] if as_json else [])
            check = self.check_classify_json if as_json else self.check_classify_text
            reqs.append(Request("classify", args, partial(check, c)))
        for as_json in (True, False):
            bad = o.mutate(rng, rng.choice(o.colourings))
            path = self.write_colouring(f"invalid-{int(as_json)}", bad)
            args = ["classify", "--in", str(path)] + (["--json"] if as_json else [])
            reqs.append(Request("classify_invalid", args, partial(self.check_invalid, bad, as_json)))
        for name in MALFORMED:
            path = self.work / f"malformed-{name}.json"
            reqs.append(Request(
                "classify_malformed", ["classify", "--in", str(path)],
                self.check_malformed, known_fault=True,
            ))
        c = rng.choice(o.colourings)
        source = self.write_colouring("export-source", c)
        for what in EXPORT_WHATS:
            for fmt in EXPORT_FORMATS:
                out = self.work / f"export-{what}.{fmt}"
                args = ["export", "--what", what, "--format", fmt, "--out", str(out)]
                if what == "colouring":
                    args += ["--in", str(source)]
                check = partial(self.check_export, what, fmt, c, out)
                reqs.append(Request("export", args, check, outputs=(out,)))
        out = self.work / "enumeration.json"
        check = partial(self.check_enumerate, out)
        reqs.append(Request("enumerate", ["enumerate", "--out", str(out)], check, outputs=(out,)))
        return reqs

    def _orbits(self, spec: str, order: int) -> Request:
        args = ["orbits", "--subgroup", spec, "--json"]
        return Request("orbits", args, partial(self.check_orbits, spec, order))

    # -- checks -----------------------------------------------------------------

    def check_verify(self, code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        doc = json.loads(out)
        bad = [c["name"] for c in doc["checks"] if not c["ok"]]
        if bad or doc["failed"] != 0 or doc["passed"] != len(doc["checks"]):
            return f"failed checks {bad}"
        seen = set()
        for chk in doc["checks"]:
            if not chk["name"].startswith("orbits under "):
                continue
            label = chk["name"][len("orbits under "):]
            name = "A5" if label == "A5 x {1}" else label
            m = re.fullmatch(r"(\d+) orbits of size \[(\d+)\], \|H\| = (\d+)", chk["detail"])
            h = self.orders[name]
            if m is None or tuple(map(int, m.groups())) != (240 // h, h, h):
                return f"{chk['name']}: {chk['detail']!r}, expected |H| = {h}"
            seen.add(name)
        if seen != set(self.orders):
            return f"orbit checks for {sorted(seen)}"
        return None

    def check_orbits(self, spec, order, code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        doc = json.loads(out)
        reps = [tuple(r) for r in doc["representatives"]]
        if doc["order"] != order or doc["subgroup"] != spec:
            return f"order {doc['order']} for {spec!r}, expected {order}"
        if any(s != order for s in doc["orbit_sizes"]) or len(doc["orbit_sizes"]) != doc["orbit_count"]:
            return f"orbit sizes {sorted(set(doc['orbit_sizes']))} under order {order}"
        if doc["orbit_count"] * order != 240 or len(set(reps)) != doc["orbit_count"]:
            return f"{doc['orbit_count']} orbits, {len(set(reps))} representatives"
        if not all(len(r) == 20 and self.oracle.is_valid(r) for r in reps):
            return "a representative is not face-rainbow"
        return None

    def check_classification(self, c, label, parity, handedness, classes, orders):
        """The facts `classify` reports, against the oracles.

        `classes` maps colour -> vertex tuple; `orders` lists
        (face id, cyclic order, parity word) for the 12 faces.
        """
        o = self.oracle
        classes = {k: tuple(sorted(v)) for k, v in classes.items()}
        if classes != o.classes(c):
            return f"colour classes {classes}"
        if label not in self.compounds or set(classes.values()) != {
            tuple(sorted(t)) for t in self.compounds[label]
        }:
            return f"classes do not form exported compound {label!r}"
        if not all(o.is_regular_tetrahedron(t) for t in classes.values()):
            return "a colour class is not a regular tetrahedron"
        want_orders = []
        for f in range(12):
            order = o.cyclic_order(c, f)
            want_orders.append((f, order, "even" if oracles.order_parity(order) == 1 else "odd"))
        if parity != want_orders[0][2]:
            return f"parity {parity}, expected {want_orders[0][2]}"
        if [(f, tuple(order), p) for f, order, p in orders] != want_orders:
            return "face cyclic orders or parities differ from the oracle"
        if (label, handedness) not in (("A", "left"), ("B", "right")):
            return f"compound {label} works {handedness}"
        return None

    def check_classify_json(self, c, code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        doc = json.loads(out)
        if doc["valid"] is not True:
            return "valid colouring reported invalid"
        classes = {int(k): tuple(v) for k, v in doc["colour_classes"].items()}
        orders = [(e["face"], e["order"], e["parity"]) for e in doc["cyclic_orders"]]
        return self.check_classification(
            c, doc["compound"], doc["parity"], doc["handedness"], classes, orders
        )

    def check_classify_text(self, c, code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"

        def field(pattern):
            m = re.search(pattern, out, re.MULTILINE)
            if m is None:
                raise ValueError(f"no line matching {pattern!r}")
            return m.group(1)

        if field(r"^valid: (\w+)$") != "yes":
            return "valid colouring reported invalid"
        classes = {
            int(col): tuple(int(v) for v in members.split(","))
            for col, members in re.findall(r"^  colour (\d): \(([\d, ]+)\)$", out, re.MULTILINE)
        }
        orders = [
            (int(f), tuple(int(x) for x in order.split()), p)
            for f, order, p in re.findall(
                r"^  face\s+(\d+): ([1-5 ]+?)  \((odd|even)\)$", out, re.MULTILINE
            )
        ]
        return self.check_classification(
            c,
            field(r"^compound: (\S+)$"),
            field(r"^cyclic-order parity: (\w+) on all 12 faces$"),
            field(r"^working zigzag handedness: (\w+)$"),
            classes,
            orders,
        )

    def check_invalid(self, bad, as_json, code, out, err):
        face = self.oracle.first_short_face(bad)
        if code != 1:
            return f"exit {code} on an invalid colouring"
        if as_json:
            if json.loads(out) != {"valid": False, "first_violated_face": face}:
                return f"{out.strip()!r}, expected face {face}"
        else:
            colours = [bad[v] for v in self.oracle.faces[face]]
            if out.strip() != f"INVALID: face {face} carries colours {colours}":
                return f"{out.strip()!r}, expected face {face}"
        return None

    def check_malformed(self, code, out, err):
        lines = err.strip().splitlines()
        if code != 1 or len(lines) != 1 or "Traceback" in err:
            return f"exit {code} with {len(lines)} stderr lines: {lines[-1] if lines else ''!r}"
        return None

    def check_export(self, what, fmt, c, path, code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        text = Path(path).read_text()
        o = self.oracle
        if fmt == "json":
            doc = json.loads(text)
            if what == "dodecahedron":
                ok = doc == self.model_doc
            elif what == "colouring":
                ok = doc == {"labelling": LABELLING, "colours": list(c)}
            else:
                tets = tuple(tuple(t) for t in doc["tetrahedra"])
                ok = doc["compound"] == what[-1] and tets == self.compounds[what[-1]]
            return None if ok else f"{what} JSON differs"
        lines = text.splitlines()
        header = "COFF" if what == "colouring" else "OFF"
        counts = "20 20 30" if what.startswith("compound") else "20 12 30"
        if lines[:2] != [header, counts] or len(lines) != 2 + 20 + int(counts.split()[1]):
            return f"{what} OFF header {lines[:2]} with {len(lines)} lines"
        rows = [line.split() for line in lines[2:22]]
        coords = [tuple(float(x) for x in row[:3]) for row in rows]
        if any(abs(a - b) > 1e-12 for p, q in zip(coords, o.coords) for a, b in zip(p, q)):
            return f"{what} OFF vertices differ from the exported model"
        polys = [tuple(int(x) for x in line.split()) for line in lines[22:]]
        if what.startswith("compound"):
            tris = {frozenset(p[1:4]) for p in polys if p[0] == 3}
            want = {frozenset(t) for tet in self.compounds[what[-1]] for t in combinations(tet, 3)}
            return None if tris == want else f"{what} OFF triangles differ"
        if polys != [(5, *f) for f in o.faces]:
            return f"{what} OFF faces differ"
        if what == "colouring":
            pairs = {(c[v], tuple(row[3:])) for v, row in enumerate(rows)}
            if len(pairs) != 5 or len({rgba for _, rgba in pairs}) != 5:
                return "COFF vertex colours do not follow the colouring"
        return None

    def check_enumerate(self, path, code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        docs = json.loads(Path(path).read_text())
        got = [tuple(d["colours"]) for d in docs]
        if any(d["labelling"] != LABELLING for d in docs):
            return "unexpected labelling"
        if len(got) != 240 or set(got) != self.oracle.colouring_set:
            return f"{len(got)} colourings, {len(set(got) & self.oracle.colouring_set)} shared"
        return None

    # -- library-stream ---------------------------------------------------------

    def stream_inputs(self, rng):
        """The seeded inputs of one stream request."""
        o = self.oracle
        c = rng.choice(o.colourings)
        g = (tuple(rng.sample(oracles.COLOURS, 5)), rng.choice((1, -1)))
        return {
            "c": c,
            "mutant": o.mutate(rng, c),
            "g": g,
            "symmetry": self.package.ColourSymmetry(*g),
            "vertex": rng.randrange(20),
        }

    def stream_request(self, model, x):
        """One `library-stream` request; returns what the checks need."""
        chroma, compound = self.chroma, self.compound
        c, mutant = x["c"], x["mutant"]
        r = {"valid": chroma.is_valid(model, c), "mutant_valid": chroma.is_valid(model, mutant)}
        try:
            compound.classify_colouring(model, mutant)
            r["mutant_raised"] = False
        except ValueError:
            r["mutant_raised"] = True
        r["image"] = chroma.act(x["symmetry"], c, model)
        r["compound"], r["classes"] = compound.classify_colouring(model, c)
        r["signature"] = chroma.face_parity_signature(model, c)
        r["hand"] = chroma.working_handedness(model, c)
        r["trace"] = chroma.zigzag_trace(model, c, x["vertex"], r["hand"])
        r["antipodal"] = chroma.antipodal_rule_holds(model, c)
        r["round_trip"] = chroma.colouring_from_json(chroma.colouring_to_json(c))
        return r

    def check_stream(self, x, r):
        o = self.oracle
        c = x["c"]
        if not r["valid"] or r["mutant_valid"] or not r["mutant_raised"]:
            return "validity of the colouring or its mutant misjudged"
        if r["image"] != o.act(x["g"], c):
            return f"act by {x['g']} differs from the oracle's action"
        orders = [(f, order, "even" if p == 1 else "odd") for f, order, p in r["signature"]]
        problem = self.check_classification(
            c, r["compound"].label, orders[0][2], r["hand"], r["classes"], orders
        )
        if problem:
            return problem
        if r["trace"] != frozenset(o.classes(c)[c[x["vertex"]]]):
            return f"zigzag checkpoints from vertex {x['vertex']} are not its colour class"
        if r["antipodal"] is not True:
            return "antipodal colour rule"
        if r["round_trip"] != c:
            return "JSON round trip is not the identity"
        return None


def checked(check, *args):
    """Run a check; unparseable output is a problem, not a crash."""
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, OSError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def run_fresh(bench: Bench, seconds: float, make_round) -> Tally:
    """Closed loop of fresh CLI processes, whole rounds, for `seconds`."""
    tally = Tally()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for req in make_round():
            code, out, err, wall, cpu, rss = bench.run_child(bench.cli_argv(req.args))
            problem = checked(req.check, code, out, err)
            tally.add(wall, cpu, rss, problem, req.known_fault, " ".join(req.args))
    return tally


def run_stream(bench: Bench, seconds: float, rng, model) -> Tally:
    """Closed loop of in-process library requests for `seconds`."""
    tally = Tally()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        x = bench.stream_inputs(rng)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            r = bench.stream_request(model, x)
        except Exception as exc:  # the program failed this request
            r = exc
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        problem = repr(r) if isinstance(r, Exception) else checked(bench.check_stream, x, r)
        tally.add(wall, cpu, None, problem, what=f"stream on {x['c']}")
    tally.rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return tally
