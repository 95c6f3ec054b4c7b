"""The traced per-module run.

The tracer wraps the package's public functions from outside: it rebinds
every name in the package's modules that refers to a target function, so
calls between modules and within a module both go through the wrapper, and
it restores the originals afterwards.  The package source is untouched.

Two kinds of wrapper:
- a span (name, start, end, parent, operation id) for each call of the
  layer-level functions, kept in memory and written out at the end;
- for the hottest functions, no span: `act` and `is_valid` add to a call
  count, an inclusive time and a self time (inclusive minus the timed
  callees); `check_colouring` is only counted, so its time stays in its
  caller's self time.

The programme runs one part per workload, in-process, first untraced and
then traced on the same inputs; `trace.overhead_pct` compares the two.
Every part always makes the same calls, so the call counts repeat exactly
whatever the seed.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import warm
from workloads import checked

SPANS = {
    "polytope.build_polytope": ("polytope", "build_polytope"),
    "symmetry.rotation_group": ("symmetry", "rotation_group"),
    "symmetry.named_subgroup": ("symmetry", "named_subgroup"),
    "symmetry.generate_subgroup": ("symmetry", "generate_subgroup"),
    "chroma.enumerate_colourings": ("chroma", "enumerate_colourings"),
    "chroma.frame_completions": ("chroma", "frame_completions"),
    "chroma.orbit_partition": ("chroma", "orbit_partition"),
    "chroma.stabilizer": ("chroma", "stabilizer"),
    "chroma.zigzag_trace": ("chroma", "zigzag_trace"),
    "chroma.face_parity_signature": ("chroma", "face_parity_signature"),
    "chroma.working_handedness": ("chroma", "working_handedness"),
    "compound.classify_colouring": ("compound", "classify_colouring"),
    "compound.inscribed_tetrahedra": ("compound", "inscribed_tetrahedra"),
    "compound.spread_subsets": ("compound", "spread_subsets"),
    "verify.run_checks": ("verify", "run_checks"),
    "verify.section.polytope": ("verify", "_polytope_checks"),
    "verify.section.symmetry": ("verify", "_symmetry_checks"),
    "verify.section.colouring": ("verify", "_colouring_checks"),
    "verify.section.compound": ("verify", "_compound_checks"),
    "verify.section.structure": ("verify", "_structure_checks"),
    "verify.section.export": ("verify", "_export_checks"),
    "cli.main": ("cli", "main"),
}
TIMED = {"chroma.act": ("chroma", "act"), "chroma.is_valid": ("chroma", "is_valid")}
COUNTED = {"chroma.check_colouring": ("chroma", "check_colouring")}
# Span names reported as `<name>.calls` and `<name>.ms`, and as `.ms` only.
CALLS_AND_MS = [n for n in SPANS if not n.startswith(("verify.", "cli."))]
MS_ONLY = [n for n in SPANS if n.startswith("verify.")]
CLI_KINDS = (
    "verify", "orbits", "classify", "classify_invalid", "classify_malformed", "export", "enumerate",
)
STREAM_OPS = 1000


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.hot = {name: [0, 0, 0] for name in (*TIMED, *COUNTED)}  # calls, incl ns, self ns
        self.op = None
        self._stack = [None]
        self._child_ns = [0]  # time of timed callees at the current depth
        self._ids = itertools.count(1)
        self._bindings = []
        for name, (mod, attr) in SPANS.items():
            self._bind(mod, attr, lambda fn, name=name: self._span(name, fn))
        for name, (mod, attr) in TIMED.items():
            self._bind(mod, attr, lambda fn, name=name: self._timed(self.hot[name], fn))
        for name, (mod, attr) in COUNTED.items():
            self._bind(mod, attr, lambda fn, name=name: self._counted(self.hot[name], fn))

    def _bind(self, module_name, attr, wrap):
        """Plan to rebind every package name that refers to module.attr."""
        original = getattr(self.modules.get(module_name), attr, None)
        if original is None:
            return
        wrapper = wrap(original)
        for module in self.modules.values():
            for name, value in vars(module).items():
                if value is original:
                    self._bindings.append((module, name, original, wrapper))

    def install(self):
        for module, name, _, wrapper in self._bindings:
            setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original, _ in self._bindings:
            setattr(module, name, original)

    def _span(self, name, fn):
        stack, child_ns, ids, clock = self._stack, self._child_ns, self._ids, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid, parent = next(ids), stack[-1]
            stack.append(sid)
            saved, child_ns[0] = child_ns[0], 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                child_ns[0] = saved + t1 - t0
                self.spans.append((self.op, sid, parent, name, t0, t1))

        return wrapper

    def _timed(self, stat, fn):
        child_ns, clock = self._child_ns, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            saved, child_ns[0] = child_ns[0], 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child_ns[0]
                child_ns[0] = saved + dt

        return wrapper

    def _counted(self, stat, fn):
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def operation(self, op_id, name, fn):
        """Run fn as operation op_id, under a root span."""
        self.op = op_id
        return self._span(name, fn)()


def _package_modules():
    return {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name.split(".")[0] == "pentachrome" and module is not None
    }


def _caches(modules):
    """The package's functools caches, cleared to start like a fresh process."""
    found = {}
    for module in modules.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def _parts(bench, rng):
    """Per workload: a list of (kind, run, judge) on the seeded inputs.

    `run()` makes one request and returns its raw result; `judge(result)`
    returns (problem or None, known fault, bytes the CLI wrote).  Only
    `run` is timed.
    """

    def cli_op(req):
        def judge(result):
            written = len(result[1].encode()) + sum(
                p.stat().st_size for p in req.outputs if p.exists()
            )
            return checked(req.check, *result), req.known_fault, written

        return req.kind, lambda: bench.run_in_process(req.args), judge

    state = {}

    def setup():
        state["model"], _ = warm.warm_library()

    def stream_op(x):
        def run():
            try:
                return bench.stream_request(state["model"], x)
            except Exception as exc:  # the program failed this request
                return exc

        def judge(r):
            if isinstance(r, Exception):
                return repr(r), False, 0
            return checked(bench.check_stream, x, r), False, 0

        return "stream", run, judge

    return {
        "verify-cold": [cli_op(bench.verify_request())],
        "cli-queries": [cli_op(req) for req in bench.cli_round(rng)],
        "library-stream": [("setup", setup, lambda _: (None, False, 0))]
        + [stream_op(bench.stream_inputs(rng)) for _ in range(STREAM_OPS)],
    }


def traced_run(bench, rng, workload, trace_path):
    """Run the per-module programme; return (metrics, attempted, failed,
    correct, problems) and write the spans to trace_path."""
    modules = _package_modules()
    caches = _caches(modules)
    parts = _parts(bench, rng)
    tracer = Tracer(modules)
    op_part, part_ms, part_hot, untraced_kind_ms = {}, {}, {}, defaultdict(list)
    attempted = failed = written = 0
    correct, problems = True, []
    op_ids = itertools.count(1)

    for part, ops in parts.items():
        hot_before = {name: list(stat) for name, stat in tracer.hot.items()}
        part_ms[part] = {False: 0.0, True: 0.0}
        for i, (kind, run, judge) in enumerate(ops):
            # Each operation runs untraced and traced back to back, first one
            # then the other in turn, so that drift in machine speed cancels.
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if part != "library-stream" or kind == "setup":  # start cold
                    for cache in caches:
                        cache.cache_clear()
                op_id = next(op_ids)
                op_part[op_id] = part
                if traced:
                    tracer.install()
                try:
                    t0 = time.perf_counter_ns()
                    result = tracer.operation(op_id, f"op.{kind}", run) if traced else run()
                    dt = (time.perf_counter_ns() - t0) / 1e6
                finally:
                    tracer.uninstall()
                part_ms[part][traced] += dt
                problem, known, nbytes = judge(result)
                if problem is not None and not known:
                    correct = False
                    problems.append(f"{part} {kind}: {problem}")
                if not traced:
                    untraced_kind_ms[kind].append(dt)
                    continue
                attempted += 1
                failed += problem is not None
                written += nbytes
        part_hot[part] = {
            name: {"calls": stat[0] - hot_before[name][0],
                   "incl_ms": (stat[1] - hot_before[name][1]) / 1e6,
                   "self_ms": (stat[2] - hot_before[name][2]) / 1e6}
            if name in TIMED else {"calls": stat[0] - hot_before[name][0]}
            for name, stat in tracer.hot.items()
        }

    calls, ns = Counter(), Counter()
    part_calls, part_ns = defaultdict(Counter), defaultdict(Counter)
    for op_id, _, _, name, t0, t1 in tracer.spans:
        calls[name] += 1
        ns[name] += t1 - t0
        part_calls[op_part[op_id]][name] += 1
        part_ns[op_part[op_id]][name] += t1 - t0
    verify_calls = part_calls["verify-cold"]

    metrics = {}
    for name in CALLS_AND_MS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.ms"] = (ns[name] / 1e6, "ms")
    for name in MS_ONLY:
        metrics[f"{name}.ms"] = (ns[name] / 1e6, "ms")
    act, valid, check = (tracer.hot[n] for n in ("chroma.act", "chroma.is_valid", "chroma.check_colouring"))
    metrics["chroma.act.calls"] = (act[0], "count")
    metrics["chroma.act.self_ms"] = (act[2] / 1e6, "ms")
    metrics["chroma.is_valid.calls"] = (valid[0], "count")
    metrics["chroma.is_valid.self_ms"] = (valid[2] / 1e6, "ms")
    metrics["chroma.check_colouring.calls"] = (check[0], "count")
    metrics["chroma.validations_per_act"] = (valid[0] / max(act[0], 1), "ratio")
    runs = max(verify_calls["verify.run_checks"], 1)
    metrics["verify.enumerations_per_run"] = (
        verify_calls["chroma.enumerate_colourings"] / runs, "ratio")
    metrics["verify.classifications_per_colouring"] = (
        verify_calls["compound.classify_colouring"] / (runs * len(bench.oracle.colourings)), "ratio")
    metrics["cli.start_ms"] = (bench.start_ms(), "ms")
    for kind in CLI_KINDS:
        metrics[f"cli.command_ms.{kind}"] = (statistics.mean(untraced_kind_ms[kind]), "ms")
    metrics["cli.bytes_written"] = (written, "count")
    overhead = {
        part: 100.0 * (part_ms[part][True] - part_ms[part][False]) / part_ms[part][False]
        for part in parts
    }
    if workload in overhead:
        metrics["trace.overhead_pct"] = (overhead[workload], "%")
    else:
        for part, pct in overhead.items():
            metrics[f"{part}/trace.overhead_pct"] = (pct, "%")

    trace_path.write_text(json.dumps({
        "workload": workload,
        "parts": {
            part: {
                "untraced_ms": part_ms[part][False],
                "traced_ms": part_ms[part][True],
                "ops": [op[0] for op in ops],
                "calls": dict(part_calls[part]),
                "ms": {name: t / 1e6 for name, t in part_ns[part].items()},
                "hot": part_hot[part],
            }
            for part, ops in parts.items()
        },
        "span_fields": ["op", "id", "parent", "name", "start_ns", "end_ns"],
        "spans": tracer.spans,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
    }))
    return metrics, attempted, failed, correct, problems
