import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pentachrome
from pentachrome import chroma
from pentachrome.cli import main, parse_subgroup_spec
from pentachrome.symmetry import COLOUR_IDENTITY, COLOUR_SWAP, NAMED_SUBGROUPS


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# subgroup spec parsing

def test_parse_named_specs():
    assert len(parse_subgroup_spec("trivial")) == 1
    assert len(parse_subgroup_spec("C2")) == 2
    assert len(parse_subgroup_spec("A5")) == 60
    assert len(parse_subgroup_spec("S5")) == 120
    assert len(parse_subgroup_spec("A5xC2")) == 120
    assert len(parse_subgroup_spec("S5xC2")) == 240


def test_parse_generator_specs():
    assert parse_subgroup_spec("id,+1") == frozenset({COLOUR_IDENTITY})
    assert parse_subgroup_spec("id,-1") == frozenset({COLOUR_IDENTITY, COLOUR_SWAP})
    assert len(parse_subgroup_spec("(1 2),+1; (1 2 3 4 5),+1")) == 120
    assert len(parse_subgroup_spec("(1,2,3),+1")) == 3
    assert len(parse_subgroup_spec("(1 2)(3 4),+1")) == 2


def test_parse_rejects_garbage():
    for bad in ("garbage(((", "(1 2)", "(1 6),+1", "(1 1),+1", "(1 2),+2", "(1 2)(2 3),+1"):
        with pytest.raises(ValueError):
            parse_subgroup_spec(bad)


def test_malformed_spec_is_rejected_in_linear_time():
    # the cycle pattern once backtracked exponentially in the number of
    # cycles before a malformed tail: about 8 s for 24 cycles
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_subgroup_spec("(1) " * 24 + "x,+1")
    assert time.perf_counter() - start < 0.5


# some cycles repeat an entry or leave 1..5, so some specs are malformed
_CYCLE = st.one_of(
    st.lists(st.integers(1, 5), min_size=2, max_size=5, unique=True),
    st.lists(st.integers(0, 6), min_size=1, max_size=3),
).map(lambda xs: "(" + " ".join(map(str, xs)) + ")")
_GENERATOR = st.builds(
    lambda cycles, sign: f"{''.join(cycles) or 'id'},{sign}",
    st.lists(_CYCLE, max_size=2),
    st.sampled_from(["+1", "-1", "+2"]),
)
_SPEC = st.one_of(
    st.sampled_from(NAMED_SUBGROUPS),
    st.lists(_GENERATOR, min_size=1, max_size=3).map("; ".join),
)


@settings(max_examples=25, deadline=None)
@given(spec=_SPEC)
def test_parsed_spec_is_a_subgroup_or_rejected(model, colourings, spec):
    try:
        H = parse_subgroup_spec(spec)
    except ValueError:
        return
    orbits = chroma.orbit_partition(colourings, H, model)
    assert len(orbits) * len(H) == 240


# ---------------------------------------------------------------------------
# verify

def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "240" in out
    assert "orbits under A5 x {1}: 4" in out
    assert "inscribed tetrahedra: 10" in out
    assert "FAIL" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert all(c["ok"] for c in doc["checks"])


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_byte_stable_and_valid(capsys, tmp_path, model):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(capsys, "enumerate", "--out", str(out1))[0] == 0
    assert run_cli(capsys, "enumerate", "--out", str(out2))[0] == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    docs = json.loads(b1)
    assert len(docs) == 240
    for doc in docs:
        assert chroma.is_valid(model, tuple(doc["colours"]))


def test_enumerate_unwritable_path(capsys, tmp_path):
    code, _, err = run_cli(capsys, "enumerate", "--out", str(tmp_path / "nope" / "x.json"))
    assert code == 1
    assert "nope" in err


@pytest.mark.parametrize("argv", [
    ["enumerate"],
    ["export", "--what", "dodecahedron", "--format", "off"],
], ids=["enumerate", "export"])
def test_nul_in_out_path_is_a_one_line_error(capsys, argv):
    # only in-process callers can pass a NUL: argv from a shell holds none
    code, _, err = run_cli(capsys, *argv, "--out", "a\x00b")
    assert code == 1
    assert err.startswith("cannot write ") and err.count("\n") == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# orbits

def test_orbits_trivial(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--subgroup", "trivial")
    assert code == 0
    assert "orbit count: 240" in out
    assert "orbit sizes: [1]" in out


def test_orbits_a5(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--subgroup", "A5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 60
    assert doc["orbit_count"] == 4
    assert doc["orbit_sizes"] == [60, 60, 60, 60]
    assert len(doc["representatives"]) == 4


def test_orbits_full_group(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--subgroup", "S5xC2")
    assert code == 0
    assert "orbit count: 1" in out
    assert "orbit sizes: [240]" in out


def test_orbits_generator_spec(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--subgroup", "id,-1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 2
    assert doc["orbit_count"] == 120


def test_orbits_bad_spec_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--subgroup", "garbage((("])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# classify

def test_classify_seed_a(capsys, tmp_path, model):
    seed_a, _ = chroma.seed_colourings(model)
    path = tmp_path / "seed_a.json"
    path.write_text(chroma.colouring_to_json(seed_a))
    code, out, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 0
    assert "valid: yes" in out
    assert "compound: A" in out
    assert "working zigzag handedness: left" in out


def test_classify_constant_colouring(capsys, tmp_path):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"labelling": "canonical-v1", "colours": [1] * 20}))
    code, out, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 1
    assert "INVALID" in out
    assert "face 0" in out


def test_classify_odd_relabelling_same_compound_flipped_parity(capsys, tmp_path, model):
    from pentachrome.symmetry import ColourSymmetry

    seed_a, _ = chroma.seed_colourings(model)
    odd = ColourSymmetry((2, 1, 3, 4, 5), 1)
    relabelled = chroma.act(odd, seed_a, model)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p1.write_text(chroma.colouring_to_json(seed_a))
    p2.write_text(chroma.colouring_to_json(relabelled))
    _, out1, _ = run_cli(capsys, "classify", "--in", str(p1), "--json")
    _, out2, _ = run_cli(capsys, "classify", "--in", str(p2), "--json")
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["compound"] == doc2["compound"] == "A"
    assert {doc1["parity"], doc2["parity"]} == {"even", "odd"}


def test_classify_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "classify", "--in", str(tmp_path / "absent.json"))
    assert code == 1
    assert "absent.json" in err


MALFORMED = [
    "{not json",
    '{"labelling": "canonical-v1"}',
    '{"labelling": "canonical-v1", "colours": null}',
    '{"labelling": "canonical-v1", "colours": ' + "[" * 100_000 + "]" * 100_000 + "}",
]


@pytest.mark.parametrize(
    "text", MALFORMED, ids=["not-json", "no-colours", "null-colours", "deep-nesting"]
)
def test_classify_malformed_json(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "classify", "--in", str(path))
    assert code == 1
    assert "malformed" in err


# ---------------------------------------------------------------------------
# export

def test_export_dodecahedron_off(capsys, tmp_path):
    out = tmp_path / "d.off"
    assert run_cli(capsys, "export", "--what", "dodecahedron", "--format", "off",
                   "--out", str(out))[0] == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "20 12 30"


def test_export_compound_off_has_twenty_triangles(capsys, tmp_path):
    for what in ("compound-A", "compound-B"):
        out = tmp_path / f"{what}.off"
        assert run_cli(capsys, "export", "--what", what, "--format", "off",
                       "--out", str(out))[0] == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "20 20 30"
        assert sum(1 for ln in lines if ln.startswith("3 ")) == 20


def test_export_colouring_json_round_trip(capsys, tmp_path, model):
    seed_a, _ = chroma.seed_colourings(model)
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text(chroma.colouring_to_json(seed_a))
    assert run_cli(capsys, "export", "--what", "colouring", "--format", "json",
                   "--in", str(src), "--out", str(dst))[0] == 0
    assert chroma.colouring_from_json(dst.read_text()) == seed_a
    assert dst.read_bytes() == src.read_bytes()


def test_export_colouring_off(capsys, tmp_path, model):
    seed_a, _ = chroma.seed_colourings(model)
    src = tmp_path / "in.json"
    dst = tmp_path / "c.off"
    src.write_text(chroma.colouring_to_json(seed_a))
    assert run_cli(capsys, "export", "--what", "colouring", "--format", "off",
                   "--in", str(src), "--out", str(dst))[0] == 0
    lines = dst.read_text().splitlines()
    assert lines[0] == "COFF"
    assert lines[1] == "20 12 30"


def test_export_colouring_malformed(capsys, tmp_path):
    src = tmp_path / "in.json"
    src.write_text(MALFORMED[1])
    code, _, err = run_cli(capsys, "export", "--what", "colouring", "--format", "json",
                           "--in", str(src), "--out", str(tmp_path / "out.json"))
    assert code == 1
    assert err.startswith("malformed colouring file: ")
    assert len(err.splitlines()) == 1


def test_export_colouring_requires_input(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--what", "colouring", "--format", "json",
              "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_export_bad_selector(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--what", "megaminx", "--format", "off",
              "--out", str(tmp_path / "x.off")])
    assert exc.value.code == 2


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# any input: exit 0, 1 or 2, never a traceback

_ARG = st.text(st.characters(blacklist_characters="\x00"), max_size=12)  # argv holds no NUL
# "" names the directory itself; repeats weight the draw toward paths that work
_IN_PATHS = ("in.json", "in.json", "in.json", "absent.json", "")
_OUT_PATHS = ("out", "out", "missing/out", "")
_COLOURS = st.lists(
    st.one_of(st.integers(-1, 6), st.booleans(), st.none(), st.text(max_size=2)), max_size=21
)


def _file_contents(data, colourings):
    kind = data.draw(st.sampled_from(["valid", "valid", "colours", "malformed", "bytes"]))
    if kind == "valid":
        return chroma.colouring_to_json(data.draw(st.sampled_from(colourings))).encode()
    if kind == "colours":
        colours = data.draw(_COLOURS)
        return json.dumps({"labelling": chroma.LABELLING, "colours": colours}).encode()
    if kind == "malformed":
        return data.draw(st.sampled_from(MALFORMED)).encode()
    return data.draw(st.binary(max_size=64))


def _argv(data, path):
    command = data.draw(st.sampled_from(["orbits", "classify", "export", "enumerate"]))
    argv = [command]

    def often():
        return data.draw(st.integers(0, 3)) > 0

    def draw_path(paths):
        return path(data.draw(st.sampled_from(paths)))

    if command == "orbits":
        if often():
            argv += ["--subgroup", data.draw(st.one_of(_SPEC, _ARG))]
        if not often():
            argv.append("--json")
    elif command == "classify":
        if often():
            argv += ["--in", draw_path(_IN_PATHS)]
        if not often():
            argv.append("--json")
    elif command == "export":
        what = data.draw(st.sampled_from(
            ["dodecahedron", "compound-A", "compound-B", "colouring", "megaminx"]
        ))
        fmt = data.draw(st.sampled_from(["off", "json", "svg"]))
        argv += ["--what", what, "--format", fmt, "--out", draw_path(_OUT_PATHS)]
        if often():
            argv += ["--in", draw_path(_IN_PATHS)]
    else:
        argv += ["--out", draw_path(_OUT_PATHS)]
        if not often():
            argv += ["--format", data.draw(st.sampled_from(["json", "xml"]))]
    if not often():
        argv += data.draw(st.lists(_ARG, min_size=1, max_size=2))
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exits_cleanly_on_any_input(capsys, tmp_path, monkeypatch, colourings, data):
    monkeypatch.chdir(tmp_path)  # a generated relative path stays in tmp_path
    # a process's stderr escapes what it cannot encode, such as a lone
    # surrogate from an undecodable argv byte; the capture stream is strict
    sys.stderr.reconfigure(errors="backslashreplace")
    (tmp_path / "in.json").write_bytes(_file_contents(data, colourings))
    argv = _argv(data, lambda name: str(tmp_path / name))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)


_ORBITS = ("-m", "pentachrome.cli", "orbits", "--subgroup", "trivial")


def _cli_env(unbuffered=False):
    src = str(Path(pentachrome.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_one_without_traceback(unbuffered):
    # `pentachrome orbits ... | true`: the reader is gone before the output
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *_ORBITS], stdout=write_end, stderr=subprocess.PIPE,
            env=_cli_env(unbuffered), text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_no_stdout_at_all_exits_zero():
    # started with stdout closed: sys.stdout is None, and print writes nothing
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, *_ORBITS],
        stderr=subprocess.PIPE, env=_cli_env(), text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# start-up cost

def test_cli_runs_without_numpy(run_python, tmp_path):
    proc = run_python("""
        import sys

        from pentachrome.cli import main

        out = sys.argv[1]
        if main(["verify"]) != 0:
            raise SystemExit("verify failed")
        if main(["export", "--what", "compound-A", "--format", "off", "--out", out]) != 0:
            raise SystemExit("export failed")
        print("numpy imported:", "numpy" in sys.modules)
    """, str(tmp_path / "compound-A.off"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy imported: False"
